//! What more than one test binary here checks. Each `tests/*.rs` file that
//! needs it declares `mod common;`.

use cor::kernel::World;

/// Quiescence: what `World::settle` promises when it returns `Ok`. Every
/// queue a server drains (NetMsgServer ports, backer ports) is empty —
/// except on a crashed node, which serves nothing — and each fabric
/// component is at rest: a down node has lost its volatile state, no live
/// node holds a parked waiter ([`assert_unparked`]), the two
/// retransmission accounts agree, and on a routed fault-free wire every
/// ledgered byte crossed at least one link (with a fault plan, dropped
/// attempts are ledgered but never routed).
pub fn assert_quiescent(world: &World, what: &str) {
    let fabric = &world.fabric;
    for port in world.ports.ready_ports() {
        let home = world.ports.home(port).unwrap();
        assert!(
            fabric.is_crashed(home),
            "{what}: settle left {} message(s) on {port} of live {home}",
            world.ports.queue_len(port)
        );
    }
    for node in world.node_ids() {
        assert!(
            !fabric.is_crashed(node) || fabric.lost_volatile_state(node),
            "{what}: {node} is down yet kept its volatile state"
        );
    }
    assert_unparked(world, what);
    assert!(
        fabric.retransmit_accounting_consistent(),
        "{what}: ledger and counters disagree on retransmitted bytes"
    );
    if fabric.params.topology.is_some() && fabric.params.faults.is_none() {
        let routed: u64 = fabric.link_stats().values().map(|s| s.bytes).sum();
        let ledgered = fabric.ledger.total();
        assert!(
            routed >= ledgered,
            "{what}: {ledgered} bytes ledgered but only {routed} crossed a link"
        );
    }
}

/// No live node holds a parked pending-interest waiter. This holds without
/// a `settle`, once a run has returned. The table is swept of waiters whose
/// upstream died only under `coalesce`; with it off (the seed semantics)
/// the latest relay entry per origin page outlives a crashed upstream, so
/// after a crash the table is checked only in a coalescing world.
pub fn assert_unparked(world: &World, what: &str) {
    let fabric = &world.fabric;
    let nodes = world.node_ids();
    let crash_free = !nodes.iter().any(|&n| fabric.lost_volatile_state(n));
    if crash_free || fabric.params.coalesce {
        for node in nodes.into_iter().filter(|&n| !fabric.is_crashed(n)) {
            let parked = fabric.pending_waiters(node);
            assert_eq!(parked, 0, "{what}: waiters left parked on live {node}");
        }
    }
}
