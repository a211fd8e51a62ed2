//! Link reliability: per-link sequence numbers, the injection RNG and its
//! draw order, the drop → backoff → retransmit loop, and the limbo that
//! holds reordered deliveries.
//!
//! One RNG stream feeds every injected fault, and a send draws from it in
//! a fixed order — drop (once per attempt), jitter, duplicate, reorder —
//! so identical plans over identical traffic inject identical faults.
//!
//! An injected duplicate is billed, counted and dropped here: no port,
//! NetMsgServer or kernel above the link layer ever receives one.

use cor_ipc::message::Message;
use cor_ipc::port::PortRegistry;
use cor_ipc::NodeId;
use cor_sim::{Clock, IdMap, LedgerCategory, Pcg32, SimDuration};
use cor_trace::TraceEvent;

use crate::error::NetError;
use crate::fabric::{Fabric, Transfer};
use crate::params::{FaultPlan, LinkFaults};

/// Injection RNG stream selector, so fault draws never collide with any
/// workload RNG seeded from the same number.
const FAULT_STREAM: u64 = 0xFA_17;

/// Link-layer state: the injection RNG, sequence numbers, and limbo.
#[derive(Debug, Default)]
pub(crate) struct LinkLayer {
    /// Dedicated injection RNG, created from the plan's seed by the first
    /// send under a plan.
    rng: Option<Pcg32>,
    /// Per directed link, the last sequence number issued. A number is
    /// issued at the moment its delivery is accepted; a duplicate's
    /// `net-dup` event names the number of the delivery it repeats. Only
    /// maintained under faults, one entry per link however long the run.
    seq: IdMap<(NodeId, NodeId), u64>,
    /// Deliveries held back by reorder injection, released (FIFO) by the
    /// next non-reordered send or by [`Fabric::pump`].
    limbo: Vec<Message>,
}

impl LinkLayer {
    /// Binds `plan` to the injection RNG for one send and returns the
    /// fault rates in force: `None` when the plan is clean and injection
    /// can be skipped. The stream starts at the first send under a plan,
    /// clean or not, and is never re-seeded, so the rates this returns
    /// always have an RNG to draw against.
    pub(crate) fn arm(&mut self, plan: &FaultPlan) -> Option<LinkFaults> {
        self.rng
            .get_or_insert_with(|| Pcg32::with_stream(plan.seed, FAULT_STREAM));
        Some(plan.all).filter(|f| !f.is_clean())
    }

    /// Draws whether a fault of probability `p` strikes; no draw at zero.
    fn chance(&mut self, p: f64) -> bool {
        p > 0.0 && self.rng.as_mut().is_some_and(|rng| rng.chance(p))
    }

    /// Draws a delivery delay in `[0, max]`, in microseconds; no draw at
    /// zero.
    fn jitter_us(&mut self, max: SimDuration) -> u64 {
        match &mut self.rng {
            Some(rng) if max > SimDuration::ZERO => rng.range(0, max.as_micros() + 1),
            _ => 0,
        }
    }

    /// Issues the next sequence number on `link` for a delivery the
    /// receiver is accepting.
    fn accept(&mut self, link: (NodeId, NodeId)) -> u64 {
        let last = self.seq.entry(link).or_insert(0);
        *last += 1;
        *last
    }

    /// Drops every held delivery `doomed` selects; returns how many.
    pub(crate) fn purge_limbo(&mut self, doomed: impl Fn(&Message) -> bool) -> u64 {
        let before = self.limbo.len();
        self.limbo.retain(|m| !doomed(m));
        (before - self.limbo.len()) as u64
    }
}

impl Fabric {
    /// The transmission loop. The link layer guarantees
    /// exactly-once-or-error delivery: a dropped attempt stalls the sender
    /// for a timeout, then retransmits with exponential backoff until the
    /// retry budget runs out. Each attempt takes `xmit` on the clock; the
    /// attempt that gets through is charged as the transfer (ledger, both
    /// CPUs, routed links), a lost one only to the sender.
    ///
    /// A peer found dead after a backoff returns [`NetError::NodeDown`]
    /// *unrecorded*: the caller journals it once the send span is closed.
    pub(crate) fn transmit(
        &mut self,
        clock: &mut Clock,
        ports: &mut PortRegistry,
        wire: &Transfer,
        xmit: SimDuration,
        faults: Option<LinkFaults>,
    ) -> Result<(), NetError> {
        let (from, to, kind) = (wire.from, wire.to, wire.kind);
        let mut attempts = 0u32;
        loop {
            attempts += 1;
            let xmit_start = clock.now();
            let attempt_span = self.span_start(xmit_start, "xmit-attempt", from);
            clock.advance(xmit);
            // The first attempt's bytes keep their semantic category;
            // every further attempt is pure retransmission overhead.
            let mut attempt = *wire;
            if attempts > 1 {
                attempt.category = LedgerCategory::Retransmit;
                self.reliability.retransmit_wire_bytes.add(wire.bytes);
            }
            if !faults.is_some_and(|f| self.link.chance(f.drop)) {
                self.span_end(clock.now(), attempt_span);
                return self.charge_transfer(clock, xmit_start, clock.now(), &attempt);
            }
            // The sender pays for every attempt; a lost one never reaches
            // a link or the receiver.
            self.record_spread(xmit_start, clock.now(), wire.bytes, attempt.category);
            self.charge_cpu(from, wire.cpu);
            self.reliability.drops_injected.incr();
            self.note(clock.now(), || TraceEvent::NetDrop {
                msg: kind,
                from,
                to,
                attempt: attempts,
            });
            if attempts >= self.params.retry_budget {
                self.reliability.unreachable_failures.incr();
                self.note(clock.now(), || TraceEvent::NetUnreachable {
                    msg: kind,
                    from,
                    to,
                    attempts,
                });
                return Err(NetError::SourceUnreachable { from, to, attempts });
            }
            // Ack timeout, doubling per consecutive loss. Detached sends
            // retransmit in the background without stalling the caller.
            let backoff = self
                .params
                .retry_timeout
                .saturating_mul(1u64 << (attempts - 1).min(16));
            if !wire.detached {
                // The blame-visible backoff wait, a child of the attempt
                // span (detached retransmissions happen off the caller's
                // clock and get no span).
                let backoff_span = self.span_start(clock.now(), "retry-backoff", from);
                clock.advance(backoff);
                self.span_end(clock.now(), backoff_span);
            }
            self.reliability.timeout_stalls.incr();
            self.reliability.stall_time += backoff;
            self.reliability.retransmissions.incr();
            // The attempt span covers its backoff wait: the lost attempt
            // cost the sender the transmission plus the timeout.
            self.span_end(clock.now(), attempt_span);
            // If the peer died while we were backing off, abort at once
            // rather than burning the rest of the retry budget against a
            // known-dead node.
            self.fire_due_crashes(clock.now(), ports, None);
            if self.is_crashed(to) {
                return Err(NetError::NodeDown { from, to });
            }
        }
    }

    /// Link-layer acceptance of the delivery that got through, and the
    /// faults injected on it: issues its sequence number, then delay
    /// jitter, then a possible duplicate — the wire repeats the delivery
    /// in full (the copy pays wire bytes and the receiver's header
    /// inspection) and the link layer drops the copy, counted once as
    /// injected and once as dropped. Nothing above the link layer ever
    /// sees a duplicate.
    pub(crate) fn inject_on_delivery(
        &mut self,
        clock: &mut Clock,
        wire: &Transfer,
        faults: LinkFaults,
    ) {
        let (from, to, kind) = (wire.from, wire.to, wire.kind);
        let seq = self.link.accept((from, to));
        let delay_us = self.link.jitter_us(faults.jitter);
        if delay_us > 0 {
            if !wire.detached {
                clock.advance(SimDuration::from_micros(delay_us));
            }
            self.note(clock.now(), || TraceEvent::NetJitter {
                msg: kind,
                from,
                to,
                delay_us,
            });
        }
        if self.link.chance(faults.duplicate) {
            self.reliability.duplicates_injected.incr();
            self.ledger
                .record(clock.now(), wire.bytes, LedgerCategory::Retransmit);
            self.reliability.retransmit_wire_bytes.add(wire.bytes);
            self.charge_cpu(to, self.params.msg_cpu_fixed);
            self.reliability.duplicate_drops.incr();
            self.note(clock.now(), || TraceEvent::NetDup {
                msg: kind,
                from,
                to,
                seq,
            });
        }
    }

    /// The last step of a remote delivery: enqueue at the destination
    /// port and release anything limbo holds — unless reorder injection
    /// holds *this* delivery back so traffic sent later overtakes it.
    pub(crate) fn enqueue_or_hold(
        &mut self,
        clock: &Clock,
        ports: &mut PortRegistry,
        wire: &Transfer,
        faults: Option<LinkFaults>,
        msg: Message,
    ) -> Result<(), NetError> {
        if faults.is_some_and(|f| self.link.chance(f.reorder)) {
            self.reliability.reorders_injected.incr();
            let (from, to, kind) = (wire.from, wire.to, wire.kind);
            self.note(clock.now(), || TraceEvent::NetReorder {
                msg: kind,
                from,
                to,
            });
            self.link.limbo.push(msg);
            return Ok(());
        }
        ports.enqueue(msg.dest, msg)?;
        self.flush_limbo(ports)
    }

    /// Releases every delivery held back by reorder injection, in the
    /// order the wire originally carried them.
    pub(crate) fn flush_limbo(&mut self, ports: &mut PortRegistry) -> Result<(), NetError> {
        for held in std::mem::take(&mut self.link.limbo) {
            if ports.home(held.dest).is_ok_and(|h| self.is_crashed(h)) {
                // The delivery outlived its destination.
                self.reliability.crash_dropped_messages.incr();
                continue;
            }
            ports.enqueue(held.dest, held)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cor_ipc::segment::SegmentRegistry;

    #[test]
    fn sequence_state_is_one_entry_per_directed_link() {
        // A duplicating wire numbers every delivery; the table must not
        // grow with the message count.
        let (a, b) = (NodeId(0), NodeId(1));
        let mut ports = PortRegistry::new();
        let mut segs = SegmentRegistry::new();
        let mut clock = Clock::new();
        let mut fabric = Fabric::new(crate::WireParams::default());
        fabric.add_node(a, &mut ports);
        fabric.add_node(b, &mut ports);
        let faults = LinkFaults {
            duplicate: 0.5,
            ..LinkFaults::default()
        };
        fabric.params.faults = Some(FaultPlan::uniform(11, faults));
        let at_a = ports.allocate(a);
        let at_b = ports.allocate(b);
        for i in 0..10_000u64 {
            let (from, dest) = if i % 2 == 0 { (a, at_b) } else { (b, at_a) };
            let msg = Message::new(cor_ipc::message::MsgKind::User(1), dest);
            fabric
                .send(&mut clock, &mut ports, &mut segs, from, msg)
                .unwrap();
            ports.dequeue(dest).unwrap();
        }
        let r = &fabric.reliability;
        assert!(r.duplicates_injected.get() > 4_000);
        assert_eq!(r.duplicate_drops.get(), r.duplicates_injected.get());
        assert_eq!(fabric.link.seq.len(), 2, "one entry per directed link");
        assert_eq!(fabric.link.seq[&(a, b)] + fabric.link.seq[&(b, a)], 10_000);
    }
}
