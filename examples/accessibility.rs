//! Accessibility maps in action: how far away is this memory? (paper §2.3)
//!
//! Imaginary objects force the system to answer that question before
//! touching anything from a sensitive context: an Accent kernel thread
//! that faulted on a port-backed page while holding the system critical
//! section would deadlock — the backing process could never run to answer
//! the fault. AMaps classify every range into four "distances"
//! (RealZeroMem, RealMem, ImagMem, BadMem) so the kernel can refuse
//! instead.
//!
//! This example plays a debugger attaching to a freshly migrated process:
//! most of its memory is still owed by the old host, and the kernel-context
//! peek refuses exactly those ranges until the process itself pulls them
//! over.
//!
//! Run with: `cargo run --example accessibility`

use cor::kernel::{KernelError, World};
use cor::mem::{PageNum, PageRange};
use cor::migrate::{MigrationManager, Strategy};

pub fn main() {
    let (mut world, a, b) = World::testbed();
    let src = MigrationManager::new(&mut world, a);
    let dst = MigrationManager::new(&mut world, b);
    let workload = cor::workloads::minprog::workload();
    let pid = workload.build(&mut world, a).expect("build");
    src.migrate_to(&mut world, &dst, pid, Strategy::PureIou { prefetch: 0 })
        .expect("migrate");

    // The "debugger" classifies the whole space through the AMap.
    let amap = world.process(b, pid).expect("process").space.amap();
    println!("address-space distances right after migration:");
    for (label, range) in [
        (
            "code+data (was RealMem)",
            PageRange::new(PageNum(0), PageNum(278)),
        ),
        (
            "never-touched zero fill",
            PageRange::new(PageNum(278), PageNum(645)),
        ),
        (
            "beyond the space",
            PageRange::new(PageNum(645), PageNum(700)),
        ),
    ] {
        println!("  {label:<28} -> {}", amap.max_access_in(range));
    }

    // Kernel-context peeks refuse the distant ranges...
    let addr = PageNum(100).base();
    let refused = world.kernel_peek(b, pid, addr, 16);
    assert!(
        matches!(refused, Err(KernelError::WouldDeadlock { .. })),
        "a kernel-context peek of owed memory must be refused, got {refused:?}"
    );
    println!("\nkernel peek at {addr}: refused — ImagMem would deadlock");

    // ...until the process itself collects its working set.
    world.run(b, pid).expect("run");
    let amap = world.process(b, pid).expect("process").space.amap();
    let touched = PageRange::new(PageNum(254), PageNum(278));
    println!(
        "\nafter remote execution, the touched tail is {} again;",
        amap.max_access_in(touched)
    );
    let bytes = world
        .kernel_peek(b, pid, PageNum(254).base(), 16)
        .expect("peek");
    println!("kernel peek now succeeds: first bytes {:02x?}", &bytes[..4]);
    println!(
        "\n(untouched owed ranges die with the process: {} live segments remain)",
        world.segs.live()
    );
}
