//! Lazy file shipment with imaginary segments — no migration involved.
//!
//! The paper closes by noting that Accent's copy-on-reference facility "can
//! be used by any application wishing to take advantage of lazy shipment
//! of data" (§6 suggests remote file access as a natural fit). This
//! example plays that out: a file server on node A answers a client on
//! node B with a message carrying a 1 MB file as out-of-line memory.
//!
//! * **Eager** (`NoIOUs` set): the whole file crosses the wire now.
//! * **Lazy** (`NoIOUs` clear): the sending NetMsgServer caches the pages
//!   and passes an IOU; the client maps it and only the pages it actually
//!   reads ever cross.
//!
//! Run with: `cargo run --example lazy_file_server`

use cor::ipc::message::{Message, MsgItem, MsgKind};
use cor::kernel::program::Trace;
use cor::kernel::World;
use cor::mem::page::{page_from_bytes, Frame};
use cor::mem::{AddressSpace, PageNum, PageRange, VAddr, PAGE_SIZE};

const FILE_PAGES: u64 = 2048; // 1 MB
const PAGES_READ: u64 = 40; // the client only looks at the index blocks

fn serve(lazy: bool) -> (f64, u64) {
    let (mut world, a, b) = World::testbed();
    // The client's inbox lives on node B.
    let inbox = world.ports.allocate(b);
    // The server materializes the file and replies with it out-of-line.
    let file: Vec<Frame> = (0..FILE_PAGES)
        .map(|i| Frame::new(page_from_bytes(format!("file block {i}").as_bytes())))
        .collect();
    let reply = Message::new(MsgKind::User(7), inbox)
        .with_no_ious(!lazy)
        .push(MsgItem::Pages {
            base_page: 0,
            frames: file,
        });
    world.send_from(a, reply).expect("send file");
    world.settle().expect("settle");

    // The client maps the delivery into a fresh address space and reads a
    // scattered sample of pages (an index scan, say).
    let msg = world
        .ports
        .dequeue(inbox)
        .expect("inbox")
        .expect("delivery");
    let mut space = AddressSpace::new();
    {
        let node = world.node_mut(b).expect("node");
        for item in &msg.items {
            match item {
                MsgItem::Pages { base_page, frames } => {
                    for (i, frame) in frames.iter().enumerate() {
                        // Copy-on-write mapping: no byte copy here.
                        space.install_page(
                            PageNum(base_page + i as u64),
                            frame.clone(),
                            &mut node.disk,
                        );
                    }
                }
                MsgItem::Iou {
                    base_page,
                    seg,
                    seg_offset,
                    pages,
                } => {
                    space.map_imaginary(
                        PageRange::new(PageNum(*base_page), PageNum(base_page + pages)),
                        *seg,
                        *seg_offset,
                    );
                }
                other => panic!("unexpected item {other:?}"),
            }
        }
    }
    let mut tb = Trace::builder();
    for k in 0..PAGES_READ {
        let page = PageNum(k * (FILE_PAGES / PAGES_READ));
        tb.read(page.base(), PAGE_SIZE);
    }
    let trace = tb.terminate();
    let pid = world
        .create_process(b, "client", space, trace)
        .expect("client");
    let t0 = world.clock.now();
    world.run(b, pid).expect("client run");
    let elapsed = world.clock.now().since(t0).as_secs_f64();

    // Verify the client saw real file contents, not junk.
    let process = world.process(b, pid).expect("client");
    let mut buf = [0u8; 12];
    process.space.read(VAddr(0), &mut buf).expect("read");
    assert_eq!(&buf, b"file block 0");

    (elapsed, world.fabric.ledger.total())
}

pub fn main() {
    println!(
        "A 1 MB file served across the network; the client reads {PAGES_READ} of {FILE_PAGES} pages\n"
    );
    let (eager_t, eager_b) = serve(false);
    let (lazy_t, lazy_b) = serve(true);
    println!("{:<8} {:>14} {:>14}", "mode", "client secs", "wire bytes");
    println!("{:<8} {:>14.2} {:>14}", "eager", eager_t, eager_b);
    println!("{:<8} {:>14.2} {:>14}", "lazy", lazy_t, lazy_b);
    assert!(lazy_b < eager_b, "lazy shipment must move fewer bytes");
    println!(
        "\nLazy shipment moved {:.1}% of the bytes. Copy-on-reference is a data\n\
         transfer discipline, not just a migration trick.",
        100.0 * lazy_b as f64 / eager_b as f64
    );
}
