//! Trace-driven programs.
//!
//! Each representative process in the paper's evaluation is modeled as a
//! deterministic trace of operations. The executor replays the trace
//! against the real virtual memory system, so faults, copies and network
//! fetches happen mechanically — the trace encodes *what the program does*,
//! and the simulation derives *what that costs*.

use std::sync::Arc;

use cor_mem::{page::PageBytes, PageNum, PageRange, VAddr, PAGE_SIZE};
use cor_sim::SimDuration;

use crate::exec::{checksum_page, CHECKSUM_BASIS};

/// One step of a program.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Touch `[addr, addr+len)`, reading or writing. Write-touches store
    /// deterministic bytes derived from the address and the trace position,
    /// so memory contents witness execution history (migration correctness
    /// tests rely on this).
    Touch {
        /// First byte touched.
        addr: VAddr,
        /// Number of bytes touched.
        len: u64,
        /// Whether the touch mutates memory.
        write: bool,
    },
    /// Pure computation for the given virtual time.
    Compute(SimDuration),
    /// One display update (Chess's ticking game clock, Lisp-Del's
    /// incremental triangulation graphics).
    ScreenUpdate,
    /// Normal termination. Must be the final op of every trace.
    Terminate,
}

/// A complete program trace.
///
/// The ops are shared, not owned: a clone is a reference-count bump, so
/// every process forked from one image, or spawned from one storm
/// trace, runs the same ops without a copy of them.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    ops: Arc<[Op]>,
    /// Distinct pages the touches cover.
    pages: usize,
}

impl Trace {
    /// Creates a trace from ops.
    ///
    /// # Panics
    ///
    /// Panics if the trace is non-empty and `Terminate` appears anywhere
    /// but last, or if a non-empty trace lacks a final `Terminate`.
    pub fn new(ops: Vec<Op>) -> Self {
        if !ops.is_empty() {
            assert!(
                matches!(ops.last(), Some(Op::Terminate)),
                "a trace must end with Terminate"
            );
            assert!(
                !ops[..ops.len() - 1]
                    .iter()
                    .any(|o| matches!(o, Op::Terminate)),
                "Terminate must be the final op"
            );
        }
        let pages = distinct_pages(&ops);
        Trace {
            ops: ops.into(),
            pages,
        }
    }

    /// Builder for growing traces.
    pub fn builder() -> TraceBuilder {
        TraceBuilder::default()
    }

    /// The ops in execution order.
    pub fn ops(&self) -> &[Op] {
        &self.ops
    }

    /// Number of ops.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// `true` for the empty trace.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// The number of distinct pages the trace's touches cover: what a
    /// process running it from its start may come to hold, so its tables
    /// can be sized once.
    pub fn pages(&self) -> usize {
        self.pages
    }

    /// Total `Compute` time in the trace.
    pub fn compute_total(&self) -> SimDuration {
        self.ops
            .iter()
            .filter_map(|o| match o {
                Op::Compute(d) => Some(*d),
                _ => None,
            })
            .sum()
    }

    /// The [`World::touched_checksum`](crate::World::touched_checksum) of a
    /// process that runs this trace to its end, touch tracking started at op
    /// `from_op`, wherever and whenever it migrates. Each page touched from
    /// `from_op` on starts as `initial` writes it (zeros for a hand-built
    /// space: `|_, _| ()`); every write of the trace then stores
    /// [`write_pattern`], in order; pages fold in order with `checksum_page`.
    pub fn expected_checksum_from(
        &self,
        from_op: usize,
        mut initial: impl FnMut(PageNum, &mut PageBytes),
    ) -> u64 {
        let touches = self.ops.iter().enumerate().filter_map(|(i, op)| match *op {
            Op::Touch { addr, len, write } => Some((i, addr, len, write)),
            _ => None,
        });
        let mut pages: Vec<PageNum> = touches
            .clone()
            .filter(|&(i, ..)| i >= from_op)
            .flat_map(|(_, addr, len, _)| PageRange::covering(addr, len).iter())
            .collect();
        pages.sort_unstable();
        pages.dedup();
        let mut bytes = vec![[0; PAGE_SIZE as usize]; pages.len()];
        for (&page, out) in pages.iter().zip(&mut bytes) {
            initial(page, out);
        }
        for (op_index, addr, len, _) in touches.filter(|&(.., write)| write) {
            // The folded pages a write covers are a contiguous run of `pages`.
            let range = PageRange::covering(addr, len);
            let first = pages.partition_point(|&page| page < range.start);
            let run = pages[first..].iter().take_while(|&&page| page < range.end);
            for (&page, out) in run.zip(&mut bytes[first..]) {
                let base = page.base().0;
                for a in addr.0.max(base)..(addr.0 + len).min(base + PAGE_SIZE) {
                    out[(a - base) as usize] = write_pattern(VAddr(a), op_index);
                }
            }
        }
        pages
            .iter()
            .zip(&bytes)
            .fold(CHECKSUM_BASIS, |digest, (&page, bytes)| {
                checksum_page(digest, page, bytes)
            })
    }
}

/// The distinct pages `ops`' touches cover: their page ranges, sorted
/// and merged.
fn distinct_pages(ops: &[Op]) -> usize {
    let mut ranges: Vec<(u64, u64)> = ops
        .iter()
        .filter_map(|op| match *op {
            Op::Touch { addr, len, .. } => {
                let r = PageRange::covering(addr, len);
                Some((r.start.0, r.end.0))
            }
            _ => None,
        })
        .collect();
    ranges.sort_unstable();
    let (mut pages, mut covered) = (0, 0);
    for (start, end) in ranges {
        let start = start.max(covered);
        if end > start {
            pages += end - start;
            covered = end;
        }
    }
    pages as usize
}

/// Incremental [`Trace`] construction.
#[derive(Debug, Default)]
pub struct TraceBuilder {
    ops: Vec<Op>,
}

impl TraceBuilder {
    /// Appends a read touch.
    pub fn read(&mut self, addr: VAddr, len: u64) -> &mut Self {
        self.ops.push(Op::Touch {
            addr,
            len,
            write: false,
        });
        self
    }

    /// Appends a write touch.
    pub fn write(&mut self, addr: VAddr, len: u64) -> &mut Self {
        self.ops.push(Op::Touch {
            addr,
            len,
            write: true,
        });
        self
    }

    /// Appends computation.
    pub fn compute(&mut self, d: SimDuration) -> &mut Self {
        self.ops.push(Op::Compute(d));
        self
    }

    /// Appends a screen update.
    pub fn screen(&mut self) -> &mut Self {
        self.ops.push(Op::ScreenUpdate);
        self
    }

    /// Appends `Terminate` and finishes the trace.
    pub fn terminate(&mut self) -> Trace {
        self.ops.push(Op::Terminate);
        Trace::new(std::mem::take(&mut self.ops))
    }
}

/// The deterministic byte pattern a write-touch stores: a function of the
/// byte's address and the index of the op that wrote it. Any divergence in
/// replayed history produces different memory contents.
pub fn write_pattern(addr: VAddr, op_index: usize) -> u8 {
    let x = addr
        .0
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(op_index as u64)
        .wrapping_mul(0xBF58_476D_1CE4_E5B9);
    (x >> 56) as u8
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_produces_terminated_trace() {
        let mut b = Trace::builder();
        b.read(VAddr(0), 100)
            .compute(SimDuration::from_millis(5))
            .write(VAddr(512), 8)
            .screen();
        let t = b.terminate();
        assert_eq!(t.len(), 5);
        assert!(matches!(t.ops().last(), Some(Op::Terminate)));
        assert_eq!(t.compute_total(), SimDuration::from_millis(5));
    }

    #[test]
    #[should_panic(expected = "end with Terminate")]
    fn unterminated_trace_rejected() {
        Trace::new(vec![Op::Compute(SimDuration::ZERO)]);
    }

    #[test]
    #[should_panic(expected = "final op")]
    fn early_terminate_rejected() {
        Trace::new(vec![Op::Terminate, Op::Terminate]);
    }

    #[test]
    fn pages_counts_distinct_pages_and_a_clone_shares_the_ops() {
        let mut b = Trace::builder();
        b.write(PageNum(3).base(), 8)
            .read(VAddr(PAGE_SIZE - 1), 2) // pages 0 and 1
            .compute(SimDuration::from_millis(1))
            .read(PageNum(3).base(), PAGE_SIZE) // page 3 again
            .write(PageNum(9).base(), 3 * PAGE_SIZE) // pages 9..12
            .screen()
            .read(PageNum(10).base(), 1); // inside 9..12
        let t = b.terminate();
        let mut distinct: Vec<PageNum> = t
            .ops()
            .iter()
            .filter_map(|op| match *op {
                Op::Touch { addr, len, .. } => Some(PageRange::covering(addr, len).iter()),
                _ => None,
            })
            .flatten()
            .collect();
        distinct.sort_unstable();
        distinct.dedup();
        assert_eq!(t.pages(), distinct.len());
        assert_eq!(t.pages(), 6);
        assert_eq!(Trace::default().pages(), 0);
        let clone = t.clone();
        assert!(Arc::ptr_eq(&t.ops, &clone.ops), "a clone copied the ops");
        assert_eq!(clone.pages(), t.pages());
    }

    #[test]
    fn write_pattern_is_deterministic_and_varied() {
        assert_eq!(write_pattern(VAddr(1000), 3), write_pattern(VAddr(1000), 3));
        let distinct: std::collections::HashSet<u8> = (0..64u64)
            .map(|i| write_pattern(VAddr(i * 7), i as usize))
            .collect();
        assert!(distinct.len() > 16, "pattern should vary");
    }
}
