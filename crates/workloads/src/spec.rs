//! Blueprint machinery shared by the representative processes.

use cor_ipc::{PortRight, Right};
use cor_kernel::process::ProcessId;
use cor_kernel::program::Trace;
use cor_kernel::{KernelError, World};
use cor_mem::page::{PageBytes, PAGE_SIZE};
use cor_mem::{
    AddressSpace, Disk, ImageArena, MemError, PageNum, PageRange, PageState, SpaceImage,
};
use cor_sim::{Pcg32, SimDuration};

use cor_ipc::NodeId;

use crate::paper::PaperRow;

/// Writes the deterministic non-zero contents of a workload page into
/// `out`, in place: a function of the workload seed and the page number,
/// so every build of a blueprint is byte-identical. The bytes are the
/// `next_u64` stream of `Pcg32::with_stream(seed ^ page.rotl(17), page)`,
/// little-endian, generated four lanes at a time ([`Pcg32::fill_bytes`]).
pub fn fill_page_content(seed: u64, page: PageNum, out: &mut PageBytes) {
    Pcg32::with_stream(seed ^ page.0.rotate_left(17), page.0).fill_bytes(out);
}

/// A complete, instantiable description of a representative process:
/// layout, pre-migration memory state, and remote-execution trace.
#[derive(Debug, Clone)]
pub struct Blueprint {
    /// Process name (matches the paper's).
    pub name: &'static str,
    /// Seed for page contents.
    pub seed: u64,
    /// Physical frame budget = the Table 4-2 resident set, in pages.
    pub frame_budget: usize,
    /// Validated page ranges (their total is the Table 4-1 `Total`).
    pub regions: Vec<PageRange>,
    /// Real pages installed directly in the on-disk state (mapped file
    /// pages that have not been read yet).
    pub on_disk: Vec<PageNum>,
    /// Real pages installed resident, in LRU order: the last
    /// `frame_budget` of them form the resident set at migration time.
    pub install_order: Vec<PageNum>,
    /// The remote-execution trace.
    pub trace: Trace,
    /// Send rights the process holds on other parties' ports.
    pub send_rights: usize,
    /// Ports the process owns (it holds Receive + Ownership on each).
    pub recv_ports: usize,
}

impl Blueprint {
    /// Builds the process's pre-migration memory once and freezes it. Page
    /// contents are generated straight into one arena; on a scratch disk the
    /// unread file pages are written first, then the address space is built
    /// whole by [`AddressSpace::from_installs`] — regions, those on-disk
    /// pages, then the resident installs whose LRU tail survives the frame
    /// budget — and frozen.
    ///
    /// # Errors
    ///
    /// [`MemError::NotFresh`] if the blueprint installs a page twice.
    pub fn image(&self) -> Result<ProcessImage<'_>, MemError> {
        let real = self.on_disk.len() + self.install_order.len();
        let mut bytes = vec![[0; PAGE_SIZE as usize]; real];
        let pages = self.on_disk.iter().chain(&self.install_order);
        for (out, &page) in bytes.iter_mut().zip(pages) {
            fill_page_content(self.seed, page, out);
        }
        let arena = ImageArena::new(bytes);
        let mut frames = (0..).map(arena.frames());
        let mut disk = Disk::new();
        let mut pages = Vec::with_capacity(real);
        for (&page, frame) in self.on_disk.iter().zip(&mut frames) {
            pages.push((page, PageState::OnDisk(disk.write_new_frame(frame))));
        }
        for (&page, frame) in self.install_order.iter().zip(&mut frames) {
            pages.push((page, PageState::resident(frame)));
        }
        let budget = Some(self.frame_budget);
        let regions = self.regions.iter().copied();
        let space = AddressSpace::from_installs(regions, pages, budget, &mut disk)?;
        Ok(ProcessImage {
            blueprint: self,
            space: SpaceImage::freeze(&space, &disk, &arena)?,
        })
    }

    /// [`Trace::expected_checksum_from`] over the blueprint's memory: a page
    /// the blueprint installs real (on disk or resident) starts as
    /// [`fill_page_content`], any other as zeros.
    pub fn expected_checksum_from(&self, from_op: usize) -> u64 {
        let mut real = [&self.on_disk[..], &self.install_order].concat();
        real.sort_unstable();
        self.trace.expected_checksum_from(from_op, |page, out| {
            if real.binary_search(&page).is_ok() {
                fill_page_content(self.seed, page, out);
            }
        })
    }

    /// Creates the process on `node` with its memory in the documented
    /// pre-migration state, ready to migrate (or to run in place as the
    /// unmigrated baseline): [`Blueprint::image`], forked once.
    ///
    /// # Errors
    ///
    /// Unknown node, or internal errors while populating memory.
    pub fn instantiate(&self, world: &mut World, node: NodeId) -> Result<ProcessId, KernelError> {
        self.image()?.fork(world, node)
    }
}

/// A blueprint with its pre-migration memory frozen: build once with
/// [`Blueprint::image`], [`ProcessImage::fork`] once per trial. The image
/// is `Sync`, so one image serves every worker of a pooled sweep; it is
/// meant to live exactly as long as the sweep call that built it.
pub struct ProcessImage<'a> {
    blueprint: &'a Blueprint,
    space: SpaceImage,
}

impl ProcessImage<'_> {
    /// The process's name.
    pub fn name(&self) -> &'static str {
        self.blueprint.name
    }

    /// The frozen address space (strategy-independent page facts).
    pub fn space(&self) -> &SpaceImage {
        &self.space
    }

    /// Creates a fresh copy of the process on `node`: the frozen space
    /// thawed onto the node's disk, new ports for its rights, its trace.
    ///
    /// # Errors
    ///
    /// Unknown node.
    pub fn fork(&self, world: &mut World, node: NodeId) -> Result<ProcessId, KernelError> {
        let bp = self.blueprint;
        let space = self.space.thaw(&mut world.node_mut(node)?.disk);
        let mut rights = Vec::with_capacity(bp.send_rights + 2 * bp.recv_ports);
        for _ in 0..bp.send_rights {
            let port = world.ports.allocate(node);
            rights.push(PortRight {
                port,
                right: Right::Send,
            });
        }
        for _ in 0..bp.recv_ports {
            let port = world.ports.allocate(node);
            rights.push(PortRight {
                port,
                right: Right::Receive,
            });
            rights.push(PortRight {
                port,
                right: Right::Ownership,
            });
        }
        let pid = world.create_process(node, bp.name, space, bp.trace.clone())?;
        world.process_mut(node, pid)?.rights = rights;
        Ok(pid)
    }
}

/// A representative process: blueprint plus the paper's published numbers.
#[derive(Debug, Clone)]
pub struct Workload {
    /// The published measurements for this representative.
    pub paper: PaperRow,
    /// The instantiable description.
    pub blueprint: Blueprint,
}

impl Workload {
    /// The representative's name.
    pub fn name(&self) -> &'static str {
        self.blueprint.name
    }

    /// Instantiates the process on `node` (see [`Blueprint::instantiate`]).
    ///
    /// # Errors
    ///
    /// As for [`Blueprint::instantiate`].
    pub fn build(&self, world: &mut World, node: NodeId) -> Result<ProcessId, KernelError> {
        self.blueprint.instantiate(world, node)
    }

    /// The process frozen for repeated forking (see [`Blueprint::image`]).
    ///
    /// # Errors
    ///
    /// As for [`Blueprint::image`].
    pub fn image(&self) -> Result<ProcessImage<'_>, MemError> {
        self.blueprint.image()
    }
}

/// One remote-execution memory event, page-granular.
#[derive(Debug, Clone, Copy)]
pub struct TouchEvent {
    /// The page touched.
    pub page: PageNum,
    /// Whether the touch writes.
    pub write: bool,
}

/// Assembles a trace from touch events, spreading `compute` evenly between
/// them and inserting `screens` screen updates at regular intervals.
pub fn assemble_trace(events: &[TouchEvent], compute: SimDuration, screens: u64) -> Trace {
    let mut tb = Trace::builder();
    let n = events.len().max(1) as u64;
    let slice = compute / n;
    let mut leftover = compute - slice * n;
    let screen_every = if screens > 0 {
        n.div_ceil(screens)
    } else {
        u64::MAX
    };
    for (i, ev) in events.iter().enumerate() {
        if ev.write {
            tb.write(ev.page.base(), PAGE_SIZE);
        } else {
            tb.read(ev.page.base(), PAGE_SIZE);
        }
        let mut d = slice;
        if leftover > SimDuration::ZERO {
            d += SimDuration::from_micros(1);
            leftover -= SimDuration::from_micros(1);
        }
        if d > SimDuration::ZERO {
            tb.compute(d);
        }
        if (i as u64 + 1).is_multiple_of(screen_every) {
            tb.screen();
        }
    }
    tb.terminate()
}

/// Carves `n_runs` disjoint runs totalling exactly `total` pages out of
/// `region`, with pseudo-random gaps — the scattered-heap layout of the
/// Lisp representatives.
///
/// # Panics
///
/// Panics if the region cannot hold the runs (`total > region.len()`), or
/// if `n_runs` is zero or exceeds `total`.
pub fn scattered_runs(
    rng: &mut Pcg32,
    region: PageRange,
    total: u64,
    n_runs: u64,
) -> Vec<PageRange> {
    assert!(n_runs > 0 && n_runs <= total, "bad run count");
    assert!(total <= region.len(), "region too small");
    let slack = region.len() - total;
    let avg_gap = (slack / (n_runs + 1)).max(1);
    let base_len = total / n_runs;
    let rem = total % n_runs;
    let mut runs = Vec::with_capacity(n_runs as usize);
    let mut cursor = region.start.0;
    let mut remaining_slack = slack;
    for i in 0..n_runs {
        let gap = if remaining_slack == 0 {
            0
        } else {
            let cap = remaining_slack.min(avg_gap.saturating_mul(3) / 2).max(1);
            rng.range(0, cap + 1)
        };
        remaining_slack -= gap;
        cursor += gap;
        let len = base_len + u64::from(i < rem);
        runs.push(PageRange::new(PageNum(cursor), PageNum(cursor + len)));
        cursor += len;
    }
    debug_assert!(cursor <= region.end.0);
    debug_assert_eq!(runs.iter().map(PageRange::len).sum::<u64>(), total);
    runs
}

#[cfg(test)]
mod tests {
    use super::*;

    fn page_content(seed: u64, page: PageNum) -> PageBytes {
        let mut out = [0; PAGE_SIZE as usize];
        fill_page_content(seed, page, &mut out);
        out
    }

    /// The page contents every blueprint build has always had: the scalar
    /// `next_u64` stream, one dependent step at a time.
    fn scalar_page_content(seed: u64, page: PageNum) -> PageBytes {
        let mut rng = Pcg32::with_stream(seed ^ page.0.rotate_left(17), page.0);
        let mut data = [0u8; PAGE_SIZE as usize];
        for chunk in data.chunks_mut(8) {
            chunk.copy_from_slice(&rng.next_u64().to_le_bytes());
        }
        data
    }

    #[test]
    fn page_content_is_deterministic_and_distinct() {
        let a = page_content(1, PageNum(5));
        let b = page_content(1, PageNum(5));
        assert_eq!(a, b);
        assert_ne!(page_content(1, PageNum(6)), a);
        assert_ne!(page_content(2, PageNum(5)), a);
    }

    #[test]
    fn page_content_is_the_scalar_stream_on_every_paper_page() {
        let mut pages = 0;
        for w in crate::all() {
            let bp = &w.blueprint;
            for &page in bp.on_disk.iter().chain(&bp.install_order) {
                assert_eq!(
                    page_content(bp.seed, page),
                    scalar_page_content(bp.seed, page),
                    "{} page {}",
                    bp.name,
                    page.0
                );
                pages += 1;
            }
        }
        assert_eq!(pages, 11_970, "the seven workloads' real pages");
        for seed in [0, 1, u64::MAX, 1 << 63] {
            for page in [0, 1, (1 << 23) - 1, u64::MAX >> 9, u64::MAX] {
                let page = PageNum(page);
                assert_eq!(page_content(seed, page), scalar_page_content(seed, page));
            }
        }
    }

    #[test]
    fn assemble_trace_spreads_compute_exactly() {
        let events: Vec<TouchEvent> = (0..7)
            .map(|i| TouchEvent {
                page: PageNum(i),
                write: i % 2 == 0,
            })
            .collect();
        let total = SimDuration::from_millis(100);
        let t = assemble_trace(&events, total, 2);
        assert_eq!(t.compute_total(), total, "no compute time lost to rounding");
        let screens = t
            .ops()
            .iter()
            .filter(|o| matches!(o, cor_kernel::program::Op::ScreenUpdate))
            .count();
        assert_eq!(
            screens, 1,
            "7 events / ceil(7/2)=4 -> one screen boundary hit"
        );
    }

    #[test]
    fn a_blueprint_installing_a_page_twice_is_refused() {
        let blueprint = |on_disk: &[u64], install_order: &[u64]| Blueprint {
            name: "twice",
            seed: 5,
            frame_budget: 8,
            regions: vec![PageRange::new(PageNum(0), PageNum(16))],
            on_disk: on_disk.iter().copied().map(PageNum).collect(),
            install_order: install_order.iter().copied().map(PageNum).collect(),
            trace: Trace::builder().terminate(),
            send_rights: 0,
            recv_ports: 0,
        };
        let refused = |bp: Blueprint| matches!(bp.image(), Err(MemError::NotFresh(_)));
        assert!(blueprint(&[1], &[2, 3]).image().is_ok());
        // Within the budget, so nothing spills that could strand a block.
        assert!(
            refused(blueprint(&[], &[2, 3, 2])),
            "twice in install_order"
        );
        assert!(refused(blueprint(&[3], &[2, 3])), "on disk and installed");
    }

    #[test]
    fn scattered_runs_are_exact_and_disjoint() {
        let mut rng = Pcg32::new(9);
        let region = PageRange::new(PageNum(1000), PageNum(50_000));
        let runs = scattered_runs(&mut rng, region, 3_503, 600);
        assert_eq!(runs.len(), 600);
        assert_eq!(runs.iter().map(PageRange::len).sum::<u64>(), 3_503);
        for w in runs.windows(2) {
            assert!(w[0].end.0 <= w[1].start.0, "overlap: {:?} {:?}", w[0], w[1]);
        }
        assert!(runs.last().unwrap().end.0 <= 50_000);
    }
}
