//! The paper's seven representative processes (§4.1).
//!
//! Each representative is a [`Blueprint`]: an address-space layout whose
//! composition matches Table 4-1 **exactly** (every quantity in the paper
//! is a multiple of the 512-byte page), an install order whose LRU tail
//! reproduces the Table 4-2 resident set exactly, and a deterministic
//! remote-execution trace whose touch pattern is parameterized to land on
//! the Table 4-3 utilization figures:
//!
//! | Representative | Class | Access pattern |
//! |---|---|---|
//! | Minprog | null program | touches a couple dozen recently-used pages and exits |
//! | Lisp-T  | huge sparse space, trivial work | 4 GB validated, evaluates `T` |
//! | Lisp-Del | huge sparse space, real work | Delaunay triangulation; scattered heap, no locality |
//! | PM-Start / PM-Mid / PM-End | file-to-file filter | sequential scans of mapped files, migrated early / mid / late in life |
//! | Chess | long-lived compute-bound | ticks its game clock every second for minutes |
//!
//! Workload-specific knobs that the paper does not tabulate directly
//! (remote compute budgets, touch clustering) are documented per module;
//! they are fitted so the *measured* figures (remote execution times,
//! prefetch hit ratios) reproduce the paper's shape.

pub mod chess;
pub mod lisp;
pub mod minprog;
pub mod paper;
pub mod pasmac;
pub mod spec;
pub mod synth;

pub use paper::PaperRow;
pub use spec::{Blueprint, ProcessImage, Workload};

/// All seven representatives, in the paper's order.
pub fn all() -> Vec<Workload> {
    vec![
        minprog::workload(),
        lisp::lisp_t(),
        lisp::lisp_del(),
        pasmac::pm_start(),
        pasmac::pm_mid(),
        pasmac::pm_end(),
        chess::workload(),
    ]
}

/// Looks a representative up by its paper name (e.g. `"Lisp-Del"`).
pub fn by_name(name: &str) -> Option<Workload> {
    all().into_iter().find(|w| w.name() == name)
}

#[cfg(test)]
mod tests {
    use cor_kernel::World;

    #[test]
    fn table_4_1_and_4_2_match_exactly() {
        for w in super::all() {
            let (mut world, a, _) = World::testbed();
            let pid = w.build(&mut world, a).unwrap();
            let process = world.process(a, pid).unwrap();
            let st = process.space.stats();
            let paper = &w.paper;
            assert_eq!(st.real_bytes, paper.real, "{}: Real bytes", w.name());
            assert_eq!(
                st.realzero_bytes,
                paper.realz,
                "{}: RealZero bytes",
                w.name()
            );
            assert_eq!(st.total_bytes(), paper.total, "{}: Total bytes", w.name());
            assert_eq!(st.resident_bytes, paper.rs, "{}: resident set", w.name());
        }
    }

    #[test]
    fn builds_are_deterministic() {
        let digest = |w: &super::Workload| {
            let (mut world, a, _) = World::testbed();
            let pid = w.build(&mut world, a).unwrap();
            // Touch nothing; checksum over the resident set instead.
            let pages = world.process(a, pid).unwrap().space.resident_pages();
            let mut acc = 0u64;
            for page in pages {
                let n = world.node_mut(a).unwrap();
                let p = n.processes.get_mut(&pid).unwrap();
                let data = p.space.peek_page(page, &mut n.disk).unwrap();
                acc = acc.wrapping_mul(31).wrapping_add(
                    data.iter()
                        .fold(page.0, |h, &b| h.wrapping_mul(131).wrapping_add(b as u64)),
                );
            }
            acc
        };
        for w in super::all() {
            assert_eq!(digest(&w), digest(&w), "{} not deterministic", w.name());
        }
    }

    #[test]
    fn names_are_unique_and_lookup_works() {
        let all = super::all();
        let names: std::collections::HashSet<&str> = all.iter().map(|w| w.name()).collect();
        assert_eq!(names.len(), 7);
        assert!(super::by_name("Lisp-Del").is_some());
        assert!(super::by_name("nope").is_none());
    }
}
