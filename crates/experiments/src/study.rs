//! One form for the "ours" studies.
//!
//! A [`Study`] is its cells, how a pool of workers turns them into
//! outcomes, and one list of columns. The text table and the CSV are two
//! renderings of that list, so each quantity is named and formatted in
//! one place.

use cor_pool::Pool;
use cor_workloads::Workload;

use crate::render::TextTable;

/// A header and the cell it heads, formatted from one outcome.
type Cell<O> = (&'static str, fn(&O) -> String);

/// One column: its text-table cell, its CSV cell, or both.
pub(crate) struct Column<O> {
    text: Option<Cell<O>>,
    csv: Option<Cell<O>>,
}

impl<O> Column<O> {
    /// A column in both renderings, each with its own header and format.
    pub(crate) const fn both(
        text: &'static str,
        show: fn(&O) -> String,
        csv: &'static str,
        write: fn(&O) -> String,
    ) -> Self {
        Column {
            text: Some((text, show)),
            csv: Some((csv, write)),
        }
    }

    /// A column both renderings format alike, under their own headers.
    pub(crate) const fn same(text: &'static str, csv: &'static str, cell: fn(&O) -> String) -> Self {
        Self::both(text, cell, csv, cell)
    }

    /// A column only the text table shows.
    pub(crate) const fn text(header: &'static str, cell: fn(&O) -> String) -> Self {
        Column {
            text: Some((header, cell)),
            csv: None,
        }
    }

    /// A column only the CSV carries.
    pub(crate) const fn csv(header: &'static str, cell: fn(&O) -> String) -> Self {
        Column {
            text: None,
            csv: Some((header, cell)),
        }
    }
}

/// One "ours" study over cells `C` with outcomes `O`.
pub struct Study<C: 'static, O: 'static> {
    /// The text table's heading, given the workloads the study may sweep.
    pub(crate) title: fn(&[Workload]) -> String,
    /// Every cell, in table order.
    pub(crate) cells: fn() -> Vec<C>,
    /// The outcomes of the given cells in cell order, fanned across the
    /// pool.
    pub(crate) run: fn(&[Workload], &Pool, Vec<C>) -> Vec<O>,
    /// What the text table and the CSV print, in order.
    pub(crate) columns: &'static [Column<O>],
}

impl<C, O> Study<C, O> {
    /// Every cell, in table order.
    pub fn cells(&self) -> Vec<C> {
        (self.cells)()
    }

    /// The outcomes of `cells`, in their order, byte-identical at any
    /// thread count of `pool`.
    ///
    /// # Panics
    ///
    /// Panics if a cell fails internally, or if the study sweeps one
    /// workload and `workloads` is empty.
    pub fn run(&self, workloads: &[Workload], pool: &Pool, cells: Vec<C>) -> Vec<O> {
        (self.run)(workloads, pool, cells)
    }

    /// The outcomes of every cell.
    ///
    /// # Panics
    ///
    /// As for [`Study::run`].
    pub fn outcomes(&self, workloads: &[Workload], pool: &Pool) -> Vec<O> {
        self.run(workloads, pool, self.cells())
    }

    /// The text table: the title, a blank line, and one row per outcome.
    pub fn table(&self, workloads: &[Workload], outcomes: &[O]) -> String {
        let cells = || self.columns.iter().filter_map(|c| c.text);
        let mut t = TextTable::new(&cells().map(|(header, _)| header).collect::<Vec<_>>());
        for o in outcomes {
            t.row(cells().map(|(_, cell)| cell(o)).collect());
        }
        format!("{}\n\n{}", (self.title)(workloads), t.render())
    }

    /// The CSV: a header line and one line per outcome.
    pub fn csv(&self, outcomes: &[O]) -> String {
        let line = |cell: &dyn Fn(Cell<O>) -> String| {
            let cells: Vec<String> = self.columns.iter().filter_map(|c| c.csv).map(cell).collect();
            cells.join(",") + "\n"
        };
        let mut out = line(&|(header, _)| header.to_string());
        for o in outcomes {
            out += &line(&|(_, cell)| cell(o));
        }
        out
    }
}

/// The process a one-workload study sweeps: Minprog, or else the first.
///
/// # Panics
///
/// Panics if `workloads` is empty.
pub(crate) fn representative(workloads: &[Workload]) -> &Workload {
    workloads
        .iter()
        .find(|w| w.name() == "Minprog")
        .unwrap_or(&workloads[0])
}

/// Runs `run` on every cell across `pool`, results in cell order.
pub(crate) fn fan_out<C: Send, O: Send>(
    pool: &Pool,
    cells: Vec<C>,
    run: impl Fn(C) -> O + Sync,
) -> Vec<O> {
    let run = &run;
    pool.run(cells.into_iter().map(|c| move || run(c)).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    static SQUARES: Study<u64, u64> = Study {
        title: |_| "Squares".into(),
        cells: || vec![3, 12],
        run: |_, pool, cells| fan_out(pool, cells, |n| n * n),
        columns: &[
            Column::same("sq", "sq", |o| o.to_string()),
            Column::csv("odd", |o| (o % 2 == 1).to_string()),
            Column::both("[sq]", |o| format!("[{o}]"), "again", |o| o.to_string()),
            Column::text("note", |&o| if o > 100 { "big" } else { "" }.into()),
        ],
    };

    #[test]
    fn one_column_list_renders_the_table_and_the_csv() {
        let outcomes = SQUARES.outcomes(&[], &Pool::new(2));
        assert_eq!(outcomes, [9, 144]);
        assert_eq!(
            SQUARES.table(&[], &outcomes),
            "Squares\n\n\
             sq    [sq]  note\n\
             ----------------\n\
             9      [9]\n\
             144  [144]   big\n"
        );
        assert_eq!(
            SQUARES.csv(&outcomes),
            "sq,odd,again\n9,true,9\n144,false,144\n"
        );
    }
}
