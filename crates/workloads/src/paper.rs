//! The paper's published measurements, used as reference values by the
//! experiment harness (paper-vs-measured comparisons).

/// One representative's row across Tables 4-1 through 4-5.
///
/// `None` marks cells that are illegible in the surviving copy of the
/// paper (the Lisp-T row of Table 4-3 and the PM-Mid resident-set cell);
/// the Chess resident-set percentage (66.0) is reconstructed from its
/// legible percent-of-total (25.8).
#[derive(Debug, Clone, Copy)]
pub struct PaperRow {
    /// Representative name as printed.
    pub name: &'static str,
    /// Table 4-1: allocated non-zero bytes (*Real*).
    pub real: u64,
    /// Table 4-1: allocated untouched zero-fill bytes (*RealZ*).
    pub realz: u64,
    /// Table 4-1: total allocated bytes.
    pub total: u64,
    /// Table 4-2: resident set bytes at migration time.
    pub rs: u64,
    /// Table 4-3: percent of RealMem shipped under pure-IOU.
    pub iou_pct_real: Option<f64>,
    /// Table 4-3 (bracketed): percent of total space, pure-IOU.
    pub iou_pct_total: Option<f64>,
    /// Table 4-3: percent of RealMem accessed under resident-set.
    pub rs_pct_real: Option<f64>,
    /// Table 4-3 (bracketed): percent of total space, resident-set.
    pub rs_pct_total: Option<f64>,
    /// Table 4-4: AMap construction seconds.
    pub excise_amap_s: f64,
    /// Table 4-4: RIMAS creation seconds.
    pub excise_rimas_s: f64,
    /// Table 4-4: overall ExciseProcess seconds.
    pub excise_total_s: f64,
    /// Table 4-5: pure-IOU RIMAS transfer seconds.
    pub xfer_iou_s: f64,
    /// Table 4-5: resident-set RIMAS transfer seconds.
    pub xfer_rs_s: f64,
    /// Table 4-5: pure-copy RIMAS transfer seconds.
    pub xfer_copy_s: f64,
}

/// The published rows, in the paper's order.
pub const ROWS: [PaperRow; 7] = [
    PaperRow {
        name: "Minprog",
        real: 142_336,
        realz: 187_904,
        total: 330_240,
        rs: 71_680,
        iou_pct_real: Some(8.6),
        iou_pct_total: Some(3.7),
        rs_pct_real: Some(50.4),
        rs_pct_total: Some(21.7),
        excise_amap_s: 0.37,
        excise_rimas_s: 0.36,
        excise_total_s: 0.82,
        xfer_iou_s: 0.16,
        xfer_rs_s: 5.0,
        xfer_copy_s: 8.5,
    },
    PaperRow {
        name: "Lisp-T",
        real: 2_203_136,
        realz: 4_225_926_144,
        total: 4_228_129_280,
        rs: 190_464,
        iou_pct_real: None,
        iou_pct_total: None,
        rs_pct_real: None,
        rs_pct_total: None,
        excise_amap_s: 2.12,
        excise_rimas_s: 0.59,
        excise_total_s: 2.79,
        xfer_iou_s: 0.16,
        xfer_rs_s: 25.8,
        xfer_copy_s: 157.0,
    },
    PaperRow {
        name: "Lisp-Del",
        real: 2_200_064,
        realz: 4_225_929_216,
        total: 4_228_129_280,
        rs: 190_464,
        iou_pct_real: Some(16.5),
        iou_pct_total: Some(0.002),
        rs_pct_real: Some(17.4),
        rs_pct_total: Some(0.009),
        excise_amap_s: 2.46,
        excise_rimas_s: 0.73,
        excise_total_s: 3.38,
        xfer_iou_s: 0.17,
        xfer_rs_s: 25.8,
        xfer_copy_s: 168.5,
    },
    PaperRow {
        name: "PM-Start",
        real: 449_024,
        realz: 501_760,
        total: 950_784,
        rs: 132_096,
        iou_pct_real: Some(58.0),
        iou_pct_total: Some(27.4),
        rs_pct_real: Some(76.0),
        rs_pct_total: Some(35.9),
        excise_amap_s: 0.98,
        excise_rimas_s: 0.63,
        excise_total_s: 1.67,
        xfer_iou_s: 0.15,
        xfer_rs_s: 9.0,
        xfer_copy_s: 30.8,
    },
    PaperRow {
        name: "PM-Mid",
        real: 446_464,
        realz: 466_432,
        total: 912_896,
        rs: 190_976,
        iou_pct_real: Some(51.5),
        iou_pct_total: Some(25.2),
        rs_pct_real: None,
        rs_pct_total: None,
        excise_amap_s: 1.01,
        excise_rimas_s: 0.68,
        excise_total_s: 1.74,
        xfer_iou_s: 0.16,
        xfer_rs_s: 13.0,
        xfer_copy_s: 28.1,
    },
    PaperRow {
        name: "PM-End",
        real: 492_032,
        realz: 398_848,
        total: 890_880,
        rs: 302_080,
        iou_pct_real: Some(26.9),
        iou_pct_total: Some(14.8),
        rs_pct_real: Some(72.5),
        rs_pct_total: Some(40.1),
        excise_amap_s: 1.4,
        excise_rimas_s: 0.94,
        excise_total_s: 2.45,
        xfer_iou_s: 0.19,
        xfer_rs_s: 20.5,
        xfer_copy_s: 31.0,
    },
    PaperRow {
        name: "Chess",
        real: 195_584,
        realz: 305_152,
        total: 500_736,
        rs: 110_080,
        iou_pct_real: Some(35.6),
        iou_pct_total: Some(13.9),
        rs_pct_real: Some(66.0),
        rs_pct_total: Some(25.8),
        excise_amap_s: 0.37,
        excise_rimas_s: 0.43,
        excise_total_s: 1.0,
        xfer_iou_s: 0.21,
        xfer_rs_s: 7.7,
        xfer_copy_s: 11.7,
    },
];

#[cfg(test)]
mod tests {
    use super::*;
    use cor_mem::PAGE_SIZE;

    #[test]
    fn every_published_quantity_is_page_aligned() {
        for row in &ROWS {
            assert_eq!(row.real % PAGE_SIZE, 0, "{}", row.name);
            assert_eq!(row.realz % PAGE_SIZE, 0, "{}", row.name);
            assert_eq!(row.total % PAGE_SIZE, 0, "{}", row.name);
            assert_eq!(row.rs % PAGE_SIZE, 0, "{}", row.name);
            assert_eq!(row.real + row.realz, row.total, "{}", row.name);
        }
    }

    #[test]
    fn headline_ratios_hold_in_the_published_data() {
        let max_total = ROWS.iter().map(|r| r.total).max().unwrap();
        let min_total = ROWS.iter().map(|r| r.total).min().unwrap();
        // §4.2.1: "a factor of 12,803" between biggest and smallest.
        assert_eq!(max_total / min_total, 12_803);
        let max_real = ROWS.iter().map(|r| r.real).max().unwrap();
        let min_real = ROWS.iter().map(|r| r.real).min().unwrap();
        // §4.2.1: RealMem varies "only by a factor of 15".
        assert_eq!(max_real / min_real, 15);
        // §4.3.2: the most extreme copy/IOU ratio is ~1000x (Lisp-Del).
        let lisp_del = &ROWS[2];
        assert!((lisp_del.xfer_copy_s / lisp_del.xfer_iou_s) > 950.0);
    }
}
