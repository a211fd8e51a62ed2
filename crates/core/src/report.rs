//! Migration trial measurements.

use cor_sim::{SimDuration, SimTime};

use crate::strategy::Strategy;

/// Timings of every migration phase (the quantities of Tables 4-4 and
/// 4-5).
#[derive(Debug, Clone, Copy, Default)]
pub struct PhaseTimings {
    /// AMap construction during `ExciseProcess`.
    pub excise_amap: SimDuration,
    /// Address-space collapse into the RIMAS message.
    pub excise_rimas: SimDuration,
    /// Total `ExciseProcess` time.
    pub excise_total: SimDuration,
    /// Core context message transfer.
    pub core_transfer: SimDuration,
    /// RIMAS message transfer (the strategy-dependent quantity of
    /// Table 4-5).
    pub rimas_transfer: SimDuration,
    /// Total `InsertProcess` time.
    pub insert_total: SimDuration,
}

impl PhaseTimings {
    /// Total migration time (excision through insertion).
    pub fn migration_total(&self) -> SimDuration {
        self.excise_total + self.core_transfer + self.rimas_transfer + self.insert_total
    }
}

/// The complete record of one migration.
#[derive(Debug, Clone)]
pub struct MigrationReport {
    /// The strategy the process migrated under; its `Display` is the
    /// label ("pure-copy", "pure-iou pf=1", ...).
    pub strategy: Strategy,
    /// Migrated process name.
    pub process: String,
    /// Phase timings.
    pub timings: PhaseTimings,
    /// When the migration request was received.
    pub requested_at: SimTime,
    /// When the process was ready to resume at the destination.
    pub resumed_at: SimTime,
    /// Pages physically carried by the RIMAS transfer.
    pub carried_pages: u64,
    /// Pages shipped as IOUs.
    pub owed_pages: u64,
    /// RealMem pages at excision.
    pub real_pages: u64,
    /// Resident pages at excision.
    pub resident_pages: u64,
    /// AMap entries shipped in the Core message.
    pub amap_entries: u64,
    /// Bytes of each pre-copy round (empty for non-precopy strategies);
    /// round 1 is the full copy, later rounds are modeled dirty-page
    /// retransmissions.
    pub precopy_rounds: Vec<u64>,
    /// Elapsed time of each pre-copy round, matching `precopy_rounds`.
    pub precopy_round_times: Vec<SimDuration>,
}

impl MigrationReport {
    /// Process downtime: for pre-copy, only the final (smallest) round
    /// plus excision/insertion stops the process — earlier rounds overlap
    /// execution at the source. For every other strategy the whole
    /// migration is downtime.
    pub fn downtime(&self) -> SimDuration {
        match self.precopy_round_times.last() {
            Some(&last) => {
                self.timings.excise_total
                    + self.timings.core_transfer
                    + last
                    + self.timings.insert_total
            }
            None => self.timings.migration_total(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_add_up() {
        let t = PhaseTimings {
            excise_amap: SimDuration::from_millis(370),
            excise_rimas: SimDuration::from_millis(360),
            excise_total: SimDuration::from_millis(820),
            core_transfer: SimDuration::from_secs(1),
            rimas_transfer: SimDuration::from_millis(160),
            insert_total: SimDuration::from_millis(263),
        };
        assert_eq!(t.migration_total(), SimDuration::from_millis(2243));
    }

    #[test]
    fn precopy_downtime_is_the_final_round() {
        let r = MigrationReport {
            strategy: Strategy::PreCopy {
                max_rounds: 3,
                stop_pages: 1,
            },
            process: "x".into(),
            timings: PhaseTimings::default(),
            requested_at: SimTime::ZERO,
            resumed_at: SimTime::ZERO,
            carried_pages: 0,
            owed_pages: 0,
            real_pages: 0,
            resident_pages: 0,
            amap_entries: 0,
            precopy_rounds: vec![1000, 200, 50],
            precopy_round_times: vec![
                SimDuration::from_secs(10),
                SimDuration::from_secs(2),
                SimDuration::from_millis(500),
            ],
        };
        // Downtime counts only the final round (plus zeroed phases here).
        assert_eq!(r.downtime(), SimDuration::from_millis(500));
    }
}
