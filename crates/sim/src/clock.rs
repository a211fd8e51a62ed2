//! The monotone simulation clock.

use crate::time::{SimDuration, SimTime};

/// A monotone cursor over the virtual timeline.
///
/// A simulated world owns exactly one `Clock`. Components advance it as they
/// model work being performed; it can never move backwards.
///
/// # Examples
///
/// ```
/// use cor_sim::{Clock, SimDuration, SimTime};
///
/// let mut clock = Clock::new();
/// clock.advance(SimDuration::from_millis(40));
/// assert_eq!(clock.now(), SimTime::from_millis(40));
/// ```
#[derive(Debug, Clone, Default)]
pub struct Clock {
    now: SimTime,
}

impl Clock {
    /// Creates a clock at the origin of the timeline.
    pub fn new() -> Self {
        Clock { now: SimTime::ZERO }
    }

    /// Returns the current instant.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Moves the clock forward by `d` and returns the new instant.
    pub fn advance(&mut self, d: SimDuration) -> SimTime {
        self.now += d;
        self.now
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn advance_accumulates() {
        let mut c = Clock::new();
        c.advance(SimDuration::from_millis(10));
        c.advance(SimDuration::from_millis(5));
        assert_eq!(c.now(), SimTime::from_millis(15));
    }
}
