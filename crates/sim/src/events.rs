//! Event types and time-ordered event entries.

/// What happens at an event instant.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EventKind {
    /// A new flow requests service.
    Arrival,
    /// An active flow (by slot id) finishes.
    Departure {
        /// Slot index of the departing flow in the runner's flow table.
        slot: u32,
    },
    /// A previously blocked flow retries admission. `attempt` counts prior
    /// tries (the first retry carries `attempt = 1`).
    Retry {
        /// Number of attempts already made.
        attempt: u32,
        /// Remaining holding time the flow will need if admitted.
        holding: f64,
        /// Original arrival time (for bookkeeping/penalties).
        first_arrival: f64,
    },
    /// The arrival-rate modulation process switches to a new rate.
    ModulationSwitch,
}

/// A scheduled event: time plus a sequence number for deterministic
/// tie-breaking (f64 time alone is not a total order across equal stamps).
#[derive(Debug, Clone, Copy)]
pub struct Entry {
    /// Simulation time of the event.
    pub time: f64,
    /// Monotone sequence number; breaks ties deterministically.
    pub seq: u64,
    /// Payload.
    pub kind: EventKind,
}

impl PartialEq for Entry {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}

impl Eq for Entry {}

impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Entry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Ascending `(time, seq)`: the order `TimerWheelQueue` pops in.
        self.time.total_cmp(&other.time).then_with(|| self.seq.cmp(&other.seq))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordering_is_time_then_seq() {
        let a = Entry { time: 1.0, seq: 5, kind: EventKind::Arrival };
        let b = Entry { time: 2.0, seq: 1, kind: EventKind::Arrival };
        let c = Entry { time: 1.0, seq: 6, kind: EventKind::Arrival };
        assert!(a < b);
        assert!(a < c);
        assert!(c < b);
    }

    #[test]
    fn nan_free_total_order() {
        // total_cmp gives a total order even for exotic floats; equal times
        // fall back to seq.
        let a = Entry { time: 0.0, seq: 0, kind: EventKind::Arrival };
        let b = Entry { time: -0.0, seq: 1, kind: EventKind::Arrival };
        assert!(a != b);
    }
}
