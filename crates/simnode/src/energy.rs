//! Package energy accounting and rolling-average power measurement.
//!
//! RAPL enforces an *average* power over a programmable time window, so the
//! controller needs the average package power over the last `W` nanoseconds.
//! [`EnergyMeter`] keeps cumulative energy samples in a ring, trimmed to
//! the retention window in O(1) amortised per sample, and answers that
//! query with a binary search over the ring: O(log n) in the samples
//! retained.

use std::collections::VecDeque;

use crate::time::{secs, Nanos};

/// Cumulative package energy with a bounded history for windowed averages.
#[derive(Debug, Clone)]
pub struct EnergyMeter {
    /// Total energy since construction, joules.
    total_j: f64,
    /// (time, cumulative joules) history, oldest first.
    history: VecDeque<(Nanos, f64)>,
    /// How much history to retain.
    retain: Nanos,
}

impl EnergyMeter {
    /// Create a meter retaining at least `retain` nanoseconds of history.
    pub fn new(retain: Nanos) -> Self {
        let mut history = VecDeque::with_capacity(256);
        history.push_back((0, 0.0));
        Self {
            total_j: 0.0,
            history,
            retain,
        }
    }

    /// Record that `joules` were consumed by time `now`.
    ///
    /// # Panics
    /// Panics if `now` moves backwards.
    pub fn record(&mut self, now: Nanos, joules: f64) {
        let last_t = self.history.back().expect("never empty").0;
        assert!(now >= last_t, "energy recorded out of order");
        self.total_j += joules;
        self.history.push_back((now, self.total_j));
        // Trim history older than the retention window, but always keep one
        // sample at or before the window edge so interpolation has an anchor.
        while self.history.len() > 2 {
            let second = self.history[1].0;
            if now.saturating_sub(second) >= self.retain {
                self.history.pop_front();
            } else {
                break;
            }
        }
    }

    /// Total energy consumed so far, joules.
    pub fn total_joules(&self) -> f64 {
        self.total_j
    }

    /// Average power over the trailing `window` ending at the latest sample,
    /// in watts. Shorter-than-window histories average over what exists.
    pub fn average_power(&self, window: Nanos) -> f64 {
        let &(t_end, e_end) = self.history.back().expect("never empty");
        let t_start = t_end.saturating_sub(window);
        // Find the cumulative energy at t_start by linear interpolation.
        let e_start = self.energy_at(t_start);
        let dt = secs(t_end - t_start.min(t_end));
        if dt <= 0.0 {
            return 0.0;
        }
        (e_end - e_start) / dt
    }

    /// Cumulative energy at time `t` (linear interpolation, clamped).
    fn energy_at(&self, t: Nanos) -> f64 {
        let h = &self.history;
        if t <= h.front().expect("never empty").0 {
            return h.front().expect("never empty").1;
        }
        // Binary search for the segment containing t.
        let idx = h.partition_point(|&(ht, _)| ht <= t);
        if idx >= h.len() {
            return h.back().expect("never empty").1;
        }
        let (t0, e0) = h[idx - 1];
        let (t1, e1) = h[idx];
        if t1 == t0 {
            return e1;
        }
        let frac = (t - t0) as f64 / (t1 - t0) as f64;
        e0 + frac * (e1 - e0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::{MS, SEC};

    #[test]
    fn constant_power_measures_exactly() {
        let mut m = EnergyMeter::new(SEC);
        // 100 W for one second in 1 ms quanta.
        for i in 1..=1000u64 {
            m.record(i * MS, 0.1);
        }
        assert!((m.average_power(SEC) - 100.0).abs() < 1e-6);
        assert!((m.total_joules() - 100.0).abs() < 1e-9);
    }

    #[test]
    fn window_sees_only_recent_power() {
        let mut m = EnergyMeter::new(2 * SEC);
        // 1 s at 50 W then 1 s at 150 W.
        for i in 1..=1000u64 {
            m.record(i * MS, 0.05);
        }
        for i in 1001..=2000u64 {
            m.record(i * MS, 0.15);
        }
        let recent = m.average_power(500 * MS);
        assert!((recent - 150.0).abs() < 1e-6, "recent avg = {recent}");
        let full = m.average_power(2 * SEC);
        assert!((full - 100.0).abs() < 1e-6, "full avg = {full}");
    }

    #[test]
    fn history_is_trimmed_but_average_stays_correct() {
        let mut m = EnergyMeter::new(100 * MS);
        for i in 1..=100_000u64 {
            m.record(i * MS, 0.2);
        }
        assert!(
            m.history.len() < 1000,
            "history grew unbounded: {}",
            m.history.len()
        );
        assert!((m.average_power(100 * MS) - 200.0).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "out of order")]
    fn rejects_time_going_backwards() {
        let mut m = EnergyMeter::new(SEC);
        m.record(MS, 0.1);
        m.record(0, 0.1);
    }

    #[test]
    fn empty_meter_reports_zero() {
        let m = EnergyMeter::new(SEC);
        assert_eq!(m.average_power(SEC), 0.0);
        assert_eq!(m.total_joules(), 0.0);
    }
}
