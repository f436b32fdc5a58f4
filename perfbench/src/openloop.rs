//! Open-loop request accounting: request `i` is due at `i / rate`
//! seconds after the schedule starts, whether or not earlier requests
//! have completed, and is timed from that due time. A stall therefore
//! shows in the latency of every request queued behind it instead of
//! silently thinning the load.

/// Due times and the per-request timings of one open-loop generator.
#[derive(Debug, Clone)]
pub struct OpenLoop {
    interval_s: f64,
    /// Completion minus due time, per request, in ms.
    pub latency_ms: Vec<f64>,
    /// Completion minus send time, per request, in ms.
    pub service_ms: Vec<f64>,
    /// How late the generator sent each request (send minus due, never
    /// negative), in ms.
    pub lag_ms: Vec<f64>,
}

impl OpenLoop {
    /// A generator issuing `rate_per_s` requests per second.
    pub fn new(rate_per_s: f64) -> Self {
        assert!(rate_per_s > 0.0, "open-loop rate must be positive");
        Self {
            interval_s: 1.0 / rate_per_s,
            latency_ms: Vec::new(),
            service_ms: Vec::new(),
            lag_ms: Vec::new(),
        }
    }

    /// When request `i` is due, in seconds since the schedule started.
    pub fn due_s(&self, i: usize) -> f64 {
        i as f64 * self.interval_s
    }

    /// Records request `i`, sent at `sent_s` and completed at `done_s`
    /// (both in seconds since the schedule started).
    pub fn record(&mut self, i: usize, sent_s: f64, done_s: f64) {
        let due = self.due_s(i);
        self.latency_ms.push((done_s - due) * 1e3);
        self.service_ms.push((done_s - sent_s) * 1e3);
        self.lag_ms.push((sent_s - due).max(0.0) * 1e3);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-9
    }

    #[test]
    fn due_times_follow_the_rate() {
        let ol = OpenLoop::new(50.0);
        assert_eq!(ol.due_s(0), 0.0);
        assert!(close(ol.due_s(1), 0.02));
        assert!(close(ol.due_s(100), 2.0));
    }

    #[test]
    fn a_stall_is_charged_to_the_requests_behind_it() {
        let mut ol = OpenLoop::new(10.0);
        // Request 0 stalls for half a second; 1 and 2 were due at 0.1
        // and 0.2 but can only go out once it returns.
        ol.record(0, 0.0, 0.5);
        ol.record(1, 0.5, 0.51);
        ol.record(2, 0.51, 0.52);
        // Back on schedule: request 6 goes out when due.
        ol.record(6, 0.6, 0.605);
        let expect_latency = [500.0, 410.0, 320.0, 5.0];
        let expect_service = [500.0, 10.0, 10.0, 5.0];
        let expect_lag = [0.0, 400.0, 310.0, 0.0];
        for k in 0..4 {
            assert!(close(ol.latency_ms[k], expect_latency[k]), "latency {k}");
            assert!(close(ol.service_ms[k], expect_service[k]), "service {k}");
            assert!(close(ol.lag_ms[k], expect_lag[k]), "lag {k}");
        }
    }

    #[test]
    fn an_early_send_counts_no_negative_lag() {
        let mut ol = OpenLoop::new(1.0);
        ol.record(3, 2.999_999, 3.1);
        assert_eq!(ol.lag_ms[0], 0.0);
        assert!(close(ol.latency_ms[0], 100.0));
    }
}
