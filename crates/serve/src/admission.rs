//! Per-tenant admission control: token buckets and bounded queues.
//!
//! The daemon degrades gracefully under overload by *refusing* work, not
//! by queueing it without bound. Each tenant gets a token bucket (steady
//! rate plus a burst allowance) gating entry to a bounded per-tenant
//! queue; a request that finds the bucket empty or the queue full is
//! answered immediately with `Rejected{retry_after}` so the client backs
//! off instead of timing out. Time is injected (`now: Instant`) rather
//! than read, so admission decisions are deterministic under test.

use std::time::{Duration, Instant};

/// Admission limits applied to every tenant.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdmissionConfig {
    /// Sustained requests per second each tenant may submit.
    pub rate: f64,
    /// Burst allowance: the bucket's capacity in requests.
    pub burst: f64,
    /// Bound on each tenant's queue; arrivals past it are shed even when
    /// the token bucket still has capacity.
    pub queue_depth: usize,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        AdmissionConfig {
            rate: 50.0,
            burst: 20.0,
            queue_depth: 64,
        }
    }
}

/// A classic token bucket: refills continuously at `rate` tokens/second
/// up to `capacity`, spends one token per admitted request.
#[derive(Debug, Clone)]
pub struct TokenBucket {
    rate: f64,
    capacity: f64,
    tokens: f64,
    last_refill: Instant,
}

impl TokenBucket {
    /// A full bucket. `rate` and `capacity` are clamped to sane floors so
    /// a zero-rate configuration degrades to "one request per very long
    /// while" instead of dividing by zero.
    pub fn new(rate: f64, capacity: f64, now: Instant) -> TokenBucket {
        let rate = if rate.is_finite() && rate > 0.0 {
            rate
        } else {
            1e-6
        };
        let capacity = if capacity.is_finite() && capacity >= 1.0 {
            capacity
        } else {
            1.0
        };
        TokenBucket {
            rate,
            capacity,
            tokens: capacity,
            last_refill: now,
        }
    }

    /// Refills for the elapsed time and tries to spend one token.
    /// `Err(wait)` is the duration until a token will be available — the
    /// `retry_after` hint sent to the client.
    pub fn try_acquire(&mut self, now: Instant) -> Result<(), Duration> {
        let elapsed = now.saturating_duration_since(self.last_refill);
        self.last_refill = now;
        self.tokens = (self.tokens + elapsed.as_secs_f64() * self.rate).min(self.capacity);
        if self.tokens >= 1.0 {
            self.tokens -= 1.0;
            Ok(())
        } else {
            let deficit = 1.0 - self.tokens;
            Err(Duration::from_secs_f64(deficit / self.rate))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_burst_up_to_capacity_is_admitted_then_shed() {
        let t0 = Instant::now();
        let mut b = TokenBucket::new(10.0, 3.0, t0);
        assert!(b.try_acquire(t0).is_ok());
        assert!(b.try_acquire(t0).is_ok());
        assert!(b.try_acquire(t0).is_ok());
        let wait = b.try_acquire(t0).unwrap_err();
        // One token refills in 1/rate = 100ms.
        assert!(wait > Duration::from_millis(50) && wait <= Duration::from_millis(100));
    }

    #[test]
    fn tokens_refill_at_the_configured_rate() {
        let t0 = Instant::now();
        let mut b = TokenBucket::new(10.0, 1.0, t0);
        assert!(b.try_acquire(t0).is_ok());
        assert!(b.try_acquire(t0).is_err());
        // 100ms later exactly one token is back.
        let t1 = t0 + Duration::from_millis(100);
        assert!(b.try_acquire(t1).is_ok());
        assert!(b.try_acquire(t1).is_err());
    }

    #[test]
    fn refill_never_exceeds_capacity() {
        let t0 = Instant::now();
        let mut b = TokenBucket::new(100.0, 2.0, t0);
        let later = t0 + Duration::from_secs(60);
        // Exactly the 2-token capacity is back: two are admitted and the
        // third waits out a whole token at 100 tokens/s.
        assert!(b.try_acquire(later).is_ok());
        assert!(b.try_acquire(later).is_ok());
        assert_eq!(b.try_acquire(later), Err(Duration::from_millis(10)));
    }

    #[test]
    fn degenerate_configs_are_clamped_not_panicking() {
        let t0 = Instant::now();
        let mut b = TokenBucket::new(0.0, 0.0, t0);
        assert!(b.try_acquire(t0).is_ok(), "capacity floor is one token");
        assert!(b.try_acquire(t0).is_err(), "zero rate never refills fast");
        let mut b = TokenBucket::new(f64::NAN, f64::INFINITY, t0);
        assert!(b.try_acquire(t0).is_ok());
    }

    #[test]
    fn retry_after_shrinks_as_time_passes() {
        let t0 = Instant::now();
        let mut b = TokenBucket::new(2.0, 1.0, t0);
        assert!(b.try_acquire(t0).is_ok());
        let w1 = b.try_acquire(t0).unwrap_err();
        let w2 = b.try_acquire(t0 + Duration::from_millis(200)).unwrap_err();
        assert!(w2 < w1, "{w2:?} should be under {w1:?}");
    }
}
