//! Fleet-tier overload control: retry budgets, per-server circuit
//! breakers, and LB-side brownout.
//!
//! These three mechanisms close the metastable-failure loop that
//! timeout/retry/hedge machinery opens: without them, a transient
//! trigger (crash + load spike) leaves the fleet in a self-sustaining
//! retry storm after the trigger clears — the retried work keeps the
//! servers saturated, which keeps producing timeouts, which keeps
//! producing retries. With them, shed work leaves the system instead
//! of recirculating:
//!
//! - a **retry budget** (token bucket per flow, refilled by
//!   successes) bounds the retry amplification factor;
//! - a **circuit breaker** per server (closed → open → half-open with
//!   hysteresis) stops steering attempts at a server that is failing
//!   them, composing with — not replacing — health-probe ejection;
//! - **brownout** sheds the lowest-priority arrivals at the load
//!   balancer while the up-coupled saturation signal is high, so the
//!   latency-critical traffic keeps its SLO while best-effort work
//!   waits out the storm.

use simcore::{SimDuration, SimTime};

/// Token-bucket retry budget, per client flow. Retries spend a whole
/// token; successes refill a fraction of one, so the sustained
/// retry-to-success ratio is bounded by `refill_permille / 1000`
/// (the classic "retry budget" discipline) while short bursts ride
/// on the bucket.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryBudgetPolicy {
    /// Tokens each flow starts with (burst allowance).
    pub initial: u32,
    /// Token cap per flow.
    pub cap: u32,
    /// Milli-tokens refilled per successful completion.
    pub refill_permille: u32,
}

impl Default for RetryBudgetPolicy {
    fn default() -> Self {
        RetryBudgetPolicy {
            initial: 2,
            cap: 5,
            refill_permille: 100,
        }
    }
}

/// One flow's budget state (integer milli-tokens — exact).
#[derive(Debug, Clone, Copy)]
pub struct RetryBudget {
    milli: u64,
    cap_milli: u64,
    refill_milli: u64,
}

impl RetryBudget {
    /// A fresh bucket at the policy's initial fill.
    pub fn new(policy: RetryBudgetPolicy) -> Self {
        RetryBudget {
            milli: policy.initial as u64 * 1000,
            cap_milli: policy.cap as u64 * 1000,
            refill_milli: policy.refill_permille as u64,
        }
    }

    /// Spends one whole token for a retry; `false` = budget denied.
    pub fn try_spend(&mut self) -> bool {
        if self.milli >= 1000 {
            self.milli -= 1000;
            true
        } else {
            false
        }
    }

    /// A success on this flow refills a fraction of a token.
    pub fn on_success(&mut self) {
        self.milli = (self.milli + self.refill_milli).min(self.cap_milli);
    }

    /// Current fill, milli-tokens.
    pub fn milli_tokens(&self) -> u64 {
        self.milli
    }
}

/// Circuit-breaker thresholds and timing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BreakerPolicy {
    /// Consecutive failures before the breaker opens.
    pub fail_threshold: u32,
    /// How long an open breaker blocks before probing (half-open).
    pub cooldown: SimDuration,
    /// Maximum trial attempts admitted while half-open.
    pub probe_cap: u32,
    /// Successes while half-open before the breaker closes.
    pub ok_threshold: u32,
}

impl Default for BreakerPolicy {
    fn default() -> Self {
        BreakerPolicy {
            fail_threshold: 5,
            cooldown: SimDuration::from_millis(20),
            probe_cap: 3,
            ok_threshold: 2,
        }
    }
}

/// Circuit-breaker state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Normal operation; counting consecutive failures.
    Closed,
    /// Blocking all traffic until the cooldown elapses.
    Open,
    /// Admitting up to `probe_cap` trial attempts.
    HalfOpen,
}

/// Lifetime transition counts of one breaker.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BreakerStats {
    /// Closed/half-open → open transitions.
    pub opens: u64,
    /// Half-open → closed transitions.
    pub closes: u64,
    /// Open → half-open transitions.
    pub half_opens: u64,
}

/// Per-server circuit breaker with hysteresis: consecutive-failure
/// trip (so an oscillating error rate never flaps it), a cooldown
/// before probing, and a capped half-open trial window.
#[derive(Debug, Clone)]
pub struct CircuitBreaker {
    policy: BreakerPolicy,
    state: BreakerState,
    consecutive_fails: u32,
    half_open_ok: u32,
    probes_used: u32,
    opened_at: SimTime,
    stats: BreakerStats,
}

impl CircuitBreaker {
    /// A closed breaker.
    pub fn new(policy: BreakerPolicy) -> Self {
        CircuitBreaker {
            policy,
            state: BreakerState::Closed,
            consecutive_fails: 0,
            half_open_ok: 0,
            probes_used: 0,
            opened_at: SimTime::ZERO,
            stats: BreakerStats::default(),
        }
    }

    /// Current state (after any cooldown-driven transition the last
    /// [`admits`](CircuitBreaker::admits) performed).
    pub fn state(&self) -> BreakerState {
        self.state
    }

    /// Transition counts.
    pub fn stats(&self) -> BreakerStats {
        self.stats
    }

    /// Would the breaker admit an attempt at `now`? An open breaker
    /// whose cooldown has elapsed transitions to half-open here.
    pub fn admits(&mut self, now: SimTime) -> bool {
        if self.state == BreakerState::Open && now >= self.opened_at + self.policy.cooldown {
            self.state = BreakerState::HalfOpen;
            self.half_open_ok = 0;
            self.probes_used = 0;
            self.stats.half_opens += 1;
        }
        match self.state {
            BreakerState::Closed => true,
            BreakerState::Open => false,
            BreakerState::HalfOpen => self.probes_used < self.policy.probe_cap,
        }
    }

    /// An attempt was actually dispatched through this breaker
    /// (consumes a half-open probe slot).
    pub fn on_dispatch(&mut self) {
        if self.state == BreakerState::HalfOpen {
            self.probes_used += 1;
        }
    }

    /// Feed one attempt outcome. Results arriving while open (late
    /// responses from before the trip) are ignored.
    pub fn record(&mut self, now: SimTime, ok: bool) {
        match self.state {
            BreakerState::Closed => {
                if ok {
                    self.consecutive_fails = 0;
                } else {
                    self.consecutive_fails += 1;
                    if self.consecutive_fails >= self.policy.fail_threshold {
                        self.trip(now);
                    }
                }
            }
            BreakerState::HalfOpen => {
                if ok {
                    self.half_open_ok += 1;
                    if self.half_open_ok >= self.policy.ok_threshold {
                        self.state = BreakerState::Closed;
                        self.consecutive_fails = 0;
                        self.stats.closes += 1;
                    }
                } else {
                    self.trip(now);
                }
            }
            BreakerState::Open => {}
        }
    }

    fn trip(&mut self, now: SimTime) {
        self.state = BreakerState::Open;
        self.opened_at = now;
        self.consecutive_fails = 0;
        self.stats.opens += 1;
    }
}

/// Brownout activation thresholds over the up-coupled saturation
/// signal (per-mille of admission capacity, the maximum across
/// servers). `restore < threshold` gives the hysteresis band that
/// keeps brownout from flapping at the boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BrownoutPolicy {
    /// Saturation at or above which brownout activates.
    pub threshold_permille: u32,
    /// Saturation at or below which brownout deactivates.
    pub restore_permille: u32,
}

impl Default for BrownoutPolicy {
    fn default() -> Self {
        BrownoutPolicy {
            threshold_permille: 700,
            restore_permille: 300,
        }
    }
}

/// LB-side brownout state machine, fed once per coupling epoch.
#[derive(Debug, Clone, Copy)]
pub struct Brownout {
    policy: BrownoutPolicy,
    active: bool,
    activations: u64,
}

impl Brownout {
    /// Inactive brownout under `policy`.
    pub fn new(policy: BrownoutPolicy) -> Self {
        Brownout {
            policy,
            active: false,
            activations: 0,
        }
    }

    /// Feed the current fleet-max saturation (per mille).
    pub fn observe(&mut self, saturation_permille: u32) {
        if !self.active && saturation_permille >= self.policy.threshold_permille {
            self.active = true;
            self.activations += 1;
        } else if self.active && saturation_permille <= self.policy.restore_permille {
            self.active = false;
        }
    }

    /// Is low-priority shedding currently on?
    pub fn active(&self) -> bool {
        self.active
    }

    /// How many times brownout activated.
    pub fn activations(&self) -> u64 {
        self.activations
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn retry_budget_bounds_retry_ratio() {
        let mut b = RetryBudget::new(RetryBudgetPolicy {
            initial: 1,
            cap: 2,
            refill_permille: 100,
        });
        assert!(b.try_spend(), "initial token missing");
        assert!(!b.try_spend(), "spent bucket still paid out");
        // Ten successes refill exactly one token.
        for _ in 0..10 {
            b.on_success();
        }
        assert!(b.try_spend());
        assert!(!b.try_spend());
        // Refills cap at the bucket size.
        for _ in 0..1000 {
            b.on_success();
        }
        assert_eq!(b.milli_tokens(), 2000);
    }

    #[test]
    fn breaker_trips_on_consecutive_failures_only() {
        let mut cb = CircuitBreaker::new(BreakerPolicy {
            fail_threshold: 3,
            ..BreakerPolicy::default()
        });
        let t = SimTime::ZERO;
        // An oscillating error rate (fail, ok, fail, ok, ...) never
        // accumulates 3 consecutive failures: no flapping.
        for _ in 0..50 {
            cb.record(t, false);
            cb.record(t, true);
        }
        assert_eq!(cb.state(), BreakerState::Closed);
        assert_eq!(cb.stats().opens, 0);
        // Three in a row trips it.
        for _ in 0..3 {
            cb.record(t, false);
        }
        assert_eq!(cb.state(), BreakerState::Open);
        assert!(!cb.admits(t));
    }

    #[test]
    fn breaker_half_open_probe_cap_and_close() {
        let policy = BreakerPolicy {
            fail_threshold: 1,
            cooldown: SimDuration::from_millis(10),
            probe_cap: 2,
            ok_threshold: 2,
        };
        let mut cb = CircuitBreaker::new(policy);
        cb.record(SimTime::ZERO, false);
        assert_eq!(cb.state(), BreakerState::Open);
        assert!(!cb.admits(SimTime::from_millis(5)), "cooldown ignored");
        // Cooldown elapsed: half-open, capped at 2 probes.
        let t = SimTime::from_millis(10);
        assert!(cb.admits(t));
        cb.on_dispatch();
        assert!(cb.admits(t));
        cb.on_dispatch();
        assert!(!cb.admits(t), "probe cap exceeded");
        assert_eq!(cb.stats().half_opens, 1);
        // Two probe successes close it.
        cb.record(t, true);
        cb.record(t, true);
        assert_eq!(cb.state(), BreakerState::Closed);
        assert_eq!(cb.stats().closes, 1);
    }

    #[test]
    fn breaker_half_open_failure_reopens() {
        let policy = BreakerPolicy {
            fail_threshold: 1,
            cooldown: SimDuration::from_millis(10),
            probe_cap: 3,
            ok_threshold: 2,
        };
        let mut cb = CircuitBreaker::new(policy);
        cb.record(SimTime::ZERO, false);
        let t = SimTime::from_millis(10);
        assert!(cb.admits(t));
        cb.on_dispatch();
        cb.record(t, false);
        assert_eq!(cb.state(), BreakerState::Open);
        assert_eq!(cb.stats().opens, 2);
        // The cooldown restarts from the re-trip.
        assert!(!cb.admits(SimTime::from_millis(19)));
        assert!(cb.admits(SimTime::from_millis(20)));
    }

    #[test]
    fn brownout_hysteresis_band() {
        let mut b = Brownout::new(BrownoutPolicy {
            threshold_permille: 700,
            restore_permille: 300,
        });
        assert!(!b.active());
        b.observe(650);
        assert!(!b.active());
        b.observe(700);
        assert!(b.active());
        // Inside the band: stays active (no flapping).
        b.observe(500);
        assert!(b.active());
        b.observe(301);
        assert!(b.active());
        b.observe(300);
        assert!(!b.active());
        assert_eq!(b.activations(), 1);
    }
}
