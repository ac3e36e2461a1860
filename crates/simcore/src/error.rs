//! Typed simulation errors.
//!
//! The library crates are panic-free on arbitrary inputs: degenerate
//! configurations surface as [`SimError::InvalidConfig`] from a
//! `validate()` entry point before any model is built, and runaway
//! cells are aborted by the engine's event-count budget guard as
//! [`SimError::BudgetExceeded`] instead of hanging a sweep. Every
//! variant is a deterministic function of the run's config, so the
//! sweep supervisor in `experiments` quarantines a failed cell on its
//! first and only run.

use crate::time::SimTime;
use std::fmt;

/// A typed, non-panicking simulation failure.
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    /// A configuration field failed validation before the run started.
    InvalidConfig {
        /// Dotted path of the offending field, e.g. `"load.avg_rps"`.
        field: &'static str,
        /// Human-readable explanation of the constraint it violated.
        reason: String,
    },
    /// The executed-event count crossed the budget's ceiling — the
    /// signature of a livelocked or degenerate cell (e.g. a
    /// zero-interval self-perpetuating event chain).
    BudgetExceeded {
        /// The configured event limit.
        limit: u64,
        /// Events executed when the guard fired.
        events_executed: u64,
        /// Virtual time when the guard fired.
        sim_time: SimTime,
    },
    /// A conservation or accounting invariant failed in a way the
    /// library converted to an error instead of panicking (e.g. a
    /// counter overflow in the ledger).
    Accounting {
        /// Short context, e.g. `"ledger.credit"`.
        context: &'static str,
        /// What went wrong.
        reason: String,
    },
}

impl SimError {
    /// Shorthand for an [`SimError::InvalidConfig`].
    pub fn invalid(field: &'static str, reason: impl Into<String>) -> Self {
        SimError::InvalidConfig {
            field,
            reason: reason.into(),
        }
    }

    /// True for configuration errors: the config failed validation
    /// before any model was built.
    pub fn is_config(&self) -> bool {
        matches!(self, SimError::InvalidConfig { .. })
    }

    /// True for event-budget aborts. The same config under the same
    /// budget aborts at the same event and virtual time; only a bigger
    /// budget can let it finish.
    pub fn is_budget(&self) -> bool {
        matches!(self, SimError::BudgetExceeded { .. })
    }
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::InvalidConfig { field, reason } => {
                write!(f, "invalid config: {field}: {reason}")
            }
            SimError::BudgetExceeded {
                limit,
                events_executed,
                sim_time,
            } => write!(
                f,
                "event-count budget exceeded (limit {limit}) after {events_executed} events \
                 at sim time {sim_time:?}"
            ),
            SimError::Accounting { context, reason } => {
                write!(f, "accounting error in {context}: {reason}")
            }
        }
    }
}

impl std::error::Error for SimError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_the_field() {
        let e = SimError::invalid("load.avg_rps", "must be finite and positive");
        assert!(e.to_string().contains("load.avg_rps"));
        assert!(e.is_config());
        assert!(!e.is_budget());
    }

    #[test]
    fn budget_display_names_the_kind() {
        let e = SimError::BudgetExceeded {
            limit: 100,
            events_executed: 100,
            sim_time: SimTime::from_micros(3),
        };
        assert!(e.to_string().contains("event-count"));
        assert!(e.is_budget());
    }
}
