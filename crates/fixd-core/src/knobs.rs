//! Environment knobs shared across the workspace.
//!
//! Two runtime surfaces scale across cores — the campaign driver
//! (`FIXD_CAMPAIGN_THREADS`) and the sharded world executor
//! (`FIXD_SHARDS`) — and both take a positive worker count from the
//! environment. Parsing lives here once so the two knobs cannot drift:
//! both trim whitespace, both reject `0` (a zero-wide pool or zero-shard
//! world is meaningless, and silently clamping would hide a typo), and
//! both reject overflow explicitly instead of letting `usize::MAX`-sized
//! requests wrap into something plausible.

use std::env;

/// Environment variable selecting the shard count for sharded worlds.
pub const SHARDS_ENV: &str = "FIXD_SHARDS";

/// Why a count knob failed to parse. Split finely so tests (and error
/// messages) can distinguish a typo from an out-of-range request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CountParseError {
    /// Empty or whitespace-only input.
    Empty,
    /// Parsed fine, but `0` workers/shards is never a valid request.
    Zero,
    /// All digits, but the value exceeds `usize::MAX`.
    Overflow,
    /// Not a base-10 unsigned integer at all.
    Invalid,
}

impl std::fmt::Display for CountParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Empty => write!(f, "empty value"),
            Self::Zero => write!(f, "count must be at least 1"),
            Self::Overflow => write!(f, "count overflows usize"),
            Self::Invalid => write!(f, "not a positive integer"),
        }
    }
}

/// Parse a positive worker/shard count: trimmed base-10, `1..=usize::MAX`.
///
/// Rejections are explicit — see [`CountParseError`]. Note `"+8"` is
/// rejected as [`CountParseError::Invalid`] even though `usize::parse`
/// would accept it: env knobs should be plain digits.
pub fn parse_count(raw: &str) -> Result<usize, CountParseError> {
    let s = raw.trim();
    if s.is_empty() {
        return Err(CountParseError::Empty);
    }
    if !s.bytes().all(|b| b.is_ascii_digit()) {
        return Err(CountParseError::Invalid);
    }
    match s.parse::<usize>() {
        Ok(0) => Err(CountParseError::Zero),
        Ok(n) => Ok(n),
        // All-digits input can only fail by exceeding usize::MAX.
        Err(_) => Err(CountParseError::Overflow),
    }
}

/// Read a count knob from the environment. `None` when the variable is
/// unset **or** malformed — a bad knob falls back to the caller's
/// default rather than aborting a long campaign.
pub fn env_count(var: &str) -> Option<usize> {
    env::var(var).ok().and_then(|v| parse_count(&v).ok())
}

/// The `FIXD_SHARDS` knob, if set and valid.
pub fn shards_from_env() -> Option<usize> {
    env_count(SHARDS_ENV)
}

/// Budget outer worker threads against per-task fan-out.
///
/// When every unit of work occupies `fanout` threads (a sharded
/// campaign cell runs on `FIXD_SHARDS` of them: the outer worker
/// executes one shard itself and spawns `FIXD_SHARDS − 1` shard
/// workers), running the full `threads` workers oversubscribes the
/// machine by a factor of `fanout`: `FIXD_CAMPAIGN_THREADS ×
/// FIXD_SHARDS` threads contend for `FIXD_CAMPAIGN_THREADS` cores. The
/// fix is to spend the thread budget on the *product*: at most
/// `threads / fanout` outer workers, never fewer than one (a fan-out
/// wider than the budget still makes progress, one cell at a time).
/// The product counts every thread there is: an outer worker is one of
/// its cell's `fanout`, not a sleeping extra on top of them.
pub fn worker_budget(threads: usize, fanout: usize) -> usize {
    (threads / fanout.max(1)).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accepts_trimmed_positive_integers() {
        assert_eq!(parse_count("8"), Ok(8));
        assert_eq!(parse_count("  8  "), Ok(8));
        assert_eq!(parse_count("\t2\n"), Ok(2));
        assert_eq!(parse_count("1"), Ok(1));
    }

    #[test]
    fn rejects_each_edge_explicitly() {
        assert_eq!(parse_count(""), Err(CountParseError::Empty));
        assert_eq!(parse_count("   "), Err(CountParseError::Empty));
        assert_eq!(parse_count("0"), Err(CountParseError::Zero));
        assert_eq!(parse_count("00"), Err(CountParseError::Zero));
        // 2^64 = 18446744073709551616 exceeds usize::MAX on 64-bit (and
        // 32-bit) targets.
        assert_eq!(
            parse_count("18446744073709551616"),
            Err(CountParseError::Overflow)
        );
        assert_eq!(parse_count("-1"), Err(CountParseError::Invalid));
        assert_eq!(parse_count("+8"), Err(CountParseError::Invalid));
        assert_eq!(parse_count("eight"), Err(CountParseError::Invalid));
        assert_eq!(parse_count("8 shards"), Err(CountParseError::Invalid));
    }

    #[test]
    fn worker_budget_spends_the_product_not_the_factor() {
        // 8 workers × 4 shards would be 32 threads; the budget caps the
        // outer pool so the product stays within the 8-thread budget.
        assert_eq!(worker_budget(8, 4), 2);
        assert_eq!(worker_budget(8, 1), 8);
        assert_eq!(worker_budget(8, 8), 1);
        // Fan-out wider than the budget: still one worker, never zero.
        assert_eq!(worker_budget(2, 16), 1);
        assert_eq!(worker_budget(1, 1), 1);
        // Degenerate zero fan-out is treated as serial, not a panic.
        assert_eq!(worker_budget(8, 0), 8);
    }

    #[test]
    fn display_is_human_readable() {
        assert_eq!(
            CountParseError::Zero.to_string(),
            "count must be at least 1"
        );
    }
}
