//! Watchpoint replacement policies (paper Section III-C2).

use std::fmt;
use std::str::FromStr;

/// How CSOD chooses a victim when all four watchpoints are busy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ReplacementPolicy {
    /// No preemption: a watchpoint is kept until its object is freed.
    /// Detects bugs only in programs with at most four contexts or an
    /// overflow within the first four allocations (Table II).
    Naive,
    /// Pick a random slot; if its (age-decayed) probability is lower than
    /// the candidate's, replace it, otherwise continue scanning from that
    /// slot until a lower-probability victim is found.
    Random,
    /// Replace in approximately first-installed-first-replaced order via
    /// a circular cursor updated with an atomic-style single pointer
    /// bump; deallocations perturb strict FIFO order, hence "near".
    #[default]
    NearFifo,
}

impl ReplacementPolicy {
    /// All policies, in the order Table II reports them.
    pub const ALL: [ReplacementPolicy; 3] = [
        ReplacementPolicy::Naive,
        ReplacementPolicy::Random,
        ReplacementPolicy::NearFifo,
    ];
}

impl fmt::Display for ReplacementPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReplacementPolicy::Naive => f.write_str("naive"),
            ReplacementPolicy::Random => f.write_str("random"),
            ReplacementPolicy::NearFifo => f.write_str("near-FIFO"),
        }
    }
}

/// Error returned when parsing an unknown policy name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParsePolicyError(String);

impl fmt::Display for ParsePolicyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "unknown replacement policy `{}` (expected naive, random or near-fifo)",
            self.0
        )
    }
}

impl std::error::Error for ParsePolicyError {}

impl FromStr for ReplacementPolicy {
    type Err = ParsePolicyError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "naive" => Ok(ReplacementPolicy::Naive),
            "random" => Ok(ReplacementPolicy::Random),
            "near-fifo" | "nearfifo" | "fifo" => Ok(ReplacementPolicy::NearFifo),
            other => Err(ParsePolicyError(other.to_owned())),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_round_trips() {
        for p in ReplacementPolicy::ALL {
            assert_eq!(p.to_string().parse::<ReplacementPolicy>().unwrap(), p);
        }
        assert_eq!(
            "FIFO".parse::<ReplacementPolicy>().unwrap(),
            ReplacementPolicy::NearFifo
        );
        assert!("lru".parse::<ReplacementPolicy>().is_err());
    }

    #[test]
    fn default_is_near_fifo() {
        assert_eq!(ReplacementPolicy::default(), ReplacementPolicy::NearFifo);
    }

    #[test]
    fn parse_error_mentions_input() {
        let err = "bogus".parse::<ReplacementPolicy>().unwrap_err();
        assert!(err.to_string().contains("bogus"));
    }
}
