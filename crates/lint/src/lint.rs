//! The lint catalog: the invariants `jouppi-lint` enforces. Per-file
//! rules the toolchain can check (unsafe code, ambient time, entropy,
//! environment and file input, default hashers, panics in library code,
//! printing, narrowing casts, discarded results) live in the workspace's
//! `[workspace.lints]`, `clippy.toml` and crate-root attributes instead.

use std::fmt;

/// Identifies one lint in the catalog.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum LintId {
    /// `Ordering::Relaxed` in crates whose cross-thread counters feed
    /// reported results.
    RelaxedOrdering,
    /// A call made while a lock guard is live that blocks (`recv`,
    /// `join`, `sleep`, another lock, …) directly or through its
    /// callees.
    LockHeldAcrossCall,
    /// A malformed suppression directive (unknown lint, missing reason).
    BadSuppression,
    /// A suppression directive that matched no finding.
    UnusedSuppression,
}

/// Every catalog entry, in reporting order.
pub const ALL_LINTS: [LintId; 4] = [
    LintId::RelaxedOrdering,
    LintId::LockHeldAcrossCall,
    LintId::BadSuppression,
    LintId::UnusedSuppression,
];

impl LintId {
    /// The kebab-case name used in reports and suppression directives.
    pub fn name(self) -> &'static str {
        match self {
            LintId::RelaxedOrdering => "relaxed-ordering",
            LintId::LockHeldAcrossCall => "lock-held-across-call",
            LintId::BadSuppression => "bad-suppression",
            LintId::UnusedSuppression => "unused-suppression",
        }
    }

    /// Parses a directive/report name back into an id.
    pub fn from_name(name: &str) -> Option<LintId> {
        ALL_LINTS.iter().copied().find(|l| l.name() == name)
    }

    /// One-line description for `--list` and the docs.
    pub fn summary(self) -> &'static str {
        match self {
            LintId::RelaxedOrdering => {
                "Ordering::Relaxed on counters that feed reported results needs a written \
                 justification (fetch_add totals are exact, cross-variable ordering is not)"
            }
            LintId::LockHeldAcrossCall => {
                "no blocking call (recv/join/sleep/accept/connect/read) and no further lock \
                 while a lock guard is live, directly or through any callee — drop the guard \
                 first, or the lock convoys every thread (or, nested, deadlocks)"
            }
            LintId::BadSuppression => {
                "suppression directives must name a known lint and carry a non-empty reason"
            }
            LintId::UnusedSuppression => {
                "suppression directives that match no finding must be deleted"
            }
        }
    }

    /// Whether findings of this lint may themselves be suppressed.
    /// Directive-hygiene lints may not, or a stale directive could hide
    /// itself.
    pub fn suppressible(self) -> bool {
        !matches!(self, LintId::BadSuppression | LintId::UnusedSuppression)
    }
}

impl fmt::Display for LintId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One lint hit: a location plus a human-readable message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Finding {
    /// 1-based source line.
    pub line: u32,
    /// Which lint fired.
    pub lint: LintId,
    /// What was found and what to do instead.
    pub message: String,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for lint in ALL_LINTS {
            assert_eq!(LintId::from_name(lint.name()), Some(lint));
            assert!(!lint.summary().is_empty());
        }
        assert_eq!(LintId::from_name("no-such-lint"), None);
    }

    #[test]
    fn hygiene_lints_are_not_suppressible() {
        assert!(!LintId::BadSuppression.suppressible());
        assert!(!LintId::UnusedSuppression.suppressible());
        assert!(LintId::RelaxedOrdering.suppressible());
    }
}
