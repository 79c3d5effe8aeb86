//! The lint catalog: the invariants `jouppi-lint` enforces. Per-file
//! rules the toolchain can check (unsafe code, ambient time and entropy,
//! default hashers, serve panics, printing, narrowing casts, discarded
//! results) live in the workspace's `[workspace.lints]`, `clippy.toml`
//! and crate-root attributes instead.

use std::fmt;

/// Identifies one lint in the catalog.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum LintId {
    /// `Ordering::Relaxed` in crates whose cross-thread counters feed
    /// reported results.
    RelaxedOrdering,
    /// A cycle in the per-crate graph of nested lock acquisitions
    /// (potential deadlock).
    LockOrder,
    /// Long-lived server/sweep collection state that only grows —
    /// no eviction, pruning, or capacity path anywhere in the file.
    UnboundedGrowth,
    /// An undocumented panic site (`panic!`-family macro or bare
    /// `.unwrap()`) transitively reachable from a serve request-handling
    /// entrypoint.
    PanicReachability,
    /// An ambient time/RNG/env/filesystem/default-hasher source
    /// transitively reachable from the cache-keyed simulate path.
    TransitivePurity,
    /// A request-derived integer flowing into `with_capacity`/`reserve`/
    /// `vec![_; n]` without a bounds check, across call edges.
    UntrustedSizeTaint,
    /// A call made while a lock guard is live that blocks (`recv`,
    /// `join`, `sleep`, …) directly or through its callees.
    LockHeldAcrossCall,
    /// A malformed suppression directive (unknown lint, missing reason).
    BadSuppression,
    /// A suppression directive that matched no finding.
    UnusedSuppression,
}

/// Every catalog entry, in reporting order.
pub const ALL_LINTS: [LintId; 9] = [
    LintId::RelaxedOrdering,
    LintId::LockOrder,
    LintId::UnboundedGrowth,
    LintId::PanicReachability,
    LintId::TransitivePurity,
    LintId::UntrustedSizeTaint,
    LintId::LockHeldAcrossCall,
    LintId::BadSuppression,
    LintId::UnusedSuppression,
];

impl LintId {
    /// The kebab-case name used in reports and suppression directives.
    pub fn name(self) -> &'static str {
        match self {
            LintId::RelaxedOrdering => "relaxed-ordering",
            LintId::LockOrder => "lock-order",
            LintId::UnboundedGrowth => "unbounded-growth",
            LintId::PanicReachability => "panic-reachability",
            LintId::TransitivePurity => "transitive-purity",
            LintId::UntrustedSizeTaint => "untrusted-size-taint",
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
            LintId::LockOrder => {
                "nested lock acquisitions must form a cycle-free order per crate — a cycle \
                 (A held while taking B, B held while taking A) is a potential deadlock"
            }
            LintId::UnboundedGrowth => {
                "long-lived collection state in serve/experiments must have an eviction, \
                 pruning, or capacity path — push/insert with no shrink leaks under load"
            }
            LintId::PanicReachability => {
                "no undocumented panic site — panic!-family macro or bare .unwrap() — \
                 transitively reachable from a serve request-handling entrypoint; \
                 .expect(\"invariant\") documents a checked contract and is accepted"
            }
            LintId::TransitivePurity => {
                "no ambient time/RNG/env/filesystem/default-hasher source transitively \
                 reachable from the cache-keyed simulate path — the result cache memoizes \
                 on (organization, workload, scale, seed) alone"
            }
            LintId::UntrustedSizeTaint => {
                "request-derived integers must be bounds-checked before flowing into \
                 with_capacity/reserve/vec![_; n] — an attacker-chosen length is an \
                 allocation-size DoS, across call edges too"
            }
            LintId::LockHeldAcrossCall => {
                "no blocking call (recv/join/sleep/accept/connect/read) while a lock guard \
                 is live, directly or through any callee — drop the guard first, or the \
                 lock convoys every thread"
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
