//! Diagnostic codes, severities, and the report of findings.
//!
//! Every trace-audit rule ([`crate::audit`]) reports through a single
//! stable catalog of `SBxxx` codes. Codes are append-only: `SB1xx` is
//! the trace-audit range (the retired static spec rules held `SB0xx`),
//! and a code is never reused for a different meaning once shipped, so
//! scripts can grep `skewlint audit` output for them across versions.

use core::fmt;

/// How bad a diagnostic is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Suspicious but not a soundness violation (e.g. message
    /// reordering that the delay model legitimately admits).
    Warning,
    /// A protocol-soundness violation: the paper's bounds or the
    /// simulator's invariants do not hold if this fires.
    Error,
}

impl Severity {
    /// The lowercase label used in diagnostics and CLI output.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Catalog entry for one rule: its stable code, short name, worst
/// severity it can emit, and a one-line summary of what it checks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RuleMeta {
    /// Stable diagnostic code (`SB101`, …).
    pub code: &'static str,
    /// Kebab-case rule name.
    pub name: &'static str,
    /// The worst severity this rule emits.
    pub severity: Severity,
    /// One-line description of the property checked.
    pub summary: &'static str,
}

/// The full rule catalog of the trace auditor. This is the
/// single source of truth for codes: [`Diagnostic::new`] refuses codes
/// that are not listed here.
#[must_use]
pub fn catalog() -> &'static [RuleMeta] {
    const CATALOG: [RuleMeta; 5] = [
        RuleMeta {
            code: "SB101",
            name: "delivery-window",
            severity: Severity::Error,
            summary: "every message delivery lands inside the declared \
                      [d\u{2212}u, d] window after its send",
        },
        RuleMeta {
            code: "SB102",
            name: "send-deliver-matching",
            severity: Severity::Error,
            summary: "sends and deliveries match one-to-one and respect \
                      happens-before (no delivery without, before, or twice \
                      per send)",
        },
        RuleMeta {
            code: "SB103",
            name: "channel-fifo",
            severity: Severity::Warning,
            summary: "per ordered (sender, receiver) channel, delivery order \
                      matches send order",
        },
        RuleMeta {
            code: "SB104",
            name: "timer-discipline",
            severity: Severity::Error,
            summary: "every timer set is eventually fired, and every fire \
                      refers to an armed timer",
        },
        RuleMeta {
            code: "SB105",
            name: "payload-leak",
            severity: Severity::Error,
            summary: "no agenda item or queued invocation is left at quiescence",
        },
    ];
    &CATALOG
}

/// Looks up a catalog entry by code.
#[must_use]
pub fn rule_meta(code: &str) -> Option<&'static RuleMeta> {
    catalog().iter().find(|m| m.code == code)
}

/// One finding: a catalog code plus what was analyzed and why it fired.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Stable code from the catalog.
    pub code: &'static str,
    /// Severity of this finding: the catalog severity of its code.
    pub severity: Severity,
    /// The rule's kebab-case name, denormalized for report readers.
    pub rule: &'static str,
    /// What was analyzed: a trace label.
    pub target: String,
    /// Human-readable description of the violation.
    pub message: String,
}

impl Diagnostic {
    /// Creates a diagnostic at the rule's catalog severity.
    ///
    /// # Panics
    ///
    /// Panics if `code` is not in the [`catalog`] — rules may only emit
    /// codes that report consumers can look up.
    #[must_use]
    pub fn new(code: &str, target: impl Into<String>, message: impl Into<String>) -> Self {
        let meta = rule_meta(code).unwrap_or_else(|| panic!("unknown diagnostic code {code:?}"));
        Diagnostic {
            code: meta.code,
            severity: meta.severity,
            rule: meta.name,
            target: target.into(),
            message: message.into(),
        }
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {} [{}] {}: {}",
            self.code, self.severity, self.rule, self.target, self.message
        )
    }
}

/// The findings of a run of rules or of a trace audit.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Report {
    /// Findings, in the order the checks emitted them.
    pub diagnostics: Vec<Diagnostic>,
}

impl Report {
    /// Number of error-severity findings.
    #[must_use]
    pub fn errors(&self) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Error)
            .count()
    }

    /// Number of warning-severity findings.
    #[must_use]
    pub fn warnings(&self) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Warning)
            .count()
    }

    /// True iff there are no findings at all. Honest traces
    /// must be clean in this strict sense — warnings included.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// True iff some finding carries `code`.
    #[must_use]
    pub fn has_code(&self, code: &str) -> bool {
        self.diagnostics.iter().any(|d| d.code == code)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_codes_are_unique_and_well_formed() {
        let catalog = catalog();
        assert_eq!(catalog.len(), 5, "the auditor ships SB101-SB105");
        for (i, m) in catalog.iter().enumerate() {
            assert!(m.code.starts_with("SB") && m.code.len() == 5, "{}", m.code);
            for other in &catalog[i + 1..] {
                assert_ne!(m.code, other.code, "duplicate code");
                assert_ne!(m.name, other.name, "duplicate name");
            }
        }
    }

    #[test]
    fn diagnostics_inherit_catalog_severity() {
        let d = Diagnostic::new("SB103", "trace", "inverted");
        assert_eq!(d.severity, Severity::Warning);
        assert_eq!(d.rule, "channel-fifo");
        let d = Diagnostic::new("SB101", "trace", "late");
        assert_eq!(d.severity, Severity::Error);
        assert!(format!("{d}").contains("SB101 error [delivery-window]"));
    }

    #[test]
    #[should_panic(expected = "unknown diagnostic code")]
    fn unknown_codes_are_rejected() {
        let _ = Diagnostic::new("SB999", "x", "y");
    }

    #[test]
    fn report_counts_errors_and_warnings() {
        let report = Report {
            diagnostics: vec![
                Diagnostic::new("SB101", "foil", "late delivery"),
                Diagnostic::new("SB103", "foil", "inverted channel"),
            ],
        };
        assert_eq!(report.errors(), 1);
        assert_eq!(report.warnings(), 1);
        assert!(!report.is_clean());
        assert!(report.has_code("SB101") && !report.has_code("SB104"));
        assert!(Report::default().is_clean());
    }
}
