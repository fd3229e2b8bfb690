//! Structured diagnostics for `mini` programs: source spans, severities,
//! stable codes, and the [`Diagnostic`] record shared by the static
//! checker ([`fn@crate::check`]) and the `hotg-analysis` lint layer.
//!
//! The parser records a [`SpanTable`] on every [`crate::Program`] so that
//! downstream passes — which work on the span-free AST — can still point
//! at source locations: conditional sites are addressed by
//! [`crate::BranchId`], all other statements by their pre-order
//! [`StmtId`] (see [`crate::ast::stmt_ids`]).

use std::fmt;

/// A source position (1-based line and column). `mini` diagnostics use
/// point spans: the position where the offending construct starts.
///
/// [`Span::UNKNOWN`] (line 0) marks constructs without source text, e.g.
/// programs built directly from AST constructors in tests.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Span {
    /// 1-based source line; 0 when unknown.
    pub line: u32,
    /// 1-based source column; 0 when unknown.
    pub col: u32,
}

impl Span {
    /// Placeholder for AST nodes that never had source text.
    pub const UNKNOWN: Span = Span { line: 0, col: 0 };

    /// Creates a span at `line:col`.
    pub fn new(line: u32, col: u32) -> Span {
        Span { line, col }
    }

    /// `true` unless this is [`Span::UNKNOWN`].
    pub fn is_known(self) -> bool {
        self.line != 0
    }
}

impl fmt::Display for Span {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_known() {
            write!(f, "{}:{}", self.line, self.col)
        } else {
            f.write_str("?:?")
        }
    }
}

/// Diagnostic severity.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Severity {
    /// The program is rejected (static checking failures).
    Error,
    /// Suspicious but executable (dead code, constant conditions).
    Warning,
    /// Informational facts (pre-sampleable native sites).
    Info,
}

impl Severity {
    /// Lower-case label, as printed in human and JSON output.
    pub fn label(self) -> &'static str {
        match self {
            Severity::Error => "error",
            Severity::Warning => "warning",
            Severity::Info => "info",
        }
    }

    /// Inverse of [`Severity::label`].
    pub fn from_label(s: &str) -> Option<Severity> {
        match s {
            "error" => Some(Severity::Error),
            "warning" => Some(Severity::Warning),
            "info" => Some(Severity::Info),
            _ => None,
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// A stable diagnostic code. `HC###` codes come from the static checker,
/// `HA###` codes from the `hotg-analysis` passes.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DiagCode(pub &'static str);

impl fmt::Display for DiagCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.0)
    }
}

/// A structured diagnostic: severity, stable code, source span, message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Diagnostic {
    /// Severity class.
    pub severity: Severity,
    /// Stable code (`HC###` checker, `HA###` analysis).
    pub code: DiagCode,
    /// Where in the source, [`Span::UNKNOWN`] for span-free ASTs.
    pub span: Span,
    /// Human-readable explanation.
    pub message: String,
}

impl Diagnostic {
    /// Creates a diagnostic.
    pub fn new(
        severity: Severity,
        code: DiagCode,
        span: Span,
        message: impl Into<String>,
    ) -> Diagnostic {
        Diagnostic {
            severity,
            code,
            span,
            message: message.into(),
        }
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.span.is_known() {
            write!(
                f,
                "{}[{}] at {}: {}",
                self.severity, self.code, self.span, self.message
            )
        } else {
            write!(f, "{}[{}]: {}", self.severity, self.code, self.message)
        }
    }
}

/// Pre-order index of a statement in a program: function bodies first in
/// declaration order, then the program body; within a body, a statement
/// precedes the statements of its nested blocks (`then` before `else`).
///
/// The parser records statement spans in exactly this order (it parses
/// statements in pre-order), so [`SpanTable::stmt_span`] is a plain index
/// lookup.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct StmtId(pub u32);

impl fmt::Display for StmtId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}", self.0)
    }
}

/// Source spans of a parsed program, keyed by [`StmtId`] (pre-order
/// statement index) and [`crate::BranchId`] (conditional sites).
///
/// Programs constructed directly from AST values have an empty table;
/// every lookup then returns [`Span::UNKNOWN`]. The table is deliberately
/// ignored by `PartialEq` (see below): two programs are equal when their
/// *syntax* is equal, regardless of where that syntax was written — the
/// pretty-printer round-trip relies on this.
#[derive(Clone, Debug, Default)]
pub struct SpanTable {
    /// Span of each statement, indexed by pre-order [`StmtId`].
    stmts: Vec<Span>,
    /// Span of each conditional site, indexed by `BranchId`.
    branches: Vec<Span>,
}

impl SpanTable {
    /// Creates an empty table (all lookups yield [`Span::UNKNOWN`]).
    pub fn new() -> SpanTable {
        SpanTable::default()
    }

    /// Records the span of the next statement (parser use; pre-order).
    pub fn push_stmt(&mut self, span: Span) -> StmtId {
        let id = StmtId(self.stmts.len() as u32);
        self.stmts.push(span);
        id
    }

    /// Records the span of conditional site `id` (parser use).
    pub fn set_branch(&mut self, id: crate::ast::BranchId, span: Span) {
        let idx = id.0 as usize;
        if self.branches.len() <= idx {
            self.branches.resize(idx + 1, Span::UNKNOWN);
        }
        self.branches[idx] = span;
    }

    /// Span of statement `id`, [`Span::UNKNOWN`] if unrecorded.
    pub fn stmt_span(&self, id: StmtId) -> Span {
        self.stmts
            .get(id.0 as usize)
            .copied()
            .unwrap_or(Span::UNKNOWN)
    }

    /// Span of conditional site `id`, [`Span::UNKNOWN`] if unrecorded.
    pub fn branch_span(&self, id: crate::ast::BranchId) -> Span {
        self.branches
            .get(id.0 as usize)
            .copied()
            .unwrap_or(Span::UNKNOWN)
    }

    /// Number of recorded statement spans.
    pub fn stmt_count(&self) -> usize {
        self.stmts.len()
    }
}

// Spans are metadata, not syntax: program equality (and hashing, were it
// derived) must not distinguish the same AST parsed from differently
// formatted sources. The pretty-printer's parse → print → parse round
// trip asserts `Program` equality and would otherwise fail on line
// numbers.
impl PartialEq for SpanTable {
    fn eq(&self, _other: &SpanTable) -> bool {
        true
    }
}

impl Eq for SpanTable {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::BranchId;

    #[test]
    fn span_display() {
        assert_eq!(Span::new(3, 7).to_string(), "3:7");
        assert_eq!(Span::UNKNOWN.to_string(), "?:?");
        assert!(Span::new(1, 1).is_known());
        assert!(!Span::UNKNOWN.is_known());
    }

    #[test]
    fn severity_labels_round_trip() {
        for s in [Severity::Error, Severity::Warning, Severity::Info] {
            assert_eq!(Severity::from_label(s.label()), Some(s));
        }
        assert_eq!(Severity::from_label("fatal"), None);
    }

    #[test]
    fn diagnostic_display() {
        let d = Diagnostic::new(
            Severity::Warning,
            DiagCode("HA002"),
            Span::new(4, 13),
            "condition is always false",
        );
        assert_eq!(
            d.to_string(),
            "warning[HA002] at 4:13: condition is always false"
        );
        let u = Diagnostic::new(Severity::Error, DiagCode("HC001"), Span::UNKNOWN, "boom");
        assert_eq!(u.to_string(), "error[HC001]: boom");
    }

    #[test]
    fn span_table_lookup_and_equality() {
        let mut t = SpanTable::new();
        let s0 = t.push_stmt(Span::new(2, 5));
        t.set_branch(BranchId(1), Span::new(3, 9));
        assert_eq!(t.stmt_span(s0), Span::new(2, 5));
        assert_eq!(t.stmt_span(StmtId(99)), Span::UNKNOWN);
        assert_eq!(t.branch_span(BranchId(1)), Span::new(3, 9));
        assert_eq!(t.branch_span(BranchId(0)), Span::UNKNOWN);
        // Metadata equality: tables never distinguish programs.
        assert_eq!(t, SpanTable::new());
    }
}
