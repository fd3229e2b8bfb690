//! Minimal hand-rolled JSON encoding of diagnostics (the toolchain has
//! no serialization dependency). The format is a flat array of objects:
//!
//! ```json
//! [{"severity":"warning","code":"HA002","line":4,"col":13,"message":"…"}]
//! ```
//!
//! Only the encoder exists: diagnostics are written, never read back.

use hotg_lang::Diagnostic;

fn escape(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
}

/// Serializes diagnostics as a JSON array (stable field order).
pub fn to_json(diags: &[Diagnostic]) -> String {
    let mut out = String::from("[");
    for (i, d) in diags.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"severity\":\"{}\",\"code\":\"{}\",\"line\":{},\"col\":{},\"message\":\"",
            d.severity.label(),
            d.code,
            d.span.line,
            d.span.col
        ));
        escape(&d.message, &mut out);
        out.push_str("\"}");
    }
    out.push(']');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use hotg_lang::{DiagCode, Severity, Span};

    fn sample() -> Vec<Diagnostic> {
        vec![
            Diagnostic::new(
                Severity::Warning,
                DiagCode("HA002"),
                Span::new(4, 13),
                "condition is always false",
            ),
            Diagnostic::new(
                Severity::Info,
                DiagCode("HA005"),
                Span::UNKNOWN,
                "quotes \" backslash \\ newline \n tab \t unicode é",
            ),
            Diagnostic::new(Severity::Error, DiagCode("HC004"), Span::new(1, 1), ""),
        ]
    }

    /// Pins the exact encoding: escapes (quote, backslash, newline,
    /// tab), non-ASCII passed through, an unknown span, and an empty
    /// message.
    #[test]
    fn encoding_is_pinned() {
        assert_eq!(
            to_json(&sample()),
            concat!(
                r#"[{"severity":"warning","code":"HA002","line":4,"col":13,"#,
                r#""message":"condition is always false"},"#,
                r#"{"severity":"info","code":"HA005","line":0,"col":0,"#,
                r#""message":"quotes \" backslash \\ newline \n tab \t unicode é"},"#,
                r#"{"severity":"error","code":"HC004","line":1,"col":1,"message":""}]"#,
            )
        );
        assert_eq!(to_json(&[]), "[]");
    }
}
