//! Diagnostics: what a rule reports, and the text / JSON renderings.

use serde::Serialize;
use std::path::Path;

/// One finding, anchored to a file and line.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct Diagnostic {
    /// Rule identifier (kebab-case, matches the allowlist syntax).
    pub rule: String,
    /// Repo-relative path of the offending file.
    pub file: String,
    /// 1-based line number.
    pub line: u32,
    /// Human-readable description of the violation.
    pub message: String,
}

impl Diagnostic {
    /// Build a diagnostic, rendering the path with forward slashes.
    pub fn new(rule: &str, file: &Path, line: u32, message: impl Into<String>) -> Diagnostic {
        Diagnostic {
            rule: rule.to_string(),
            file: file.display().to_string().replace('\\', "/"),
            line,
            message: message.into(),
        }
    }

    /// `file:line: [rule] message` — the text-format line.
    pub fn render(&self) -> String {
        format!(
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// Machine-readable report wrapper for `--format json`.
#[derive(Debug, Serialize)]
pub struct Report {
    /// Rules that ran.
    pub rules: Vec<String>,
    /// Files scanned.
    pub files_scanned: usize,
    /// All findings, file-then-line ordered.
    pub diagnostics: Vec<Diagnostic>,
    /// `true` when `diagnostics` is empty.
    pub clean: bool,
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    #[test]
    fn render_is_file_line_rule_message() {
        let d = Diagnostic::new("determinism", &PathBuf::from("a/b.rs"), 7, "HashMap used");
        assert_eq!(d.render(), "a/b.rs:7: [determinism] HashMap used");
    }

    #[test]
    fn report_serializes_to_json() {
        let report = Report {
            rules: vec!["determinism".into()],
            files_scanned: 3,
            diagnostics: vec![Diagnostic::new(
                "determinism",
                &PathBuf::from("x.rs"),
                1,
                "m",
            )],
            clean: false,
        };
        let json = serde_json::to_string(&report).unwrap();
        assert!(json.contains("\"files_scanned\""), "{json}");
        assert!(json.contains("\"determinism\""), "{json}");
        assert!(json.contains("\"clean\""), "{json}");
        // The exact text, compact and pretty: reports are diffed across runs.
        assert_eq!(
            json,
            r#"{"rules":["determinism"],"files_scanned":3,"diagnostics":[{"rule":"determinism","file":"x.rs","line":1,"message":"m"}],"clean":false}"#
        );
        assert_eq!(
            serde_json::to_string_pretty(&report).unwrap(),
            "{\n  \"rules\": [\n    \"determinism\"\n  ],\n  \"files_scanned\": 3,\n  \"diagnostics\": [\n    {\n      \"rule\": \"determinism\",\n      \"file\": \"x.rs\",\n      \"line\": 1,\n      \"message\": \"m\"\n    }\n  ],\n  \"clean\": false\n}"
        );
    }
}
