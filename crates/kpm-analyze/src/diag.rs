//! Diagnostics: the lint engine's output type and its `file:line`
//! rendering.

/// One finding: a rule violated at a file:line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// The rule that fired (e.g. `no_panic`).
    pub rule: &'static str,
    /// Workspace-relative path of the offending file.
    pub file: String,
    /// 1-based line of the offending token.
    pub line: u32,
    /// What is wrong, in one sentence.
    pub message: String,
    /// How to silence the finding when it is intentional.
    pub hint: String,
}

impl Diagnostic {
    /// The standard suppression hint for `rule`.
    pub fn suppression_hint(rule: &str) -> String {
        format!("suppress with `// kpm::allow({rule}): <justification>` on or above the line")
    }

    /// `file:line: [rule] message` — the human-readable form.
    pub fn render(&self) -> String {
        format!(
            "{}:{}: [{}] {}\n    hint: {}",
            self.file, self.line, self.rule, self.message, self.hint
        )
    }
}
