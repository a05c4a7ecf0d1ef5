//! Machine-checkable invariants and the violation log.
//!
//! A [`Checker`] accumulates every check a scenario performs; a failed
//! check becomes a [`Violation`] carrying enough detail to debug it
//! after a one-line replay. Checks are cheap booleans — the detail
//! string is only rendered on failure.

use tts_units::json::{Json, ToJson};

/// One failed invariant.
#[derive(Debug, Clone, PartialEq)]
pub struct Violation {
    /// Stable invariant name (e.g. `jobs.conservation`).
    pub invariant: String,
    /// Human-readable evidence.
    pub detail: String,
}

tts_units::derive_json! { struct Violation { invariant, detail } }

/// Accumulates invariant checks for one scenario.
#[derive(Debug, Clone, Default)]
pub struct Checker {
    checks: u64,
    violations: Vec<Violation>,
}

impl Checker {
    /// A fresh checker.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one check; on failure, renders `detail` into a
    /// [`Violation`].
    pub fn check(&mut self, invariant: &str, ok: bool, detail: impl FnOnce() -> String) {
        self.checks += 1;
        if !ok {
            self.violations.push(Violation {
                invariant: invariant.to_string(),
                detail: detail(),
            });
        }
    }

    /// Like [`Self::check`] but bounded: a scenario stepping thousands
    /// of times would otherwise flood the report with one violation per
    /// step. Only the first `cap` violations of any name are kept (the
    /// check count still advances).
    pub fn check_capped(
        &mut self,
        invariant: &str,
        ok: bool,
        cap: usize,
        detail: impl FnOnce() -> String,
    ) {
        self.checks += 1;
        if !ok
            && self
                .violations
                .iter()
                .filter(|v| v.invariant == invariant)
                .count()
                < cap
        {
            self.violations.push(Violation {
                invariant: invariant.to_string(),
                detail: detail(),
            });
        }
    }

    /// Total checks performed.
    pub fn checks(&self) -> u64 {
        self.checks
    }

    /// The violations recorded so far.
    pub fn violations(&self) -> &[Violation] {
        &self.violations
    }

    /// Did every check pass?
    pub fn all_green(&self) -> bool {
        self.violations.is_empty()
    }

    /// Consumes the checker into `(checks, violations)`.
    pub fn into_parts(self) -> (u64, Vec<Violation>) {
        (self.checks, self.violations)
    }
}

impl ToJson for Checker {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("checks".to_string(), Json::Num(self.checks as f64)),
            ("violations".to_string(), self.violations.to_json()),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn passing_checks_leave_no_violations() {
        let mut c = Checker::new();
        c.check("a", true, || unreachable!("detail not rendered on pass"));
        c.check("b", true, String::new);
        assert!(c.all_green());
        assert_eq!(c.checks(), 2);
    }

    #[test]
    fn failures_carry_detail_and_cap_applies() {
        let mut c = Checker::new();
        for i in 0..10 {
            c.check_capped("soc.bounds", false, 3, || format!("step {i}"));
        }
        assert_eq!(c.checks(), 10);
        assert_eq!(c.violations().len(), 3);
        assert_eq!(c.violations()[0].detail, "step 0");
        assert!(!c.all_green());
    }
}
