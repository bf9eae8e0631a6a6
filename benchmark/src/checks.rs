//! Collects the correctness checks' failures of one run.

/// The failed checks of a run; the run is correct when there are none.
#[derive(Debug, Default)]
pub struct Checks {
    failures: Vec<String>,
}

impl Checks {
    /// Records `message()` as a failure unless `ok`.
    pub fn expect(&mut self, ok: bool, message: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(message());
        }
    }

    /// The failures recorded so far.
    pub fn failures(&self) -> &[String] {
        &self.failures
    }
}
