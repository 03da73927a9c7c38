//! Fixture crate: the allow machinery, exercised on `unjoined-spawn`.
#![forbid(unsafe_code)]

fn work() {}

/// One open finding.
pub fn leak() {
    std::thread::spawn(work);
}

/// An allow covers exactly one line: the first spawn is suppressed, the
/// structurally identical one below it stays open.
pub fn suppressed_and_open() {
    // ada-lint: allow(unjoined-spawn) fixture: the first worker exits with the process
    std::thread::spawn(work);
    std::thread::spawn(work);
}

// ada-lint: allow(unjoined-spawn) stale: nothing on the next line spawns
pub fn quiet() {}

// ada-lint: allow(definitely-not-a-rule) bogus rule id
pub fn fine() {}

#[cfg(test)]
mod tests {
    #[test]
    fn anything_goes_in_tests() {
        std::thread::spawn(|| ());
    }
}
