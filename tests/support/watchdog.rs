//! A watchdog for tests that can hang: those that build engines whose
//! worker threads exchange messages.

use std::io::{self, Write};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::time::Duration;

/// Runs `body` on this thread and returns what it returns. Should it not
/// return within a minute, a watchdog thread names this thread's test
/// on stderr and aborts the process: a hang fails the run under the hung
/// test's name instead of stalling the suite.
pub fn within_a_minute<T>(body: impl FnOnce() -> T) -> T {
    let test = std::thread::current().name().unwrap_or("a test").to_owned();
    // Dropped when `body` returns or unwinds, which frees the watchdog.
    let (_running, wait) = mpsc::channel::<()>();
    std::thread::spawn(move || {
        if wait.recv_timeout(Duration::from_secs(60)) == Err(RecvTimeoutError::Timeout) {
            // Straight to stderr: the test harness captures `eprintln!`
            // on threads a test spawns, and the abort would discard it.
            let _ = writeln!(io::stderr(), "{test}: no result within 60 s; aborting");
            std::process::abort();
        }
    });
    body()
}
