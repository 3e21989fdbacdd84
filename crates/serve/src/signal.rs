//! Minimal, dependency-free signal handling for clean daemon shutdown.
//!
//! `SIGINT`/`SIGTERM` flip one global `AtomicBool` from an async-signal-safe
//! handler (a single relaxed store — nothing else is legal in a handler).
//! The serve loop polls [`triggered`] and starts its drain when it flips.
//! On non-Unix targets installation is a no-op and the flag simply never
//! fires, so callers need no platform branches.

#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

use std::sync::atomic::{AtomicBool, Ordering};

static TRIGGERED: AtomicBool = AtomicBool::new(false);

/// Whether a termination signal has arrived since [`install`].
pub fn triggered() -> bool {
    TRIGGERED.load(Ordering::Relaxed)
}

/// Raises the flag by hand — lets tests and in-process harnesses exercise
/// the signal path without delivering a real signal.
pub fn raise() {
    TRIGGERED.store(true, Ordering::Relaxed);
}

/// Resets the flag (between tests / successive serve runs in one process).
pub fn reset() {
    TRIGGERED.store(false, Ordering::Relaxed);
}

#[cfg(unix)]
mod platform {
    use super::TRIGGERED;
    use std::sync::atomic::Ordering;

    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;

    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }

    extern "C" fn on_signal(_signum: i32) {
        // Only an atomic store: the one thing that is async-signal-safe.
        TRIGGERED.store(true, Ordering::Relaxed);
    }

    /// Installs the flag-setting handler for SIGINT and SIGTERM.
    #[allow(unsafe_code)]
    pub fn install() {
        unsafe {
            signal(SIGINT, on_signal as *const () as usize);
            signal(SIGTERM, on_signal as *const () as usize);
        }
    }
}

#[cfg(not(unix))]
mod platform {
    /// No signals to hook on this platform; the flag stays manual.
    pub fn install() {}
}

pub use platform::install;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manual_raise_and_reset() {
        reset();
        assert!(!triggered());
        raise();
        assert!(triggered());
        reset();
        assert!(!triggered());
    }
}
