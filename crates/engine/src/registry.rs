//! `BEVRA_KERNEL` resolution: which [`PiEval`] backend the engines in this
//! process use.
//!
//! The backends form a closed set ([`PiEval::ALL`]), so resolution is a
//! pure table lookup:
//!
//! | request | backend |
//! |---|---|
//! | unset | `batch` ([`PiEval::Exact`], bitwise, the default) |
//! | `batch` | `batch` |
//! | `deterministic-portable`, alias `portable` | [`PiEval::Portable`] |
//! | anything else | `batch`, with a warning |
//!
//! An unknown name never aborts and never changes numeric results: it
//! falls back to the bitwise default, warns once on stderr, and bumps the
//! `kernel/unknown_env` counter. This also covers the retired `scalar`
//! backend, which produced the same bits as `batch`, and the retired
//! tolerance-class `fast` backend, whose requests now get the exact
//! answer.

use bevra_core::PiEval;
use std::sync::Once;

/// The outcome of resolving a `BEVRA_KERNEL` request (see [`resolve`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Selection {
    /// The backend the engine will use.
    pub kernel: PiEval,
    /// Human-readable warning when the request named an unknown backend
    /// and the default was substituted; `None` on a clean match.
    pub warning: Option<&'static str>,
}

/// Pure resolution of a `BEVRA_KERNEL` request — the testable core of
/// [`from_env`] (see the module docs for the table).
#[must_use]
pub fn resolve(request: Option<&str>) -> Selection {
    let kernel = match request {
        None | Some("batch") => PiEval::Exact,
        Some("deterministic-portable" | "portable") => PiEval::Portable,
        Some(_) => {
            return Selection {
                kernel: PiEval::Exact,
                warning: Some(
                    "unknown BEVRA_KERNEL backend; falling back to the default batch kernel",
                ),
            }
        }
    };
    Selection { kernel, warning: None }
}

/// Resolve `BEVRA_KERNEL` from the environment. Unknown names bump the
/// `kernel/unknown_env` counter and warn on stderr (once per process)
/// before falling back to `batch`.
#[must_use]
pub fn from_env() -> PiEval {
    static WARN: Once = Once::new();
    let request = std::env::var("BEVRA_KERNEL").ok();
    let selection = resolve(request.as_deref());
    if let Some(warning) = selection.warning {
        bevra_obs::metrics::counter("kernel/unknown_env").inc();
        WARN.call_once(|| {
            eprintln!("bevra: BEVRA_KERNEL={}: {warning}", request.as_deref().unwrap_or(""));
        });
    }
    selection.kernel
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resolve_table() {
        for (req, want) in [
            (None, "batch"),
            (Some("batch"), "batch"),
            (Some("deterministic-portable"), "deterministic-portable"),
            (Some("portable"), "deterministic-portable"),
        ] {
            let sel = resolve(req);
            assert_eq!(sel.kernel.capability().name, want, "request {req:?}");
            assert!(sel.warning.is_none(), "request {req:?} warned spuriously");
        }
        for req in ["scalar", "fast", "no-such-backend", "", "BATCH"] {
            let sel = resolve(Some(req));
            assert_eq!(sel.kernel, PiEval::Exact, "request {req:?}");
            assert!(sel.warning.is_some(), "request {req:?} must warn");
        }
    }
}
