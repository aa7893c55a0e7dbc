//! `talft-obs` — dependency-free, zero-cost-when-disabled observability for
//! the talft workspace.
//!
//! The ROADMAP's north star is a system that runs "as fast as the hardware
//! allows"; this crate is how the workspace finds out where time actually
//! goes. It provides three metric primitives ([`Counter`], [`MaxGauge`],
//! [`Histogram`] with RAII [`SpanGuard`] timers), a process-global
//! thread-safe [registry](mod@registry) keyed by dotted metric names, and a
//! dependency-free [`Json`] document model used both for metric snapshots
//! and for the bench bins' `--json` reports.
//!
//! # Overhead policy
//!
//! Instrumentation is **compiled in unconditionally** but gated on one
//! process-global `AtomicBool` ([`set_enabled`]). While disabled — the
//! default — every recording path is a single relaxed load plus a
//! well-predicted branch, spans read no clock, and nothing registers. That
//! disabled cost is not measured or gated on its own; what is measured is
//! the cost of recording, as the benchmark's `bench.trace_overhead` (its
//! traced passes against its untraced ones, DESIGN.md §8). A feature flag
//! was rejected deliberately: metrics compiled out cannot be flipped on in
//! the field, and dual compilation modes would double the test matrix.
//!
//! Instrumented crates declare hot-path handles statically; the registry is
//! consulted once, on first *enabled* use:
//!
//! ```
//! use talft_obs::{LazyCounter, LazyHistogram};
//!
//! static QUERIES: LazyCounter = LazyCounter::new("doc.solver.queries");
//! static CHECK_NS: LazyHistogram = LazyHistogram::new("doc.check.ns");
//!
//! talft_obs::set_enabled(true);
//! {
//!     let _span = CHECK_NS.span(); // records elapsed ns on drop
//!     QUERIES.inc();
//! }
//! let snap = talft_obs::snapshot();
//! assert_eq!(snap.counters["doc.solver.queries"], 1);
//! assert_eq!(snap.histograms["doc.check.ns"].count, 1);
//! # talft_obs::set_enabled(false);
//! ```
//!
//! # Reports
//!
//! [`snapshot`] copies every registered metric into deterministically
//! ordered maps; [`Snapshot::to_json`] serializes them under the stable
//! schema documented in DESIGN.md (§Observability), and [`Json::parse`]
//! validates any such report — the bench bins' `--check` reader runs on
//! exactly that parser, so the toolchain needs no external JSON tooling:
//!
//! ```
//! use talft_obs::Json;
//!
//! talft_obs::set_enabled(true);
//! talft_obs::registry::counter("doc.report.events").add(5);
//! let report = talft_obs::snapshot().to_json().to_string();
//! let parsed = Json::parse(&report).expect("snapshots are valid JSON");
//! assert_eq!(
//!     parsed.get("counters").and_then(|c| c.get("doc.report.events")).and_then(Json::as_u64),
//!     Some(5),
//! );
//! # talft_obs::set_enabled(false);
//! ```

#![warn(missing_docs)]

pub mod json;
pub mod metrics;
pub mod registry;

pub use json::Json;
pub use metrics::{
    Counter, Histogram, LazyCounter, LazyHistogram, LazyMaxGauge, MaxGauge, SpanGuard, HIST_BUCKETS,
};
pub use registry::{reset_all, snapshot, HistSnapshot, Metric, Snapshot};

use std::sync::atomic::{AtomicBool, Ordering};

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Whether instrumentation is currently recording. The single load every
/// disabled metric operation pays.
#[inline]
#[must_use]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turn instrumentation on or off process-wide. Off by default; bins flip
/// it on under `--profile`/`--json`.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Test-only guard serializing tests that toggle the global flag, restoring
/// the previous state on drop.
#[cfg(test)]
pub(crate) fn test_enabled_guard() -> impl Drop {
    use std::sync::{Mutex, MutexGuard, OnceLock};
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    struct Guard {
        prev: bool,
        _lock: MutexGuard<'static, ()>,
    }
    impl Drop for Guard {
        fn drop(&mut self) {
            set_enabled(self.prev);
        }
    }
    let lock = LOCK
        .get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    Guard {
        prev: enabled(),
        _lock: lock,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_by_default_in_fresh_process() {
        // Other tests toggle the flag under the guard lock; this only
        // asserts the *initial* static value semantics via a fresh flag.
        let fresh = AtomicBool::new(false);
        assert!(!fresh.load(Ordering::Relaxed));
    }

    #[test]
    fn enable_disable_roundtrip() {
        let _g = test_enabled_guard();
        set_enabled(true);
        assert!(enabled());
        set_enabled(false);
        assert!(!enabled());
    }
}
