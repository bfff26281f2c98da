//! Atomics facade for model checking: `std::sync::atomic` in normal
//! builds, `loom`'s schedule-exploring atomics under `RUSTFLAGS="--cfg
//! loom"`.
//!
//! Production code is untouched by model checking — the engine keeps using
//! `std`/`crossbeam` directly. What this shim enables is writing the
//! *protocol models* in `tests/loom_models.rs` once, against one set of
//! names, and running them both ways:
//!
//! * `cargo test` — the models compile away (`#![cfg(loom)]`);
//! * `RUSTFLAGS="--cfg loom" cargo test --test loom_models` — the models
//!   run under the `loom` checker (the vendored stand-in explores
//!   randomized schedules; the registry crate explores all of them).
//!
//! See `docs/correctness.md` for what the models cover and why.

#[cfg(loom)]
pub use loom::sync::atomic::{fence, AtomicBool, AtomicU64, AtomicUsize, Ordering};
#[cfg(loom)]
pub use loom::thread;

#[cfg(not(loom))]
pub use std::sync::atomic::{fence, AtomicBool, AtomicU64, AtomicUsize, Ordering};
#[cfg(not(loom))]
pub use std::thread;

/// Run `f` as a checked model: under `--cfg loom` every execution is
/// schedule-explored by the checker; otherwise it simply runs once (so the
/// same model doubles as a plain unit test).
pub fn model<F: Fn() + Send + Sync + 'static>(f: F) {
    #[cfg(loom)]
    loom::model(f);
    #[cfg(not(loom))]
    f();
}
