//! Seeded thread-interleaving stress harness — `forall!`'s concurrency
//! sibling.
//!
//! # Model
//!
//! A stress test runs a number of **schedules**. Each schedule:
//!
//! 1. derives a schedule seed from the run seed (exactly like
//!    [`crate::prop::Config::case_seed`] derives property-case seeds);
//! 2. calls `setup(seed)` to build the shared state under test;
//! 3. spawns `threads` OS threads over that state, each with its own
//!    deterministically seeded [`StressCtx`]; thread bodies call
//!    [`StressCtx::interleave`] between protocol steps to inject
//!    randomized yield points (the in-tree PRNG decides, per thread,
//!    whether to yield the scheduler, spin, or fall straight through),
//!    perturbing the OS schedule differently under every seed;
//! 4. joins the threads (panics are caught and reported, not lost) and
//!    runs `check(&state)` over the quiesced state.
//!
//! Any body panic or check failure aborts the run with the **schedule
//! seed** in the panic message, exactly like `forall!`:
//!
//! ```text
//! [stress crates/telemetry/src/flight.rs:544] schedule 7 failed (4 threads)
//! error: assertion `...` failed
//! reproduce with: SMB_STRESS_SEED=0x3c5f9a… cargo test
//! ```
//!
//! Re-running with `SMB_STRESS_SEED=<that seed>` pins the harness to
//! exactly that schedule. True thread interleavings are the OS
//! scheduler's to choose — what the seed pins is every input the
//! harness controls (data, yield decisions, thread count), which in
//! practice re-provokes schedule-dependent failures within a few runs.
//! `SMB_STRESS_SCHEDULES=<n>` overrides the schedule count for longer
//! soaks.
//!
//! # Writing stress tests
//!
//! ```
//! use smb_devtools::{prop_assert, stress};
//! use std::sync::atomic::{AtomicU64, Ordering};
//!
//! stress!(schedules = 8, threads = 4,
//!     setup = |_seed| AtomicU64::new(0),
//!     body = |tid, ctx, counter: &AtomicU64| {
//!         for _ in 0..100 {
//!             counter.fetch_add(1, Ordering::Relaxed);
//!             ctx.interleave();
//!         }
//!         let _ = tid;
//!     },
//!     check = |counter| {
//!         prop_assert!(counter.load(Ordering::Relaxed) == 400);
//!         Ok(())
//!     });
//! ```

use std::panic::{catch_unwind, AssertUnwindSafe};

use smb_hash::splitmix::splitmix64_mix;

use crate::prop::{PropError, PropResult};
use crate::rng::{Rng, Xoshiro256pp};

/// Stress-runner configuration.
#[derive(Debug, Clone, Copy)]
pub struct StressConfig {
    /// Number of seeded schedules to run.
    pub schedules: u32,
    /// Threads spawned over the shared state per schedule.
    pub threads: usize,
    /// Run seed; schedule `i` derives its seed from this.
    pub seed: u64,
    /// When true (set via `SMB_STRESS_SEED`), run exactly one schedule
    /// whose seed is `seed` itself — the reproduction mode.
    pub fixed_seed: bool,
    /// Probability that one [`StressCtx::interleave`] call perturbs
    /// the schedule at all (yield or spin) rather than falling
    /// through.
    pub yield_prob: f64,
}

impl StressConfig {
    /// Default config for `schedules` × `threads`, honouring the
    /// `SMB_STRESS_SEED` / `SMB_STRESS_SCHEDULES` environment
    /// overrides.
    pub fn from_env(schedules: u32, threads: usize) -> Self {
        let mut cfg = StressConfig {
            schedules,
            threads,
            // Fixed default run seed: deterministic CI by default,
            // varied via SMB_STRESS_SEED (verify.sh also runs a
            // clock-derived seed, printing it).
            seed: 0x57E5_5_5EED_u64,
            fixed_seed: false,
            yield_prob: 0.1,
        };
        if let Ok(s) = std::env::var("SMB_STRESS_SCHEDULES") {
            if let Ok(n) = s.trim().parse::<u32>() {
                cfg.schedules = n.max(1);
            }
        }
        if let Ok(s) = std::env::var("SMB_STRESS_SEED") {
            let t = s.trim();
            let parsed = if let Some(hex) = t.strip_prefix("0x") {
                u64::from_str_radix(hex, 16).ok()
            } else {
                t.parse::<u64>().ok()
            };
            if let Some(seed) = parsed {
                cfg.seed = seed;
                cfg.fixed_seed = true;
                cfg.schedules = 1;
            }
        }
        cfg
    }

    /// The seed driving schedule `i` of this run.
    pub fn schedule_seed(&self, i: u32) -> u64 {
        if self.fixed_seed {
            self.seed
        } else {
            splitmix64_mix(self.seed ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
        }
    }
}

/// Per-thread context handed to stress bodies: a deterministically
/// seeded PRNG plus the yield-point injector.
#[derive(Debug)]
pub struct StressCtx {
    rng: Xoshiro256pp,
    yield_prob: f64,
    yields: u64,
}

impl StressCtx {
    fn new(schedule_seed: u64, tid: usize, yield_prob: f64) -> Self {
        StressCtx {
            // Decorrelate thread streams from the schedule seed and
            // each other the same way prop cases decorrelate.
            rng: Xoshiro256pp::seed_from_u64(splitmix64_mix(
                schedule_seed ^ (tid as u64 + 1).wrapping_mul(0xA076_1D64_78BD_642F),
            )),
            yield_prob,
            yields: 0,
        }
    }

    /// A randomized yield point: with the configured probability,
    /// perturb the OS schedule — usually `yield_now`, occasionally a
    /// short spin so the perturbation isn't always a context switch.
    /// Call between protocol steps in stress bodies; under different
    /// seeds the calls fire at different points, steering threads into
    /// different interleavings.
    #[inline]
    pub fn interleave(&mut self) {
        if self.rng.gen_bool(self.yield_prob) {
            self.yields += 1;
            if self.rng.gen_bool(0.25) {
                for _ in 0..(self.rng.gen_below_u64(64) + 1) {
                    std::hint::spin_loop();
                }
            } else {
                std::thread::yield_now();
            }
        }
    }

    /// The thread's own deterministic PRNG — use it for data choices
    /// inside bodies so the whole schedule stays seed-reproducible.
    pub fn rng(&mut self) -> &mut Xoshiro256pp {
        &mut self.rng
    }

    /// How many times [`StressCtx::interleave`] actually perturbed the
    /// schedule.
    pub fn yields(&self) -> u64 {
        self.yields
    }
}

/// Run a seeded multi-threaded stress test; panic with the reproducing
/// schedule seed on any body panic or check failure. `name` labels
/// failures (the [`stress!`](crate::stress!) macro passes
/// `file:line`).
///
/// Per schedule: `setup(seed)` builds the shared state, `threads`
/// spawned threads run `body(tid, &mut ctx, &state)` concurrently, and
/// after all join, `check(&state)` validates the quiesced state.
pub fn stress<S: Sync>(
    name: &str,
    cfg: StressConfig,
    setup: impl Fn(u64) -> S,
    body: impl Fn(usize, &mut StressCtx, &S) + Sync,
    check: impl Fn(&S) -> PropResult,
) {
    assert!(cfg.threads >= 1, "stress needs at least one thread");
    for schedule in 0..cfg.schedules {
        let seed = cfg.schedule_seed(schedule);
        let state = setup(seed);
        let mut panics: Vec<(usize, String)> = Vec::new();
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..cfg.threads)
                .map(|tid| {
                    let (body, state) = (&body, &state);
                    scope.spawn(move || {
                        let mut ctx = StressCtx::new(seed, tid, cfg.yield_prob);
                        catch_unwind(AssertUnwindSafe(|| body(tid, &mut ctx, state)))
                            .map_err(|payload| panic_message(&*payload))
                    })
                })
                .collect();
            for (tid, handle) in handles.into_iter().enumerate() {
                match handle.join() {
                    Ok(Ok(())) => {}
                    Ok(Err(msg)) => panics.push((tid, msg)),
                    Err(_) => panics.push((tid, "thread died outside catch_unwind".into())),
                }
            }
        });
        let failure = if let Some((tid, msg)) = panics.first() {
            Some(format!("thread {tid} panicked: {msg}"))
        } else {
            match check(&state) {
                Ok(()) => None,
                Err(PropError::Fail(msg)) => Some(msg),
                Err(PropError::Discard) => {
                    Some("check returned Discard — stress checks cannot discard".into())
                }
            }
        };
        if let Some(msg) = failure {
            panic!(
                "[stress {name}] schedule {} failed ({} threads)\n\
                 error: {}\n\
                 reproduce with: SMB_STRESS_SEED={:#x} cargo test",
                schedule + 1,
                cfg.threads,
                msg,
                seed,
            );
        }
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<String>()
        .map(String::as_str)
        .or_else(|| payload.downcast_ref::<&'static str>().copied())
        .unwrap_or("stress body panicked")
        .to_string()
}

/// Seeded thread-interleaving stress test over shared state:
///
/// ```ignore
/// stress!(schedules = 16, threads = 8,
///     setup = |seed| build_shared_state(seed),
///     body = |tid, ctx, state| { /* record; ctx.interleave(); … */ },
///     check = |state| { prop_assert!(invariant(state)); Ok(()) });
/// ```
///
/// `setup` receives the schedule seed; `body` runs on every thread
/// with a per-thread [`StressCtx`]; `check` runs once
/// after all threads joined and must return a
/// [`PropResult`](crate::prop::PropResult) (use
/// [`prop_assert!`](crate::prop_assert) inside). Failures panic with
/// the reproducing `SMB_STRESS_SEED`.
#[macro_export]
macro_rules! stress {
    (schedules = $schedules:expr, threads = $threads:expr,
     setup = $setup:expr, body = $body:expr, check = $check:expr $(,)?) => {
        $crate::stress::stress(
            concat!(file!(), ":", line!()),
            $crate::stress::StressConfig::from_env($schedules, $threads),
            $setup,
            $body,
            $check,
        )
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn passing_stress_runs_all_schedules_and_threads() {
        let schedules_run = AtomicU64::new(0);
        stress(
            "unit",
            StressConfig {
                schedules: 5,
                threads: 4,
                seed: 0xD0,
                fixed_seed: false,
                yield_prob: 0.5,
            },
            |_seed| AtomicU64::new(0),
            |_tid, ctx, counter: &AtomicU64| {
                for _ in 0..50 {
                    counter.fetch_add(1, Ordering::Relaxed);
                    ctx.interleave();
                }
            },
            |counter| {
                schedules_run.fetch_add(1, Ordering::Relaxed);
                if counter.load(Ordering::Relaxed) == 200 {
                    Ok(())
                } else {
                    Err(PropError::fail("lost increments"))
                }
            },
        );
        assert_eq!(schedules_run.load(Ordering::Relaxed), 5);
    }

    #[test]
    fn failing_check_reports_schedule_seed() {
        let cfg = StressConfig {
            schedules: 4,
            threads: 2,
            seed: 0xBAD,
            fixed_seed: false,
            yield_prob: 0.0,
        };
        let payload = std::panic::catch_unwind(AssertUnwindSafe(|| {
            stress(
                "seeded",
                cfg,
                |seed| seed,
                |_tid, _ctx, _seed| {},
                |_seed| Err(PropError::fail("always fails")),
            );
        }))
        .expect_err("check failure must panic");
        let msg = payload
            .downcast_ref::<String>()
            .expect("panic carries a String")
            .clone();
        assert!(msg.contains("SMB_STRESS_SEED="), "message: {msg}");
        assert!(msg.contains("always fails"), "message: {msg}");
        // The advertised seed is schedule 0's seed, so a fixed-seed
        // re-run replays exactly that schedule.
        let advertised = msg
            .split("SMB_STRESS_SEED=")
            .nth(1)
            .and_then(|rest| rest.split_whitespace().next())
            .expect("seed in message");
        let seed = u64::from_str_radix(advertised.trim_start_matches("0x"), 16).unwrap();
        assert_eq!(seed, cfg.schedule_seed(0));
        let pinned = StressConfig {
            seed,
            fixed_seed: true,
            schedules: 1,
            ..cfg
        };
        assert_eq!(pinned.schedule_seed(0), seed, "reproduction pins the seed");
    }

    #[test]
    fn body_panics_are_reported_with_thread_id() {
        let payload = std::panic::catch_unwind(AssertUnwindSafe(|| {
            stress(
                "panicky",
                StressConfig {
                    schedules: 1,
                    threads: 3,
                    seed: 1,
                    fixed_seed: false,
                    yield_prob: 0.0,
                },
                |_| (),
                |tid, _ctx, _state| {
                    if tid == 2 {
                        panic!("thread two exploded");
                    }
                },
                |_| Ok(()),
            );
        }))
        .expect_err("body panic must fail the run");
        let msg = payload.downcast_ref::<String>().unwrap().clone();
        assert!(msg.contains("thread 2 panicked"), "message: {msg}");
        assert!(msg.contains("thread two exploded"), "message: {msg}");
        assert!(msg.contains("SMB_STRESS_SEED="), "message: {msg}");
    }

    #[test]
    fn thread_rngs_are_decorrelated_but_deterministic() {
        let mut a0 = StressCtx::new(42, 0, 0.0);
        let mut a0_again = StressCtx::new(42, 0, 0.0);
        let mut a1 = StressCtx::new(42, 1, 0.0);
        let x = a0.rng().next_u64();
        assert_eq!(x, a0_again.rng().next_u64(), "same (seed, tid) replays");
        assert_ne!(x, a1.rng().next_u64(), "different tids draw differently");
    }

    #[test]
    fn interleave_respects_probability_extremes() {
        let mut never = StressCtx::new(7, 0, 0.0);
        for _ in 0..1000 {
            never.interleave();
        }
        assert_eq!(never.yields(), 0);
        let mut always = StressCtx::new(7, 0, 1.0);
        for _ in 0..100 {
            always.interleave();
        }
        assert_eq!(always.yields(), 100);
    }

    #[test]
    fn stress_macro_compiles_and_runs() {
        crate::stress!(schedules = 2, threads = 2,
            setup = |seed| AtomicU64::new(seed),
            body = |_tid, ctx, state: &AtomicU64| {
                state.fetch_add(1, Ordering::Relaxed);
                ctx.interleave();
            },
            check = |state| {
                crate::prop_assert!(state.load(Ordering::Relaxed) > 0);
                Ok(())
            });
    }

    #[test]
    fn schedule_seeds_match_prop_case_derivation() {
        // Same splitmix derivation as forall!'s Config::case_seed, so
        // operators can reason about one seeding story.
        let cfg = StressConfig {
            schedules: 8,
            threads: 1,
            seed: 0xABCD,
            fixed_seed: false,
            yield_prob: 0.0,
        };
        let prop_cfg = crate::prop::Config {
            cases: 8,
            seed: 0xABCD,
            fixed_seed: false,
            max_shrink_steps: 0,
        };
        for i in 0..8 {
            assert_eq!(cfg.schedule_seed(i), prop_cfg.case_seed(i));
        }
    }
}
