//! Worker supervision: restart crashed stages, replace wedged ones.
//!
//! The streaming pipeline's stages run as plain `std` threads, so the two
//! failure modes a long-lived service must survive are a **panic** (the
//! thread dies) and a **wedge** (the thread lives but stops making
//! progress). The supervisor handles both: every worker runs under
//! `catch_unwind`, beats a heartbeat, and as its last act reports its exit
//! on a channel. An exit wakes the supervisor at once to restart a dead
//! worker (bounded by a restart budget) or to end a finished run; `poll`
//! only paces the watchdog and timeout checks. Since a `std` thread cannot
//! be killed, the watchdog *abandons* a wedged worker by cancelling its
//! [`CancellationToken`] and spawning a replacement; the abandoned twin's
//! exit report, whenever it comes, is dropped.
//!
//! Stages must therefore be written re-entrantly: all progress state lives
//! in shared structures (queues, assembler, counters), so a replacement
//! worker resumes where its predecessor stopped, and every wait is timed so
//! a cooperating worker re-checks its token even when no data flows.

use crate::log::{ServiceEvent, ServiceLog};
use emoleak_exec::CancellationToken;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{self, Sender};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Supervision tuning.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SupervisorConfig {
    /// Restarts allowed *per stage* before the service gives up.
    pub max_restarts: u32,
    /// How long a worker may go without beating its heartbeat before it is
    /// declared wedged and replaced.
    pub watchdog: Duration,
    /// Cadence of the watchdog and `run_timeout` checks, and nothing else:
    /// a worker exit wakes the supervisor at once.
    pub poll: Duration,
    /// Global bound on the whole run — the final liveness backstop: if the
    /// pipeline stops converging for any reason, the run ends with
    /// [`SupervisionError::Stalled`] instead of hanging.
    pub run_timeout: Duration,
}

impl Default for SupervisorConfig {
    fn default() -> Self {
        SupervisorConfig {
            max_restarts: 3,
            watchdog: Duration::from_secs(2),
            poll: Duration::from_millis(2),
            run_timeout: Duration::from_secs(120),
        }
    }
}

/// A worker's liveness signal. Cheap to clone; beat it at least once per
/// loop iteration (including idle iterations).
#[derive(Debug, Clone, Default)]
pub struct Heartbeat {
    count: Arc<AtomicU64>,
}

impl Heartbeat {
    /// Signals one unit of progress (or liveness while idle).
    pub fn beat(&self) {
        self.count.fetch_add(1, Ordering::Relaxed);
    }

    /// Monotonic beat counter.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }
}

/// What a running worker gets from the supervisor.
#[derive(Debug, Clone)]
pub struct StageCtx {
    /// Cooperative stop signal: checked by the worker between items. Fired
    /// when the worker is abandoned, or when the whole service shuts down
    /// on a fatal error.
    pub token: CancellationToken,
    /// The worker's liveness signal.
    pub heartbeat: Heartbeat,
}

/// A supervised pipeline stage: a name and a re-entrant work function.
///
/// The function is the *whole stage loop* — it runs until the stage's input
/// is exhausted (clean completion) or its token fires. On restart the same
/// function is invoked again with a fresh context.
#[derive(Clone)]
pub struct Stage {
    name: &'static str,
    work: Arc<dyn Fn(&StageCtx) + Send + Sync>,
}

impl Stage {
    /// A named stage running `work`.
    pub fn new(name: &'static str, work: impl Fn(&StageCtx) + Send + Sync + 'static) -> Self {
        Stage { name, work: Arc::new(work) }
    }

    /// The stage's name.
    pub fn name(&self) -> &'static str {
        self.name
    }
}

impl core::fmt::Debug for Stage {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("Stage").field("name", &self.name).finish()
    }
}

/// Why supervision gave up.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SupervisionError {
    /// One stage exceeded its restart budget.
    TooManyRestarts {
        /// The stage that kept dying.
        stage: &'static str,
        /// Restarts it consumed.
        restarts: u32,
    },
    /// The run exceeded its global timeout without completing.
    Stalled,
}

impl core::fmt::Display for SupervisionError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            SupervisionError::TooManyRestarts { stage, restarts } => {
                write!(f, "stage '{stage}' exceeded its restart budget ({restarts} restarts)")
            }
            SupervisionError::Stalled => write!(f, "run exceeded its global timeout"),
        }
    }
}

impl std::error::Error for SupervisionError {}

/// What supervision absorbed while keeping the pipeline alive.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SupervisionReport {
    /// Worker restarts after panics.
    pub panic_restarts: u32,
    /// Worker replacements after watchdog timeouts.
    pub watchdog_fires: u32,
}

struct Worker {
    stage: Stage,
    token: CancellationToken,
    heartbeat: Heartbeat,
    handle: Option<std::thread::JoinHandle<()>>,
    last_count: u64,
    last_progress: Instant,
    /// The slot's restarts before this worker was spawned. Each spawn of a
    /// slot counts one more, so this is also the worker's spawn id.
    restarts: u32,
    completed: bool,
}

/// A worker thread's last act: its slot, its spawn id, and the text of the
/// panic that ended it, if one did.
struct Exit {
    slot: usize,
    spawn_id: u32,
    panic: Option<String>,
}

fn panic_text(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

fn spawn(stage: &Stage, slot: usize, restarts: u32, exits: &Sender<Exit>) -> Worker {
    let token = CancellationToken::new();
    let heartbeat = Heartbeat::default();
    let ctx = StageCtx { token: token.clone(), heartbeat: heartbeat.clone() };
    let work = Arc::clone(&stage.work);
    let exits = exits.clone();
    let handle = std::thread::spawn(move || {
        let panic = catch_unwind(AssertUnwindSafe(|| work(&ctx))).err().map(panic_text);
        // Fails only when the supervisor has already returned.
        let _ = exits.send(Exit { slot, spawn_id: restarts, panic });
    });
    Worker {
        stage: stage.clone(),
        token,
        heartbeat,
        handle: Some(handle),
        last_count: 0,
        last_progress: Instant::now(),
        restarts,
        completed: false,
    }
}

/// Replaces `w`, whose `restarts` already counts this restart, with a fresh
/// spawn in `slot` — or fails once that is over the stage's budget. A
/// wedged predecessor's handle is dropped, not joined: its thread is
/// abandoned.
fn respawn(
    w: &mut Worker,
    slot: usize,
    config: &SupervisorConfig,
    exits: &Sender<Exit>,
) -> Result<(), SupervisionError> {
    let (stage, restarts) = (w.stage.name, w.restarts);
    if restarts > config.max_restarts {
        return Err(SupervisionError::TooManyRestarts { stage, restarts });
    }
    *w = spawn(&w.stage, slot, restarts, exits);
    Ok(())
}

/// Runs `stages` to completion under supervision.
///
/// Resilience events (panics absorbed, watchdog replacements) are appended
/// to `log`. Returns when every stage's work function has returned cleanly.
///
/// # Errors
///
/// [`SupervisionError::TooManyRestarts`] when a stage dies more than
/// `max_restarts` times, [`SupervisionError::Stalled`] when the global
/// `run_timeout` elapses first. Either way every worker token is cancelled
/// before returning, so cooperating workers wind down; genuinely wedged
/// threads are left behind by design.
pub fn supervise(
    stages: &[Stage],
    config: &SupervisorConfig,
    log: &Arc<Mutex<ServiceLog>>,
) -> Result<SupervisionReport, SupervisionError> {
    let (exits_tx, exits) = mpsc::channel();
    let mut workers: Vec<Worker> =
        stages.iter().enumerate().map(|(slot, stage)| spawn(stage, slot, 0, &exits_tx)).collect();
    let outcome = drive(&mut workers, config, log, &exits_tx, &exits);
    if outcome.is_err() {
        workers.iter().for_each(|w| w.token.cancel());
    }
    outcome
}

/// The loop of [`supervise`]: wakes on each exit report, and at least
/// every `poll` for the watchdog and `run_timeout` checks.
fn drive(
    workers: &mut [Worker],
    config: &SupervisorConfig,
    log: &Arc<Mutex<ServiceLog>>,
    exits_tx: &Sender<Exit>,
    exits: &mpsc::Receiver<Exit>,
) -> Result<SupervisionReport, SupervisionError> {
    let started = Instant::now();
    let mut report = SupervisionReport::default();
    loop {
        if workers.iter().all(|w| w.completed) {
            return Ok(report);
        }
        if started.elapsed() >= config.run_timeout {
            return Err(SupervisionError::Stalled);
        }
        // `exits_tx` outlives the loop, so this never sees a disconnect:
        // it returns with an exit report, or empty once `poll` has passed.
        if let Ok(Exit { slot, spawn_id, panic }) = exits.recv_timeout(config.poll) {
            let w = &mut workers[slot];
            if spawn_id != w.restarts {
                continue; // an abandoned twin: its replacement owns the slot
            }
            if let Some(h) = w.handle.take() {
                let _ = h.join();
            }
            let Some(message) = panic else {
                w.completed = true;
                continue;
            };
            w.restarts += 1;
            report.panic_restarts += 1;
            log.lock().unwrap_or_else(|e| e.into_inner()).push(ServiceEvent::WorkerPanicked {
                stage: w.stage.name,
                restarts: w.restarts,
                message,
            });
            respawn(w, slot, config, exits_tx)?;
        }
        for (slot, w) in workers.iter_mut().enumerate() {
            if w.completed {
                continue;
            }
            // Watchdog: no heartbeat progress for too long → abandon.
            let count = w.heartbeat.count();
            if count != w.last_count {
                w.last_count = count;
                w.last_progress = Instant::now();
            } else if w.last_progress.elapsed() >= config.watchdog {
                w.token.cancel();
                w.restarts += 1;
                report.watchdog_fires += 1;
                log.lock().unwrap_or_else(|e| e.into_inner()).push(ServiceEvent::WatchdogFired {
                    stage: w.stage.name,
                    restarts: w.restarts,
                });
                respawn(w, slot, config, exits_tx)?;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::sync::atomic::{AtomicBool, AtomicU32};

    fn test_config() -> SupervisorConfig {
        SupervisorConfig {
            max_restarts: 3,
            watchdog: Duration::from_millis(60),
            poll: Duration::from_millis(2),
            run_timeout: Duration::from_secs(20),
        }
    }

    /// A poll far longer than the runs it supervises: only exit reports can
    /// end them in time.
    fn slow_poll_config() -> SupervisorConfig {
        SupervisorConfig {
            poll: Duration::from_secs(20),
            watchdog: Duration::from_secs(60),
            ..SupervisorConfig::default()
        }
    }

    fn fresh_log() -> Arc<Mutex<ServiceLog>> {
        Arc::new(Mutex::new(ServiceLog::new()))
    }

    #[test]
    fn clean_exits_end_the_run_without_waiting_out_the_poll() {
        let log = fresh_log();
        let stages: Vec<Stage> =
            (0..3).map(|_| Stage::new("worker", |ctx| ctx.heartbeat.beat())).collect();
        let t0 = Instant::now();
        let report = supervise(&stages, &slow_poll_config(), &log).unwrap();
        assert!(t0.elapsed() < Duration::from_secs(5), "took {:?}", t0.elapsed());
        assert_eq!(report, SupervisionReport::default());
    }

    #[test]
    fn panic_exits_restart_the_stage_without_waiting_out_the_poll() {
        let log = fresh_log();
        let attempts = Arc::new(AtomicU32::new(0));
        let a = Arc::clone(&attempts);
        let stage = Stage::new("flaky", move |ctx| {
            ctx.heartbeat.beat();
            assert!(a.fetch_add(1, Ordering::Relaxed) >= 2, "intentional crash while warming up");
        });
        let t0 = Instant::now();
        let report = supervise(&[stage], &slow_poll_config(), &log).unwrap();
        assert!(t0.elapsed() < Duration::from_secs(5), "took {:?}", t0.elapsed());
        assert_eq!(report.panic_restarts, 2);
        assert_eq!(attempts.load(Ordering::Relaxed), 3);
    }

    thread_local! {
        /// Dropped when its thread exits: after that thread's exit report.
        static ON_THREAD_EXIT: RefCell<Option<mpsc::Sender<()>>> = const { RefCell::new(None) };
    }

    /// Supervises one stage whose first incarnation stops beating and, once
    /// the watchdog cancels it, exits — returning, or panicking if
    /// `twin_panics` — while its replacement is held until the abandoned
    /// twin's thread has exited. Returns the report, the attempts, and
    /// whether the replacement finished before `supervise` returned.
    fn run_with_late_twin(twin_panics: bool) -> (SupervisionReport, u32, bool) {
        let log = fresh_log();
        let attempts = Arc::new(AtomicU32::new(0));
        let finished = Arc::new(AtomicBool::new(false));
        let (twin_alive, twin_exited) = mpsc::channel::<()>();
        let twin_alive = Mutex::new(Some(twin_alive));
        let twin_exited = Mutex::new(twin_exited);
        let (a, f) = (Arc::clone(&attempts), Arc::clone(&finished));
        let stage = Stage::new("twin", move |ctx| {
            ctx.heartbeat.beat();
            if a.fetch_add(1, Ordering::Relaxed) == 0 {
                let alive = twin_alive.lock().unwrap().take();
                ON_THREAD_EXIT.with(|slot| *slot.borrow_mut() = alive);
                while !ctx.token.is_cancelled() {
                    std::thread::sleep(Duration::from_millis(1));
                }
                assert!(!twin_panics, "abandoned twin panics on its way out");
                return;
            }
            // Disconnects once the twin's thread is gone.
            let exited = twin_exited.lock().unwrap();
            while let Err(mpsc::RecvTimeoutError::Timeout) =
                exited.recv_timeout(Duration::from_millis(1))
            {
                ctx.heartbeat.beat();
            }
            f.store(true, Ordering::SeqCst);
        });
        let report = supervise(&[stage], &test_config(), &log).unwrap();
        let log = log.lock().unwrap();
        assert_eq!((log.watchdog_fires(), log.panics()), (1, 0), "{:?}", log.events());
        (report, attempts.load(Ordering::Relaxed), finished.load(Ordering::SeqCst))
    }

    #[test]
    fn an_abandoned_twin_exiting_late_does_not_complete_its_replacement() {
        let (report, attempts, finished) = run_with_late_twin(false);
        assert!(finished, "supervise returned before the replacement finished");
        assert_eq!(report, SupervisionReport { panic_restarts: 0, watchdog_fires: 1 });
        assert_eq!(attempts, 2);
    }

    #[test]
    fn an_abandoned_twin_panicking_late_does_not_restart_its_replacement() {
        let (report, attempts, finished) = run_with_late_twin(true);
        assert!(finished, "supervise returned before the replacement finished");
        assert_eq!(report, SupervisionReport { panic_restarts: 0, watchdog_fires: 1 });
        assert_eq!(attempts, 2, "the twin's panic must not restart its replacement");
    }

    #[test]
    fn clean_stages_complete_without_events() {
        let log = fresh_log();
        let hits = Arc::new(AtomicU32::new(0));
        let stages: Vec<Stage> = (0..3)
            .map(|_| {
                let hits = Arc::clone(&hits);
                Stage::new("worker", move |ctx| {
                    ctx.heartbeat.beat();
                    hits.fetch_add(1, Ordering::Relaxed);
                })
            })
            .collect();
        let report = supervise(&stages, &test_config(), &log).unwrap();
        assert_eq!(report, SupervisionReport::default());
        assert_eq!(hits.load(Ordering::Relaxed), 3);
        assert!(log.lock().unwrap().events().is_empty());
    }

    #[test]
    fn panicked_stage_is_restarted_and_recovers() {
        let log = fresh_log();
        let attempts = Arc::new(AtomicU32::new(0));
        let a = Arc::clone(&attempts);
        let stage = Stage::new("flaky", move |ctx| {
            ctx.heartbeat.beat();
            assert!(
                a.fetch_add(1, Ordering::Relaxed) >= 2,
                "intentional crash while warming up"
            );
        });
        let report = supervise(&[stage], &test_config(), &log).unwrap();
        assert_eq!(report.panic_restarts, 2);
        assert_eq!(attempts.load(Ordering::Relaxed), 3);
        let log = log.lock().unwrap();
        assert_eq!(log.panics(), 2);
        // The panic message is captured into the log.
        assert!(matches!(
            &log.events()[0],
            ServiceEvent::WorkerPanicked { stage: "flaky", restarts: 1, message }
                if message.contains("intentional crash")
        ));
    }

    #[test]
    fn restart_budget_is_enforced() {
        let log = fresh_log();
        let stage = Stage::new("doomed", |ctx| {
            ctx.heartbeat.beat();
            panic!("always");
        });
        let err = supervise(&[stage], &test_config(), &log).unwrap_err();
        assert_eq!(err, SupervisionError::TooManyRestarts { stage: "doomed", restarts: 4 });
        assert_eq!(log.lock().unwrap().panics(), 4);
    }

    #[test]
    fn wedged_stage_is_abandoned_and_replaced() {
        let log = fresh_log();
        let attempts = Arc::new(AtomicU32::new(0));
        let a = Arc::clone(&attempts);
        let stage = Stage::new("wedgy", move |ctx| {
            ctx.heartbeat.beat();
            if a.fetch_add(1, Ordering::Relaxed) == 0 {
                // Wedge: stop beating but keep (cooperatively) sleeping.
                // The watchdog must abandon this worker, not wait for it.
                while !ctx.token.is_cancelled() {
                    std::thread::sleep(Duration::from_millis(5));
                }
            }
        });
        let report = supervise(&[stage], &test_config(), &log).unwrap();
        assert_eq!(report.watchdog_fires, 1);
        assert_eq!(attempts.load(Ordering::Relaxed), 2);
        assert_eq!(log.lock().unwrap().watchdog_fires(), 1);
    }

    #[test]
    fn stalled_run_times_out_with_all_tokens_cancelled() {
        let log = fresh_log();
        let config = SupervisorConfig {
            run_timeout: Duration::from_millis(80),
            ..test_config()
        };
        let seen_cancel = Arc::new(AtomicU32::new(0));
        let s = Arc::clone(&seen_cancel);
        // Beats forever, never completes: only the global timeout stops it.
        let stage = Stage::new("spinner", move |ctx| {
            loop {
                ctx.heartbeat.beat();
                if ctx.token.is_cancelled() {
                    s.fetch_add(1, Ordering::Relaxed);
                    return;
                }
                std::thread::sleep(Duration::from_millis(1));
            }
        });
        let err = supervise(&[stage], &config, &log).unwrap_err();
        assert_eq!(err, SupervisionError::Stalled);
        // The worker observed cancellation (possibly just after supervise
        // returned; give it a beat).
        std::thread::sleep(Duration::from_millis(30));
        assert_eq!(seen_cancel.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn restarted_worker_resumes_shared_state() {
        // The contract stages are written against: progress lives in
        // shared state, so a replacement continues, not restarts.
        let log = fresh_log();
        let progress = Arc::new(AtomicU32::new(0));
        let p = Arc::clone(&progress);
        let stage = Stage::new("resumer", move |ctx| {
            loop {
                ctx.heartbeat.beat();
                let n = p.fetch_add(1, Ordering::Relaxed) + 1;
                assert!(n != 5, "crash mid-stream");
                if n >= 10 {
                    return;
                }
            }
        });
        supervise(&[stage], &test_config(), &log).unwrap();
        assert_eq!(progress.load(Ordering::Relaxed), 10, "no work redone from scratch");
    }
}
