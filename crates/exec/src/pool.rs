//! A work-stealing thread pool built on `std::thread`, a condvar-guarded job
//! queue and channels.
//!
//! The vendored offline dependency set rules out rayon/crossbeam, so this is
//! the minimal pool the pipeline needs. Two entry points fan independent
//! work items out over [`threads()`] workers and return the results **in
//! input order**, making the worker count provably irrelevant to the output:
//!
//! - [`par_map_vec_indexed`] consumes an owned `Vec` on a process-wide set
//!   of parked worker threads, so a region costs a condvar wake-up, not a
//!   thread spawn. The fleet hands it the shards that have queued chunks
//!   on a tick; a region of one item runs inline and wakes nobody.
//!   Workers are spawned lazily, by the first region that needs them, and
//!   wait on a condvar between regions; they never spin. Items move in and
//!   results move out, hence the `'static` bounds.
//! - [`par_map_indexed`] maps over a borrowed slice on scoped threads
//!   spawned for the call (`std::thread::scope`): no safe code can lend a
//!   borrow to a long-lived thread. Its callers' items (whole clip
//!   recordings, classifier folds) run for milliseconds, so the spawn is
//!   noise.
//!
//! ## Scheduling
//!
//! Both entry points run the same loop. The caller deals the items, tagged
//! with their indices, round-robin into one deque per worker, hands worker
//! `1..` its share (a job posted to the parked workers, or a scoped
//! thread), and then works as worker 0 itself. Each worker drains its own
//! deque from the front and, when empty, steals from the *back* of a
//! sibling's deque (classic work stealing: owner and thief touch opposite
//! ends, keeping contention low even with `Mutex`-guarded deques). The task
//! set is fixed up front, so "every deque empty" is a correct termination
//! condition; after it the caller waits only for items another worker has
//! already started. A region therefore finishes even when every parked
//! worker is busy with another caller: its jobs wait in the queue and the
//! caller runs the items itself. A job that starts after its region
//! finished finds every deque empty and returns at once.
//!
//! ## Determinism
//!
//! Scheduling affects only *when* an item runs, never *what it computes*
//! (items must not share mutable state — the compiler enforces this via the
//! `Fn(usize, &T) -> R + Sync` bound) and never *where its result lands*
//! (each result is sent back tagged with its index and stored in its input
//! slot). Work stealing therefore cannot perturb results; the determinism
//! suite in `tests/determinism.rs` locks this in across 1/2/8 workers.
//!
//! ## Panics
//!
//! A panic in `f` reaches the caller with its original payload. On the
//! caller's own share it unwinds straight out of the region, and the other
//! workers stop at their next result because nobody collects it. On a
//! worker it is caught there and sent to the caller, which re-raises it
//! once its own share is done; a parked worker survives the panic and goes
//! back to waiting for jobs. Either way a drop guard restores the thread's
//! nesting flag.
//!
//! ## Nesting
//!
//! A parallel region entered while the thread runs region work (as a
//! worker, or as a caller on its own share) runs serially on that thread (a
//! thread-local flag detects nesting). This bounds the threads *running*
//! one region's work at `threads()`, no matter how deeply the pipeline nests
//! parallel maps — e.g. a bench bin parallelizing over scenarios whose
//! harvests are themselves parallel — and keeps the serial fast path (and
//! thus the output) identical at every nesting depth. The parked set grows
//! to the largest worker count any region has asked for, less its caller;
//! parked threads sit idle and cost no CPU.

use std::any::Any;
use std::cell::Cell;
use std::collections::VecDeque;
use std::panic::{self, AssertUnwindSafe};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::thread::LocalKey;

thread_local! {
    /// Per-call worker-count override installed by [`with_threads`].
    static THREAD_OVERRIDE: Cell<Option<usize>> = const { Cell::new(None) };
    /// Set while the current thread runs region work: nested parallel
    /// regions then run serially instead of fanning out again.
    static IN_POOL: Cell<bool> = const { Cell::new(false) };
}

/// The worker count parallel regions use, resolved in priority order:
/// a [`with_threads`] override on this thread, then `EMOLEAK_THREADS`,
/// then [`std::thread::available_parallelism`]. Always at least 1.
///
/// The process default (`EMOLEAK_THREADS`, else the available parallelism)
/// is resolved once, at the first call, and reused: on Linux
/// `available_parallelism` re-reads the cgroup quota files on every call,
/// which would otherwise be the largest fixed cost of a region.
///
/// `EMOLEAK_THREADS` is parsed strictly (see [`crate::env`]): a malformed
/// value (`abc`, `0`, `-2`) is not silently ignored — it is reported once
/// on stderr, then the parallelism fallback applies. `threads()` stays
/// infallible because it is called from contexts (Drop impls, worker
/// loops) that cannot propagate an error; fallible callers should use
/// [`crate::env::parse_checked`] directly and surface the typed error.
pub fn threads() -> usize {
    if let Some(n) = THREAD_OVERRIDE.with(Cell::get) {
        return n.max(1);
    }
    static DEFAULT: OnceLock<usize> = OnceLock::new();
    *DEFAULT.get_or_init(|| {
        let parsed =
            crate::env::parse_checked::<usize>("EMOLEAK_THREADS", "a positive integer", |&n| n > 0);
        match parsed {
            Ok(Some(n)) => return n,
            Ok(None) => {}
            Err(e) => eprintln!("emoleak-exec: {e}; falling back to all cores"),
        }
        std::thread::available_parallelism().map_or(1, usize::from)
    })
}

/// Runs `f` with the worker count pinned to `n` on this thread.
///
/// This is how the determinism tests prove the thread count is irrelevant:
/// the same campaign is executed under `with_threads(1)`, `with_threads(2)`
/// and `with_threads(8)` and the outputs compared byte for byte. The
/// override is scoped to the current thread and restored on exit (also on
/// unwind), so parallel test binaries don't interfere with each other.
pub fn with_threads<R>(n: usize, f: impl FnOnce() -> R) -> R {
    let _restore = Restore::set(&THREAD_OVERRIDE, Some(n));
    f()
}

/// Sets a thread-local cell and puts its previous value back when dropped,
/// also on unwind.
struct Restore<V: Copy + 'static> {
    key: &'static LocalKey<Cell<V>>,
    prev: V,
}

impl<V: Copy + 'static> Restore<V> {
    fn set(key: &'static LocalKey<Cell<V>>, value: V) -> Restore<V> {
        Restore { key, prev: key.with(|c| c.replace(value)) }
    }
}

impl<V: Copy + 'static> Drop for Restore<V> {
    fn drop(&mut self) {
        self.key.with(|c| c.set(self.prev));
    }
}

/// Maps `f` over `items` in parallel, returning results in input order.
///
/// The contract that makes parallel harvesting safe to ship:
///
/// - `f(i, &items[i])` is called exactly once per index;
/// - the output `Vec` satisfies `out[i] == f(i, &items[i])` regardless of
///   the worker count or which worker ran which index;
/// - a panic in `f` reaches the caller with its original payload.
///
/// Work items should be coarse (a whole clip recording, a classifier fold):
/// each call spawns its scoped helper threads, and each item costs one
/// deque pop plus one channel send, which is noise for millisecond-scale
/// items but not for nanosecond-scale ones.
pub fn par_map_indexed<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let workers = region_workers(items.len());
    if workers <= 1 {
        return items.iter().enumerate().map(|(i, x)| f(i, x)).collect();
    }
    let deal = Deal::new(items, workers);
    std::thread::scope(|scope| {
        // Inside the scope, so a panic on the caller's share drops the
        // receiver before the scope joins the helpers.
        let (tx, rx) = mpsc::channel();
        for w in 1..workers {
            let (deal, f, tx) = (&deal, &f, tx.clone());
            scope.spawn(move || deal.help(w, f, &tx));
        }
        deal.work(0, &f, &tx);
        collect(&rx, items.len())
    })
}

/// Maps `f` over an **owned** `Vec` in parallel, returning results in input
/// order. The by-value sibling of [`par_map_indexed`], for work items that
/// must be *mutated or consumed* rather than shared — e.g. advancing the
/// busy shards of a fleet, each owning its admission state and journal
/// handle, one tick in parallel.
///
/// Same contract as [`par_map_indexed`]: each index runs exactly once, the
/// output order is the input order, the worker count cannot affect the
/// results (items are independent by construction — each worker takes full
/// ownership of the items it runs), and a panic in `f` reaches the caller.
/// It runs on the process-wide parked workers, so a region costs a wake-up
/// rather than a thread spawn; the `'static` bounds let the items, `f` and
/// the results travel to those long-lived threads. A wake-up still costs
/// microseconds (≈6.6 µs per region at two workers on a 2-vCPU VM), so
/// only items that cost more than that, such as a journal fsync, gain from
/// it. A region of one item runs inline on the caller.
pub fn par_map_vec_indexed<T, R, F>(items: Vec<T>, f: F) -> Vec<R>
where
    T: Send + 'static,
    R: Send + 'static,
    F: Fn(usize, T) -> R + Send + Sync + 'static,
{
    POOL.map_vec(items, f)
}

/// The process-wide parked workers behind [`par_map_vec_indexed`].
static POOL: Pool = Pool::new();

/// How many workers a region of `len` items uses: one (serial) when the
/// thread already runs region work.
fn region_workers(len: usize) -> usize {
    if IN_POOL.with(Cell::get) {
        1
    } else {
        threads().min(len)
    }
}

/// What a worker sends the caller: an index and its result, or the payload
/// of a panic caught on a helper.
type Outcome<R> = Result<(usize, R), Box<dyn Any + Send>>;

/// One region's schedule: its items, tagged with their indices, dealt
/// round-robin into one deque per worker.
struct Deal<X> {
    queues: Vec<Mutex<VecDeque<(usize, X)>>>,
}

impl<X> Deal<X> {
    fn new(items: impl IntoIterator<Item = X>, workers: usize) -> Deal<X> {
        // Round-robin (vs contiguous blocks) spreads systematically-expensive
        // regions — e.g. the high-severity tail of a sweep — across workers
        // up front, so stealing is the exception rather than the steady
        // state.
        let mut queues: Vec<VecDeque<(usize, X)>> =
            (0..workers).map(|_| VecDeque::new()).collect();
        for (i, x) in items.into_iter().enumerate() {
            queues[i % workers].push_back((i, x));
        }
        Deal { queues: queues.into_iter().map(Mutex::new).collect() }
    }

    /// Worker `w`'s next item: the front of its own deque, else one stolen
    /// from the back of a sibling's.
    fn next(&self, w: usize) -> Option<(usize, X)> {
        let n = self.queues.len();
        // Pops leave a deque valid at every step, so a poisoned lock is safe
        // to reuse.
        let lock = |q: usize| self.queues[q].lock().unwrap_or_else(PoisonError::into_inner);
        let own = lock(w).pop_front();
        own.or_else(|| (1..n).find_map(|d| lock((w + d) % n).pop_back()))
    }

    /// Worker `w`'s loop: runs items until every deque is empty, sending
    /// each result tagged with its index. A panic in `f` unwinds out.
    fn work<R>(&self, w: usize, f: impl Fn(usize, X) -> R, tx: &Sender<Outcome<R>>) {
        let _nested = Restore::set(&IN_POOL, true);
        while let Some((i, x)) = self.next(w) {
            // A send fails only once the caller stopped collecting, which it
            // does only by unwinding from a panic; the rest is moot.
            if tx.send(Ok((i, f(i, x)))).is_err() {
                break;
            }
        }
    }

    /// [`Deal::work`] on a helper thread: a panic is caught and sent to the
    /// caller instead of ending the thread.
    fn help<R>(&self, w: usize, f: impl Fn(usize, X) -> R, tx: &Sender<Outcome<R>>) {
        if let Err(payload) = panic::catch_unwind(AssertUnwindSafe(|| self.work(w, f, tx))) {
            // Fails only when the caller is already unwinding.
            let _ = tx.send(Err(payload));
        }
    }
}

/// Receives a region's `len` results into input order, or re-raises the
/// first panic a helper reports.
fn collect<R>(rx: &Receiver<Outcome<R>>, len: usize) -> Vec<R> {
    let mut out: Vec<Option<R>> = Vec::with_capacity(len);
    out.resize_with(len, || None);
    for _ in 0..len {
        // Every dealt index was taken by the caller (already sent) or by a
        // running helper, which sends its result or its panic.
        match rx.recv().expect("the caller holds a sender") {
            Ok((i, r)) => out[i] = Some(r),
            Err(payload) => panic::resume_unwind(payload),
        }
    }
    out.into_iter()
        .map(|slot| slot.expect("every index produces exactly one result"))
        .collect()
}

/// A job posted to the parked workers.
type Job = Box<dyn FnOnce() + Send>;

/// A set of parked worker threads fed from one job queue. The workers live
/// until the process exits; none ever unwinds, because each job catches
/// its panics ([`Deal::help`]).
struct Pool {
    state: Mutex<PoolState>,
    wake: Condvar,
}

struct PoolState {
    jobs: VecDeque<Job>,
    /// Workers spawned so far.
    workers: usize,
}

impl Pool {
    const fn new() -> Pool {
        Pool {
            state: Mutex::new(PoolState { jobs: VecDeque::new(), workers: 0 }),
            wake: Condvar::new(),
        }
    }

    /// [`par_map_vec_indexed`] on this pool.
    fn map_vec<T, R, F>(&'static self, items: Vec<T>, f: F) -> Vec<R>
    where
        T: Send + 'static,
        R: Send + 'static,
        F: Fn(usize, T) -> R + Send + Sync + 'static,
    {
        let len = items.len();
        let workers = region_workers(len);
        if workers <= 1 {
            return items.into_iter().enumerate().map(|(i, x)| f(i, x)).collect();
        }
        // Shared with the posted jobs, which may outlive the region: a job
        // that starts late finds every deque empty.
        let region = Arc::new((Deal::new(items, workers), f));
        let (tx, rx) = mpsc::channel();
        self.post((1..workers).map(|w| {
            let (region, tx) = (Arc::clone(&region), tx.clone());
            Box::new(move || region.0.help(w, &region.1, &tx)) as Job
        }));
        region.0.work(0, &region.1, &tx);
        collect(&rx, len)
    }

    /// Queues `jobs`, first spawning workers until there is one per job.
    fn post(&'static self, jobs: impl ExactSizeIterator<Item = Job>) {
        let wanted = jobs.len();
        let mut state = self.lock();
        state.jobs.extend(jobs);
        let spawn = wanted.saturating_sub(state.workers);
        state.workers += spawn;
        drop(state);
        for _ in 0..spawn {
            std::thread::Builder::new()
                .name("emoleak-exec".into())
                .spawn(move || self.park())
                .expect("spawning a pool worker");
        }
        for _ in 0..wanted {
            self.wake.notify_one();
        }
    }

    /// A worker's life: run queued jobs, wait on the condvar when there are
    /// none.
    fn park(&self) {
        let mut state = self.lock();
        loop {
            if let Some(job) = state.jobs.pop_front() {
                drop(state);
                job();
                state = self.lock();
            } else {
                state = self.wake.wait(state).unwrap_or_else(PoisonError::into_inner);
            }
        }
    }

    fn lock(&self) -> MutexGuard<'_, PoolState> {
        // Jobs run outside the lock and every update under it leaves the
        // state valid, so a poisoned lock is safe to reuse.
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn maps_in_input_order() {
        let items: Vec<u64> = (0..1000).collect();
        let out = with_threads(8, || par_map_indexed(&items, |i, &x| x * 2 + i as u64));
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, items[i] * 2 + i as u64);
        }
    }

    #[test]
    fn output_is_identical_across_worker_counts() {
        let items: Vec<u64> = (0..257).collect();
        let run = |n| {
            with_threads(n, || {
                par_map_indexed(&items, |i, &x| crate::derive_seed(x, i as u64))
            })
        };
        let serial = run(1);
        assert_eq!(serial, run(2));
        assert_eq!(serial, run(3));
        assert_eq!(serial, run(8));
    }

    #[test]
    fn each_index_runs_exactly_once() {
        let calls = AtomicUsize::new(0);
        let items = vec![(); 513];
        with_threads(4, || {
            par_map_indexed(&items, |_, ()| {
                calls.fetch_add(1, Ordering::Relaxed);
            })
        });
        assert_eq!(calls.load(Ordering::Relaxed), 513);
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let empty: Vec<u8> = Vec::new();
        assert!(par_map_indexed(&empty, |_, &x| x).is_empty());
        assert_eq!(par_map_indexed(&[7u8], |i, &x| (i, x)), vec![(0, 7)]);
    }

    #[test]
    fn nested_parallel_regions_run_serially_and_agree() {
        let items: Vec<u64> = (0..24).collect();
        let nested = |n| {
            with_threads(n, || {
                par_map_indexed(&items, |i, &x| {
                    let inner: Vec<u64> = (0..8).map(|k| x + k).collect();
                    // Inner region: serial inside a worker, parallel at n=1
                    // caller level — either way the same numbers.
                    par_map_indexed(&inner, |j, &y| crate::derive_seed(y, (i + j) as u64))
                        .into_iter()
                        .fold(0u64, u64::wrapping_add)
                })
            })
        };
        assert_eq!(nested(1), nested(6));
    }

    #[test]
    fn owned_map_consumes_items_in_input_order() {
        // Items that are not Clone and not Sync-shareable by reference use.
        struct Runner(u64);
        let items: Vec<Runner> = (0..97).map(Runner).collect();
        let out = with_threads(4, || {
            par_map_vec_indexed(items, |i, r| r.0 * 2 + i as u64)
        });
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, i as u64 * 3);
        }
        // Identical across worker counts.
        let again = with_threads(1, || {
            par_map_vec_indexed((0..97).map(Runner).collect(), |i, r| r.0 * 2 + i as u64)
        });
        assert_eq!(out, again);
    }

    #[test]
    fn worker_panic_propagates() {
        let items: Vec<usize> = (0..64).collect();
        let result = std::panic::catch_unwind(|| {
            with_threads(4, || {
                par_map_indexed(&items, |i, _| {
                    assert!(i != 13, "intentional test panic");
                    i
                })
            })
        });
        assert!(result.is_err(), "panic in a worker must reach the caller");
    }

    #[test]
    fn with_threads_restores_on_exit() {
        let before = threads();
        with_threads(3, || assert_eq!(threads(), 3));
        assert_eq!(threads(), before);
    }

    #[test]
    fn stealing_drains_imbalanced_queues() {
        // One item is 1000x slower than the rest; the other workers must
        // steal the slow worker's remaining round-robin share.
        let items: Vec<u64> = (0..64).collect();
        let out = with_threads(4, || {
            par_map_indexed(&items, |i, &x| {
                let spins = if i == 0 { 200_000 } else { 200 };
                (0..spins).fold(x, |acc, k| acc.wrapping_mul(31).wrapping_add(k))
            })
        });
        let serial: Vec<u64> = items
            .iter()
            .enumerate()
            .map(|(i, &x)| {
                let spins = if i == 0 { 200_000u64 } else { 200 };
                (0..spins).fold(x, |acc, k| acc.wrapping_mul(31).wrapping_add(k))
            })
            .collect();
        assert_eq!(out, serial);
    }

    /// The payload of a caught panic, as the `&str` a literal message gives.
    fn message(payload: Box<dyn std::any::Any + Send>) -> &'static str {
        *payload.downcast::<&'static str>().expect("a literal panic message")
    }

    #[test]
    fn owned_panics_reach_the_caller_and_the_pool_recovers() {
        // Two items meet at a barrier, so item 0 runs on the caller's own
        // share and item 1 on a parked worker, at the same time.
        let caller = std::thread::current().id();
        let region = |panic_on_caller: bool| {
            let barrier = Arc::new(std::sync::Barrier::new(2));
            par_map_vec_indexed(vec![0u64, 1], move |i, x| {
                barrier.wait();
                let on_caller = std::thread::current().id() == caller;
                assert_eq!(on_caller, i == 0, "item 0 is the caller's, item 1 a worker's");
                if on_caller == panic_on_caller {
                    panic!("intentional test panic");
                }
                x
            })
        };
        let next = |i: usize, x: u64| crate::derive_seed(x, i as u64 * 3);
        let serial: Vec<u64> = (0..50).map(|x| next(x as usize, x)).collect();
        for panic_on_caller in [false, true] {
            let payload = with_threads(2, || {
                std::panic::catch_unwind(AssertUnwindSafe(|| region(panic_on_caller)))
            })
            .expect_err("the panic must reach the caller");
            assert_eq!(message(payload), "intentional test panic");
            assert!(
                !IN_POOL.with(Cell::get),
                "the unwind must restore the caller's nesting flag"
            );
            let out = with_threads(2, || par_map_vec_indexed((0..50).collect(), next));
            assert_eq!(out, serial, "the next region runs correctly");
        }
    }

    #[test]
    fn concurrent_callers_share_the_parked_workers() {
        let items: Vec<u64> = (0..41).collect();
        let f = |i: usize, x: u64| crate::derive_seed(x, i as u64);
        let serial: Vec<u64> = items.iter().enumerate().map(|(i, &x)| f(i, x)).collect();
        let start = std::sync::Barrier::new(4);
        std::thread::scope(|scope| {
            for n in [2, 3, 4, 8] {
                let (items, serial, start) = (&items, &serial, &start);
                scope.spawn(move || {
                    start.wait();
                    with_threads(n, || {
                        for _ in 0..200 {
                            assert_eq!(par_map_vec_indexed(items.clone(), f), *serial);
                        }
                    });
                });
            }
        });
    }

    #[test]
    fn owned_regions_reuse_the_parked_workers() {
        let pool: &'static Pool = Box::leak(Box::new(Pool::new()));
        let items: Vec<u64> = (0..4).collect();
        assert_eq!(pool.lock().workers, 0, "no worker before the first region");
        with_threads(2, || {
            for _ in 0..1000 {
                let out = pool.map_vec(items.clone(), |i, x| x * 2 + i as u64);
                assert_eq!(out, [0, 3, 6, 9]);
            }
        });
        assert_eq!(pool.lock().workers, 1, "one worker serves every region");
    }
}
