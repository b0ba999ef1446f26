//! Injectable storage boundary: every durable byte this crate writes
//! crosses a [`Vfs`].
//!
//! The crash nemeses so far ([`crate::CrashPlan`], torn appends, injected
//! fsync failures) model a *process* dying over a healthy disk. This seam
//! models the disk itself going bad while the process survives:
//!
//! - [`OsVfs`] — the passthrough used by every default constructor; the
//!   public `create`/`open`/`write_atomic` APIs behave byte-identically to
//!   before the seam existed.
//! - [`FaultVfs`] — a seeded nemesis driven by a plain-data [`FaultPlan`]:
//!   ENOSPC after a byte budget, per-op EIO probability, fsync stalls with
//!   a tick budget, and short writes. All draws come from a splitmix64
//!   stream, so a `(plan, op sequence)` pair replays identically.
//!
//! Faults are injected on the *write* path (append, fsync, rename) — the
//! operations a sick disk refuses first. Reads pass through: recovery must
//! stay able to see whatever bytes the faults left behind, exactly as a
//! remounted-read-only filesystem still serves its old blocks.

use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::Path;
use std::sync::{Arc, Mutex};

/// An open, append-positioned file handle behind the [`Vfs`] seam.
///
/// `write` may report a *short write* (`Ok(n)` with `n < bytes.len()`):
/// only the first `n` bytes reached the file. Callers must treat that as a
/// torn frame, not retry the remainder — the whole point of the seam is
/// that the tear becomes observable to recovery.
pub trait VfsFile: Send + fmt::Debug {
    /// Appends `bytes` at the end of the file. Returns how many bytes
    /// landed; `Ok(n < bytes.len())` is a short write.
    fn write(&mut self, bytes: &[u8]) -> io::Result<usize>;

    /// Flushes file data and metadata to stable storage. Returns the
    /// logical ticks the sync *stalled* (0 on a healthy disk) — the
    /// latency signal the durability gauge feeds on.
    fn fsync(&mut self) -> io::Result<u64>;

    /// Shrinks the file to `len` bytes and repositions at the new end.
    fn truncate(&mut self, len: u64) -> io::Result<()>;
}

/// The injectable storage boundary. One implementor per fault domain:
/// [`OsVfs`] passes through, [`FaultVfs`] injects.
pub trait Vfs: Send + Sync + fmt::Debug {
    /// Opens (creating if needed) `path` for appending, positioned at the
    /// end; `truncate` first empties it.
    fn open(&self, path: &Path, truncate: bool) -> io::Result<Box<dyn VfsFile>>;

    /// Reads the whole file. Never fault-injected: recovery must be able
    /// to read back whatever bytes the faults left.
    fn read(&self, path: &Path) -> io::Result<Vec<u8>>;

    /// Renames `from` over `to` (the atomic-replace commit point).
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()>;

    /// Flushes the directory entry for `path` so a completed rename
    /// survives a power cut. Best-effort at every call site.
    fn sync_dir(&self, path: &Path) -> io::Result<()>;

    /// Bytes of free space left under `path`, when the backend can tell
    /// (`None` means "no watermark signal" — the gauge then relies on
    /// error hysteresis alone).
    fn free_space(&self, path: &Path) -> Option<u64>;
}

/// The passthrough [`Vfs`]: plain `std::fs`, no faults, no watermarks.
#[derive(Debug, Clone, Copy, Default)]
pub struct OsVfs;

#[derive(Debug)]
struct OsFile {
    file: File,
}

impl VfsFile for OsFile {
    fn write(&mut self, bytes: &[u8]) -> io::Result<usize> {
        // A real kernel short write would tear the frame invisibly to the
        // caller's framing; the passthrough absorbs it so the only short
        // writes the stack ever sees are injected (and thus seeded).
        self.file.write_all(bytes)?;
        Ok(bytes.len())
    }

    fn fsync(&mut self) -> io::Result<u64> {
        self.file.sync_all()?;
        Ok(0)
    }

    fn truncate(&mut self, len: u64) -> io::Result<()> {
        self.file.set_len(len)?;
        self.file.seek(SeekFrom::End(0))?;
        Ok(())
    }
}

fn os_open(path: &Path, truncate: bool) -> io::Result<File> {
    let mut file =
        OpenOptions::new().read(true).write(true).create(true).truncate(false).open(path)?;
    if truncate {
        file.set_len(0)?;
    }
    file.seek(SeekFrom::End(0))?;
    Ok(file)
}

impl Vfs for OsVfs {
    fn open(&self, path: &Path, truncate: bool) -> io::Result<Box<dyn VfsFile>> {
        Ok(Box::new(OsFile { file: os_open(path, truncate)? }))
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        std::fs::read(path)
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        std::fs::rename(from, to)
    }

    fn sync_dir(&self, path: &Path) -> io::Result<()> {
        if let Some(parent) = path.parent() {
            File::open(parent)?.sync_all()?;
        }
        Ok(())
    }

    fn free_space(&self, _path: &Path) -> Option<u64> {
        None
    }
}

/// A seeded disk-fault plan: plain `Copy + Eq` data, safe to embed in
/// configs that derive equality, replayed identically for a given seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FaultPlan {
    /// Seed of the splitmix64 draw stream.
    pub seed: u64,
    /// Total bytes the "disk" accepts before ENOSPC (`u64::MAX` = off).
    /// A write that would cross the budget lands its fitting prefix and
    /// fails — the torn frame recovery has to repair.
    pub byte_budget: u64,
    /// Per-write/fsync/rename probability of EIO, in parts per million.
    pub eio_ppm: u32,
    /// Every `stall_every`-th fsync stalls (0 = never).
    pub stall_every: u64,
    /// Logical ticks charged per stalled fsync.
    pub stall_ticks: u64,
    /// Total stall ticks tolerated; once exceeded, stalling fsyncs return
    /// EIO instead (the hung-disk-turned-dead-disk progression).
    pub stall_budget: u64,
    /// Per-write probability of a short write (half the frame lands), in
    /// parts per million.
    pub short_write_ppm: u32,
    /// Faultable operations (writes, fsyncs, renames) that pass clean
    /// before the probabilistic draws and stall schedule arm — the disk
    /// was healthy at boot. The byte budget is *not* deferred: a disk
    /// born small is small.
    pub warmup_ops: u64,
}

impl FaultPlan {
    /// A fully disarmed plan: every draw passes, no budget, no stalls.
    /// A [`FaultVfs`] over this plan must behave byte-identically to
    /// [`OsVfs`] — the zero-severity invariant `disk_chaos` pins.
    pub fn quiet(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            byte_budget: u64::MAX,
            eio_ppm: 0,
            stall_every: 0,
            stall_ticks: 0,
            stall_budget: 0,
            short_write_ppm: 0,
            warmup_ops: 0,
        }
    }
}

#[derive(Debug, Default)]
struct FaultState {
    rng: u64,
    written: u64,
    fsyncs: u64,
    stalled: u64,
    ops: u64,
}

/// The seeded disk nemesis: applies a [`FaultPlan`] in front of the real
/// filesystem. Cloning shares the counters, so the byte budget and stall
/// budget are *per disk*, not per file — exactly how a full partition
/// starves every journal on it.
#[derive(Debug, Clone)]
pub struct FaultVfs {
    plan: FaultPlan,
    state: Arc<Mutex<FaultState>>,
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl FaultVfs {
    /// A nemesis over `plan`, its draw stream seeded from `plan.seed`.
    pub fn new(plan: FaultPlan) -> FaultVfs {
        FaultVfs {
            plan,
            state: Arc::new(Mutex::new(FaultState { rng: plan.seed, ..FaultState::default() })),
        }
    }

    /// Total fsync stall ticks charged so far.
    pub fn stalled_ticks(&self) -> u64 {
        self.lock().stalled
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, FaultState> {
        // A poisoned lock only means another thread panicked mid-draw; the
        // counters are still coherent u64s, so the nemesis keeps serving.
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn draw_ppm(state: &mut FaultState, ppm: u32) -> bool {
        ppm != 0 && splitmix64(&mut state.rng) % 1_000_000 < u64::from(ppm)
    }

    fn eio(op: &str) -> io::Error {
        io::Error::other(format!("injected EIO on {op}"))
    }
}

#[derive(Debug)]
struct FaultFile {
    file: File,
    vfs: FaultVfs,
}

impl VfsFile for FaultFile {
    fn write(&mut self, bytes: &[u8]) -> io::Result<usize> {
        let plan = self.vfs.plan;
        let mut st = self.vfs.lock();
        st.ops += 1;
        let warm = st.ops <= plan.warmup_ops;
        if !warm && FaultVfs::draw_ppm(&mut st, plan.eio_ppm) {
            return Err(FaultVfs::eio("write"));
        }
        let fit = plan.byte_budget.saturating_sub(st.written);
        if (bytes.len() as u64) > fit {
            // The disk fills mid-write: the fitting prefix lands (a torn
            // frame for recovery to repair), the call fails ENOSPC.
            let keep = fit as usize;
            st.written += fit;
            drop(st);
            self.file.write_all(&bytes[..keep])?;
            return Err(io::Error::new(
                io::ErrorKind::StorageFull,
                format!("injected ENOSPC: {keep} of {} bytes fit", bytes.len()),
            ));
        }
        let keep = if !warm && FaultVfs::draw_ppm(&mut st, plan.short_write_ppm) {
            bytes.len() / 2
        } else {
            bytes.len()
        };
        st.written += keep as u64;
        drop(st);
        self.file.write_all(&bytes[..keep])?;
        Ok(keep)
    }

    fn fsync(&mut self) -> io::Result<u64> {
        let plan = self.vfs.plan;
        let mut st = self.vfs.lock();
        st.ops += 1;
        let warm = st.ops <= plan.warmup_ops;
        if !warm && FaultVfs::draw_ppm(&mut st, plan.eio_ppm) {
            return Err(FaultVfs::eio("fsync"));
        }
        st.fsyncs += 1;
        let mut ticks = 0;
        if !warm && plan.stall_every != 0 && st.fsyncs.is_multiple_of(plan.stall_every) {
            st.stalled += plan.stall_ticks;
            if st.stalled > plan.stall_budget {
                return Err(FaultVfs::eio("fsync (stall budget exhausted)"));
            }
            ticks = plan.stall_ticks;
        }
        drop(st);
        self.file.sync_all()?;
        Ok(ticks)
    }

    fn truncate(&mut self, len: u64) -> io::Result<()> {
        self.file.set_len(len)?;
        self.file.seek(SeekFrom::End(0))?;
        Ok(())
    }
}

impl Vfs for FaultVfs {
    fn open(&self, path: &Path, truncate: bool) -> io::Result<Box<dyn VfsFile>> {
        Ok(Box::new(FaultFile { file: os_open(path, truncate)?, vfs: self.clone() }))
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        let mut file = File::open(path)?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)?;
        Ok(bytes)
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        {
            let mut st = self.lock();
            st.ops += 1;
            let warm = st.ops <= self.plan.warmup_ops;
            if !warm && FaultVfs::draw_ppm(&mut st, self.plan.eio_ppm) {
                return Err(FaultVfs::eio("rename"));
            }
        }
        std::fs::rename(from, to)
    }

    fn sync_dir(&self, path: &Path) -> io::Result<()> {
        OsVfs.sync_dir(path)
    }

    fn free_space(&self, _path: &Path) -> Option<u64> {
        if self.plan.byte_budget == u64::MAX {
            return None;
        }
        Some(self.plan.byte_budget.saturating_sub(self.lock().written))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("emoleak-vfs-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn quiet_fault_vfs_is_byte_identical_to_os_vfs() {
        let dir = scratch("quiet");
        let a = dir.join("os.bin");
        let b = dir.join("fault.bin");
        let fault = FaultVfs::new(FaultPlan::quiet(7));
        for (vfs, path) in [(&OsVfs as &dyn Vfs, &a), (&fault as &dyn Vfs, &b)] {
            let mut f = vfs.open(path, true).unwrap();
            assert_eq!(f.write(b"hello ").unwrap(), 6);
            assert_eq!(f.write(b"disk").unwrap(), 4);
            assert_eq!(f.fsync().unwrap(), 0);
            f.truncate(8).unwrap();
            assert_eq!(f.write(b"!!").unwrap(), 2);
        }
        assert_eq!(std::fs::read(&a).unwrap(), std::fs::read(&b).unwrap());
        assert_eq!(fault.free_space(&b), None);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn byte_budget_tears_the_crossing_write_and_reports_enospc() {
        let dir = scratch("enospc");
        let path = dir.join("full.bin");
        let vfs = FaultVfs::new(FaultPlan {
            byte_budget: 10,
            ..FaultPlan::quiet(3)
        });
        let mut f = vfs.open(&path, true).unwrap();
        assert_eq!(f.write(b"12345678").unwrap(), 8);
        let err = f.write(b"overflow").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::StorageFull, "{err}");
        // The fitting prefix landed: the tear is observable on disk.
        assert_eq!(std::fs::read(&path).unwrap(), b"12345678ov");
        assert_eq!(vfs.free_space(&path), Some(0));
        // The disk stays full: even a 1-byte write is refused.
        let err = f.write(b"x").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::StorageFull);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn stalls_charge_ticks_then_exhaust_into_eio() {
        let dir = scratch("stall");
        let path = dir.join("slow.bin");
        let vfs = FaultVfs::new(FaultPlan {
            stall_every: 2,
            stall_ticks: 5,
            stall_budget: 10,
            ..FaultPlan::quiet(9)
        });
        let mut f = vfs.open(&path, true).unwrap();
        assert_eq!(f.fsync().unwrap(), 0, "1st fsync clean");
        assert_eq!(f.fsync().unwrap(), 5, "2nd stalls");
        assert_eq!(f.fsync().unwrap(), 0, "3rd clean");
        assert_eq!(f.fsync().unwrap(), 5, "4th stalls, budget now exactly spent");
        assert!(f.fsync().is_ok(), "5th clean");
        let err = f.fsync().unwrap_err();
        assert!(err.to_string().contains("stall budget"), "{err}");
        assert_eq!(vfs.stalled_ticks(), 15);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn warmup_ops_hold_fire_until_boot_is_over() {
        let dir = scratch("warmup");
        let path = dir.join("w.bin");
        let vfs = FaultVfs::new(FaultPlan {
            eio_ppm: 1_000_000,
            warmup_ops: 3,
            ..FaultPlan::quiet(1)
        });
        let mut f = vfs.open(&path, true).unwrap();
        assert_eq!(f.write(b"a").unwrap(), 1, "1st op is inside the warmup");
        assert_eq!(f.write(b"b").unwrap(), 1, "2nd op is inside the warmup");
        assert_eq!(f.write(b"c").unwrap(), 1, "3rd op is inside the warmup");
        let err = f.write(b"d").unwrap_err();
        assert!(err.to_string().contains("injected EIO"), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn eio_and_short_write_draws_are_seed_deterministic() {
        let run = |seed: u64| -> Vec<String> {
            let dir = scratch(&format!("det-{seed}"));
            let path = dir.join("d.bin");
            let vfs = FaultVfs::new(FaultPlan {
                eio_ppm: 300_000,
                short_write_ppm: 300_000,
                ..FaultPlan::quiet(seed)
            });
            let mut f = vfs.open(&path, true).unwrap();
            let mut outcomes = Vec::new();
            for _ in 0..32 {
                outcomes.push(match f.write(b"eightby!") {
                    Ok(8) => "full".to_string(),
                    Ok(n) => format!("short-{n}"),
                    Err(e) => format!("err-{}", e.kind()),
                });
            }
            std::fs::remove_dir_all(&dir).unwrap();
            outcomes
        };
        assert_eq!(run(42), run(42), "same seed, same fault schedule");
        assert_ne!(run(42), run(43), "different seed, different schedule");
        assert!(run(42).iter().any(|o| o.starts_with("err")), "eio fired");
        assert!(run(42).iter().any(|o| o.starts_with("short")), "short write fired");
    }
}
