//! The spool's filesystem seam: every byte the persistence layer moves
//! goes through [`SpoolFs`], so the same shipping protocol code runs on
//! the real disk ([`StdFs`]) and under a seeded, deterministic fault
//! injector ([`FaultFs`]) that can fail any operation, fill the disk,
//! tear unsynced tails, corrupt reads, and freeze the on-disk state at
//! an arbitrary crash point for restart testing.
//!
//! # Durability model
//!
//! [`FaultFs`] models the guarantees the write protocol is allowed to
//! rely on — and nothing more:
//!
//! * File **content** is durable only up to the last [`SpoolFile::sync`].
//!   At a crash, everything past the synced prefix is at the mercy of
//!   the configured [`TailPolicy`]: dropped outright, kept, or torn at a
//!   seeded offset with a possible bit of garbage in the surviving
//!   unsynced span (what a half-written sector looks like).
//! * **Namespace** operations (`create`, `rename`, `remove_file`) are
//!   atomic and durable immediately — the ext4-style simplification,
//!   which [`StdFs`] earns for `create` and `rename` by syncing the
//!   parent directory before it returns.
//!   `rename` never leaves a mixed state, but it happily renames a file
//!   whose *content* is still volatile: exactly the torn-image failure
//!   the temp-file + fsync + rename protocol must prevent.
//! * A crashed filesystem fails every subsequent operation, so the
//!   owner's degradation path (not its happy path) is what runs after.
//!
//! Time is virtual under [`FaultFs`] — one millisecond per observed
//! operation (including [`SpoolFs::now`] itself), so backoff/retry
//! schedules become deterministic, enumerable behavior.

use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// An open spool file: sequential appends plus explicit durability.
pub trait SpoolFile: Send {
    /// Appends `buf` at the end of the file.
    ///
    /// # Errors
    /// The underlying (or injected) I/O failure.
    fn write_all(&mut self, buf: &[u8]) -> io::Result<()>;

    /// Forces everything written so far onto stable storage. Data not
    /// synced when the process (or the fault injector) crashes may be
    /// lost or torn.
    ///
    /// # Errors
    /// The underlying (or injected) I/O failure.
    fn sync(&mut self) -> io::Result<()>;
}

/// The filesystem surface the spool lifecycle is written against.
///
/// Deliberately small: the crash-consistency argument in
/// [`crate::lifecycle`] only has to reason about these nine operations.
pub trait SpoolFs: Send + Sync {
    /// `mkdir -p`.
    ///
    /// # Errors
    /// The underlying (or injected) I/O failure.
    fn create_dir_all(&self, path: &Path) -> io::Result<()>;

    /// The entries of `path`, as full paths, sorted (deterministic).
    ///
    /// # Errors
    /// The underlying (or injected) I/O failure.
    fn read_dir(&self, path: &Path) -> io::Result<Vec<PathBuf>>;

    /// Whole-file read.
    ///
    /// # Errors
    /// The underlying (or injected) I/O failure.
    fn read(&self, path: &Path) -> io::Result<Vec<u8>>;

    /// Current file length in bytes.
    ///
    /// # Errors
    /// The underlying (or injected) I/O failure.
    fn file_len(&self, path: &Path) -> io::Result<u64>;

    /// Creates (or truncates) a file for writing.
    ///
    /// # Errors
    /// The underlying (or injected) I/O failure.
    fn create(&self, path: &Path) -> io::Result<Box<dyn SpoolFile>>;

    /// Opens a file for appending, creating it if absent.
    ///
    /// # Errors
    /// The underlying (or injected) I/O failure.
    fn open_append(&self, path: &Path) -> io::Result<Box<dyn SpoolFile>>;

    /// Atomically renames `from` to `to` (replacing `to`).
    ///
    /// # Errors
    /// The underlying (or injected) I/O failure.
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()>;

    /// Removes a file.
    ///
    /// # Errors
    /// The underlying (or injected) I/O failure.
    fn remove_file(&self, path: &Path) -> io::Result<()>;

    /// Whether `path` exists (file or directory).
    fn exists(&self, path: &Path) -> bool;

    /// A monotonic clock: real time on [`StdFs`], one virtual
    /// millisecond per observed operation on [`FaultFs`] (so retry
    /// backoff is deterministic under test).
    fn now(&self) -> Duration;

    /// Age of a file (now minus last write), when known.
    fn age(&self, path: &Path) -> Option<Duration>;
}

// ---------------------------------------------------------------------
// StdFs — the zero-cost production implementation
// ---------------------------------------------------------------------

/// The production [`SpoolFs`]: thin forwarding onto `std::fs`, with
/// [`SpoolFile::sync`] mapped to `File::sync_data`, and `create` and
/// `rename` syncing the parent directory before they return — what makes
/// the namespace as durable as [`FaultFs`] models it.
#[derive(Debug)]
pub struct StdFs {
    epoch: std::time::Instant,
}

impl Default for StdFs {
    fn default() -> Self {
        Self {
            epoch: std::time::Instant::now(),
        }
    }
}

impl StdFs {
    /// A fresh handle (its [`SpoolFs::now`] clock starts at zero).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }
}

struct StdFile {
    file: std::fs::File,
}

/// Syncs the directory holding `path`, making a new or renamed entry of it
/// durable: syncing a file's content does not cover its name, which a
/// power cut can otherwise take with it.
fn sync_parent(path: &Path) -> io::Result<()> {
    let parent = match path.parent() {
        Some(dir) if !dir.as_os_str().is_empty() => dir,
        _ => Path::new("."),
    };
    std::fs::File::open(parent)?.sync_all()
}

impl SpoolFile for StdFile {
    fn write_all(&mut self, buf: &[u8]) -> io::Result<()> {
        io::Write::write_all(&mut self.file, buf)
    }

    fn sync(&mut self) -> io::Result<()> {
        self.file.sync_data()
    }
}

impl SpoolFs for StdFs {
    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        std::fs::create_dir_all(path)
    }

    fn read_dir(&self, path: &Path) -> io::Result<Vec<PathBuf>> {
        let mut out: Vec<PathBuf> = std::fs::read_dir(path)?
            .map(|e| e.map(|e| e.path()))
            .collect::<io::Result<_>>()?;
        out.sort();
        Ok(out)
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        std::fs::read(path)
    }

    fn file_len(&self, path: &Path) -> io::Result<u64> {
        Ok(std::fs::metadata(path)?.len())
    }

    fn create(&self, path: &Path) -> io::Result<Box<dyn SpoolFile>> {
        let file = std::fs::File::create(path)?;
        sync_parent(path)?;
        Ok(Box::new(StdFile { file }))
    }

    fn open_append(&self, path: &Path) -> io::Result<Box<dyn SpoolFile>> {
        Ok(Box::new(StdFile {
            file: std::fs::OpenOptions::new()
                .append(true)
                .create(true)
                .open(path)?,
        }))
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        std::fs::rename(from, to)?;
        sync_parent(to)?;
        if from.parent() != to.parent() {
            sync_parent(from)?;
        }
        Ok(())
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        std::fs::remove_file(path)
    }

    fn exists(&self, path: &Path) -> bool {
        path.exists()
    }

    fn now(&self) -> Duration {
        self.epoch.elapsed()
    }

    fn age(&self, path: &Path) -> Option<Duration> {
        std::fs::metadata(path)
            .and_then(|m| m.modified())
            .ok()
            .and_then(|t| t.elapsed().ok())
    }
}

// ---------------------------------------------------------------------
// FaultFs — seeded, deterministic, in-memory fault injection
// ---------------------------------------------------------------------

/// What happens to each file's unsynced tail when [`FaultFs`] crashes.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum TailPolicy {
    /// Everything past the synced prefix is lost — the adversarial
    /// floor a correct protocol must survive.
    #[default]
    Drop,
    /// Unsynced data happens to survive intact (the lucky case; also a
    /// legal outcome the protocol must accept).
    Keep,
    /// A seeded prefix of the unsynced span survives, possibly with one
    /// flipped bit in it — a half-written sector.
    Torn,
}

/// Knobs of the deterministic fault injector. All fields compose; a
/// default config injects nothing.
#[derive(Clone, Copy, Debug, Default)]
pub struct FaultConfig {
    /// Fail every fallible operation whose 1-based index lies in
    /// `[start, end)` with an injected I/O error, then recover — a
    /// transient outage.
    pub fail_ops: Option<(u64, u64)>,
    /// After this many cumulative written bytes, every write fails with
    /// an injected ENOSPC until faults are cleared — a full disk.
    pub enospc_after_bytes: Option<u64>,
    /// Crash (freeze durable state, fail everything after) just before
    /// executing the operation with this 1-based index.
    pub crash_at_op: Option<u64>,
    /// Tail semantics applied to unsynced data at the crash.
    pub tail: TailPolicy,
    /// Flip one seeded bit in the payload returned by the N-th
    /// [`SpoolFs::read`] (1-based) — read-side media corruption. The
    /// stored bytes are untouched.
    pub corrupt_read_nth: Option<u64>,
}

#[derive(Clone, Debug, Default)]
struct MemFile {
    data: Vec<u8>,
    /// Durable prefix length: bytes [0, synced) survive a crash intact.
    synced: usize,
    /// Virtual write timestamp (for [`SpoolFs::age`]).
    wtime_ms: u64,
}

#[derive(Clone, Debug, Default)]
struct MemState {
    /// Path → file id. Identity survives renames, like an inode.
    namespace: BTreeMap<PathBuf, u64>,
    files: BTreeMap<u64, MemFile>,
    dirs: Vec<PathBuf>,
    next_id: u64,
    ops: u64,
    reads: u64,
    written: u64,
    clock_ms: u64,
    crashed: bool,
    rng: u64,
    cfg: FaultConfig,
}

fn injected(what: &str) -> io::Error {
    io::Error::other(format!("injected fault: {what}"))
}

impl MemState {
    fn rng_next(&mut self) -> u64 {
        // SplitMix64 — self-contained, stable across platforms.
        self.rng = self.rng.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.rng;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// The fallible-operation gate: advances virtual time, counts the
    /// op, and applies every armed fault in a fixed order.
    fn gate(&mut self, write_bytes: u64) -> io::Result<()> {
        self.clock_ms += 1;
        if self.crashed {
            return Err(injected("filesystem crashed"));
        }
        self.ops += 1;
        let op = self.ops;
        if self.cfg.crash_at_op == Some(op) {
            self.crash();
            return Err(injected("crash point reached"));
        }
        if let Some((start, end)) = self.cfg.fail_ops {
            if op >= start && op < end {
                return Err(injected("transient I/O failure"));
            }
        }
        if write_bytes > 0 {
            if let Some(limit) = self.cfg.enospc_after_bytes {
                if self.written + write_bytes > limit {
                    return Err(injected("ENOSPC, device full"));
                }
            }
            self.written += write_bytes;
        }
        Ok(())
    }

    /// Freezes the durable state: applies the tail policy to every
    /// file's unsynced span, then fails everything from here on.
    fn crash(&mut self) {
        self.crashed = true;
        // Deterministic order: iterate ids (BTreeMap), not hash order.
        let ids: Vec<u64> = self.files.keys().copied().collect();
        let tail = self.cfg.tail;
        for id in ids {
            let (synced, len) = {
                let f = &self.files[&id];
                (f.synced, f.data.len())
            };
            let keep = match tail {
                TailPolicy::Drop => synced,
                TailPolicy::Keep => len,
                TailPolicy::Torn => {
                    let span = (len - synced) as u64;
                    synced + usize::try_from(self.rng_next() % (span + 1)).unwrap_or(0)
                }
            };
            let flip = if tail == TailPolicy::Torn && keep > synced {
                // Half the time, one bit of the surviving unsynced span
                // is garbage.
                let coin = self.rng_next();
                let span = (keep - synced) as u64;
                let byte = synced + usize::try_from(self.rng_next() % span).unwrap_or(0);
                let bit = self.rng_next() % 8;
                (coin & 1 == 0).then_some((byte, bit as u8))
            } else {
                None
            };
            let f = self.files.get_mut(&id).expect("id listed above");
            f.data.truncate(keep);
            if let Some((byte, bit)) = flip {
                f.data[byte] ^= 1 << bit;
            }
            f.synced = f.data.len();
        }
    }

    fn id_of(&self, path: &Path) -> io::Result<u64> {
        self.namespace
            .get(path)
            .copied()
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, format!("{}", path.display())))
    }
}

/// The deterministic in-memory fault-injection filesystem. Cheap to
/// clone *as a handle* (shared state); [`FaultFs::durable_clone`] is
/// the deep copy that models a reboot.
#[derive(Debug, Default)]
pub struct FaultFs {
    state: Arc<Mutex<MemState>>,
}

impl Clone for FaultFs {
    fn clone(&self) -> Self {
        Self {
            state: Arc::clone(&self.state),
        }
    }
}

impl FaultFs {
    /// A fault-free in-memory filesystem with the given RNG seed (the
    /// seed only matters once torn tails or read corruption are armed).
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Self::with_config(seed, FaultConfig::default())
    }

    /// A filesystem with faults armed from the start.
    #[must_use]
    pub fn with_config(seed: u64, cfg: FaultConfig) -> Self {
        Self {
            state: Arc::new(Mutex::new(MemState {
                rng: seed ^ 0xA076_1D64_78BD_642F,
                cfg,
                ..MemState::default()
            })),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, MemState> {
        self.state.lock().expect("spoolfs state poisoned")
    }

    /// Fallible operations executed so far (the crash-point space).
    #[must_use]
    pub fn op_count(&self) -> u64 {
        self.lock().ops
    }

    /// Whether the injector has crashed.
    #[must_use]
    pub fn crashed(&self) -> bool {
        self.lock().crashed
    }

    /// Crashes immediately (freezes durable state per the tail policy).
    pub fn crash_now(&self) {
        self.lock().crash();
    }

    /// Mutates the fault config in place (e.g. to clear a transient
    /// fault, or arm a new one mid-run).
    pub fn reconfigure(&self, f: impl FnOnce(&mut FaultConfig)) {
        f(&mut self.lock().cfg);
    }

    /// Flips one bit of a file's stored bytes — direct media
    /// corruption, for scrub/quarantine tests. Returns whether the
    /// target existed and was long enough.
    pub fn flip_bit(&self, path: &Path, bit_index: u64) -> bool {
        let mut s = self.lock();
        let Ok(id) = s.id_of(path) else { return false };
        let f = s.files.get_mut(&id).expect("namespace maps to file");
        let byte = usize::try_from(bit_index / 8).unwrap_or(usize::MAX);
        if byte >= f.data.len() {
            return false;
        }
        f.data[byte] ^= 1 << (bit_index % 8);
        true
    }

    /// A deep copy holding only what a reboot would find: if this
    /// filesystem already crashed, its frozen durable state; otherwise
    /// the crash (tail policy applied to unsynced spans) is simulated
    /// on the copy. The clone starts alive, fault-free, with the clock
    /// carried over.
    #[must_use]
    pub fn durable_clone(&self) -> Self {
        let mut copy = self.lock().clone();
        if !copy.crashed {
            copy.crash();
        }
        copy.crashed = false;
        copy.cfg = FaultConfig::default();
        copy.ops = 0;
        copy.reads = 0;
        Self {
            state: Arc::new(Mutex::new(copy)),
        }
    }

    /// FNV-1a fingerprint of the durable state (paths + surviving
    /// bytes) — what the crash harness counts distinct crash states by.
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        let s = self.lock();
        let mut h = 0xCBF2_9CE4_8422_2325u64;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                h = (h ^ u64::from(b)).wrapping_mul(0x100_0000_01B3);
            }
        };
        for (path, id) in &s.namespace {
            eat(path.to_string_lossy().as_bytes());
            let f = &s.files[id];
            // A reboot only sees the durable prefix.
            eat(&f.data[..f.synced.min(f.data.len())]);
            eat(&[0xFF]);
        }
        h
    }

    /// The paths currently in the namespace (tests inspect layouts).
    #[must_use]
    pub fn paths(&self) -> Vec<PathBuf> {
        self.lock().namespace.keys().cloned().collect()
    }
}

struct MemSpoolFile {
    state: Arc<Mutex<MemState>>,
    id: u64,
}

impl SpoolFile for MemSpoolFile {
    fn write_all(&mut self, buf: &[u8]) -> io::Result<()> {
        let mut s = self.state.lock().expect("spoolfs state poisoned");
        s.gate(buf.len() as u64)?;
        let clock = s.clock_ms;
        let f = s
            .files
            .get_mut(&self.id)
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, "file removed"))?;
        f.data.extend_from_slice(buf);
        f.wtime_ms = clock;
        Ok(())
    }

    fn sync(&mut self) -> io::Result<()> {
        let mut s = self.state.lock().expect("spoolfs state poisoned");
        s.gate(0)?;
        let f = s
            .files
            .get_mut(&self.id)
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, "file removed"))?;
        f.synced = f.data.len();
        Ok(())
    }
}

impl SpoolFs for FaultFs {
    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        let mut s = self.lock();
        s.gate(0)?;
        let path = path.to_path_buf();
        if !s.dirs.contains(&path) {
            s.dirs.push(path);
        }
        Ok(())
    }

    fn read_dir(&self, path: &Path) -> io::Result<Vec<PathBuf>> {
        let mut s = self.lock();
        s.gate(0)?;
        Ok(s.namespace
            .keys()
            .filter(|p| p.parent() == Some(path))
            .cloned()
            .collect())
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        let mut s = self.lock();
        s.gate(0)?;
        s.reads += 1;
        let id = s.id_of(path)?;
        let mut data = s.files[&id].data.clone();
        if s.cfg.corrupt_read_nth == Some(s.reads) && !data.is_empty() {
            let bit = s.rng_next() % (data.len() as u64 * 8);
            data[usize::try_from(bit / 8).expect("in range")] ^= 1 << (bit % 8);
        }
        Ok(data)
    }

    fn file_len(&self, path: &Path) -> io::Result<u64> {
        let mut s = self.lock();
        s.gate(0)?;
        let id = s.id_of(path)?;
        Ok(s.files[&id].data.len() as u64)
    }

    fn create(&self, path: &Path) -> io::Result<Box<dyn SpoolFile>> {
        let mut s = self.lock();
        s.gate(0)?;
        let clock = s.clock_ms;
        let id = s.next_id;
        s.next_id += 1;
        s.files.insert(
            id,
            MemFile {
                wtime_ms: clock,
                ..MemFile::default()
            },
        );
        if let Some(old) = s.namespace.insert(path.to_path_buf(), id) {
            s.files.remove(&old);
        }
        Ok(Box::new(MemSpoolFile {
            state: Arc::clone(&self.state),
            id,
        }))
    }

    fn open_append(&self, path: &Path) -> io::Result<Box<dyn SpoolFile>> {
        let mut s = self.lock();
        s.gate(0)?;
        let id = match s.namespace.get(path) {
            Some(&id) => id,
            None => {
                let clock = s.clock_ms;
                let id = s.next_id;
                s.next_id += 1;
                s.files.insert(
                    id,
                    MemFile {
                        wtime_ms: clock,
                        ..MemFile::default()
                    },
                );
                s.namespace.insert(path.to_path_buf(), id);
                id
            }
        };
        Ok(Box::new(MemSpoolFile {
            state: Arc::clone(&self.state),
            id,
        }))
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        let mut s = self.lock();
        s.gate(0)?;
        let id = s.id_of(from)?;
        s.namespace.remove(from);
        if let Some(old) = s.namespace.insert(to.to_path_buf(), id) {
            if old != id {
                s.files.remove(&old);
            }
        }
        Ok(())
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        let mut s = self.lock();
        s.gate(0)?;
        let id = s.id_of(path)?;
        s.namespace.remove(path);
        s.files.remove(&id);
        Ok(())
    }

    fn exists(&self, path: &Path) -> bool {
        let s = self.lock();
        s.namespace.contains_key(path) || s.dirs.iter().any(|d| d == path)
    }

    fn now(&self) -> Duration {
        // Observation advances virtual time, so an owner polling a
        // backoff deadline makes progress even while it skips real
        // operations.
        let mut s = self.lock();
        s.clock_ms += 1;
        Duration::from_millis(s.clock_ms)
    }

    fn age(&self, path: &Path) -> Option<Duration> {
        let s = self.lock();
        let id = *s.namespace.get(path)?;
        Some(Duration::from_millis(
            s.clock_ms.saturating_sub(s.files[&id].wtime_ms),
        ))
    }
}

impl StdFs {
    /// Shared handle as a trait object (the common way the router takes
    /// it).
    #[must_use]
    pub fn shared() -> Arc<dyn SpoolFs> {
        Arc::new(Self::new())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> PathBuf {
        PathBuf::from(s)
    }

    #[test]
    fn std_roundtrip_and_rename() {
        let dir = std::env::temp_dir().join(format!("fib-spoolfs-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let fs = StdFs::new();
        fs.create_dir_all(&dir).unwrap();
        let tmp = dir.join("a.tmp");
        let fin = dir.join("a.img");
        let mut f = fs.create(&tmp).unwrap();
        f.write_all(b"hello").unwrap();
        f.sync().unwrap();
        drop(f);
        fs.rename(&tmp, &fin).unwrap();
        assert_eq!(fs.read(&fin).unwrap(), b"hello");
        assert!(!fs.exists(&tmp));
        assert_eq!(fs.read_dir(&dir).unwrap(), vec![fin.clone()]);
        fs.remove_file(&fin).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The journal rewrite's shape on a real directory: `create` → write →
    /// sync → `rename` over an existing file, each namespace step
    /// followed by a directory sync that must not fail.
    #[test]
    fn std_rename_replaces_the_destination() {
        let dir = std::env::temp_dir().join(format!("fib-spoolfs-rename-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let fs = StdFs::new();
        fs.create_dir_all(&dir).unwrap();
        let (tmp, journal) = (dir.join("journal.tmp"), dir.join("journal.log"));
        for (path, bytes) in [(&journal, &b"old journal"[..]), (&tmp, b"new")] {
            let mut f = fs.create(path).unwrap();
            f.write_all(bytes).unwrap();
            f.sync().unwrap();
        }
        fs.rename(&tmp, &journal).unwrap();
        assert_eq!(
            fs.read(&journal).unwrap(),
            b"new",
            "the destination is replaced"
        );
        assert!(!fs.exists(&tmp), "the source is gone");
        assert_eq!(fs.read_dir(&dir).unwrap(), vec![journal.clone()]);
        // The journal keeps growing through an append handle.
        let mut f = fs.open_append(&journal).unwrap();
        f.write_all(b"+rec").unwrap();
        f.sync().unwrap();
        assert_eq!(fs.read(&journal).unwrap(), b"new+rec");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn fault_fs_mirrors_a_real_fs_when_no_faults_armed() {
        let fs = FaultFs::new(7);
        fs.create_dir_all(&p("/s")).unwrap();
        let mut f = fs.create(&p("/s/x.tmp")).unwrap();
        f.write_all(b"abc").unwrap();
        f.sync().unwrap();
        fs.rename(&p("/s/x.tmp"), &p("/s/x")).unwrap();
        assert_eq!(fs.read(&p("/s/x")).unwrap(), b"abc");
        assert_eq!(fs.file_len(&p("/s/x")).unwrap(), 3);
        assert_eq!(fs.read_dir(&p("/s")).unwrap(), vec![p("/s/x")]);
        let mut g = fs.open_append(&p("/s/x")).unwrap();
        g.write_all(b"de").unwrap();
        assert_eq!(fs.read(&p("/s/x")).unwrap(), b"abcde");
    }

    #[test]
    fn crash_drops_unsynced_tail_and_fails_everything_after() {
        let fs = FaultFs::new(1);
        let mut f = fs.create(&p("/j")).unwrap();
        f.write_all(b"durable!").unwrap();
        f.sync().unwrap();
        f.write_all(b"volatile").unwrap();
        fs.crash_now();
        assert!(f.sync().is_err(), "post-crash ops must fail");
        assert!(fs.read(&p("/j")).is_err());
        let boot = fs.durable_clone();
        assert_eq!(boot.read(&p("/j")).unwrap(), b"durable!");
    }

    #[test]
    fn rename_carries_volatile_content_into_the_crash() {
        // The torn-image scenario: rename before sync, then crash — the
        // final name exists, its content does not.
        let fs = FaultFs::new(2);
        let mut f = fs.create(&p("/e.tmp")).unwrap();
        f.write_all(b"image-bytes").unwrap(); // never synced
        fs.rename(&p("/e.tmp"), &p("/e.img")).unwrap();
        fs.crash_now();
        let boot = fs.durable_clone();
        assert_eq!(boot.read(&p("/e.img")).unwrap(), b"", "tail dropped");
    }

    #[test]
    fn crash_at_op_is_deterministic_and_distinct() {
        let run = |crash_at: u64| {
            let fs = FaultFs::with_config(
                9,
                FaultConfig {
                    crash_at_op: Some(crash_at),
                    ..FaultConfig::default()
                },
            );
            let mut wrote = 0;
            for i in 0..4u8 {
                let Ok(mut f) = fs.create(&p(&format!("/f{i}"))) else {
                    break;
                };
                if f.write_all(&[i; 16]).is_err() || f.sync().is_err() {
                    break;
                }
                wrote += 1;
            }
            (wrote, fs.fingerprint())
        };
        let (w3, fp3) = run(3);
        let (w3b, fp3b) = run(3);
        assert_eq!((w3, fp3), (w3b, fp3b), "same crash point, same state");
        let (_, fp7) = run(7);
        assert_ne!(fp3, fp7, "different crash points differ");
        assert!(w3 < 4);
    }

    #[test]
    fn enospc_and_transient_windows_inject_then_recover() {
        let fs = FaultFs::with_config(
            3,
            FaultConfig {
                fail_ops: Some((2, 4)),
                ..FaultConfig::default()
            },
        );
        let mut f = fs.create(&p("/x")).unwrap(); // op 1
        assert!(f.write_all(b"a").is_err()); // op 2: injected
        assert!(f.write_all(b"a").is_err()); // op 3: injected
        f.write_all(b"a").unwrap(); // op 4: recovered
        let fs = FaultFs::with_config(
            3,
            FaultConfig {
                enospc_after_bytes: Some(4),
                ..FaultConfig::default()
            },
        );
        let mut f = fs.create(&p("/y")).unwrap();
        f.write_all(b"1234").unwrap();
        assert!(f.write_all(b"5").is_err(), "disk full");
        fs.reconfigure(|c| c.enospc_after_bytes = None);
        f.write_all(b"5").unwrap();
    }

    #[test]
    fn read_corruption_flips_exactly_one_transient_bit() {
        let fs = FaultFs::with_config(
            4,
            FaultConfig {
                corrupt_read_nth: Some(1),
                ..FaultConfig::default()
            },
        );
        let mut f = fs.create(&p("/c")).unwrap();
        f.write_all(&[0u8; 32]).unwrap();
        f.sync().unwrap();
        let corrupt = fs.read(&p("/c")).unwrap();
        assert_eq!(corrupt.iter().map(|b| b.count_ones()).sum::<u32>(), 1);
        let clean = fs.read(&p("/c")).unwrap();
        assert_eq!(clean, vec![0u8; 32], "stored bytes untouched");
    }

    #[test]
    fn virtual_clock_advances_on_observation() {
        let fs = FaultFs::new(5);
        let a = fs.now();
        let b = fs.now();
        assert!(b > a);
    }
}
