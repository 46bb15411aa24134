//! The spool seen from outside: a counting, timing [`SpoolFs`] wrapper
//! around the production [`StdFs`], and the temporary directory the
//! spool workload writes into.

use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use fib_router::{SpoolFile, SpoolFs, StdFs};

use crate::hist::LogLinearHist;

/// What the spool did to the filesystem. Counters are plain statistics
/// (`Relaxed`: nothing is published through them).
#[derive(Debug)]
pub struct SpoolCounters {
    /// `SpoolFile::sync` calls (each an `fdatasync`).
    pub fsyncs: AtomicU64,
    /// Bytes appended to the journal.
    pub journal_bytes: AtomicU64,
    /// Bytes written to epoch images (the `.tmp` files later renamed).
    pub spill_bytes: AtomicU64,
    /// `rename` calls.
    pub renames: AtomicU64,
    sync_us: Mutex<LogLinearHist>,
    write_us: Mutex<LogLinearHist>,
}

/// A point-in-time copy of the exact counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SpoolCounts {
    /// See [`SpoolCounters::fsyncs`].
    pub fsyncs: u64,
    /// See [`SpoolCounters::journal_bytes`].
    pub journal_bytes: u64,
    /// See [`SpoolCounters::spill_bytes`].
    pub spill_bytes: u64,
    /// See [`SpoolCounters::renames`].
    pub renames: u64,
}

impl SpoolCounters {
    fn new() -> Self {
        Self {
            fsyncs: AtomicU64::new(0),
            journal_bytes: AtomicU64::new(0),
            spill_bytes: AtomicU64::new(0),
            renames: AtomicU64::new(0),
            sync_us: Mutex::new(LogLinearHist::new(16.0)),
            write_us: Mutex::new(LogLinearHist::new(16.0)),
        }
    }

    /// The exact counters now.
    #[must_use]
    pub fn counts(&self) -> SpoolCounts {
        SpoolCounts {
            fsyncs: self.fsyncs.load(Ordering::Relaxed),
            journal_bytes: self.journal_bytes.load(Ordering::Relaxed),
            spill_bytes: self.spill_bytes.load(Ordering::Relaxed),
            renames: self.renames.load(Ordering::Relaxed),
        }
    }

    /// Median microseconds of one `sync` and of one `write_all`.
    #[must_use]
    pub fn p50_us(&self) -> (f64, f64) {
        let p50 = |h: &Mutex<LogLinearHist>| h.lock().expect("hist lock").quantile(0.5);
        (p50(&self.sync_us), p50(&self.write_us))
    }
}

/// [`StdFs`] with every write, sync and rename counted and timed.
#[derive(Debug)]
pub struct CountingFs {
    inner: StdFs,
    counters: Arc<SpoolCounters>,
}

impl CountingFs {
    /// A fresh wrapper and a handle on its counters.
    #[must_use]
    pub fn new() -> (Arc<Self>, Arc<SpoolCounters>) {
        let counters = Arc::new(SpoolCounters::new());
        let fs = Arc::new(Self {
            inner: StdFs::new(),
            counters: Arc::clone(&counters),
        });
        (fs, counters)
    }

    fn wrap(&self, path: &Path, file: Box<dyn SpoolFile>) -> Box<dyn SpoolFile> {
        Box::new(CountingFile {
            inner: file,
            image: path.extension().is_some_and(|e| e == "tmp"),
            counters: Arc::clone(&self.counters),
        })
    }
}

struct CountingFile {
    inner: Box<dyn SpoolFile>,
    image: bool,
    counters: Arc<SpoolCounters>,
}

fn micros(since: Instant) -> f64 {
    since.elapsed().as_nanos() as f64 / 1e3
}

impl SpoolFile for CountingFile {
    fn write_all(&mut self, buf: &[u8]) -> io::Result<()> {
        let start = Instant::now();
        let result = self.inner.write_all(buf);
        let counter = if self.image {
            &self.counters.spill_bytes
        } else {
            &self.counters.journal_bytes
        };
        counter.fetch_add(buf.len() as u64, Ordering::Relaxed);
        let mut hist = self.counters.write_us.lock().expect("hist lock");
        hist.record(micros(start));
        result
    }

    fn sync(&mut self) -> io::Result<()> {
        let start = Instant::now();
        let result = self.inner.sync();
        self.counters.fsyncs.fetch_add(1, Ordering::Relaxed);
        let mut hist = self.counters.sync_us.lock().expect("hist lock");
        hist.record(micros(start));
        result
    }
}

impl SpoolFs for CountingFs {
    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        self.inner.create_dir_all(path)
    }

    fn read_dir(&self, path: &Path) -> io::Result<Vec<PathBuf>> {
        self.inner.read_dir(path)
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        self.inner.read(path)
    }

    fn file_len(&self, path: &Path) -> io::Result<u64> {
        self.inner.file_len(path)
    }

    fn create(&self, path: &Path) -> io::Result<Box<dyn SpoolFile>> {
        Ok(self.wrap(path, self.inner.create(path)?))
    }

    fn open_append(&self, path: &Path) -> io::Result<Box<dyn SpoolFile>> {
        Ok(self.wrap(path, self.inner.open_append(path)?))
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        self.counters.renames.fetch_add(1, Ordering::Relaxed);
        self.inner.rename(from, to)
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        self.inner.remove_file(path)
    }

    fn exists(&self, path: &Path) -> bool {
        self.inner.exists(path)
    }

    fn now(&self) -> Duration {
        self.inner.now()
    }

    fn age(&self, path: &Path) -> Option<Duration> {
        self.inner.age(path)
    }
}

/// A directory unique to this process and call, removed when dropped —
/// on success, on an error return, and while a panic unwinds. It lives
/// beside the benchmark's own executable, so nothing is written outside
/// the build directory of the checkout being measured.
#[derive(Debug)]
pub struct TempDir {
    path: PathBuf,
}

impl TempDir {
    /// Creates the directory.
    ///
    /// # Errors
    /// The executable's directory cannot be found or written to.
    pub fn new(label: &str) -> io::Result<Self> {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let exe = std::env::current_exe()?;
        let base = exe
            .parent()
            .ok_or_else(|| io::Error::other("executable has no parent directory"))?;
        let path = base.join("fib-benchmark-tmp").join(format!(
            "{label}-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&path)?;
        Ok(Self { path })
    }

    /// The directory.
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        // Best effort: a failure to clean up must not mask the result
        // (or abort an unwinding panic).
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shim_counts_what_passes_through_it() {
        let dir = TempDir::new("shim-test").unwrap();
        let (fs, counters) = CountingFs::new();
        let tmp = dir.path().join("epoch-1.tmp");
        let mut image = fs.create(&tmp).unwrap();
        image.write_all(&[0u8; 100]).unwrap();
        image.sync().unwrap();
        drop(image);
        fs.rename(&tmp, &dir.path().join("epoch-1.fibimage"))
            .unwrap();
        let mut journal = fs.open_append(&dir.path().join("journal.log")).unwrap();
        journal.write_all(&[0u8; 24]).unwrap();
        journal.sync().unwrap();
        assert_eq!(
            counters.counts(),
            SpoolCounts {
                fsyncs: 2,
                journal_bytes: 24,
                spill_bytes: 100,
                renames: 1,
            }
        );
        let (sync_us, write_us) = counters.p50_us();
        assert!(sync_us > 0.0 && write_us >= 0.0);
    }

    #[test]
    fn temp_dirs_are_unique_and_removed_even_on_panic() {
        let a = TempDir::new("guard").unwrap();
        let b = TempDir::new("guard").unwrap();
        assert_ne!(a.path(), b.path());
        let (path_a, path_b) = (a.path().to_path_buf(), b.path().to_path_buf());
        drop(a);
        assert!(!path_a.exists());
        let unwound = std::panic::catch_unwind(move || {
            let _held = b;
            panic!("boom");
        });
        assert!(unwound.is_err());
        assert!(!path_b.exists());
    }
}
