//! Durable-spool lifecycle: the crash-consistent write protocol, the
//! journal format, the health state machine that replaces one-strike
//! breakage, quarantine for corrupt images, and the offline status scan.
//!
//! # Write protocol
//!
//! **`publish()` is the durability point.** Every accepted update is
//! written to the journal file at once — a process that dies keeps
//! whatever the kernel already holds — but not synced; the publish that
//! follows issues *one* sync for everything appended since the last
//! (group commit). An update is durable once the `publish()` after it
//! returns with the spool `Healthy`; a crash loses at most the
//! unpublished tail, and because records are appended in order and
//! replay stops at the first torn one, what it recovers is always a
//! prefix of the update sequence.
//!
//! A full epoch image is written only when there is none yet, when the
//! journal has outgrown [`SpoolConfig::journal_fold_bytes`] (a *fold*),
//! or when recovery or a scrub forces one. It lands via **temp file →
//! `fsync` → atomic rename**, so the final `epoch-*.img` name only ever
//! points at durable, complete bytes; a crash mid-spill leaves at worst
//! a stray `.tmp` the next retention pass sweeps. The journal is reset
//! *after* the image rename: until the new image is durable, the old
//! image plus the old journal stamped with its epoch still cover every
//! acknowledged update; once the new image is renamed into place it
//! holds all of them, and the old journal no longer applies (see
//! [Recovery](#recovery)). Retention runs last and only ever deletes
//! images older than the configured keep set — at every instant the
//! newest durable image, plus the journal when it applies on top of it,
//! holds every acknowledged update.
//!
//! On a real filesystem every `create` and `rename` also syncs the
//! directory it lands in before it returns ([`crate::StdFs`]), so a renamed
//! image, a rewritten journal or a freshly created one cannot vanish from
//! the namespace in a power cut after its bytes were synced.
//!
//! # Recovery
//!
//! A warm restart serves the newest epoch image that lints clean,
//! decodes, carries a routes section and the router's engine can view;
//! an image the lint flags is moved to `quarantine/` with a typed reason
//! file. The journal applies on top of that image only when its header
//! names the image's own epoch — the one rule replay, re-arm and
//! [`SpoolStatus::journal_bridges`] share; any other journal is
//! restamped, never replayed. One that ends in a torn or bit-flipped tail
//! is first rewritten to its valid prefix (temp file → `fsync` → rename):
//! appends behind the damage would sit past where the next replay stops.
//!
//! An older journal must not be replayed: an image holds every record of
//! the journals before it, and may hold more — an update whose append
//! failed (the spool degraded) is in no journal, only in the recovery
//! re-spill's image. A crash before that spill's journal reset leaves the
//! old journal beside the newer image, and an older record for a prefix
//! the unjournaled update changed would revert it: a FIB that never
//! existed. A *newer* journal (the restart fell back past a corrupt
//! image) cannot bridge the records in between either. For the rule to
//! hold, no two images may carry one epoch: a recovery re-spill with no
//! publish since the last image cuts a fresh epoch first
//! (`Spool::respills_over`), so the journal stamped with the image it
//! replaces never matches it.
//!
//! # Journal format (`FIBJRNL2`)
//!
//! Header: magic (8) + base epoch (8). Records are 24 bytes: tag (1),
//! prefix length (1), FNV-folded checksum (2), next-hop (4), address
//! (16). The per-record checksum is what lets replay stop at a torn or
//! bit-flipped tail instead of applying garbage — `FIBJRNL1` had only a
//! length sanity check, which random bytes pass 1 time in 5 for IPv4.

use std::cmp::Reverse;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

use fib_core::{FibImage, ImageError};

use crate::router::RouterStats;
use crate::spoolfs::{SpoolFile, SpoolFs};

/// On-disk journal record size: op (1) + prefix length (1) + checksum
/// (2) + next-hop (4) + address (16).
const JOURNAL_RECORD: usize = 24;
/// Journal header: magic (8) + base epoch (8).
const JOURNAL_HEADER: usize = 16;
const JOURNAL_MAGIC: &[u8; 8] = b"FIBJRNL2";

/// A decoded journal record: `(tag, prefix length, next-hop, address)`.
pub(crate) type JournalRecord = (u8, u8, u32, u128);

/// Folds FNV-1a over a record's non-checksum bytes down to 16 bits.
fn record_checksum(rec: &[u8; JOURNAL_RECORD]) -> u16 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for (i, &b) in rec.iter().enumerate() {
        if i == 2 || i == 3 {
            continue; // the checksum's own slot
        }
        h = (h ^ u64::from(b)).wrapping_mul(0x100_0000_01B3);
    }
    (h ^ (h >> 16) ^ (h >> 32) ^ (h >> 48)) as u16
}

/// Encodes one journal record (checksum stamped).
pub(crate) fn encode_record(tag: u8, len: u8, nh: u32, addr: u128) -> [u8; JOURNAL_RECORD] {
    let mut rec = [0u8; JOURNAL_RECORD];
    rec[0] = tag;
    rec[1] = len;
    rec[4..8].copy_from_slice(&nh.to_le_bytes());
    rec[8..24].copy_from_slice(&addr.to_le_bytes());
    let sum = record_checksum(&rec);
    rec[2..4].copy_from_slice(&sum.to_le_bytes());
    rec
}

/// Decodes one journal record, verifying its checksum: `None` for a
/// torn/corrupt record (replay must stop there). The
/// [`SpoolMutant::ReplayPastTail`] protocol mutant skips the
/// verification — the bug the checksum exists to make detectable.
fn decode_record(rec: &[u8], mutant: SpoolMutant) -> Option<JournalRecord> {
    let rec: &[u8; JOURNAL_RECORD] = rec.try_into().ok()?;
    if mutant != SpoolMutant::ReplayPastTail {
        let stored = u16::from_le_bytes([rec[2], rec[3]]);
        if stored != record_checksum(rec) {
            return None;
        }
    }
    let nh = u32::from_le_bytes(rec[4..8].try_into().expect("4 bytes"));
    let addr = u128::from_le_bytes(rec[8..24].try_into().expect("16 bytes"));
    Some((rec[0], rec[1], nh, addr))
}

/// Decodes a journal file for a `width`-bit address family into its base
/// epoch, the records replay applies — each tagged `b'A'` or `b'W'` —
/// and the bytes left past the last of them. Records end at the first
/// that fails its checksum, names an unknown op or does not fit
/// `width`: a torn or bit-flipped tail. `None` when the header is short
/// or not `FIBJRNL2`.
///
/// The [`SpoolMutant::ReplayPastTail`] protocol mutant makes none of
/// those stops and forces whatever it reads into range.
fn read_journal(
    buf: &[u8],
    width: u8,
    mutant: SpoolMutant,
) -> Option<(u64, Vec<JournalRecord>, u64)> {
    if buf.len() < JOURNAL_HEADER || &buf[..8] != JOURNAL_MAGIC {
        return None;
    }
    let base_epoch = u64::from_le_bytes(buf[8..16].try_into().expect("8 bytes"));
    let body = &buf[JOURNAL_HEADER..];
    let addr_mask = if width < 128 {
        (1u128 << width) - 1
    } else {
        u128::MAX
    };
    let mut records = Vec::new();
    for rec in body.chunks_exact(JOURNAL_RECORD) {
        let Some((tag, len, nh, addr)) = decode_record(rec, mutant) else {
            break;
        };
        if mutant == SpoolMutant::ReplayPastTail {
            let tag = if tag == b'W' { b'W' } else { b'A' };
            records.push((tag, len.min(width), nh, addr & addr_mask));
            continue;
        }
        if !matches!(tag, b'A' | b'W') || len > width || addr & !addr_mask != 0 {
            break;
        }
        records.push((tag, len, nh, addr));
    }
    let torn_bytes = (body.len() - records.len() * JOURNAL_RECORD) as u64;
    Some((base_epoch, records, torn_bytes))
}

/// Seeded persistence-protocol bugs for the crash-recovery harness's
/// mutation-kill pass. [`SpoolMutant::None`] in production; the others
/// must each be caught by the `crates/check` crash enumeration.
#[doc(hidden)]
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum SpoolMutant {
    /// The correct protocol.
    #[default]
    None,
    /// Never fsync — images and journal records ride on luck.
    SkipFsync,
    /// Rename the temp image into place *before* syncing its bytes, so
    /// the durable name can point at volatile content.
    RenameBeforeSync,
    /// Replay journal records without checksum/width validation and do
    /// not stop at the first bad record.
    ReplayPastTail,
    /// `publish()` returns without its commit sync: journal records are
    /// acknowledged while still volatile. Spills sync as they should.
    AckBeforeSync,
}

/// Spool lifecycle policy.
#[derive(Clone, Copy, Debug)]
pub struct SpoolConfig {
    /// Checkpoint images retained *in addition to* the newest one
    /// (retention keeps `keep + 1` epoch images total).
    pub keep: usize,
    /// When the on-disk journal exceeds this many bytes, the router
    /// folds it into a fresh image at the next update (a publish). It
    /// is the only steady-state trigger of a full image, so it trades
    /// image writes against the records a warm restart replays.
    pub journal_fold_bytes: u64,
    /// First retry backoff after a persistence failure.
    pub retry_base: Duration,
    /// Backoff ceiling for the exponential schedule.
    pub retry_max: Duration,
    /// Consecutive failed retries before the spool suspends (manual
    /// [`resume`](crate::Router::resume_spool) required).
    pub max_retries: u32,
    /// Protocol mutant under test ([`SpoolMutant::None`] in production).
    #[doc(hidden)]
    pub mutant: SpoolMutant,
}

impl Default for SpoolConfig {
    fn default() -> Self {
        Self {
            keep: 2,
            journal_fold_bytes: 1 << 20,
            retry_base: Duration::from_millis(100),
            retry_max: Duration::from_secs(10),
            max_retries: 6,
            mutant: SpoolMutant::None,
        }
    }
}

/// Spool persistence health, as seen by operators. Forwarding never
/// stops in any state — what degrades is durability, not lookups.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SpoolHealth {
    /// Appends, commits and spills are landing: every update accepted
    /// before the last `publish()` returned is durable.
    Healthy,
    /// A persistence operation failed; retries are scheduled with
    /// exponential backoff. Updates made while degraded are *not*
    /// journaled — recovery re-spills the full current epoch instead.
    Degraded {
        /// Consecutive failures so far.
        retries: u32,
        /// Current backoff delay before the next retry.
        backoff: Duration,
        /// The most recent failure.
        error: String,
    },
    /// Retries exhausted; the spool stays down until
    /// [`resume`](crate::Router::resume_spool) is called (e.g. after an
    /// operator frees disk space).
    Suspended {
        /// The failure that exhausted the retry budget.
        error: String,
    },
}

impl SpoolHealth {
    /// Whether the spool is accepting writes.
    #[must_use]
    pub fn is_healthy(&self) -> bool {
        matches!(self, Self::Healthy)
    }
}

impl std::fmt::Display for SpoolHealth {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Healthy => f.write_str("healthy"),
            Self::Degraded {
                retries, backoff, ..
            } => {
                write!(f, "degraded (retries {retries}, backoff {backoff:?})")
            }
            Self::Suspended { error } => write!(f, "suspended ({error})"),
        }
    }
}

#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
enum HealthPhase {
    #[default]
    Healthy,
    Degraded,
    Suspended,
}

/// The retry/backoff state machine behind [`SpoolHealth`].
#[derive(Debug, Default)]
struct HealthState {
    phase: HealthPhase,
    retries: u32,
    backoff: Duration,
    /// Virtual-clock deadline of the next retry attempt.
    next_retry: Duration,
    last_error: Option<String>,
    /// Degraded/Suspended → Healthy transitions (re-spill verified).
    recoveries: u64,
}

impl HealthState {
    fn view(&self) -> SpoolHealth {
        match self.phase {
            HealthPhase::Healthy => SpoolHealth::Healthy,
            HealthPhase::Degraded => SpoolHealth::Degraded {
                retries: self.retries,
                backoff: self.backoff,
                error: self.last_error.clone().unwrap_or_default(),
            },
            HealthPhase::Suspended => SpoolHealth::Suspended {
                error: self.last_error.clone().unwrap_or_default(),
            },
        }
    }

    fn is_healthy(&self) -> bool {
        self.phase == HealthPhase::Healthy
    }

    fn is_suspended(&self) -> bool {
        self.phase == HealthPhase::Suspended
    }

    /// Records a persistence failure at virtual time `now`: bumps the
    /// exponential backoff, suspends past the retry budget.
    fn note_failure(&mut self, cfg: &SpoolConfig, now: Duration, error: String) {
        self.retries = self.retries.saturating_add(1);
        self.last_error = Some(error);
        if self.retries > cfg.max_retries {
            self.phase = HealthPhase::Suspended;
            return;
        }
        let shift = self.retries.saturating_sub(1).min(20);
        self.backoff = cfg.retry_max.min(cfg.retry_base.saturating_mul(1 << shift));
        self.next_retry = now + self.backoff;
        self.phase = HealthPhase::Degraded;
    }

    /// Records a successful persistence operation: an unhealthy spool
    /// counts a recovery and returns to `Healthy`.
    fn note_success(&mut self) {
        if self.phase != HealthPhase::Healthy {
            self.recoveries += 1;
        }
        self.phase = HealthPhase::Healthy;
        self.retries = 0;
        self.backoff = Duration::ZERO;
        self.last_error = None;
    }

    /// Whether a degraded spool's backoff has elapsed (a retry is due).
    fn retry_due(&self, now: Duration) -> bool {
        self.phase == HealthPhase::Degraded && now >= self.next_retry
    }

    /// Operator re-arm: a suspended (or degraded) spool becomes
    /// immediately retryable with a fresh retry budget.
    fn resume(&mut self) {
        if self.phase != HealthPhase::Healthy {
            self.phase = HealthPhase::Degraded;
            self.retries = 0;
            self.backoff = Duration::ZERO;
            self.next_retry = Duration::ZERO;
        }
    }
}

/// Why a warm restart could not come up.
#[derive(Debug)]
pub enum RestartError {
    /// The spool directory holds no loadable image with a routes section.
    NoValidImage,
    /// Filesystem failure scanning the spool.
    Io(String),
    /// The newest image failed to decode for the requested engine.
    Image(ImageError),
    /// Every candidate failed validation; the message is the typed lint
    /// reason the last one was quarantined with.
    Quarantined(String),
}

impl std::fmt::Display for RestartError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::NoValidImage => write!(f, "no valid FIB image in the spool directory"),
            Self::Io(e) => write!(f, "spool i/o error: {e}"),
            Self::Image(e) => write!(f, "spool image error: {e}"),
            Self::Quarantined(reason) => write!(f, "all spool images quarantined; last: {reason}"),
        }
    }
}

impl std::error::Error for RestartError {}

/// Durable-spool state: where epoch images are spilled, the update
/// journal bridging the gap since the last spill, and the health
/// machine deciding whether writes are attempted at all — every health
/// rule is applied in here.
pub(crate) struct Spool {
    fs: Arc<dyn SpoolFs>,
    dir: PathBuf,
    cfg: SpoolConfig,
    journal: Option<Box<dyn SpoolFile>>,
    /// Records were appended since the journal was last synced.
    uncommitted: bool,
    /// Bytes in the journal file (header included).
    journal_bytes: u64,
    /// Newest epoch with a spilled image.
    last_spilled: Option<u64>,
    health: HealthState,
    /// Images moved to quarantine by this router (restart + scrub).
    quarantined: u64,
}

fn image_path(dir: &Path, epoch: u64) -> PathBuf {
    dir.join(format!("epoch-{epoch:016x}.img"))
}

fn journal_path(dir: &Path) -> PathBuf {
    dir.join("journal.log")
}

/// Parses `epoch-{hex}.img` names back to their epoch.
fn parse_image_name(path: &Path) -> Option<u64> {
    let name = path.file_name()?.to_str()?;
    let hex = name.strip_prefix("epoch-")?.strip_suffix(".img")?;
    u64::from_str_radix(hex, 16).ok()
}

/// Epoch images as `(epoch, path)`, newest first.
type Images = Vec<(u64, PathBuf)>;

/// The one listing of a spool directory: its epoch images, and the stray
/// `.tmp` files a crash mid-spill left behind.
fn list_images(fs: &dyn SpoolFs, dir: &Path) -> io::Result<(Images, Vec<PathBuf>)> {
    let (mut images, mut temps) = (Vec::new(), Vec::new());
    for path in fs.read_dir(dir)? {
        if let Some(epoch) = parse_image_name(&path) {
            images.push((epoch, path));
        } else if path.extension().is_some_and(|e| e == "tmp") {
            temps.push(path);
        }
    }
    images.sort_by_key(|&(epoch, _)| Reverse(epoch));
    Ok((images, temps))
}

/// Whether a journal stamped `journal_epoch` applies on top of the image
/// of `image_epoch`: only one started on that very image does.
fn journal_applies(journal_epoch: u64, image_epoch: u64) -> bool {
    journal_epoch == image_epoch
}

impl Spool {
    /// Arms a spool on `dir`. Only directory creation is fallible here;
    /// journal/image write failures later degrade health instead.
    pub(crate) fn arm(fs: Arc<dyn SpoolFs>, dir: PathBuf, cfg: SpoolConfig) -> io::Result<Self> {
        fs.create_dir_all(&dir)?;
        Ok(Self {
            fs,
            dir,
            cfg,
            journal: None,
            uncommitted: false,
            journal_bytes: 0,
            last_spilled: None,
            health: HealthState::default(),
            quarantined: 0,
        })
    }

    /// Warm restart up to the control FIB (see [Recovery](self#recovery)):
    /// the newest image `serves` accepts, and the journal re-armed on it.
    /// Returns the armed spool, the image, its epoch and the `width`-bit
    /// journal records to replay onto the image's routes.
    pub(crate) fn recover(
        fs: Arc<dyn SpoolFs>,
        dir: &Path,
        cfg: SpoolConfig,
        width: u8,
        serves: impl Fn(&FibImage) -> Result<(), ImageError>,
    ) -> Result<(Self, FibImage, u64, Vec<JournalRecord>), RestartError> {
        let dir_error = |e: io::Error| RestartError::Io(format!("{}: {e}", dir.display()));
        let (images, _) = list_images(fs.as_ref(), dir).map_err(dir_error)?;
        let mut quarantined = 0u64;
        let mut load = |path: &Path| {
            let bytes = fs.read(path).map_err(|e| RestartError::Io(e.to_string()))?;
            if let Some((issue, moved)) = quarantine_flagged(fs.as_ref(), dir, path, &bytes) {
                quarantined += u64::from(moved);
                return Err(RestartError::Quarantined(issue));
            }
            let image = FibImage::from_bytes(&bytes).map_err(RestartError::Image)?;
            // A lint-clean image the engine cannot serve belongs to a
            // different engine/family: honest data, skipped in place.
            serves(&image).map_err(RestartError::Image)?;
            let no_routes = ImageError::MissingSection(fib_core::image::sections::ROUTES);
            image
                .has_routes()
                .then_some(image)
                .ok_or(RestartError::Image(no_routes))
        };
        let mut last_error = RestartError::NoValidImage;
        let Some((epoch, image)) = images.iter().find_map(|(epoch, path)| {
            let loaded = load(path).map_err(|e| last_error = e);
            loaded.ok().map(|image| (*epoch, image))
        }) else {
            return Err(last_error);
        };

        // A missing, short or unreadable header is restamped too: it would
        // hide whatever is appended behind it.
        let journal = fs
            .read(&journal_path(dir))
            .ok()
            .and_then(|buf| read_journal(&buf, width, cfg.mutant));
        let mut spool = Self::arm(fs, dir.to_path_buf(), cfg).map_err(dir_error)?;
        spool.last_spilled = Some(epoch);
        spool.quarantined = quarantined;
        let (records, rearmed) = match journal {
            Some((base, records, torn_bytes)) if journal_applies(base, epoch) => {
                let rearmed = if torn_bytes > 0 {
                    spool.rewrite_journal(epoch, &records)
                } else {
                    spool.open_journal_append()
                };
                (records, rearmed)
            }
            _ => (Vec::new(), spool.reset_journal(epoch)),
        };
        if let Err(e) = rearmed {
            let now = spool.fs.now();
            spool.fail(now, &e);
        }
        Ok((spool, image, epoch, records))
    }

    /// Fills in the spool's fields of `stats`.
    pub(crate) fn count(&self, stats: &mut RouterStats) {
        stats.spool = Some(self.health.view());
        stats.spool_recoveries = self.health.recoveries;
        stats.quarantined = self.quarantined;
    }

    /// Notes a persistence failure observed at `now`.
    fn fail(&mut self, now: Duration, error: &io::Error) {
        self.health.note_failure(&self.cfg, now, error.to_string());
    }

    /// Starts a journal file at `path` — the header stamped with the
    /// epoch its records apply on top of, then `records`, one sync — and
    /// keeps it open for appends.
    fn start_journal(
        &mut self,
        path: &Path,
        epoch: u64,
        records: &[JournalRecord],
    ) -> io::Result<()> {
        let mut bytes = Vec::with_capacity(JOURNAL_HEADER + records.len() * JOURNAL_RECORD);
        bytes.extend_from_slice(JOURNAL_MAGIC);
        bytes.extend_from_slice(&epoch.to_le_bytes());
        for &(tag, len, nh, addr) in records {
            bytes.extend_from_slice(&encode_record(tag, len, nh, addr));
        }
        let mut f = self.fs.create(path)?;
        f.write_all(&bytes)?;
        if self.cfg.mutant != SpoolMutant::SkipFsync {
            f.sync()?;
        }
        self.journal = Some(f);
        self.uncommitted = false;
        self.journal_bytes = bytes.len() as u64;
        Ok(())
    }

    /// Truncates the journal and stamps it with the epoch its future
    /// records apply on top of.
    fn reset_journal(&mut self, epoch: u64) -> io::Result<()> {
        self.start_journal(&journal_path(&self.dir), epoch, &[])
    }

    /// Replaces the journal with exactly `records` on base `epoch`: temp
    /// file → sync → rename, so a crash at any point leaves the old file
    /// or the new one, never fewer durable records than before.
    fn rewrite_journal(&mut self, epoch: u64, records: &[JournalRecord]) -> io::Result<()> {
        let tmp = self.dir.join("journal.tmp");
        self.start_journal(&tmp, epoch, records)?;
        self.fs.rename(&tmp, &journal_path(&self.dir))
    }

    /// Re-opens the existing journal in append mode (warm restart). Its
    /// records may have outlived a dead process in the kernel's cache
    /// only, so they count as uncommitted until the next publish.
    fn open_journal_append(&mut self) -> io::Result<()> {
        let path = journal_path(&self.dir);
        let f = self.fs.open_append(&path)?;
        self.journal = Some(f);
        self.journal_bytes = self.fs.file_len(&path).unwrap_or(0);
        self.uncommitted = self.journal_bytes > JOURNAL_HEADER as u64;
        Ok(())
    }

    /// The open journal file.
    fn journal(&mut self) -> io::Result<&mut Box<dyn SpoolFile>> {
        self.journal
            .as_mut()
            .ok_or_else(|| io::Error::other("journal not armed"))
    }

    /// Journals one record when healthy: written through to the file (a
    /// process that dies keeps it), durable after the next
    /// [`Self::commit`]. A degraded spool journals nothing and returns
    /// whether its retry is due — the caller then re-spills.
    #[must_use]
    pub(crate) fn append(&mut self, rec: &[u8; JOURNAL_RECORD]) -> bool {
        if self.health.is_suspended() {
            return false;
        }
        let now = self.fs.now();
        if !self.health.is_healthy() {
            return self.health.retry_due(now);
        }
        match self.journal().and_then(|f| f.write_all(rec)) {
            Ok(()) => {
                self.uncommitted = true;
                self.journal_bytes += JOURNAL_RECORD as u64;
            }
            Err(e) => self.fail(now, &e),
        }
        false
    }

    /// Makes every record a healthy spool appended so far durable with
    /// one sync (none when nothing was appended since the last).
    pub(crate) fn commit(&mut self) {
        if !self.health.is_healthy() || !self.uncommitted {
            return;
        }
        if !matches!(
            self.cfg.mutant,
            SpoolMutant::SkipFsync | SpoolMutant::AckBeforeSync
        ) {
            if let Err(e) = self.journal().and_then(|f| f.sync()) {
                let now = self.fs.now();
                return self.fail(now, &e);
            }
        }
        self.uncommitted = false;
    }

    /// Whether a healthy spool's journal has outgrown the fold threshold
    /// (time to compact it into a fresh image).
    pub(crate) fn wants_fold(&self) -> bool {
        self.health.is_healthy()
            && self.journal_bytes > self.cfg.journal_fold_bytes + JOURNAL_HEADER as u64
    }

    /// Whether a recovery re-spill at `epoch` would replace the newest
    /// image under its own epoch, where the journal stamped with that
    /// epoch would still apply to it: the caller cuts a fresh epoch first.
    pub(crate) fn respills_over(&self, epoch: u64) -> bool {
        !self.health.is_suspended() && self.last_spilled == Some(epoch)
    }

    /// Lands the `image` of `epoch` ([`Self::land`]) if one is due: a
    /// recovery re-spill (`force`) unless suspended, else only a healthy
    /// spool's first of `epoch`. Returns whether it landed (healthy again).
    pub(crate) fn spill(
        &mut self,
        epoch: u64,
        force: bool,
        image: impl FnOnce() -> Option<Result<Vec<u8>, ImageError>>,
    ) -> bool {
        let due = !self.health.is_suspended()
            && (force || (self.health.is_healthy() && self.last_spilled != Some(epoch)));
        let Some(image) = due.then(image).flatten() else {
            return false;
        };
        let now = self.fs.now();
        match image
            .map_err(io::Error::other)
            .and_then(|bytes| self.land(epoch, &bytes))
        {
            Ok(()) => self.health.note_success(),
            Err(e) => self.fail(now, &e),
        }
        self.health.is_healthy()
    }

    /// Lands `bytes` as the durable image of `epoch` via the
    /// crash-consistent protocol (temp file → fsync → rename), then
    /// resets the journal onto the new base and prunes old checkpoints.
    fn land(&mut self, epoch: u64, bytes: &[u8]) -> io::Result<()> {
        let tmp = self.dir.join(format!("epoch-{epoch:016x}.tmp"));
        let fin = image_path(&self.dir, epoch);
        let mut f = self.fs.create(&tmp)?;
        f.write_all(bytes)?;
        // The mutant that renames first keeps the handle and syncs only
        // at the very end — after the journal reset that the durable
        // image was supposed to license. A crash in between leaves the
        // final name pointing at volatile bytes with the bridging
        // journal already gone: exactly the torn-image data loss the
        // correct order makes impossible.
        let mut late_sync: Option<Box<dyn SpoolFile>> = None;
        match self.cfg.mutant {
            SpoolMutant::None | SpoolMutant::ReplayPastTail | SpoolMutant::AckBeforeSync => {
                f.sync()?;
                drop(f);
                self.fs.rename(&tmp, &fin)?;
            }
            SpoolMutant::SkipFsync => {
                drop(f);
                self.fs.rename(&tmp, &fin)?;
            }
            SpoolMutant::RenameBeforeSync => {
                self.fs.rename(&tmp, &fin)?;
                late_sync = Some(f);
            }
        }
        self.last_spilled = Some(epoch);
        self.reset_journal(epoch)?;
        self.retention();
        if let Some(mut f) = late_sync {
            f.sync()?;
        }
        Ok(())
    }

    /// Prunes epoch images beyond the newest `keep + 1` and sweeps
    /// stray `.tmp` files. Best-effort: a retention failure never
    /// degrades health (the spool is *over*-complete, not broken).
    fn retention(&mut self) {
        let Ok((images, temps)) = list_images(self.fs.as_ref(), &self.dir) else {
            return;
        };
        let pruned = images.iter().skip(self.cfg.keep + 1).map(|(_, path)| path);
        for path in temps.iter().chain(pruned) {
            let _ = self.fs.remove_file(path);
        }
    }

    /// Operator re-arm: a suspended (or degraded) spool becomes
    /// immediately retryable with a fresh retry budget.
    pub(crate) fn resume(&mut self) {
        self.health.resume();
    }

    /// Lints every epoch image and moves the ones it flags to
    /// `quarantine/` with typed reasons. Returns how many it moved and
    /// whether the image of the newest spilled epoch is gone (the caller
    /// re-spills it).
    pub(crate) fn scrub(&mut self) -> (usize, bool) {
        let Ok((images, _)) = list_images(self.fs.as_ref(), &self.dir) else {
            return (0, false);
        };
        let mut moved = 0usize;
        // In directory order: oldest first.
        for (_, path) in images.iter().rev() {
            if let Ok(bytes) = self.fs.read(path) {
                let flagged = quarantine_flagged(self.fs.as_ref(), &self.dir, path, &bytes);
                moved += usize::from(flagged.is_some_and(|(_, landed)| landed));
            }
        }
        self.quarantined += moved as u64;
        let lost_current = self
            .last_spilled
            .is_some_and(|epoch| !self.fs.exists(&image_path(&self.dir, epoch)));
        (moved, lost_current)
    }
}

/// Fully lints image `bytes` read from `path`. Anything flagged is
/// corruption: the file moves to `dir/quarantine/` beside a `<name>.reason`
/// file with the typed lint code plus detail, so an operator (or `fibc
/// spool-status`) sees *why*. Returns the first issue and whether it moved.
fn quarantine_flagged(
    fs: &dyn SpoolFs,
    dir: &Path,
    path: &Path,
    bytes: &[u8],
) -> Option<(String, bool)> {
    let issue = fib_core::lint::lint_bytes(bytes).into_iter().next()?;
    let moved = (|| {
        let qdir = dir.join("quarantine");
        fs.create_dir_all(&qdir)?;
        let name = path
            .file_name()
            .ok_or_else(|| io::Error::other("image path has no file name"))?;
        fs.rename(path, &qdir.join(name))?;
        let mut reason_name = name.to_os_string();
        reason_name.push(".reason");
        let mut reason = fs.create(&qdir.join(reason_name))?;
        reason.write_all(format!("{issue}\n").as_bytes())?;
        reason.sync()
    })();
    Some((issue.to_string(), moved.is_ok()))
}

/// One image's entry in a [`SpoolStatus`] report.
#[derive(Clone, Debug)]
pub struct SpoolImageStatus {
    /// Image file path.
    pub path: PathBuf,
    /// Epoch parsed from the file name.
    pub epoch: u64,
    /// File size in bytes.
    pub bytes: u64,
    /// Lint verdicts (`code: detail`); empty means clean.
    pub issues: Vec<String>,
}

/// Offline report of a spool directory's state — what
/// `fibc spool-status` prints and the serve loop's health ticker reads.
#[derive(Clone, Debug, Default)]
pub struct SpoolStatus {
    /// Every `epoch-*.img` found, newest first.
    pub images: Vec<SpoolImageStatus>,
    /// Total bytes across epoch images.
    pub image_bytes: u64,
    /// Newest epoch whose image lints clean.
    pub newest_valid_epoch: Option<u64>,
    /// Age of the newest valid image, when the filesystem knows it.
    pub newest_age: Option<Duration>,
    /// Journal base epoch (`None`: missing or bad header).
    pub journal_epoch: Option<u64>,
    /// Checksum-valid journal records.
    pub journal_records: u64,
    /// Journal bytes past the last valid record (torn tail).
    pub journal_torn_bytes: u64,
    /// Whether the journal applies on top of the newest valid image.
    pub journal_bridges: bool,
    /// Quarantined images (reason files excluded from the count).
    pub quarantined: usize,
    /// `file: code` lines from quarantine reason files.
    pub quarantine_reasons: Vec<String>,
}

impl SpoolStatus {
    /// A coarse health verdict derivable offline: `ok` when the newest
    /// image lints clean and the journal bridges onto it.
    #[must_use]
    pub fn verdict(&self) -> &'static str {
        if self.newest_valid_epoch.is_some() && self.journal_bridges {
            "ok"
        } else if self.newest_valid_epoch.is_some() {
            "stale-journal"
        } else {
            "no-valid-image"
        }
    }
}

impl std::fmt::Display for SpoolStatus {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "spool {}: {} images ({} KiB), newest valid epoch {}, age {}, journal +{} recs{}, quarantine {}",
            self.verdict(),
            self.images.len(),
            self.image_bytes / 1024,
            self.newest_valid_epoch
                .map_or_else(|| "-".to_string(), |e| e.to_string()),
            self.newest_age
                .map_or_else(|| "-".to_string(), |a| format!("{}s", a.as_secs())),
            self.journal_records,
            if self.journal_torn_bytes > 0 {
                " (torn tail)"
            } else {
                ""
            },
            self.quarantined,
        )
    }
}

/// Scans a spool directory read-only: lints every image, decodes the
/// journal, and counts quarantine. Never mutates the spool.
///
/// # Errors
/// Only when the directory itself cannot be listed; per-file problems
/// land in the report instead.
pub fn scan_spool(fs: &dyn SpoolFs, dir: &Path) -> io::Result<SpoolStatus> {
    let mut status = SpoolStatus::default();
    let (images, _) = list_images(fs, dir)?;
    for (epoch, path) in images {
        let bytes = fs.read(&path).unwrap_or_default();
        let issues: Vec<String> = fib_core::lint::lint_bytes(&bytes)
            .into_iter()
            .map(|i| i.to_string())
            .collect();
        status.image_bytes += bytes.len() as u64;
        status.images.push(SpoolImageStatus {
            path,
            epoch,
            bytes: bytes.len() as u64,
            issues,
        });
    }
    if let Some(best) = status.images.iter().find(|i| i.issues.is_empty()) {
        status.newest_valid_epoch = Some(best.epoch);
        status.newest_age = fs.age(&best.path);
    }

    // The scan does not know the spool's address family: the widest one
    // accepts every record a narrower replay would.
    let journal = fs
        .read(&journal_path(dir))
        .ok()
        .and_then(|buf| read_journal(&buf, 128, SpoolMutant::None));
    if let Some((epoch, records, torn_bytes)) = journal {
        status.journal_epoch = Some(epoch);
        status.journal_records = records.len() as u64;
        status.journal_torn_bytes = torn_bytes;
        status.journal_bridges = status
            .newest_valid_epoch
            .is_some_and(|newest| journal_applies(epoch, newest));
    }

    let qdir = dir.join("quarantine");
    if fs.exists(&qdir) {
        if let Ok(qentries) = fs.read_dir(&qdir) {
            for path in &qentries {
                if path.extension().is_some_and(|e| e == "reason") {
                    let reason = fs
                        .read(path)
                        .ok()
                        .and_then(|b| String::from_utf8(b).ok())
                        .unwrap_or_default();
                    let stem = path.file_stem().unwrap_or_default().to_string_lossy();
                    status
                        .quarantine_reasons
                        .push(format!("{stem}: {}", reason.trim()));
                } else {
                    status.quarantined += 1;
                }
            }
        }
    }
    Ok(status)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spoolfs::FaultFs;

    #[test]
    fn record_roundtrip_and_checksum_rejects_flips() {
        let rec = encode_record(b'A', 24, 7, 0x0A00_0000);
        assert_eq!(
            decode_record(&rec, SpoolMutant::None),
            Some((b'A', 24, 7, 0x0A00_0000))
        );
        for bit in 0..(JOURNAL_RECORD * 8) {
            let mut bad = rec;
            bad[bit / 8] ^= 1 << (bit % 8);
            assert_eq!(
                decode_record(&bad, SpoolMutant::None),
                None,
                "bit {bit} flip must be caught"
            );
        }
        // The mutant is blind to the same flip.
        let mut bad = rec;
        bad[20] ^= 0x40;
        assert!(decode_record(&bad, SpoolMutant::ReplayPastTail).is_some());

        // A whole file: two good records, the flipped one, a partial one.
        let mut file = JOURNAL_MAGIC.to_vec();
        file.extend(9u64.to_le_bytes());
        let wide = encode_record(b'W', 64, 0, 1 << 40);
        for part in [&rec[..], &wide, &bad, &rec[..5]] {
            file.extend(part);
        }
        let good = vec![(b'A', 24, 7, 0x0A00_0000), (b'W', 64, 0, 1 << 40)];
        let read = |width, mutant| read_journal(&file, width, mutant);
        assert_eq!(read(128, SpoolMutant::None), Some((9, good.clone(), 29)));
        // A 32-bit family stops at the record that does not fit it…
        assert_eq!(
            read(32, SpoolMutant::None),
            Some((9, good[..1].to_vec(), 53))
        );
        // …and the mutant stops nowhere, clamping what it reads.
        let (_, forced, torn) = read(32, SpoolMutant::ReplayPastTail).unwrap();
        assert_eq!((forced.len(), torn), (3, 5));
        assert_eq!(forced[1], (b'W', 32, 0, 0));
        assert_eq!(read_journal(&file[..15], 32, SpoolMutant::None), None);
    }

    #[test]
    fn health_machine_backs_off_exponentially_then_suspends() {
        let cfg = SpoolConfig {
            retry_base: Duration::from_millis(10),
            retry_max: Duration::from_millis(50),
            max_retries: 3,
            ..SpoolConfig::default()
        };
        let mut h = HealthState::default();
        assert!(h.is_healthy());
        let mut now = Duration::from_millis(100);
        h.note_failure(&cfg, now, "boom".into());
        let SpoolHealth::Degraded { backoff, .. } = h.view() else {
            panic!("expected degraded");
        };
        assert_eq!(backoff, Duration::from_millis(10));
        assert!(!h.retry_due(now), "backoff not elapsed yet");
        now += Duration::from_millis(10);
        assert!(h.retry_due(now));
        h.note_failure(&cfg, now, "boom".into());
        let SpoolHealth::Degraded { backoff, .. } = h.view() else {
            panic!("expected degraded");
        };
        assert_eq!(backoff, Duration::from_millis(20), "doubled");
        h.note_failure(&cfg, now, "boom".into());
        h.note_failure(&cfg, now, "boom".into());
        assert!(h.is_suspended(), "4th failure > max_retries 3");
        h.resume();
        assert!(h.retry_due(now), "resume makes a retry immediately due");
        h.note_success();
        assert!(h.is_healthy());
        assert_eq!(h.recoveries, 1);
    }

    #[test]
    fn retention_keeps_newest_plus_k_and_sweeps_tmp() {
        let fs = Arc::new(FaultFs::new(11));
        let dir = PathBuf::from("/spool");
        let cfg = SpoolConfig {
            keep: 1,
            ..SpoolConfig::default()
        };
        let mut spool = Spool::arm(fs.clone(), dir.clone(), cfg).unwrap();
        for epoch in 1..=4u64 {
            assert!(spool.spill(epoch, false, || Some(Ok(vec![0xAB; 32]))));
        }
        let left: Vec<u64> = fs
            .paths()
            .iter()
            .filter_map(|p| parse_image_name(p))
            .collect();
        assert_eq!(left, vec![3, 4], "newest + 1 checkpoint survive");
        assert!(
            !fs.paths()
                .iter()
                .any(|p| p.extension().is_some_and(|e| e == "tmp")),
            "no stray temp files"
        );
        let journal = fs.read(&journal_path(&dir)).unwrap();
        assert_eq!(
            read_journal(&journal, 32, SpoolMutant::None),
            Some((4, vec![], 0))
        );
    }

    #[test]
    fn quarantine_moves_image_and_writes_typed_reason() {
        let fs = FaultFs::new(12);
        let dir = PathBuf::from("/spool");
        fs.create_dir_all(&dir).unwrap();
        let img = image_path(&dir, 9);
        let mut f = fs.create(&img).unwrap();
        f.write_all(b"junk").unwrap();
        f.sync().unwrap();
        drop(f);
        let (issue, moved) = quarantine_flagged(&fs, &dir, &img, b"junk").unwrap();
        assert!(moved && issue.starts_with("image-"), "{issue}");
        assert!(!fs.exists(&img));
        assert!(fs.exists(&dir.join("quarantine/epoch-0000000000000009.img")));
        let reason = fs
            .read(&dir.join("quarantine/epoch-0000000000000009.img.reason"))
            .unwrap();
        assert_eq!(reason, format!("{issue}\n").into_bytes());
        let status = scan_spool(&fs, &dir).unwrap();
        assert_eq!(status.quarantined, 1);
        assert_eq!(
            status.quarantine_reasons,
            vec![format!("epoch-0000000000000009.img: {issue}")]
        );
    }
}
