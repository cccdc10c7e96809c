//! Persistent content-addressed store for sweep-cell results.
//!
//! Every simulation in this workspace is a pure function of its serialized
//! inputs — network, [`sm_accel::AccelConfig`], [`sm_core::Policy`],
//! [`sm_core::FaultPlan`] (seed, rates, recovery settings) — and the
//! parallel dispatch preserves order, so a sweep cell's result is
//! byte-trustworthy across processes: recomputing it can only reproduce the
//! same bytes. That makes sweep results safe to memoize on disk, the same
//! argument that backs the in-process tiling-plan memo, lifted to whole
//! cells.
//!
//! * [`cell_key`] derives a stable 128-bit content key from the canonical
//!   JSON of a cell's inputs ([`sm_core::hash::Fnv128`] — no
//!   `RandomState`, stable across processes).
//! * [`KeyedNet`] carries a network's content fingerprint with the network,
//!   so it is computed once, not once per sweep or per cell; [`KeyPrefix`]
//!   hashes a sweep's invariant key head once and only each cell's varying
//!   last field after that. Both produce exactly the [`cell_key`] bytes.
//! * [`ResultCache`] maps key → serialized result under a versioned
//!   directory; every entry carries an integrity checksum, and corrupt,
//!   truncated, or stale entries are rejected, evicted, and recomputed —
//!   never trusted.
//! * [`CacheSession`] is a per-request handle over a shared store: it
//!   observes its own hit/miss/eviction counters, so concurrent service
//!   requests don't smear each other's rates, while the store accumulates
//!   process totals (surfaced like `plan_cache_stats`).
//! * [`run_cells`] runs a sweep by delta simulation: it probes the cache
//!   for every cell and hands **only the missing cells** to
//!   [`sm_core::parallel::par_map_stream`], merging cached and computed
//!   results back into sweep order. A warm re-run that shares most of its
//!   cells simulates only the delta and stays byte-identical to a cold run
//!   at any thread count. Its [`RunCtx`] carries the optional cache session
//!   and the optional cancel check — the deadline/abort hook of the
//!   resident service.
//!
//! # Storage faults, health, and bounds
//!
//! All disk traffic goes through the [`Disk`] trait, so the store runs
//! unchanged over [`RealDisk`] or a fault-injecting
//! [`FaultyDisk`] ([`StoreOptions::faults`]).
//! Three hardening tiers sit on top:
//!
//! * **Evict-and-recompute** — any read failure other than "absent"
//!   (injected `EIO`, bit-flipped content, torn writes caught by the
//!   checksum) is treated exactly like media corruption: the entry is
//!   removed and the cell recomputed. An eviction is *counted* only when
//!   the removal actually succeeded, so two sessions racing on the same
//!   corrupt key never double-count it, and a removal is skipped when an
//!   entry was published since the corrupt read, so it can never delete
//!   the valid entry another session recomputed in the meantime.
//! * **Health state machine** — consecutive write failures walk the store
//!   Healthy → Degraded → Offline ([`StoreHealth`]). Degraded is
//!   read-only: gets still serve hits, and every [`HEALTH_PROBE_EVERY`]-th
//!   put is attempted as a canary probe whose success restores Healthy.
//!   Offline is cache-off passthrough — no disk I/O at all — so a dead
//!   disk degrades the service to uncached serving instead of erroring
//!   every request. Offline is terminal for the open store; reopening
//!   starts Healthy.
//! * **Bounded GC** — with [`StoreOptions::max_bytes`] set, the store
//!   tracks per-entry sizes and logical access times. A put that pushes
//!   the total over the bound triggers batch LRU eviction down to a 3/4
//!   watermark. The survivor set is committed first via a temp+rename
//!   `manifest.json` (the atime sidecar reloaded at open); victim files
//!   are removed only after the manifest rename lands, and a manifest
//!   write failure aborts the GC round entirely — the store never deletes
//!   entries it hasn't first recorded as evicted.

use std::collections::{HashMap, HashSet};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use serde::json::{from_str, to_string, JsonError};
use serde::{Deserialize, Serialize};

use sm_core::hash::{fnv64, Fnv128};
use sm_core::parallel::{par_map_stream, threads, CancelCheck, Cancelled};
use sm_model::Network;

use crate::iofault::{Disk, FaultyDisk, IoFaultPlan, RealDisk};

/// On-disk schema version. Entries live under a `v{N}/` subdirectory and
/// echo the version in their header, so a release that changes the result
/// wire format bumps this constant and every older entry becomes invisible
/// (stale) instead of being misparsed.
pub const CACHE_SCHEMA_VERSION: u32 = 1;

/// Magic tag opening every cache entry header.
const CACHE_MAGIC: &str = "smcas";

/// Atime sidecar written by GC rounds (temp+rename, best-effort).
const MANIFEST_NAME: &str = "manifest.json";

/// Consecutive write failures that demote Healthy → Degraded.
pub const HEALTH_DEGRADE_AFTER: u32 = 3;

/// Consecutive write failures (including failed probes) that demote
/// Degraded → Offline.
pub const HEALTH_OFFLINE_AFTER: u32 = 6;

/// In Degraded, every N-th put is attempted as a canary probe.
pub const HEALTH_PROBE_EVERY: u32 = 4;

/// A stable 128-bit content key naming one cached result.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CacheKey(pub u128);

impl CacheKey {
    /// The 32-hex-digit form used as the entry's file name.
    pub fn hex(&self) -> String {
        format!("{:032x}", self.0)
    }
}

/// Derives the [`CacheKey`] for one sweep cell: the FNV-1a-128 digest of
/// the schema version, a kind tag (e.g. `"chaos-grid-cell"`), and the
/// canonical JSON of the cell's full inputs.
///
/// The inputs value must capture *everything* the cell result is a function
/// of — network content, accelerator config, policy, and the complete fault
/// plan (seed, rates, budgets, recovery policy) — so any single differing
/// field produces a different key. The kind tag keeps two cell types with
/// coincidentally identical input JSON from aliasing.
///
/// # Errors
///
/// Returns [`JsonError`] when the inputs fail to serialize (the derived
/// impls used for cell keys never do).
pub fn cell_key<T: Serialize>(kind: &str, inputs: &T) -> Result<CacheKey, JsonError> {
    let mut h = key_hasher(kind);
    h.update(to_string(inputs)?.as_bytes());
    Ok(CacheKey(h.finish()))
}

/// The hasher state every cell key starts from: schema version, kind tag,
/// separator.
fn key_hasher(kind: &str) -> Fnv128 {
    let mut h = Fnv128::new();
    h.update(&CACHE_SCHEMA_VERSION.to_le_bytes());
    h.update(kind.as_bytes());
    h.update(&[0]);
    h
}

/// The sweep-invariant head of a family of [`cell_key`]s whose inputs
/// differ only in their **last** field (the fault plan of a chaos cell, the
/// config of a capacity sweep's comparison cell).
///
/// The compact JSON of a struct is everything up to `"last":`, then the
/// last field's own JSON, then `}`. A `KeyPrefix` feeds the first part into
/// the hasher once per sweep; [`KeyPrefix::key`] copies that state and
/// hashes only the varying tail. The keys equal `cell_key(kind, inputs)`
/// bit for bit, so stores written either way stay interchangeable.
#[derive(Debug, Clone, Copy)]
pub struct KeyPrefix {
    head: Fnv128,
}

impl KeyPrefix {
    /// The prefix shared by every cell whose inputs agree with `inputs` on
    /// all fields but the last; `last` is `inputs`' own last field (its
    /// value does not matter, only where it sits).
    ///
    /// # Errors
    ///
    /// Returns [`JsonError`] when either value fails to serialize, or when
    /// `last` is not the final field of `inputs`.
    pub fn new<T: Serialize, L: Serialize>(
        kind: &str,
        inputs: &T,
        last: &L,
    ) -> Result<KeyPrefix, JsonError> {
        let body = to_string(inputs)?;
        let tail = to_string(last)?;
        let head = body
            .strip_suffix('}')
            .and_then(|b| b.strip_suffix(tail.as_str()))
            .filter(|head| head.ends_with(':'))
            .ok_or_else(|| JsonError::msg("key prefix: `last` is not the final field"))?;
        let mut h = key_hasher(kind);
        h.update(head.as_bytes());
        Ok(KeyPrefix { head: h })
    }

    /// The key of the cell whose last field is `last`.
    ///
    /// # Errors
    ///
    /// Returns [`JsonError`] when `last` fails to serialize.
    pub fn key<L: Serialize>(&self, last: &L) -> Result<CacheKey, JsonError> {
        let mut h = self.head;
        h.update(to_string(last)?.as_bytes());
        h.update(b"}");
        Ok(CacheKey(h.finish()))
    }
}

/// Hex fingerprint of any serializable value — used to fold a network's
/// full structure (not just its name) into cell keys without re-serializing
/// the whole network once per cell.
///
/// # Errors
///
/// Returns [`JsonError`] when the value fails to serialize.
pub fn content_fingerprint<T: Serialize>(value: &T) -> Result<String, JsonError> {
    Ok(format!("{:032x}", Fnv128::of(to_string(value)?.as_bytes())))
}

/// A network together with its [`content_fingerprint`], computed once when
/// the value is built. Sweeps take a `KeyedNet` and fold the carried
/// fingerprint into every cell key, so no request serializes the same
/// network twice; because the fingerprint travels with the network value
/// it cannot go stale.
#[derive(Debug, Clone)]
pub struct KeyedNet {
    net: Network,
    fingerprint: String,
}

impl KeyedNet {
    /// Fingerprints `net` and keeps both together.
    pub fn new(net: Network) -> KeyedNet {
        let fingerprint = content_fingerprint(&net).expect("networks serialize");
        KeyedNet { net, fingerprint }
    }

    /// The network.
    pub fn net(&self) -> &Network {
        &self.net
    }

    /// The network's content fingerprint (32 hex digits).
    pub fn fingerprint(&self) -> &str {
        &self.fingerprint
    }
}

/// Whether `s` is the `digits`-digit zero-padded lowercase hex form of
/// `value` (what `format!("{value:0digits$x}")` prints for a `value` that
/// fits), checked without allocating.
fn is_hex_of(s: &str, value: u128, digits: usize) -> bool {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    s.len() == digits
        && s.bytes()
            .rev()
            .enumerate()
            .all(|(i, b)| b == HEX[((value >> (4 * i)) & 0xf) as usize])
}

/// Hit/miss/eviction counters of a store or session, in the shape the
/// `plan_cache_stats` counters established.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct CacheStats {
    /// Probes answered from disk with a valid entry.
    pub hits: u64,
    /// Probes that found no usable entry (absent, corrupt, or stale).
    pub misses: u64,
    /// Corrupt or stale entries removed during probes.
    pub evictions: u64,
    /// Payload bytes read back on hits.
    pub bytes_read: u64,
    /// Payload bytes written for new entries.
    pub bytes_written: u64,
    /// Puts whose disk write failed (fed to the health state machine).
    #[serde(default)]
    pub write_failures: u64,
    /// Entries removed by bounded-cache GC rounds (store-wide).
    #[serde(default)]
    pub gc_evictions: u64,
    /// Bytes reclaimed by bounded-cache GC rounds (store-wide).
    #[serde(default)]
    pub gc_bytes_freed: u64,
}

impl CacheStats {
    fn add_to(&self, counters: &Counters) {
        counters.hits.fetch_add(self.hits, Ordering::Relaxed);
        counters.misses.fetch_add(self.misses, Ordering::Relaxed);
        counters
            .evictions
            .fetch_add(self.evictions, Ordering::Relaxed);
        counters
            .bytes_read
            .fetch_add(self.bytes_read, Ordering::Relaxed);
        counters
            .bytes_written
            .fetch_add(self.bytes_written, Ordering::Relaxed);
        counters
            .write_failures
            .fetch_add(self.write_failures, Ordering::Relaxed);
        counters
            .gc_evictions
            .fetch_add(self.gc_evictions, Ordering::Relaxed);
        counters
            .gc_bytes_freed
            .fetch_add(self.gc_bytes_freed, Ordering::Relaxed);
    }
}

#[derive(Debug, Default)]
struct Counters {
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    bytes_read: AtomicU64,
    bytes_written: AtomicU64,
    write_failures: AtomicU64,
    gc_evictions: AtomicU64,
    gc_bytes_freed: AtomicU64,
}

impl Counters {
    fn snapshot(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            bytes_read: self.bytes_read.load(Ordering::Relaxed),
            bytes_written: self.bytes_written.load(Ordering::Relaxed),
            write_failures: self.write_failures.load(Ordering::Relaxed),
            gc_evictions: self.gc_evictions.load(Ordering::Relaxed),
            gc_bytes_freed: self.gc_bytes_freed.load(Ordering::Relaxed),
        }
    }
}

/// Header line of an on-disk entry; the payload JSON follows on line two.
#[derive(Debug, Serialize, Deserialize)]
struct EntryHeader {
    magic: String,
    version: u32,
    key: String,
    len: u64,
    checksum: String,
}

/// Store health, driven by consecutive write failures.
///
/// * `Healthy` — reads and writes both go to disk.
/// * `Degraded` — read-only: gets still serve, puts are skipped except for
///   a canary probe every [`HEALTH_PROBE_EVERY`]-th put. A successful
///   probe restores `Healthy`; continued failures demote to `Offline`.
/// * `Offline` — cache-off passthrough: no disk I/O at all. Terminal for
///   this open store; reopening the directory starts `Healthy` again.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StoreHealth {
    /// Reads and writes both enabled.
    Healthy,
    /// Read-only with periodic canary write probes.
    Degraded,
    /// No disk I/O; every probe is a miss, every put a no-op.
    Offline,
}

impl StoreHealth {
    /// Lowercase wire name, as emitted in service `health` events.
    pub fn as_str(&self) -> &'static str {
        match self {
            StoreHealth::Healthy => "healthy",
            StoreHealth::Degraded => "degraded",
            StoreHealth::Offline => "offline",
        }
    }
}

#[derive(Debug)]
struct HealthMachine {
    state: StoreHealth,
    /// Consecutive failed write attempts (skipped puts don't count).
    streak: u32,
    /// Puts observed while Degraded, for probe cadence.
    probe_clock: u32,
    /// Count of state transitions, monotone — lets observers detect
    /// changes without polling the state itself.
    transitions: u64,
}

impl Default for HealthMachine {
    fn default() -> Self {
        HealthMachine {
            state: StoreHealth::Healthy,
            streak: 0,
            probe_clock: 0,
            transitions: 0,
        }
    }
}

/// Per-entry GC metadata: on-disk length and logical access time.
#[derive(Debug, Clone, Copy)]
struct EntryMeta {
    len: u64,
    atime: u64,
}

#[derive(Debug)]
struct GcState {
    max_bytes: u64,
    /// Logical clock; bumped on every tracked access.
    clock: u64,
    total_bytes: u64,
    entries: HashMap<u128, EntryMeta>,
}

/// Atime sidecar persisted by GC rounds so access recency survives
/// reopen. `read_dir` is ground truth for *which* entries exist; the
/// manifest only contributes recency, so a stale or missing manifest is
/// benign (unknown entries default to atime 0 = oldest).
#[derive(Debug, Serialize, Deserialize)]
struct Manifest {
    clock: u64,
    entries: Vec<ManifestEntry>,
}

#[derive(Debug, Serialize, Deserialize)]
struct ManifestEntry {
    key: String,
    atime: u64,
}

/// Construction options for [`ResultCache::open_with`].
#[derive(Debug, Clone, Copy, Default)]
pub struct StoreOptions {
    /// Upper bound on total entry bytes; exceeding it triggers batch LRU
    /// eviction down to a 3/4 watermark. `None` = unbounded (no GC).
    pub max_bytes: Option<u64>,
    /// Disk-fault plan; `Some` routes all store I/O through a
    /// [`FaultyDisk`].
    pub faults: Option<IoFaultPlan>,
}

/// Disk-backed content-addressed result store.
///
/// One entry per [`CacheKey`] under `<dir>/v{N}/<hex>.json`. Entries are
/// written via a temp file + rename so a crashed writer can only leave a
/// stray temp file, never a torn entry; a torn, truncated, bit-flipped, or
/// wrong-version entry fails its header/checksum validation and is evicted
/// and silently recomputed. The store is shared: the resident service keeps
/// one open across all requests, and one-shot `smctl --cache-dir` runs
/// reopen the same directory. See the module docs for the fault-injection,
/// health, and GC tiers layered on top.
#[derive(Debug)]
pub struct ResultCache {
    dir: PathBuf,
    disk: Box<dyn Disk>,
    totals: Counters,
    health: Mutex<HealthMachine>,
    gc: Option<Mutex<GcState>>,
    tmp_counter: AtomicU64,
    /// Entries published so far. Publishing renames and evictions hold
    /// this lock, and an eviction is skipped when the count moved since its
    /// read: the file at the path may then be a valid, newer entry.
    published: Mutex<u64>,
}

/// A validated entry file: its contents, where the payload starts, and
/// the publish count when it was read.
struct Entry {
    body: String,
    payload_at: usize,
    read_at: u64,
}

impl Entry {
    fn payload(&self) -> &str {
        &self.body[self.payload_at..]
    }
}

/// Validates an entry body (header line, newline, payload) against `key`,
/// returning the byte offset of the payload; `None` means corrupt, torn,
/// or stale.
fn payload_offset(body: &str, key: CacheKey) -> Option<usize> {
    let (header, payload) = body.split_once('\n')?;
    let h = from_str::<EntryHeader>(header).ok()?;
    let valid = h.magic == CACHE_MAGIC
        && h.version == CACHE_SCHEMA_VERSION
        && is_hex_of(&h.key, key.0, 32)
        && h.len == payload.len() as u64
        && is_hex_of(&h.checksum, u128::from(fnv64(payload.as_bytes())), 16);
    valid.then_some(header.len() + 1)
}

/// Parses an entry file name (`{32 hex}.json`) back to its key.
fn parse_entry_name(name: &str) -> Option<u128> {
    let stem = name.strip_suffix(".json")?;
    if stem.len() != 32 || !stem.bytes().all(|b| b.is_ascii_hexdigit()) {
        return None;
    }
    u128::from_str_radix(stem, 16).ok()
}

impl ResultCache {
    /// Opens (creating if needed) the store rooted at `dir` with default
    /// options: unbounded, no fault injection. Entries land under the
    /// schema-versioned subdirectory, so a version bump starts from an
    /// empty namespace without touching older entries.
    ///
    /// # Errors
    ///
    /// Returns the underlying [`std::io::Error`] when the directory cannot
    /// be created.
    pub fn open(dir: &Path) -> std::io::Result<ResultCache> {
        Self::open_with(dir, StoreOptions::default())
    }

    /// Opens the store with explicit [`StoreOptions`]. With
    /// `options.max_bytes` set, the resident entry set is rebuilt from a
    /// directory listing (ground truth) plus the `manifest.json` atime
    /// sidecar (recency hint; absent or stale is benign).
    ///
    /// # Errors
    ///
    /// Returns the underlying [`std::io::Error`] when the directory cannot
    /// be created.
    pub fn open_with(dir: &Path, options: StoreOptions) -> std::io::Result<ResultCache> {
        let disk: Box<dyn Disk> = match options.faults {
            Some(plan) if plan.is_active() => Box::new(FaultyDisk::new(plan)),
            _ => Box::new(RealDisk),
        };
        let dir = dir.join(format!("v{CACHE_SCHEMA_VERSION}"));
        disk.create_dir_all(&dir)?;
        let gc = options.max_bytes.map(|max_bytes| {
            let mut entries = HashMap::new();
            let mut total_bytes = 0u64;
            for (name, len) in disk.read_dir_entries(&dir).unwrap_or_default() {
                if let Some(key) = parse_entry_name(&name) {
                    entries.insert(key, EntryMeta { len, atime: 0 });
                    total_bytes += len;
                }
            }
            let mut clock = 1u64;
            if let Ok(body) = disk.read_to_string(&dir.join(MANIFEST_NAME)) {
                if let Ok(manifest) = from_str::<Manifest>(&body) {
                    clock = clock.max(manifest.clock);
                    for e in manifest.entries {
                        if let Ok(key) = u128::from_str_radix(&e.key, 16) {
                            if let Some(meta) = entries.get_mut(&key) {
                                meta.atime = e.atime;
                                clock = clock.max(e.atime);
                            }
                        }
                    }
                }
            }
            Mutex::new(GcState {
                max_bytes,
                clock,
                total_bytes,
                entries,
            })
        });
        Ok(ResultCache {
            dir,
            disk,
            totals: Counters::default(),
            health: Mutex::new(HealthMachine::default()),
            gc,
            tmp_counter: AtomicU64::new(0),
            published: Mutex::new(0),
        })
    }

    /// The versioned directory entries are stored in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Process-lifetime totals across every session of this store.
    pub fn stats(&self) -> CacheStats {
        self.totals.snapshot()
    }

    /// Current health state plus the monotone transition counter —
    /// observers compare the counter against their last-seen value to
    /// detect state changes without missing or duplicating them.
    pub fn health_snapshot(&self) -> (StoreHealth, u64) {
        let h = self.health.lock().expect("health lock");
        (h.state, h.transitions)
    }

    /// Opens a per-request [`CacheSession`] with its own zeroed counters.
    pub fn session(&self) -> CacheSession<'_> {
        CacheSession {
            store: self,
            local: Counters::default(),
        }
    }

    fn entry_path(&self, key: CacheKey) -> PathBuf {
        self.dir.join(format!("{}.json", key.hex()))
    }

    fn health_state(&self) -> StoreHealth {
        self.health.lock().expect("health lock").state
    }

    /// Whether the next put should touch the disk at all: always in
    /// Healthy, never in Offline, every [`HEALTH_PROBE_EVERY`]-th put
    /// (a canary probe) in Degraded.
    fn should_attempt_write(&self) -> bool {
        let mut h = self.health.lock().expect("health lock");
        match h.state {
            StoreHealth::Healthy => true,
            StoreHealth::Offline => false,
            StoreHealth::Degraded => {
                h.probe_clock += 1;
                h.probe_clock.is_multiple_of(HEALTH_PROBE_EVERY)
            }
        }
    }

    /// Feeds one attempted write's outcome to the health machine.
    fn record_write_result(&self, ok: bool) {
        let mut h = self.health.lock().expect("health lock");
        if ok {
            h.streak = 0;
            if h.state == StoreHealth::Degraded {
                h.state = StoreHealth::Healthy;
                h.transitions += 1;
            }
            return;
        }
        h.streak += 1;
        match h.state {
            StoreHealth::Healthy if h.streak >= HEALTH_DEGRADE_AFTER => {
                h.state = StoreHealth::Degraded;
                h.transitions += 1;
            }
            StoreHealth::Degraded if h.streak >= HEALTH_OFFLINE_AFTER => {
                h.state = StoreHealth::Offline;
                h.transitions += 1;
            }
            _ => {}
        }
    }

    /// The publish count, taken before a read so a later eviction can tell
    /// whether the file it condemns may have been replaced since.
    fn publish_count(&self) -> u64 {
        *self.published.lock().expect("publish lock")
    }

    /// Removes a corrupt or stale entry read at publish count `read_at`,
    /// returning whether an eviction should be *counted*: only a removal
    /// that actually happened counts, so two sessions racing on the same
    /// bad entry count it once (the loser sees `NotFound`). When an entry
    /// was published since the read, the removal is skipped: the file may
    /// be a valid entry another session recomputed, and if it is still the
    /// bad one the caller's own put replaces it.
    fn evict_entry(&self, key: CacheKey, read_at: u64) -> bool {
        let published = self.published.lock().expect("publish lock");
        if *published != read_at {
            return false;
        }
        match self.disk.remove_file(&self.entry_path(key)) {
            Ok(()) => {
                self.forget_entry(key);
                true
            }
            Err(e) => {
                if e.kind() == io::ErrorKind::NotFound {
                    // Already gone (evicted by a concurrent session or GC).
                    self.forget_entry(key);
                }
                false
            }
        }
    }

    /// Drops an entry from GC accounting (if GC is active).
    fn forget_entry(&self, key: CacheKey) {
        if let Some(gc) = &self.gc {
            let mut g = gc.lock().expect("gc lock");
            if let Some(meta) = g.entries.remove(&key.0) {
                g.total_bytes = g.total_bytes.saturating_sub(meta.len);
            }
        }
    }

    /// Bumps an entry's logical access time on a hit.
    fn note_hit(&self, key: CacheKey) {
        if let Some(gc) = &self.gc {
            let mut g = gc.lock().expect("gc lock");
            g.clock += 1;
            let now = g.clock;
            if let Some(meta) = g.entries.get_mut(&key.0) {
                meta.atime = now;
            }
        }
    }

    /// Records a successful put in GC accounting and runs a GC round when
    /// the bound is exceeded.
    fn note_put(&self, key: CacheKey, len: u64) {
        if let Some(gc) = &self.gc {
            let mut g = gc.lock().expect("gc lock");
            g.clock += 1;
            let now = g.clock;
            if let Some(prev) = g.entries.insert(key.0, EntryMeta { len, atime: now }) {
                g.total_bytes = g.total_bytes.saturating_sub(prev.len);
            }
            g.total_bytes += len;
            if g.total_bytes > g.max_bytes {
                self.run_gc(&mut g);
            }
        }
    }

    /// Batch LRU eviction down to a 3/4 watermark. The survivor manifest
    /// is the commit point: it is written (temp+rename) *before* any
    /// victim file is removed, and a manifest failure aborts the round —
    /// at worst the store stays temporarily over budget, never
    /// inconsistent. Only removals that actually happen are counted.
    fn run_gc(&self, g: &mut GcState) {
        let target = g.max_bytes / 4 * 3;
        let mut order: Vec<(u64, u128)> = g.entries.iter().map(|(&k, m)| (m.atime, k)).collect();
        order.sort_unstable();
        let mut victims: Vec<(u128, u64)> = Vec::new();
        let mut projected = g.total_bytes;
        for &(_, key) in &order {
            if projected <= target {
                break;
            }
            let len = g.entries[&key].len;
            victims.push((key, len));
            projected = projected.saturating_sub(len);
        }
        if victims.is_empty() {
            return;
        }
        let victim_set: HashSet<u128> = victims.iter().map(|&(k, _)| k).collect();
        let mut survivors: Vec<ManifestEntry> = g
            .entries
            .iter()
            .filter(|(k, _)| !victim_set.contains(k))
            .map(|(&k, m)| ManifestEntry {
                key: format!("{k:032x}"),
                atime: m.atime,
            })
            .collect();
        survivors.sort_by(|a, b| a.key.cmp(&b.key));
        let manifest = Manifest {
            clock: g.clock,
            entries: survivors,
        };
        if self.write_manifest(&manifest).is_err() {
            return;
        }
        let mut evicted = 0u64;
        let mut freed = 0u64;
        for &(key, len) in &victims {
            match self.disk.remove_file(&self.entry_path(CacheKey(key))) {
                Ok(()) => {
                    evicted += 1;
                    freed += len;
                    g.entries.remove(&key);
                    g.total_bytes = g.total_bytes.saturating_sub(len);
                }
                Err(e) if e.kind() == io::ErrorKind::NotFound => {
                    g.entries.remove(&key);
                    g.total_bytes = g.total_bytes.saturating_sub(len);
                }
                // Transient removal failure: keep the meta so accounting
                // stays truthful; the next over-budget put retries.
                Err(_) => {}
            }
        }
        self.totals
            .gc_evictions
            .fetch_add(evicted, Ordering::Relaxed);
        self.totals
            .gc_bytes_freed
            .fetch_add(freed, Ordering::Relaxed);
    }

    fn write_manifest(&self, manifest: &Manifest) -> io::Result<()> {
        let body = to_string(manifest).map_err(|e| io::Error::other(e.to_string()))?;
        let n = self.tmp_counter.fetch_add(1, Ordering::Relaxed);
        let tmp = self
            .dir
            .join(format!("manifest.tmp.{}.{n}", std::process::id()));
        if let Err(e) = self.disk.write(&tmp, &body) {
            let _ = self.disk.remove_file(&tmp);
            return Err(e);
        }
        self.disk.rename(&tmp, &self.dir.join(MANIFEST_NAME))
    }

    /// Validates and parses one entry file; `None` means "treat as miss"
    /// with `evicted` set when a bad entry was actually removed. A read
    /// failure other than `NotFound` (e.g. an injected transient `EIO`)
    /// is indistinguishable from media corruption at this layer, so it
    /// takes the same evict-and-recompute path.
    fn load_payload(&self, key: CacheKey) -> (Option<Entry>, bool) {
        let path = self.entry_path(key);
        let read_at = self.publish_count();
        let body = match self.disk.read_to_string(&path) {
            Ok(body) => body,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return (None, false),
            Err(_) => return (None, self.evict_entry(key, read_at)),
        };
        match payload_offset(&body, key) {
            Some(payload_at) => (
                Some(Entry {
                    body,
                    payload_at,
                    read_at,
                }),
                false,
            ),
            // Corrupt or stale: evict so the recomputed entry replaces it.
            None => (None, self.evict_entry(key, read_at)),
        }
    }

    /// Writes one entry via temp+rename, returning the full on-disk entry
    /// length (header + newline + payload) for GC accounting. The temp
    /// name folds in pid *and* a process-local counter so concurrent puts
    /// of the same key from one process can't collide.
    fn write_payload(&self, key: CacheKey, payload: &str) -> io::Result<u64> {
        let header = to_string(&EntryHeader {
            magic: CACHE_MAGIC.to_string(),
            version: CACHE_SCHEMA_VERSION,
            key: key.hex(),
            len: payload.len() as u64,
            checksum: format!("{:016x}", fnv64(payload.as_bytes())),
        })
        .map_err(|e| io::Error::other(e.to_string()))?;
        let n = self.tmp_counter.fetch_add(1, Ordering::Relaxed);
        let tmp = self
            .dir
            .join(format!("{}.tmp.{}.{n}", key.hex(), std::process::id()));
        let body = format!("{header}\n{payload}");
        if let Err(e) = self.disk.write(&tmp, &body) {
            let _ = self.disk.remove_file(&tmp);
            return Err(e);
        }
        let mut published = self.published.lock().expect("publish lock");
        if let Err(e) = self.disk.rename(&tmp, &self.entry_path(key)) {
            drop(published);
            let _ = self.disk.remove_file(&tmp);
            return Err(e);
        }
        *published += 1;
        Ok(body.len() as u64)
    }
}

/// A per-request view of a shared [`ResultCache`].
///
/// Gets and puts go to the shared store, but hit/miss/eviction counters are
/// kept per session *and* rolled into the store totals, so a service
/// handling overlapping requests can report each request's own hit rate —
/// the handle-based fix for the process-global counter smearing the plan
/// cache suffered from.
#[derive(Debug)]
pub struct CacheSession<'a> {
    store: &'a ResultCache,
    local: Counters,
}

impl CacheSession<'_> {
    /// Looks up and deserializes the entry for `key`. Absent, corrupt, or
    /// stale entries count as misses (plus an eviction when a bad file was
    /// actually removed) and return `None` — the caller recomputes. With
    /// the store Offline, no disk I/O happens and every probe is a miss.
    pub fn get<T: Deserialize>(&self, key: CacheKey) -> Option<T> {
        let mut delta = CacheStats::default();
        if self.store.health_state() == StoreHealth::Offline {
            delta.misses = 1;
            delta.add_to(&self.local);
            delta.add_to(&self.store.totals);
            return None;
        }
        let (entry, evicted) = self.store.load_payload(key);
        if evicted {
            delta.evictions = 1;
        }
        let result = entry.and_then(|e| match from_str::<T>(e.payload()) {
            Ok(v) => {
                delta.bytes_read = e.payload().len() as u64;
                Some(v)
            }
            Err(_) => {
                // Parsed header but payload shape mismatch: stale schema.
                if self.store.evict_entry(key, e.read_at) {
                    delta.evictions += 1;
                }
                None
            }
        });
        if result.is_some() {
            delta.hits = 1;
            self.store.note_hit(key);
        } else {
            delta.misses = 1;
        }
        delta.add_to(&self.local);
        delta.add_to(&self.store.totals);
        result
    }

    /// Serializes and stores `value` under `key`. The cache is an
    /// optimization, never load-bearing, so a failed write doesn't fail
    /// the caller — but it *is* counted (`write_failures`) and fed to the
    /// store's health machine, and in Degraded/Offline states the write
    /// may be skipped entirely (see [`StoreHealth`]).
    pub fn put<T: Serialize>(&self, key: CacheKey, value: &T) {
        let Ok(payload) = to_string(value) else {
            return;
        };
        if !self.store.should_attempt_write() {
            return;
        }
        let mut delta = CacheStats::default();
        match self.store.write_payload(key, &payload) {
            Ok(entry_len) => {
                self.store.record_write_result(true);
                self.store.note_put(key, entry_len);
                delta.bytes_written = payload.len() as u64;
            }
            Err(_) => {
                self.store.record_write_result(false);
                delta.write_failures = 1;
            }
        }
        delta.add_to(&self.local);
        delta.add_to(&self.store.totals);
    }

    /// This session's own counters (not smeared by other sessions).
    pub fn stats(&self) -> CacheStats {
        self.local.snapshot()
    }
}

/// How a sweep runs its cells: an optional result-cache session and an
/// optional cooperative cancel check. The default is neither — every cell
/// is computed and nothing can stop the sweep.
#[derive(Clone, Copy, Default)]
pub struct RunCtx<'a> {
    /// Session consulted for every cell; fresh results are written back.
    pub cache: Option<&'a CacheSession<'a>>,
    /// Checked before dispatch and before each computed cell (deadlines,
    /// dead clients).
    pub cancel: Option<CancelCheck<'a>>,
}

/// Runs one sweep's cells under `ctx`: cached cells are read back, and
/// **only the missing cells** are dispatched to
/// [`sm_core::parallel::par_map_stream`] over the configured worker pool.
/// Results come back in sweep order, byte-identical to an uncached sweep at
/// any thread count.
///
/// * `keys[i]` must be the [`cell_key`] of `items[i]`.
/// * `on_cell(i, cached, &result)` fires once per cell in strictly
///   ascending sweep order, as soon as every earlier cell is resolved —
///   the streaming hook the resident service emits per-cell JSON from.
///   `cached` says whether the cell was answered from the store.
/// * Freshly computed cells are written back to the store as they
///   complete.
/// * The cancel check is consulted once before dispatch (so an
///   already-expired deadline cancels even a fully warm request,
///   deterministically emitting zero cells) and then before each computed
///   cell. On cancellation the cells already streamed form a contiguous
///   prefix of the sweep; no further cells fire.
///
/// # Errors
///
/// Returns [`Cancelled`] when the cancel check fired before the sweep
/// completed.
pub fn run_cells<T, U, F, G>(
    ctx: &RunCtx<'_>,
    items: &[T],
    keys: &[CacheKey],
    run: F,
    mut on_cell: G,
) -> Result<Vec<U>, Cancelled>
where
    T: Sync,
    U: Serialize + Deserialize + Send,
    F: Fn(&T) -> U + Sync,
    G: FnMut(usize, bool, &U),
{
    assert_eq!(items.len(), keys.len(), "one key per sweep cell");
    let mut slots: Vec<Option<U>> = match ctx.cache {
        Some(s) => keys.iter().map(|&k| s.get::<U>(k)).collect(),
        None => (0..items.len()).map(|_| None).collect(),
    };
    // Checked once up front so an already-fired cancel (deadline 0, dead
    // client) yields zero cells even when every cell is a cache hit.
    if ctx.cancel.is_some_and(|c| c()) {
        return Err(Cancelled);
    }
    let missing: Vec<usize> = (0..items.len()).filter(|&i| slots[i].is_none()).collect();
    let missing_items: Vec<&T> = missing.iter().map(|&i| &items[i]).collect();

    // Stream computed cells back in order, advancing the global frontier
    // over the mix of cached and computed cells: when missing[j] completes,
    // every earlier missing cell has already fired (stream order) and every
    // cached cell is ready by construction, so the gap before it is pure
    // cache hits.
    let mut frontier = 0usize;
    let computed = par_map_stream(
        &missing_items,
        threads(),
        |item| run(item),
        |j, u| {
            let gi = missing[j];
            while frontier < gi {
                let cached = slots[frontier]
                    .as_ref()
                    .expect("cells before a missing cell are cache hits");
                on_cell(frontier, true, cached);
                frontier += 1;
            }
            if let Some(s) = ctx.cache {
                s.put(keys[gi], u);
            }
            on_cell(gi, false, u);
            frontier = gi + 1;
        },
        ctx.cancel,
    )?;
    // Trailing cache hits after the last computed cell.
    while frontier < slots.len() {
        let cached = slots[frontier]
            .as_ref()
            .expect("cells after the last missing cell are cache hits");
        on_cell(frontier, true, cached);
        frontier += 1;
    }

    for (j, u) in missing.into_iter().zip(computed) {
        slots[j] = Some(u);
    }
    Ok(slots
        .into_iter()
        .map(|u| u.expect("every cell resolved"))
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;
    use std::sync::atomic::AtomicBool;

    #[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
    struct Cell {
        x: u64,
        y: f64,
        label: String,
    }

    fn cell(x: u64) -> Cell {
        Cell {
            x,
            y: x as f64 * 0.1 + 0.05,
            label: format!("cell-{x}"),
        }
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("sm-cas-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn keys_are_stable_and_input_sensitive() {
        let a = cell_key("t", &cell(3)).unwrap();
        assert_eq!(a, cell_key("t", &cell(3)).unwrap());
        assert_ne!(a, cell_key("t", &cell(4)).unwrap());
        assert_ne!(a, cell_key("other", &cell(3)).unwrap());
        assert_eq!(a.hex().len(), 32);
    }

    #[test]
    fn key_prefix_matches_cell_key_and_rejects_a_non_final_field() {
        #[derive(Serialize)]
        struct Inputs {
            label: String,
            x: u64,
        }
        let inputs = |x| Inputs {
            label: "net".into(),
            x,
        };
        let prefix = KeyPrefix::new("t", &inputs(0), &0u64).unwrap();
        for x in [0, 7, 15, 12345] {
            assert_eq!(prefix.key(&x).unwrap(), cell_key("t", &inputs(x)).unwrap());
        }
        assert!(KeyPrefix::new("t", &inputs(0), &"net").is_err(), "not last");
        // A tail that merely ends the same way is not the last field.
        assert!(KeyPrefix::new("t", &inputs(15), &5u64).is_err(), "partial");
    }

    #[test]
    fn round_trips_entries_and_counts_hits() {
        let dir = tmp_dir("roundtrip");
        let store = ResultCache::open(&dir).unwrap();
        let session = store.session();
        let key = cell_key("t", &7u64).unwrap();
        assert_eq!(session.get::<Cell>(key), None);
        session.put(key, &cell(7));
        assert_eq!(session.get::<Cell>(key), Some(cell(7)));
        let s = session.stats();
        assert_eq!((s.hits, s.misses, s.evictions), (1, 1, 0));
        assert!(s.bytes_written > 0 && s.bytes_read == s.bytes_written);
        // A fresh session over the same store starts from zero but shares
        // the entries; the store totals accumulate across sessions.
        let second = store.session();
        assert_eq!(second.get::<Cell>(key), Some(cell(7)));
        assert_eq!(second.stats().hits, 1);
        assert_eq!(store.stats().hits, 2);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_entries_are_evicted_not_trusted() {
        let dir = tmp_dir("corrupt");
        let store = ResultCache::open(&dir).unwrap();
        let session = store.session();
        let key = cell_key("t", &1u64).unwrap();
        session.put(key, &cell(1));
        let path = store.entry_path(key);

        // Bit-flip one payload byte: checksum mismatch.
        let mut bytes = fs::read(&path).unwrap();
        let last = bytes.len() - 2;
        bytes[last] ^= 0x20;
        fs::write(&path, &bytes).unwrap();
        assert_eq!(session.get::<Cell>(key), None);
        assert!(!path.exists(), "corrupt entry must be evicted");

        // Truncated entry: length mismatch.
        session.put(key, &cell(1));
        let body = fs::read_to_string(&path).unwrap();
        fs::write(&path, &body[..body.len() - 3]).unwrap();
        assert_eq!(session.get::<Cell>(key), None);

        // Wrong-version header: stale, rejected.
        session.put(key, &cell(1));
        let body = fs::read_to_string(&path).unwrap();
        fs::write(&path, body.replace("\"version\":1", "\"version\":99")).unwrap();
        assert_eq!(session.get::<Cell>(key), None);

        let s = session.stats();
        assert_eq!(s.evictions, 3, "{s:?}");
        assert_eq!(s.hits, 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_late_eviction_never_removes_a_republished_entry() {
        // Session B reads a corrupt entry; session A evicts it, recomputes
        // and republishes before B gets to evict. B's eviction must leave
        // A's valid entry alone and count nothing.
        let dir = tmp_dir("late-evict");
        let store = ResultCache::open(&dir).unwrap();
        let session = store.session();
        let key = cell_key("t", &2u64).unwrap();
        session.put(key, &cell(2));
        let b_read_at = store.publish_count();
        assert!(store.evict_entry(key, store.publish_count()), "A evicts");
        session.put(key, &cell(2));
        assert!(
            !store.evict_entry(key, b_read_at),
            "B's eviction is skipped"
        );
        assert_eq!(session.get::<Cell>(key), Some(cell(2)));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn injected_read_corruption_resolves_to_evict_and_recompute() {
        let dir = tmp_dir("inject-read");
        // Flip every read: every probe sees corrupt content, so the store
        // must evict and report a miss — never serve flipped bytes.
        let store = ResultCache::open_with(
            &dir,
            StoreOptions {
                max_bytes: None,
                faults: Some(IoFaultPlan::new(11).with_read_flips(1.0)),
            },
        )
        .unwrap();
        let session = store.session();
        let key = cell_key("t", &5u64).unwrap();
        session.put(key, &cell(5));
        assert!(store.entry_path(key).exists());
        assert_eq!(session.get::<Cell>(key), None, "flipped bytes rejected");
        assert!(!store.entry_path(key).exists(), "corrupt entry evicted");
        let s = session.stats();
        assert_eq!((s.hits, s.misses, s.evictions), (0, 1, 1), "{s:?}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn write_storm_walks_health_to_offline_and_back_on_reopen() {
        let dir = tmp_dir("health");
        let store = ResultCache::open_with(
            &dir,
            StoreOptions {
                max_bytes: None,
                faults: Some(IoFaultPlan::new(3).with_enospc(1.0)),
            },
        )
        .unwrap();
        let session = store.session();
        assert_eq!(store.health_snapshot(), (StoreHealth::Healthy, 0));
        let mut states = Vec::new();
        for i in 0..40u64 {
            session.put(cell_key("t", &i).unwrap(), &cell(i));
            states.push(store.health_snapshot().0);
        }
        assert_eq!(
            states[HEALTH_DEGRADE_AFTER as usize - 1],
            StoreHealth::Degraded
        );
        assert_eq!(*states.last().unwrap(), StoreHealth::Offline);
        let (_, transitions) = store.health_snapshot();
        assert_eq!(transitions, 2, "healthy->degraded->offline");
        // Offline probes are misses without disk I/O; puts are no-ops.
        assert_eq!(session.get::<Cell>(cell_key("t", &0u64).unwrap()), None);
        assert!(session.stats().write_failures >= HEALTH_DEGRADE_AFTER as u64);
        // Reopening the directory starts Healthy again.
        let _ = session;
        drop(store);
        let reopened = ResultCache::open(&dir).unwrap();
        assert_eq!(reopened.health_snapshot(), (StoreHealth::Healthy, 0));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn degraded_store_recovers_when_writes_succeed_again() {
        let dir = tmp_dir("recover");
        // eio 0.0 -> we drive failures by hand: use a plan whose write
        // faults stop firing after the RNG stream moves on. Simplest
        // deterministic route: fail with a real cause — write into a
        // directory path that exists, so writes succeed, after first
        // demoting the machine manually via record_write_result.
        let store = ResultCache::open(&dir).unwrap();
        for _ in 0..HEALTH_DEGRADE_AFTER {
            store.record_write_result(false);
        }
        assert_eq!(store.health_snapshot().0, StoreHealth::Degraded);
        let session = store.session();
        // Degraded skips puts until the probe slot; the probe write
        // succeeds on the healthy disk and restores Healthy.
        let mut keys = Vec::new();
        for i in 100..(100 + HEALTH_PROBE_EVERY as u64) {
            let k = cell_key("t", &i).unwrap();
            session.put(k, &cell(i));
            keys.push(k);
        }
        assert_eq!(store.health_snapshot().0, StoreHealth::Healthy);
        let written: Vec<bool> = keys.iter().map(|&k| store.entry_path(k).exists()).collect();
        assert_eq!(
            written.iter().filter(|&&w| w).count(),
            1,
            "only the canary probe put landed: {written:?}"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn bounded_store_gc_keeps_disk_under_the_limit() {
        let dir = tmp_dir("gc");
        let max = 4096u64;
        let store = ResultCache::open_with(
            &dir,
            StoreOptions {
                max_bytes: Some(max),
                faults: None,
            },
        )
        .unwrap();
        let session = store.session();
        let mut keys = Vec::new();
        // Write ~8x the bound.
        for i in 0..128u64 {
            let k = cell_key("gc", &i).unwrap();
            session.put(k, &cell(i));
            keys.push(k);
        }
        let on_disk: u64 = fs::read_dir(store.dir())
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().ends_with(".json"))
            .filter(|e| parse_entry_name(&e.file_name().to_string_lossy()).is_some())
            .map(|e| e.metadata().unwrap().len())
            .sum();
        assert!(
            on_disk <= max,
            "GC must keep entries under the bound: {on_disk} > {max}"
        );
        let s = store.stats();
        assert!(s.gc_evictions > 0, "{s:?}");
        assert!(s.gc_bytes_freed > 0, "{s:?}");
        assert!(dir.join("v1").join(MANIFEST_NAME).exists());
        // Recent entries survive, oldest were evicted.
        assert!(store.entry_path(*keys.last().unwrap()).exists());
        assert!(!store.entry_path(keys[0]).exists());
        // A reopen rebuilds accounting from the directory + manifest and
        // keeps honoring the bound.
        let _ = session;
        drop(store);
        let reopened = ResultCache::open_with(
            &dir,
            StoreOptions {
                max_bytes: Some(max),
                faults: None,
            },
        )
        .unwrap();
        let session = reopened.session();
        for i in 1000..1064u64 {
            session.put(cell_key("gc", &i).unwrap(), &cell(i));
        }
        let on_disk: u64 = fs::read_dir(reopened.dir())
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| parse_entry_name(&e.file_name().to_string_lossy()).is_some())
            .map(|e| e.metadata().unwrap().len())
            .sum();
        assert!(on_disk <= max, "bound still holds after reopen: {on_disk}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn gc_prefers_evicting_least_recently_used_entries() {
        let dir = tmp_dir("gc-lru");
        let store = ResultCache::open_with(
            &dir,
            StoreOptions {
                max_bytes: Some(2048),
                faults: None,
            },
        )
        .unwrap();
        let session = store.session();
        let old = cell_key("lru", &0u64).unwrap();
        session.put(old, &cell(0));
        let mut later = Vec::new();
        for i in 1..12u64 {
            let k = cell_key("lru", &i).unwrap();
            session.put(k, &cell(i));
            later.push(k);
        }
        // Touch the oldest entry, making a middle one the LRU victim.
        if store.entry_path(old).exists() {
            assert_eq!(session.get::<Cell>(old), Some(cell(0)));
        }
        for i in 100..140u64 {
            session.put(cell_key("lru", &i).unwrap(), &cell(i));
        }
        // The untouched early entries must be gone before the most recent.
        assert!(!store.entry_path(later[0]).exists());
        let _ = fs::remove_dir_all(&dir);
    }

    /// A context that reads and writes `session`, with no cancel check.
    fn cached<'a>(session: &'a CacheSession<'a>) -> RunCtx<'a> {
        RunCtx {
            cache: Some(session),
            cancel: None,
        }
    }

    #[test]
    fn run_cells_computes_only_the_delta_in_order() {
        let dir = tmp_dir("delta");
        let store = ResultCache::open(&dir).unwrap();
        let items: Vec<u64> = (0..10).collect();
        let keys: Vec<CacheKey> = items
            .iter()
            .map(|i| cell_key("delta", i).unwrap())
            .collect();
        let run = |x: &u64| cell(*x);

        let cold_session = store.session();
        let mut order = Vec::new();
        let cold = run_cells(
            &cached(&cold_session),
            &items,
            &keys,
            run,
            |i, cached, _| order.push((i, cached)),
        )
        .unwrap();
        assert_eq!(cold, items.iter().map(|&x| cell(x)).collect::<Vec<_>>());
        assert_eq!(cold_session.stats().misses, 10);
        assert!(order.iter().all(|&(_, cached)| !cached));
        assert_eq!(
            order.iter().map(|&(i, _)| i).collect::<Vec<_>>(),
            (0..10).collect::<Vec<_>>()
        );

        // 90%-overlap warm run: one new cell, nine hits — only the delta
        // is dispatched.
        let mut items2 = items.clone();
        items2[4] = 99;
        let keys2: Vec<CacheKey> = items2
            .iter()
            .map(|i| cell_key("delta", i).unwrap())
            .collect();
        let warm_session = store.session();
        let mut order2 = Vec::new();
        let warm = run_cells(
            &cached(&warm_session),
            &items2,
            &keys2,
            run,
            |i, cached, _| order2.push((i, cached)),
        )
        .unwrap();
        assert_eq!(warm, items2.iter().map(|&x| cell(x)).collect::<Vec<_>>());
        let s = warm_session.stats();
        assert_eq!((s.hits, s.misses), (9, 1), "{s:?}");
        assert_eq!(
            order2.iter().map(|&(i, _)| i).collect::<Vec<_>>(),
            (0..10).collect::<Vec<_>>()
        );
        assert_eq!(order2[4], (4, false));
        assert!(order2.iter().filter(|&&(_, c)| c).count() == 9);

        // Fully warm: zero dispatches, still in order.
        let full_session = store.session();
        let full = run_cells(&cached(&full_session), &items, &keys, run, |_, _, _| {}).unwrap();
        assert_eq!(full, cold);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn run_cells_without_a_session_streams_everything() {
        let items: Vec<u64> = (0..5).collect();
        let keys: Vec<CacheKey> = items
            .iter()
            .map(|i| cell_key("nocache", i).unwrap())
            .collect();
        let mut count = 0;
        let out = run_cells(
            &RunCtx::default(),
            &items,
            &keys,
            |&x| cell(x),
            |_, cached, _| {
                assert!(!cached);
                count += 1;
            },
        )
        .unwrap();
        assert_eq!(out.len(), 5);
        assert_eq!(count, 5);
    }

    #[test]
    fn pre_fired_cancel_emits_zero_cells_even_when_fully_warm() {
        let dir = tmp_dir("cancel-warm");
        let store = ResultCache::open(&dir).unwrap();
        let items: Vec<u64> = (0..6).collect();
        let keys: Vec<CacheKey> = items.iter().map(|i| cell_key("cw", i).unwrap()).collect();
        // Warm the store fully.
        let warm_session = store.session();
        run_cells(
            &cached(&warm_session),
            &items,
            &keys,
            |&x| cell(x),
            |_, _, _| {},
        )
        .unwrap();
        let fired = AtomicBool::new(true);
        let check = || fired.load(Ordering::Relaxed);
        let mut emitted = 0usize;
        let session = store.session();
        let ctx = RunCtx {
            cache: Some(&session),
            cancel: Some(&check),
        };
        let out = run_cells(&ctx, &items, &keys, |&x| cell(x), |_, _, _| emitted += 1);
        assert_eq!(out, Err(Cancelled));
        assert_eq!(emitted, 0, "a dead request emits nothing, even warm");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn never_firing_cancel_check_is_byte_identical_to_none() {
        let dir = tmp_dir("cancel-none");
        let store = ResultCache::open(&dir).unwrap();
        let items: Vec<u64> = (0..8).collect();
        let keys: Vec<CacheKey> = items.iter().map(|i| cell_key("cn", i).unwrap()).collect();
        let never = || false;
        let run = |cancel: Option<CancelCheck<'_>>| {
            let session = store.session();
            let ctx = RunCtx {
                cache: Some(&session),
                cancel,
            };
            run_cells(&ctx, &items, &keys, |&x| cell(x), |_, _, _| {}).unwrap()
        };
        let unchecked = run(None);
        let checked = run(Some(&never));
        assert_eq!(unchecked, checked);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn fingerprint_tracks_content_not_identity() {
        assert_eq!(
            content_fingerprint(&cell(2)).unwrap(),
            content_fingerprint(&cell(2)).unwrap()
        );
        assert_ne!(
            content_fingerprint(&cell(2)).unwrap(),
            content_fingerprint(&cell(3)).unwrap()
        );
    }
}
