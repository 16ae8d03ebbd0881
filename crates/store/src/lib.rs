//! # mix-store — persistent content-addressed warm-start store
//!
//! Everything the serving stack pays to compute once per process — the
//! hash-consed regex pool arena with its cached per-node attributes, the
//! memoized `(ReId, ReId) → bool` inclusion table, and the
//! [`InferenceCache`](mix_infer::InferenceCache) entries — dies with the
//! process, so every restart serves cold traffic. This crate persists
//! all three to disk and reloads them on construction, keyed entirely by
//! **content**: process-independent structural fingerprints
//! ([`mix_relang::pool::fingerprint`], [`mix_infer::fingerprint_query`],
//! [`mix_infer::fingerprint_dtd`]), never by intern indices, which are
//! meaningless across processes.
//!
//! ## Layout
//!
//! A store directory holds numbered **generation snapshots**
//! (`gen-NNNNNNNN.snap`) and one **write-behind log** (`wal.log`). Both
//! are the same format: an 8-byte magic, then length-prefixed,
//! FNV-1a-checksummed records (the private `codec` module). Snapshots carry the pool
//! arena, the inclusion batch, and every cache entry; the wal carries
//! only the view entries appended as misses happen, so even a
//! `SIGKILL`ed daemon warm-starts its inference cache.
//!
//! ## Corruption safety
//!
//! Nothing on disk is trusted. Every record is checksum-verified; pool
//! slots are re-interned and their fingerprints recomputed
//! ([`mix_relang::pool::import_arena`]); inclusion entries are dropped
//! with the slots they reference; view entries must parse and re-hash to
//! their stored query fingerprint. Any mismatch or truncation skips the
//! record — counted in `store_load_skipped_total` — and never poisons
//! the process: the cold path is always the correct fallback.
//!
//! ## Crash safety
//!
//! [`Store::compact_now`] writes the next generation to a `.tmp` file,
//! fsyncs it, and atomically renames it into place before truncating the
//! wal and removing older generations. A crash at *any* point leaves
//! either the previous generation intact (rename not reached — `.tmp`
//! files are ignored by loading) or the new generation plus a stale wal
//! (harmless: loading is idempotent). The crash-point enumeration test
//! below walks every window.

mod codec;

use codec::{
    frame, Dec, Enc, Records, Scan, KIND_INCLUSIONS, KIND_POOL, KIND_SAT, KIND_VIEW, MAGIC,
};
use mix_infer::{fingerprint_query, Fingerprint, InferredView, SatVerdict, Verdict, WarmStore};
use mix_obs::{Counter, Histogram, Registry};
use mix_relang::pool::{self, PortableEntry, PortableNode, ReId};
use mix_relang::symbol::Name;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Counters of one [`Store`] (typed view over its `store_*` instruments).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StoreStats {
    /// Entities (pool slots, inclusion entries, views) loaded and
    /// re-validated.
    pub loads: u64,
    /// Entities or records skipped on load: checksum/fingerprint
    /// mismatch, truncation, or an unreadable generation.
    pub load_skipped: u64,
    /// Write-behind records appended to the wal.
    pub writes: u64,
    /// Compacting snapshots written.
    pub compactions: u64,
    /// Bytes written (wal appends + snapshots).
    pub bytes: u64,
}

/// A content-addressed on-disk store for the warm state of one serving
/// process. Open it with the serving registry so its `store_*`
/// instruments land in the same exposition `mixctl stats` scrapes.
pub struct Store {
    dir: PathBuf,
    /// The append handle of `wal.log`, opened lazily; also serializes
    /// wal truncation against concurrent appends during compaction.
    wal: Mutex<Option<File>>,
    /// Every satisfiability verdict this store has seen — loaded records
    /// plus write-behind appends — so compaction re-emits them and a
    /// `SatCache` constructed after the inference cache warm-starts
    /// without re-reading the directory.
    sat: Mutex<HashMap<Fingerprint, SatVerdict>>,
    /// Whether [`Store::load`] has run (a sat-verdict read on a store
    /// nobody loaded yet triggers one).
    loaded: AtomicBool,
    loads: Counter,
    load_skipped: Counter,
    writes: Counter,
    compactions: Counter,
    bytes: Counter,
    load_ns: Histogram,
}

impl Store {
    /// Opens (creating if needed) the store directory. Nothing is read
    /// until [`Store::load`].
    pub fn open(dir: impl AsRef<Path>, registry: &Registry) -> io::Result<Store> {
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir)?;
        Ok(Store {
            dir,
            wal: Mutex::new(None),
            sat: Mutex::new(HashMap::new()),
            loaded: AtomicBool::new(false),
            loads: registry.counter("store_loads_total"),
            load_skipped: registry.counter("store_load_skipped_total"),
            writes: registry.counter("store_writes_total"),
            compactions: registry.counter("store_compactions_total"),
            bytes: registry.counter("store_bytes_total"),
            load_ns: registry.histogram("store_load_ns"),
        })
    }

    /// Current counter values.
    pub fn stats(&self) -> StoreStats {
        StoreStats {
            loads: self.loads.get(),
            load_skipped: self.load_skipped.get(),
            writes: self.writes.get(),
            compactions: self.compactions.get(),
            bytes: self.bytes.get(),
        }
    }

    /// The numbered generation snapshots present, ascending.
    fn generations(&self) -> Vec<(u64, PathBuf)> {
        let mut gens = Vec::new();
        let Ok(dir) = std::fs::read_dir(&self.dir) else {
            return gens;
        };
        for entry in dir.flatten() {
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            if let Some(num) = name
                .strip_prefix("gen-")
                .and_then(|rest| rest.strip_suffix(".snap"))
            {
                if let Ok(n) = num.parse::<u64>() {
                    gens.push((n, entry.path()));
                }
            }
        }
        gens.sort();
        gens
    }

    fn wal_path(&self) -> PathBuf {
        self.dir.join("wal.log")
    }

    /// Loads the newest readable generation, then the wal, into the
    /// process: the pool arena and inclusion table are seeded in place
    /// (globals), and the re-validated inference-cache entries are
    /// returned for the caller's cache. Corrupt or truncated state is
    /// skipped, never fatal.
    pub fn load(&self) -> Vec<(Fingerprint, InferredView)> {
        let t = Instant::now();
        self.loaded.store(true, Ordering::Release);
        let mut views = Vec::new();
        for (_, path) in self.generations().iter().rev() {
            match std::fs::read(path) {
                Ok(bytes) if bytes.len() >= MAGIC.len() && bytes[..MAGIC.len()] == MAGIC => {
                    self.load_body(&bytes[MAGIC.len()..], &mut views);
                    break; // older generations are strictly staler
                }
                // unreadable or foreign header: fall back a generation
                _ => self.load_skipped.inc(),
            }
        }
        match std::fs::read(self.wal_path()) {
            Ok(bytes) if bytes.len() >= MAGIC.len() && bytes[..MAGIC.len()] == MAGIC => {
                self.load_body(&bytes[MAGIC.len()..], &mut views);
            }
            Ok(bytes) if !bytes.is_empty() => self.load_skipped.inc(),
            _ => {} // absent or empty wal is a clean cold start
        }
        self.load_ns.observe(t.elapsed().as_nanos() as u64);
        views
    }

    /// Replays one record stream. `views` accumulates re-validated cache
    /// entries; pool/inclusion records seed the process-wide tables.
    fn load_body(&self, body: &[u8], views: &mut Vec<(Fingerprint, InferredView)>) {
        // inclusion ids reference the pool record of the same stream
        let mut arena: Option<pool::ImportedArena> = None;
        let mut records = Records::new(body);
        loop {
            match records.next() {
                Scan::End => break,
                Scan::Truncated => {
                    self.load_skipped.inc();
                    break;
                }
                Scan::Corrupt => self.load_skipped.inc(),
                Scan::Record { kind, payload } => match kind {
                    KIND_POOL => match decode_pool(payload) {
                        Some(entries) => {
                            let imported = pool::import_arena(&entries);
                            self.loads.add(imported.imported as u64);
                            self.load_skipped.add(imported.skipped as u64);
                            arena = Some(imported);
                        }
                        None => self.load_skipped.inc(),
                    },
                    KIND_INCLUSIONS => match decode_inclusions(payload) {
                        Some(triples) => {
                            let mut mapped = Vec::with_capacity(triples.len());
                            for (a, b, v) in triples {
                                match arena.as_ref().and_then(|m| Some((m.id(a)?, m.id(b)?))) {
                                    Some((a, b)) => mapped.push((a, b, v)),
                                    // the slot an entry rests on was
                                    // skipped: the entry goes with it
                                    None => self.load_skipped.inc(),
                                }
                            }
                            self.loads.add(mapped.len() as u64);
                            mix_relang::import_inclusions(mapped);
                        }
                        None => self.load_skipped.inc(),
                    },
                    KIND_VIEW => match decode_view(payload) {
                        Some(entry) => {
                            self.loads.inc();
                            views.push(entry);
                        }
                        None => self.load_skipped.inc(),
                    },
                    KIND_SAT => match decode_sat(payload) {
                        Some((fp, v)) => {
                            self.loads.inc();
                            self.sat.lock().insert(fp, v);
                        }
                        None => self.load_skipped.inc(),
                    },
                    // an unknown kind is a future format: skip, don't fail
                    _ => self.load_skipped.inc(),
                },
            }
        }
    }

    /// Appends one inference result to the write-behind log.
    /// Best-effort: an I/O error is reported and swallowed — durability
    /// never blocks serving, and the entry stays resident in memory.
    pub fn append_view(&self, fp: &Fingerprint, iv: &InferredView) {
        self.append_framed(frame(KIND_VIEW, &encode_view(fp, iv)));
    }

    /// Appends one satisfiability verdict to the write-behind log (and
    /// the in-memory accumulator compaction re-emits from). Best-effort,
    /// like [`Store::append_view`].
    pub fn append_sat(&self, fp: &Fingerprint, verdict: &SatVerdict) {
        self.sat.lock().insert(*fp, verdict.clone());
        self.append_framed(frame(KIND_SAT, &encode_sat(fp, verdict)));
    }

    fn append_framed(&self, framed: Vec<u8>) {
        let mut guard = self.wal.lock();
        let result = (|| -> io::Result<()> {
            if guard.is_none() {
                let path = self.wal_path();
                let fresh = !path.exists() || std::fs::metadata(&path)?.len() == 0;
                let mut file = OpenOptions::new().create(true).append(true).open(&path)?;
                if fresh {
                    file.write_all(&MAGIC)?;
                }
                *guard = Some(file);
            }
            let file = guard.as_mut().expect("opened above");
            file.write_all(&framed)?;
            file.flush()
        })();
        match result {
            Ok(()) => {
                self.writes.inc();
                self.bytes.add(framed.len() as u64);
            }
            Err(e) => {
                *guard = None; // reopen on the next append
                eprintln!("mix-store: wal append failed (serving continues cold): {e}");
            }
        }
    }

    /// Writes the next compacted generation: the whole pool arena, the
    /// inclusion table, and `entries`, fsynced and atomically renamed
    /// into place; then truncates the wal and removes older generations.
    /// A crash anywhere in between leaves the store loadable at the
    /// previous generation (`.tmp` files are never read).
    pub fn compact_now(&self, entries: &[(Fingerprint, Arc<InferredView>)]) -> io::Result<u64> {
        // export the arena first: inclusion ids at or past the arena
        // snapshot would dangle, so they are filtered out
        let arena = pool::export_arena();
        let inclusions: Vec<(ReId, ReId, bool)> = mix_relang::export_inclusions()
            .into_iter()
            .filter(|(a, b, _)| {
                (a.index() as usize) < arena.len() && (b.index() as usize) < arena.len()
            })
            .collect();

        let next = self.generations().last().map_or(1, |(n, _)| n + 1);
        let tmp = self.dir.join(format!("gen-{next:08}.snap.tmp"));
        let dest = self.dir.join(format!("gen-{next:08}.snap"));
        let mut buf = Vec::new();
        buf.extend_from_slice(&MAGIC);
        buf.extend_from_slice(&frame(KIND_POOL, &encode_pool(&arena)));
        buf.extend_from_slice(&frame(KIND_INCLUSIONS, &encode_inclusions(&inclusions)));
        for (fp, iv) in entries {
            buf.extend_from_slice(&frame(KIND_VIEW, &encode_view(fp, iv)));
        }
        // sat verdicts ride along in fingerprint order (deterministic
        // snapshots), so truncating the wal below never loses them
        let mut sat: Vec<(Fingerprint, SatVerdict)> = self
            .sat
            .lock()
            .iter()
            .map(|(&fp, v)| (fp, v.clone()))
            .collect();
        sat.sort_by_key(|(fp, _)| (fp.dtd, fp.query));
        for (fp, v) in &sat {
            buf.extend_from_slice(&frame(KIND_SAT, &encode_sat(fp, v)));
        }
        {
            let mut file = File::create(&tmp)?;
            file.write_all(&buf)?;
            file.sync_all()?;
        }
        std::fs::rename(&tmp, &dest)?;
        // fsync the directory so the rename itself is durable (best
        // effort: not every filesystem supports opening a directory)
        if let Ok(d) = File::open(&self.dir) {
            let _ = d.sync_all();
        }
        self.compactions.inc();
        self.bytes.add(buf.len() as u64);

        // the snapshot covers everything the wal held: truncate it (under
        // the append lock) and drop the older generations
        {
            let mut guard = self.wal.lock();
            *guard = None;
            let _ = std::fs::write(self.wal_path(), MAGIC);
        }
        for (n, path) in self.generations() {
            if n < next {
                let _ = std::fs::remove_file(path);
            }
        }
        Ok(next)
    }
}

impl WarmStore for Store {
    fn load_views(&self) -> Vec<(Fingerprint, InferredView)> {
        self.load()
    }

    fn record_view(&self, fp: &Fingerprint, iv: &InferredView) {
        self.append_view(fp, iv);
    }

    fn compact(&self, entries: &[(Fingerprint, Arc<InferredView>)]) {
        if let Err(e) = self.compact_now(entries) {
            eprintln!("mix-store: compaction failed (previous generation remains): {e}");
        }
    }

    fn load_sat_verdicts(&self) -> Vec<(Fingerprint, SatVerdict)> {
        // the usual construction order loads views (and with them the
        // sat records) first; a store nobody loaded yet reads the disk
        if !self.loaded.load(Ordering::Acquire) {
            let _ = self.load();
        }
        self.sat
            .lock()
            .iter()
            .map(|(&fp, v)| (fp, v.clone()))
            .collect()
    }

    fn record_sat_verdict(&self, fp: &Fingerprint, verdict: &SatVerdict) {
        self.append_sat(fp, verdict);
    }
}

impl std::fmt::Debug for Store {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Store")
            .field("dir", &self.dir)
            .field("stats", &self.stats())
            .finish()
    }
}

// ---------------------------------------------------------------------
// Payload encodings
// ---------------------------------------------------------------------

fn encode_pool(entries: &[PortableEntry]) -> Vec<u8> {
    let mut e = Enc::default();
    e.u32(entries.len() as u32);
    for entry in entries {
        match &entry.node {
            PortableNode::Empty => e.u8(0),
            PortableNode::Epsilon => e.u8(1),
            PortableNode::Sym { name, tag } => {
                e.u8(2);
                e.str(name);
                e.u32(*tag);
            }
            PortableNode::Concat(v) | PortableNode::Alt(v) => {
                e.u8(if matches!(&entry.node, PortableNode::Concat(_)) {
                    3
                } else {
                    4
                });
                e.u32(v.len() as u32);
                for &c in v {
                    e.u32(c);
                }
            }
            PortableNode::Star(x) => {
                e.u8(5);
                e.u32(*x);
            }
            PortableNode::Plus(x) => {
                e.u8(6);
                e.u32(*x);
            }
            PortableNode::Opt(x) => {
                e.u8(7);
                e.u32(*x);
            }
        }
        e.u64(entry.fp);
    }
    e.finish()
}

fn decode_pool(payload: &[u8]) -> Option<Vec<PortableEntry>> {
    let mut d = Dec::new(payload);
    let count = d.u32()? as usize;
    // cap preallocation by what the payload could possibly hold (2 bytes
    // is the smallest slot) so a corrupt count cannot balloon memory
    let mut out = Vec::with_capacity(count.min(payload.len() / 2));
    for _ in 0..count {
        let node = match d.u8()? {
            0 => PortableNode::Empty,
            1 => PortableNode::Epsilon,
            2 => PortableNode::Sym {
                name: d.str()?,
                tag: d.u32()?,
            },
            tag @ (3 | 4) => {
                let n = d.u32()? as usize;
                if n > payload.len() / 4 {
                    return None; // a corrupt child count, not a real slot
                }
                let mut kids = Vec::with_capacity(n);
                for _ in 0..n {
                    kids.push(d.u32()?);
                }
                if tag == 3 {
                    PortableNode::Concat(kids)
                } else {
                    PortableNode::Alt(kids)
                }
            }
            5 => PortableNode::Star(d.u32()?),
            6 => PortableNode::Plus(d.u32()?),
            7 => PortableNode::Opt(d.u32()?),
            _ => return None,
        };
        out.push(PortableEntry { node, fp: d.u64()? });
    }
    d.is_done().then_some(out)
}

/// Inclusion triples reference *export indices* of the pool record in
/// the same stream, so they survive only next to a pool record that
/// re-validated those slots.
fn encode_inclusions(triples: &[(ReId, ReId, bool)]) -> Vec<u8> {
    let mut e = Enc::default();
    e.u32(triples.len() as u32);
    for (a, b, v) in triples {
        e.u32(a.index());
        e.u32(b.index());
        e.u8(*v as u8);
    }
    e.finish()
}

fn decode_inclusions(payload: &[u8]) -> Option<Vec<(u32, u32, bool)>> {
    let mut d = Dec::new(payload);
    let count = d.u32()? as usize;
    let mut out = Vec::with_capacity(count.min(payload.len() / 9));
    for _ in 0..count {
        let a = d.u32()?;
        let b = d.u32()?;
        let v = match d.u8()? {
            0 => false,
            1 => true,
            _ => return None,
        };
        out.push((a, b, v));
    }
    d.is_done().then_some(out)
}

/// A view entry is pure text: every component round-trips through its
/// canonical `Display` form and parser, which makes the payload
/// process-independent and lets load re-verify the query fingerprint
/// against the stored key.
fn encode_view(fp: &Fingerprint, iv: &InferredView) -> Vec<u8> {
    let mut e = Enc::default();
    e.u64(fp.query);
    e.u64(fp.dtd);
    e.str(&iv.query.to_string());
    e.str(&iv.sdtd.to_string());
    e.str(&iv.dtd.to_string());
    e.u32(iv.merged_names.len() as u32);
    for n in &iv.merged_names {
        e.str(n.as_str());
    }
    e.u8(match iv.verdict {
        Verdict::Unsatisfiable => 0,
        Verdict::Satisfiable => 1,
        Verdict::Valid => 2,
    });
    e.str(&iv.list_type.to_string());
    e.finish()
}

fn decode_view(payload: &[u8]) -> Option<(Fingerprint, InferredView)> {
    let mut d = Dec::new(payload);
    let fp = Fingerprint {
        query: d.u64()?,
        dtd: d.u64()?,
    };
    let query = mix_xmas::parse_query(&d.str()?).ok()?;
    // content-addressing check: the parsed query must hash back to the
    // key it is filed under, or a lookup could hand out a foreign result
    if fingerprint_query(&query) != fp.query {
        return None;
    }
    let sdtd = mix_dtd::parse_compact_sdtd(&d.str()?).ok()?;
    let dtd = mix_dtd::parse_compact(&d.str()?).ok()?;
    let n = d.u32()? as usize;
    if n > payload.len() / 4 {
        return None;
    }
    let mut merged_names = Vec::with_capacity(n);
    for _ in 0..n {
        merged_names.push(Name::intern(&d.str()?));
    }
    let verdict = match d.u8()? {
        0 => Verdict::Unsatisfiable,
        1 => Verdict::Satisfiable,
        2 => Verdict::Valid,
        _ => return None,
    };
    let list_type = mix_relang::parse_regex(&d.str()?).ok()?;
    d.is_done().then_some((
        fp,
        InferredView {
            query,
            sdtd,
            dtd,
            merged_names,
            verdict,
            list_type,
        },
    ))
}

/// A sat record is the fingerprint pair plus the verdict. Only decided
/// verdicts persist (`Unknown` just means the analyzer gave up, which a
/// fresh process can rediscover for free); the record-level checksum is
/// the integrity guard, exactly as for inclusion entries.
fn encode_sat(fp: &Fingerprint, verdict: &SatVerdict) -> Vec<u8> {
    let mut e = Enc::default();
    e.u64(fp.query);
    e.u64(fp.dtd);
    match verdict {
        SatVerdict::Sat => {
            e.u8(0);
            e.str("");
        }
        SatVerdict::Unsat(reason) => {
            e.u8(1);
            e.str(reason);
        }
        SatVerdict::Unknown => {
            e.u8(2);
            e.str("");
        }
    }
    e.finish()
}

fn decode_sat(payload: &[u8]) -> Option<(Fingerprint, SatVerdict)> {
    let mut d = Dec::new(payload);
    let fp = Fingerprint {
        query: d.u64()?,
        dtd: d.u64()?,
    };
    let code = d.u8()?;
    let reason = d.str()?;
    let verdict = match code {
        0 => SatVerdict::Sat,
        1 => SatVerdict::Unsat(reason),
        _ => return None, // Unknown (or a future code) is never resident
    };
    d.is_done().then_some((fp, verdict))
}

#[cfg(test)]
mod tests;
