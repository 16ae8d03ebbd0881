//! The inference cache of the serving layer: memoized [`infer_view_dtd`]
//! keyed on a **stable fingerprint** of (normalized query, source DTD).
//!
//! A mediator serves many clients over few sources, so the same
//! (query, DTD) pairs recur constantly; the full pipeline (normalize →
//! tighten → infer-list → collapse → merge) is pure in its inputs, which
//! makes its results safely shareable. The fingerprint is built from
//! [`Name::stable_hash`](mix_relang::symbol::Name::stable_hash)/
//! [`Sym::stable_hash`](mix_relang::symbol::Sym::stable_hash) — process-independent
//! content hashes precomputed at intern time — so computing a key costs a
//! structural walk with one table lookup per name, no string re-hashing.
//!
//! **Key design.** `Fingerprint = (query_fp, dtd_fp)` where
//!
//! * `query_fp` hashes the *normalized* query (its canonical `Display`
//!   form, which round-trips through the parser): two surface queries
//!   that normalize identically against the same source share one entry;
//! * `dtd_fp` hashes the source DTD structurally — doc type plus every
//!   (name, content model) entry in definition order.
//!
//! **Invalidation rule.** When a source's DTD changes (the mediator's
//! `replace_source`), every entry whose `dtd_fp` matches the *old* DTD is
//! dropped via [`InferenceCache::invalidate_dtd`]. Entries keyed by other
//! DTDs are untouched: a fingerprint match is the only coupling between a
//! cache entry and a source.
//!
//! **Observability.** The cache's counters are [`mix_obs`] instruments
//! (`inference_cache_hits_total`, `…_misses_total`,
//! `…_invalidations_total`, plus the `inference_cache_entries` gauge) in
//! the registry handed to [`InferenceCache::with_registry`] — a cache
//! built with [`InferenceCache::new`] owns a private enabled registry.
//! Each lookup also records a `cache_lookup` span (and `infer` on a
//! miss) into that registry's span ring. [`InferenceCache::stats`] is a
//! typed view over the same instruments, reported through
//! [`crate::metrics::serving_metrics`] next to the automata-layer
//! [`mix_relang::memo_stats`].
//!
//! **Bounding.** The table is capped ([`INFERENCE_CACHE_CAPACITY`] by
//! default): at the bound, inserting runs a second-chance sweep — every
//! entry not hit since the previous sweep is dropped (counted in
//! `inference_cache_evictions_total`), survivors are demoted, and a
//! fully-referenced table flushes wholesale like the relang memo tables.
//!
//! **Persistence.** A cache built with [`InferenceCache::with_store`]
//! warm-starts from a [`WarmStore`] (mix-store's content-addressed
//! segment store) and writes each freshly inferred entry behind to it;
//! [`InferenceCache::compact_store`] snapshots the resident entries back
//! at clean shutdown. The fingerprints are process-independent content
//! hashes, which is exactly what makes the entries portable.

use crate::pipeline::{infer_view_dtd, InferredView};
use mix_dtd::{ContentModel, Dtd};
use mix_obs::{Counter, Gauge, Registry};
use mix_relang::ast::Regex;
use mix_xmas::{normalize, NormalizeError, Query};
use parking_lot::RwLock;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Default resident-entry bound of an [`InferenceCache`] (the PR-8
/// `ParseMemo` bound philosophy: a mediator's working set is small, so
/// cap the table and evict instead of growing without limit).
pub const INFERENCE_CACHE_CAPACITY: usize = 4096;

/// A persistence backend an [`InferenceCache`] can warm-start from —
/// implemented by `mix-store`'s content-addressed segment store. The
/// trait lives here (not in the store crate) so `mix-infer` stays free
/// of any storage dependency; the cache only ever sees opaque loads and
/// write-behind notifications.
///
/// Contract: `load_views` must return only entries whose payloads were
/// re-validated against their fingerprints (a corrupt or stale entry is
/// the implementation's problem to drop — cold inference is always the
/// correct fallback), and `record_view`/`compact` must never block
/// serving on durability (best-effort, swallow I/O errors).
pub trait WarmStore: Send + Sync {
    /// Every persisted, re-validated `(fingerprint, inferred view)` pair.
    fn load_views(&self) -> Vec<(Fingerprint, InferredView)>;
    /// Write-behind notification: `iv` was just inferred under `fp`.
    fn record_view(&self, fp: &Fingerprint, iv: &InferredView);
    /// Compacts the backing store down to `entries` (plus whatever
    /// non-view state the store persists, e.g. the regex pool arena).
    fn compact(&self, entries: &[(Fingerprint, Arc<InferredView>)]);
    /// Every persisted `(fingerprint, satisfiability verdict)` pair a
    /// [`crate::sat::SatCache`] can warm-start from. Default: none —
    /// stores predating the sat layer keep compiling unchanged.
    fn load_sat_verdicts(&self) -> Vec<(Fingerprint, crate::sat::SatVerdict)> {
        Vec::new()
    }
    /// Write-behind notification: `verdict` was just decided under `fp`.
    /// Only `Sat`/`Unsat` arrive here — `Unknown` is never persisted.
    fn record_sat_verdict(&self, _fp: &Fingerprint, _verdict: &crate::sat::SatVerdict) {}
}

/// One resident entry: the shared result plus the second-chance
/// reference bit (set on every hit, cleared by the eviction sweep).
struct Slot {
    view: Arc<InferredView>,
    referenced: AtomicBool,
}

impl Slot {
    fn new(view: Arc<InferredView>) -> Slot {
        Slot {
            view,
            referenced: AtomicBool::new(false),
        }
    }
}

/// Process-independent cache key for one (normalized query, source DTD)
/// inference.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Fingerprint {
    /// Stable hash of the normalized query.
    pub query: u64,
    /// Stable hash of the source DTD.
    pub dtd: u64,
}

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn mix(h: u64, v: u64) -> u64 {
    // SplitMix64 finalizer over a running combine: order-sensitive, cheap,
    // and stable across processes (no RandomState involved).
    let mut z = h.wrapping_add(v).wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn regex_fp(h: u64, r: &Regex) -> u64 {
    // The pool caches a compositional structural fingerprint per interned
    // node (same SplitMix64 mixer, [`Sym::stable_hash`] leaves), so a DTD
    // whose content models are already interned fingerprints without
    // re-walking the regexes. Fingerprints never persist, so the exact
    // values are free to differ from the pre-pool fold.
    mix(h, mix_relang::pool::fingerprint(mix_relang::intern(r)))
}

/// Stable structural fingerprint of a source DTD: doc type plus every
/// (name, content model) entry in definition order. Equal DTDs (same
/// definitions in the same order) fingerprint equal in every process.
pub fn fingerprint_dtd(dtd: &Dtd) -> u64 {
    let mut h = mix(0x6d69_785f_6474_6421, dtd.doc_type.stable_hash());
    for (n, m) in dtd.types.iter() {
        h = mix(h, n.stable_hash());
        h = match m {
            ContentModel::Pcdata => mix(h, 0xbeef),
            ContentModel::Elements(r) => regex_fp(mix(h, 0xcafe), r),
        };
    }
    h
}

/// Stable fingerprint of an (already normalized) query via its canonical
/// `Display` form, which round-trips through the parser.
pub fn fingerprint_query(q: &Query) -> u64 {
    fnv1a(q.to_string().as_bytes())
}

/// Counters of one [`InferenceCache`] (experiment X15's observability).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Inferences served from the cache.
    pub hits: u64,
    /// Inferences that ran the full pipeline.
    pub misses: u64,
    /// Entries dropped by [`InferenceCache::invalidate_dtd`].
    pub invalidations: u64,
    /// Entries dropped by the capacity bound's second-chance sweep.
    pub evictions: u64,
    /// Entries currently resident.
    pub entries: usize,
}

/// A concurrency-safe memo table for [`infer_view_dtd`], shared by every
/// thread of the mediator's serving layer (`answer_many`).
pub struct InferenceCache {
    map: RwLock<HashMap<Fingerprint, Slot>>,
    capacity: usize,
    store: Option<Arc<dyn WarmStore>>,
    registry: Registry,
    hits: Counter,
    misses: Counter,
    invalidations: Counter,
    evictions: Counter,
    entries: Gauge,
}

impl Default for InferenceCache {
    fn default() -> InferenceCache {
        InferenceCache::new()
    }
}

impl InferenceCache {
    /// An empty cache observing into its own private registry.
    pub fn new() -> InferenceCache {
        InferenceCache::with_registry(Registry::new())
    }

    /// An empty cache recording its instruments (and lookup spans) into
    /// `registry` — pass the mediator's registry to serve one merged
    /// exposition, or [`Registry::noop`] to observe nothing.
    pub fn with_registry(registry: Registry) -> InferenceCache {
        InferenceCache::with_capacity(INFERENCE_CACHE_CAPACITY, registry)
    }

    /// An empty cache bounded at `capacity` resident entries. At the
    /// bound, inserting sweeps second-chance style: entries not hit since
    /// the previous sweep are evicted (counted in
    /// `inference_cache_evictions_total`); if every entry was hit, the
    /// table is flushed wholesale like the relang memo tables.
    pub fn with_capacity(capacity: usize, registry: Registry) -> InferenceCache {
        InferenceCache {
            map: RwLock::new(HashMap::new()),
            capacity: capacity.max(1),
            store: None,
            hits: registry.counter("inference_cache_hits_total"),
            misses: registry.counter("inference_cache_misses_total"),
            invalidations: registry.counter("inference_cache_invalidations_total"),
            evictions: registry.counter("inference_cache_evictions_total"),
            entries: registry.gauge("inference_cache_entries"),
            registry,
        }
    }

    /// A cache that warm-starts from `store` (every persisted,
    /// re-validated entry is resident before the first lookup) and writes
    /// behind to it on each miss. Loading past the capacity bound stops
    /// early — cold inference refills anything dropped.
    pub fn with_store(registry: Registry, store: Arc<dyn WarmStore>) -> InferenceCache {
        let mut cache = InferenceCache::with_registry(registry);
        let mut map = HashMap::new();
        for (fp, iv) in store.load_views() {
            if map.len() >= cache.capacity {
                break;
            }
            map.entry(fp).or_insert_with(|| Slot::new(Arc::new(iv)));
        }
        cache.entries.set(map.len() as i64);
        cache.map = RwLock::new(map);
        cache.store = Some(store);
        cache
    }

    /// The registry this cache observes into.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// The fingerprint under which `(q, source)` is cached. Normalization
    /// errors surface exactly as from [`infer_view_dtd`].
    pub fn fingerprint(q: &Query, source: &Dtd) -> Result<Fingerprint, NormalizeError> {
        let nq = normalize(q, source)?;
        Ok(Fingerprint {
            query: fingerprint_query(&nq),
            dtd: fingerprint_dtd(source),
        })
    }

    /// Memoized [`infer_view_dtd`]: returns the shared result on a hit,
    /// runs the pipeline and populates the table on a miss.
    pub fn infer(&self, q: &Query, source: &Dtd) -> Result<Arc<InferredView>, NormalizeError> {
        let lookup = self.registry.span("cache_lookup");
        let fp = InferenceCache::fingerprint(q, source)?;
        if let Some(slot) = self.map.read().get(&fp) {
            self.hits.inc();
            slot.referenced.store(true, Ordering::Relaxed);
            return Ok(Arc::clone(&slot.view));
        }
        drop(lookup);
        self.misses.inc();
        let infer_span = self.registry.span("infer");
        let iv = Arc::new(infer_view_dtd(q, source)?);
        drop(infer_span);
        // under contention the pipeline may have raced: keep the first
        // insert so concurrent callers converge on one shared value
        let (shared, inserted) = {
            let mut map = self.map.write();
            let inserted = !map.contains_key(&fp);
            if inserted && map.len() >= self.capacity {
                self.sweep(&mut map);
            }
            let shared = Arc::clone(&map.entry(fp).or_insert_with(|| Slot::new(iv)).view);
            self.entries.set(map.len() as i64);
            (shared, inserted)
        };
        if inserted {
            // write-behind outside the lock: durability never blocks peers
            if let Some(store) = &self.store {
                store.record_view(&fp, &shared);
            }
        }
        Ok(shared)
    }

    /// The second-chance sweep run at the capacity bound (caller holds
    /// the write lock): drop everything not referenced since the last
    /// sweep and demote the survivors; if every entry was referenced,
    /// flush wholesale — the next misses rebuild the hot set.
    fn sweep(&self, map: &mut HashMap<Fingerprint, Slot>) {
        let before = map.len();
        map.retain(|_, slot| slot.referenced.swap(false, Ordering::Relaxed));
        if map.len() == before {
            map.clear();
        }
        self.evictions.add((before - map.len()) as u64);
    }

    /// Drops every entry inferred against `source` (matched by DTD
    /// fingerprint) and returns how many were dropped. This is the
    /// invalidation hook for the mediator's `replace_source`: call it
    /// with the *old* DTD before (or after) swapping the source in.
    pub fn invalidate_dtd(&self, source: &Dtd) -> usize {
        let fp = fingerprint_dtd(source);
        let mut map = self.map.write();
        let before = map.len();
        map.retain(|k, _| k.dtd != fp);
        let dropped = before - map.len();
        self.invalidations.add(dropped as u64);
        self.entries.set(map.len() as i64);
        dropped
    }

    /// The resident entries, for compaction: every `(fingerprint, view)`
    /// pair currently held.
    pub fn entries_snapshot(&self) -> Vec<(Fingerprint, Arc<InferredView>)> {
        self.map
            .read()
            .iter()
            .map(|(&fp, slot)| (fp, Arc::clone(&slot.view)))
            .collect()
    }

    /// Compacts the warm store (if one is attached) down to the resident
    /// entries — the clean-shutdown / on-demand snapshot hook. Returns
    /// whether a store was attached.
    pub fn compact_store(&self) -> bool {
        match &self.store {
            Some(store) => {
                store.compact(&self.entries_snapshot());
                true
            }
            None => false,
        }
    }

    /// Drops everything (counters are kept).
    pub fn clear(&self) {
        self.map.write().clear();
        self.entries.set(0);
    }

    /// Resident entry count.
    pub fn len(&self) -> usize {
        self.map.read().len()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A snapshot of the counters (a typed view over the
    /// `inference_cache_*` instruments of this cache's registry).
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.get(),
            misses: self.misses.get(),
            invalidations: self.invalidations.get(),
            evictions: self.evictions.get(),
            entries: self.len(),
        }
    }
}

impl std::fmt::Debug for InferenceCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("InferenceCache")
            .field("stats", &self.stats())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mix_dtd::paper::d1_department;
    use mix_dtd::parse_compact;
    use mix_xmas::parse_query;

    fn q3() -> Query {
        parse_query(
            "publist = SELECT P WHERE <department> <name>CS</name> \
               <professor | gradStudent> P:<publication><journal/></publication> </> </>",
        )
        .unwrap()
    }

    #[test]
    fn hit_returns_the_shared_result() {
        let cache = InferenceCache::new();
        let d = d1_department();
        let a = cache.infer(&q3(), &d).unwrap();
        let b = cache.infer(&q3(), &d).unwrap();
        assert!(Arc::ptr_eq(&a, &b), "second call must be a cache hit");
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.entries), (1, 1, 1));
    }

    #[test]
    fn cached_equals_uncached() {
        let cache = InferenceCache::new();
        let d = d1_department();
        let direct = infer_view_dtd(&q3(), &d).unwrap();
        let cached = cache.infer(&q3(), &d).unwrap();
        assert_eq!(direct.verdict, cached.verdict);
        assert_eq!(direct.dtd.to_string(), cached.dtd.to_string());
        assert_eq!(direct.sdtd.to_string(), cached.sdtd.to_string());
        assert_eq!(direct.merged_names, cached.merged_names);
    }

    #[test]
    fn different_dtds_do_not_collide() {
        let cache = InferenceCache::new();
        let d_a = parse_compact(
            "{<department : name, professor*> <name : PCDATA> \
              <professor : publication*> <publication : journal?> <journal : EMPTY>}",
        )
        .unwrap();
        let d_b = d1_department();
        let a = cache.infer(&q3(), &d_a).unwrap();
        let b = cache.infer(&q3(), &d_b).unwrap();
        assert_ne!(a.dtd.to_string(), b.dtd.to_string());
        assert_eq!(cache.stats().entries, 2);
    }

    #[test]
    fn invalidation_is_per_dtd() {
        let cache = InferenceCache::new();
        let d_a = parse_compact(
            "{<department : name, professor*> <name : PCDATA> \
              <professor : publication*> <publication : journal?> <journal : EMPTY>}",
        )
        .unwrap();
        let d_b = d1_department();
        cache.infer(&q3(), &d_a).unwrap();
        cache.infer(&q3(), &d_b).unwrap();
        assert_eq!(cache.invalidate_dtd(&d_a), 1);
        assert_eq!(cache.stats().entries, 1);
        // d_b's entry survived: next call is still a hit
        let h = cache.stats().hits;
        cache.infer(&q3(), &d_b).unwrap();
        assert_eq!(cache.stats().hits, h + 1);
        // and d_a's was dropped: next call is a miss
        let m = cache.stats().misses;
        cache.infer(&q3(), &d_a).unwrap();
        assert_eq!(cache.stats().misses, m + 1);
    }

    #[test]
    fn fingerprints_are_content_hashes() {
        // the same DTD parsed twice fingerprints identically even though
        // the two values are distinct allocations
        let src = "{<site : item*> <item : PCDATA>}";
        let a = parse_compact(src).unwrap();
        let b = parse_compact(src).unwrap();
        assert_eq!(fingerprint_dtd(&a), fingerprint_dtd(&b));
        // reordering definitions is a different document
        let c = parse_compact("{<site : item*> <item : part?> <part : EMPTY>}").unwrap();
        assert_ne!(fingerprint_dtd(&a), fingerprint_dtd(&c));
    }

    #[test]
    fn capacity_bound_evicts_second_chance() {
        // capacity 2: two queries fill the cache; a third insert sweeps.
        // q_a is re-hit before the sweep (reference bit set), q_b is not —
        // so the sweep evicts exactly q_b.
        let cache = InferenceCache::with_capacity(2, Registry::new());
        let d = d1_department();
        let q_a = q3();
        let q_b = parse_query("profs = SELECT P WHERE <department> P:<professor/> </>").unwrap();
        let q_c = parse_query("grads = SELECT G WHERE <department> G:<gradStudent/> </>").unwrap();
        cache.infer(&q_a, &d).unwrap();
        cache.infer(&q_b, &d).unwrap();
        cache.infer(&q_a, &d).unwrap(); // sets q_a's reference bit
        cache.infer(&q_c, &d).unwrap(); // at capacity: sweep runs
        let s = cache.stats();
        assert_eq!(s.evictions, 1, "only the unreferenced entry is evicted");
        assert_eq!(s.entries, 2);
        // q_a survived (hit), q_b was evicted (miss)
        let h = cache.stats().hits;
        cache.infer(&q_a, &d).unwrap();
        assert_eq!(cache.stats().hits, h + 1);
        let m = cache.stats().misses;
        cache.infer(&q_b, &d).unwrap();
        assert_eq!(cache.stats().misses, m + 1);
    }

    #[test]
    fn all_referenced_sweep_flushes_wholesale() {
        let cache = InferenceCache::with_capacity(2, Registry::new());
        let d = d1_department();
        let q_a = q3();
        let q_b = parse_query("profs = SELECT P WHERE <department> P:<professor/> </>").unwrap();
        let q_c = parse_query("grads = SELECT G WHERE <department> G:<gradStudent/> </>").unwrap();
        cache.infer(&q_a, &d).unwrap();
        cache.infer(&q_b, &d).unwrap();
        cache.infer(&q_a, &d).unwrap();
        cache.infer(&q_b, &d).unwrap(); // both reference bits set
        cache.infer(&q_c, &d).unwrap();
        let s = cache.stats();
        assert_eq!(s.evictions, 2, "everything referenced: wholesale flush");
        assert_eq!(s.entries, 1, "only the new entry is resident");
    }

    #[derive(Default)]
    struct RecordingStore {
        seed: Vec<(Fingerprint, InferredView)>,
        recorded: parking_lot::Mutex<Vec<Fingerprint>>,
        compacted: parking_lot::Mutex<Vec<usize>>,
    }

    impl WarmStore for RecordingStore {
        fn load_views(&self) -> Vec<(Fingerprint, InferredView)> {
            self.seed.clone()
        }
        fn record_view(&self, fp: &Fingerprint, _iv: &InferredView) {
            self.recorded.lock().push(*fp);
        }
        fn compact(&self, entries: &[(Fingerprint, Arc<InferredView>)]) {
            self.compacted.lock().push(entries.len());
        }
    }

    #[test]
    fn warm_store_loads_writes_behind_and_compacts() {
        let d = d1_department();
        let fp = InferenceCache::fingerprint(&q3(), &d).unwrap();
        let seeded = infer_view_dtd(&q3(), &d).unwrap();
        let store = Arc::new(RecordingStore {
            seed: vec![(fp, seeded)],
            ..RecordingStore::default()
        });
        let cache =
            InferenceCache::with_store(Registry::new(), Arc::clone(&store) as Arc<dyn WarmStore>);
        assert_eq!(cache.len(), 1, "store entries are resident on construct");
        // the seeded entry serves as a hit: no pipeline run, no write-behind
        cache.infer(&q3(), &d).unwrap();
        assert_eq!(cache.stats(), {
            let mut s = cache.stats();
            s.hits = 1;
            s.misses = 0;
            s
        });
        assert!(store.recorded.lock().is_empty());
        // a genuinely new inference writes behind
        let q_b = parse_query("profs = SELECT P WHERE <department> P:<professor/> </>").unwrap();
        cache.infer(&q_b, &d).unwrap();
        assert_eq!(store.recorded.lock().len(), 1);
        // compaction hands the store every resident entry
        assert!(cache.compact_store());
        assert_eq!(store.compacted.lock().as_slice(), &[2]);
    }

    #[test]
    fn surface_variants_normalizing_equal_share_an_entry() {
        let cache = InferenceCache::new();
        let d = d1_department();
        // same query with different whitespace in the source text
        let a = parse_query(
            "publist = SELECT P WHERE <department> <name>CS</name> \
               <professor | gradStudent> P:<publication><journal/></publication> </> </>",
        )
        .unwrap();
        let b = parse_query(
            "publist = SELECT P WHERE <department><name>CS</name>\
               <professor | gradStudent>P:<publication><journal/></publication></></>",
        )
        .unwrap();
        cache.infer(&a, &d).unwrap();
        cache.infer(&b, &d).unwrap();
        assert_eq!(cache.stats().entries, 1, "normalized twins must share");
        assert_eq!(cache.stats().hits, 1);
    }
}
