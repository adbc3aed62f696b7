//! The iso-class verdict cache.
//!
//! Membership verdicts are properties of *iso-classes*, not of concrete
//! adjacency lists: every class in the local-polynomial hierarchy is
//! closed under label-preserving isomorphism (paper Section 3; the repo
//! pins this with `tests/isomorphism_closure.rs`). So the service caches
//! each computed membership payload under its instance's iso-class and
//! replays it for any isomorphic instance.
//!
//! Keying is two-stage, mirroring `lph_graphs::iso`:
//!
//! 1. an **invariant bucket** — query kind, artifact key, backend, node
//!    count, edge count, and the sorted `(degree, label)` multiset — is a
//!    cheap string that isomorphic graphs agree on;
//! 2. within a bucket, candidates are confirmed by the exact
//!    [`lph_graphs::are_isomorphic`] search, so invariant collisions
//!    (same bucket, non-isomorphic graphs) can never alias a verdict.
//!
//! The cached value is the response [`Payload`] — the typed field list
//! after `"id"` and `"ok"` — which is how cache hits are byte-identical
//! to cold verdicts: the engine emits the stored fields under the
//! requester's id. Hits and misses are counted under `serve/cache_hits`
//! and `serve/cache_misses` when the trace recorder is on.
//!
//! Each representative is stored **packed**, without a `LabeledGraph`'s
//! per-node vectors: edges as `(u32, u32)` pairs, all label bits
//! concatenated 64 to a word, and a `u32` end offset per node. It is
//! rebuilt into a `LabeledGraph` only to confirm a bucket candidate.
//!
//! The cache can be **bounded** ([`IsoCache::with_cap`], exposed as
//! `lph-serve --cache-cap N`): when inserting a new iso-class
//! representative would exceed the cap, the least-recently-used
//! representative (hits count as uses) is evicted first, and the
//! eviction is counted under `serve/cache_evictions`. Unbounded remains
//! the default — the verdict corpus of a typical session is small — but
//! a long-lived TCP server facing adversarial or merely diverse traffic
//! can pin its memory with a cap.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::{Mutex, MutexGuard, PoisonError};

use lph_graphs::{are_isomorphic, BitString, LabeledGraph};

use crate::proto::Payload;

/// One cached iso-class representative.
struct Slot {
    rep: PackedGraph,
    payload: Payload,
    /// Logical timestamp of the last lookup hit or the insertion.
    last_used: u64,
}

/// A `LabeledGraph` packed for storage (see the module docs).
struct PackedGraph {
    /// The edges `(u, v)`, `u < v`, in [`LabeledGraph::edges`] order.
    edges: Box<[(u32, u32)]>,
    /// Every node's label bits, concatenated in node order, 64 per word
    /// (bit `i` is bit `i % 64` of word `i / 64`).
    label_bits: Box<[u64]>,
    /// `ends[u]` is the offset one past node `u`'s last label bit.
    ends: Box<[u32]>,
}

impl PackedGraph {
    fn pack(g: &LabeledGraph) -> Self {
        let idx = |x: usize| u32::try_from(x).expect("graph fits u32 indices");
        let bits: Vec<bool> = g.labels().iter().flat_map(BitString::iter).collect();
        let mut label_bits = vec![0u64; bits.len().div_ceil(64)];
        for i in (0..bits.len()).filter(|&i| bits[i]) {
            label_bits[i / 64] |= 1 << (i % 64);
        }
        PackedGraph {
            edges: g.edges().map(|(u, v)| (idx(u.0), idx(v.0))).collect(),
            label_bits: label_bits.into(),
            ends: g
                .labels()
                .iter()
                .scan(0, |end, l| {
                    *end += l.len();
                    Some(idx(*end))
                })
                .collect(),
        }
    }

    fn unpack(&self) -> LabeledGraph {
        let bit = |i: usize| self.label_bits[i / 64] >> (i % 64) & 1 == 1;
        let starts = std::iter::once(0).chain(self.ends.iter().map(|&e| e as usize));
        let labels = starts
            .zip(&self.ends)
            .map(|(s, &e)| (s..e as usize).map(bit).collect());
        let edges: Vec<(usize, usize)> = self
            .edges
            .iter()
            .map(|&(u, v)| (u as usize, v as usize))
            .collect();
        LabeledGraph::from_edges(labels.collect(), &edges).expect("packed from a valid graph")
    }
}

#[derive(Default)]
struct Inner {
    buckets: HashMap<String, Vec<Slot>>,
    /// Total representatives across buckets (maintained, not recounted).
    len: usize,
    /// Monotone logical clock driving the LRU order.
    tick: u64,
}

/// A concurrency-safe iso-class → payload map with optional LRU bound.
#[derive(Default)]
pub struct IsoCache {
    inner: Mutex<Inner>,
    cap: Option<usize>,
}

/// The invariant bucket key for `g` under a query context string.
/// Isomorphic graphs produce equal keys; unequal keys prove
/// non-isomorphism.
pub fn bucket_key(context: &str, g: &LabeledGraph) -> String {
    let mut sig: Vec<(usize, String)> = g
        .nodes()
        .map(|u| (g.degree(u), g.label(u).to_string()))
        .collect();
    sig.sort_unstable();
    let mut key = format!("{context}|n={}|m={}", g.node_count(), g.edge_count());
    for (d, l) in sig {
        let _ = write!(key, "|{d}:{l}");
    }
    key
}

impl IsoCache {
    /// An empty, unbounded cache.
    pub fn new() -> Self {
        IsoCache::default()
    }

    /// An empty cache evicting least-recently-used representatives past
    /// `cap` (a cap of 0 caches nothing).
    pub fn with_cap(cap: usize) -> Self {
        IsoCache {
            inner: Mutex::new(Inner::default()),
            cap: Some(cap),
        }
    }

    /// The cache state. Each critical section runs the code that may panic
    /// (isomorphism confirms, packing) before it mutates the buckets, so a
    /// panic under the lock leaves the state consistent: a poisoned lock
    /// is recovered rather than failing every later request.
    fn inner(&self) -> MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Replays the payload cached for `g`'s iso-class, if any, marking
    /// the class as recently used.
    pub fn lookup(&self, key: &str, g: &LabeledGraph) -> Option<Payload> {
        let mut inner = self.inner();
        inner.tick += 1;
        let tick = inner.tick;
        let hit = inner
            .buckets
            .get_mut(key)
            .and_then(|b| b.iter_mut().find(|s| are_isomorphic(&s.rep.unpack(), g)))
            .map(|s| {
                s.last_used = tick;
                s.payload.clone()
            });
        drop(inner);
        if hit.is_some() {
            lph_trace::add("serve/cache_hits", 1);
        } else {
            lph_trace::add("serve/cache_misses", 1);
        }
        hit
    }

    /// Records `g`'s iso-class representative and its payload, evicting
    /// the least-recently-used representative first when a cap is set
    /// and full. Two workers racing on the same class keep the first
    /// insertion; the loser's identical payload is dropped.
    pub fn insert(&self, key: String, g: LabeledGraph, payload: Payload) {
        if self.cap == Some(0) {
            return;
        }
        let mut inner = self.inner();
        let already = inner
            .buckets
            .get(&key)
            .is_some_and(|b| b.iter().any(|s| are_isomorphic(&s.rep.unpack(), &g)));
        if already {
            return;
        }
        let rep = PackedGraph::pack(&g);
        if let Some(cap) = self.cap {
            while inner.len >= cap {
                evict_lru(&mut inner);
                lph_trace::add("serve/cache_evictions", 1);
            }
        }
        inner.tick += 1;
        let last_used = inner.tick;
        inner.buckets.entry(key).or_default().push(Slot {
            rep,
            payload,
            last_used,
        });
        inner.len += 1;
    }

    /// Number of cached iso-class representatives.
    pub fn len(&self) -> usize {
        self.inner().len
    }

    /// Whether the cache holds nothing.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Removes the representative with the smallest `last_used` stamp. A
/// linear scan over every bucket — caps are small by construction, and
/// insertion is already behind an exact isomorphism search.
fn evict_lru(inner: &mut Inner) {
    let Some((key, i)) = inner
        .buckets
        .iter()
        .flat_map(|(k, b)| b.iter().enumerate().map(move |(i, s)| (s.last_used, k, i)))
        .min()
        .map(|(_, k, i)| (k.clone(), i))
    else {
        return;
    };
    let bucket = inner.buckets.get_mut(&key).expect("victim bucket exists");
    bucket.remove(i);
    inner.len -= 1;
    if bucket.is_empty() {
        inner.buckets.remove(&key);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lph_analysis::json::Json;
    use lph_graphs::generators;

    fn payload(tag: &str) -> Payload {
        vec![("tag".to_owned(), Json::Str(tag.to_owned()))]
    }

    #[test]
    fn isomorphic_instances_share_a_verdict() {
        let cache = IsoCache::new();
        // The same cycle with rotated labels: isomorphic, different arrays.
        let a = generators::labeled_cycle(&["1", "1", "0"]);
        let b = generators::labeled_cycle(&["0", "1", "1"]);
        let (ka, kb) = (bucket_key("m|x", &a), bucket_key("m|x", &b));
        assert_eq!(ka, kb);
        cache.insert(ka, a, payload("verdict"));
        assert_eq!(cache.lookup(&kb, &b).unwrap(), payload("verdict"));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn bucket_collisions_do_not_alias() {
        // Equal (degree, label) multisets, different label order along
        // the path: 1-0-1-0 vs 1-1-0-0 agree on endpoints {1,0} and
        // middles {0,1} but neither forward nor reversed orders match.
        let a = generators::labeled_path(&["1", "0", "1", "0"]);
        let b = generators::labeled_path(&["1", "1", "0", "0"]);
        let (ka, kb) = (bucket_key("m|x", &a), bucket_key("m|x", &b));
        assert_eq!(ka, kb, "same invariants");
        assert!(!are_isomorphic(&a, &b));
        let cache = IsoCache::new();
        cache.insert(ka, a, payload("a"));
        assert!(cache.lookup(&kb, &b).is_none(), "must not alias");
    }

    #[test]
    fn different_context_never_hits() {
        let cache = IsoCache::new();
        let g = generators::cycle(4);
        cache.insert(bucket_key("m|arb1", &g), g.clone(), payload("a"));
        assert!(cache.lookup(&bucket_key("m|arb2", &g), &g).is_none());
    }

    #[test]
    fn cap_evicts_the_least_recently_used_class() {
        let cache = IsoCache::with_cap(2);
        let (g3, g4, g5) = (
            generators::cycle(3),
            generators::cycle(4),
            generators::cycle(5),
        );
        cache.insert(bucket_key("m", &g3), g3.clone(), payload("c3"));
        cache.insert(bucket_key("m", &g4), g4.clone(), payload("c4"));
        // Touch c3 so c4 becomes the LRU victim.
        assert!(cache.lookup(&bucket_key("m", &g3), &g3).is_some());
        cache.insert(bucket_key("m", &g5), g5.clone(), payload("c5"));
        assert_eq!(cache.len(), 2);
        assert!(cache.lookup(&bucket_key("m", &g4), &g4).is_none());
        assert!(cache.lookup(&bucket_key("m", &g3), &g3).is_some());
        assert!(cache.lookup(&bucket_key("m", &g5), &g5).is_some());
    }

    #[test]
    fn zero_cap_caches_nothing_and_reinsertion_respects_the_cap() {
        let zero = IsoCache::with_cap(0);
        let g = generators::cycle(3);
        zero.insert(bucket_key("m", &g), g.clone(), payload("x"));
        assert!(zero.is_empty());

        let one = IsoCache::with_cap(1);
        for n in 3..8 {
            let g = generators::cycle(n);
            one.insert(bucket_key("m", &g), g.clone(), payload("y"));
            assert_eq!(one.len(), 1, "cap holds after insert {n}");
        }
        // The survivor is the most recent insertion.
        let g7 = generators::cycle(7);
        assert!(one.lookup(&bucket_key("m", &g7), &g7).is_some());
    }

    #[test]
    fn eviction_counter_tracks_evictions() {
        lph_trace::set_enabled(true);
        let before = counter("serve/cache_evictions");
        let cache = IsoCache::with_cap(1);
        for n in 3..6 {
            let g = generators::cycle(n);
            cache.insert(bucket_key("m", &g), g, payload("z"));
        }
        // Other cap tests may race on the global counter; this cache
        // alone contributes exactly 2.
        assert!(counter("serve/cache_evictions") - before >= 2);
    }

    #[test]
    fn packing_round_trips_and_keeps_label_boundaries() {
        let long = "10".repeat(40); // label bits past one 64-bit word
        let labels: [&[&str]; 3] = [&["", "0", "01", "110"], &["110", "", &long, "1"], &[""]];
        for g in labels
            .map(generators::labeled_path)
            .into_iter()
            .chain([generators::grid(3, 4)])
        {
            assert_eq!(PackedGraph::pack(&g).unpack(), g);
        }
        // Both concatenate to "0110", split at different node boundaries.
        let a = generators::labeled_path(&["0", "110"]);
        let b = generators::labeled_path(&["01", "10"]);
        let (pa, pb) = (PackedGraph::pack(&a), PackedGraph::pack(&b));
        assert_eq!(pa.label_bits, pb.label_bits, "same concatenated bits");
        assert_ne!(pa.unpack(), pb.unpack());
        assert_eq!((pa.unpack(), pb.unpack()), (a, b));
    }

    #[test]
    fn a_poisoned_lock_is_recovered() {
        let cache = IsoCache::new();
        let (g3, g4) = (generators::cycle(3), generators::cycle(4));
        cache.insert(bucket_key("m", &g3), g3.clone(), payload("c3"));
        std::thread::scope(|s| {
            let poisoner = s.spawn(|| {
                let _guard = cache.inner.lock();
                panic!("panic while holding the cache lock");
            });
            assert!(poisoner.join().is_err());
        });
        assert!(cache.inner.is_poisoned());
        assert!(cache.lookup(&bucket_key("m", &g3), &g3) == Some(payload("c3")));
        cache.insert(bucket_key("m", &g4), g4.clone(), payload("c4"));
        assert!(cache.lookup(&bucket_key("m", &g4), &g4) == Some(payload("c4")));
        assert_eq!(cache.len(), 2);
    }

    fn counter(name: &str) -> u64 {
        lph_trace::snapshot()
            .counters
            .iter()
            .find(|c| c.name == name)
            .map_or(0, |c| c.value)
    }
}
