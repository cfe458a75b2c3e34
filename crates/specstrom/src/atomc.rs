//! Value-keyed atom expansion memoization.
//!
//! Formula progression expands every live atom at every observed state —
//! millions of [`Thunk`] evaluations over a registry sweep, even though a
//! typical sweep only ever *visits* a few hundred distinct states. This
//! module removes that redundancy. An atom's expansion is a pure function
//! of (a) the atom itself — its compiled code and captured environment —
//! and (b) the slice of the state its footprint can read
//! ([`crate::analysis::AtomFootprint`]). [`AtomKeyer`] hashes (a) into a
//! *semantic* atom key: the IR node by address (compiled once, stable for
//! the specification's lifetime) and the environment chain by *content*,
//! so the fresh frames each run's evaluation builds hash equal whenever
//! they bind equal values. The checker pairs that key with a projection
//! hash of (b) and looks the expansion up in a property-level [`AtomMemo`]
//! shared across runs, workers, and shrink replays (one of the three
//! caches a [`PropertyCache`](crate::spec::PropertyCache) owns). A miss
//! expands the atom with [`crate::eval::expand_thunk`], the interpreter
//! every other consumer (and the reference checker) uses.
//!
//! Correctness story: memo keys are hashes, so two different projections
//! could in principle collide. Debug builds re-expand on every hit and
//! assert the served expansion is structurally identical
//! ([`MemoEntry::matches_expansion`]); the differential suites in the
//! bench crate run in debug and exercise exactly that path. Eviction (FIFO
//! by first insertion, bounded capacity) only ever causes re-expansion,
//! never a wrong value.

use std::collections::{HashMap, HashSet, VecDeque};
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::{Arc, Mutex};

use quickltl::Formula;
use quickstrom_protocol::{ProjectionHash, Selector};

use crate::analysis::{footprint_of_thunk, AtomFootprint};
use crate::value::{Binding, Env, Thunk, Value};

// ---------------------------------------------------------------------------
// Word-keyed tables
// ---------------------------------------------------------------------------

/// A `HashMap` for keys made of machine words that are addresses or
/// already-mixed hashes: thunk identities, frame addresses and semantic
/// atom keys. Hashed with [`WordHasher`].
pub type WordMap<K, V> = HashMap<K, V, BuildHasherDefault<WordHasher>>;

/// The set counterpart of [`WordMap`].
pub type WordSet<K> = HashSet<K, BuildHasherDefault<WordHasher>>;

/// The hasher behind [`WordMap`]: one rotate, xor and multiply per word
/// (FxHash's step). std's SipHash resists adversarial keys, which these
/// in-process tables never see, and costs several times more per lookup
/// on the evaluation hot path. `finish` rotates the product's well-mixed
/// high bits down, because the table picks buckets by the low bits and
/// aligned addresses leave those zero.
#[derive(Debug, Default, Clone, Copy)]
pub struct WordHasher(u64);

impl WordHasher {
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }
}

impl Hasher for WordHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
    }

    fn write_u32(&mut self, n: u32) {
        self.add(u64::from(n));
    }

    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }

    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }
}

// ---------------------------------------------------------------------------
// Semantic atom keys
// ---------------------------------------------------------------------------

/// Hashes atoms into cross-run-stable *semantic* keys.
///
/// A [`Thunk`]'s pointer identity is stable within a run but useless
/// across runs: re-evaluating the same `let` or call rebuilds the same
/// environment frames at fresh addresses. The keyer therefore hashes the
/// IR node by address (evaluation only ever reuses compiled `Arc<Ir>`
/// nodes, never allocates new ones, so the address *is* the code) and the
/// environment chain by content: eager bindings hash their value
/// structurally, deferred bindings hash their captured code-plus-chain.
///
/// Environment-content hashes are memoized per frame address, which makes
/// the compile-time "snapshot" environments (every top-level item captures
/// a copy of the globals defined before it) linear to hash instead of
/// exponential. The cache is only sound while the hashed frames stay
/// alive, so the keyer's owner must pin every keyed thunk for the keyer's
/// lifetime — the checker's per-run atom records and binding keys do
/// exactly that.
#[derive(Debug, Default)]
pub struct AtomKeyer {
    env_hashes: WordMap<usize, u64>,
}

impl AtomKeyer {
    /// A fresh keyer with an empty environment-hash cache.
    #[must_use]
    pub fn new() -> AtomKeyer {
        AtomKeyer::default()
    }

    /// The semantic key of one atom. Deterministic within a process for
    /// live thunks; equal for thunks with the same code and
    /// content-equal environment chains.
    pub fn key(&mut self, thunk: &Thunk) -> u64 {
        let mut h = ProjectionHash::new();
        self.feed_thunk(&mut h, thunk);
        h.finish()
    }

    fn feed_thunk(&mut self, h: &mut ProjectionHash, thunk: &Thunk) {
        h.term(Arc::as_ptr(&thunk.ir) as usize as u64);
        let env_hash = self.env_hash(&thunk.env);
        h.term(env_hash);
    }

    fn env_hash(&mut self, env: &Env) -> u64 {
        let ptr = env.ptr_id();
        if ptr == 0 {
            return 0;
        }
        if let Some(&cached) = self.env_hashes.get(&ptr) {
            return cached;
        }
        // In-progress sentinel: environments are acyclic by construction
        // (frames only reference values created before them), but if a
        // cycle ever appeared this degrades to pointer hashing instead of
        // recursing forever.
        self.env_hashes.insert(ptr, (ptr as u64) | 1);
        let mut h = ProjectionHash::new();
        if let Some((slots, parent)) = env.split_top() {
            h.term(slots.len() as u64);
            for binding in slots {
                match binding {
                    Binding::Eager(v) => {
                        h.flag(false);
                        self.feed_value(&mut h, v);
                    }
                    Binding::Deferred(t) => {
                        h.flag(true);
                        self.feed_thunk(&mut h, t);
                    }
                }
            }
            let parent_hash = self.env_hash(parent);
            h.term(parent_hash);
        }
        let out = h.finish();
        self.env_hashes.insert(ptr, out);
        out
    }

    #[allow(clippy::cast_sign_loss)]
    fn feed_value(&mut self, h: &mut ProjectionHash, v: &Value) {
        match v {
            Value::Null => h.term(0x10),
            Value::Bool(b) => {
                h.term(0x11);
                h.flag(*b);
            }
            Value::Int(n) => {
                h.term(0x12);
                h.term(*n as u64);
            }
            Value::Float(x) => {
                h.term(0x13);
                h.term(x.to_bits());
            }
            Value::Str(s) => {
                h.term(0x14);
                h.text(s);
            }
            Value::List(items) => {
                h.term(0x15);
                h.term(items.len() as u64);
                for item in items.iter() {
                    self.feed_value(h, item);
                }
            }
            Value::Record(fields) => {
                h.term(0x16);
                h.term(fields.len() as u64);
                for (key, value) in fields.iter() {
                    h.text(key.as_str());
                    self.feed_value(h, value);
                }
            }
            Value::Selector(sel) => {
                h.term(0x17);
                h.text(sel.as_str());
            }
            Value::Formula(f) => {
                h.term(0x18);
                self.feed_formula(h, f);
            }
            Value::Closure(c) => {
                h.term(0x19);
                h.term(Arc::as_ptr(&c.body) as usize as u64);
                let env_hash = self.env_hash(&c.env);
                h.term(env_hash);
            }
            Value::Builtin(b) => {
                h.term(0x1A);
                h.text(b.name());
            }
            Value::Action(a) => {
                h.term(0x1B);
                h.text(a.name.as_deref().unwrap_or(""));
                h.text(
                    &a.kind
                        .as_ref()
                        .map_or_else(String::new, |k| format!("{k:?}")),
                );
                h.text(a.selector.as_ref().map_or("", Selector::as_str));
                h.term(a.timeout_ms.map_or(u64::MAX, |t| t));
                h.flag(a.event);
                match &a.guard {
                    None => h.flag(false),
                    Some(g) => {
                        h.flag(true);
                        self.feed_thunk(h, g);
                    }
                }
            }
        }
    }

    fn feed_formula(&mut self, h: &mut ProjectionHash, f: &Formula<Thunk>) {
        match f {
            Formula::Top => h.term(0x20),
            Formula::Bottom => h.term(0x21),
            Formula::Atom(t) => {
                h.term(0x22);
                self.feed_thunk(h, t);
            }
            Formula::Not(a) => {
                h.term(0x23);
                self.feed_formula(h, a);
            }
            Formula::And(a, b) => {
                h.term(0x24);
                self.feed_formula(h, a);
                self.feed_formula(h, b);
            }
            Formula::Or(a, b) => {
                h.term(0x25);
                self.feed_formula(h, a);
                self.feed_formula(h, b);
            }
            Formula::Next(a) => {
                h.term(0x26);
                self.feed_formula(h, a);
            }
            Formula::WeakNext(a) => {
                h.term(0x27);
                self.feed_formula(h, a);
            }
            Formula::StrongNext(a) => {
                h.term(0x28);
                self.feed_formula(h, a);
            }
            Formula::Always(d, a) => {
                h.term(0x29);
                h.term(u64::from(d.0));
                self.feed_formula(h, a);
            }
            Formula::Eventually(d, a) => {
                h.term(0x2A);
                h.term(u64::from(d.0));
                self.feed_formula(h, a);
            }
            Formula::Until(d, a, b) => {
                h.term(0x2B);
                h.term(u64::from(d.0));
                self.feed_formula(h, a);
                self.feed_formula(h, b);
            }
            Formula::Release(d, a, b) => {
                h.term(0x2C);
                h.term(u64::from(d.0));
                self.feed_formula(h, a);
                self.feed_formula(h, b);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// The shared expansion memo
// ---------------------------------------------------------------------------

/// One memoized expansion: the expansion itself for stepper-style
/// consumers, plus the pre-abstracted shape (`shape[i]` refers to
/// `atoms[i]`, deduplicated by thunk identity in first-occurrence order)
/// so automaton-style consumers can build an observation without walking
/// or cloning a `Formula<Thunk>` at all. `atom` pins the source thunk,
/// keeping every address the memo key hashed alive for the entry's
/// lifetime.
#[derive(Debug)]
pub struct MemoEntry {
    /// The atom this entry was expanded from (pins its pointers).
    pub atom: Thunk,
    /// The memoized expansion.
    pub expansion: Formula<Thunk>,
    /// The expansion abstracted over its own atoms, in first-occurrence
    /// order.
    pub shape: Formula<u32>,
    /// The atoms of `expansion`, deduplicated by identity; indexed by the
    /// `shape` leaves.
    pub atoms: Vec<Thunk>,
}

impl MemoEntry {
    /// Builds an entry from a fresh expansion, abstracting the shape and
    /// deduplicating sub-atoms by identity.
    #[must_use]
    pub fn build(atom: Thunk, expansion: Formula<Thunk>) -> MemoEntry {
        let mut atoms: Vec<Thunk> = Vec::new();
        let mut ids: WordMap<(usize, usize), u32> = WordMap::default();
        let shape = expansion.clone().map_atoms(&mut |t: Thunk| {
            let identity = t.identity();
            *ids.entry(identity).or_insert_with(|| {
                atoms.push(t);
                u32::try_from(atoms.len() - 1).expect("atom count fits u32")
            })
        });
        MemoEntry {
            atom,
            expansion,
            shape,
            atoms,
        }
    }

    /// Whether a freshly computed expansion is structurally identical to
    /// this entry, modulo atom pointer identity: same shape, and
    /// pairwise-equal semantic keys for the abstracted atoms. This is the
    /// collision check behind the debug-build verify-on-hit.
    ///
    /// The comparison uses its own throwaway [`AtomKeyer`]: the pairwise
    /// check only needs key consistency *within* this call (every thunk
    /// involved is alive for its duration), and feeding `fresh`'s
    /// short-lived atoms to a longer-lived keyer would poison its
    /// per-address environment-hash cache once their frames are freed and
    /// the addresses reused.
    #[must_use]
    pub fn matches_expansion(&self, fresh: &Formula<Thunk>) -> bool {
        let mut keyer = AtomKeyer::new();
        let other = MemoEntry::build(self.atom.clone(), fresh.clone());
        if self.shape != other.shape || self.atoms.len() != other.atoms.len() {
            return false;
        }
        self.atoms
            .iter()
            .zip(&other.atoms)
            .all(|(a, b)| keyer.key(a) == keyer.key(b))
    }
}

/// A bounded, thread-shared expansion memo keyed by
/// `(semantic atom key, footprint projection hash)`.
///
/// Eviction is FIFO over first insertion, so for a fixed lookup/insert
/// sequence the contents are deterministic; under `jobs=N` the sequence
/// (and so the hit/miss counters) depends on scheduling, but a hit and a
/// miss produce semantically identical expansions, so verdicts and
/// reports do not. Re-inserting an existing key keeps the first entry
/// (the racing entries are semantically equal).
#[derive(Debug)]
pub struct AtomMemo {
    inner: Mutex<MemoInner>,
    footprints: Mutex<WordMap<u64, Arc<AtomFootprint>>>,
}

#[derive(Debug)]
struct MemoInner {
    map: WordMap<(u64, u64), Arc<MemoEntry>>,
    order: VecDeque<(u64, u64)>,
    capacity: usize,
}

impl AtomMemo {
    /// A memo bounded to `capacity` entries (at least one).
    #[must_use]
    pub fn new(capacity: usize) -> AtomMemo {
        AtomMemo {
            inner: Mutex::new(MemoInner {
                map: WordMap::default(),
                order: VecDeque::new(),
                capacity: capacity.max(1),
            }),
            footprints: Mutex::new(WordMap::default()),
        }
    }

    /// The static footprint of the atom with semantic key `key`, analyzed
    /// on first request.
    ///
    /// The analysis resolves variables through the atom's environment, so
    /// it is a function of exactly what the semantic key hashes — the IR
    /// node and the environment content. Sharing it here means each
    /// distinct atom is analyzed once per property instead of once per
    /// fresh thunk identity: residual atoms allocate a fresh environment
    /// (and so a fresh identity) at every unroll, and re-deriving per
    /// identity costs more than the evaluation the memo saves. The cache
    /// is unbounded but small — one entry per distinct semantic atom, the
    /// same population the memo itself keys on.
    #[must_use]
    pub fn footprint(&self, key: u64, thunk: &Thunk) -> Arc<AtomFootprint> {
        let mut map = self.footprints.lock().expect("atom footprint cache lock");
        Arc::clone(
            map.entry(key)
                .or_insert_with(|| Arc::new(footprint_of_thunk(thunk))),
        )
    }

    /// The entry under `key`, if present.
    #[must_use]
    pub fn lookup(&self, key: (u64, u64)) -> Option<Arc<MemoEntry>> {
        self.inner
            .lock()
            .expect("atom memo lock")
            .map
            .get(&key)
            .cloned()
    }

    /// Inserts an entry, evicting oldest-first past capacity. Returns the
    /// number of entries evicted (0 when the key was already present —
    /// the first insertion wins).
    pub fn insert(&self, key: (u64, u64), entry: MemoEntry) -> u64 {
        let mut inner = self.inner.lock().expect("atom memo lock");
        if inner.map.contains_key(&key) {
            return 0;
        }
        let mut evicted = 0;
        while inner.map.len() >= inner.capacity {
            match inner.order.pop_front() {
                Some(oldest) => {
                    if inner.map.remove(&oldest).is_some() {
                        evicted += 1;
                    }
                }
                None => break,
            }
        }
        inner.map.insert(key, Arc::new(entry));
        inner.order.push_back(key);
        evicted
    }

    /// The number of memoized expansions.
    #[must_use]
    pub fn len(&self) -> usize {
        self.inner.lock().expect("atom memo lock").map.len()
    }

    /// `true` when no expansion is memoized.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The configured capacity bound.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.inner.lock().expect("atom memo lock").capacity
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::Span;
    use crate::compile::Ir;
    use quickstrom_protocol::Symbol;

    fn eager(v: Value) -> Env {
        Env::new().push(vec![Binding::Eager(v)])
    }

    fn var(depth: u32, slot: u32) -> Arc<Ir> {
        Arc::new(Ir::Var {
            depth,
            slot,
            name: Symbol::intern("x"),
            span: Span::default(),
        })
    }

    #[test]
    fn semantic_keys_ignore_frame_identity() {
        let ir = var(0, 0);
        let mut keyer = AtomKeyer::new();
        let a = Thunk::new(Arc::clone(&ir), eager(Value::Int(42)));
        let b = Thunk::new(Arc::clone(&ir), eager(Value::Int(42)));
        let c = Thunk::new(Arc::clone(&ir), eager(Value::Int(43)));
        assert_ne!(a.identity(), b.identity(), "frames are fresh allocations");
        assert_eq!(keyer.key(&a), keyer.key(&b), "content-equal environments");
        assert_ne!(keyer.key(&a), keyer.key(&c), "different bound values");
    }

    #[test]
    fn semantic_keys_distinguish_code() {
        let mut keyer = AtomKeyer::new();
        let env = eager(Value::Int(1));
        let a = Thunk::new(var(0, 0), env.clone());
        let b = Thunk::new(var(0, 0), env);
        // Two allocations of identical IR are distinct code to the keyer —
        // that only costs sharing, never correctness.
        assert_ne!(keyer.key(&a), keyer.key(&b));
    }

    #[test]
    fn semantic_keys_hash_deferred_bindings_structurally() {
        let ir = var(0, 0);
        let inner = var(1, 0);
        let mut keyer = AtomKeyer::new();
        let deferred = |n: i64| {
            Env::new().push(vec![Binding::Deferred(Thunk::new(
                Arc::clone(&inner),
                eager(Value::Int(n)),
            ))])
        };
        let a = Thunk::new(Arc::clone(&ir), deferred(7));
        let b = Thunk::new(Arc::clone(&ir), deferred(7));
        let c = Thunk::new(Arc::clone(&ir), deferred(8));
        assert_eq!(keyer.key(&a), keyer.key(&b));
        assert_ne!(keyer.key(&a), keyer.key(&c));
    }

    #[test]
    fn memo_entry_shape_deduplicates_atoms_by_identity() {
        let shared = Thunk::new(var(0, 0), eager(Value::Int(1)));
        let other = Thunk::new(var(0, 0), eager(Value::Int(2)));
        let expansion = Formula::Atom(shared.clone())
            .and(Formula::Atom(other.clone()).and(Formula::Atom(shared.clone())));
        let entry = MemoEntry::build(shared.clone(), expansion.clone());
        assert_eq!(entry.atoms.len(), 2, "pointer-equal atoms share one slot");
        assert_eq!(
            entry.shape,
            Formula::Atom(0u32).and(Formula::Atom(1u32).and(Formula::Atom(0u32)))
        );
        assert!(entry.matches_expansion(&expansion));
        let different = Formula::Atom(other).and(Formula::Atom(shared));
        assert!(!entry.matches_expansion(&different));
    }

    #[test]
    fn word_hasher_spreads_aligned_addresses_over_low_bits() {
        use std::hash::BuildHasher;
        // Frame addresses are 16-byte aligned; buckets come from the low
        // bits. A bare multiply would leave the low four bits zero and
        // fill at most 1/16 of 4096 buckets.
        let build = BuildHasherDefault::<WordHasher>::default();
        let buckets: HashSet<u64> = (0..4096usize)
            .map(|i| build.hash_one(0x7f3a_5c00_0000 + 16 * i) & 0xfff)
            .collect();
        assert!(
            buckets.len() > 2048,
            "only {} of 4096 buckets",
            buckets.len()
        );
    }

    #[test]
    fn memo_eviction_is_fifo_and_bounded() {
        let memo = AtomMemo::new(2);
        let entry = || {
            let t = Thunk::new(var(0, 0), Env::new());
            MemoEntry::build(t, Formula::Top)
        };
        assert_eq!(memo.insert((1, 1), entry()), 0);
        assert_eq!(memo.insert((2, 2), entry()), 0);
        assert_eq!(memo.insert((1, 1), entry()), 0, "re-insert keeps first");
        assert_eq!(memo.len(), 2);
        assert_eq!(memo.insert((3, 3), entry()), 1, "oldest evicted");
        assert!(memo.lookup((1, 1)).is_none(), "(1,1) was first in");
        assert!(memo.lookup((2, 2)).is_some());
        assert!(memo.lookup((3, 3)).is_some());
    }
}
