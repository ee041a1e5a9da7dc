//! Hash-consed term representation.
//!
//! Isabelle's kernel survives AutoCorres-scale workloads (hundreds of
//! thousands of proof nodes, Table 5) only because it shares terms
//! aggressively: structurally equal subterms are stored once, so equality
//! is (mostly) pointer comparison and sizes need no traversal. This module
//! is the deep-embedding analogue: a concurrent hash-consing table that
//! stores each distinct node once behind an [`std::sync::Arc`], with its
//! structural hash and subterm size precomputed at construction. The table
//! is sharded so concurrent pool workers rarely contend on one lock.
//!
//! [`Interned<T>`] replaces `Box<T>` for the children of [`crate::Expr`]
//! (and `monadic::Prog`, `kernel::Thm`'s derivation nodes and the
//! kernel's checking contexts, which implement [`Internable`] in their own
//! crates):
//!
//! * `clone()` is a reference-count bump,
//! * `PartialEq` takes a pointer-equality fast path — two live handles are
//!   equal iff they are the same allocation — and falls back to
//!   hash-then-structure comparison, which only ever finds the difference
//!   between two unequal nodes whose hashes collide,
//! * the *term size* metric of Table 5 reads the cached size instead of
//!   walking the tree.
//!
//! # Reclamation
//!
//! The table holds [`Weak`] entries, so a node lives exactly as long as
//! some handle does: terms and proofs are freed with the outputs and
//! sessions that hold them. A lookup drops the dead entries of its bucket;
//! a shard that has doubled in buckets since its last sweep drops all of
//! its dead ones. Node identity is structural equality among *live* nodes,
//! so a table keyed by [`Interned::key`] is valid only while its keys'
//! nodes live.
//!
//! # Determinism
//!
//! The interner never affects observable output: handles carry no identity
//! visible to `Display`/`Debug`/`Ord`, the table is never iterated (but to
//! sweep dead entries), and the structural hash is computed with a
//! fixed-key hasher ([`std::collections::hash_map::DefaultHasher`]), so
//! equality decisions are identical at any worker count. Interning a node
//! that already exists returns the existing allocation regardless of which
//! thread got there first — the *content* of a handle is a pure function
//! of the term.
//!
//! # Soundness
//!
//! Interning is constructor-level sharing only: it changes how terms are
//! represented, not which terms exist. The LCF kernel's soundness argument
//! is untouched — `kernel::Thm` remains private and every rule still
//! validates its side conditions on the (shared) terms it is given.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::Deref;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, Weak};

/// Number of independently locked table shards. A power of two large
/// enough that a full worker pool hammering the table (every phase job
/// interns on every node it builds) rarely collides on one lock; the
/// empty table is still negligible (64 mutexes + empty maps).
const SHARDS: usize = 64;

/// A type whose values can be hash-consed.
///
/// `shallow_size` must return the term-size contribution of one node given
/// that its children are already-interned handles (whose cached sizes it
/// reads in O(children)); the interner stores the result so `size()` on a
/// handle never walks the tree.
pub trait Internable: Hash + Eq + Clone + Send + Sync + 'static {
    /// Term-size of this node including (cached) child sizes.
    fn shallow_size(&self) -> usize;

    /// The global interner for this type.
    fn interner() -> &'static Interner<Self>;
}

/// An interned node: the value plus its precomputed structural hash and
/// subterm size.
#[derive(Debug)]
pub struct Node<T> {
    hash: u64,
    size: usize,
    val: T,
}

/// Running counters of one interner (monotonic; never reset).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct InternStats {
    /// Intern calls that found an existing node (sharing wins).
    pub hits: u64,
    /// Intern calls that allocated a new node (distinct nodes created).
    pub misses: u64,
}

impl InternStats {
    /// Total intern calls.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.hits + self.misses
    }

    /// Nodes requested per node allocated (`1.0` = no sharing). The
    /// Table 5 bench reports this as `term_dedup_ratio`.
    #[must_use]
    pub fn dedup_ratio(&self) -> f64 {
        if self.misses == 0 {
            1.0
        } else {
            self.total() as f64 / self.misses as f64
        }
    }

    /// Counter-wise difference (for before/after snapshots around a
    /// pipeline run).
    #[must_use]
    pub fn since(&self, earlier: &InternStats) -> InternStats {
        InternStats {
            hits: self.hits.saturating_sub(earlier.hits),
            misses: self.misses.saturating_sub(earlier.misses),
        }
    }
}

/// One lock-protected slice of the table: structural hash → bucket of
/// weak entries with that hash, scanned structurally on insert (64-bit
/// collisions are rare enough that buckets are almost always singletons),
/// and the number of buckets its last sweep left.
type Shard<T> = Mutex<(HashMap<u64, Vec<Weak<Node<T>>>>, usize)>;

/// A concurrent hash-consing table for values of one type.
///
/// Sharded `Mutex<HashMap<hash, bucket>>` of weak entries — no external
/// dependencies.
pub struct Interner<T> {
    shards: [Shard<T>; SHARDS],
    hits: AtomicU64,
    misses: AtomicU64,
}

impl<T> Default for Interner<T> {
    fn default() -> Self {
        Interner::new()
    }
}

impl<T> Interner<T> {
    /// An empty interner.
    #[must_use]
    pub fn new() -> Interner<T> {
        Interner {
            shards: std::array::from_fn(|_| Mutex::default()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// Current hit/miss counters.
    #[must_use]
    pub fn stats(&self) -> InternStats {
        InternStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
        }
    }
}

impl<T: Internable> Interner<T> {
    /// Interns `val`: the live node for an equal term, else a new one.
    /// Dead entries of the bucket it scans are dropped, and a shard that
    /// has doubled in buckets since its last sweep drops all of its dead
    /// entries.
    fn intern(&self, val: T) -> Interned<T> {
        let hash = structural_hash(&val);
        let mut shard = self.shards[(hash as usize) % SHARDS]
            .lock()
            .expect("interner shard poisoned");
        let (table, swept) = &mut *shard;
        let bucket = table.entry(hash).or_default();
        let mut found = None;
        bucket.retain(|w| {
            let Some(node) = w.upgrade() else {
                return false;
            };
            if found.is_none() && node.val == val {
                found = Some(node);
            }
            true
        });
        if let Some(existing) = found {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Interned(existing);
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let node = Arc::new(Node {
            hash,
            size: val.shallow_size(),
            val,
        });
        bucket.push(Arc::downgrade(&node));
        if table.len() > 2 * *swept {
            table.retain(|_, bucket| {
                bucket.retain(|w| w.strong_count() > 0);
                !bucket.is_empty()
            });
            *swept = table.len();
        }
        Interned(node)
    }
}

/// Structural hash with a fixed-key hasher, so hashes (and therefore the
/// equality fast path) do not vary run to run. Children that are already
/// handles contribute their cached hash — hashing any one node is O(its
/// immediate structure), not O(subtree).
fn structural_hash<T: Hash>(val: &T) -> u64 {
    let mut h = DefaultHasher::new();
    val.hash(&mut h);
    h.finish()
}

/// A handle to a hash-consed value — the replacement for `Box<T>` in term
/// representations. Dereferences to `T`; `clone` is a refcount bump;
/// equality is pointer-first.
pub struct Interned<T: Internable>(Arc<Node<T>>);

impl<T: Internable> Interned<T> {
    /// Interns `val` in the sharded global table, returning the one
    /// canonical shared handle for this term.
    #[must_use]
    pub fn new(val: T) -> Interned<T> {
        T::interner().intern(val)
    }

    /// The cached term size (number of AST nodes, Table 5 metric).
    #[must_use]
    pub fn size(&self) -> usize {
        self.0.size
    }

    /// The cached structural hash.
    #[must_use]
    pub fn structural_hash(&self) -> u64 {
        self.0.hash
    }

    /// Do two handles point at the same allocation? (Complete for live
    /// handles: the table guarantees structurally equal live values share
    /// one node.)
    #[must_use]
    pub fn ptr_eq(a: &Interned<T>, b: &Interned<T>) -> bool {
        Arc::ptr_eq(&a.0, &b.0)
    }

    /// A stable per-allocation key, usable for memoisation tables keyed on
    /// node identity (e.g. sharing-aware tree rewrites, the codec's
    /// back-references). A table keyed by `key()` is valid only while the
    /// nodes it keys are alive: a freed node's address can be reused by a
    /// different node. Hold the handles (or a term containing them) for
    /// as long as the table is consulted, and never serialise a key.
    #[must_use]
    pub fn key(&self) -> usize {
        Arc::as_ptr(&self.0) as *const () as usize
    }
}

impl<T: Internable> Deref for Interned<T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.0.val
    }
}

impl<T: Internable> AsRef<T> for Interned<T> {
    fn as_ref(&self) -> &T {
        &self.0.val
    }
}

impl<T: Internable> std::borrow::Borrow<T> for Interned<T> {
    fn borrow(&self) -> &T {
        &self.0.val
    }
}

impl<T: Internable> Clone for Interned<T> {
    fn clone(&self) -> Self {
        Interned(Arc::clone(&self.0))
    }
}

impl<T: Internable> PartialEq for Interned<T> {
    fn eq(&self, other: &Self) -> bool {
        // Fast path: one allocation per distinct term.
        if Arc::ptr_eq(&self.0, &other.0) {
            return true;
        }
        // Equal live values share one allocation, so distinct allocations
        // differ: reject on hash, and tell colliding hashes apart
        // structurally.
        self.0.hash == other.0.hash && self.0.val == other.0.val
    }
}

impl<T: Internable> Eq for Interned<T> {}

impl<T: Internable> Hash for Interned<T> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        // Cached structural hash: hashing a parent node never re-walks
        // children.
        state.write_u64(self.0.hash);
    }
}

impl<T: Internable + fmt::Debug> fmt::Debug for Interned<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Transparent, like `Box`: the handle is a representation detail.
        self.0.val.fmt(f)
    }
}

impl<T: Internable + fmt::Display> fmt::Display for Interned<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.0.val.fmt(f)
    }
}

impl<T: Internable + Default> Default for Interned<T> {
    /// The interned default value (an empty context, say).
    fn default() -> Self {
        Interned::new(T::default())
    }
}

impl<T: Internable> From<T> for Interned<T> {
    fn from(val: T) -> Self {
        Interned::new(val)
    }
}

/// Counters of the [`crate::Expr`] interner (the `Prog` interner lives in
/// the `monadic` crate and is reported by `monadic::prog::intern_stats`).
#[must_use]
pub fn expr_stats() -> InternStats {
    <crate::Expr as Internable>::interner().stats()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{BinOp, Expr};

    #[test]
    fn interning_shares_allocations() {
        let a = Interned::new(Expr::binop(BinOp::Add, Expr::var("x"), Expr::u32(1)));
        let b = Interned::new(Expr::binop(BinOp::Add, Expr::var("x"), Expr::u32(1)));
        assert!(Interned::ptr_eq(&a, &b));
        assert_eq!(a, b);
        let c = Interned::new(Expr::binop(BinOp::Add, Expr::var("x"), Expr::u32(2)));
        assert!(!Interned::ptr_eq(&a, &c));
        assert_ne!(a, c);
    }

    #[test]
    fn cached_size_matches_walk() {
        let e = Expr::eq(
            Expr::binop(BinOp::Add, Expr::var("x"), Expr::u32(1)),
            Expr::var("y"),
        );
        let walked = {
            let mut n = 0;
            e.visit(&mut |sub| {
                n += match sub {
                    Expr::Local(_) => 3,
                    _ => 1,
                }
            });
            n
        };
        assert_eq!(Interned::new(e.clone()).size(), walked);
        assert_eq!(e.term_size(), walked);
    }

    #[test]
    fn hash_is_structural_and_cached() {
        let a = Interned::new(Expr::var("p"));
        let b = Interned::new(Expr::var("p"));
        assert_eq!(a.structural_hash(), b.structural_hash());
        assert_eq!(structural_hash(&*a), a.structural_hash());
    }

    #[test]
    fn concurrent_interns_share_one_allocation() {
        // Two pool workers interning the same fresh term must end up with the
        // same allocation, so `ptr_eq`/`key` stay canonical across threads.
        let build = || {
            Expr::binop(
                BinOp::Mul,
                Expr::var("concurrent_intern_probe"),
                Expr::u32(0x5EED),
            )
        };
        // The barrier holds each job until the other has started, so the
        // two interns run on different workers at the same time.
        let both_started = std::sync::Barrier::new(2);
        let (handles, pool) = crate::sched::par_map(&[(), ()], 2, |_, ()| {
            both_started.wait();
            Interned::new(build())
        });
        assert_eq!(pool.workers, 2);
        let (a, b) = (handles[0].clone(), handles[1].clone());
        assert!(Interned::ptr_eq(&a, &b), "cross-thread canonicalization");
        assert_eq!(a.key(), b.key());
        // And a same-thread repeat is the very same allocation again.
        let c = Interned::new(build());
        assert!(Interned::ptr_eq(&a, &c));
    }

    #[test]
    fn stats_count_hits_and_misses() {
        let before = expr_stats();
        // A fresh shape (unlikely to be interned by other tests).
        let fresh = Expr::binop(
            BinOp::BitXor,
            Expr::var("intern_stats_probe"),
            Expr::u32(0xDEAD_BEEF),
        );
        let _a = Interned::new(fresh.clone());
        let _b = Interned::new(fresh);
        let after = expr_stats().since(&before);
        assert!(after.hits >= 1, "second intern must hit: {after:?}");
        assert!(after.misses >= 1, "first intern must miss: {after:?}");
        assert!(after.dedup_ratio() > 1.0);
    }

    /// A value type of its own interner, counting its drops.
    #[derive(Clone, Debug, PartialEq, Eq, Hash)]
    struct Probe(u64);

    static PROBE_DROPS: AtomicU64 = AtomicU64::new(0);

    impl Drop for Probe {
        fn drop(&mut self) {
            PROBE_DROPS.fetch_add(1, Ordering::Relaxed);
        }
    }

    impl Internable for Probe {
        fn shallow_size(&self) -> usize {
            1
        }
        fn interner() -> &'static Interner<Probe> {
            static INTERNER: std::sync::OnceLock<Interner<Probe>> = std::sync::OnceLock::new();
            INTERNER.get_or_init(Interner::new)
        }
    }

    fn probe_entries() -> usize {
        let shards = Probe::interner().shards.iter();
        shards
            .map(|s| s.lock().unwrap().0.values().map(Vec::len).sum::<usize>())
            .sum()
    }

    #[test]
    fn unreferenced_nodes_are_freed_and_their_entries_swept() {
        // A live node is shared; its last handle frees it, and an equal
        // value interned afterwards gets a fresh node.
        let a = Interned::new(Probe(0));
        let b = Interned::new(Probe(0));
        assert!(Interned::ptr_eq(&a, &b));
        let drops = PROBE_DROPS.load(Ordering::Relaxed);
        drop((a, b));
        assert_eq!(PROBE_DROPS.load(Ordering::Relaxed), drops + 1, "not freed");
        let misses = Probe::interner().stats().misses;
        let c = Interned::new(Probe(0));
        assert_eq!(Probe::interner().stats().misses, misses + 1);
        // Touching the bucket dropped the dead entry: one entry is left.
        assert_eq!(probe_entries(), 1);
        // Nodes that die right away leave a bounded number of entries per
        // shard, however many were interned: a sweep here keeps at most
        // `Probe(0)` and the node being interned, and the next sweep comes
        // once the shard holds more than twice that.
        for i in 1..=4096 {
            drop(Interned::new(Probe(i)));
        }
        let left = probe_entries();
        assert!(left <= 5 * SHARDS, "{left} entries left of 4097");
        // A live node survives every sweep.
        assert!(Interned::ptr_eq(&c, &Interned::new(Probe(0))));
    }
}
