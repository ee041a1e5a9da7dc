//! Interned names and fresh-name generation.
//!
//! [`Symbol`] is the interned representation of variable and global names:
//! a `u32` id plus a pointer to the canonical (leaked, process-lifetime)
//! string. [`crate::Expr`] stores `Symbol`s for `Var`/`Local`/`Global`, so
//! environment lookups hash a `u32` instead of re-hashing a `String`, and
//! name equality is an integer compare.
//!
//! Determinism: ids are assigned in first-intern order, which can differ
//! across runs and worker counts — so nothing observable depends on them.
//! `Ord` and `Display` go through the string; `Eq` (pure in-process
//! identity) uses the id. `Hash` writes a *content-based* 64-bit hash
//! precomputed at intern time: equal ids imply equal text implies equal
//! hash, so `Eq`/`Hash` stay consistent, and every digest built over
//! symbols (phase input digests, replay-cache digests, interned structural
//! hashes) is stable across processes — the property the disk-backed
//! artifact store depends on.

use std::collections::HashMap;
use std::fmt;
use std::sync::Mutex;

/// Global symbol table: canonical string → id. Strings are leaked once so
/// every symbol can hand out a `&'static str` without further locking.
static SYMBOLS: Mutex<Option<HashMap<&'static str, Symbol>>> = Mutex::new(None);

/// FNV-1a over the name's bytes: the content hash `Symbol::hash` writes.
/// Fixed offset basis and prime, so the value depends only on the text —
/// never on intern order, worker count, or process.
fn content_hash(name: &str) -> u64 {
    crate::codec::fnv1a(name.as_bytes(), crate::codec::FNV_BASIS)
}

/// An interned name. `Copy`, integer `Eq`, content-based `Hash`, string
/// `Ord`/`Display` (so ordering and printing round-trip exactly like the
/// `String` it replaced).
#[derive(Clone, Copy)]
pub struct Symbol {
    id: u32,
    stable: u64,
    text: &'static str,
}

impl Symbol {
    /// Interns `name`, returning its canonical symbol.
    #[must_use]
    pub fn intern(name: &str) -> Symbol {
        let mut guard = SYMBOLS.lock().expect("symbol table poisoned");
        let table = guard.get_or_insert_with(HashMap::new);
        if let Some(sym) = table.get(name) {
            return *sym;
        }
        let text: &'static str = Box::leak(name.to_owned().into_boxed_str());
        let id = u32::try_from(table.len()).expect("symbol table overflow");
        let sym = Symbol { id, stable: content_hash(text), text };
        table.insert(text, sym);
        sym
    }

    /// The canonical string (O(1), no locking).
    #[must_use]
    pub fn as_str(&self) -> &'static str {
        self.text
    }

    /// The table id (stable within a process only — never serialise it).
    #[must_use]
    pub fn id(&self) -> u32 {
        self.id
    }

    /// The content-based 64-bit hash (stable across processes; safe to
    /// fold into persisted digests).
    #[must_use]
    pub fn stable_hash(&self) -> u64 {
        self.stable
    }
}

impl PartialEq for Symbol {
    fn eq(&self, other: &Self) -> bool {
        self.id == other.id
    }
}
impl Eq for Symbol {}

impl PartialEq<str> for Symbol {
    fn eq(&self, other: &str) -> bool {
        self.text == other
    }
}
impl PartialEq<&str> for Symbol {
    fn eq(&self, other: &&str) -> bool {
        self.text == *other
    }
}
impl PartialEq<String> for Symbol {
    fn eq(&self, other: &String) -> bool {
        self.text == other.as_str()
    }
}

impl std::hash::Hash for Symbol {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        // Content hash, not the id: equal symbols have equal text, so this
        // is Eq-consistent, and digests over symbols survive a process
        // restart (required by the disk-backed artifact store).
        state.write_u64(self.stable);
    }
}

// String order, so `BTreeMap<Symbol, _>`/sorting is deterministic across
// runs even though ids are first-come.
impl PartialOrd for Symbol {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Symbol {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        if self.id == other.id {
            std::cmp::Ordering::Equal
        } else {
            self.text.cmp(other.text)
        }
    }
}

impl fmt::Display for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.text)
    }
}

impl fmt::Debug for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Transparent, like the `String` it replaced.
        fmt::Debug::fmt(self.text, f)
    }
}

impl From<&str> for Symbol {
    fn from(s: &str) -> Symbol {
        Symbol::intern(s)
    }
}
impl From<&String> for Symbol {
    fn from(s: &String) -> Symbol {
        Symbol::intern(s)
    }
}
impl From<String> for Symbol {
    fn from(s: String) -> Symbol {
        Symbol::intern(&s)
    }
}
impl From<Symbol> for String {
    fn from(s: Symbol) -> String {
        s.as_str().to_owned()
    }
}

impl std::borrow::Borrow<str> for Symbol {
    fn borrow(&self) -> &str {
        self.text
    }
}

impl std::ops::Deref for Symbol {
    type Target = str;
    fn deref(&self) -> &str {
        self.text
    }
}

/// Generates fresh variable names `prefix0`, `prefix1`, … distinct from a
/// set of reserved names.
#[derive(Clone, Debug, Default)]
pub struct VarGen {
    counter: u64,
    reserved: std::collections::BTreeSet<String>,
}

impl VarGen {
    /// Creates a generator with no reserved names.
    #[must_use]
    pub fn new() -> VarGen {
        VarGen::default()
    }

    /// Marks a name as taken so it is never generated.
    pub fn reserve(&mut self, name: &str) {
        self.reserved.insert(name.to_owned());
    }

    /// Produces a fresh name starting with `prefix`.
    pub fn fresh(&mut self, prefix: &str) -> String {
        loop {
            let name = format!("{prefix}{}", self.counter);
            self.counter += 1;
            if !self.reserved.contains(&name) {
                self.reserved.insert(name.clone());
                return name;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_names_distinct() {
        let mut g = VarGen::new();
        let a = g.fresh("v");
        let b = g.fresh("v");
        assert_ne!(a, b);
    }

    #[test]
    fn respects_reservations() {
        let mut g = VarGen::new();
        g.reserve("v0");
        g.reserve("v1");
        assert_eq!(g.fresh("v"), "v2");
    }
}

#[cfg(test)]
mod symbol_tests {
    use super::*;

    #[test]
    fn interning_is_idempotent() {
        let a = Symbol::intern("x");
        let b = Symbol::intern("x");
        assert_eq!(a, b);
        assert_eq!(a.id(), b.id());
        assert_eq!(a.as_str(), "x");
        assert_ne!(a, Symbol::intern("y"));
    }

    #[test]
    fn display_round_trips() {
        let s = Symbol::intern("node_ptr0");
        assert_eq!(s.to_string(), "node_ptr0");
        assert_eq!(format!("{s:?}"), "\"node_ptr0\"");
        assert_eq!(String::from(s), "node_ptr0");
    }

    #[test]
    fn ordering_is_by_string() {
        // Intern in reverse-lexicographic order: ids disagree with strings.
        let b = Symbol::intern("zzz_sym_b");
        let a = Symbol::intern("aaa_sym_a");
        assert!(a < b, "Ord must follow strings, not first-intern ids");
        assert_eq!(a.cmp(&a), std::cmp::Ordering::Equal);
    }

    #[test]
    fn stable_hash_is_content_based() {
        use std::hash::{Hash, Hasher};
        let a = Symbol::intern("stable_hash_probe");
        let b = Symbol::intern("stable_hash_probe");
        assert_eq!(a.stable_hash(), b.stable_hash());
        // The exact FNV-1a value: a change here is a store format break
        // (persisted digests would stop matching across versions).
        assert_eq!(a.stable_hash(), content_hash("stable_hash_probe"));
        let mut h = std::collections::hash_map::DefaultHasher::new();
        a.hash(&mut h);
        let mut h2 = std::collections::hash_map::DefaultHasher::new();
        h2.write_u64(a.stable_hash());
        assert_eq!(h.finish(), h2.finish(), "Hash must write the content hash");
    }

    #[test]
    fn str_comparisons() {
        let s = Symbol::intern("p");
        assert!(s == "p");
        assert!(s == *"p");
        let owned = String::from("p");
        assert!(s == owned);
        assert_eq!(&*s, "p");
    }
}
