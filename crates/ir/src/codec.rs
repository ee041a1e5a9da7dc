//! A small, dependency-free binary codec for persisting pipeline terms.
//!
//! The disk-backed artifact store and the proof-certificate format both
//! need to serialise the semantic objects (types, values, expressions,
//! programs, judgments) without pulling in an external serialisation
//! crate. This module provides:
//!
//! * the [`Codec`] trait (`encode`/`decode`) with implementations for the
//!   `ir` types and the usual containers,
//! * the [`codec!`](crate::codec!) macro, which writes the impl of every
//!   plain struct (its fields in order) and enum (an explicit `u8` tag,
//!   then the variant's fields) across the workspace; only encodings that
//!   are not "tag, then fields" are written by hand (see DESIGN.md §6g),
//! * [`Encoder`]/[`Decoder`] with varint integers, length-prefixed
//!   strings, and **DAG-aware back-references** so hash-consed subterms
//!   ([`Interned`] handles) are written once and shared on reload — the
//!   on-disk size mirrors the in-memory DAG, not the expanded tree,
//! * [`digest128_bytes`], the stable 128-bit content digest, and the
//!   [`seal`]/[`unseal`] framing (magic, payload, digest) that the store
//!   entries and `cert-v3` certificates share, and [`digest128`], the
//!   in-process 128-bit hash of phase input digests.
//!
//! Decoding is **total**: corrupt, truncated, or adversarial input
//! produces a [`DecodeError`], never a panic, unbounded allocation, or
//! unbounded recursion (lengths are bounded by the remaining input, and
//! every recursive type charges one level per node against `MAX_DEPTH`).
//! Callers that need integrity (the store, the certificate checker)
//! additionally [`unseal`] a whole-payload digest before decoding; the
//! decoder's own checks are the second line of defence, not the first.

use std::any::{Any, TypeId};
use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::hash::{Hash, Hasher};

use bignum::{Int, Nat};

use crate::diag::Span;
use crate::expr::{BinOp, CastKind, Expr, UnOp};
use crate::guard::GuardKind;
use crate::intern::{Internable, Interned};
use crate::names::Symbol;
use crate::ty::{Signedness, StructDef, StructField, Ty, TypeEnv, Width};
use crate::update::Update;
use crate::value::{Ptr, Value};
use crate::word::Word;

/// Maximum nesting depth the decoder will follow. Each node of a
/// recursive type (`@depth` in [`codec!`](crate::codec!)) costs one
/// level, also when it sits behind an [`Interned`] handle, so valid terms
/// up to this depth decode. Past it, maliciously nested input is an error
/// rather than a stack overflow, provided the decoding thread can hold
/// this many levels: about 6.5 MiB of stack in a debug build and under
/// 1 MiB in a release build (measured on `Expr`, `Prog` and `SimplStmt`
/// chains, x86-64). Decoding runs on an 8 MiB main thread or on an
/// `ir::sched` thread with [`crate::sched::BIG_STACK_BYTES`]; a default
/// 2 MiB test thread is too small for debug builds.
const MAX_DEPTH: usize = 1024;

/// Error produced by [`Codec::decode`] on malformed input.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DecodeError(pub String);

impl DecodeError {
    fn new(msg: impl Into<String>) -> DecodeError {
        DecodeError(msg.into())
    }
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "decode error: {}", self.0)
    }
}

impl std::error::Error for DecodeError {}

/// Types that can be serialised with this codec.
pub trait Codec: Sized {
    /// Appends the encoding of `self` to the encoder.
    fn encode(&self, e: &mut Encoder);

    /// Decodes one value.
    ///
    /// # Errors
    ///
    /// Returns a [`DecodeError`] on malformed input.
    fn decode(d: &mut Decoder<'_>) -> Result<Self, DecodeError>;
}

/// Round-trips a value through a fresh encoder.
#[must_use]
pub fn encode_to_vec<T: Codec>(v: &T) -> Vec<u8> {
    let mut e = Encoder::new();
    v.encode(&mut e);
    e.finish()
}

/// Decodes a value from a byte slice, requiring all input to be consumed.
///
/// # Errors
///
/// Returns a [`DecodeError`] on malformed input or trailing bytes.
pub fn decode_from_slice<T: Codec>(bytes: &[u8]) -> Result<T, DecodeError> {
    let mut d = Decoder::new(bytes);
    let v = T::decode(&mut d)?;
    if d.remaining() != 0 {
        return Err(DecodeError::new(format!(
            "{} trailing byte(s) after value",
            d.remaining()
        )));
    }
    Ok(v)
}

/// The 64-bit FNV-1a offset basis.
pub const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

/// 64-bit FNV-1a over `bytes`, starting from offset basis `basis`. The one
/// byte hash of the workspace: symbol content hashes, seed derivation and
/// [`digest128_bytes`] are built on it.
#[must_use]
pub fn fnv1a(bytes: &[u8], basis: u64) -> u64 {
    bytes.iter().fold(basis, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The SplitMix64 finaliser: spreads every input bit over the output
/// (FNV alone diffuses low bits poorly).
#[must_use]
pub fn splitmix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The stable 128-bit content digest of a byte string: two independent
/// FNV-1a passes (distinct offset bases), each finished with
/// [`splitmix64`]. Depends only on the bytes — never on process, platform,
/// or compiler version — so it is safe to persist.
#[must_use]
pub fn digest128_bytes(bytes: &[u8]) -> u128 {
    let lo = splitmix64(fnv1a(bytes, FNV_BASIS));
    let hi = splitmix64(fnv1a(bytes, FNV_BASIS ^ 0x9e37_79b9_7f4a_7c15));
    (u128::from(hi) << 64) | u128::from(lo)
}

/// The 128-bit digest of whatever `write` feeds a hasher: two independent
/// fixed-key [`DefaultHasher`] passes, each seeded with its own constant,
/// concatenated. It hashes values through their `Hash` impls without
/// encoding them (phase input digests), so unlike [`digest128_bytes`] it
/// is stable only within one Rust release: the store's header probe
/// records it.
#[must_use]
pub fn digest128(write: impl Fn(&mut DefaultHasher)) -> u128 {
    let pass = |seed: u64| {
        let mut h = DefaultHasher::new();
        seed.hash(&mut h);
        write(&mut h);
        h.finish()
    };
    (u128::from(pass(0x9E37_79B9_7F4A_7C15)) << 64) | u128::from(pass(0xC2B2_AE3D_27D4_EB4F))
}

/// Frames `payload` as a sealed container: the 8-byte `magic`, the
/// payload, then [`digest128_bytes`] of the payload (16 bytes,
/// little-endian).
#[must_use]
pub fn seal(magic: &[u8; 8], payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(8 + payload.len() + 16);
    out.extend_from_slice(magic);
    out.extend_from_slice(payload);
    out.extend_from_slice(&digest128_bytes(payload).to_le_bytes());
    out
}

/// Why [`unseal`] refused a container.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SealError {
    /// Shorter than the framing, or a different magic.
    Format(String),
    /// The trailing digest does not match the payload.
    Digest,
}

impl From<SealError> for DecodeError {
    fn from(e: SealError) -> DecodeError {
        match e {
            SealError::Format(msg) => DecodeError(msg),
            SealError::Digest => DecodeError::new("integrity digest mismatch"),
        }
    }
}

/// Inverse of [`seal`]: checks the magic and the integrity digest and
/// returns the payload.
///
/// # Errors
///
/// [`SealError::Digest`] when the digest does not match the payload,
/// [`SealError::Format`] for anything else.
pub fn unseal<'a>(magic: &[u8; 8], bytes: &'a [u8]) -> Result<&'a [u8], SealError> {
    if bytes.len() < 8 + 16 {
        return Err(SealError::Format("file too short".into()));
    }
    if &bytes[..8] != magic {
        return Err(SealError::Format(format!(
            "bad magic (expected {})",
            String::from_utf8_lossy(magic)
        )));
    }
    let (payload, digest) = bytes[8..].split_at(bytes.len() - 8 - 16);
    let mut stored = [0u8; 16];
    stored.copy_from_slice(digest);
    if digest128_bytes(payload) != u128::from_le_bytes(stored) {
        return Err(SealError::Digest);
    }
    Ok(payload)
}

/// Serialisation sink: a byte buffer plus per-type back-reference tables
/// for DAG sharing.
#[derive(Default)]
pub struct Encoder {
    buf: Vec<u8>,
    // TypeId → HashMap<usize /* node identity */, u64 /* postorder id */>.
    tables: HashMap<TypeId, HashMap<usize, u64>>,
}

impl Encoder {
    /// An empty encoder.
    #[must_use]
    pub fn new() -> Encoder {
        Encoder::default()
    }

    /// Consumes the encoder, returning the bytes.
    #[must_use]
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far.
    #[must_use]
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Is the buffer empty?
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Writes one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Writes raw bytes (no length prefix).
    pub fn raw(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Writes an LEB128 varint.
    pub fn varint(&mut self, mut v: u64) {
        loop {
            let b = (v & 0x7f) as u8;
            v >>= 7;
            if v == 0 {
                self.buf.push(b);
                return;
            }
            self.buf.push(b | 0x80);
        }
    }

    /// Writes a length-prefixed UTF-8 string.
    pub fn str(&mut self, s: &str) {
        self.varint(s.len() as u64);
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// Writes a fixed-width 128-bit little-endian integer (used for
    /// digests, where varint encoding would leak no space anyway).
    pub fn u128_fixed(&mut self, v: u128) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Looks up the back-reference id previously assigned to node
    /// identity `key` (e.g. an `Arc` pointer) in the sharing table for
    /// `T`. `None` means the node has not been written yet.
    #[must_use]
    pub fn backref<T: 'static>(&mut self, key: usize) -> Option<u64> {
        self.tables
            .get(&TypeId::of::<T>())
            .and_then(|t| t.get(&key).copied())
    }

    /// Assigns the next postorder id to node identity `key`. Call this
    /// *after* encoding the node's body, mirroring the decoder, which
    /// registers a node once its body has been decoded.
    pub fn define<T: 'static>(&mut self, key: usize) {
        let table = self.tables.entry(TypeId::of::<T>()).or_default();
        let id = table.len() as u64;
        table.insert(key, id);
    }
}

/// Deserialisation source: a byte slice, a cursor, a recursion-depth
/// budget, and per-type tables of already-decoded shared nodes.
pub struct Decoder<'a> {
    data: &'a [u8],
    pos: usize,
    depth: usize,
    // TypeId → Box<Vec<T>> of decoded shared nodes, in postorder.
    tables: HashMap<TypeId, Box<dyn Any>>,
}

impl<'a> Decoder<'a> {
    /// A decoder over `data`.
    #[must_use]
    pub fn new(data: &'a [u8]) -> Decoder<'a> {
        Decoder {
            data,
            pos: 0,
            depth: 0,
            tables: HashMap::new(),
        }
    }

    /// Bytes not yet consumed.
    #[must_use]
    pub fn remaining(&self) -> usize {
        self.data.len() - self.pos
    }

    /// Enters one nesting level; errors when the depth cap is exceeded.
    ///
    /// # Errors
    ///
    /// Returns a [`DecodeError`] past [`MAX_DEPTH`] levels.
    pub fn enter(&mut self) -> Result<(), DecodeError> {
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            return Err(DecodeError::new("nesting depth limit exceeded"));
        }
        Ok(())
    }

    /// Leaves one nesting level.
    pub fn exit(&mut self) {
        self.depth = self.depth.saturating_sub(1);
    }

    /// Reads one byte.
    ///
    /// # Errors
    ///
    /// Returns a [`DecodeError`] at end of input.
    pub fn u8(&mut self) -> Result<u8, DecodeError> {
        let b = *self
            .data
            .get(self.pos)
            .ok_or_else(|| DecodeError::new("unexpected end of input"))?;
        self.pos += 1;
        Ok(b)
    }

    /// Reads `n` raw bytes.
    ///
    /// # Errors
    ///
    /// Returns a [`DecodeError`] when fewer than `n` bytes remain.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        if n > self.remaining() {
            return Err(DecodeError::new(format!(
                "need {n} bytes, {} remain",
                self.remaining()
            )));
        }
        let s = &self.data[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads an LEB128 varint.
    ///
    /// # Errors
    ///
    /// Returns a [`DecodeError`] on truncation or overflow.
    pub fn varint(&mut self) -> Result<u64, DecodeError> {
        let mut v: u64 = 0;
        let mut shift = 0u32;
        loop {
            let b = self.u8()?;
            if shift >= 64 || (shift == 63 && b > 1) {
                return Err(DecodeError::new("varint overflows u64"));
            }
            v |= u64::from(b & 0x7f) << shift;
            if b & 0x80 == 0 {
                return Ok(v);
            }
            shift += 7;
        }
    }

    /// Reads a varint and checks it is a plausible element count: each
    /// element of a sequence costs at least one input byte, so any count
    /// above the remaining input is malformed (and would otherwise let a
    /// corrupt length trigger a huge allocation).
    ///
    /// # Errors
    ///
    /// Returns a [`DecodeError`] on truncation or an oversized count.
    pub fn seq_len(&mut self) -> Result<usize, DecodeError> {
        let n = self.varint()?;
        if n > self.remaining() as u64 {
            return Err(DecodeError::new(format!(
                "sequence length {n} exceeds remaining input {}",
                self.remaining()
            )));
        }
        Ok(n as usize)
    }

    /// Reads a length-prefixed UTF-8 string.
    ///
    /// # Errors
    ///
    /// Returns a [`DecodeError`] on truncation or invalid UTF-8.
    pub fn str(&mut self) -> Result<String, DecodeError> {
        let n = self.seq_len()?;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| DecodeError::new("invalid UTF-8 in string"))
    }

    /// Reads a fixed-width 128-bit little-endian integer.
    ///
    /// # Errors
    ///
    /// Returns a [`DecodeError`] on truncation.
    pub fn u128_fixed(&mut self) -> Result<u128, DecodeError> {
        let bytes = self.take(16)?;
        let mut arr = [0u8; 16];
        arr.copy_from_slice(bytes);
        Ok(u128::from_le_bytes(arr))
    }

    fn shared_table<T: Clone + 'static>(&mut self) -> &mut Vec<T> {
        self.tables
            .entry(TypeId::of::<T>())
            .or_insert_with(|| Box::new(Vec::<T>::new()))
            .downcast_mut::<Vec<T>>()
            .expect("decoder sharing table type confusion")
    }

    /// Fetches shared node `id` of type `T` (a back-reference target).
    ///
    /// # Errors
    ///
    /// Returns a [`DecodeError`] for an unknown id.
    pub fn shared_get<T: Clone + 'static>(&mut self, id: u64) -> Result<T, DecodeError> {
        let table = self.shared_table::<T>();
        usize::try_from(id)
            .ok()
            .and_then(|i| table.get(i))
            .cloned()
            .ok_or_else(|| DecodeError::new(format!("dangling back-reference #{id}")))
    }

    /// Registers a freshly decoded shared node of type `T`, assigning it
    /// the next postorder id (mirroring [`Encoder::define`]).
    pub fn shared_push<T: Clone + 'static>(&mut self, v: T) {
        self.shared_table::<T>().push(v);
    }
}

// ---------------------------------------------------------------------------
// Primitive and container impls
// ---------------------------------------------------------------------------

impl Codec for bool {
    fn encode(&self, e: &mut Encoder) {
        e.u8(u8::from(*self));
    }
    fn decode(d: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        match d.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(DecodeError::new(format!("invalid bool byte {b}"))),
        }
    }
}

impl Codec for u8 {
    fn encode(&self, e: &mut Encoder) {
        e.u8(*self);
    }
    fn decode(d: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        d.u8()
    }
}

impl Codec for u32 {
    fn encode(&self, e: &mut Encoder) {
        e.varint(u64::from(*self));
    }
    fn decode(d: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        u32::try_from(d.varint()?).map_err(|_| DecodeError::new("u32 out of range"))
    }
}

impl Codec for u64 {
    fn encode(&self, e: &mut Encoder) {
        e.varint(*self);
    }
    fn decode(d: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        d.varint()
    }
}

impl Codec for usize {
    fn encode(&self, e: &mut Encoder) {
        e.varint(*self as u64);
    }
    fn decode(d: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        usize::try_from(d.varint()?).map_err(|_| DecodeError::new("usize out of range"))
    }
}

impl Codec for u128 {
    fn encode(&self, e: &mut Encoder) {
        e.u128_fixed(*self);
    }
    fn decode(d: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        d.u128_fixed()
    }
}

impl Codec for String {
    fn encode(&self, e: &mut Encoder) {
        e.str(self);
    }
    fn decode(d: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        d.str()
    }
}

impl<T: Codec> Codec for Vec<T> {
    fn encode(&self, e: &mut Encoder) {
        e.varint(self.len() as u64);
        for v in self {
            v.encode(e);
        }
    }
    fn decode(d: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        let n = d.seq_len()?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(T::decode(d)?);
        }
        Ok(out)
    }
}

impl<T: Codec> Codec for Option<T> {
    fn encode(&self, e: &mut Encoder) {
        match self {
            None => e.u8(0),
            Some(v) => {
                e.u8(1);
                v.encode(e);
            }
        }
    }
    fn decode(d: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        match d.u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::decode(d)?)),
            b => Err(DecodeError::new(format!("invalid Option tag {b}"))),
        }
    }
}

impl<T: Codec> Codec for Box<T> {
    fn encode(&self, e: &mut Encoder) {
        (**self).encode(e);
    }
    fn decode(d: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        Ok(Box::new(T::decode(d)?))
    }
}

impl<A: Codec, B: Codec> Codec for (A, B) {
    fn encode(&self, e: &mut Encoder) {
        self.0.encode(e);
        self.1.encode(e);
    }
    fn decode(d: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        Ok((A::decode(d)?, B::decode(d)?))
    }
}

impl<A: Codec, B: Codec, C: Codec> Codec for (A, B, C) {
    fn encode(&self, e: &mut Encoder) {
        self.0.encode(e);
        self.1.encode(e);
        self.2.encode(e);
    }
    fn decode(d: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        Ok((A::decode(d)?, B::decode(d)?, C::decode(d)?))
    }
}

impl<K: Codec + Ord, V: Codec> Codec for BTreeMap<K, V> {
    fn encode(&self, e: &mut Encoder) {
        e.varint(self.len() as u64);
        for (k, v) in self {
            k.encode(e);
            v.encode(e);
        }
    }
    fn decode(d: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        let n = d.seq_len()?;
        let mut out = BTreeMap::new();
        for _ in 0..n {
            let k = K::decode(d)?;
            let v = V::decode(d)?;
            out.insert(k, v);
        }
        Ok(out)
    }
}

/// Interned handles encode with DAG sharing: the first occurrence writes
/// tag 0 plus the body and registers the node; later occurrences write
/// tag 1 plus a postorder back-reference id. The decoder re-interns the
/// body (restoring hash-consing) and resolves back-references from its
/// side table, so sharing survives the round trip.
impl<T> Codec for Interned<T>
where
    T: Internable + Codec + 'static,
{
    fn encode(&self, e: &mut Encoder) {
        if let Some(id) = e.backref::<T>(self.key()) {
            e.u8(1);
            e.varint(id);
            return;
        }
        e.u8(0);
        (**self).encode(e);
        e.define::<T>(self.key());
    }
    fn decode(d: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        match d.u8()? {
            1 => {
                let id = d.varint()?;
                d.shared_get::<Interned<T>>(id)
            }
            // The body's own decoder charges the nesting level.
            0 => {
                let node = Interned::new(T::decode(d)?);
                d.shared_push(node.clone());
                Ok(node)
            }
            b => Err(DecodeError::new(format!("invalid interned tag {b}"))),
        }
    }
}

// ---------------------------------------------------------------------------
// Plain structs and enums
// ---------------------------------------------------------------------------

/// Writes the [`Codec`] impl of a plain struct or enum.
///
/// * `codec! { struct T { f, g } }` encodes the fields in the order
///   listed, which must name every field.
/// * `codec! { enum T @depth? { 0 => A, 1 => B(x, y), 2 => C { f, g } } }`
///   writes the variant's explicit `u8` tag, then its fields in order
///   (tuple-variant names are just bindings). Decoding an unlisted tag is
///   an error. Tags are spelled out, so reordering a type's variants
///   cannot silently change the format.
///
/// `@depth` charges one [`Decoder::enter`] level per decoded node. Every
/// recursive type says it, which is what bounds decoder recursion.
#[macro_export]
macro_rules! codec {
    (struct $T:ident { $($f:ident),* $(,)? }) => {
        impl $crate::codec::Codec for $T {
            fn encode(&self, e: &mut $crate::codec::Encoder) {
                $( $crate::codec::Codec::encode(&self.$f, e); )*
            }
            fn decode(
                d: &mut $crate::codec::Decoder<'_>,
            ) -> ::std::result::Result<Self, $crate::codec::DecodeError> {
                $( let $f = $crate::codec::Codec::decode(d)?; )*
                Ok(Self { $($f),* })
            }
        }
    };
    (enum $T:ident @depth { $($variants:tt)* }) => {
        $crate::codec!(@enum $T true { $($variants)* });
    };
    (enum $T:ident { $($variants:tt)* }) => {
        $crate::codec!(@enum $T false { $($variants)* });
    };
    (@enum $T:ident $depth:literal {
        $( $tag:literal => $V:ident $( ( $($x:ident),* ) )? $( { $($f:ident),* } )? ),* $(,)?
    }) => {
        impl $crate::codec::Codec for $T {
            fn encode(&self, e: &mut $crate::codec::Encoder) {
                match self {
                    $( Self::$V $( ( $($x),* ) )? $( { $($f),* } )? => {
                        e.u8($tag);
                        $( $( $crate::codec::Codec::encode($x, e); )* )?
                        $( $( $crate::codec::Codec::encode($f, e); )* )?
                    } )*
                }
            }
            fn decode(
                d: &mut $crate::codec::Decoder<'_>,
            ) -> ::std::result::Result<Self, $crate::codec::DecodeError> {
                if $depth {
                    d.enter()?;
                }
                let v = match d.u8()? {
                    $( $tag => {
                        $( $( let $x = $crate::codec::Codec::decode(d)?; )* )?
                        $( $( let $f = $crate::codec::Codec::decode(d)?; )* )?
                        Self::$V $( ( $($x),* ) )? $( { $($f),* } )?
                    } )*
                    b => {
                        return Err($crate::codec::DecodeError(format!(
                            concat!("invalid ", stringify!($T), " tag {}"),
                            b
                        )))
                    }
                };
                if $depth {
                    d.exit();
                }
                Ok(v)
            }
        }
    };
}

codec! { enum Width { 0 => W8, 1 => W16, 2 => W32, 3 => W64 } }

codec! { enum Signedness { 0 => Signed, 1 => Unsigned } }

codec! {
    enum Ty @depth {
        0 => Unit,
        1 => Bool,
        2 => Word(w, s),
        3 => Nat,
        4 => Int,
        5 => Ptr(t),
        6 => Struct(n),
        7 => Tuple(ts),
        8 => Arr(t, n),
    }
}

codec! { struct StructField { name, ty, offset } }

codec! { struct StructDef { name, fields, size, align } }

codec! {
    enum Value @depth {
        0 => Unit,
        1 => Bool(b),
        2 => Word(w),
        3 => Nat(n),
        4 => Int(i),
        5 => Ptr(p),
        6 => Struct(n, fs),
        7 => Tuple(vs),
        8 => Arr(t, vs),
    }
}

codec! { enum UnOp { 0 => Not, 1 => BitNot, 2 => Neg } }

codec! {
    enum BinOp {
        0 => Add,
        1 => Sub,
        2 => Mul,
        3 => Div,
        4 => Mod,
        5 => BitAnd,
        6 => BitOr,
        7 => BitXor,
        8 => Shl,
        9 => Shr,
        10 => Eq,
        11 => Ne,
        12 => Lt,
        13 => Le,
        14 => And,
        15 => Or,
        16 => Implies,
        17 => PtrAdd,
    }
}

codec! {
    enum CastKind {
        0 => WordToWord(w, s),
        1 => Unat,
        2 => Sint,
        3 => OfNat(w, s),
        4 => OfInt(w, s),
        5 => NatToInt,
        6 => IntToNat,
        7 => PtrToWord,
        8 => WordToPtr(t),
        9 => PtrRetype(t),
    }
}

codec! {
    enum Expr @depth {
        0 => Lit(v),
        1 => Var(s),
        2 => Local(s),
        3 => Global(s),
        4 => ReadHeap(t, p),
        5 => ReadByte(p),
        6 => IsValid(t, p),
        7 => PtrAligned(t, p),
        8 => NullFree(t, p),
        9 => Field(s, f),
        10 => UpdateField(s, f, v),
        11 => UnOp(op, a),
        12 => BinOp(op, a, b),
        13 => Cast(k, a),
        14 => Ite(c, t, f),
        15 => Tuple(vs),
        16 => Proj(i, a),
        17 => Index(a, i),
        18 => ArrUpd(a, i, v),
    }
}

codec! {
    enum GuardKind {
        0 => SignedOverflow,
        1 => DivByZero,
        2 => ShiftBound,
        3 => PtrValid,
        4 => DontReach,
        5 => UnsignedOverflow,
        6 => HeapValid,
        7 => WordAbs,
        8 => ArrayBounds,
    }
}

codec! {
    enum Update {
        0 => Local(n, x),
        1 => Global(n, x),
        2 => Heap(t, p, x),
        3 => Byte(p, x),
        4 => TagRegion(t, p),
    }
}

codec! { struct Span { offset, line, col } }

// ---------------------------------------------------------------------------
// Hand-written ir impls: encodings that are not "tag, then fields"
// ---------------------------------------------------------------------------

// The struct table, rebuilt through `insert_struct_def` on decode.
impl Codec for TypeEnv {
    fn encode(&self, e: &mut Encoder) {
        let defs: Vec<&StructDef> = self.structs().collect();
        e.varint(defs.len() as u64);
        for def in defs {
            def.encode(e);
        }
    }
    fn decode(d: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        let n = d.seq_len()?;
        let mut env = TypeEnv::new();
        for _ in 0..n {
            env.insert_struct_def(StructDef::decode(d)?);
        }
        Ok(env)
    }
}

impl Codec for Word {
    fn encode(&self, e: &mut Encoder) {
        e.varint(self.bits());
        self.width().encode(e);
        self.sign().encode(e);
    }
    fn decode(d: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        let bits = d.varint()?;
        let width = Width::decode(d)?;
        let sign = Signedness::decode(d)?;
        Ok(Word::new(bits, width, sign))
    }
}

// Nat/Int round-trip through their decimal string form: the bignum crate
// keeps its limb layout private, and proof terms hold only small
// constants, so the string form is simple and stable.
impl Codec for Nat {
    fn encode(&self, e: &mut Encoder) {
        e.str(&self.to_string());
    }
    fn decode(d: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        d.str()?
            .parse()
            .map_err(|_| DecodeError::new("invalid Nat literal"))
    }
}

impl Codec for Int {
    fn encode(&self, e: &mut Encoder) {
        e.str(&self.to_string());
    }
    fn decode(d: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        d.str()?
            .parse()
            .map_err(|_| DecodeError::new("invalid Int literal"))
    }
}

impl Codec for Ptr {
    fn encode(&self, e: &mut Encoder) {
        e.varint(self.addr);
        self.pointee.encode(e);
    }
    fn decode(d: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        let addr = d.varint()?;
        let pointee = Ty::decode(d)?;
        Ok(Ptr::new(addr, pointee))
    }
}

impl Codec for Symbol {
    fn encode(&self, e: &mut Encoder) {
        e.str(self.as_str());
    }
    fn decode(d: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        Ok(Symbol::intern(&d.str()?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::IExpr;

    fn roundtrip<T: Codec + PartialEq + std::fmt::Debug>(v: &T) {
        let bytes = encode_to_vec(v);
        let back: T = decode_from_slice(&bytes).expect("decode");
        assert_eq!(&back, v);
    }

    #[test]
    fn primitives_round_trip() {
        roundtrip(&true);
        roundtrip(&false);
        roundtrip(&0u64);
        roundtrip(&u64::MAX);
        roundtrip(&12345usize);
        roundtrip(&u128::MAX);
        roundtrip(&String::from("héllo"));
        roundtrip(&vec![1u32, 2, 3]);
        roundtrip(&Some(7u8));
        roundtrip(&Option::<u8>::None);
        let mut m = BTreeMap::new();
        m.insert("a".to_owned(), 1u64);
        m.insert("b".to_owned(), 2u64);
        roundtrip(&m);
    }

    #[test]
    fn ir_types_round_trip() {
        roundtrip(&Ty::U32);
        roundtrip(&Ty::Struct("node".into()).ptr_to().arr_of(4));
        roundtrip(&Value::u32(42));
        roundtrip(&Value::nat(12345u64));
        roundtrip(&Value::int(-7i64));
        roundtrip(&Value::Struct(
            "pair".into(),
            vec![("a".into(), Value::u32(1)), ("b".into(), Value::i32(-2))],
        ));
        roundtrip(&Update::Heap(
            Ty::U32,
            Expr::var("p"),
            Expr::binop(BinOp::Add, Expr::var("x"), Expr::u32(1)),
        ));
        roundtrip(&GuardKind::ArrayBounds);
        roundtrip(&Span::new(10, 2, 3));
        let mut env = TypeEnv::new();
        env.define_struct("s", vec![("x".into(), Ty::U32), ("c".into(), Ty::U8)])
            .unwrap();
        roundtrip(&env);
    }

    #[test]
    fn expr_round_trip_preserves_sharing() {
        // x + x: both children are the same interned node.
        let x = IExpr::new(Expr::var("shared_x"));
        let e = Expr::BinOp(BinOp::Add, x.clone(), x.clone());
        let bytes = encode_to_vec(&e);
        let back: Expr = decode_from_slice(&bytes).expect("decode");
        assert_eq!(back, e);
        match &back {
            Expr::BinOp(_, a, b) => {
                assert_eq!(a.key(), b.key(), "sharing must survive the round trip");
            }
            other => panic!("unexpected shape {other:?}"),
        }
        // The encoding must carry the body once: encoding `x` alone plus a
        // back-reference should be much shorter than two bodies.
        let one = encode_to_vec(&Expr::BinOp(
            BinOp::Add,
            IExpr::new(Expr::var("shared_x")),
            IExpr::new(Expr::var("other_name_xy")),
        ));
        assert!(bytes.len() < one.len(), "back-reference beats second body");
    }

    #[test]
    fn corrupt_input_errors_without_panic() {
        let e = Expr::binop(
            BinOp::Mul,
            Expr::var("a"),
            Expr::binop(BinOp::Add, Expr::var("b"), Expr::u32(3)),
        );
        let bytes = encode_to_vec(&e);
        // Truncations at every prefix length.
        for n in 0..bytes.len() {
            let _ = decode_from_slice::<Expr>(&bytes[..n]);
        }
        // Single-bit flips everywhere: decode either fails or yields some
        // expression; it must never panic.
        for i in 0..bytes.len() {
            for bit in 0..8 {
                let mut m = bytes.clone();
                m[i] ^= 1 << bit;
                let _ = decode_from_slice::<Expr>(&m);
            }
        }
    }

    #[test]
    fn oversized_length_is_rejected() {
        let mut e = Encoder::new();
        e.varint(u64::MAX); // absurd element count
        let bytes = e.finish();
        assert!(decode_from_slice::<Vec<u32>>(&bytes).is_err());
    }

    #[test]
    fn deep_nesting_is_rejected_not_overflowed() {
        // 100k nested Ptr tags: the depth guard must reject this long
        // before the stack is at risk.
        let mut bytes = vec![5u8; 100_000];
        bytes.push(0); // innermost Ty::Unit
        assert!(decode_from_slice::<Ty>(&bytes).is_err());
    }

    #[test]
    fn digest_is_stable_and_sensitive() {
        let d1 = digest128_bytes(b"hello world");
        let d2 = digest128_bytes(b"hello world");
        assert_eq!(d1, d2);
        assert_ne!(d1, digest128_bytes(b"hello worlc"));
        assert_ne!(d1, digest128_bytes(b""));
        // Pinned values: a change here breaks every persisted store entry
        // and certificate, so it must be an intentional format bump.
        assert_eq!(
            digest128_bytes(b""),
            0xe9d3_2759_6b86_9820_f52a_15e9_a9b5_e89b
        );
        assert_eq!(d1, 0x3969_2385_cbee_4815_05cb_5851_12be_1151);
    }

    #[test]
    fn fnv1a_and_splitmix64_match_their_references() {
        // The FNV-1a 64 test vectors, and SplitMix64's first output from
        // state 0.
        assert_eq!(fnv1a(b"", FNV_BASIS), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a", FNV_BASIS), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar", FNV_BASIS), 0x8594_4171_f739_67e8);
        assert_eq!(splitmix64(0x9e37_79b9_7f4a_7c15), 0xe220_a839_7b1d_cdaf);
    }

    #[test]
    fn hasher_digest_is_pinned() {
        let d = digest128(|h| {
            0xACu64.hash(h);
            "autocorres".hash(h);
        });
        // Pinned: a change means the Rust release changed `DefaultHasher`,
        // which every phase input digest and replay key depends on.
        assert_eq!(d, 0xbf43_db9c_1bce_1a27_6033_ac8a_fcda_6f19);
        assert_ne!(d, digest128(|h| 0xACu64.hash(h)));
    }

    #[test]
    fn unseal_tells_digest_mismatch_from_bad_framing() {
        let sealed = seal(b"TESTMAG1", b"payload");
        assert_eq!(sealed.len(), 8 + 7 + 16);
        assert_eq!(unseal(b"TESTMAG1", &sealed), Ok(&b"payload"[..]));
        assert!(matches!(
            unseal(b"OTHERMAG", &sealed),
            Err(SealError::Format(_))
        ));
        assert!(matches!(
            unseal(b"TESTMAG1", &sealed[..23]),
            Err(SealError::Format(_))
        ));
        for i in 8..sealed.len() {
            let mut m = sealed.clone();
            m[i] ^= 1;
            assert_eq!(
                unseal(b"TESTMAG1", &m),
                Err(SealError::Digest),
                "flip at {i}"
            );
        }
    }

    #[test]
    fn hash_consed_depth_counts_once_per_level() {
        // 600 nested `!` nodes: each level is one `Expr` behind one
        // interned handle and must cost one level of `MAX_DEPTH`, not two.
        crate::sched::with_stack(|| {
            let mut e = Expr::var("x");
            for _ in 0..600 {
                e = Expr::UnOp(UnOp::Not, IExpr::new(e));
            }
            roundtrip(&e);
        });
    }
}
