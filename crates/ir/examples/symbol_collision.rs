//! Finds two distinct identifiers whose [`ir::Symbol`] content hashes (the
//! 64-bit FNV-1a of the text) are equal.
//!
//! ```text
//! cargo run --release -p ir --example symbol_collision
//! ```
//!
//! A `Hash` impl sees a symbol only through that 64-bit value, and an
//! interned term only through its cached 64-bit hash, so two such names
//! make two different judgments feed a hasher the same bytes. The kernel's
//! certificate tests pin the pair this program prints, to show that
//! certificate checking never decides a row by hash.
//!
//! Method: a distinguished-point collision search over
//! `x ↦ fnv1a(name(x))`. Trails start at fixed pseudo-random points and
//! stop at the first point whose low [`DP_BITS`] bits are zero; two trails
//! from different starts that end at the same point merged, and walking
//! both again from equal distances finds the two names that hash alike.
//! Expect about 5·10⁹ hash evaluations (six minutes on one core of a
//! 2-CPU x86-64 host) and a few thousand trails in memory. The output is
//! deterministic: `vvzzknxxcn2uon vzdstvzqfrpefm 0x9a270f45c97ddfad`.

use std::collections::HashMap;

/// A point ends a trail when its low `DP_BITS` bits are zero.
const DP_BITS: u32 = 20;
/// Trails longer than this are abandoned (they are caught in a cycle).
const MAX_TRAIL: u64 = 20 << DP_BITS;

const ALPHABET: &[u8; 32] = b"abcdefghijklmnopqrstuvwxyz012345";

/// `v` followed by the 13 base-32 digits of `x`: injective on `u64`.
fn name(x: u64) -> [u8; 14] {
    let mut s = [b'v'; 14];
    for (i, c) in s[1..].iter_mut().enumerate() {
        *c = ALPHABET[((x >> (5 * i)) & 31) as usize];
    }
    s
}

/// FNV-1a, as `ir::names` computes a symbol's content hash.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn step(x: u64) -> u64 {
    fnv1a(&name(x))
}

/// SplitMix64: the trail starts.
fn start(k: u64) -> u64 {
    let mut z = k.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Walks from `x` to the end of its trail: `(end, length)`, or `None`
/// for an abandoned trail.
fn trail(mut x: u64) -> Option<(u64, u64)> {
    for len in 0..MAX_TRAIL {
        if x.trailing_zeros() >= DP_BITS {
            return Some((x, len));
        }
        x = step(x);
    }
    None
}

/// Two trails of lengths `la` and `lb` that end at the same point: the
/// two distinct points where they merge, or `None` if one trail started
/// on the other.
fn merge(mut a: u64, la: u64, mut b: u64, lb: u64) -> Option<(u64, u64)> {
    for _ in lb..la {
        a = step(a);
    }
    for _ in la..lb {
        b = step(b);
    }
    while a != b {
        let (fa, fb) = (step(a), step(b));
        if fa == fb {
            return Some((a, b));
        }
        (a, b) = (fa, fb);
    }
    None
}

fn main() {
    let mut ends: HashMap<u64, (u64, u64)> = HashMap::new();
    for k in 1.. {
        let s = start(k);
        let Some((end, len)) = trail(s) else { continue };
        let Some((other, other_len)) = ends.insert(end, (s, len)) else {
            continue;
        };
        let Some((a, b)) = merge(s, len, other, other_len) else {
            continue;
        };
        let (a, b) = (name(a), name(b));
        let (a, b) = (
            std::str::from_utf8(&a).expect("ascii"),
            std::str::from_utf8(&b).expect("ascii"),
        );
        let (sa, sb) = (ir::Symbol::intern(a), ir::Symbol::intern(b));
        assert!(sa != sb && sa.stable_hash() == sb.stable_hash());
        println!("{a} {b} {:#018x}", sa.stable_hash());
        return;
    }
}
