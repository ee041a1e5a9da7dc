//! Disk-backed artifact persistence: warm-starting a fresh process from an
//! earlier run's proof state (DESIGN.md §6g).
//!
//! A [`DiskStore`] mirrors the two session caches onto disk:
//!
//! * every [`ArtifactStore`] entry — `(phase, function, input digest)` →
//!   phase artifact — as one content-addressed file under `artifacts/`,
//! * the [`kernel::ReplayCache`]'s successful-validation digests in
//!   `replay.bin`.
//!
//! Layout under the cache directory:
//!
//! ```text
//! meta                          b"ACRSTOR2" + two 16-byte scheme probes
//! replay.bin                    b"ACRSRPL2" + digests + integrity digest
//! artifacts/<phase>-<fn>-<digest>.bin
//!                               b"ACRSART2" + payload + integrity digest
//! ```
//!
//! An entry's theorems are written in the kernel's one derivation
//! encoding, a node table per theorem (`kernel::codec`), the encoding
//! certificates use. Replay digests are bound to the checking context
//! they were validated under (`kernel::ReplayCache`).
//!
//! # Integrity and trust model
//!
//! Every entry and `replay.bin` is an [`ir::codec::seal`]ed container (a
//! magic header, the payload, and a trailing
//! [`ir::codec::digest128_bytes`] over it, the framing `cert-v2` uses
//! too); a corrupt, truncated, or foreign file fails one of the checks
//! and is **rejected individually** — the load deletes it and the
//! pipeline recomputes that entry from source, so damage degrades one
//! warm start, never verdicts. The store is part of the
//! *local trusted base* (like the in-memory session caches it mirrors):
//! its theorems are rebuilt without validation and replay covers them;
//! the integrity digest defends against accidental corruption, not an
//! adversary with write access to the cache directory — adversarial
//! transport is what proof certificates (`kernel::cert`) are for, and
//! those revalidate every node.
//!
//! Version skew is safe by construction, twice over. First, the `meta`
//! file records the store version (`META_MAGIC`, bumped whenever what a
//! key digest covers changes: `ACRSTOR2` digests functions position-free)
//! and probes of the digest schemes (the codec's FNV construction and the
//! standard library's `DefaultHasher`, whose fixed SipHash key may change
//! between Rust releases); a mismatch makes the whole directory load as a
//! cold start with one diagnostic, and the load removes every entry file
//! and `replay.bin`, so the save that heals `meta` leaves no dead entry
//! for later loads to decode. Second, even if the probe missed, a stale
//! entry's *key* digest could never equal one freshly computed under a
//! different scheme — lookups simply miss and recompute, and stale replay
//! digests never match a real validation's digest, so a preload can only
//! skip re-runs of validations that actually succeeded.
//!
//! # Concurrency
//!
//! Writers create a uniquely named temporary file and `rename` it into
//! place — atomic on POSIX — so concurrent readers only ever observe
//! complete files and concurrent writers race to last-writer-wins on
//! byte-identical content (entries are content-addressed by their key).

use std::collections::HashSet;
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use ir::codec::{digest128, digest128_bytes, seal, unseal, Codec, DecodeError, Decoder, Encoder};
use ir::diag::{Diag, DiagKind};
use ir::sched::{par_map, plan_workers, MIN_TASK_COST};
use kernel::ReplayCache;

use crate::phase::{AbsintFn, AdaptedFn, Artifact, ArtifactStore, PhaseArtifact, PHASES};

/// Magic + version of the store's `meta` file.
const META_MAGIC: &[u8; 8] = b"ACRSTOR2";
/// Magic + version of one artifact entry file.
const ART_MAGIC: &[u8; 8] = b"ACRSART2";
/// Magic + version of the replay-digest file.
const RPL_MAGIC: &[u8; 8] = b"ACRSRPL2";

// ---- artifact codecs --------------------------------------------------------

ir::codec! { struct AdaptedFn { body, thm } }

ir::codec! { struct AbsintFn { report, thms } }

ir::codec! {
    enum Artifact {
        0 => L1 { fun, thm },
        1 => L2Fn(fun),
        2 => L2Thm(thm),
        3 => Hl { fun, thm },
        4 => Wa { fun, thm },
        5 => Adapt(a),
        6 => Absint(a),
    }
}

// ---- scheme probes ----------------------------------------------------------

/// Probe of [`ir::codec::digest128`], the `DefaultHasher`-based scheme of
/// the phase input digests and the replay cache. `DefaultHasher::new()` is SipHash
/// with a fixed key — deterministic across processes of one Rust release,
/// but free to change between releases; this probe hashes a fixed
/// structured value (including an interned term, covering the
/// content-based `Symbol` hash) so any scheme change flips it.
fn hasher_probe() -> u128 {
    use std::hash::Hash;
    let probe = ir::expr::Expr::binop(
        ir::expr::BinOp::Add,
        ir::expr::Expr::var("store_probe"),
        ir::expr::Expr::u32(1),
    );
    digest128(|h| {
        0xACu64.hash(h);
        "autocorres-store-probe".hash(h);
        probe.hash(h);
    })
}

/// Probe of the codec's own FNV-based integrity digest.
fn codec_probe() -> u128 {
    digest128_bytes(b"autocorres-store-probe")
}

fn meta_bytes() -> Vec<u8> {
    let mut v = Vec::with_capacity(40);
    v.extend_from_slice(META_MAGIC);
    v.extend_from_slice(&hasher_probe().to_le_bytes());
    v.extend_from_slice(&codec_probe().to_le_bytes());
    v
}

// ---- the disk store ---------------------------------------------------------

/// What a [`DiskStore::load_into`] found.
#[derive(Clone, Debug, Default)]
pub struct LoadReport {
    /// Artifact entries accepted into the session store.
    pub artifacts: usize,
    /// Replay-cache digests preloaded.
    pub replay_digests: usize,
    /// On-disk entries rejected (corrupt, truncated, foreign, or
    /// version-skewed) — each falls back to recomputation.
    pub rejected: usize,
    /// The whole directory was skipped because its `meta` header did not
    /// match this build's format/digest schemes.
    pub version_skew: bool,
    /// Non-fatal diagnostics (rejections, skew) for the caller to surface.
    pub warnings: Vec<Diag>,
}

/// A disk-backed mirror of the session caches. See the module docs.
pub struct DiskStore {
    dir: PathBuf,
    tmp_seq: AtomicU64,
}

impl DiskStore {
    /// Opens (creating if needed) a cache directory.
    ///
    /// # Errors
    ///
    /// Filesystem errors creating the directory tree.
    pub fn open(dir: &Path) -> io::Result<DiskStore> {
        std::fs::create_dir_all(dir.join("artifacts"))?;
        Ok(DiskStore {
            dir: dir.to_path_buf(),
            tmp_seq: AtomicU64::new(0),
        })
    }

    /// The directory this store mirrors into.
    #[must_use]
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn warn(msg: String) -> Diag {
        // The store caches kernel-checked artifacts; `Lint` is the one
        // non-fatal kind (warm-start degradation never fails a run).
        Diag::new(ir::diag::Phase::Kernel, DiagKind::Lint, msg)
    }

    /// Loads every valid on-disk entry into the session caches, decoding
    /// at the width [`plan_workers`] grants `workers`. Never fails:
    /// anything unreadable or invalid is counted in
    /// [`LoadReport::rejected`] and recomputed by the pipeline instead.
    pub fn load_into(
        &self,
        store: &ArtifactStore,
        replay: &ReplayCache,
        workers: usize,
    ) -> LoadReport {
        let mut rep = LoadReport::default();
        match std::fs::read(self.dir.join("meta")) {
            Ok(bytes) => {
                if bytes != meta_bytes() {
                    rep.version_skew = true;
                    rep.warnings.push(Self::warn(format!(
                        "cache {}: format or digest-scheme mismatch (written by a \
                         different build?); cleared, starting cold",
                        self.dir.display()
                    )));
                    self.clear();
                    return rep;
                }
            }
            Err(e) if e.kind() == io::ErrorKind::NotFound => {
                // A fresh (or pre-meta) directory: nothing trustworthy to
                // load. Entries and meta will be written on save.
                if self.has_entries() {
                    rep.version_skew = true;
                    rep.warnings.push(Self::warn(format!(
                        "cache {}: entries present but no meta header; cleared, starting cold",
                        self.dir.display()
                    )));
                    self.clear();
                }
                return rep;
            }
            Err(e) => {
                rep.warnings.push(Self::warn(format!(
                    "cache {}: meta unreadable ({e}); starting cold",
                    self.dir.display()
                )));
                return rep;
            }
        }

        let art_dir = self.dir.join("artifacts");
        let mut paths: Vec<PathBuf> = match std::fs::read_dir(&art_dir) {
            Ok(rd) => rd.filter_map(|e| e.ok().map(|e| e.path())).collect(),
            Err(e) => {
                rep.warnings.push(Self::warn(format!(
                    "cache {}: artifacts unreadable ({e})",
                    self.dir.display()
                )));
                return rep;
            }
        };
        paths.sort();
        // In-flight temporaries of a concurrent writer are not entries;
        // anything else that fails to parse is.
        paths.retain(|p| p.extension().and_then(|e| e.to_str()) != Some("tmp"));
        // A rejected file is removed, so it is counted once: the save
        // after its recomputation writes it afresh.
        for (decoded, path) in decode_all(&paths, workers).into_iter().zip(&paths) {
            match decoded {
                Some((phase, name, artifact)) => {
                    store.preload(phase, &name, Arc::new(artifact));
                    rep.artifacts += 1;
                }
                None => {
                    rep.rejected += 1;
                    let _ = std::fs::remove_file(path);
                }
            }
        }

        let replay_path = self.dir.join("replay.bin");
        match std::fs::read(&replay_path).map(|bytes| decode_replay(&bytes)) {
            Ok(Ok(digests)) => {
                replay.preload(&digests);
                rep.replay_digests = digests.len();
            }
            Err(e) if e.kind() == io::ErrorKind::NotFound => {}
            _ => {
                rep.rejected += 1;
                let _ = std::fs::remove_file(&replay_path);
            }
        }

        if rep.rejected > 0 {
            rep.warnings.push(Self::warn(format!(
                "cache {}: rejected {} corrupt or foreign entr{} (removed; recomputing)",
                self.dir.display(),
                rep.rejected,
                if rep.rejected == 1 { "y" } else { "ies" }
            )));
        }
        rep
    }

    /// Writes the session caches back to disk. Existing entry files are
    /// kept (content-addressed: same key, same bytes); `meta` and
    /// `replay.bin` are replaced atomically, the latter merged with
    /// concurrent writers' digests.
    ///
    /// # Errors
    ///
    /// Filesystem errors; the store on disk stays consistent (every file
    /// is complete) even on failure.
    pub fn save(&self, store: &ArtifactStore, replay: &ReplayCache) -> io::Result<()> {
        self.write_atomic(&self.dir.join("meta"), &meta_bytes())?;
        for ((phase, name, digest), artifact) in store.entries() {
            let path = self.dir.join("artifacts").join(entry_filename(phase, &name, digest));
            if path.exists() {
                continue;
            }
            self.write_atomic(&path, &encode_entry(phase, &name, &artifact))?;
        }
        // Merge-on-write: a concurrent process may have persisted digests
        // this session never saw; last-writer-wins must not drop them.
        let mut digests: HashSet<u128> = std::fs::read(self.dir.join("replay.bin"))
            .ok()
            .and_then(|b| decode_replay(&b).ok())
            .map(|v| v.into_iter().collect())
            .unwrap_or_default();
        digests.extend(replay.export_digests());
        let mut digests: Vec<u128> = digests.into_iter().collect();
        digests.sort_unstable();
        self.write_atomic(&self.dir.join("replay.bin"), &encode_replay(&digests))?;
        Ok(())
    }

    /// Removes every entry file and `replay.bin` of a version-skewed
    /// directory. None of them can ever hit, and once the next save heals
    /// `meta`, every later load would decode them again. A concurrent
    /// writer's in-flight temporaries are left alone.
    fn clear(&self) {
        if let Ok(rd) = std::fs::read_dir(self.dir.join("artifacts")) {
            for path in rd.filter_map(|e| e.ok().map(|e| e.path())) {
                if path.extension().and_then(|e| e.to_str()) != Some("tmp") {
                    let _ = std::fs::remove_file(path);
                }
            }
        }
        let _ = std::fs::remove_file(self.dir.join("replay.bin"));
    }

    fn has_entries(&self) -> bool {
        std::fs::read_dir(self.dir.join("artifacts"))
            .map(|mut rd| rd.next().is_some())
            .unwrap_or(false)
    }

    /// Writes `bytes` to a unique temporary sibling, then renames it over
    /// `path` — readers never see a partial file; racing writers settle on
    /// last-writer-wins.
    fn write_atomic(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        let seq = self.tmp_seq.fetch_add(1, Ordering::Relaxed);
        let tmp = path.with_extension(format!("{}-{}.tmp", std::process::id(), seq));
        {
            let mut f = std::fs::File::create(&tmp)?;
            f.write_all(bytes)?;
            f.sync_all()?;
        }
        let res = std::fs::rename(&tmp, path);
        if res.is_err() {
            let _ = std::fs::remove_file(&tmp);
        }
        res
    }
}

/// Reads and decodes every entry file on the shared executor, at the
/// width [`plan_workers`] grants `workers` for the entry count: decoding
/// is pure per file (the interner is sharded and thread-safe), so only
/// the read+decode fans out — results come back in path order and the
/// caller's accept/reject walk stays deterministic. On a seL4-scale store
/// (~3 900 entries, ~270 k proof nodes) the sequential decode dominated
/// warm start. A decode that panics rejects its own entry only — load
/// never fails, it degrades.
fn decode_all(
    paths: &[PathBuf],
    workers: usize,
) -> Vec<Option<(&'static str, String, PhaseArtifact)>> {
    let cost = paths.len() as u64 * MIN_TASK_COST;
    let (decoded, _) = par_map(paths, plan_workers(workers, cost, false), |_, path| {
        std::panic::catch_unwind(|| decode_entry(&std::fs::read(path).ok()?).ok())
            .ok()
            .flatten()
    });
    decoded
}

/// `<phase>-<fn>-<digest>.bin`, with the function name sanitized for the
/// filesystem (C identifiers pass through unchanged; the digest keeps
/// sanitized names collision-free regardless).
fn entry_filename(phase: &str, name: &str, digest: u128) -> String {
    let safe: String = name
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() || c == '_' { c } else { '-' })
        .collect();
    format!("{phase}-{safe}-{digest:032x}.bin")
}

fn encode_entry(phase: &str, name: &str, artifact: &PhaseArtifact) -> Vec<u8> {
    let mut e = Encoder::new();
    e.str(phase);
    e.str(name);
    e.u128_fixed(artifact.digest);
    artifact.value.encode(&mut e);
    seal(ART_MAGIC, &e.finish())
}

fn decode_entry(bytes: &[u8]) -> Result<(&'static str, String, PhaseArtifact), DecodeError> {
    let payload = unseal(ART_MAGIC, bytes)?;
    let mut d = Decoder::new(payload);
    let phase_name = d.str()?;
    // The store key's phase component is `&'static str`; an entry naming
    // an unknown phase (a future format, a renamed phase) is rejected.
    let phase = PHASES
        .iter()
        .map(|p| p.name())
        .find(|n| *n == phase_name)
        .ok_or_else(|| DecodeError(format!("unknown phase {phase_name:?}")))?;
    let name = d.str()?;
    let digest = d.u128_fixed()?;
    let value = Artifact::decode(&mut d)?;
    if d.remaining() != 0 {
        return Err(DecodeError(format!("{} trailing bytes", d.remaining())));
    }
    Ok((phase, name, PhaseArtifact { digest, value }))
}

fn encode_replay(digests: &[u128]) -> Vec<u8> {
    let mut e = Encoder::new();
    e.varint(digests.len() as u64);
    for &d in digests {
        e.u128_fixed(d);
    }
    seal(RPL_MAGIC, &e.finish())
}

fn decode_replay(bytes: &[u8]) -> Result<Vec<u128>, DecodeError> {
    let payload = unseal(RPL_MAGIC, bytes)?;
    let mut d = Decoder::new(payload);
    let n = d.seq_len()?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(d.u128_fixed()?);
    }
    if d.remaining() != 0 {
        return Err(DecodeError(format!("{} trailing bytes", d.remaining())));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Options, Session};
    use monadic::MonadicFn;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "acr-store-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    const SRC: &str = "unsigned inc(unsigned x) { if (x < 100u) { return x + 1u; } return x; }";

    fn opts(dir: &Path) -> Options {
        Options {
            l2_trials: 2,
            cache_dir: Some(dir.to_path_buf()),
            ..Options::default()
        }
    }

    #[test]
    fn roundtrip_through_disk_warm_starts() {
        let dir = tmpdir("rt");
        let out1 = {
            let sess = Session::new(opts(&dir));
            assert_eq!(sess.load_report().artifacts, 0, "first run is cold");
            let out = sess.translate(SRC).expect("translate");
            assert_eq!(out.stats.dirty_fns, 1, "everything recomputed cold");
            out
        };
        // A *fresh* session (fresh process stand-in) over the same dir.
        let sess = Session::new(opts(&dir));
        assert!(sess.load_report().artifacts > 0, "artifacts loaded");
        assert_eq!(sess.load_report().rejected, 0);
        let out2 = sess.translate(SRC).expect("translate warm");
        assert_eq!(out2.stats.dirty_fns, 0, "warm start recomputes nothing");
        assert_eq!(
            out1.wa.function("inc").unwrap().to_string(),
            out2.wa.function("inc").unwrap().to_string()
        );
        assert_eq!(
            out1.stats.deterministic_summary(),
            out2.stats.deterministic_summary()
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_entries_are_rejected_individually() {
        let dir = tmpdir("corrupt");
        {
            let sess = Session::new(opts(&dir));
            sess.translate(SRC).expect("translate");
        }
        // Flip one byte in the middle of every artifact file in turn and
        // in replay.bin: each load must reject it and still succeed.
        let clean = {
            let sess = Session::new(opts(&dir));
            sess.translate(SRC).expect("translate").wa.function("inc").unwrap().to_string()
        };
        let mut paths: Vec<PathBuf> = std::fs::read_dir(dir.join("artifacts"))
            .unwrap()
            .map(|e| e.unwrap().path())
            .collect();
        paths.push(dir.join("replay.bin"));
        for path in paths {
            let orig = std::fs::read(&path).unwrap();
            let mut bad = orig.clone();
            let mid = bad.len() / 2;
            bad[mid] ^= 0x01;
            std::fs::write(&path, &bad).unwrap();
            let sess = Session::new(opts(&dir));
            assert!(sess.load_report().rejected >= 1, "{}", path.display());
            let out = sess.translate(SRC).expect("translate survives corruption");
            assert_eq!(out.wa.function("inc").unwrap().to_string(), clean);
            std::fs::write(&path, &orig).unwrap();
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn rejected_files_are_removed_and_rewritten() {
        let dir = tmpdir("rewrite");
        {
            let sess = Session::new(opts(&dir));
            sess.translate(SRC).expect("translate");
        }
        let flip = |path: &Path| {
            let mut bad = std::fs::read(path).unwrap();
            let mid = bad.len() / 2;
            bad[mid] ^= 0x01;
            std::fs::write(path, &bad).unwrap();
        };
        let entry = std::fs::read_dir(dir.join("artifacts"))
            .unwrap()
            .map(|e| e.unwrap().path())
            .min()
            .unwrap();
        flip(&entry);
        {
            let sess = Session::new(opts(&dir));
            assert_eq!(sess.load_report().rejected, 1);
            assert!(sess.translate(SRC).expect("translate").stats.dirty_fns > 0);
        }
        // The load removed the rejected entry; the save wrote it afresh.
        let sess = Session::new(opts(&dir));
        assert_eq!(sess.load_report().rejected, 0);
        assert_eq!(sess.translate(SRC).expect("translate").stats.dirty_fns, 0);
        drop(sess);

        // A rejected `replay.bin` is counted once, even by warm starts
        // that compute nothing and so save nothing.
        flip(&dir.join("replay.bin"));
        for rejected in [1, 0] {
            let sess = Session::new(opts(&dir));
            assert_eq!(sess.load_report().rejected, rejected);
            assert_eq!(sess.translate(SRC).expect("translate").stats.dirty_fns, 0);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_warm_start_that_computes_nothing_writes_nothing() {
        let dir = tmpdir("nowrite");
        {
            let sess = Session::new(opts(&dir));
            let out = sess.translate(SRC).expect("translate");
            sess.check_all_report(&out, 1).expect("check");
        }
        let stamp = |file: &str| {
            let path = dir.join(file);
            let modified = std::fs::metadata(&path).unwrap().modified().unwrap();
            (std::fs::read(&path).unwrap(), modified)
        };
        let before = (stamp("meta"), stamp("replay.bin"));
        // Filesystem clocks can be coarse: leave time for a rewrite to show.
        std::thread::sleep(std::time::Duration::from_millis(20));
        let sess = Session::new(opts(&dir));
        let out = sess.translate(SRC).expect("translate");
        assert_eq!(out.stats.dirty_fns, 0);
        assert_eq!(
            sess.check_all_report(&out, 1).expect("check").cache_misses,
            0
        );
        assert!(
            (stamp("meta"), stamp("replay.bin")) == before,
            "a warm start rewrote the store"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn version_skew_and_garbage_degrade_to_cold_start() {
        let dir = tmpdir("skew");
        {
            let sess = Session::new(opts(&dir));
            sess.translate(SRC).expect("translate");
        }
        // Foreign + empty files among the entries: rejected, not fatal.
        std::fs::write(dir.join("artifacts/README.txt"), b"not an artifact").unwrap();
        std::fs::write(dir.join("artifacts/empty.bin"), b"").unwrap();
        {
            let sess = Session::new(opts(&dir));
            assert_eq!(sess.load_report().rejected, 2);
            assert!(sess.load_report().artifacts > 0);
            let out = sess.translate(SRC).expect("translate");
            assert_eq!(out.stats.dirty_fns, 0);
        }
        // A directory another build wrote: beside each live entry, one
        // under a key digest this build never computes.
        let entries = |dir: &Path| -> Vec<PathBuf> {
            std::fs::read_dir(dir.join("artifacts"))
                .unwrap()
                .map(|e| e.unwrap().path())
                .collect()
        };
        let live = entries(&dir);
        for path in &live {
            let (phase, name, a) = decode_entry(&std::fs::read(path).unwrap()).unwrap();
            let dead = PhaseArtifact {
                digest: !a.digest,
                value: a.value,
            };
            let file = entry_filename(phase, &name, dead.digest);
            std::fs::write(dir.join("artifacts").join(file), encode_entry(phase, &name, &dead))
                .unwrap();
        }
        assert_eq!(entries(&dir).len(), 2 * live.len());
        // Version-skewed meta: the whole directory loads cold, with one
        // warning, and the load clears it; the next save rewrites the
        // header and exactly this build's entries.
        let mut meta = std::fs::read(dir.join("meta")).unwrap();
        meta[9] ^= 0xff;
        std::fs::write(dir.join("meta"), &meta).unwrap();
        {
            let sess = Session::new(opts(&dir));
            let rep = sess.load_report();
            assert!(rep.version_skew);
            assert_eq!(rep.artifacts, 0);
            assert_eq!(rep.warnings.len(), 1);
            assert!(entries(&dir).is_empty(), "a skewed load clears the entries");
            assert!(!dir.join("replay.bin").exists(), "and replay.bin");
            let out = sess.translate(SRC).expect("translate cold");
            assert!(out.stats.dirty_fns > 0);
            assert_eq!(sess.artifacts(), live.len());
        }
        // The save above healed the meta header; loads are warm again and
        // find no dead entry.
        let sess = Session::new(opts(&dir));
        assert!(!sess.load_report().version_skew);
        assert_eq!(sess.load_report().artifacts, live.len());
        assert_eq!(sess.load_report().rejected, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unknown_phase_entries_are_rejected() {
        let dir = tmpdir("phase");
        {
            let sess = Session::new(opts(&dir));
            sess.translate(SRC).expect("translate");
        }
        // A self-consistent entry (valid magic + digest) naming a phase
        // this build does not know: must be rejected by name, not trusted.
        let mut e = Encoder::new();
        e.str("l9");
        e.str("inc");
        e.u128_fixed(42);
        Artifact::L2Fn(MonadicFn {
            name: "inc".into(),
            params: vec![],
            ret_ty: ir::ty::Ty::Unit,
            frame: None,
            body: monadic::Prog::Fail,
        })
        .encode(&mut e);
        std::fs::write(
            dir.join("artifacts/l9-inc-0000.bin"),
            seal(ART_MAGIC, &e.finish()),
        )
        .unwrap();
        let sess = Session::new(opts(&dir));
        assert_eq!(sess.load_report().rejected, 1);
        assert!(sess.translate(SRC).is_ok());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
