//! Disk-backed artifact persistence: warm-starting a fresh process from an
//! earlier run's phase artifacts (DESIGN.md §6g).
//!
//! A [`DiskStore`] mirrors the session's [`ArtifactStore`] onto one
//! append-only file per cache directory, `DIR/segment`: every entry —
//! `(phase, function, input digest)` → phase artifact — is one record.
//!
//! ```text
//! b"ACRSTOR6" + two 16-byte scheme probes                  header
//! per record: len, !len (u64 LE), then one sealed container:
//!   b"ACRSART2" + (phase, fn, digest, artifact) + digest   an artifact
//! ```
//!
//! Theorems are written in the kernel's one derivation encoding, a node
//! table per theorem (`kernel::codec`), the encoding certificates use.
//! This module owns the record format: [`encode_record`] and
//! [`decode_record`] are its one writer and one reader, for the store and
//! for the soundness audit's forged records alike.
//!
//! # Integrity and trust model
//!
//! Every record is an [`ir::codec::seal`]ed container (magic, payload,
//! and a trailing [`ir::codec::digest128_bytes`], the framing `cert-v3`
//! uses too) behind a frame that stores its length with the length's
//! complement. A corrupt or foreign record is **rejected individually**;
//! damage that breaks a frame (a torn tail, appended garbage, a flipped
//! length) is one rejected span, and the loader resumes at the next
//! well-framed record. The load cuts what it rejected out of the file, so
//! each rejection is counted once, and the pipeline recomputes it: damage
//! degrades one warm start, never verdicts. The digest defends against
//! accidental corruption, not an adversary with write access to the
//! directory. At check time the store vouches for nothing: its theorems
//! are rebuilt without validation and nothing records them as checked, so
//! `Session::check_all_report` (`--check`) validates every node of a
//! warm-started output like a cold one's. Proof certificates
//! (`kernel::cert`) are the transport that revalidates on load.
//!
//! Version skew is safe twice over. The header records the store version
//! (`META_MAGIC`, bumped whenever what a key digest covers or what a
//! segment holds changes: `ACRSTOR5` keys hash a function's typed AST
//! alone and no signature table, and the segment holds artifact records
//! only; `ACRSTOR6` records write each distinct Simpl statement and
//! word-abstraction context once per record) and
//! probes of the digest schemes (the codec's FNV construction and
//! `DefaultHasher`, whose fixed SipHash key may change between Rust
//! releases). A mismatch, or an older build's per-file layout (`meta`,
//! `replay.bin`, `artifacts/`), loads the directory as a cold start with
//! one diagnostic, and the load empties the segment and removes the old
//! files, so no dead record is decoded again. And even if a probe missed,
//! a stale key digest never equals one computed under another scheme:
//! lookups miss and recompute.
//!
//! # Concurrency
//!
//! Loads and saves hold an exclusive [`File::lock`] on the segment. A save
//! appends only the records its process has not seen on disk, in one
//! write and one `sync_data`, so processes sharing a directory keep each
//! other's work; a save with nothing new touches nothing.

use std::collections::{HashMap, HashSet};
use std::fs::{File, OpenOptions};
use std::io::{self, Read as _, Write as _};
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

use ir::codec::{digest128, digest128_bytes, seal, unseal, Codec, DecodeError, Decoder, Encoder};
use ir::diag::{Diag, DiagKind};
use ir::sched::{par_map, plan_workers, MIN_TASK_COST};

use crate::phase::{
    AbsintFn, AdaptedFn, Artifact, ArtifactKey, ArtifactStore, PhaseArtifact, PHASES,
};

/// Magic + version of the segment header.
const META_MAGIC: &[u8; 8] = b"ACRSTOR6";
/// Magic + version of one artifact record.
const ART_MAGIC: &[u8; 8] = b"ACRSART2";
/// The segment's file name in the cache directory.
pub const SEGMENT: &str = "segment";
/// Bytes of a record's frame: the sealed record's length and that
/// length's complement, so a damaged length is caught before it misplaces
/// the records after it.
const FRAME: usize = 16;

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
/// the phase input digests. `DefaultHasher::new()` is SipHash
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

/// The segment header: the store version and both scheme probes.
fn header() -> Vec<u8> {
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
    /// Artifact records accepted into the session store.
    pub artifacts: usize,
    /// Records or damaged spans rejected (corrupt, truncated, foreign) —
    /// each falls back to recomputation.
    pub rejected: usize,
    /// The whole directory was skipped because its header did not match
    /// this build's format/digest schemes, or an older build's per-file
    /// layout was found.
    pub version_skew: bool,
    /// Non-fatal diagnostics (rejections, skew) for the caller to surface.
    pub warnings: Vec<Diag>,
}

/// A disk-backed mirror of the session's artifact store. See the module
/// docs.
pub struct DiskStore {
    dir: PathBuf,
    /// The artifact keys known to be in the segment, filled by the load
    /// and by every save: a save appends the rest.
    on_disk: Mutex<HashSet<ArtifactKey>>,
}

/// One decoded artifact record: its phase, function and artifact.
pub type Record = (&'static str, String, Arc<PhaseArtifact>);

impl DiskStore {
    /// Opens (creating if needed) a cache directory.
    ///
    /// # Errors
    ///
    /// Filesystem errors creating the directory.
    pub fn open(dir: &Path) -> io::Result<DiskStore> {
        std::fs::create_dir_all(dir)?;
        Ok(DiskStore {
            dir: dir.to_path_buf(),
            on_disk: Mutex::default(),
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

    /// The segment, opened for reading and appending and locked until the
    /// returned handle is dropped.
    fn lock_segment(&self) -> io::Result<File> {
        let file = OpenOptions::new()
            .read(true)
            .append(true)
            .create(true)
            .open(self.dir.join(SEGMENT))?;
        file.lock()?;
        Ok(file)
    }

    /// Loads every valid record into the session store, decoding at the
    /// width [`plan_workers`] grants `workers`, and heals the segment.
    /// Never fails: anything unreadable or invalid is counted in
    /// [`LoadReport::rejected`] and recomputed by the pipeline instead.
    pub fn load_into(&self, store: &ArtifactStore, workers: usize) -> LoadReport {
        let mut rep = LoadReport::default();
        let dir = self.dir.display();
        let keys = &mut *self.on_disk.lock().expect("disk store poisoned");
        let mut load = || -> io::Result<()> {
            // An older build's per-file layout always has `meta`.
            let legacy = std::fs::remove_file(self.dir.join("meta")).is_ok();
            if legacy {
                let _ = std::fs::remove_file(self.dir.join("replay.bin"));
                let _ = std::fs::remove_dir_all(self.dir.join("artifacts"));
            }
            let mut file = self.lock_segment()?;
            let mut bytes = Vec::new();
            file.read_to_end(&mut bytes)?;
            if legacy || !(bytes.is_empty() || bytes.starts_with(&header())) {
                rep.version_skew = true;
                rep.warnings.push(Self::warn(format!(
                    "cache {dir}: format or digest-scheme mismatch (written by a \
                     different build?); cleared, starting cold"
                )));
                return file.set_len(0);
            }
            // Where the first rejected span starts, and the records after
            // it that are kept.
            let (mut cut, mut kept) = (None, Vec::new());
            for (range, record) in decode_spans(&bytes, workers) {
                let Some((phase, name, artifact)) = record else {
                    rep.rejected += 1;
                    cut.get_or_insert(range.start);
                    continue;
                };
                keys.insert((phase, name.clone(), artifact.digest));
                store.preload(phase, &name, artifact);
                rep.artifacts += 1;
                if cut.is_some() {
                    kept.extend_from_slice(&bytes[range]);
                }
            }
            // Cut the rejected spans out (a torn tail is a pure
            // truncation): the save after the recomputation appends their
            // contents afresh.
            if let Some(at) = cut {
                file.set_len(at as u64)?;
                file.write_all(&kept)?;
                file.sync_data()?;
            }
            Ok(())
        };
        if let Err(e) = load() {
            rep.warnings.push(Self::warn(format!(
                "cache {dir}: segment unreadable ({e}); starting cold"
            )));
        }
        if rep.rejected > 0 {
            rep.warnings.push(Self::warn(format!(
                "cache {dir}: rejected {} corrupt or foreign record{} (removed; recomputing)",
                rep.rejected,
                if rep.rejected == 1 { "" } else { "s" }
            )));
        }
        rep
    }

    /// Appends the session store's new contents to the segment: every
    /// artifact not yet on disk, encoded at the width [`plan_workers`]
    /// grants `workers`, in one write and one `sync_data`. A session with
    /// nothing new writes nothing.
    ///
    /// # Errors
    ///
    /// Filesystem errors; a partly written append is a torn tail, which
    /// the next load cuts off.
    pub fn save(&self, store: &ArtifactStore, workers: usize) -> io::Result<()> {
        let keys = &mut *self.on_disk.lock().expect("disk store poisoned");
        // Everything on disk was loaded into (or saved from) the store,
        // which never forgets an entry: equal counts mean nothing is new.
        if store.len() == keys.len() {
            return Ok(());
        }
        let mut entries = store.entries();
        entries.retain(|(key, _)| !keys.contains(key));
        let width = plan_workers(workers, entries.len() as u64 * MIN_TASK_COST, false);
        let (mut records, _) = par_map(&entries, width, |_, ((phase, name, _), artifact)| {
            encode_record(phase, name, artifact)
        });
        let mut file = self.lock_segment()?;
        if file.metadata()?.len() == 0 {
            records.insert(0, header());
        }
        file.write_all(&records.concat())?;
        file.sync_data()?;
        keys.extend(entries.into_iter().map(|(key, _)| key));
        Ok(())
    }
}

/// A segment's spans after the header, in file order, each with its
/// record if it decodes: the records of [`frames`], decoded at the width
/// [`plan_workers`] grants `workers`, and the damage between them.
///
/// A well-framed record that does not decode may have been cut short, its
/// frame swallowing the head of the next record; then the span ends at
/// the first well-framed record inside it and framing resumes there, so
/// the cut costs one rejection. Decoding is pure per record (the interner
/// is sharded and thread-safe), so it fans out, and no record is decoded
/// twice; a clean segment is framed and decoded once. A decode that panics
/// rejects its own record only.
fn decode_spans(bytes: &[u8], workers: usize) -> Vec<(Range<usize>, Option<Record>)> {
    let mut spans = Vec::new();
    let mut decoded: HashMap<usize, Option<Record>> = HashMap::new();
    let mut pos = header().len();
    'scan: loop {
        let frames = frames_from(bytes, pos);
        let todo: Vec<Range<usize>> = frames
            .iter()
            .filter_map(|frame| frame.clone().ok())
            .filter(|range| !decoded.contains_key(&range.start))
            .collect();
        let cost = todo.len() as u64 * MIN_TASK_COST;
        let (records, _) = par_map(&todo, plan_workers(workers, cost, false), |_, range| {
            let record = &bytes[range.clone()];
            std::panic::catch_unwind(|| decode_record(record).ok())
                .ok()
                .flatten()
        });
        decoded.extend(todo.iter().map(|range| range.start).zip(records));
        for frame in frames {
            let range = match frame {
                Ok(range) => range,
                Err(damage) => {
                    spans.push((damage, None));
                    continue;
                }
            };
            let record = decoded.remove(&range.start).flatten();
            if record.is_none() {
                let inner = (range.start + 1..range.end).find(|&at| frame_end(bytes, at).is_some());
                if let Some(at) = inner {
                    spans.push((range.start..at, None));
                    pos = at;
                    continue 'scan;
                }
            }
            spans.push((range, record));
        }
        return spans;
    }
}

/// Splits a segment's records after the header into byte spans: `Ok` for
/// a well-framed record (frame included), `Err` for damage — a torn tail,
/// garbage, a record whose frame broke — which ends at the next
/// well-framed record, so it costs one rejection.
#[must_use]
pub fn frames(bytes: &[u8]) -> Vec<Result<Range<usize>, Range<usize>>> {
    frames_from(bytes, header().len())
}

/// [`frames`] from byte `pos` on.
fn frames_from(bytes: &[u8], mut pos: usize) -> Vec<Result<Range<usize>, Range<usize>>> {
    let mut out = Vec::new();
    let mut damage = None;
    while pos < bytes.len() {
        let Some(end) = frame_end(bytes, pos) else {
            damage.get_or_insert(pos);
            pos += 1;
            continue;
        };
        out.extend(damage.take().map(|start| Err(start..pos)));
        out.push(Ok(pos..end));
        pos = end;
    }
    out.extend(damage.map(|start| Err(start..pos)));
    out
}

/// The end of the record framed at `pos`: its length and complement
/// agree, it fits in `bytes`, and it opens with a record magic.
fn frame_end(bytes: &[u8], pos: usize) -> Option<usize> {
    let word = |at: usize| Some(u64::from_le_bytes(bytes.get(at..at + 8)?.try_into().ok()?));
    let len = word(pos)?;
    if word(pos + 8)? != !len {
        return None;
    }
    let end = pos
        .checked_add(FRAME)?
        .checked_add(usize::try_from(len).ok()?)?;
    bytes
        .get(pos + FRAME..end)?
        .starts_with(ART_MAGIC)
        .then_some(end)
}

/// One record: what `write` encodes, sealed under the record magic,
/// behind its frame.
fn record(write: impl FnOnce(&mut Encoder)) -> Vec<u8> {
    let mut e = Encoder::new();
    write(&mut e);
    let sealed = seal(ART_MAGIC, &e.finish());
    let len = sealed.len() as u64;
    [&len.to_le_bytes()[..], &(!len).to_le_bytes(), &sealed].concat()
}

/// The framed, sealed segment record of `phase`'s artifact for the
/// function `name`, as [`DiskStore::save`] appends it.
#[must_use]
pub fn encode_record(phase: &str, name: &str, artifact: &PhaseArtifact) -> Vec<u8> {
    record(|e| {
        e.str(phase);
        e.str(name);
        e.u128_fixed(artifact.digest);
        artifact.value.encode(e);
    })
}

/// Reads one record of a segment, frame included (a span [`frames`]
/// returns), as [`DiskStore::load_into`] does: its phase, function and
/// artifact.
///
/// # Errors
///
/// A broken frame, a foreign magic, a digest mismatch, an unknown phase,
/// an undecodable artifact or trailing bytes.
pub fn decode_record(record: &[u8]) -> Result<Record, DecodeError> {
    if frame_end(record, 0) != Some(record.len()) {
        return Err(DecodeError("broken record frame".into()));
    }
    let mut d = Decoder::new(unseal(ART_MAGIC, &record[FRAME..])?);
    let phase_name = d.str()?;
    // The store key's phase component is `&'static str`; a record naming
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
    Ok((phase, name, Arc::new(PhaseArtifact { digest, value })))
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

    /// A cold, checked run of `SRC` into `dir`: its WA output.
    fn cold(dir: &Path) -> String {
        let sess = Session::new(opts(dir));
        let out = sess.translate(SRC).expect("translate");
        sess.check_all_report(&out, 1).expect("check");
        out.wa.function("inc").unwrap().to_string()
    }

    fn warm(sess: &Session) -> String {
        sess.translate(SRC)
            .expect("translate")
            .wa
            .function("inc")
            .unwrap()
            .to_string()
    }

    fn segment(dir: &Path) -> Vec<u8> {
        std::fs::read(dir.join(SEGMENT)).unwrap()
    }

    fn records(bytes: &[u8]) -> Vec<Range<usize>> {
        frames(bytes)
            .into_iter()
            .map(|f| f.expect("a clean segment"))
            .collect()
    }

    /// An `l2` artifact of a function `inc` whose body fails.
    fn fail_fn() -> PhaseArtifact {
        PhaseArtifact {
            digest: 42,
            value: Artifact::L2Fn(MonadicFn {
                name: "inc".into(),
                params: vec![],
                ret_ty: ir::ty::Ty::Unit,
                frame: None,
                body: monadic::Prog::Fail,
            }),
        }
    }

    /// Which variant `a` is, telling a theorem's absence apart.
    fn shape(a: &Artifact) -> &'static str {
        match a {
            Artifact::L1 { .. } => "l1",
            Artifact::L2Fn(_) => "l2",
            Artifact::L2Thm(_) => "l2thm",
            Artifact::Hl { thm: Some(_), .. } => "hl",
            Artifact::Hl { thm: None, .. } => "hl, concrete",
            Artifact::Wa { thm: Some(_), .. } => "wa",
            Artifact::Wa { thm: None, .. } => "wa, not selected",
            Artifact::Adapt(Some(_)) => "adapt",
            Artifact::Adapt(None) => "adapt, nothing to adapt",
            Artifact::Absint(_) => "absint",
        }
    }

    #[test]
    fn records_round_trip_every_artifact_variant() {
        let dir = tmpdir("variants");
        // `twice` is kept concrete, so it is neither heap- nor
        // word-abstracted, and its calls of the abstracted `inc` are
        // adapted.
        let src = format!("{SRC}\nunsigned twice(unsigned x) {{ return inc(inc(x)); }}");
        let opts = Options {
            concrete_fns: ["twice".to_owned()].into(),
            ..opts(&dir)
        };
        let out = Session::new(opts).translate(&src).expect("translate");
        let mut known: HashSet<&kernel::Thm> = out.thms.iter().map(|(_, _, t)| t).collect();
        known.extend(out.absint.values().flat_map(|a| a.thms.iter().map(|(_, t)| t)));
        let bytes = segment(&dir);
        let mut shapes = HashSet::new();
        for span in records(&bytes) {
            let (phase, name, artifact) = decode_record(&bytes[span.clone()]).expect("decodes");
            assert_eq!(encode_record(phase, &name, &artifact), bytes[span]);
            for thm in artifact.value.theorems() {
                assert!(known.contains(thm), "{phase} {name}: not the output's theorem");
            }
            shapes.insert(shape(&artifact.value));
        }
        let mut shapes: Vec<_> = shapes.into_iter().collect();
        shapes.sort_unstable();
        assert_eq!(
            shapes,
            [
                "absint",
                "adapt",
                "adapt, nothing to adapt",
                "hl",
                "hl, concrete",
                "l1",
                "l2",
                "l2thm",
                "wa",
                "wa, not selected"
            ]
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_damaged_record_is_rejected_and_its_neighbours_are_not() {
        let good = encode_record("l2", "inc", &fail_fn());
        assert!(decode_record(&good).is_ok());
        let foreign = {
            let mut r = good.clone();
            let sealed = seal(b"ACRSART1", unseal(ART_MAGIC, &r[FRAME..]).unwrap());
            r.splice(FRAME.., sealed);
            r
        };
        // A foreign magic, and a flipped bit anywhere: in the frame (which
        // breaks it), the magic, the payload or its digest.
        let mut damaged = vec![foreign];
        for i in 0..good.len() {
            let mut r = good.clone();
            r[i] ^= 0x10;
            damaged.push(r);
        }
        for bad in damaged {
            assert!(decode_record(&bad).is_err());
            // Between two good records, the damage costs itself alone.
            let segment = [header(), good.clone(), bad, good.clone()].concat();
            let decoded: Vec<bool> = frames(&segment)
                .into_iter()
                .map(|span| span.is_ok_and(|r| decode_record(&segment[r]).is_ok()))
                .collect();
            assert_eq!(decoded, [true, false, true]);
        }
        // A record cut short is a torn tail.
        for cut in 0..good.len() {
            assert!(decode_record(&good[..cut]).is_err());
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
    fn saves_append_only_new_records() {
        let dir = tmpdir("append");
        const OTHER: &str = "unsigned dec(unsigned x) { return x - 1u; }";
        // Two sessions load the empty directory before either saves, as
        // two processes started together do: the second save appends
        // behind the first's records and keeps every earlier byte.
        let (a, b) = (Session::new(opts(&dir)), Session::new(opts(&dir)));
        let clean = warm(&a);
        let first = segment(&dir);
        assert!(first.starts_with(&header()));
        b.translate(OTHER).expect("translate");
        let out = b.translate(SRC).expect("translate");
        let second = segment(&dir);
        assert!(second.starts_with(&first), "a save rewrote earlier records");
        // A check persists nothing: the segment holds artifacts only.
        b.check_all_report(&out, 1).expect("check");
        drop((a, b));
        assert!(segment(&dir) == second, "a check wrote to the store");
        // Each program warm-starts from the directory alone.
        let sess = Session::new(opts(&dir));
        assert_eq!(sess.load_report().rejected, 0);
        assert_eq!(sess.load_report().artifacts, records(&second).len());
        assert_eq!(warm(&sess), clean);
        let out = sess.translate(OTHER).expect("translate");
        assert_eq!(out.stats.dirty_fns, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_entries_are_rejected_individually() {
        let dir = tmpdir("corrupt");
        let clean = cold(&dir);
        let orig = segment(&dir);
        let total = Session::new(opts(&dir)).load_report().artifacts;
        // Flip one byte in the middle of every record in turn: each load
        // must reject that record alone, keep the others, and still
        // translate to the same bytes.
        for span in records(&orig) {
            let mut bad = orig.clone();
            bad[(span.start + span.end) / 2] ^= 0x01;
            std::fs::write(dir.join(SEGMENT), &bad).unwrap();
            let sess = Session::new(opts(&dir));
            let rep = sess.load_report();
            assert_eq!(rep.rejected, 1, "{span:?}");
            assert_eq!(rep.artifacts, total - 1, "{span:?}");
            assert_eq!(warm(&sess), clean);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn rejected_records_are_removed_and_rewritten() {
        let dir = tmpdir("rewrite");
        cold(&dir);
        let mut bytes = segment(&dir);
        let span = records(&bytes)[0].clone();
        bytes[(span.start + span.end) / 2] ^= 0x01;
        std::fs::write(dir.join(SEGMENT), &bytes).unwrap();
        {
            let sess = Session::new(opts(&dir));
            assert_eq!(sess.load_report().rejected, 1);
            assert!(sess.translate(SRC).expect("translate").stats.dirty_fns > 0);
        }
        // The load cut the rejected record; the save appended it afresh.
        let sess = Session::new(opts(&dir));
        assert_eq!(sess.load_report().rejected, 0);
        assert_eq!(sess.translate(SRC).expect("translate").stats.dirty_fns, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tails_cost_one_record() {
        let dir = tmpdir("torn");
        let clean = {
            let sess = Session::new(opts(&dir));
            sess.translate(SRC)
                .expect("translate")
                .wa
                .function("inc")
                .unwrap()
                .to_string()
        };
        let orig = segment(&dir);
        let last = records(&orig).pop().unwrap();
        let total = records(&orig).len();
        let garbage = [&orig[..], b"\x07 not a record \xff\xff\xff\xff"].concat();
        // A save cut short anywhere inside its last record, and garbage
        // after the last record: every earlier record loads, the damage
        // is one rejection that the load cuts off, the output is
        // unchanged, and the next load finds a clean segment.
        let torn = (last.start + 1..last.end).map(|cut| (&orig[..cut], last.start, 1));
        for (bytes, kept, lost) in torn.chain([(&garbage[..], orig.len(), 0)]) {
            std::fs::write(dir.join(SEGMENT), bytes).unwrap();
            let sess = Session::new(opts(&dir));
            let rep = sess.load_report();
            assert_eq!(
                (rep.rejected, rep.artifacts),
                (1, total - lost),
                "{}",
                bytes.len()
            );
            assert_eq!(segment(&dir), orig[..kept], "{}", bytes.len());
            assert_eq!(warm(&sess), clean);
            drop(sess);
            let rep = Session::new(opts(&dir)).load_report().clone();
            assert_eq!((rep.rejected, rep.artifacts), (0, total), "{}", bytes.len());
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_record_cut_short_mid_segment_costs_one_rejection() {
        let dir = tmpdir("cut");
        let src = format!("{SRC}\nunsigned dec(unsigned x) {{ return x - 1u; }}");
        let translate = |sess: &Session| {
            let out = sess.translate(&src).expect("translate");
            out.wa
                .fns
                .values()
                .map(ToString::to_string)
                .collect::<String>()
        };
        let clean = translate(&Session::new(opts(&dir)));
        let orig = segment(&dir);
        let spans = records(&orig);
        let total = spans.len();
        // An interior record loses its last `cut` bytes. Its frame still
        // agrees, so the span it claims runs into the next record: the
        // load must resume at that record, not inside it.
        for victim in [&spans[1], &spans[total / 2]] {
            for cut in 1..=24 {
                let bytes = [&orig[..victim.end - cut], &orig[victim.end..]].concat();
                std::fs::write(dir.join(SEGMENT), bytes).unwrap();
                let sess = Session::new(opts(&dir));
                let rep = sess.load_report();
                assert_eq!(
                    (rep.rejected, rep.artifacts),
                    (1, total - 1),
                    "{victim:?} cut {cut}"
                );
                assert_eq!(translate(&sess), clean);
                drop(sess);
                let rep = Session::new(opts(&dir)).load_report().clone();
                assert_eq!(
                    (rep.rejected, rep.artifacts),
                    (0, total),
                    "{victim:?} cut {cut}"
                );
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_warm_start_that_computes_nothing_writes_nothing() {
        let dir = tmpdir("nowrite");
        cold(&dir);
        let stamp = || {
            let path = dir.join(SEGMENT);
            let modified = std::fs::metadata(&path).unwrap().modified().unwrap();
            (std::fs::read(&path).unwrap(), modified)
        };
        let before = stamp();
        // Filesystem clocks can be coarse: leave time for a rewrite to show.
        std::thread::sleep(std::time::Duration::from_millis(20));
        let sess = Session::new(opts(&dir));
        let out = sess.translate(SRC).expect("translate");
        assert_eq!(out.stats.dirty_fns, 0);
        // The warm check validates every node, as a check without a cache
        // directory does.
        let warm = sess.check_all_report(&out, 1).expect("check");
        let in_memory = Session::new(Options {
            cache_dir: None,
            ..opts(&dir)
        });
        let cold = in_memory.translate(SRC).expect("translate");
        let cold = in_memory.check_all_report(&cold, 1).expect("check");
        assert!(warm.cache_misses > 0);
        assert_eq!(warm.cache_misses, cold.cache_misses);
        assert!(stamp() == before, "a warm start rewrote the store");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn version_skew_and_garbage_degrade_to_cold_start() {
        let dir = tmpdir("skew");
        cold(&dir);
        let live = Session::new(opts(&dir)).load_report().artifacts;
        // Two well-sealed records that decode to nothing among the others:
        // rejected, not fatal.
        let mut bytes = segment(&dir);
        let at = records(&bytes)[1].start;
        let foreign = [
            record(|e| e.str("not an artifact")),
            record(|_| {}),
        ]
        .concat();
        bytes.splice(at..at, foreign);
        std::fs::write(dir.join(SEGMENT), &bytes).unwrap();
        {
            let sess = Session::new(opts(&dir));
            assert_eq!(sess.load_report().rejected, 2);
            assert_eq!(sess.load_report().artifacts, live);
            assert_eq!(sess.translate(SRC).expect("translate").stats.dirty_fns, 0);
        }
        // Version-skewed header: the whole directory loads cold, with one
        // warning, and the load empties the segment; the next save
        // rewrites the header and exactly this build's records.
        let mut bytes = segment(&dir);
        bytes[9] ^= 0xff;
        std::fs::write(dir.join(SEGMENT), &bytes).unwrap();
        {
            let sess = Session::new(opts(&dir));
            let rep = sess.load_report();
            assert!(rep.version_skew);
            assert_eq!(rep.artifacts, 0);
            assert_eq!(rep.warnings.len(), 1);
            assert!(
                segment(&dir).is_empty(),
                "a skewed load empties the segment"
            );
            let out = sess.translate(SRC).expect("translate cold");
            assert!(out.stats.dirty_fns > 0);
            assert_eq!(sess.artifacts(), live);
        }
        let sess = Session::new(opts(&dir));
        assert!(!sess.load_report().version_skew);
        assert_eq!(sess.load_report().artifacts, live);
        assert_eq!(sess.load_report().rejected, 0);
        assert_eq!(records(&segment(&dir)).len(), live);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn an_older_builds_directory_loads_cold_and_is_removed() {
        let dir = tmpdir("legacy");
        let clean = cold(&dir);
        // The per-file layout of an older build: `meta`, `replay.bin` and
        // one sealed file per artifact under `artifacts/`.
        let bytes = segment(&dir);
        std::fs::remove_file(dir.join(SEGMENT)).unwrap();
        std::fs::create_dir_all(dir.join("artifacts")).unwrap();
        std::fs::write(dir.join("meta"), header()).unwrap();
        std::fs::write(dir.join("replay.bin"), b"replay digests").unwrap();
        for (i, span) in records(&bytes).iter().enumerate() {
            let sealed = &bytes[span.start + FRAME..span.end];
            std::fs::write(dir.join(format!("artifacts/entry-{i}.bin")), sealed).unwrap();
        }
        {
            let sess = Session::new(opts(&dir));
            let rep = sess.load_report();
            assert!(rep.version_skew);
            assert_eq!((rep.artifacts, rep.warnings.len()), (0, 1));
            for old in ["meta", "replay.bin", "artifacts"] {
                assert!(!dir.join(old).exists(), "{old} survived the load");
            }
            let out = sess.translate(SRC).expect("translate cold");
            assert!(out.stats.dirty_fns > 0);
        }
        let sess = Session::new(opts(&dir));
        assert!(!sess.load_report().version_skew);
        assert_eq!(sess.load_report().rejected, 0);
        assert_eq!(warm(&sess), clean);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unknown_phase_entries_are_rejected() {
        let dir = tmpdir("phase");
        cold(&dir);
        // A self-consistent record (valid frame, magic and digest) naming
        // a phase this build does not know: must be rejected by name, not
        // trusted.
        let l9 = encode_record("l9", "inc", &fail_fn());
        let bytes = [segment(&dir), l9].concat();
        std::fs::write(dir.join(SEGMENT), bytes).unwrap();
        let sess = Session::new(opts(&dir));
        assert_eq!(sess.load_report().rejected, 1);
        assert!(sess.translate(SRC).is_ok());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
