//! Incremental translation sessions.
//!
//! A [`Session`] owns two caches that outlive a single `translate` call:
//!
//! * the **artifact store** ([`crate::phase::ArtifactStore`]), mapping
//!   `(phase, function, input_digest)` to the phase artifact produced the
//!   last time those exact inputs were seen, and
//! * a **replay cache** ([`kernel::ReplayCache`]), remembering which proof
//!   nodes the independent checker already validated, by node identity
//!   (theorems are hash-consed, so a node shared by several theorems is
//!   one node).
//!
//! Translating edited source through the same session therefore re-runs
//! only the *dirty cone*: the edited function in every phase, plus its
//! transitive callers in the exec-testing phases (whose differential tests
//! execute calls, so their input digests cover the callee cone). Function
//! digests are position-free, so the functions the edit merely moved (a
//! longer body above them, a comment, blank lines) are not in the cone.
//! Everything else is answered from the store — and because every phase
//! job is a deterministic pure function of exactly its digested inputs,
//! the output is byte-identical to a from-scratch run. Scheduling is
//! equally invisible: the work-stealing phase executor (see
//! [`crate::phase`]) keys nothing into the digests, so the same session
//! produces the same bytes at any worker count. Likewise
//! [`Session::check_all_report`] validates only the proof nodes this
//! session's replay cache has not seen validated, each exactly once at any
//! worker count.
//!
//! With [`Options::cache_dir`] set, the artifact store additionally
//! persists to disk through a [`DiskStore`] (DESIGN.md §6g):
//! `Session::new` preloads every valid on-disk entry, decoded at the width
//! [`Options::workers`] is granted — so a *fresh process* warm-starts its
//! translation exactly like a long-lived session — and each successful
//! `translate` that added an artifact writes the new ones back,
//! best-effort. The replay cache never persists: a fresh process's check
//! validates every node it replays. Disk problems never fail a
//! translation; they surface as [`LoadReport`] warnings and degrade to
//! recomputation.
//!
//! ```
//! use autocorres::{Options, Session};
//! let sess = Session::new(Options::default());
//! let out1 = sess.translate("int one(void) { return 1; }").unwrap();
//! let out2 = sess.translate("int one(void) { return 1; }").unwrap();
//! assert_eq!(out2.stats.dirty_fns, 0); // nothing changed: full cache hit
//! assert_eq!(out1.wa.function("one").unwrap().to_string(),
//!            out2.wa.function("one").unwrap().to_string());
//! // Moving the function down the file changes no digest either.
//! let out3 = sess.translate("/* moved */\n\nint one(void) { return 1; }").unwrap();
//! assert_eq!(out3.stats.dirty_fns, 0);
//! ```

use ir::diag::Diag;
use kernel::{KernelError, ReplayCache, ReplayReport};

use crate::phase::{run_pipeline, ArtifactStore};
use crate::pipeline::{Options, Output};
use crate::store::{DiskStore, LoadReport};

/// A translation session: pipeline options plus the cross-run caches.
pub struct Session {
    opts: Options,
    store: ArtifactStore,
    replay: ReplayCache,
    /// The disk mirror, when `opts.cache_dir` was set and usable.
    disk: Option<DiskStore>,
    /// What `Session::new` found on disk (empty default without a disk).
    load: LoadReport,
}

impl Session {
    /// Creates a session with empty caches — or, when
    /// [`Options::cache_dir`] is set, caches preloaded from that
    /// directory's [`DiskStore`]. An unusable directory (not creatable)
    /// or invalid contents degrade to empty caches with
    /// [`Session::load_report`] warnings, never an error.
    #[must_use]
    pub fn new(opts: Options) -> Session {
        let store = ArtifactStore::new();
        let replay = ReplayCache::new();
        let mut load = LoadReport::default();
        let disk = match &opts.cache_dir {
            None => None,
            Some(dir) => match DiskStore::open(dir) {
                Ok(d) => {
                    load = d.load_into(&store, opts.workers);
                    Some(d)
                }
                Err(e) => {
                    load.warnings.push(Diag::new(
                        ir::diag::Phase::Kernel,
                        ir::diag::DiagKind::Lint,
                        format!("cache {}: unusable ({e}); persistence disabled", dir.display()),
                    ));
                    None
                }
            },
        };
        Session {
            opts,
            store,
            replay,
            disk,
            load,
        }
    }

    /// The options every translation in this session runs with.
    #[must_use]
    pub fn options(&self) -> &Options {
        &self.opts
    }

    /// Number of artifacts currently held by the session store.
    #[must_use]
    pub fn artifacts(&self) -> usize {
        self.store.len()
    }

    /// What `Session::new` loaded (or failed to load) from the disk
    /// store. Default-empty when no `cache_dir` was configured.
    #[must_use]
    pub fn load_report(&self) -> &LoadReport {
        &self.load
    }

    /// Appends the artifacts the disk store does not hold yet; with none,
    /// writes nothing. Called automatically
    /// (best-effort, errors swallowed) after successful translations; call
    /// explicitly when a write failure must surface.
    ///
    /// # Errors
    ///
    /// Filesystem errors, or a no-op `Ok` without a `cache_dir`.
    pub fn persist(&self) -> std::io::Result<()> {
        match &self.disk {
            Some(disk) => disk.save(&self.store, self.opts.workers),
            None => Ok(()),
        }
    }

    /// Translates C source, reusing unchanged per-function artifacts from
    /// earlier runs of this session (and, with a cache dir, earlier
    /// processes).
    ///
    /// # Errors
    ///
    /// The first failing phase's diagnostic, in the same phase/function
    /// order as a from-scratch run.
    pub fn translate(&self, src: &str) -> Result<Output, Diag> {
        let typed = cparser::parse_and_check(src)?;
        self.translate_program(&typed)
    }

    /// Translates an already-typechecked program (see [`Session::translate`]).
    ///
    /// # Errors
    ///
    /// As for [`Session::translate`].
    pub fn translate_program(&self, typed: &cparser::TProgram) -> Result<Output, Diag> {
        let out = run_pipeline(typed, &self.opts, &self.store)?;
        let _ = self.persist();
        Ok(out)
    }

    /// Replays `out`'s theorems through the independent checker, skipping
    /// proof nodes this session already validated under the same checking
    /// context (the reported `cache_hits`/`cache_misses` cover this call
    /// only, at any `workers`). Persists nothing.
    ///
    /// # Errors
    ///
    /// The failing function name and kernel error, first in theorem order.
    pub fn check_all_report(
        &self,
        out: &Output,
        workers: usize,
    ) -> Result<ReplayReport, (String, KernelError)> {
        kernel::check_all_with(
            out.thms.iter().map(|(_, n, t)| (n, t)),
            &out.check_ctx,
            workers,
            &self.replay,
        )
    }
}
