//! Swap-safe snapshot opening: one entry point that loads **and fully
//! validates** a `.mrx` snapshot of either layout before a byte of it is
//! served.
//!
//! A long-running server that hot-swaps snapshots must never fence in a
//! file it has not proven sound: a torn write, a truncated upload, or a
//! bit flip discovered *after* the swap would take down every tenant at
//! once. [`open_validated`] therefore front-loads every check the lazy
//! readers normally spread over the file's lifetime:
//!
//! * **framing + checksums** — every section is read and verified (for the
//!   demand-paged layouts this means faulting and verifying every page via
//!   [`PagedFile::verify`], plus materializing every lazy graph unit);
//! * **structural validation** — each loader checks every byte it reads
//!   exactly once as it decodes it: the graph passes
//!   `FrozenGraph::validate`, and every component passes
//!   [`mrx_index::SnapshotIndex::assemble`], the one check both layouts
//!   share (the compressed reader first proves by inversion that its
//!   extents partition the data nodes), so nothing is re-validated here;
//! * **degradation policy** — the compressed (v5) reader can rebuild an
//!   unreadable component as live `A(i)`; `strict` mode refuses such a
//!   file outright (a replacement snapshot should be *pristine*), while
//!   lenient mode accepts it and reports which components were rebuilt.
//!
//! A retired layout (versions 1–4 and 6–8) is refused with
//! [`StoreError::Retired`] before anything else is read.

use std::path::Path;

use mrx_graph::FrozenGraph;
use mrx_index::CompressedMStar;

use crate::compressed::{snapshot_version, CompressedFile};
use crate::format::{StoreError, VERSION_COMPRESSED, VERSION_PAGED};
use crate::paged::PagedFile;

/// A snapshot that passed every check in [`open_validated`], ready to
/// serve.
pub struct ValidatedSnapshot {
    /// The on-disk layout version (5 or 9).
    pub version: u32,
    /// Components rebuilt as live `A(i)` during a lenient load (always
    /// empty under `strict`, and always empty for the paged layouts,
    /// which have no degradation path).
    pub degraded: Vec<usize>,
    /// The loaded payload.
    pub payload: SnapshotPayload,
}

/// The serving form a validated snapshot loads into.
///
/// Built once per snapshot load and destructured straight away, so the
/// size gap between the resident and the (boxed) paged variant costs one
/// move per load, not per query.
#[allow(clippy::large_enum_variant)]
pub enum SnapshotPayload {
    /// Compressed posting arenas (v5), served without decompression.
    Compressed(FrozenGraph, CompressedMStar),
    /// Demand-paged file (v9): every page and graph unit has been
    /// faulted and verified, then released back to the cache budget — the
    /// handle serves through its own page cache.
    Paged(Box<PagedFile>),
}

impl SnapshotPayload {
    /// Short human name for logs and stats.
    pub fn kind(&self) -> &'static str {
        match self {
            SnapshotPayload::Compressed(..) => "compressed",
            SnapshotPayload::Paged(_) => "paged",
        }
    }
}

/// Opens `path`, dispatching on [`snapshot_version`], and validates the
/// whole file (checksums + structure) before returning it. With `strict`
/// set, a file that would only load by degrading components to live
/// `A(i)` is refused — the caller keeps serving whatever it already has.
/// `cache_bytes` is the page-cache budget for the paged layouts (`None`
/// for the default).
pub fn open_validated(
    path: impl AsRef<Path>,
    strict: bool,
    cache_bytes: Option<u64>,
) -> Result<ValidatedSnapshot, StoreError> {
    let path = path.as_ref();
    let version = snapshot_version(path)?;
    match version {
        VERSION_COMPRESSED => {
            let mut file = CompressedFile::open(path)?;
            file.ensure_loaded(file.component_count().saturating_sub(1))?;
            let degraded = file.degraded_components().to_vec();
            refuse_degraded(strict, &degraded)?;
            let (graph, star) = file.into_compressed()?;
            Ok(ValidatedSnapshot {
                version,
                degraded,
                payload: SnapshotPayload::Compressed(graph, star),
            })
        }
        VERSION_PAGED => {
            let mut file = match cache_bytes {
                Some(b) => PagedFile::open_with(path, b)?,
                None => PagedFile::open(path)?,
            };
            // Materialize every component's meta and every lazy graph
            // unit, then sweep every page against its checksum. The paged
            // layout has no degradation path: any failure is a refusal.
            file.ensure_loaded(file.component_count().saturating_sub(1))?;
            file.verify()?;
            Ok(ValidatedSnapshot {
                version,
                degraded: Vec::new(),
                payload: SnapshotPayload::Paged(Box::new(file)),
            })
        }
        other => Err(StoreError::Format(format!(
            "unknown snapshot version {other}"
        ))),
    }
}

fn refuse_degraded(strict: bool, degraded: &[usize]) -> Result<(), StoreError> {
    if strict && !degraded.is_empty() {
        return Err(StoreError::Format(format!(
            "strict validation refused: components {degraded:?} are unreadable \
             (loadable only by degrading to live A(i))"
        )));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use mrx_graph::xml::parse;
    use mrx_index::MStarIndex;
    use mrx_path::PathExpr;

    fn setup() -> (mrx_graph::DataGraph, MStarIndex) {
        let g = parse(
            "<site><people><person><name><last/></name></person></people>
             <forum><poster><name/></poster></forum></site>",
        )
        .unwrap();
        let mut idx = MStarIndex::new(&g);
        idx.refine_for(&g, &PathExpr::parse("//person/name").unwrap());
        (g, idx)
    }

    #[test]
    fn validates_both_layouts_and_refuses_retired_ones() {
        let (g, idx) = setup();
        let fg = FrozenGraph::freeze(&g);
        let cz = idx.freeze_compressed();
        let dir = std::env::temp_dir().join(format!("mrx-validate-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let p5 = dir.join("v5.mrx");
        let p6 = dir.join("v6.mrx");
        crate::save_compressed(&p5, &fg, &cz).unwrap();
        crate::save_paged_with(&p6, &fg, &cz, 1024).unwrap();
        for (p, kind) in [(&p5, "compressed"), (&p6, "paged")] {
            let snap = open_validated(p, true, None).unwrap();
            assert_eq!(snap.payload.kind(), kind);
            assert!(snap.degraded.is_empty());
        }
        // A retired header is refused by name, with a pointer to `mrx freeze`.
        let bytes = std::fs::read(&p5).unwrap();
        for version in crate::format::RETIRED {
            let mut old = bytes.clone();
            old[8..12].copy_from_slice(&version.to_le_bytes());
            let p = dir.join(format!("v{version}.mrx"));
            std::fs::write(&p, &old).unwrap();
            let e = match open_validated(&p, false, None) {
                Err(e) => e,
                Ok(_) => panic!("a v{version} snapshot must be refused"),
            };
            assert!(matches!(e, StoreError::Retired { version: v } if v == version));
            assert!(e.to_string().contains("mrx freeze"), "{e}");
            assert!(matches!(
                snapshot_version(&p),
                Err(StoreError::Retired { .. })
            ));
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn strict_refuses_what_lenient_degrades() {
        let (g, idx) = setup();
        let fg = FrozenGraph::freeze(&g);
        let cz = idx.freeze_compressed();
        let dir = std::env::temp_dir().join(format!("mrx-validate-deg-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let p = dir.join("v5.mrx");
        crate::save_compressed(&p, &fg, &cz).unwrap();
        // Flip one byte near the end of the file: lands in the last
        // component's payload, leaving the header/graph intact.
        let mut bytes = std::fs::read(&p).unwrap();
        let off = bytes.len() - 9;
        bytes[off] ^= 0x40;
        std::fs::write(&p, &bytes).unwrap();
        let err = match open_validated(&p, true, None) {
            Err(e) => e,
            Ok(_) => panic!("strict load of a corrupt snapshot must fail"),
        };
        assert!(
            format!("{err}").contains("strict validation refused"),
            "unexpected error: {err}"
        );
        let snap = open_validated(&p, false, None).unwrap();
        assert!(!snap.degraded.is_empty());
        assert_eq!(snap.payload.kind(), "compressed");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncation_and_garbage_are_refused() {
        let (g, idx) = setup();
        let fg = FrozenGraph::freeze(&g);
        let cz = idx.freeze_compressed();
        let dir = std::env::temp_dir().join(format!("mrx-validate-tr-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let p = dir.join("v6.mrx");
        crate::save_paged_with(&p, &fg, &cz, 1024).unwrap();
        let bytes = std::fs::read(&p).unwrap();
        let torn = dir.join("torn.mrx");
        std::fs::write(&torn, &bytes[..bytes.len() * 3 / 5]).unwrap();
        assert!(open_validated(&torn, true, None).is_err());
        let garbage = dir.join("garbage.mrx");
        std::fs::write(&garbage, b"this is not an mrx snapshot at all").unwrap();
        assert!(open_validated(&garbage, true, None).is_err());
        // A stale/unknown version number is refused before anything loads.
        let mut stale_bytes = bytes.clone();
        stale_bytes[8..12].copy_from_slice(&99u32.to_le_bytes());
        let stale = dir.join("stale.mrx");
        std::fs::write(&stale, &stale_bytes).unwrap();
        assert!(open_validated(&stale, true, None).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
