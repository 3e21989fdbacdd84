//! Disk-resident persistence for M*(k)-index snapshots.
//!
//! The paper closes (§6) with: *"We are currently studying how to make the
//! M\*(k)-index I/O-efficient by turning it into a disk-resident structure
//! that can be loaded into memory selectively and incrementally during
//! query processing."* This crate implements that design point in two
//! `.mrx` layouts, both versioned and checksummed:
//!
//! * **compressed (v5)** ([`save_compressed`], [`load_compressed`],
//!   [`CompressedFile`]): the data graph plus every component, with every
//!   sorted id list stored as encoding-tagged posting blocks. Components
//!   load lazily — a top-down query of length `j` touches only `I0..Ij` —
//!   into the resident `CompressedIndex` form, which serves straight from
//!   the compressed extents. See [`compressed`] for the byte layout.
//! * **demand-paged (v9)** ([`save_paged`], [`PagedFile`]): only the graph
//!   core and small per-component meta sections (which carry the subnode
//!   links between components) load eagerly, while extents are served
//!   through a budgeted page cache with per-page checksums — cold start is
//!   near-zero and the resident set is capped, at the price of page faults
//!   on first touch. Each distinct extent is stored once: a sole subnode
//!   reads its supernode's list. The graph and the metas are stored in a
//!   compact row codec, one adjacency direction each; the mirror halves
//!   are derived on load.
//!   See [`paged`] for the layout and the (degradation-free) failure model.
//!
//! [`snapshot_version`] peeks a file's layout so callers can dispatch, and
//! [`open_validated`] loads and fully validates either one for serving.
//! Files in the retired layouts (versions 1–4 and 6–8) are refused with
//! [`StoreError::Retired`].
//!
//! Neither file answers queries itself. Each loads the prefix a query
//! needs ([`CompressedFile::activate`], [`PagedFile::activate`]) and hands
//! it to [`mrx_index::QuerySession`], the one serving path:
//!
//! ```no_run
//! use mrx_index::{QuerySession, TrustPolicy};
//! use mrx_store::{save_paged, PagedFile};
//! # let g = mrx_graph::xml::parse("<a/>").unwrap();
//! # let idx = mrx_index::MStarIndex::new(&g);
//! let fg = mrx_graph::FrozenGraph::freeze(&g);
//! save_paged("auctions.mrx", &fg, &idx.freeze_compressed())?;
//!
//! let mut file = PagedFile::open("auctions.mrx")?;
//! let q = mrx_path::PathExpr::parse("//a").unwrap();
//! let (graph, star) = file.activate(&q)?;       // activates only I0
//! let mut session = QuerySession::new(TrustPolicy::Proven);
//! let ans = session.serve(star, graph, &q)?;
//! println!("{} answers", ans.nodes.len());
//! assert_eq!(file.loaded_components(), vec![0]);
//! # Ok::<(), mrx_error::MrxError>(())
//! ```

#![forbid(unsafe_code)]

pub mod compressed;
pub mod fault;
mod format;
mod lazy_graph;
pub mod paged;
pub mod validate;
mod wire;

pub use compressed::{
    load_compressed, load_compressed_from, save_compressed, save_compressed_to, snapshot_version,
    CompressedFile,
};
pub use format::{StoreError, VERSION_COMPRESSED, VERSION_PAGED};
pub use lazy_graph::LazyGraph;
pub use paged::{paged_image, save_paged, save_paged_with, PagedFile, PagedSections};
pub use validate::{open_validated, SnapshotPayload, ValidatedSnapshot};
