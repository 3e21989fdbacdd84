//! Workspace-wide error taxonomy.
//!
//! Every layer of the stack has a typed error that lives here, at the bottom
//! of the dependency graph, so any layer can embed any other layer's error
//! without a crate cycle:
//!
//! - [`StoreError`] — `.mrx` loading/saving (re-exported by `mrx-store`)
//! - [`XmlError`] — XML parsing (re-exported by `mrx-graph`)
//! - [`ParsePathError`] — path-expression parsing (re-exported by `mrx-path`)
//! - [`BudgetError`] — query resource-budget exhaustion
//!
//! [`MrxError`] unifies them with one variant per layer. Serving code returns
//! the layer error closest to the failure; API boundaries (CLI, sessions)
//! return `MrxError` so callers match on the layer, not on strings.

#![forbid(unsafe_code)]

use std::error::Error;
use std::fmt;
use std::io;

// ---------------------------------------------------------------------
// Store layer
// ---------------------------------------------------------------------

/// Errors raised by the store (`.mrx` loading and saving).
#[derive(Debug)]
pub enum StoreError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// Structurally invalid file (bad magic, version, counts, ids).
    Format(String),
    /// A snapshot in a retired layout (versions 1–4, 6 and 7): readable only by
    /// re-freezing it from its source document.
    Retired {
        /// The layout version the file's header names.
        version: u32,
    },
    /// A section's checksum did not match its content.
    Checksum {
        /// Which section failed.
        section: String,
    },
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "I/O error: {e}"),
            StoreError::Format(m) => write!(f, "malformed store file: {m}"),
            StoreError::Retired { version } => write!(
                f,
                "snapshot layout v{version} is no longer supported (this build reads v5 and v9); \
                 re-freeze it with `mrx freeze`"
            ),
            StoreError::Checksum { section } => {
                write!(f, "checksum mismatch in section `{section}` (corrupt file)")
            }
        }
    }
}

impl Error for StoreError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            StoreError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for StoreError {
    fn from(e: io::Error) -> Self {
        StoreError::Io(e)
    }
}

// ---------------------------------------------------------------------
// XML layer
// ---------------------------------------------------------------------

/// Error raised while parsing an XML document, with a byte offset and the
/// 1-based line/column it corresponds to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct XmlError {
    /// What went wrong.
    pub message: String,
    /// Byte offset into the input.
    pub offset: usize,
    /// 1-based line.
    pub line: usize,
    /// 1-based column (in bytes).
    pub column: usize,
}

impl fmt::Display for XmlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "XML parse error at line {}, column {}: {}",
            self.line, self.column, self.message
        )
    }
}

impl Error for XmlError {}

// ---------------------------------------------------------------------
// Path layer
// ---------------------------------------------------------------------

/// Error from parsing a path expression.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParsePathError {
    /// The expression was empty or all slashes.
    Empty,
    /// A step between slashes was empty (e.g. `//a//b` or a trailing `/`).
    EmptyStep {
        /// Zero-based index of the offending step.
        position: usize,
    },
    /// The expression did not start with `/` or `//`.
    MissingAxis,
}

impl fmt::Display for ParsePathError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParsePathError::Empty => write!(f, "empty path expression"),
            ParsePathError::EmptyStep { position } => {
                write!(f, "empty step at position {position} (descendant axis `//` is only allowed as a prefix)")
            }
            ParsePathError::MissingAxis => {
                write!(f, "path expression must start with `/` or `//`")
            }
        }
    }
}

impl Error for ParsePathError {}

// ---------------------------------------------------------------------
// Budget layer
// ---------------------------------------------------------------------

/// Which resource limit a query exhausted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BudgetKind {
    /// Node-visit budget (`max_steps`) exceeded.
    Steps,
    /// Result-set cap (`max_result_nodes`) exceeded.
    ResultNodes,
    /// Wall-clock deadline passed.
    Deadline,
    /// Cooperative cancellation flag was raised (another worker tripped).
    Cancelled,
}

impl fmt::Display for BudgetKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BudgetKind::Steps => write!(f, "step budget"),
            BudgetKind::ResultNodes => write!(f, "result-node budget"),
            BudgetKind::Deadline => write!(f, "deadline"),
            BudgetKind::Cancelled => write!(f, "cancelled"),
        }
    }
}

/// A query ran out of budget. Carries the *partial* cost spent up to the
/// point of exhaustion so callers can still account for the work done.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BudgetError {
    /// Which limit tripped.
    pub kind: BudgetKind,
    /// Index nodes visited before the trip.
    pub index_nodes: u64,
    /// Data nodes visited before the trip.
    pub data_nodes: u64,
}

impl fmt::Display for BudgetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "query exceeded {} after visiting {} index nodes and {} data nodes",
            self.kind, self.index_nodes, self.data_nodes
        )
    }
}

impl Error for BudgetError {}

// ---------------------------------------------------------------------
// Unified error
// ---------------------------------------------------------------------

/// The workspace-wide error: one variant per layer.
#[derive(Debug)]
pub enum MrxError {
    /// Store layer (`.mrx` files).
    Store(StoreError),
    /// XML parsing layer.
    Xml(XmlError),
    /// Path-expression layer.
    Path(ParsePathError),
    /// Query resource governance.
    Budget(BudgetError),
}

impl MrxError {
    /// The budget error this error carries, if any.
    pub fn as_budget(&self) -> Option<&BudgetError> {
        match self {
            MrxError::Budget(b) => Some(b),
            _ => None,
        }
    }
}

impl fmt::Display for MrxError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MrxError::Store(e) => write!(f, "{e}"),
            MrxError::Xml(e) => write!(f, "{e}"),
            MrxError::Path(e) => write!(f, "{e}"),
            MrxError::Budget(e) => write!(f, "{e}"),
        }
    }
}

impl Error for MrxError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            MrxError::Store(e) => Some(e),
            MrxError::Xml(e) => Some(e),
            MrxError::Path(e) => Some(e),
            MrxError::Budget(e) => Some(e),
        }
    }
}

impl From<StoreError> for MrxError {
    fn from(e: StoreError) -> Self {
        MrxError::Store(e)
    }
}

impl From<XmlError> for MrxError {
    fn from(e: XmlError) -> Self {
        MrxError::Xml(e)
    }
}

impl From<ParsePathError> for MrxError {
    fn from(e: ParsePathError) -> Self {
        MrxError::Path(e)
    }
}

impl From<BudgetError> for MrxError {
    fn from(e: BudgetError) -> Self {
        MrxError::Budget(e)
    }
}

impl From<io::Error> for MrxError {
    fn from(e: io::Error) -> Self {
        MrxError::Store(StoreError::Io(e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budget_error_carries_partial_cost() {
        let b = BudgetError {
            kind: BudgetKind::Steps,
            index_nodes: 10,
            data_nodes: 20,
        };
        let e = MrxError::from(b);
        assert_eq!(e.as_budget().map(|b| b.data_nodes), Some(20));
    }

    #[test]
    fn layer_errors_display_and_source() {
        let e = MrxError::from(XmlError {
            message: "oops".into(),
            offset: 3,
            line: 1,
            column: 4,
        });
        assert!(e.to_string().contains("line 1, column 4"));
        assert!(e.source().is_some());
    }
}
