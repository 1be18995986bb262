//! Storage-layer error type.

use std::error::Error;
use std::fmt;

/// Errors raised by the storage layer.
#[derive(Debug, Clone, PartialEq)]
pub enum StorageError {
    /// A tuple was too large to fit in one page.
    TupleTooLarge {
        /// Serialized tuple size in bytes.
        size: usize,
    },
    /// A record of no bytes was offered to a page, where a zero length
    /// marks a deleted slot.
    EmptyRecord,
    /// A page's bytes failed to decode.
    CorruptPage {
        /// Description of the corruption.
        reason: String,
    },
    /// A tuple's bytes failed to decode.
    CorruptTuple {
        /// Description of the corruption.
        reason: String,
    },
    /// A referenced page does not exist.
    PageNotFound {
        /// File id.
        file: u32,
        /// Page number within the file.
        page: u32,
    },
    /// A referenced tuple slot does not exist.
    TupleNotFound {
        /// File id.
        file: u32,
        /// Page number.
        page: u32,
        /// Slot index.
        slot: u16,
    },
    /// A referenced file does not exist.
    FileNotFound {
        /// File id.
        file: u32,
    },
    /// An access log was replayed through a pool with no frames, or split
    /// into runs at a boundary past its end or before the previous one.
    BadReplay {
        /// The capacity asked for, in pages.
        capacity: usize,
        /// The offending run boundary (0 when the capacity is at fault).
        boundary: usize,
        /// Entries in the log.
        log_len: usize,
    },
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageError::TupleTooLarge { size } => {
                write!(f, "tuple of {size} bytes does not fit in a page")
            }
            StorageError::EmptyRecord => write!(f, "a record needs at least one byte"),
            StorageError::CorruptPage { reason } => write!(f, "corrupt page: {reason}"),
            StorageError::CorruptTuple { reason } => write!(f, "corrupt tuple: {reason}"),
            StorageError::PageNotFound { file, page } => {
                write!(f, "page {page} of file {file} not found")
            }
            StorageError::TupleNotFound { file, page, slot } => {
                write!(f, "tuple (file {file}, page {page}, slot {slot}) not found")
            }
            StorageError::FileNotFound { file } => write!(f, "file {file} not found"),
            StorageError::BadReplay {
                capacity,
                boundary,
                log_len,
            } => write!(
                f,
                "cannot replay {log_len} accesses up to {boundary} through {capacity} frames"
            ),
        }
    }
}

impl Error for StorageError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_mention_identifiers() {
        let e = StorageError::PageNotFound { file: 3, page: 42 };
        assert!(e.to_string().contains("42"));
        let e = StorageError::TupleTooLarge { size: 9000 };
        assert!(e.to_string().contains("9000"));
    }
}
