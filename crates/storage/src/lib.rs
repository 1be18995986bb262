//! # dbvirt-storage — storage engine substrate
//!
//! A from-scratch storage layer in the PostgreSQL mold, built so that the
//! database engine above it performs *real* physical work that the VMM
//! simulator can meter:
//!
//! * [`Datum`], [`DatumRef`], [`DataType`], [`Schema`] — the value model,
//!   owned and borrowed;
//! * [`Tuple`] — byte-serialized rows ([`Tuple`] round-trips through a
//!   compact tagged format); [`TupleView`] — the one reader of that format,
//!   which reads columns in place from the field offsets one checking walk
//!   of the record found; [`Row`] —
//!   what either of them, or a [`Joined`] pair, looks like to an expression;
//!   [`RowBuf`] — rows kept as record bytes in one arena, read back as views;
//! * [`Page`] — 8 KiB slotted pages with a slot directory, their image
//!   shared by reference count until someone writes, and checked in full —
//!   once, by its first reader, for all who share it — before any of its
//!   rows is read;
//! * [`HeapFile`] / [`DiskManager`] — append-only heap tables over pages;
//! * [`BufferPool`] — a clock-sweep page cache whose capacity is set from
//!   the VM's memory share, charging sequential/random physical reads to a
//!   [`dbvirt_vmm::ResourceDemand`] on every miss, and able to log the
//!   references it serves ([`Access`]) so [`BufferPool::replay`] can price
//!   them under any other capacity without executing again;
//! * [`BPlusTree`] — paged B+tree secondary indexes whose node accesses go
//!   through the same buffer pool accounting;
//! * [`stats`] — `ANALYZE`-style table and column statistics (row counts,
//!   NDV, min/max, equi-depth histograms) for the optimizer.
//!
//! The deliberate design split: *logical* work (which pages are touched,
//! in what pattern) happens here; *time* is assigned by `dbvirt-vmm`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod btree;
mod bufpool;
mod error;
mod heap;
pub mod keyenc;
mod page;
pub mod stats;
mod tuple;
mod types;

pub use btree::BPlusTree;
pub use bufpool::{Access, AccessPattern, BufferPool, BufferPoolMetrics};
pub use error::StorageError;
pub use heap::{DiskManager, FileId, HeapFile, PageId, TupleId};
pub use page::{Page, PAGE_SIZE};
pub use stats::{ColumnStats, Histogram, TableStats};
pub use tuple::{Joined, RecordWriter, Row, RowBuf, Tuple, TupleView};

pub use types::{DataType, Datum, DatumRef, Field, Schema};
