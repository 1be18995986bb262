//! The catalog: tables, indexes, statistics, and the [`Database`] that owns
//! all storage-level objects.

use dbvirt_storage::{
    stats, BPlusTree, DiskManager, HeapFile, Row, Schema, StorageError, TableStats, Tuple,
};
use std::fmt;

/// Identifier of a table within a [`Database`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TableId(pub usize);

/// Identifier of an index within a [`Database`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct IndexId(pub usize);

impl fmt::Display for TableId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "table#{}", self.0)
    }
}

impl fmt::Display for IndexId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "index#{}", self.0)
    }
}

/// Catalog entry for a table.
#[derive(Debug, Clone)]
pub struct TableMeta {
    /// Table name (unique within the database).
    pub name: String,
    /// Column layout.
    pub schema: Schema,
    /// Backing heap file.
    pub heap: HeapFile,
    /// `ANALYZE` output, if collected.
    pub stats: Option<TableStats>,
    /// Indexes defined on this table.
    pub indexes: Vec<IndexId>,
}

/// Catalog entry for an index.
#[derive(Debug, Clone)]
pub struct IndexMeta {
    /// Index name.
    pub name: String,
    /// Indexed table.
    pub table: TableId,
    /// Indexed columns (positions in the table schema). Single-column
    /// indexes key the B+tree with the raw column [`Datum`]; composite
    /// indexes key it with the order-preserving encoding from
    /// [`dbvirt_storage::keyenc`].
    pub columns: Vec<usize>,
}

impl IndexMeta {
    /// The leading indexed column.
    pub fn column(&self) -> usize {
        self.columns[0]
    }

    /// The B+tree key for one table row: the raw datum for single-column
    /// indexes, the memcomparable encoding for composites.
    pub(crate) fn key_for<R: Row + ?Sized>(&self, row: &R) -> dbvirt_storage::Datum {
        if self.columns.len() == 1 {
            row.col(self.columns[0]).to_datum()
        } else {
            let values: Vec<dbvirt_storage::Datum> = self
                .columns
                .iter()
                .map(|&c| row.col(c).to_datum())
                .collect();
            dbvirt_storage::keyenc::encode_key(&values)
        }
    }
}

/// A database: disk, catalog, heaps, and indexes, all owned together.
/// `clone` is a deep copy of every page and index node.
#[derive(Debug, Clone, Default)]
pub struct Database {
    disk: DiskManager,
    tables: Vec<TableMeta>,
    index_meta: Vec<IndexMeta>,
    index_trees: Vec<BPlusTree>,
}

impl Database {
    /// Creates an empty database.
    pub fn new() -> Database {
        Database::default()
    }

    /// Creates a table.
    ///
    /// # Panics
    /// Panics if the name is already taken (a programming error in the
    /// deterministic workloads this engine serves).
    pub fn create_table(&mut self, name: impl Into<String>, schema: Schema) -> TableId {
        let name = name.into();
        assert!(
            self.table_id(&name).is_none(),
            "table {name:?} already exists"
        );
        let heap = HeapFile::create(&mut self.disk);
        self.tables.push(TableMeta {
            name,
            schema,
            heap,
            stats: None,
            indexes: Vec::new(),
        });
        TableId(self.tables.len() - 1)
    }

    /// Bulk-inserts rows into a table (offline, unmetered).
    pub fn insert_rows(
        &mut self,
        table: TableId,
        rows: impl IntoIterator<Item = Tuple>,
    ) -> Result<u64, StorageError> {
        let heap = self.tables[table.0].heap;
        let mut n = 0;
        for row in rows {
            heap.insert(&mut self.disk, &row)?;
            n += 1;
        }
        // Any previous statistics are stale now.
        self.tables[table.0].stats = None;
        Ok(n)
    }

    /// Builds a B+tree index on one column, bulk-loading from the heap.
    pub fn create_index(
        &mut self,
        name: impl Into<String>,
        table: TableId,
        column: usize,
    ) -> Result<IndexId, StorageError> {
        self.create_index_multi(name, table, &[column])
    }

    /// Builds a B+tree index on one or more columns, bulk-loading from
    /// the heap. Composite indexes (two or more columns) store
    /// memcomparable encoded keys ([`dbvirt_storage::keyenc`]), so a key
    /// *prefix* maps to one contiguous tree range.
    pub fn create_index_multi(
        &mut self,
        name: impl Into<String>,
        table: TableId,
        columns: &[usize],
    ) -> Result<IndexId, StorageError> {
        let meta = &self.tables[table.0];
        assert!(!columns.is_empty(), "index needs at least one column");
        for &column in columns {
            assert!(
                column < meta.schema.len(),
                "column {column} out of range for {}",
                meta.name
            );
        }
        let index_meta = IndexMeta {
            name: name.into(),
            table,
            columns: columns.to_vec(),
        };
        let heap = meta.heap;
        let mut entries = Vec::new();
        for page_no in 0..heap.num_pages(&self.disk) {
            let pid = dbvirt_storage::PageId {
                file: heap.file_id(),
                page_no,
            };
            for (slot, row) in self.disk.read_page(pid)?.rows()? {
                entries.push((
                    index_meta.key_for(&row),
                    dbvirt_storage::TupleId { page_no, slot },
                ));
            }
        }
        let tree = BPlusTree::bulk_load(&mut self.disk, entries)?;
        self.index_trees.push(tree);
        self.index_meta.push(index_meta);
        let id = IndexId(self.index_meta.len() - 1);
        self.tables[table.0].indexes.push(id);
        Ok(id)
    }

    /// Runs an `ANALYZE` pass over one table.
    pub fn analyze_table(&mut self, table: TableId) -> Result<(), StorageError> {
        let heap = self.tables[table.0].heap;
        let arity = self.tables[table.0].schema.len();
        let mut tuples = Vec::new();
        for page_no in 0..heap.num_pages(&self.disk) {
            let pid = dbvirt_storage::PageId {
                file: heap.file_id(),
                page_no,
            };
            let rows = self.disk.read_page(pid)?.rows()?;
            tuples.extend(rows.map(|(_, row)| row.to_tuple()));
        }
        let table_stats = stats::analyze(tuples.iter(), arity, heap.num_pages(&self.disk));
        self.tables[table.0].stats = Some(table_stats);
        Ok(())
    }

    /// Runs `ANALYZE` over every table.
    pub fn analyze_all(&mut self) -> Result<(), StorageError> {
        for t in 0..self.tables.len() {
            self.analyze_table(TableId(t))?;
        }
        Ok(())
    }

    /// Number of tables.
    pub(crate) fn num_tables(&self) -> usize {
        self.tables.len()
    }

    /// Catalog entry for a table.
    pub fn table(&self, id: TableId) -> &TableMeta {
        &self.tables[id.0]
    }

    /// Looks a table up by name.
    pub fn table_id(&self, name: &str) -> Option<TableId> {
        self.tables.iter().position(|t| t.name == name).map(TableId)
    }

    /// Catalog entry for an index.
    #[allow(clippy::should_implement_trait)] // catalog accessor, not std::ops::Index
    pub fn index(&self, id: IndexId) -> &IndexMeta {
        &self.index_meta[id.0]
    }

    /// The B+tree behind an index.
    pub fn index_tree(&self, id: IndexId) -> &BPlusTree {
        &self.index_trees[id.0]
    }

    /// Finds a single-column index on `(table, column)`, if one exists.
    pub fn index_on(&self, table: TableId, column: usize) -> Option<IndexId> {
        self.index_meta
            .iter()
            .position(|m| m.table == table && m.columns == [column])
            .map(IndexId)
    }

    /// Number of indexes in the catalog.
    pub fn num_indexes(&self) -> usize {
        self.index_meta.len()
    }

    /// All indexes, with ids.
    pub fn indexes(&self) -> impl Iterator<Item = (IndexId, &IndexMeta)> {
        self.index_meta
            .iter()
            .enumerate()
            .map(|(i, m)| (IndexId(i), m))
    }

    /// The disk manager, mutably: for rewriting pages in place. Execution
    /// only reads, through [`Database::disk`].
    pub fn disk_mut(&mut self) -> &mut DiskManager {
        &mut self.disk
    }

    /// Read-only disk access.
    pub fn disk(&self) -> &DiskManager {
        &self.disk
    }

    /// Total size of the database in pages (heaps + indexes).
    pub fn total_pages(&self) -> usize {
        self.disk.total_pages()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbvirt_storage::{DataType, Datum, Field};

    fn schema() -> Schema {
        Schema::new(vec![
            Field::new("id", DataType::Int),
            Field::new("val", DataType::Str),
        ])
    }

    fn row(i: i64) -> Tuple {
        Tuple::new(vec![Datum::Int(i), Datum::str(format!("v{i}"))])
    }

    #[test]
    fn create_insert_analyze() {
        let mut db = Database::new();
        let t = db.create_table("t", schema());
        db.insert_rows(t, (0..100).map(row)).unwrap();
        assert!(db.table(t).stats.is_none());
        db.analyze_table(t).unwrap();
        let stats = db.table(t).stats.as_ref().unwrap();
        assert_eq!(stats.n_rows, 100);
        assert_eq!(stats.columns[0].n_distinct, 100);
    }

    #[test]
    fn insert_invalidates_stats() {
        let mut db = Database::new();
        let t = db.create_table("t", schema());
        db.insert_rows(t, (0..10).map(row)).unwrap();
        db.analyze_table(t).unwrap();
        db.insert_rows(t, (10..20).map(row)).unwrap();
        assert!(db.table(t).stats.is_none(), "stats must go stale");
    }

    #[test]
    fn index_lookup_matches_heap() {
        let mut db = Database::new();
        let t = db.create_table("t", schema());
        db.insert_rows(t, (0..1000).map(row)).unwrap();
        let idx = db.create_index("t_id", t, 0).unwrap();
        assert_eq!(db.index_on(t, 0), Some(idx));
        assert_eq!(db.index_on(t, 1), None);
        assert_eq!(db.index_tree(idx).len(), 1000);
        assert_eq!(db.index(idx).columns, vec![0]);
    }

    #[test]
    fn composite_index_keys_are_prefix_rangeable() {
        let mut db = Database::new();
        let t = db.create_table("t", schema());
        // (id % 10, val) so the leading composite column has duplicates.
        let rows =
            (0..500).map(|i| Tuple::new(vec![Datum::Int(i % 10), Datum::str(format!("v{i}"))]));
        db.insert_rows(t, rows).unwrap();
        let idx = db.create_index_multi("t_id_val", t, &[0, 1]).unwrap();
        assert_eq!(db.index(idx).columns, vec![0, 1]);
        assert_eq!(db.index_on(t, 0), None, "no single-column index exists");
        // All 50 rows with leading value 3 fall inside the encoded prefix
        // range, and nothing else does.
        let lo = dbvirt_storage::keyenc::encode_key(&[Datum::Int(3)]);
        let hi = dbvirt_storage::keyenc::encode_prefix_upper(&[Datum::Int(3)]);
        let hits = db.index_tree(idx).range(
            std::ops::Bound::Included(&lo),
            std::ops::Bound::Excluded(&hi),
        );
        assert_eq!(hits.len(), 50);
    }

    #[test]
    fn a_slot_pointing_outside_its_page_is_an_error_not_a_missing_row() {
        use crate::{run_plan, CpuCosts, EngineError, PhysicalPlan};
        use dbvirt_storage::{BufferPool, Page, PageId, PAGE_SIZE};

        let mut db = Database::new();
        let t = db.create_table("t", schema());
        db.insert_rows(t, (0..100).map(row)).unwrap();
        // Point slot 3 of page 0 (directory entries grow back from the page
        // end: offset u16, length u16, little-endian) past the page end.
        let pid = PageId {
            file: db.table(t).heap.file_id(),
            page_no: 0,
        };
        let mut image = *db.disk().read_page(pid).unwrap().as_bytes();
        let entry = PAGE_SIZE - 4 * (3 + 1);
        image[entry..entry + 2].copy_from_slice(&(PAGE_SIZE as u16 - 2).to_le_bytes());
        *db.disk_mut().page_mut(pid).unwrap() = Page::from_bytes(image);

        let corrupt = |e: &StorageError| matches!(e, StorageError::CorruptPage { .. });
        assert!(corrupt(&db.analyze_table(t).unwrap_err()));
        assert!(corrupt(&db.create_index("t_id", t, 0).unwrap_err()));
        let scan = PhysicalPlan::SeqScan {
            table: t,
            filter: None,
        };
        let mut pool = BufferPool::new(8);
        match run_plan(&db, &mut pool, &scan, 1 << 20, CpuCosts::default()) {
            Err(EngineError::Storage(e)) => assert!(corrupt(&e), "{e}"),
            other => panic!("scan over a corrupt slot returned {other:?}"),
        }
    }

    #[test]
    fn table_lookup_by_name() {
        let mut db = Database::new();
        let a = db.create_table("alpha", schema());
        let b = db.create_table("beta", schema());
        assert_eq!(db.table_id("alpha"), Some(a));
        assert_eq!(db.table_id("beta"), Some(b));
        assert_eq!(db.table_id("gamma"), None);
        assert_eq!(db.num_tables(), 2);
    }

    #[test]
    #[should_panic(expected = "already exists")]
    fn duplicate_table_name_panics() {
        let mut db = Database::new();
        db.create_table("t", schema());
        db.create_table("t", schema());
    }
}
