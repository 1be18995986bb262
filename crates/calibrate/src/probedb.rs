//! The synthetic calibration database.
//!
//! Calibration needs tables whose physical layout is fully known so that
//! measured runtimes can be expressed in terms of page and tuple counts:
//!
//! * `cal_narrow(a, b, c)` — many integer rows per page; column `a` is
//!   unindexed (forcing the sequential-scan plans the paper's probes rely
//!   on), column `b` carries a B+tree index for the random-I/O probes;
//! * `cal_wide(a, pad)` — long string padding so few rows fit per page,
//!   giving a very different pages-to-rows ratio (this is what separates
//!   per-page costs from per-tuple costs in the linear system).

use crate::CalError;
use dbvirt_engine::{Database, IndexId, TableId};
use dbvirt_storage::{DataType, Datum, Field, Schema, StorageError, Tuple};
use std::sync::OnceLock;

/// Rows in the narrow calibration table.
pub(crate) const NARROW_ROWS: i64 = 40_000;
/// Rows in the wide calibration table.
pub(crate) const WIDE_ROWS: i64 = 2_000;
/// Padding bytes per wide row (few rows per 8 KiB page).
pub(crate) const WIDE_PAD: usize = 1000;

/// The calibration database plus the catalog ids probes need.
#[derive(Debug, Clone)]
pub struct ProbeDb {
    /// The database holding the calibration tables.
    pub db: Database,
    /// `cal_narrow(a INT, b INT, c INT)`.
    pub narrow: TableId,
    /// `cal_wide(a INT, pad STR)`.
    pub wide: TableId,
    /// Index on `cal_narrow.b`.
    pub b_index: IndexId,
}

impl ProbeDb {
    /// Builds the calibration database deterministically and analyzes it.
    pub fn build() -> Result<ProbeDb, StorageError> {
        let mut db = Database::new();

        let narrow = db.create_table(
            "cal_narrow",
            Schema::new(vec![
                Field::new("a", DataType::Int),
                Field::new("b", DataType::Int),
                Field::new("c", DataType::Int),
            ]),
        );
        // `b` is a deterministic permutation-ish scatter so that an index
        // range on `b` touches heap pages randomly, as a real secondary
        // index does.
        db.insert_rows(
            narrow,
            (0..NARROW_ROWS).map(|i| {
                let b = (i * 48_271) % NARROW_ROWS; // Lehmer-style scatter
                Tuple::new(vec![Datum::Int(i), Datum::Int(b), Datum::Int(i % 97)])
            }),
        )?;
        let b_index = db.create_index("cal_narrow_b", narrow, 1)?;

        let wide = db.create_table(
            "cal_wide",
            Schema::new(vec![
                Field::new("a", DataType::Int),
                Field::new("pad", DataType::Str),
            ]),
        );
        let pad: String = "x".repeat(WIDE_PAD);
        db.insert_rows(
            wide,
            (0..WIDE_ROWS).map(|i| Tuple::new(vec![Datum::Int(i), Datum::str(pad.clone())])),
        )?;

        db.analyze_all()?;
        Ok(ProbeDb {
            db,
            narrow,
            wide,
            b_index,
        })
    }

    /// The process-wide probe database: built and validated on first use,
    /// immutable afterwards. The build is deterministic, so every caller
    /// would build the same bytes; grid sweeps `clone` this instead (the
    /// executor needs `&mut`), and a failed build is remembered rather than
    /// retried.
    pub fn template() -> Result<&'static ProbeDb, CalError> {
        static TEMPLATE: OnceLock<Result<ProbeDb, CalError>> = OnceLock::new();
        TEMPLATE
            .get_or_init(|| {
                #[cfg(test)]
                TEMPLATE_BUILDS.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                let pdb = ProbeDb::build().map_err(|e| CalError::probe_failed("<probe-db>", e))?;
                pdb.validate()
                    .map_err(|e| CalError::probe_failed("<probe-db>", e))?;
                Ok(pdb)
            })
            .as_ref()
            .map_err(Clone::clone)
    }

    /// Checks the physical-layout assumptions the probe design and its
    /// linear system rely on. The calibration runner refuses to fit
    /// against a database that violates them — a misbuilt probe database
    /// would not crash the solver, it would silently produce garbage
    /// parameters, which is worse.
    pub fn validate(&self) -> Result<(), String> {
        let narrow = self
            .db
            .table(self.narrow)
            .stats
            .as_ref()
            .ok_or("cal_narrow has no statistics")?;
        let wide = self
            .db
            .table(self.wide)
            .stats
            .as_ref()
            .ok_or("cal_wide has no statistics")?;
        if narrow.n_rows != NARROW_ROWS as u64 || wide.n_rows != WIDE_ROWS as u64 {
            return Err(format!(
                "calibration tables have {} / {} rows, expected {NARROW_ROWS} / {WIDE_ROWS}",
                narrow.n_rows, wide.n_rows
            ));
        }
        // The wide table's job is separating per-page from per-tuple
        // costs; without a large rows-per-page gap the columns of the
        // linear system become near-collinear.
        if wide.rows_per_page() * 10.0 > narrow.rows_per_page() {
            return Err(format!(
                "wide table packs {:.1} rows/page vs narrow {:.1}; \
                 per-page and per-tuple costs are not separable",
                wide.rows_per_page(),
                narrow.rows_per_page()
            ));
        }
        // The random-I/O probes assume the index covers every row.
        let indexed = self.db.index_tree(self.b_index).len();
        if indexed != NARROW_ROWS as usize {
            return Err(format!(
                "index cal_narrow_b covers {indexed} of {NARROW_ROWS} rows"
            ));
        }
        Ok(())
    }
}

/// How often [`ProbeDb::template`] has built the database in this process.
#[cfg(test)]
pub(crate) static TEMPLATE_BUILDS: std::sync::atomic::AtomicUsize =
    std::sync::atomic::AtomicUsize::new(0);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_with_expected_shape() {
        let p = ProbeDb::build().unwrap();
        let narrow = p.db.table(p.narrow).stats.as_ref().unwrap();
        let wide = p.db.table(p.wide).stats.as_ref().unwrap();
        assert_eq!(narrow.n_rows, NARROW_ROWS as u64);
        assert_eq!(wide.n_rows, WIDE_ROWS as u64);
        // The wide table must have far fewer rows per page.
        assert!(wide.rows_per_page() < narrow.rows_per_page() / 10.0);
        // Index covers all rows.
        assert_eq!(p.db.index_tree(p.b_index).len(), NARROW_ROWS as usize);
        // b values are a scatter: ndv == rows (48271 is coprime with 40000).
        assert_eq!(narrow.columns[1].n_distinct, NARROW_ROWS as u64);
    }

    #[test]
    fn a_fresh_build_validates() {
        ProbeDb::build().unwrap().validate().unwrap();
    }

    #[test]
    fn validation_catches_a_misbuilt_database() {
        // Point the wide handle at the narrow table: rows-per-page
        // separation vanishes and validation must refuse.
        let mut p = ProbeDb::build().unwrap();
        p.wide = p.narrow;
        let err = p.validate().unwrap_err();
        assert!(err.contains("rows"), "{err}");
    }

    #[test]
    fn build_is_deterministic() {
        let a = ProbeDb::build().unwrap();
        let b = ProbeDb::build().unwrap();
        let sa = a.db.table(a.narrow).stats.as_ref().unwrap();
        let sb = b.db.table(b.narrow).stats.as_ref().unwrap();
        assert_eq!(sa, sb);
    }
}
