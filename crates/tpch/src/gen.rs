//! The seeded TPC-H data generator.

use dbvirt_engine::{Database, TableId};
use dbvirt_storage::{DataType, Datum, Field, Schema, StorageError, Tuple};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Days since 1970-01-01 for a calendar date (civil-days algorithm,
/// valid for the TPC-H date range).
pub fn date(year: i32, month: u32, day: u32) -> i32 {
    // Howard Hinnant's days_from_civil.
    let y = if month <= 2 { year - 1 } else { year };
    let era = if y >= 0 { y } else { y - 399 } / 400;
    let yoe = (y - era * 400) as i64;
    let m = month as i64;
    let doy = (153 * (if m > 2 { m - 3 } else { m + 9 }) + 2) / 5 + day as i64 - 1;
    let doe = yoe * 365 + yoe / 4 - yoe / 100 + doy;
    (era as i64 * 146_097 + doe - 719_468) as i32
}

/// Generation parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TpchConfig {
    /// TPC-H scale factor (1.0 = the paper's 1 GB database). The
    /// experiments use small fractions; row counts scale linearly with the
    /// spec's SF=1 sizes.
    pub scale: f64,
    /// RNG seed; the same seed always produces the same database.
    pub seed: u64,
    /// Build the OSDB-style secondary index set (true by default).
    /// `scan_only()` disables it, for scan-vs-index comparisons and for
    /// handing the physical-design advisor a blank slate.
    pub with_indexes: bool,
}

impl TpchConfig {
    /// A scale suitable for unit tests (a few thousand lineitems).
    pub fn tiny() -> TpchConfig {
        TpchConfig {
            scale: 0.001,
            seed: 42,
            with_indexes: true,
        }
    }

    /// The scale the experiment harness uses.
    pub fn experiment() -> TpchConfig {
        TpchConfig {
            scale: 0.02,
            seed: 42,
            with_indexes: true,
        }
    }

    /// The same database with no secondary indexes built.
    pub fn scan_only(mut self) -> TpchConfig {
        self.with_indexes = false;
        self
    }

    fn customers(&self) -> i64 {
        ((150_000.0 * self.scale) as i64).max(100)
    }

    fn suppliers(&self) -> i64 {
        ((10_000.0 * self.scale) as i64).max(10)
    }

    fn parts(&self) -> i64 {
        ((200_000.0 * self.scale) as i64).max(200)
    }
}

/// The generated TPC-H database with its catalog handles.
#[derive(Debug)]
pub struct TpchDb {
    /// The database.
    pub db: Database,
    /// `region`.
    pub region: TableId,
    /// `nation`.
    pub nation: TableId,
    /// `supplier`.
    pub supplier: TableId,
    /// `customer`.
    pub customer: TableId,
    /// `part`.
    pub part: TableId,
    /// `partsupp`.
    pub partsupp: TableId,
    /// `orders`.
    pub orders: TableId,
    /// `lineitem`.
    pub lineitem: TableId,
    /// The configuration it was generated with.
    pub config: TpchConfig,
}

const REGIONS: [&str; 5] = ["AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"];
const NATIONS: [(&str, i64); 25] = [
    ("ALGERIA", 0),
    ("ARGENTINA", 1),
    ("BRAZIL", 1),
    ("CANADA", 1),
    ("EGYPT", 4),
    ("ETHIOPIA", 0),
    ("FRANCE", 3),
    ("GERMANY", 3),
    ("INDIA", 2),
    ("INDONESIA", 2),
    ("IRAN", 4),
    ("IRAQ", 4),
    ("JAPAN", 2),
    ("JORDAN", 4),
    ("KENYA", 0),
    ("MOROCCO", 0),
    ("MOZAMBIQUE", 0),
    ("PERU", 1),
    ("CHINA", 2),
    ("ROMANIA", 3),
    ("SAUDI ARABIA", 4),
    ("VIETNAM", 2),
    ("RUSSIA", 3),
    ("UNITED KINGDOM", 3),
    ("UNITED STATES", 1),
];
const SEGMENTS: [&str; 5] = [
    "AUTOMOBILE",
    "BUILDING",
    "FURNITURE",
    "MACHINERY",
    "HOUSEHOLD",
];
const PRIORITIES: [&str; 5] = ["1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW"];
const TYPE_SYLL1: [&str; 6] = ["STANDARD", "SMALL", "MEDIUM", "LARGE", "ECONOMY", "PROMO"];
const TYPE_SYLL2: [&str; 5] = ["ANODIZED", "BURNISHED", "PLATED", "POLISHED", "BRUSHED"];
const TYPE_SYLL3: [&str; 5] = ["TIN", "NICKEL", "BRASS", "STEEL", "COPPER"];
const WORDS: [&str; 16] = [
    "furiously",
    "quick",
    "pending",
    "final",
    "ironic",
    "even",
    "bold",
    "regular",
    "express",
    "silent",
    "blithe",
    "careful",
    "dogged",
    "daring",
    "sly",
    "close",
];

/// The earliest order date (1992-01-01) and the generation window in days.
fn order_date_range() -> (i32, i32) {
    let start = date(1992, 1, 1);
    let end = date(1998, 8, 2);
    (start, end - start)
}

fn comment(rng: &mut StdRng, special_requests: bool) -> String {
    let mut words: Vec<&str> = (0..4)
        .map(|_| WORDS[rng.gen_range(0..WORDS.len())])
        .collect();
    if special_requests {
        // The phrase Q13's `NOT LIKE '%special%requests%'` targets.
        words.insert(1, "special");
        words.insert(3, "requests");
    }
    words.join(" ")
}

impl TpchDb {
    /// Generates, indexes, and analyzes a TPC-H database.
    pub fn generate(config: TpchConfig) -> Result<TpchDb, StorageError> {
        let mut rng = StdRng::seed_from_u64(config.seed);
        let mut db = Database::new();

        let region = db.create_table(
            "region",
            Schema::new(vec![
                Field::new("r_regionkey", DataType::Int),
                Field::new("r_name", DataType::Str),
                Field::new("r_comment", DataType::Str),
            ]),
        );
        db.insert_rows(
            region,
            REGIONS.iter().enumerate().map(|(i, name)| {
                Tuple::new(vec![
                    Datum::Int(i as i64),
                    Datum::str(*name),
                    Datum::str("region comment"),
                ])
            }),
        )?;

        let nation = db.create_table(
            "nation",
            Schema::new(vec![
                Field::new("n_nationkey", DataType::Int),
                Field::new("n_name", DataType::Str),
                Field::new("n_regionkey", DataType::Int),
                Field::new("n_comment", DataType::Str),
            ]),
        );
        db.insert_rows(
            nation,
            NATIONS.iter().enumerate().map(|(i, (name, rk))| {
                Tuple::new(vec![
                    Datum::Int(i as i64),
                    Datum::str(*name),
                    Datum::Int(*rk),
                    Datum::str("nation comment"),
                ])
            }),
        )?;

        let supplier = db.create_table(
            "supplier",
            Schema::new(vec![
                Field::new("s_suppkey", DataType::Int),
                Field::new("s_name", DataType::Str),
                Field::new("s_nationkey", DataType::Int),
                Field::new("s_acctbal", DataType::Float),
            ]),
        );
        let n_suppliers = config.suppliers();
        {
            let rows: Vec<Tuple> = (0..n_suppliers)
                .map(|i| {
                    Tuple::new(vec![
                        Datum::Int(i),
                        Datum::str(format!("Supplier#{i:09}")),
                        Datum::Int(rng.gen_range(0..25)),
                        Datum::Float(rng.gen_range(-999.99..9999.99)),
                    ])
                })
                .collect();
            db.insert_rows(supplier, rows)?;
        }

        let customer = db.create_table(
            "customer",
            Schema::new(vec![
                Field::new("c_custkey", DataType::Int),
                Field::new("c_name", DataType::Str),
                Field::new("c_address", DataType::Str),
                Field::new("c_nationkey", DataType::Int),
                Field::new("c_phone", DataType::Str),
                Field::new("c_acctbal", DataType::Float),
                Field::new("c_mktsegment", DataType::Str),
                Field::new("c_comment", DataType::Str),
            ]),
        );
        let n_customers = config.customers();
        {
            let rows: Vec<Tuple> = (0..n_customers)
                .map(|i| {
                    Tuple::new(vec![
                        Datum::Int(i),
                        Datum::str(format!("Customer#{i:09}")),
                        Datum::str(format!("addr-{i}")),
                        Datum::Int(rng.gen_range(0..25)),
                        Datum::str(format!("{:02}-{:07}", rng.gen_range(10..35), i)),
                        Datum::Float(rng.gen_range(-999.99..9999.99)),
                        Datum::str(SEGMENTS[rng.gen_range(0..SEGMENTS.len())]),
                        Datum::str(comment(&mut rng, false)),
                    ])
                })
                .collect();
            db.insert_rows(customer, rows)?;
        }

        let part = db.create_table(
            "part",
            Schema::new(vec![
                Field::new("p_partkey", DataType::Int),
                Field::new("p_name", DataType::Str),
                Field::new("p_brand", DataType::Str),
                Field::new("p_type", DataType::Str),
                Field::new("p_size", DataType::Int),
                Field::new("p_retailprice", DataType::Float),
            ]),
        );
        let n_parts = config.parts();
        {
            let rows: Vec<Tuple> = (0..n_parts)
                .map(|i| {
                    let ptype = format!(
                        "{} {} {}",
                        TYPE_SYLL1[rng.gen_range(0..TYPE_SYLL1.len())],
                        TYPE_SYLL2[rng.gen_range(0..TYPE_SYLL2.len())],
                        TYPE_SYLL3[rng.gen_range(0..TYPE_SYLL3.len())],
                    );
                    Tuple::new(vec![
                        Datum::Int(i),
                        Datum::str(format!("part {i}")),
                        Datum::str(format!(
                            "Brand#{}{}",
                            rng.gen_range(1..6),
                            rng.gen_range(1..6)
                        )),
                        Datum::str(ptype),
                        Datum::Int(rng.gen_range(1..51)),
                        Datum::Float(900.0 + (i % 1000) as f64 / 10.0),
                    ])
                })
                .collect();
            db.insert_rows(part, rows)?;
        }

        let partsupp = db.create_table(
            "partsupp",
            Schema::new(vec![
                Field::new("ps_partkey", DataType::Int),
                Field::new("ps_suppkey", DataType::Int),
                Field::new("ps_availqty", DataType::Int),
                Field::new("ps_supplycost", DataType::Float),
            ]),
        );
        {
            let mut rows = Vec::with_capacity((n_parts * 4) as usize);
            for pk in 0..n_parts {
                for s in 0..4 {
                    rows.push(Tuple::new(vec![
                        Datum::Int(pk),
                        Datum::Int((pk + s * (n_suppliers / 4).max(1)) % n_suppliers),
                        Datum::Int(rng.gen_range(1..10_000)),
                        Datum::Float(rng.gen_range(1.0..1000.0)),
                    ]));
                }
            }
            db.insert_rows(partsupp, rows)?;
        }

        let orders = db.create_table(
            "orders",
            Schema::new(vec![
                Field::new("o_orderkey", DataType::Int),
                Field::new("o_custkey", DataType::Int),
                Field::new("o_orderstatus", DataType::Str),
                Field::new("o_totalprice", DataType::Float),
                Field::new("o_orderdate", DataType::Date),
                Field::new("o_orderpriority", DataType::Str),
                Field::new("o_shippriority", DataType::Int),
                Field::new("o_comment", DataType::Str),
            ]),
        );
        let lineitem = db.create_table(
            "lineitem",
            Schema::new(vec![
                Field::new("l_orderkey", DataType::Int),
                Field::new("l_partkey", DataType::Int),
                Field::new("l_suppkey", DataType::Int),
                Field::new("l_linenumber", DataType::Int),
                Field::new("l_quantity", DataType::Int),
                Field::new("l_extendedprice", DataType::Float),
                Field::new("l_discount", DataType::Float),
                Field::new("l_tax", DataType::Float),
                Field::new("l_returnflag", DataType::Str),
                Field::new("l_linestatus", DataType::Str),
                Field::new("l_shipdate", DataType::Date),
                Field::new("l_commitdate", DataType::Date),
                Field::new("l_receiptdate", DataType::Date),
            ]),
        );

        let n_orders = n_customers * 10;
        let (date_start, date_span) = order_date_range();
        let mut order_rows = Vec::with_capacity(n_orders as usize);
        let mut line_rows = Vec::new();
        for ok in 0..n_orders {
            let odate = date_start + rng.gen_range(0..date_span);
            let n_lines = rng.gen_range(1..=7);
            let mut total = 0.0;
            for ln in 0..n_lines {
                let qty = rng.gen_range(1..=50) as i64;
                let price = qty as f64 * rng.gen_range(90.0..1100.0);
                total += price;
                let shipdate = odate + rng.gen_range(1..=121);
                let commitdate = odate + rng.gen_range(30..=90);
                let receiptdate = shipdate + rng.gen_range(1..=30);
                line_rows.push(Tuple::new(vec![
                    Datum::Int(ok),
                    Datum::Int(rng.gen_range(0..n_parts)),
                    Datum::Int(rng.gen_range(0..n_suppliers)),
                    Datum::Int(ln),
                    Datum::Int(qty),
                    Datum::Float(price),
                    Datum::Float(rng.gen_range(0..=10) as f64 / 100.0),
                    Datum::Float(rng.gen_range(0..=8) as f64 / 100.0),
                    Datum::str(["A", "N", "R"][rng.gen_range(0..3)]),
                    Datum::str(if shipdate > date(1995, 6, 17) {
                        "O"
                    } else {
                        "F"
                    }),
                    Datum::Date(shipdate),
                    Datum::Date(commitdate),
                    Datum::Date(receiptdate),
                ]));
            }
            // ~2% of order comments contain the special-requests phrase.
            let special = rng.gen_bool(0.02);
            order_rows.push(Tuple::new(vec![
                Datum::Int(ok),
                Datum::Int(rng.gen_range(0..n_customers)),
                Datum::str(["F", "O", "P"][rng.gen_range(0..3)]),
                Datum::Float(total),
                Datum::Date(odate),
                Datum::str(PRIORITIES[rng.gen_range(0..PRIORITIES.len())]),
                Datum::Int(0),
                Datum::str(comment(&mut rng, special)),
            ]));
        }
        db.insert_rows(orders, order_rows)?;
        db.insert_rows(lineitem, line_rows)?;

        // The OSDB-style index set: primary keys, foreign keys, and the
        // date columns the workload predicates use.
        if config.with_indexes {
            Self::build_indexes(
                &mut db, region, nation, supplier, customer, part, partsupp, orders, lineitem,
            )?;
        }

        db.analyze_all()?;

        Ok(TpchDb {
            db,
            region,
            nation,
            supplier,
            customer,
            part,
            partsupp,
            orders,
            lineitem,
            config,
        })
    }

    #[allow(clippy::too_many_arguments)]
    fn build_indexes(
        db: &mut Database,
        region: TableId,
        nation: TableId,
        supplier: TableId,
        customer: TableId,
        part: TableId,
        partsupp: TableId,
        orders: TableId,
        lineitem: TableId,
    ) -> Result<(), StorageError> {
        db.create_index("region_pk", region, crate::col::region::REGIONKEY)?;
        db.create_index("nation_pk", nation, crate::col::nation::NATIONKEY)?;
        db.create_index("nation_region_fk", nation, crate::col::nation::REGIONKEY)?;
        db.create_index("supplier_pk", supplier, crate::col::supplier::SUPPKEY)?;
        db.create_index(
            "supplier_nation_fk",
            supplier,
            crate::col::supplier::NATIONKEY,
        )?;
        db.create_index("customer_pk", customer, crate::col::customer::CUSTKEY)?;
        db.create_index(
            "customer_nation_fk",
            customer,
            crate::col::customer::NATIONKEY,
        )?;
        db.create_index("part_pk", part, crate::col::part::PARTKEY)?;
        db.create_index("partsupp_part_fk", partsupp, crate::col::partsupp::PARTKEY)?;
        db.create_index("orders_pk", orders, crate::col::orders::ORDERKEY)?;
        db.create_index("orders_cust_fk", orders, crate::col::orders::CUSTKEY)?;
        db.create_index("orders_date", orders, crate::col::orders::ORDERDATE)?;
        db.create_index(
            "lineitem_order_fk",
            lineitem,
            crate::col::lineitem::ORDERKEY,
        )?;
        db.create_index("lineitem_part_fk", lineitem, crate::col::lineitem::PARTKEY)?;
        db.create_index(
            "lineitem_shipdate",
            lineitem,
            crate::col::lineitem::SHIPDATE,
        )?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::col;

    #[test]
    fn date_conversion_matches_known_values() {
        assert_eq!(date(1970, 1, 1), 0);
        assert_eq!(date(1970, 1, 2), 1);
        assert_eq!(date(1971, 1, 1), 365);
        assert_eq!(date(1992, 1, 1), 8035);
        assert_eq!(date(2000, 3, 1), 11017);
        // Leap-year behavior around 1996-02-29.
        assert_eq!(date(1996, 3, 1) - date(1996, 2, 28), 2);
        assert_eq!(date(1997, 3, 1) - date(1997, 2, 28), 1);
    }

    #[test]
    fn generation_is_deterministic() {
        let a = TpchDb::generate(TpchConfig::tiny()).unwrap();
        let b = TpchDb::generate(TpchConfig::tiny()).unwrap();
        let sa = a.db.table(a.lineitem).stats.as_ref().unwrap();
        let sb = b.db.table(b.lineitem).stats.as_ref().unwrap();
        assert_eq!(sa, sb);
    }

    #[test]
    fn row_counts_scale() {
        let t = TpchDb::generate(TpchConfig::tiny()).unwrap();
        let orders = t.db.table(t.orders).stats.as_ref().unwrap();
        let customers = t.db.table(t.customer).stats.as_ref().unwrap();
        let lineitems = t.db.table(t.lineitem).stats.as_ref().unwrap();
        assert_eq!(orders.n_rows, customers.n_rows * 10);
        // 1..=7 lines per order, so ~4x orders.
        let ratio = lineitems.n_rows as f64 / orders.n_rows as f64;
        assert!((3.0..5.0).contains(&ratio), "lines/order ratio {ratio}");
    }

    #[test]
    fn reference_tables_are_fixed() {
        let t = TpchDb::generate(TpchConfig::tiny()).unwrap();
        assert_eq!(t.db.table(t.region).stats.as_ref().unwrap().n_rows, 5);
        assert_eq!(t.db.table(t.nation).stats.as_ref().unwrap().n_rows, 25);
    }

    #[test]
    fn indexes_exist_on_key_columns() {
        let t = TpchDb::generate(TpchConfig::tiny()).unwrap();
        assert!(t.db.index_on(t.orders, col::orders::ORDERDATE).is_some());
        assert!(t.db.index_on(t.lineitem, col::lineitem::ORDERKEY).is_some());
        assert!(t.db.index_on(t.customer, col::customer::CUSTKEY).is_some());
        assert!(t.db.index_on(t.lineitem, col::lineitem::DISCOUNT).is_none());
    }

    #[test]
    fn some_order_comments_match_q13_pattern() {
        let t = TpchDb::generate(TpchConfig::tiny()).unwrap();
        // Count via a metered-free path: read stats? Simplest: scan pages
        // through the catalog's disk directly is private; use an executor.
        let db = t.db;
        let mut pool = dbvirt_storage::BufferPool::new(1024);
        let plan = dbvirt_engine::PhysicalPlan::SeqScan {
            table: t.orders,
            filter: Some(dbvirt_engine::Expr::like(
                dbvirt_engine::Expr::col(7), // o_comment
                "%special%requests%",
            )),
        };
        let out = dbvirt_engine::run_plan(
            &db,
            &mut pool,
            &plan,
            1 << 20,
            dbvirt_engine::CpuCosts::default(),
        )
        .unwrap();
        let total = db.table(t.orders).heap.num_pages(db.disk());
        assert!(total > 0);
        assert!(
            !out.rows.is_empty(),
            "the special-requests phrase must occur sometimes"
        );
    }
}
