//! Fixtures shared by the golden tests. Each test crate uses a subset.
#![allow(dead_code)]

/// The eight lookup statement shapes of `perf/src/gen.rs`, with fixed
/// literals inside the key spaces of a scale-0.005 database.
pub const LOOKUPS: [&str; 8] = [
    "SELECT l_orderkey, l_quantity FROM lineitem WHERE l_orderkey = 4321",
    "SELECT l_partkey, l_extendedprice FROM lineitem WHERE l_partkey = 777",
    "SELECT l_orderkey, l_extendedprice FROM lineitem WHERE l_orderkey IN (12, 3456, 7001)",
    "SELECT o_orderkey, o_totalprice FROM orders WHERE o_custkey = 321",
    "SELECT o_orderkey, o_orderdate FROM orders WHERE o_orderkey >= 5000 AND o_orderkey < 5024",
    "SELECT c_custkey, c_name, c_acctbal FROM customer WHERE c_custkey = 99",
    "SELECT l_suppkey, l_quantity FROM lineitem WHERE l_suppkey = 17",
    "SELECT l_orderkey, l_partkey, l_quantity FROM lineitem \
     WHERE l_partkey = 555 AND l_quantity = 24",
];

/// Compares `actual` with the golden file at `path` (relative to the
/// package root) line by line, failing at the first line that differs and
/// then on a differing line count. With `GOLDEN_REGENERATE` set it writes
/// `actual` to the file instead.
pub fn assert_golden(path: &str, actual: &str) {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(path);
    if std::env::var_os("GOLDEN_REGENERATE").is_some() {
        std::fs::write(&path, actual).expect("write golden");
        return;
    }
    let golden = std::fs::read_to_string(&path).expect("golden file");
    for (line, (a, g)) in actual.lines().zip(golden.lines()).enumerate() {
        assert_eq!(a, g, "{}:{} differs", path.display(), line + 1);
    }
    let (a, g) = (actual.lines().count(), golden.lines().count());
    assert_eq!(a, g, "{} has {g} lines, the run {a}", path.display());
}
