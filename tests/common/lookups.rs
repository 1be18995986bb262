//! The lookup statements the golden tests share; a file of its own so that
//! a crate's tests can include it by path without the rest of `common`.

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
