//! Seeded input generation shared by the workloads.
//!
//! Everything the program under test sees is derived from `--seed` here or
//! in the workload's own `Inputs::generate`: SQL text, machine variants,
//! fleets, scenarios. Structure (how many tenants, which statement shapes,
//! which machine variants, how many VMs of which mix) is fixed; the seed
//! deals that fixed material out — literals, orders, assignments, noise
//! streams. Two seeds therefore ask equally *large* questions with different
//! *content*: the seed moves the answer, not the amount of work, which keeps
//! throughput comparable across seeds.

use dbvirt_tpch::TpchQuery;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hash::{Hash, Hasher};

/// An independent generator for one input stream of one seed.
pub fn rng(seed: u64, stream: u64) -> StdRng {
    StdRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ stream)
}

/// Deterministic hash of anything hashable (fingerprints and input hashes;
/// `DefaultHasher::new()` uses fixed keys, so values repeat across runs of
/// one build).
pub fn hash_of<T: Hash + ?Sized>(value: &T) -> u64 {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    value.hash(&mut h);
    h.finish()
}

/// Hash of a workload's generated inputs (through their `Debug` rendering,
/// which spells out every SQL string, spec and seed): recorded with each
/// result so two runs can show they were asked the same questions.
pub fn input_hash(inputs: &impl std::fmt::Debug) -> u64 {
    hash_of(&format!("{inputs:?}"))
}

/// Row counts of the key spaces a generated TPC-H database has at `scale`
/// (mirrors `dbvirt_tpch`'s sizing: keys are dense from 0).
#[derive(Debug, Clone, Copy)]
pub struct KeySpace {
    pub customers: i64,
    pub orders: i64,
    pub parts: i64,
}

impl KeySpace {
    pub fn at_scale(scale: f64) -> KeySpace {
        let customers = ((150_000.0 * scale) as i64).max(100);
        KeySpace {
            customers,
            orders: customers * 10,
            parts: ((200_000.0 * scale) as i64).max(200),
        }
    }
}

/// Lookup shapes `0..INDEXED_SHAPES` filter on columns the OSDB index set
/// covers (the deployed database can answer them by index); the remaining
/// shapes filter on `lineitem` columns without a stock index, which is what
/// gives the design advisor candidates to price.
pub const INDEXED_SHAPES: usize = 6;
pub const LOOKUP_SHAPES: usize = 8;

/// One selective lookup of the given shape as SQL text; the seed supplies
/// only the literals.
pub fn lookup_sql(shape: usize, r: &mut StdRng, keys: KeySpace) -> String {
    match shape % LOOKUP_SHAPES {
        0 => format!(
            "SELECT l_orderkey, l_quantity FROM lineitem WHERE l_orderkey = {}",
            r.gen_range(0..keys.orders)
        ),
        1 => format!(
            "SELECT l_partkey, l_extendedprice FROM lineitem WHERE l_partkey = {}",
            r.gen_range(0..keys.parts)
        ),
        2 => format!(
            "SELECT l_orderkey, l_extendedprice FROM lineitem WHERE l_orderkey IN ({}, {}, {})",
            r.gen_range(0..keys.orders),
            r.gen_range(0..keys.orders),
            r.gen_range(0..keys.orders)
        ),
        3 => format!(
            "SELECT o_orderkey, o_totalprice FROM orders WHERE o_custkey = {}",
            r.gen_range(0..keys.customers)
        ),
        4 => {
            let lo = r.gen_range(0..keys.orders - 24);
            format!(
                "SELECT o_orderkey, o_orderdate FROM orders \
                 WHERE o_orderkey >= {lo} AND o_orderkey < {}",
                lo + 24
            )
        }
        5 => format!(
            "SELECT c_custkey, c_name, c_acctbal FROM customer WHERE c_custkey = {}",
            r.gen_range(0..keys.customers)
        ),
        6 => format!(
            "SELECT l_suppkey, l_quantity FROM lineitem WHERE l_suppkey = {}",
            r.gen_range(0..(keys.parts / 20).max(10))
        ),
        _ => format!(
            "SELECT l_orderkey, l_partkey, l_quantity FROM lineitem \
             WHERE l_partkey = {} AND l_quantity = {}",
            r.gen_range(0..keys.parts),
            r.gen_range(1..=50)
        ),
    }
}

/// `n` lookups cycling through the first `shapes` shapes.
pub fn lookups(r: &mut StdRng, keys: KeySpace, n: usize, shapes: usize) -> Vec<String> {
    (0..n).map(|k| lookup_sql(k % shapes, r, keys)).collect()
}

/// `count` copies of a TPC-H query's SQL text.
pub fn repeat_query(q: TpchQuery, count: usize) -> Vec<String> {
    vec![q.sql().to_string(); count]
}

/// A random permutation of `0..n`.
pub fn permutation(r: &mut StdRng, n: usize) -> Vec<usize> {
    let mut p: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        p.swap(i, r.gen_range(0..=i));
    }
    p
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_are_reproducible_and_independent() {
        let a: Vec<u64> = (0..4).map(|_| rng(11, 1).gen_range(0..u64::MAX)).collect();
        assert!(a.windows(2).all(|w| w[0] == w[1]), "same seed, same stream");
        let x = rng(11, 1).gen_range(0..u64::MAX);
        assert_ne!(x, rng(11, 2).gen_range(0..u64::MAX));
        assert_ne!(x, rng(12, 1).gen_range(0..u64::MAX));
    }

    #[test]
    fn lookups_repeat_per_seed() {
        let keys = KeySpace::at_scale(0.01);
        let a = lookups(&mut rng(11, 7), keys, 40, LOOKUP_SHAPES);
        let b = lookups(&mut rng(11, 7), keys, 40, LOOKUP_SHAPES);
        let c = lookups(&mut rng(12, 7), keys, 40, LOOKUP_SHAPES);
        assert_eq!(hash_of(&a), hash_of(&b));
        assert_ne!(hash_of(&a), hash_of(&c));
    }

    #[test]
    fn permutation_is_a_permutation() {
        let mut p = permutation(&mut rng(3, 0), 17);
        p.sort_unstable();
        assert_eq!(p, (0..17).collect::<Vec<_>>());
    }
}
