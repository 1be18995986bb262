//! Column positions for every TPC-H table, so query plans read like the
//! spec instead of like magic numbers.

/// `region(r_regionkey, r_name, r_comment)`.
pub mod region {
    /// `r_regionkey`
    pub const REGIONKEY: usize = 0;
    /// `r_name`
    pub const NAME: usize = 1;
}

/// `nation(n_nationkey, n_name, n_regionkey, n_comment)`.
pub mod nation {
    /// `n_nationkey`
    pub(crate) const NATIONKEY: usize = 0;
    /// `n_name`
    pub const NAME: usize = 1;
    /// `n_regionkey`
    pub const REGIONKEY: usize = 2;
}

/// `supplier(s_suppkey, s_name, s_nationkey, s_acctbal)`.
pub mod supplier {
    /// `s_suppkey`
    pub const SUPPKEY: usize = 0;
    /// `s_name`
    pub const NAME: usize = 1;
    /// `s_nationkey`
    pub(crate) const NATIONKEY: usize = 2;
}

/// `customer(c_custkey, c_name, c_address, c_nationkey, c_phone, c_acctbal,
/// c_mktsegment, c_comment)`.
pub mod customer {
    /// `c_custkey`
    pub const CUSTKEY: usize = 0;
    /// `c_name`
    pub const NAME: usize = 1;
    /// `c_nationkey`
    pub(crate) const NATIONKEY: usize = 3;
}

/// `part(p_partkey, p_name, p_brand, p_type, p_size, p_retailprice)`.
pub mod part {
    /// `p_partkey`
    pub const PARTKEY: usize = 0;
    /// `p_name`
    pub const NAME: usize = 1;
    /// `p_size`
    pub const SIZE: usize = 4;
}

/// `partsupp(ps_partkey, ps_suppkey, ps_availqty, ps_supplycost)`.
pub mod partsupp {
    /// `ps_partkey`
    pub const PARTKEY: usize = 0;
    /// `ps_suppkey`
    pub const SUPPKEY: usize = 1;
    /// `ps_availqty`
    pub const AVAILQTY: usize = 2;
}

/// `orders(o_orderkey, o_custkey, o_orderstatus, o_totalprice, o_orderdate,
/// o_orderpriority, o_shippriority, o_comment)`.
pub mod orders {
    /// `o_orderkey`
    pub const ORDERKEY: usize = 0;
    /// `o_custkey`
    pub const CUSTKEY: usize = 1;
    /// `o_orderstatus`
    pub const ORDERSTATUS: usize = 2;
    /// `o_totalprice`
    pub const TOTALPRICE: usize = 3;
    /// `o_orderdate`
    pub(crate) const ORDERDATE: usize = 4;
    /// `o_orderpriority`
    pub const ORDERPRIORITY: usize = 5;
}

/// `lineitem(l_orderkey, l_partkey, l_suppkey, l_linenumber, l_quantity,
/// l_extendedprice, l_discount, l_tax, l_returnflag, l_linestatus,
/// l_shipdate, l_commitdate, l_receiptdate)`.
pub mod lineitem {
    /// `l_orderkey`
    pub const ORDERKEY: usize = 0;
    /// `l_partkey`
    pub const PARTKEY: usize = 1;
    /// `l_suppkey`
    pub const SUPPKEY: usize = 2;
    /// `l_quantity`
    pub const QUANTITY: usize = 4;
    /// `l_extendedprice`
    pub const EXTENDEDPRICE: usize = 5;
    /// `l_discount`
    pub const DISCOUNT: usize = 6;
    /// `l_returnflag`
    pub const RETURNFLAG: usize = 8;
    /// `l_linestatus`
    pub const LINESTATUS: usize = 9;
    /// `l_shipdate`
    pub const SHIPDATE: usize = 10;
}
