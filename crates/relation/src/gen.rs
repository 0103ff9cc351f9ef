//! TPC-H-shaped synthetic database generator.
//!
//! The paper trains and evaluates on TPC-H / TPC-DS data between 1 GB and
//! 400 GB. We generate the eight TPC-H tables with the standard row-count
//! ratios, down-scaled by [`crate::SCALE_DOWN`], and with *controllable key
//! distributions* (uniform / Zipf-skewed foreign keys, clustered / random row
//! layout) so that every selectivity-estimation code path of §3 — including
//! the clustered-vs-random `S_comb` cases of Eq. 2 and the skewed-join
//! buckets of Eq. 5 — is exercised by real data.

use crate::dist::Zipf;
use crate::exec::gather;
use crate::parallel::{available_threads, run_claiming};
use crate::schema::{ColumnDef, DataType, Schema};
use crate::stats::{
    gather_catalog, Catalog, HistogramKind, DEFAULT_BUCKETS, PARALLEL_GATHER_MIN_CELLS,
};
use crate::table::{Column, Table};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::sync::Mutex;

/// Distribution of foreign-key columns in the fact tables.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum KeyDist {
    /// Keys drawn uniformly from the referenced domain.
    Uniform,
    /// Keys drawn Zipf(alpha); hot keys concentrate join/groupby mass.
    Zipf(f64),
}

/// Physical row order of the fact tables, which determines how effective a
/// map-side combiner is (paper Eq. 2: clustered vs randomly distributed
/// group-by keys).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layout {
    /// Rows sorted by their primary grouping key: a combiner sees each key in
    /// one map split only.
    Clustered,
    /// Rows in random order: every map split sees (almost) every hot key.
    Random,
}

/// Generator configuration.
#[derive(Debug, Clone)]
pub struct GenConfig {
    /// Nominal scale factor in "paper gigabytes" (fractional allowed).
    pub scale_gb: f64,
    /// RNG seed: same seed, same database.
    pub seed: u64,
    /// Distribution of fact-table foreign keys.
    pub key_dist: KeyDist,
    /// Physical row order of the fact tables.
    pub layout: Layout,
    /// Histogram buckets used when gathering catalog statistics.
    pub buckets: usize,
    /// Histogram family gathered into the catalog.
    pub hist_kind: HistogramKind,
}

impl GenConfig {
    /// Defaults: uniform keys, random layout, 64 equi-width buckets.
    pub fn new(scale_gb: f64) -> Self {
        Self {
            scale_gb,
            seed: 42,
            key_dist: KeyDist::Uniform,
            layout: Layout::Random,
            buckets: DEFAULT_BUCKETS,
            hist_kind: HistogramKind::EquiWidth,
        }
    }

    /// Set the generator seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Set the foreign-key distribution.
    pub fn with_key_dist(mut self, d: KeyDist) -> Self {
        self.key_dist = d;
        self
    }

    /// Set the fact-table row layout.
    pub fn with_layout(mut self, l: Layout) -> Self {
        self.layout = l;
        self
    }

    /// Set the histogram bucket count gathered into the catalog.
    pub fn with_buckets(mut self, b: usize) -> Self {
        self.buckets = b;
        self
    }

    /// Set the histogram family gathered into the catalog.
    pub fn with_hist_kind(mut self, k: HistogramKind) -> Self {
        self.hist_kind = k;
        self
    }
}

/// A generated database instance: materialized tables plus gathered catalog.
#[derive(Debug, Clone)]
pub struct Database {
    /// The configuration this instance was generated with.
    pub config: GenConfig,
    tables: HashMap<String, Table>,
    catalog: Catalog,
}

impl Database {
    /// Look up a materialized table by name.
    pub fn table(&self, name: &str) -> Option<&Table> {
        self.tables.get(name)
    }

    /// The gathered metastore statistics.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// All table names, sorted.
    pub fn table_names(&self) -> Vec<&str> {
        let mut v: Vec<&str> = self.tables.keys().map(String::as_str).collect();
        v.sort_unstable();
        v
    }
}

/// Date domain: days since 1992-01-01, seven years.
pub const DATE_MIN: i64 = 0;
/// Last representable day (end of 1998).
pub const DATE_MAX: i64 = 7 * 365;

/// Convert `YYYY-MM-DD` within 1992..=1998 into our day encoding (approximate
/// 30.4-day months are fine: predicate constants and data use the same map).
pub fn encode_date(y: i64, m: i64, d: i64) -> i64 {
    ((y - 1992) * 365 + (m - 1) * 304 / 10 + (d - 1)).clamp(DATE_MIN, DATE_MAX)
}

const SEGMENTS: [&str; 5] = ["BUILDING", "AUTOMOBILE", "MACHINERY", "HOUSEHOLD", "FURNITURE"];
const PRIORITIES: [&str; 5] = ["1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW"];
const SHIPMODES: [&str; 7] = ["REG AIR", "AIR", "RAIL", "SHIP", "TRUCK", "MAIL", "FOB"];
const RETURNFLAGS: [&str; 3] = ["A", "N", "R"];
const STATUSES: [&str; 3] = ["F", "O", "P"];
const REGIONS: [&str; 5] = ["AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"];
const NATIONS: [&str; 25] = [
    "ALGERIA",
    "ARGENTINA",
    "BRAZIL",
    "CANADA",
    "EGYPT",
    "ETHIOPIA",
    "FRANCE",
    "GERMANY",
    "INDIA",
    "INDONESIA",
    "IRAN",
    "IRAQ",
    "JAPAN",
    "JORDAN",
    "KENYA",
    "MOROCCO",
    "MOZAMBIQUE",
    "PERU",
    "CHINA",
    "ROMANIA",
    "SAUDI ARABIA",
    "VIETNAM",
    "RUSSIA",
    "UNITED KINGDOM",
    "UNITED STATES",
];

fn dict_of(names: &[&str]) -> HashMap<String, i64> {
    names.iter().enumerate().map(|(i, n)| (n.to_string(), i as i64)).collect()
}

/// Per-table row counts for a given nominal scale (already down-scaled).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RowCounts {
    /// `supplier` rows.
    pub supplier: usize,
    /// `customer` rows.
    pub customer: usize,
    /// `part` rows.
    pub part: usize,
    /// `partsupp` rows.
    pub partsupp: usize,
    /// `orders` rows.
    pub orders: usize,
    /// `lineitem` rows (the dominant fact table).
    pub lineitem: usize,
}

/// TPC-H row-count ratios at 1/[`crate::SCALE_DOWN`] scale with small-table
/// floors so tiny scale factors still produce meaningful joins. The result
/// is meaningless for a scale [`checked_row_counts`] refuses.
fn row_counts(scale_gb: f64) -> RowCounts {
    let s = scale_gb.max(0.01);
    RowCounts {
        supplier: ((10.0 * s).round() as usize).max(25),
        customer: ((150.0 * s).round() as usize).max(100),
        part: ((200.0 * s).round() as usize).max(100),
        partsupp: ((800.0 * s).round() as usize).max(400),
        orders: ((1500.0 * s).round() as usize).max(500),
        lineitem: ((6000.0 * s).round() as usize).max(2000),
    }
}

/// Most rows any generated table may have: a row number is an `Int` value
/// (`i32`) and a row index a `u32`.
pub const MAX_ROWS: usize = i32::MAX as usize;

/// The [`RowCounts`] of `scale_gb`, or why no instance can be generated
/// at it: the scale must be finite and positive, and no table may have
/// more than [`MAX_ROWS`] rows.
pub fn checked_row_counts(scale_gb: f64) -> Result<RowCounts, String> {
    if !(scale_gb.is_finite() && scale_gb > 0.0) {
        return Err(format!("scale {scale_gb} GB is not a finite positive number"));
    }
    let rc = row_counts(scale_gb);
    let rows = [rc.supplier, rc.customer, rc.part, rc.partsupp, rc.orders, rc.lineitem];
    let largest = rows.into_iter().max().unwrap_or(0);
    if largest > MAX_ROWS {
        return Err(format!(
            "scale {scale_gb} GB needs {largest} rows in one table, over the {MAX_ROWS} a table may have"
        ));
    }
    Ok(rc)
}

/// Cells (rows × columns) of the instance `rc` describes, known before
/// anything is drawn.
fn cells(rc: &RowCounts) -> usize {
    5 * 2
        + 25 * 3
        + rc.supplier * 4
        + rc.customer * 5
        + rc.part * 7
        + rc.partsupp * 4
        + rc.orders * 6
        + rc.lineitem * 12
}

/// Generate a full database instance.
///
/// Tables take consecutive stretches of one RNG stream in a fixed order.
/// Instances of at least 2^20 cells (rows × columns) fill `lineitem` and
/// build their column histograms on every available core; the data and
/// the catalog are the same either way.
///
/// # Panics
/// Panics if [`checked_row_counts`] refuses the configured scale.
pub fn generate(config: GenConfig) -> Database {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let rc = checked_row_counts(config.scale_gb).unwrap_or_else(|e| panic!("{e}"));
    let threads = if cells(&rc) < PARALLEL_GATHER_MIN_CELLS { 1 } else { available_threads() };
    // A `vec!` evaluates left to right: the draw order is the table order.
    let tables = vec![
        gen_region(),
        gen_nation(&mut rng),
        gen_supplier(rc.supplier, &mut rng),
        gen_customer(rc.customer, &mut rng),
        gen_part(rc.part, &mut rng),
        gen_partsupp(rc.partsupp, rc.part, rc.supplier, config.key_dist, &mut rng),
        gen_orders(rc.orders, rc.customer, &mut rng),
        gen_lineitem(rc.lineitem, rc.orders, rc.part, rc.supplier, &config, threads, &mut rng),
    ];
    let catalog = gather_catalog(&tables, config.buckets, config.hist_kind, threads);
    let tables = tables.into_iter().map(|t| (t.name().to_string(), t)).collect();
    Database { config, tables, catalog }
}

/// A drawn `i64` as a stored Int value. Draws are `i64`s, which keeps the
/// RNG stream independent of the storage width; every value fits at a
/// scale [`checked_row_counts`] accepts.
fn narrow(v: i64) -> i32 {
    i32::try_from(v).unwrap_or_else(|_| panic!("Int value {v} does not fit in 32 bits"))
}

/// An Int column of drawn `i64`s.
fn ints(values: impl Iterator<Item = i64>) -> Column {
    Column::Int(values.map(narrow).collect())
}

/// The Int column `0..n`: row numbers.
fn row_numbers(n: usize) -> Column {
    ints(0..n as i64)
}

/// Foreign keys into a table of `n` rows, drawn as [`KeyDist`] says. Each
/// key takes one word of the stream.
enum FkSampler {
    Uniform(i64),
    Zipf(Zipf),
}

impl FkSampler {
    fn new(dist: KeyDist, n: usize) -> Self {
        match dist {
            KeyDist::Uniform => Self::Uniform(n as i64),
            KeyDist::Zipf(a) => Self::Zipf(Zipf::new(n as u64, a)),
        }
    }

    fn sample(&self, rng: &mut StdRng) -> i64 {
        match self {
            Self::Uniform(n) => rng.gen_range(0..*n),
            Self::Zipf(z) => (z.sample(rng) - 1) as i64,
        }
    }
}

fn gen_region() -> Table {
    let schema = Schema::new(vec![
        ColumnDef::new("r_regionkey", DataType::Int),
        ColumnDef::new("r_name", DataType::Str { avg_width: 12 }),
    ]);
    let mut t = Table::new("region", schema, vec![row_numbers(5), row_numbers(5)]);
    t.set_dict("r_name", dict_of(&REGIONS));
    t
}

fn gen_nation(rng: &mut StdRng) -> Table {
    let schema = Schema::new(vec![
        ColumnDef::new("n_nationkey", DataType::Int),
        ColumnDef::new("n_name", DataType::Str { avg_width: 14 }),
        ColumnDef::new("n_regionkey", DataType::Int),
    ]);
    let regions = ints((0..25).map(|_| rng.gen_range(0..5)));
    let mut t = Table::new("nation", schema, vec![row_numbers(25), row_numbers(25), regions]);
    t.set_dict("n_name", dict_of(&NATIONS));
    t
}

fn gen_supplier(n: usize, rng: &mut StdRng) -> Table {
    let schema = Schema::new(vec![
        ColumnDef::new("s_suppkey", DataType::Int),
        ColumnDef::new("s_name", DataType::Str { avg_width: 18 }),
        ColumnDef::new("s_nationkey", DataType::Int),
        ColumnDef::new("s_acctbal", DataType::Float),
    ]);
    Table::new(
        "supplier",
        schema,
        vec![
            row_numbers(n),
            row_numbers(n),
            ints((0..n).map(|_| rng.gen_range(0..25))),
            Column::Float((0..n).map(|_| rng.gen_range(-999.0..9999.0)).collect()),
        ],
    )
}

fn gen_customer(n: usize, rng: &mut StdRng) -> Table {
    let schema = Schema::new(vec![
        ColumnDef::new("c_custkey", DataType::Int),
        ColumnDef::new("c_name", DataType::Str { avg_width: 18 }),
        ColumnDef::new("c_nationkey", DataType::Int),
        ColumnDef::new("c_acctbal", DataType::Float),
        ColumnDef::new("c_mktsegment", DataType::Str { avg_width: 10 }),
    ]);
    let mut t = Table::new(
        "customer",
        schema,
        vec![
            row_numbers(n),
            row_numbers(n),
            ints((0..n).map(|_| rng.gen_range(0..25))),
            Column::Float((0..n).map(|_| rng.gen_range(-999.0..9999.0)).collect()),
            ints((0..n).map(|_| rng.gen_range(0..SEGMENTS.len() as i64))),
        ],
    );
    t.set_dict("c_mktsegment", dict_of(&SEGMENTS));
    t
}

fn gen_part(n: usize, rng: &mut StdRng) -> Table {
    let schema = Schema::new(vec![
        ColumnDef::new("p_partkey", DataType::Int),
        ColumnDef::new("p_name", DataType::Str { avg_width: 32 }),
        ColumnDef::new("p_brand", DataType::Str { avg_width: 10 }),
        ColumnDef::new("p_type", DataType::Str { avg_width: 20 }),
        ColumnDef::new("p_size", DataType::Int),
        ColumnDef::new("p_container", DataType::Str { avg_width: 10 }),
        ColumnDef::new("p_retailprice", DataType::Float),
    ]);
    let brands: Vec<String> =
        (1..=5).flat_map(|a| (1..=5).map(move |b| format!("Brand#{a}{b}"))).collect();
    let brand_refs: Vec<&str> = brands.iter().map(String::as_str).collect();
    let containers: Vec<String> = ["SM", "MED", "LG", "JUMBO", "WRAP"]
        .iter()
        .flat_map(|s| {
            ["CASE", "BOX", "BAG", "JAR", "PKG", "PACK", "CAN", "DRUM"]
                .iter()
                .map(move |c| format!("{s} {c}"))
        })
        .collect();
    let container_refs: Vec<&str> = containers.iter().map(String::as_str).collect();
    let types: Vec<String> = ["STANDARD", "SMALL", "MEDIUM", "LARGE", "ECONOMY", "PROMO"]
        .iter()
        .flat_map(|a| {
            ["ANODIZED", "BURNISHED", "PLATED", "POLISHED", "BRUSHED"].iter().flat_map(move |b| {
                ["TIN", "NICKEL", "BRASS", "STEEL", "COPPER"]
                    .iter()
                    .map(move |c| format!("{a} {b} {c}"))
            })
        })
        .collect();
    let type_refs: Vec<&str> = types.iter().map(String::as_str).collect();
    let mut t = Table::new(
        "part",
        schema,
        vec![
            row_numbers(n),
            row_numbers(n),
            ints((0..n).map(|_| rng.gen_range(0..brand_refs.len() as i64))),
            ints((0..n).map(|_| rng.gen_range(0..type_refs.len() as i64))),
            ints((0..n).map(|_| rng.gen_range(1..51))),
            ints((0..n).map(|_| rng.gen_range(0..container_refs.len() as i64))),
            Column::Float((0..n).map(|_| rng.gen_range(900.0..2100.0)).collect()),
        ],
    );
    t.set_dict("p_brand", dict_of(&brand_refs));
    t.set_dict("p_container", dict_of(&container_refs));
    t.set_dict("p_type", dict_of(&type_refs));
    t
}

fn gen_partsupp(
    n: usize,
    parts: usize,
    suppliers: usize,
    dist: KeyDist,
    rng: &mut StdRng,
) -> Table {
    let schema = Schema::new(vec![
        ColumnDef::new("ps_partkey", DataType::Int),
        ColumnDef::new("ps_suppkey", DataType::Int),
        ColumnDef::new("ps_availqty", DataType::Int),
        ColumnDef::new("ps_supplycost", DataType::Float),
    ]);
    let part_fk = FkSampler::new(dist, parts);
    // Every part gets at least one supplier row where possible so
    // referential-integrity-style joins behave like TPC-H.
    let mut pk: Vec<i32> =
        (0..n).map(|i| narrow(if i < parts { i as i64 } else { part_fk.sample(rng) })).collect();
    // Shuffle so clustering is not accidental.
    for i in (1..pk.len()).rev() {
        pk.swap(i, rng.gen_range(0..=i));
    }
    Table::new(
        "partsupp",
        schema,
        vec![
            Column::Int(pk),
            ints((0..n).map(|_| rng.gen_range(0..suppliers as i64))),
            ints((0..n).map(|_| rng.gen_range(1..10_000))),
            Column::Float((0..n).map(|_| rng.gen_range(1.0..1000.0)).collect()),
        ],
    )
}

fn gen_orders(n: usize, customers: usize, rng: &mut StdRng) -> Table {
    let schema = Schema::new(vec![
        ColumnDef::new("o_orderkey", DataType::Int),
        ColumnDef::new("o_custkey", DataType::Int),
        ColumnDef::new("o_orderstatus", DataType::Str { avg_width: 4 }),
        ColumnDef::new("o_totalprice", DataType::Float),
        ColumnDef::new("o_orderdate", DataType::Int),
        ColumnDef::new("o_orderpriority", DataType::Str { avg_width: 12 }),
    ]);
    let mut t = Table::new(
        "orders",
        schema,
        vec![
            row_numbers(n),
            ints((0..n).map(|_| rng.gen_range(0..customers as i64))),
            ints((0..n).map(|_| rng.gen_range(0..STATUSES.len() as i64))),
            Column::Float((0..n).map(|_| rng.gen_range(1000.0..500_000.0)).collect()),
            ints((0..n).map(|_| rng.gen_range(DATE_MIN..=DATE_MAX))),
            ints((0..n).map(|_| rng.gen_range(0..PRIORITIES.len() as i64))),
        ],
    );
    t.set_dict("o_orderstatus", dict_of(&STATUSES));
    t.set_dict("o_orderpriority", dict_of(&PRIORITIES));
    t
}

/// `lineitem` rows filled per claimed chunk. A constant, so a chunk's
/// rows and stream offset do not depend on the thread count.
const LINEITEM_CHUNK_ROWS: usize = 1 << 15;

/// Words of the stream one `lineitem` row takes: one per sampler call.
const LINEITEM_WORDS_PER_ROW: u64 = 12;

/// One chunk of `lineitem`'s rows: its nine Int columns and its three
/// Float ones, each group in schema order.
struct LineitemChunk<'a> {
    ints: [&'a mut [i32]; 9],
    floats: [&'a mut [f64]; 3],
}

/// Fill `chunk`'s rows from `rng`, which stands at the chunk's first word.
fn fill_lineitem(
    chunk: &mut LineitemChunk,
    orders: i64,
    part_fk: &FkSampler,
    suppliers: i64,
    rng: &mut StdRng,
) {
    let [orderkey, partkey, suppkey, qty, flag, status, shipdate, receipt, shipmode] =
        &mut chunk.ints;
    let [price, discount, tax] = &mut chunk.floats;
    // The draw order is part of the data (pinned by the generator's
    // fingerprint test): per row, the ship date, then schema order.
    for r in 0..orderkey.len() {
        let ship = rng.gen_range(DATE_MIN..=DATE_MAX);
        orderkey[r] = narrow(rng.gen_range(0..orders));
        partkey[r] = narrow(part_fk.sample(rng));
        suppkey[r] = narrow(rng.gen_range(0..suppliers));
        qty[r] = narrow(rng.gen_range(1..51));
        price[r] = rng.gen_range(900.0..105_000.0);
        discount[r] = rng.gen_range(0.0..0.11);
        tax[r] = rng.gen_range(0.0..0.09);
        flag[r] = narrow(rng.gen_range(0..RETURNFLAGS.len() as i64));
        status[r] = narrow(rng.gen_range(0..2));
        shipdate[r] = narrow(ship);
        receipt[r] = narrow((ship + rng.gen_range(1..31)).min(DATE_MAX));
        shipmode[r] = narrow(rng.gen_range(0..SHIPMODES.len() as i64));
    }
}

/// Every sampler call takes exactly one word of the stream, so row `i`
/// starts `LINEITEM_WORDS_PER_ROW · i` words after `rng`'s state on entry.
/// The columns are allocated zeroed, and `threads` workers fill fixed-size
/// row chunks in place, each from a generator jumped to its first word.
/// `rng` is left past every row.
fn gen_lineitem(
    n: usize,
    orders: usize,
    parts: usize,
    suppliers: usize,
    config: &GenConfig,
    threads: usize,
    rng: &mut StdRng,
) -> Table {
    let schema = Schema::new(vec![
        ColumnDef::new("l_orderkey", DataType::Int),
        ColumnDef::new("l_partkey", DataType::Int),
        ColumnDef::new("l_suppkey", DataType::Int),
        ColumnDef::new("l_quantity", DataType::Int),
        ColumnDef::new("l_extendedprice", DataType::Float),
        ColumnDef::new("l_discount", DataType::Float),
        ColumnDef::new("l_tax", DataType::Float),
        ColumnDef::new("l_returnflag", DataType::Str { avg_width: 2 }),
        ColumnDef::new("l_linestatus", DataType::Str { avg_width: 2 }),
        ColumnDef::new("l_shipdate", DataType::Int),
        ColumnDef::new("l_receiptdate", DataType::Int),
        ColumnDef::new("l_shipmode", DataType::Str { avg_width: 8 }),
    ]);
    let part_fk = FkSampler::new(config.key_dist, parts);
    let mut ints: [Vec<i32>; 9] = std::array::from_fn(|_| vec![0; n]);
    let mut floats: [Vec<f64>; 3] = std::array::from_fn(|_| vec![0.0; n]);
    {
        let mut int_chunks = ints.each_mut().map(|c| c.chunks_mut(LINEITEM_CHUNK_ROWS));
        let mut float_chunks = floats.each_mut().map(|c| c.chunks_mut(LINEITEM_CHUNK_ROWS));
        let chunks: Vec<Mutex<LineitemChunk>> = (0..n.div_ceil(LINEITEM_CHUNK_ROWS))
            .map(|_| {
                Mutex::new(LineitemChunk {
                    ints: int_chunks.each_mut().map(|c| c.next().expect("a chunk per column")),
                    floats: float_chunks.each_mut().map(|c| c.next().expect("a chunk per column")),
                })
            })
            .collect();
        let start = rng.clone();
        let fill = |c: usize| {
            let mut chunk = chunks[c].lock().expect("each chunk is locked once, so never poisoned");
            let mut rng = start.clone();
            rng.jump(LINEITEM_WORDS_PER_ROW * (c * LINEITEM_CHUNK_ROWS) as u64);
            fill_lineitem(&mut chunk, orders as i64, &part_fk, suppliers as i64, &mut rng);
        };
        for outcome in run_claiming(chunks.len(), threads, fill) {
            outcome.unwrap_or_else(|e| panic!("{e}"));
        }
    }
    rng.jump(LINEITEM_WORDS_PER_ROW * n as u64);
    let [orderkey, partkey, suppkey, qty, flag, status, shipdate, receipt, shipmode] = ints;
    let [price, discount, tax] = floats;
    let mut columns = vec![
        Column::Int(orderkey),
        Column::Int(partkey),
        Column::Int(suppkey),
        Column::Int(qty),
        Column::Float(price),
        Column::Float(discount),
        Column::Float(tax),
        Column::Int(flag),
        Column::Int(status),
        Column::Int(shipdate),
        Column::Int(receipt),
        Column::Int(shipmode),
    ];
    if config.layout == Layout::Clustered {
        // Clustered on l_partkey: each key's tuples are contiguous, so a
        // map-side combiner sees each group inside one split (Eq. 2 case 1).
        // Stable: ties keep row order, which the pinned layout relies on.
        let pk = columns[1].as_int().expect("l_partkey is Int");
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by_key(|&i| pk[i]);
        columns = columns.iter().map(|c| gather(c, order.iter().copied())).collect();
    }
    let mut t = Table::new("lineitem", schema, columns);
    t.set_dict("l_returnflag", dict_of(&RETURNFLAGS));
    t.set_dict("l_linestatus", dict_of(&["F", "O"]));
    t.set_dict("l_shipmode", dict_of(&SHIPMODES));
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{CmpOp, Predicate};
    use rand::RngCore;

    #[test]
    fn generates_all_eight_tables() {
        let db = generate(GenConfig::new(1.0));
        assert_eq!(
            db.table_names(),
            vec![
                "customer", "lineitem", "nation", "orders", "part", "partsupp", "region",
                "supplier"
            ]
        );
        assert_eq!(db.catalog().len(), 8);
    }

    #[test]
    fn row_counts_scale_linearly() {
        let a = row_counts(10.0);
        let b = row_counts(100.0);
        assert_eq!(a.lineitem, 60_000);
        assert_eq!(b.lineitem, 600_000);
        assert_eq!(b.orders, 10 * a.orders);
    }

    #[test]
    fn small_scale_has_floors() {
        let rc = row_counts(0.05);
        assert!(rc.lineitem >= 2000);
        assert!(rc.supplier >= 25);
    }

    #[test]
    fn only_finite_positive_scales_are_generated() {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 0.0, -0.0, -4.0] {
            assert!(checked_row_counts(bad).is_err(), "{bad}");
        }
        assert_eq!(checked_row_counts(1e-300), Ok(row_counts(0.01)));
        assert_eq!(checked_row_counts(400.0), Ok(row_counts(400.0)));
    }

    /// `lineitem`, the largest table, has `6000 × scale` rows: the limit
    /// is the scale giving exactly `MAX_ROWS` of them. Checked on the
    /// function alone, as such an instance would take ~100 GB.
    #[test]
    fn row_counts_stop_at_the_largest_table() {
        let lineitem = |rows: usize| checked_row_counts(rows as f64 / 6000.0).map(|rc| rc.lineitem);
        assert_eq!(lineitem(MAX_ROWS - 1), Ok(MAX_ROWS - 1));
        assert_eq!(lineitem(MAX_ROWS), Ok(MAX_ROWS));
        assert!(lineitem(MAX_ROWS + 1).is_err());
        assert!(lineitem(u32::MAX as usize + 1).is_err());
    }

    #[test]
    #[should_panic(expected = "not a finite positive number")]
    fn generating_a_refused_scale_panics() {
        generate(GenConfig::new(f64::NAN));
    }

    #[test]
    fn foreign_keys_reference_valid_domains() {
        let db = generate(GenConfig::new(0.5).with_seed(9));
        let li = db.table("lineitem").unwrap();
        let orders = db.table("orders").unwrap().rows() as i32;
        let ok = li.column("l_orderkey").unwrap().as_int().unwrap();
        assert!(ok.iter().all(|&k| (0..orders).contains(&k)));
        let parts = db.table("part").unwrap().rows() as i32;
        let pk = li.column("l_partkey").unwrap().as_int().unwrap();
        assert!(pk.iter().all(|&k| (0..parts).contains(&k)));
    }

    #[test]
    fn zipf_keys_are_skewed() {
        let uni = generate(GenConfig::new(1.0).with_key_dist(KeyDist::Uniform));
        let skew = generate(GenConfig::new(1.0).with_key_dist(KeyDist::Zipf(1.2)));
        let hot = |db: &Database| {
            let li = db.table("lineitem").unwrap();
            let pk = li.column("l_partkey").unwrap().as_int().unwrap();
            pk.iter().filter(|&&k| k < 5).count() as f64 / pk.len() as f64
        };
        assert!(hot(&skew) > 5.0 * hot(&uni), "skew {} uni {}", hot(&skew), hot(&uni));
    }

    #[test]
    fn clustered_layout_sorts_partkey() {
        let db = generate(GenConfig::new(0.5).with_layout(Layout::Clustered));
        let pk = db.table("lineitem").unwrap().column("l_partkey").unwrap().as_int().unwrap();
        assert!(pk.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn dictionary_predicates_select_rows() {
        let db = generate(GenConfig::new(0.2).with_seed(3));
        let nation = db.table("nation").unwrap();
        let code = nation.dict_code("n_name", "CHINA");
        assert!(code >= 0);
        let p = Predicate::cmp("n_name", CmpOp::Ne, code as f64);
        let kept = p.bind(nation).selected().len();
        assert_eq!(kept, 24); // 24 of 25 nations survive n_name <> 'CHINA'.
    }

    #[test]
    fn date_encoding_monotone() {
        assert!(encode_date(1994, 3, 1) > encode_date(1994, 2, 1));
        assert!(encode_date(1995, 1, 1) > encode_date(1994, 12, 31));
        assert_eq!(encode_date(1992, 1, 1), 0);
    }

    /// The thread rule is decided from the row counts, before drawing; it
    /// must count the cells the drawn tables have.
    #[test]
    fn cells_are_counted_before_drawing() {
        for scale in [0.01, 0.3, 15.0] {
            let db = generate(GenConfig::new(scale));
            let drawn: usize = db.tables.values().map(|t| t.rows() * t.schema().len()).sum();
            assert_eq!(cells(&row_counts(scale)), drawn, "scale {scale}");
        }
    }

    /// Every sampler call `fill_lineitem` makes advances the stream by
    /// exactly one word, whatever the word: the chunk offsets rely on it.
    #[test]
    fn lineitem_samplers_draw_one_word_each() {
        let (uniform, zipf) =
            (FkSampler::new(KeyDist::Uniform, 300), FkSampler::new(KeyDist::Zipf(1.2), 300));
        type Draw<'a> = Box<dyn Fn(&mut StdRng) + 'a>;
        let samplers: Vec<(&str, Draw)> = vec![
            ("ship date", Box::new(|r| _ = r.gen_range(DATE_MIN..=DATE_MAX))),
            ("orderkey", Box::new(|r| _ = r.gen_range(0..900_000i64))),
            ("uniform partkey", Box::new(|r| _ = uniform.sample(r))),
            ("zipf partkey", Box::new(|r| _ = zipf.sample(r))),
            ("suppkey", Box::new(|r| _ = r.gen_range(0..40i64))),
            ("quantity", Box::new(|r| _ = r.gen_range(1..51i64))),
            ("price", Box::new(|r| _ = r.gen_range(900.0..105_000.0))),
            ("discount", Box::new(|r| _ = r.gen_range(0.0..0.11))),
            ("tax", Box::new(|r| _ = r.gen_range(0.0..0.09))),
            ("flag", Box::new(|r| _ = r.gen_range(0..RETURNFLAGS.len() as i64))),
            ("status", Box::new(|r| _ = r.gen_range(0..2i64))),
            ("receipt lag", Box::new(|r| _ = r.gen_range(1..31i64))),
            ("ship mode", Box::new(|r| _ = r.gen_range(0..SHIPMODES.len() as i64))),
        ];
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..2_000 {
            for (name, draw) in &samplers {
                let mut one_word = rng.clone();
                one_word.next_u64();
                draw(&mut rng);
                assert_eq!(rng.state(), one_word.state(), "{name}");
            }
        }
    }

    /// A jump by `k` words leaves the state `k` calls to `next_u64` would.
    #[test]
    fn a_jump_skips_that_many_words() {
        let mut walked = StdRng::seed_from_u64(8);
        let mut at = 0u64;
        for k in [0, 1, 2, 12, 1_000, LINEITEM_WORDS_PER_ROW * LINEITEM_CHUNK_ROWS as u64 * 3] {
            while at < k {
                walked.next_u64();
                at += 1;
            }
            let mut jumped = StdRng::seed_from_u64(8);
            jumped.jump(k);
            assert_eq!(jumped.state(), walked.state(), "k = {k}");
            assert_eq!(jumped.clone().next_u64(), walked.clone().next_u64(), "k = {k}");
        }
    }

    /// An integer range takes its word modulo the span on `u64`, which
    /// gives what the modulo on `u128` does; the full inclusive 64-bit
    /// span keeps the raw word.
    #[test]
    fn u64_modulo_matches_u128_modulo() {
        let mut rng = StdRng::seed_from_u64(21);
        for _ in 0..1_000 {
            for span in [1, 2, 3, 1 << 32, 1 << 63, u64::MAX] {
                let word = rng.clone().next_u64();
                let want = (u128::from(word) % u128::from(span)) as u64;
                assert_eq!(rng.gen_range(0..span), want, "span {span}");
            }
            let word = rng.clone().next_u64();
            let want = (i128::from(i64::MIN) + (u128::from(word) % (1u128 << 64)) as i128) as i64;
            assert_eq!(rng.gen_range(i64::MIN..=i64::MAX), want, "full i64 range");
        }
    }

    /// The row-at-a-time loop the chunked fill replaced, kept as its
    /// oracle: one stream, row after row, then the clustered sort.
    fn serial_lineitem(
        n: usize,
        (orders, parts, suppliers): (usize, usize, usize),
        config: &GenConfig,
        rng: &mut StdRng,
    ) -> Vec<Column> {
        let part_fk = FkSampler::new(config.key_dist, parts);
        let mut ints: [Vec<i32>; 9] = Default::default();
        let mut floats: [Vec<f64>; 3] = Default::default();
        for _ in 0..n {
            let ship = rng.gen_range(DATE_MIN..=DATE_MAX);
            let orderkey = rng.gen_range(0..orders as i64);
            let partkey = part_fk.sample(rng);
            let suppkey = rng.gen_range(0..suppliers as i64);
            let qty = rng.gen_range(1..51);
            for (col, lo, hi) in [(0, 900.0, 105_000.0), (1, 0.0, 0.11), (2, 0.0, 0.09)] {
                floats[col].push(rng.gen_range(lo..hi));
            }
            let flag = rng.gen_range(0..RETURNFLAGS.len() as i64);
            let status = rng.gen_range(0..2);
            let receipt = (ship + rng.gen_range(1..31)).min(DATE_MAX);
            let shipmode = rng.gen_range(0..SHIPMODES.len() as i64);
            let row = [orderkey, partkey, suppkey, qty, flag, status, ship, receipt, shipmode];
            for (col, v) in ints.iter_mut().zip(row) {
                col.push(narrow(v));
            }
        }
        let [orderkey, partkey, suppkey, qty, flag, status, ship, receipt, shipmode] = ints;
        let [price, discount, tax] = floats;
        let columns = vec![
            Column::Int(orderkey),
            Column::Int(partkey),
            Column::Int(suppkey),
            Column::Int(qty),
            Column::Float(price),
            Column::Float(discount),
            Column::Float(tax),
            Column::Int(flag),
            Column::Int(status),
            Column::Int(ship),
            Column::Int(receipt),
            Column::Int(shipmode),
        ];
        if config.layout == Layout::Random {
            return columns;
        }
        let pk = columns[1].as_int().unwrap();
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by_key(|&i| pk[i]);
        columns.iter().map(|c| gather(c, order.iter().copied())).collect()
    }

    /// `lineitem` is the serial loop's, and leaves the stream where the
    /// loop does, at 1, 2 and 4 workers, for both key distributions and
    /// layouts, on one chunk short of full and on a partial last chunk.
    #[test]
    fn lineitem_is_the_same_at_any_thread_count() {
        let domains = (900, 300, 40);
        for key_dist in [KeyDist::Uniform, KeyDist::Zipf(1.2)] {
            for layout in [Layout::Random, Layout::Clustered] {
                let config = GenConfig::new(1.0).with_key_dist(key_dist).with_layout(layout);
                for n in [LINEITEM_CHUNK_ROWS - 1, 2 * LINEITEM_CHUNK_ROWS + 1_000] {
                    let mut oracle_rng = StdRng::seed_from_u64(11);
                    let want = serial_lineitem(n, domains, &config, &mut oracle_rng);
                    for threads in [1, 2, 4] {
                        let mut rng = StdRng::seed_from_u64(11);
                        let (orders, parts, suppliers) = domains;
                        let t =
                            gen_lineitem(n, orders, parts, suppliers, &config, threads, &mut rng);
                        let case = format!("{key_dist:?} {layout:?} {n} rows, {threads} threads");
                        for (i, col) in want.iter().enumerate() {
                            assert!(t.column_at(i) == col, "column {i}: {case}");
                        }
                        assert_eq!(rng.state(), oracle_rng.state(), "{case}");
                    }
                }
            }
        }
    }

    #[test]
    fn catalog_stats_match_tables() {
        let db = generate(GenConfig::new(0.3));
        for name in db.table_names() {
            let t = db.table(name).unwrap();
            let s = db.catalog().get(name).unwrap();
            assert_eq!(s.rows(), t.rows() as f64, "table {name}");
        }
    }

    /// FNV-1a over 64-bit words: per table (by name) its row count, then
    /// per schema column its values' bits, its catalog stats and its
    /// histogram's domain, total and buckets.
    fn fingerprint(db: &Database) -> u64 {
        fn mix(h: &mut u64, word: u64) {
            for b in word.to_le_bytes() {
                *h = (*h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
            }
        }
        let mut h = 0xcbf2_9ce4_8422_2325;
        for name in db.table_names() {
            let (t, s) = (db.table(name).unwrap(), db.catalog().get(name).unwrap());
            mix(&mut h, t.rows() as u64);
            mix(&mut h, s.rows().to_bits());
            for (i, def) in t.schema().columns().iter().enumerate() {
                match t.column_at(i) {
                    Column::Int(v) => v.iter().for_each(|&x| mix(&mut h, i64::from(x) as u64)),
                    Column::Float(v) => v.iter().for_each(|x| mix(&mut h, x.to_bits())),
                }
                let c = s.column(&def.name).unwrap();
                let hist = s.histogram(&def.name).unwrap();
                let (lo, hi) = hist.domain();
                for x in [c.distinct, c.min, c.max, c.width, lo, hi, hist.total()] {
                    mix(&mut h, x.to_bits());
                }
                for b in hist.buckets() {
                    for x in [b.lo, b.hi, b.count, b.distinct] {
                        mix(&mut h, x.to_bits());
                    }
                }
            }
        }
        h
    }

    /// Every column's bits and every catalog stat and bucket, pinned to
    /// the values the row-at-a-time generator and the one-set distinct
    /// count produced.
    #[test]
    fn generator_output_is_pinned() {
        let configs = [
            GenConfig::new(15.0).with_seed(5),
            GenConfig::new(2.0)
                .with_seed(6)
                .with_key_dist(KeyDist::Zipf(1.2))
                .with_layout(Layout::Clustered),
            GenConfig::new(1.0).with_seed(7).with_hist_kind(HistogramKind::EquiDepth),
        ];
        let got: Vec<u64> = configs.into_iter().map(|c| fingerprint(&generate(c))).collect();
        assert_eq!(got, [0x838366adb492f017, 0x3fcd1f2999a9c5f, 0xb31eae82bf35afd], "{got:#x?}");
    }

    /// The parallel gather builds the same catalog at 1 and 4 threads, on
    /// an instance above the serial floor, for both histogram families.
    #[test]
    fn catalog_is_the_same_at_any_thread_count() {
        let mut db = generate(GenConfig::new(15.0).with_seed(5));
        let generated = fingerprint(&db);
        let tables: Vec<Table> = db.tables.values().cloned().collect();
        let cells: usize = tables.iter().map(|t| t.rows() * t.schema().len()).sum();
        assert!(cells >= PARALLEL_GATHER_MIN_CELLS, "{cells} cells gather serially");
        for kind in [HistogramKind::EquiWidth, HistogramKind::EquiDepth] {
            let mut at = |threads| {
                db.catalog = gather_catalog(&tables, DEFAULT_BUCKETS, kind, threads);
                fingerprint(&db)
            };
            let serial = at(1);
            assert_eq!(serial, at(4), "{kind:?}");
            if kind == HistogramKind::EquiWidth {
                assert_eq!(serial, generated);
            }
        }
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let a = generate(GenConfig::new(0.2).with_seed(77));
        let b = generate(GenConfig::new(0.2).with_seed(77));
        let ka = a.table("lineitem").unwrap().column("l_partkey").unwrap().as_int().unwrap();
        let kb = b.table("lineitem").unwrap().column("l_partkey").unwrap().as_int().unwrap();
        assert_eq!(ka, kb);
    }
}
