//! Catalog persistence: save/load the metastore statistics (schemas, row
//! counts, distinct counts, histograms) as JSON.
//!
//! The paper's estimator reads *off-line* statistics: "equi-width
//! histograms are built on tables' attributes … and stored on HDFS"
//! (§3.1.1). This module plays the HDFS role — a deployment gathers
//! statistics once ([`TableStats::gather`]) and ships the serialized
//! catalog to wherever prediction runs; the estimator never needs the data
//! itself.
//!
//! The format, on the dependency-free [`sapred_obs::json`]: `{"tables":
//! [...]}` sorted by name; a table has `name`, `rows` and one entry per
//! schema column with `name`, `type` (`int`, `float`, `string(W)`), optional
//! `stats` `[distinct, min, max, width]` and an optional `histogram` (`min`,
//! `max`, `total`, `buckets` of `[lo, hi, count, distinct]`). Floats are
//! written in shortest round-trip form, so a loaded histogram estimates
//! bit-for-bit what the saved one did.

use std::collections::HashMap;
use std::io;
use std::path::Path;

use sapred_obs::json::{array, num, Obj, Value};
use sapred_relation::histogram::{Bucket, Histogram};
use sapred_relation::stats::Catalog;
use sapred_relation::{ColumnDef, ColumnStats, DataType, Schema, TableStats};

/// Serialize a catalog to JSON.
pub fn catalog_to_json(catalog: &Catalog) -> String {
    let mut tables: Vec<&TableStats> = catalog.tables().collect();
    tables.sort_by(|a, b| a.name().cmp(b.name()));
    Obj::new().raw("tables", &array(tables.into_iter().map(table_json))).finish()
}

fn table_json(table: &TableStats) -> String {
    let columns = array(table.schema().columns().iter().map(|def| {
        let mut col = Obj::new().str("name", &def.name).str("type", &def.dtype.to_string());
        if let Some(c) = table.column(&def.name) {
            col = col.raw("stats", &array([c.distinct, c.min, c.max, c.width].map(num)));
        }
        if let Some(h) = table.histogram(&def.name) {
            let (min, max) = h.domain();
            let buckets =
                h.buckets().iter().map(|b| array([b.lo, b.hi, b.count, b.distinct].map(num)));
            let hist = Obj::new()
                .num("min", min)
                .num("max", max)
                .num("total", h.total())
                .raw("buckets", &array(buckets))
                .finish();
            col = col.raw("histogram", &hist);
        }
        col.finish()
    }));
    Obj::new().str("name", table.name()).num("rows", table.rows()).raw("columns", &columns).finish()
}

/// Deserialize a catalog from JSON.
///
/// # Errors
/// Returns a message naming the first malformed field: a syntax error, a
/// missing or non-finite number, an unknown column type, a duplicate column
/// name or a histogram without buckets.
pub fn catalog_from_json(json: &str) -> Result<Catalog, String> {
    let doc = sapred_obs::json::parse(json)?;
    let mut catalog = Catalog::new();
    for (i, t) in arr_field(&doc, "tables")?.iter().enumerate() {
        catalog.insert(table_from_json(t).map_err(|e| format!("tables[{i}]: {e}"))?);
    }
    Ok(catalog)
}

fn table_from_json(t: &Value) -> Result<TableStats, String> {
    let mut defs: Vec<ColumnDef> = Vec::new();
    let mut columns = Vec::new();
    let mut histograms = HashMap::new();
    for (i, c) in arr_field(t, "columns")?.iter().enumerate() {
        let at = |e: String| format!("columns[{i}]: {e}");
        let name = str_field(c, "name").map_err(at)?;
        // `Schema::new` panics on a duplicate; a file must not.
        if defs.iter().any(|d| d.name == name) {
            return Err(at(format!("duplicate column name {name:?}")));
        }
        let dtype = parse_type(str_field(c, "type").map_err(at)?).map_err(at)?;
        if let Some(s) = c.get("stats") {
            let [distinct, min, max, width] = floats(s).ok_or_else(|| {
                at("\"stats\" must be [distinct, min, max, width] finite numbers".into())
            })?;
            columns.push(ColumnStats { name: name.to_string(), distinct, min, max, width });
        }
        if let Some(h) = c.get("histogram") {
            let hist = histogram_from_json(h).map_err(|e| at(format!("histogram: {e}")))?;
            histograms.insert(name.to_string(), hist);
        }
        defs.push(ColumnDef::new(name, dtype));
    }
    let [rows] = nums(t, ["rows"])?;
    Ok(TableStats::synthetic(str_field(t, "name")?, Schema::new(defs), rows, columns, histograms))
}

fn histogram_from_json(h: &Value) -> Result<Histogram, String> {
    let mut buckets = Vec::new();
    for (i, b) in arr_field(h, "buckets")?.iter().enumerate() {
        let [lo, hi, count, distinct] = floats(b)
            .ok_or(format!("buckets[{i}] must be [lo, hi, count, distinct] finite numbers"))?;
        buckets.push(Bucket { lo, hi, count, distinct });
    }
    if buckets.is_empty() {
        return Err("needs at least one bucket".into());
    }
    let [min, max, total] = nums(h, ["min", "max", "total"])?;
    Ok(Histogram::from_parts(min, max, buckets, total))
}

/// The inverse of `DataType`'s `Display`: `int`, `float`, `string(W)`.
fn parse_type(s: &str) -> Result<DataType, String> {
    match s {
        "int" => Ok(DataType::Int),
        "float" => Ok(DataType::Float),
        _ => s
            .strip_prefix("string(")
            .and_then(|w| w.strip_suffix(')'))
            .and_then(|w| w.parse().ok())
            .map(|avg_width| DataType::Str { avg_width })
            .ok_or(format!("unknown column type {s:?}")),
    }
}

/// `v` as an array of exactly `N` finite numbers.
fn floats<const N: usize>(v: &Value) -> Option<[f64; N]> {
    let parts: Option<Vec<f64>> =
        v.as_arr()?.iter().map(|x| x.as_num().filter(|x| x.is_finite())).collect();
    parts?.try_into().ok()
}

/// The finite numbers under `keys`, in order.
fn nums<const N: usize>(v: &Value, keys: [&str; N]) -> Result<[f64; N], String> {
    let mut out = [0.0; N];
    for (x, key) in out.iter_mut().zip(keys) {
        let n = v.get(key).and_then(Value::as_num).filter(|x| x.is_finite());
        *x = n.ok_or(format!("{key:?} must be a finite number"))?;
    }
    Ok(out)
}

fn str_field<'a>(v: &'a Value, key: &str) -> Result<&'a str, String> {
    v.get(key).and_then(Value::as_str).ok_or(format!("{key:?} must be a string"))
}

fn arr_field<'a>(v: &'a Value, key: &str) -> Result<&'a [Value], String> {
    v.get(key).and_then(Value::as_arr).ok_or(format!("{key:?} must be an array"))
}

/// Save a catalog to a JSON file, atomically.
pub fn save_catalog(catalog: &Catalog, path: impl AsRef<Path>) -> io::Result<()> {
    sapred_obs::write_atomic(path, catalog_to_json(catalog))
}

/// Load a catalog from a JSON file. A malformed file is an
/// [`io::ErrorKind::InvalidData`] error.
pub fn load_catalog(path: impl AsRef<Path>) -> io::Result<Catalog> {
    let json = std::fs::read_to_string(path)?;
    catalog_from_json(&json).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sapred_query::analyze::HashResolver;
    use sapred_query::{analyze, parse};
    use sapred_relation::expr::CmpOp;
    use sapred_relation::gen::{generate, GenConfig};

    #[test]
    fn catalog_roundtrips_through_json() {
        let db = generate(GenConfig::new(0.2).with_seed(13));
        let json = catalog_to_json(db.catalog());
        let restored = catalog_from_json(&json).unwrap();
        assert_eq!(restored.len(), db.catalog().len());
        for table in db.catalog().tables() {
            let r = restored.get(table.name()).expect("table survives");
            assert_eq!(r.rows().to_bits(), table.rows().to_bits());
            assert_eq!(r.schema(), table.schema());
            for def in table.schema().columns() {
                let (a, b) = (table.column(&def.name).unwrap(), r.column(&def.name).unwrap());
                assert_eq!(
                    [a.distinct, a.min, a.max, a.width].map(f64::to_bits),
                    [b.distinct, b.min, b.max, b.width].map(f64::to_bits),
                    "{}.{}",
                    table.name(),
                    def.name
                );
                let (a, b) = (table.histogram(&def.name).unwrap(), r.histogram(&def.name).unwrap());
                assert_eq!(a, b, "{}.{}", table.name(), def.name);
                // Histogram estimates agree bit for bit after the round trip.
                let (lo, hi) = a.domain();
                for v in [lo, (lo + hi) / 3.0, (lo + hi) / 2.0, hi, 0.0, 100.0, 1000.0] {
                    for op in [CmpOp::Lt, CmpOp::Eq, CmpOp::Ge] {
                        assert_eq!(
                            a.selectivity_cmp(op, v).to_bits(),
                            b.selectivity_cmp(op, v).to_bits()
                        );
                    }
                }
            }
        }
        // The encoding is a pure function of the catalog.
        assert_eq!(catalog_to_json(&restored), json);
    }

    #[test]
    fn file_roundtrip() {
        let db = generate(GenConfig::new(0.05).with_seed(3));
        let dir = std::env::temp_dir().join(format!("sapred_persist_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("catalog.json");
        save_catalog(db.catalog(), &path).unwrap();
        let loaded = load_catalog(&path).unwrap();
        assert_eq!(loaded.len(), db.catalog().len());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn bad_json_is_an_error() {
        assert!(catalog_from_json("{not json").is_err());
        assert!(load_catalog("/nonexistent/path/catalog.json").is_err());
        let table = |columns: &str| {
            format!(r#"{{"tables":[{{"name":"t","rows":1,"columns":[{columns}]}}]}}"#)
        };
        // Column `a` of type int, with extra fields.
        let a = |extra: &str| table(&format!(r#"{{"name":"a","type":"int"{extra}}}"#));
        let hist = |buckets: &str| {
            a(&format!(r#","histogram":{{"min":0,"max":1,"total":0,"buckets":[{buckets}]}}"#))
        };
        let cases = [
            (
                "duplicate column name",
                table(r#"{"name":"a","type":"int"},{"name":"a","type":"float"}"#),
            ),
            ("unknown column type", table(r#"{"name":"a","type":"blob"}"#)),
            ("at least one bucket", hist("")),
            ("buckets[0]", hist("[0,1,2]")),
            ("\"stats\"", a(r#","stats":[1e999,0,1,8]"#)),
            ("\"rows\"", r#"{"tables":[{"name":"t","columns":[]}]}"#.to_string()),
        ];
        for (needle, json) in cases {
            let err = catalog_from_json(&json).expect_err(&json);
            assert!(err.contains(needle), "{json}: {err}");
        }
        let ok = table(r#"{"name":"a","type":"int"},{"name":"b","type":"string(12)"}"#);
        assert!(catalog_from_json(&ok).is_ok());
        assert!(catalog_from_json(&hist("[0,1,2,2]")).is_ok());
    }

    #[test]
    fn analysis_against_persisted_catalog() {
        // A catalog loaded from JSON (no materialized data) still supports
        // analysis with the hash resolver.
        let db = generate(GenConfig::new(0.1).with_seed(5));
        let catalog = catalog_from_json(&catalog_to_json(db.catalog())).unwrap();
        let a = analyze(
            &parse("SELECT l_partkey FROM lineitem WHERE l_quantity > 40").unwrap(),
            &catalog,
            &HashResolver,
        )
        .unwrap();
        assert_eq!(a.scans[0].table, "lineitem");
    }
}
