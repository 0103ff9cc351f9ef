//! Prediction-drift telemetry: running predicted-vs-actual error statistics.
//!
//! [`DriftTracker`] consumes [`Event::PredictionError`] observations and keeps
//! running signed relative error (bias) and mean absolute relative error
//! (MARE) per predicted quantity × job category. The MARE formula is
//! deliberately identical to `sapred-predict`'s `avg_rel_error` — mean of
//! `|predicted - actual| / actual` over samples with `actual > 0` — so
//! drift numbers are directly comparable with the paper's Tables 3–5
//! accuracy figures.

use crate::event::{Event, Quantity};
use crate::json::Obj;
use crate::sink::EventSink;
use sapred_plan::JobCategory;
use std::fmt;

/// Running error accumulator for one (quantity, category) cell.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct DriftStat {
    /// Number of observations with `actual > 0`.
    pub n: u64,
    /// Sum of signed relative errors `(predicted - actual) / actual`.
    pub sum_signed: f64,
    /// Sum of absolute relative errors `|predicted - actual| / actual`.
    pub sum_abs: f64,
}

impl DriftStat {
    /// Record one observation; ignored when `actual <= 0` (matches
    /// `avg_rel_error`'s sampling rule).
    pub fn record(&mut self, predicted: f64, actual: f64) {
        if actual <= 0.0 {
            return;
        }
        let rel = (predicted - actual) / actual;
        self.n += 1;
        self.sum_signed += rel;
        self.sum_abs += rel.abs();
    }

    /// Mean signed relative error — positive means over-prediction.
    /// `0.0` with no samples.
    pub fn mean_signed(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.sum_signed / self.n as f64
        }
    }

    /// Mean absolute relative error; `0.0` with no samples.
    pub fn mare(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.sum_abs / self.n as f64
        }
    }
}

const QUANTITIES: [Quantity; 4] =
    [Quantity::MapTask, Quantity::ReduceTask, Quantity::Job, Quantity::Query];
const CATEGORIES: [JobCategory; 3] =
    [JobCategory::Extract, JobCategory::Groupby, JobCategory::Join];

fn qi(q: Quantity) -> usize {
    match q {
        Quantity::MapTask => 0,
        Quantity::ReduceTask => 1,
        Quantity::Job => 2,
        Quantity::Query => 3,
    }
}

fn ci(c: JobCategory) -> usize {
    match c {
        JobCategory::Extract => 0,
        JobCategory::Groupby => 1,
        JobCategory::Join => 2,
    }
}

/// Running drift statistics per quantity × category, plus per-quantity
/// aggregates (category index 3 = all categories).
///
/// Implements [`EventSink`], consuming only [`Event::PredictionError`] and
/// ignoring everything else — so it composes with other sinks via
/// [`crate::sink::Tee`].
#[derive(Debug, Clone, Default)]
pub struct DriftTracker {
    // cells[quantity][category]; category 3 aggregates across categories.
    cells: [[DriftStat; 4]; 4],
}

impl DriftTracker {
    /// New tracker with no observations.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one predicted-vs-actual observation.
    pub fn record(
        &mut self,
        quantity: Quantity,
        category: JobCategory,
        predicted: f64,
        actual: f64,
    ) {
        let q = qi(quantity);
        self.cells[q][ci(category)].record(predicted, actual);
        self.cells[q][3].record(predicted, actual);
    }

    /// Stats for one (quantity, category) cell.
    pub fn cell(&self, quantity: Quantity, category: JobCategory) -> DriftStat {
        self.cells[qi(quantity)][ci(category)]
    }

    /// Aggregate stats for one quantity across all categories.
    pub fn aggregate(&self, quantity: Quantity) -> DriftStat {
        self.cells[qi(quantity)][3]
    }

    /// Total number of recorded observations (over all quantities).
    pub fn total_samples(&self) -> u64 {
        QUANTITIES.iter().map(|&q| self.aggregate(q).n).sum()
    }

    /// Render the full table as a JSON object keyed by quantity label, each
    /// holding per-category rows plus an `"all"` aggregate.
    pub fn to_json(&self) -> String {
        let row = |s: &DriftStat| {
            Obj::new()
                .int("n", s.n)
                .num("mare", s.mare())
                .num("mean_signed", s.mean_signed())
                .finish()
        };
        let mut top = Obj::new();
        for &q in &QUANTITIES {
            let mut per_q = Obj::new();
            for &c in &CATEGORIES {
                per_q = per_q.raw(&c.to_string(), &row(&self.cell(q, c)));
            }
            per_q = per_q.raw("all", &row(&self.aggregate(q)));
            top = top.raw(q.label(), &per_q.finish());
        }
        top.finish()
    }
}

impl fmt::Display for DriftTracker {
    /// Compact human-readable drift table: one line per quantity with
    /// samples, MARE, and signed bias.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for &q in &QUANTITIES {
            let agg = self.aggregate(q);
            if agg.n == 0 {
                continue;
            }
            write!(
                f,
                "{:<11} n={:<5} MARE={:6.2}% bias={:+6.2}%",
                q.label(),
                agg.n,
                agg.mare() * 100.0,
                agg.mean_signed() * 100.0
            )?;
            for &c in &CATEGORIES {
                let cell = self.cell(q, c);
                if cell.n > 0 {
                    write!(f, "  {}={:.2}%", c, cell.mare() * 100.0)?;
                }
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

impl EventSink for DriftTracker {
    fn emit(&mut self, event: &Event) {
        if let Event::PredictionError { category, quantity, predicted, actual, .. } = event {
            self.record(*quantity, *category, *predicted, *actual);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{JobId, QueryId};
    use crate::json::validate;

    #[test]
    fn mare_matches_avg_rel_error_formula() {
        // avg_rel_error: mean of |p - a| / a over samples with a > 0.
        let pairs = [(10.0, 8.0), (5.0, 5.0), (3.0, 4.0), (7.0, 0.0)];
        let mut stat = DriftStat::default();
        for (p, a) in pairs {
            stat.record(p, a);
        }
        let expected: f64 =
            pairs.iter().filter(|(_, a)| *a > 0.0).map(|(p, a)| (p - a).abs() / a).sum::<f64>()
                / 3.0;
        assert!((stat.mare() - expected).abs() < 1e-12);
        assert_eq!(stat.n, 3);
    }

    #[test]
    fn signed_error_captures_bias_direction() {
        let mut stat = DriftStat::default();
        stat.record(12.0, 10.0); // +20%
        stat.record(11.0, 10.0); // +10%
        assert!((stat.mean_signed() - 0.15).abs() < 1e-12);
        assert!((stat.mare() - 0.15).abs() < 1e-12);
        stat.record(8.0, 10.0); // -20%
        assert!(stat.mean_signed() < stat.mare());
    }

    #[test]
    fn tracker_routes_to_cell_and_aggregate() {
        let mut tr = DriftTracker::new();
        tr.record(Quantity::Job, JobCategory::Join, 6.0, 5.0);
        tr.record(Quantity::Job, JobCategory::Extract, 4.0, 5.0);
        tr.record(Quantity::Query, JobCategory::Join, 10.0, 10.0);
        assert_eq!(tr.cell(Quantity::Job, JobCategory::Join).n, 1);
        assert_eq!(tr.cell(Quantity::Job, JobCategory::Extract).n, 1);
        assert_eq!(tr.cell(Quantity::Job, JobCategory::Groupby).n, 0);
        assert_eq!(tr.aggregate(Quantity::Job).n, 2);
        assert_eq!(tr.total_samples(), 3);
    }

    #[test]
    fn tracker_consumes_prediction_error_events_only() {
        let mut tr = DriftTracker::new();
        tr.emit(&Event::QueryStart { t: 0.0, query: QueryId(0) });
        assert_eq!(tr.total_samples(), 0);
        tr.emit(&Event::PredictionError {
            t: 1.0,
            query: QueryId(0),
            job: JobId(0),
            category: JobCategory::Groupby,
            quantity: Quantity::MapTask,
            predicted: 2.0,
            actual: 1.0,
        });
        assert_eq!(tr.cell(Quantity::MapTask, JobCategory::Groupby).n, 1);
        assert!((tr.aggregate(Quantity::MapTask).mare() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn json_and_display_render() {
        let mut tr = DriftTracker::new();
        tr.record(Quantity::Job, JobCategory::Join, 6.0, 5.0);
        validate(&tr.to_json()).unwrap();
        let text = tr.to_string();
        assert!(text.contains("job"));
        assert!(text.contains("MARE"));
    }
}
