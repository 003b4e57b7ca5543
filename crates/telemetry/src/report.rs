//! Structured run reports: one JSON document per bench binary, written
//! to `results/<name>.json` next to the human-readable `.txt` tables.
//!
//! Document shape:
//!
//! ```json
//! {
//!   "name": "table2_block_config",
//!   "meta": { "n": 16384, "steps": 24, "...": "free-form" },
//!   "rows": [ { "...": "one object per table row" } ],
//!   "counters": { "walk.interactions": 123, "...": 0 },
//!   "histograms": { "step.wall.ns": { "count": 8, "sum": 0, "p50": 0, "p95": 0, "p99": 0 } }
//! }
//! ```
//!
//! `rows` carries the same numbers as the printed table; `counters`
//! holds the run-scoped counts added with [`RunReport::add_counters`]
//! followed by the process-scoped registry, and `histograms` holds only
//! the histograms added with [`RunReport::add_histogram`], so a report
//! is a self-contained record of what a run did, diffable across PRs.

use crate::json::JsonObject;
use crate::metrics::Histogram;
use std::path::{Path, PathBuf};

/// Accumulates metadata and rows, then renders/writes the document.
pub struct RunReport {
    name: String,
    meta: JsonObject,
    rows: Vec<String>,
    counters: Vec<(&'static str, u64)>,
    histograms: Vec<(&'static str, Histogram)>,
}

impl RunReport {
    pub fn new(name: &str) -> Self {
        RunReport {
            name: name.to_string(),
            meta: JsonObject::new(),
            rows: Vec::new(),
            counters: Vec::new(),
            histograms: Vec::new(),
        }
    }

    /// Free-form metadata (scale, mode, arch, …). Chainable.
    pub fn meta_str(&mut self, key: &str, v: &str) -> &mut Self {
        self.meta.str(key, v);
        self
    }

    pub fn meta_u64(&mut self, key: &str, v: u64) -> &mut Self {
        self.meta.u64(key, v);
        self
    }

    pub fn meta_f64(&mut self, key: &str, v: f64) -> &mut Self {
        self.meta.f64(key, v);
        self
    }

    /// Append one row object (typically one printed table row).
    pub fn add_row(&mut self, row: JsonObject) -> &mut Self {
        self.rows.push(row.finish());
        self
    }

    /// Add one run's counters (e.g. `gothic::RunSummary::counters`),
    /// summing by name with the runs added before. Chainable.
    pub fn add_counters(&mut self, run: &[(&'static str, u64)]) -> &mut Self {
        for &(name, v) in run {
            match self.counters.iter_mut().find(|(n, _)| *n == name) {
                Some((_, total)) => *total += v,
                None => self.counters.push((name, v)),
            }
        }
        self
    }

    /// Add one owner's histogram (e.g. `gothic::RunSummary::step_wall`),
    /// merging by name with those added before. Chainable.
    pub fn add_histogram(&mut self, name: &'static str, h: &Histogram) -> &mut Self {
        match self.histograms.iter_mut().find(|(n, _)| *n == name) {
            Some((_, total)) => total.merge(h),
            None => self.histograms.push((name, h.clone())),
        }
        self
    }

    pub fn name(&self) -> &str {
        &self.name
    }

    /// Render the full document as a JSON string.
    pub fn render(&self) -> String {
        let mut counters = JsonObject::new();
        for (name, value) in crate::sink::with_registry(&self.counters) {
            counters.u64(name, value);
        }
        let mut hists = JsonObject::new();
        for (name, hist) in &self.histograms {
            let (p50, p95, p99) = hist.quantiles();
            let mut h = JsonObject::new();
            h.u64("count", hist.count)
                .u64("sum", hist.sum)
                .u64("p50", p50)
                .u64("p95", p95)
                .u64("p99", p99);
            hists.raw(name, &h.finish());
        }
        let mut doc = JsonObject::new();
        doc.str("name", &self.name)
            .raw("meta", &self.meta.finish())
            .raw("rows", &format!("[{}]", self.rows.join(",")))
            .raw("counters", &counters.finish())
            .raw("histograms", &hists.finish());
        doc.finish()
    }

    /// Write the document to `<dir>/<name>.json`, creating `dir`.
    pub fn write_to(&self, dir: &Path) -> std::io::Result<PathBuf> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(format!("{}.json", self.name));
        std::fs::write(&path, self.render())?;
        Ok(path)
    }

    /// Write to the conventional `results/` directory (cwd-relative —
    /// the bench binaries run from the workspace root) and report where
    /// it landed on stderr.
    pub fn write(&self) -> std::io::Result<PathBuf> {
        let path = self.write_to(Path::new("results"))?;
        eprintln!("report: wrote {}", path.display());
        Ok(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    #[test]
    fn report_renders_and_roundtrips() {
        let _g = crate::sink::test_lock();
        crate::metrics::reset_all();
        let mut r = RunReport::new("unit_test_report");
        r.meta_u64("n", 16384).meta_str("mode", "volta");
        r.add_counters(&[("walk.interactions", 5), ("pipeline.steps", 2)])
            .add_counters(&[("walk.interactions", 7)]);
        let mut wall = Histogram::default();
        wall.record(3);
        r.add_histogram("step.wall.ns", &wall)
            .add_histogram("step.wall.ns", &wall);
        let mut row = JsonObject::new();
        row.u64("n_tot", 16384).f64("t_total", 0.125);
        r.add_row(row);
        let doc = json::parse(&r.render()).unwrap();
        assert_eq!(doc.get("name").unwrap().as_str(), Some("unit_test_report"));
        assert_eq!(
            doc.get("meta").unwrap().get("n").unwrap().as_u64(),
            Some(16384)
        );
        let rows = doc.get("rows").unwrap().as_arr().unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].get("t_total").unwrap().as_f64(), Some(0.125));
        // The runs' counters, summed by name, then the registry.
        let counters = doc.get("counters").unwrap();
        assert_eq!(
            counters.as_obj().unwrap().len(),
            2 + crate::metrics::counters::ALL.len()
        );
        assert_eq!(
            counters.get("walk.interactions").unwrap().as_u64(),
            Some(12)
        );
        assert_eq!(counters.get("pipeline.steps").unwrap().as_u64(), Some(2));
        // Only the added histograms, merged by name.
        let hists = doc.get("histograms").unwrap();
        assert_eq!(hists.as_obj().unwrap().len(), 1);
        let h = hists.get("step.wall.ns").unwrap();
        for k in ["count", "sum", "p50", "p95", "p99"] {
            assert!(h.get(k).is_some(), "histogram entry missing {k}");
        }
        assert_eq!(h.get("count").unwrap().as_u64(), Some(2));
        assert_eq!(h.get("sum").unwrap().as_u64(), Some(6));
    }

    #[test]
    fn report_with_no_rows_is_still_valid() {
        let r = RunReport::new("empty");
        let doc = json::parse(&r.render()).unwrap();
        assert_eq!(doc.get("rows").unwrap().as_arr().unwrap().len(), 0);
    }

    #[test]
    fn write_to_creates_directory_and_file() {
        let _g = crate::sink::test_lock();
        let dir = std::env::temp_dir().join("telemetry_report_test_dir");
        let _ = std::fs::remove_dir_all(&dir);
        let mut r = RunReport::new("write_test");
        r.meta_str("k", "v");
        let path = r.write_to(&dir).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(json::parse(&text).is_ok());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
