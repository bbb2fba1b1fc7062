//! The run report: operation counts, correctness checks, metrics, and the
//! one-line JSON result that ends standard output.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics every workload reports, with their units.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("rate_per_s", "1/s"),
    ("p50_us", "us"),
    ("valid_coverage_pct", "%"),
    ("valid_rmse", "target_unit"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics of the traced run, with their units. `tail_us` is the
/// end-to-end tail (see `measure::tail`) of the run's untraced operations:
/// it does not repeat closely enough from run to run to carry a bound.
/// Other `*_us` values are mean self time per operation (generation,
/// campaign or request), counts are per operation unless the name says
/// otherwise. A layer a workload never calls reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("tail_us", "us"),
    ("parallel.gram_us", "us"),
    ("parallel.gram_rows", "count"),
    ("parallel.fanout_calls", "count"),
    ("linalg.solve_us", "us"),
    ("linalg.lu_fallbacks", "count"),
    ("regress.fit_us", "us"),
    ("regress.unfit_ratio", "ratio"),
    ("regress.same_matchset_ratio", "ratio"),
    ("population.refill_us", "us"),
    ("population.copy_us", "us"),
    ("population.and_us", "us"),
    ("population.and_words", "count"),
    ("selection.us", "us"),
    ("crossover.us", "us"),
    ("mutation.us", "us"),
    ("mutation.genes", "count"),
    ("replacement.us", "us"),
    ("replacement.accept_ratio", "ratio"),
    ("engine.coverage_us", "us"),
    ("tsdata.generate_us", "us"),
    ("tsdata.window_us", "us"),
    ("matchindex.build_us", "us"),
    ("init.us", "us"),
    ("init.fit_us", "us"),
    ("supervisor.execution_us", "us"),
    ("supervisor.wave_imbalance", "ratio"),
    ("supervisor.executions", "count"),
    ("supervisor.retries", "count"),
    ("supervisor.cover_fold_us", "us"),
    ("predict.merge_us", "us"),
    ("checkpoint.write_us", "us"),
    ("checkpoint.read_us", "us"),
    ("checkpoint.bytes", "bytes"),
    ("client.connect_us", "us"),
    ("client.ttfb_us", "us"),
    ("server.wait_us", "us"),
    ("http.read_us", "us"),
    ("http.write_us", "us"),
    ("protocol.parse_us", "us"),
    ("compiled.predict_us", "us"),
    ("compiled.fired_rules", "count"),
    ("compiled.abstain_pct", "%"),
    ("protocol.serialize_us", "us"),
    ("registry.get_us", "us"),
    ("registry.reload_us", "us"),
    ("compiled.build_us", "us"),
    ("server.shed", "count"),
    ("server.errors", "count"),
    ("run.runqueue_wait_ms", "ms"),
    ("run.cpu_per_wall", "ratio"),
    ("run.nproc", "count"),
    ("loadgen.lag_p99_us", "us"),
    ("trace.attributed_pct", "%"),
    ("trace.overhead_pct", "%"),
];

/// Everything one run found.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed (errors, refused requests).
    pub failed: u64,
    /// Named correctness checks, each a pass or a failure with its reason.
    pub checks: Vec<(String, Result<(), String>)>,
    /// End-to-end values by name.
    pub end_to_end: BTreeMap<&'static str, f64>,
    /// Per-layer and run-health values by name.
    pub layers: BTreeMap<&'static str, f64>,
    /// Free-form context lines printed before the result.
    pub notes: Vec<String>,
}

impl Report {
    /// Record a correctness check.
    pub fn check(&mut self, name: impl Into<String>, outcome: Result<(), String>) {
        self.checks.push((name.into(), outcome));
    }

    /// Record the run-health counters every run reports.
    pub fn record_health(&mut self, health: crate::measure::InterferenceReading) {
        self.layers
            .insert("run.runqueue_wait_ms", health.runqueue_wait_ms);
        self.layers.insert("run.cpu_per_wall", health.cpu_per_wall);
        self.layers
            .insert("run.nproc", crate::measure::nproc() as f64);
    }

    /// Failed operations plus failed checks: a failed check counts as a
    /// failed operation.
    pub fn failed_total(&self) -> u64 {
        self.failed + self.checks.iter().filter(|(_, r)| r.is_err()).count() as u64
    }

    /// True when nothing failed and every value is a finite number.
    pub fn correct(&self) -> bool {
        self.failed_total() == 0
            && self
                .end_to_end
                .values()
                .chain(self.layers.values())
                .all(|v| v.is_finite())
    }

    /// Print the human-readable lines, then the JSON result as the last line.
    /// `traced` selects which metric list the JSON carries.
    pub fn print(&self, workload: &str, seed: u64, traced: bool) {
        println!("workload {workload} seed {seed} traced {traced}");
        for note in &self.notes {
            println!("  {note}");
        }
        for (name, outcome) in &self.checks {
            match outcome {
                Ok(()) => println!("  check {name}: ok"),
                Err(why) => println!("  check {name}: FAILED: {why}"),
            }
        }
        let list = if traced { PER_LAYER } else { END_TO_END };
        let values = if traced {
            &self.layers
        } else {
            &self.end_to_end
        };
        for &(name, unit) in list {
            println!(
                "  {name} = {} {unit}",
                values.get(name).copied().unwrap_or(0.0)
            );
        }
        let failed = self.failed_total();
        println!(
            "  operations: attempted {} succeeded {} failed {failed}",
            self.attempted,
            self.attempted.saturating_sub(self.failed)
        );
        println!("{}", self.json(traced));
    }

    /// The one-line JSON result.
    pub fn json(&self, traced: bool) -> String {
        let list = if traced { PER_LAYER } else { END_TO_END };
        let values = if traced {
            &self.layers
        } else {
            &self.end_to_end
        };
        let mut metrics = String::new();
        for (i, &(name, unit)) in list.iter().enumerate() {
            let v = values.get(name).copied().unwrap_or(0.0);
            let v = if v.is_finite() { v } else { 0.0 };
            if i > 0 {
                metrics.push_str(", ");
            }
            let _ = write!(
                metrics,
                "\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}"
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed_total()
        )
    }
}
