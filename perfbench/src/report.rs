//! Metric names, units and the result line the benchmark prints.

use crate::check::Tally;
use eecs_core::jsonio::Json;

/// End-to-end metrics `(name, unit)`, measured with telemetry off.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("mission_p50_s", "s"),
    ("camera_frames_per_s", "1/s"),
    ("missions_per_s", "1/s"),
    ("completed_share", "ratio"),
    ("recall", "ratio"),
    ("energy_j_per_camera_frame", "J"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics `(name, unit)`, from the traced run.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("bank.train_s", "s"),
    ("features.vocab_s", "s"),
    ("training.record_s", "s"),
    ("manifold.match_s", "s"),
    ("scene.train_render_s", "s"),
    ("detect.hog.ms", "ms"),
    ("detect.acf.ms", "ms"),
    ("detect.c4.ms", "ms"),
    ("detect.lsvm.ms", "ms"),
    ("detect.hog.runs", "count"),
    ("detect.acf.runs", "count"),
    ("detect.c4.runs", "count"),
    ("detect.lsvm.runs", "count"),
    ("detect.hog.ops", "count"),
    ("detect.acf.ops", "count"),
    ("detect.c4.ops", "count"),
    ("detect.lsvm.ops", "count"),
    ("detect.assess.ms", "ms"),
    ("detect.feature_cache_saving_share", "ratio"),
    ("detect.c4.cascade_reject_share", "ratio"),
    ("scene.render_ms", "ms"),
    ("detect.health.us", "us"),
    ("reid.fuse_us", "us"),
    ("controller.select_ms", "ms"),
    ("scene.sensor_fault_ms", "ms"),
    ("net.codec_us", "us"),
    ("net.attempts", "count"),
    ("net.retransmits", "count"),
    ("net.undelivered", "count"),
    ("net.corrupted", "count"),
    ("net.delivery_share", "ratio"),
    ("checkpoint.commit_us", "us"),
    ("checkpoint.restore_us", "us"),
    ("checkpoint.taken", "count"),
    ("checkpoint.rollbacks", "count"),
    ("quarantine.strikes", "count"),
    ("failover.count", "count"),
    ("churn.leaves", "count"),
    ("serve.plan_us", "us"),
    ("serve.execute_s", "s"),
    ("serve.admitted", "count"),
    ("serve.rejected", "count"),
    ("serve.deadline_missed", "count"),
    ("serve.max_queue_depth", "count"),
    ("par.serial_over_parallel", "ratio"),
    ("telemetry.overhead_share", "ratio"),
];

/// One measured metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name, as listed in [`END_TO_END`] or [`PER_LAYER`].
    pub name: String,
    /// The value, in `unit`.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// How many samples the value summarizes.
    pub samples: usize,
}

/// What one run measured and checked.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Missions attempted, failed and refused.
    pub tally: Tally,
    /// Checks outside the mission tally that failed (e.g. the traced
    /// set-up replay disagreeing with `Simulation::prepare`).
    pub check_failures: Vec<String>,
    /// The metrics, in output order.
    pub metrics: Vec<Metric>,
}

impl Outcome {
    /// Records a metric whose unit comes from the metric tables.
    ///
    /// # Panics
    ///
    /// Panics on a name missing from both tables (a bug in this crate).
    pub fn put(&mut self, name: &str, value: f64, samples: usize) {
        let unit = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .find(|(n, _)| *n == name)
            .map(|(_, u)| *u)
            .unwrap_or_else(|| panic!("unlisted metric {name}"));
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
            samples,
        });
    }

    /// Whether every output was verified and nothing failed.
    pub fn correct(&self) -> bool {
        self.tally.attempted > 0
            && self.tally.failed == 0
            && self.check_failures.is_empty()
            && self.metrics.iter().all(|m| m.value.is_finite())
    }

    /// The one-line JSON result: `correct`, `attempted`, `failed` (errors
    /// and mismatches; refusals are the service's verdicts, counted in
    /// `completed_share`) and every metric with its unit.
    ///
    /// # Errors
    ///
    /// Returns an error for a non-finite metric.
    pub fn result_line(&self) -> Result<String, String> {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                (
                    m.name.clone(),
                    Json::Obj(vec![
                        ("value".into(), Json::Num(m.value)),
                        ("unit".into(), Json::Str(m.unit.into())),
                    ]),
                )
            })
            .collect();
        Json::Obj(vec![
            ("correct".into(), Json::Bool(self.correct())),
            ("attempted".into(), Json::Num(self.tally.attempted as f64)),
            (
                "failed".into(),
                Json::Num((self.tally.failed + self.check_failures.len() as u64) as f64),
            ),
            ("metrics".into(), Json::Obj(metrics)),
        ])
        .write()
    }
}

/// Median of a sample (0 for an empty one).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Peak resident set size of this process in MB (`VmHWM`), or 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
