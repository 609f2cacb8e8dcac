//! The correctness check: every report the measured program produces is
//! compared bit for bit with a `Parallelism::serial()` run of the same
//! mission, made outside the timed region.

use eecs_core::simulation::{Parallelism, Simulation, SimulationReport};
use eecs_core::telemetry::summary::report_to_json;
use eecs_net::checksum::crc32;
use eecs_serve::{MissionRequest, ServiceRun};
use std::collections::BTreeMap;

/// The serial reference of one mission: its canonical report bytes (every
/// `f64` bit-exact) and the report they came from.
#[derive(Debug, Clone)]
pub struct Reference {
    /// `report_to_json(report)`, written.
    pub json: String,
    /// The report.
    pub report: SimulationReport,
}

impl Reference {
    /// Runs `sim` serially and records its report.
    ///
    /// # Errors
    ///
    /// Returns the run or serialization error.
    pub fn of(sim: &Simulation) -> Result<Reference, String> {
        let report = sim
            .with_parallelism(Parallelism::serial())
            .run()
            .map_err(|e| e.to_string())?;
        let json = digest(&report)?;
        Ok(Reference { json, report })
    }
}

/// The canonical bytes of a report.
///
/// # Errors
///
/// Returns an error for a non-finite number in the report.
pub fn digest(report: &SimulationReport) -> Result<String, String> {
    report_to_json(report).write()
}

/// Whether a measured run produced exactly the reference report. An `Err`
/// never matches.
pub fn mission_matches(got: &Result<String, String>, want: &Reference) -> bool {
    matches!(got, Ok(json) if *json == want.json)
}

/// Missions attempted, failed (error or mismatch) and refused.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Missions submitted.
    pub attempted: u64,
    /// Missions that errored or whose report differs from the reference.
    pub failed: u64,
    /// Missions the service refused by admission control.
    pub refused: u64,
}

impl Tally {
    /// Adds another tally.
    pub fn add(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.refused += other.refused;
    }

    /// Missions completed with a verified report.
    pub fn completed(&self) -> u64 {
        self.attempted - self.failed - self.refused
    }
}

/// Checks one service batch against the serial references of its
/// admitted missions (keyed by mission index). Every admitted mission
/// must carry the reference's report bytes, their CRC32 digest and the
/// bits of its total energy; a missing, extra or differing mission
/// counts as failed. Refusals must match the admission plan.
pub fn batch_tally(
    requests: &[MissionRequest],
    run: &ServiceRun,
    planned_refusals: &[usize],
    references: &BTreeMap<usize, Reference>,
) -> Tally {
    let refused: Vec<usize> = run.schedule.rejections().iter().map(|(m, _)| *m).collect();
    let mut tally = Tally {
        attempted: requests.len() as u64,
        failed: 0,
        refused: refused.len() as u64,
    };
    if refused != planned_refusals {
        // The refusal set itself is wrong: every mission is suspect.
        tally.failed = tally.attempted - tally.refused;
        return tally;
    }
    let mismatched = run.completed.iter().filter(|done| {
        !references.get(&done.mission).is_some_and(|want| {
            done.report_json == want.json
                && done.report_crc == crc32(want.json.as_bytes())
                && done.energy_bits == want.report.total_energy_j.to_bits()
        })
    });
    // Admitted missions that never completed are failures too.
    let admitted = requests.len() - refused.len();
    tally.failed = (mismatched.count() + admitted.saturating_sub(run.completed.len())) as u64;
    tally.failed = tally.failed.min(tally.attempted - tally.refused);
    tally
}
