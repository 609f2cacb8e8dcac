//! Guards that keep each workload's character, the inputs' determinism,
//! and the correctness check honest. Run with
//! `cargo test --release --manifest-path perfbench/Cargo.toml`.

use eecs_core::jsonio::{parse, Json};
use eecs_perfbench::bench::{batch_references, mission_references, tally_of_batch};
use eecs_perfbench::check::mission_matches;
use eecs_perfbench::layers::program_counters;
use eecs_perfbench::report::{Outcome, END_TO_END, PER_LAYER};
use eecs_perfbench::workload::{prepare, Inputs, Workload};
use eecs_serve::BatchOptions;
use std::collections::BTreeMap;

/// The default seed of the command line, and a second one.
const SEEDS: [u64; 2] = [1, 2];
const WORKERS: usize = 2;

fn counters(workload: Workload, seed: u64) -> BTreeMap<String, u64> {
    let inputs = Inputs::generate(workload, seed, WORKERS);
    let p = prepare(workload, &inputs, WORKERS).expect("prepare");
    program_counters(&p, &inputs).expect("every mission runs")
}

fn count(c: &BTreeMap<String, u64>, name: &str) -> u64 {
    c.get(name).copied().unwrap_or(0)
}

#[test]
fn same_seed_gives_byte_identical_inputs() {
    for w in Workload::ALL {
        for seed in SEEDS {
            let a = Inputs::generate(w, seed, WORKERS).text();
            assert_eq!(a, Inputs::generate(w, seed, WORKERS).text(), "{}", w.name());
        }
        assert_ne!(
            Inputs::generate(w, SEEDS[0], WORKERS).text(),
            Inputs::generate(w, SEEDS[1], WORKERS).text(),
            "{}: the seed must reach the inputs",
            w.name()
        );
    }
}

#[test]
fn mission_detect_runs_c4_and_never_retransmits() {
    for seed in SEEDS {
        let c = counters(Workload::MissionDetect, seed);
        assert!(count(&c, "detect.runs.c4") > 0, "seed {seed}: C4 never ran");
        assert_eq!(count(&c, "net.retransmits"), 0, "seed {seed}");
    }
}

#[test]
fn mission_chaos_bypasses_c4_and_drives_every_chaos_layer() {
    for seed in SEEDS {
        let c = counters(Workload::MissionChaos, seed);
        assert_eq!(count(&c, "detect.runs.c4"), 0, "seed {seed}: C4 ran");
        for layer in ["net.retransmits", "checkpoint.taken", "quarantine.strikes"] {
            assert!(count(&c, layer) > 0, "seed {seed}: {layer} is 0");
        }
    }
}

#[test]
fn service_batch_refuses_some_missions() {
    for seed in SEEDS {
        let c = counters(Workload::ServiceBatch, seed);
        assert!(
            count(&c, "serve.rejected") > 0,
            "seed {seed}: nothing refused"
        );
        assert!(
            count(&c, "serve.admitted") > 0,
            "seed {seed}: nothing admitted"
        );
    }
}

#[test]
fn tampered_report_digest_counts_as_failed() {
    let inputs = Inputs::generate(Workload::ServiceBatch, SEEDS[0], WORKERS);
    let Inputs::Batches(batches) = &inputs else {
        panic!("service_batch generates batches");
    };
    let p = prepare(Workload::ServiceBatch, &inputs, WORKERS).expect("prepare");
    let batch = &batches[0];
    let run = p.services[0]
        .run_batch(&batch.requests, &BatchOptions::default())
        .expect("batch runs")
        .run
        .expect("batch completes");
    let references = batch_references(&p.base, &batches[..1]);

    let clean = tally_of_batch(0, batch, &Ok(run.clone()), &references);
    assert_eq!(clean.failed, 0);
    assert!(
        clean.completed() > 0,
        "the check must have verified something"
    );

    let mut crc = run.clone();
    crc.completed[0].report_crc ^= 1;
    let mut bytes = run.clone();
    bytes.completed[0].report_json.push(' ');
    let mut energy = run.clone();
    energy.completed[0].energy_bits ^= 1;
    let mut lost = run;
    lost.completed.pop();
    for tampered in [crc, bytes, energy, lost] {
        let tally = tally_of_batch(0, batch, &Ok(tampered), &references);
        assert_eq!(tally.failed, 1);
        let outcome = Outcome {
            tally,
            ..Outcome::default()
        };
        assert!(!outcome.correct());
    }

    // The mission path: a reference whose digest differs rejects the run.
    let sim = batch.requests[0].spec.apply(&p.base).expect("spec applies");
    let mut refs = mission_references(std::slice::from_ref(&sim));
    let want = refs.get_mut(&(0, 0)).expect("reference");
    let got = Ok(want.json.clone());
    assert!(mission_matches(&got, want));
    want.json.replace_range(0..1, "[");
    assert!(!mission_matches(&got, want));
    assert!(!mission_matches(&Err("mission failed".into()), want));
}

#[test]
fn benchmark_json_lists_the_metrics_and_workloads_printed() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let doc = parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).expect("JSON");
    let listed = |key: &str| -> Vec<(String, String)> {
        doc.get(key)
            .and_then(Json::as_arr)
            .expect(key)
            .iter()
            .map(|m| {
                let field = |f: &str| m.get(f).and_then(Json::as_str).expect(f).to_string();
                (field("name"), field("unit"))
            })
            .collect()
    };
    let ours = |table: &[(&str, &str)]| -> Vec<(String, String)> {
        table
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(listed("end_to_end"), ours(END_TO_END));
    assert_eq!(listed("per_layer"), ours(PER_LAYER));
    let workloads: Vec<&str> = doc
        .get("workloads")
        .and_then(Json::as_arr)
        .expect("workloads")
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).expect("name"))
        .collect();
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(workloads, names);
}
