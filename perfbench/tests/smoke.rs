//! Every workload, at smoke size, in both modes: no failed op, and
//! exactly the metrics `BENCHMARK.json` declares.

use zolc_bench::json::{self, Json};
use zolc_perfbench::report::{end_to_end, per_layer};
use zolc_perfbench::workloads::{self, Params, NAMES};

fn declared(section: &str) -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let doc = json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
    doc.get(section)
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .map(|m| m.get("name").and_then(Json::as_str).unwrap().to_owned())
        .collect()
}

fn smoke(workload: &str, trace: bool) {
    let p = Params {
        seed: 1,
        seconds: 0.05,
        trace,
        smoke: true,
    };
    let o = workloads::run(workload, &p).unwrap();
    assert!(o.attempted > 0, "{workload}: nothing attempted");
    assert_eq!(
        o.failed, 0,
        "{workload}: {} of {} ops failed",
        o.failed, o.attempted
    );
    let metrics = match &o.layers {
        Some(l) => {
            assert!(trace);
            per_layer(l)
        }
        None => {
            assert!(!trace);
            end_to_end(&o)
        }
    };
    let names: Vec<String> = metrics.iter().map(|m| m.name.clone()).collect();
    let section = if trace { "per_layer" } else { "end_to_end" };
    assert_eq!(names, declared(section), "{workload}: metric names");
    for m in &metrics {
        assert!(m.value.is_finite(), "{workload}: {} = {}", m.name, m.value);
        if !trace {
            assert!(m.value > 0.0, "{workload}: {} is 0", m.name);
        }
    }
}

#[test]
fn workload_names_match_the_declaration() {
    assert_eq!(NAMES.to_vec(), declared("workloads"));
}

#[test]
fn e7_sweep_smoke() {
    smoke("e7_sweep", false);
    smoke("e7_sweep", true);
}

#[test]
fn fig2_kernels_smoke() {
    smoke("fig2_kernels", false);
    smoke("fig2_kernels", true);
}

#[test]
fn corpus_zolcc_smoke() {
    smoke("corpus_zolcc", false);
    smoke("corpus_zolcc", true);
}

#[test]
fn zolcd_mixed_smoke() {
    smoke("zolcd_mixed", false);
    smoke("zolcd_mixed", true);
}

#[test]
fn unknown_workload_is_an_error() {
    let p = Params {
        seed: 1,
        seconds: 0.01,
        trace: false,
        smoke: true,
    };
    assert!(workloads::run("nope", &p).is_err());
}
