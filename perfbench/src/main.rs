//! The benchmark command:
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke]
//! ```
//!
//! Prints the run metadata, the workload's named metrics and (traced)
//! the layer breakdown as `#` lines, then one JSON result line with
//! `correct`, `attempted`, `failed` and `metrics`. The same report, plus
//! the spans of a traced run, is written to
//! `perfbench/out/<workload>-seed<n>-trace<t>.json`.

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use zolc_bench::json::Json;
use zolc_perfbench::report::{
    end_to_end, metrics_json, per_layer, span_table, tail, Metric, Outcome,
};
use zolc_perfbench::workloads::{self, Params};

/// The seed no tuning run uses: later changes confirm their claims on it.
const HOLDOUT_SEED: u64 = 9173;

/// Spans written to the report file at most.
const SPAN_LIMIT: usize = 20_000;

struct Args {
    workload: String,
    params: Params,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut smoke = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value()?
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace: expected 0 or 1, got `{other}`")),
                }
            }
            "--smoke" => smoke = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err(format!("--seconds must be positive, got {seconds}"));
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        params: Params {
            seed: seed.ok_or("--seed is required")?,
            seconds,
            trace,
            smoke,
        },
    })
}

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .map_or_else(|| PathBuf::from("."), Path::to_path_buf)
}

/// The commit of the source tree, when it is a git checkout.
fn git_commit(root: &Path) -> String {
    if !root.join(".git").exists() {
        return "unknown".into();
    }
    std::process::Command::new("git")
        .arg("-C")
        .arg(root)
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".into(), |s| s.trim().to_owned())
}

fn metadata(args: &Args, outcome: &Outcome) -> Json {
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    Json::Obj(vec![
        ("workload".into(), Json::Str(args.workload.clone())),
        ("seed".into(), Json::u64(args.params.seed)),
        ("holdout_seed".into(), Json::u64(HOLDOUT_SEED)),
        ("seconds".into(), Json::f64(args.params.seconds)),
        ("trace".into(), Json::Bool(args.params.trace)),
        ("smoke".into(), Json::Bool(args.params.smoke)),
        ("nproc".into(), Json::u64(nproc as u64)),
        ("threads".into(), Json::u64(outcome.threads as u64)),
        ("rustc".into(), Json::Str(env!("PERFBENCH_RUSTC").into())),
        ("git_commit".into(), Json::Str(git_commit(&repo_root()))),
        (
            "profile".into(),
            Json::Str(format!(
                "{} (opt-level {})",
                env!("PERFBENCH_PROFILE"),
                env!("PERFBENCH_OPT_LEVEL")
            )),
        ),
    ])
}

fn print_metrics(label: &str, metrics: &[Metric]) {
    for m in metrics {
        println!("# {label} {:<40} {:>16.4} {}", m.name, m.value, m.unit);
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = match workloads::run(&args.workload, &args.params) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };

    let meta = metadata(&args, &outcome);
    println!("# meta {}", meta.render());
    let mut named = outcome.named.clone();
    named.push(Metric::new(
        "error_rate",
        outcome.failed as f64 / outcome.attempted.max(1) as f64,
        "ratio",
    ));
    print_metrics("named", &named);
    let metrics = match &outcome.layers {
        Some(layers) => {
            let m = per_layer(layers);
            print_metrics("layer", &m);
            for (name, calls, mean_us, share) in span_table(layers) {
                println!("# span  {name:<32} {calls:>10} calls {mean_us:>12.3} us {share:>8.3} %");
            }
            m
        }
        None => {
            let (pct, _) = tail(&outcome.latencies_ms);
            println!(
                "# tail op_tail_ms is p{pct} of {} op samples",
                outcome.latencies_ms.len()
            );
            end_to_end(&outcome)
        }
    };

    let mut report = vec![
        ("meta".into(), meta),
        ("named".into(), metrics_json(&named)),
        ("metrics".into(), metrics_json(&metrics)),
    ];
    if let Some(layers) = &outcome.layers {
        let table = span_table(layers)
            .into_iter()
            .map(|(name, calls, mean_us, share)| {
                Json::Obj(vec![
                    ("name".into(), Json::Str(name.into())),
                    ("calls".into(), Json::u64(calls)),
                    ("mean_self_us".into(), Json::f64(mean_us)),
                    ("self_share_pct".into(), Json::f64(share)),
                ])
            })
            .collect();
        report.push(("span_table".into(), Json::Arr(table)));
        report.push(("spans".into(), layers.measure.to_json(SPAN_LIMIT)));
    }
    let dir = repo_root().join("perfbench").join("out");
    let file = dir.join(format!(
        "{}-seed{}-trace{}.json",
        args.workload,
        args.params.seed,
        u8::from(args.params.trace)
    ));
    if let Err(e) = std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&file, Json::Obj(report).render()))
    {
        eprintln!("perfbench: cannot write {}: {e}", file.display());
    }

    let result = Json::Obj(vec![
        ("correct".into(), Json::Bool(outcome.failed == 0)),
        ("attempted".into(), Json::u64(outcome.attempted)),
        ("failed".into(), Json::u64(outcome.failed)),
        ("metrics".into(), metrics_json(&metrics)),
    ]);
    println!("{}", result.render());
    ExitCode::SUCCESS
}
