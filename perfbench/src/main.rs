//! The fegen benchmark: one command, four workloads.
//!
//! ```text
//! perfbench --workload <figures|islands|islands_proc|serve> --seed N
//!           --seconds S --trace <0|1> --fegen PATH
//! ```
//!
//! `--fegen` is the `fegen` binary, which supplies the island worker
//! processes and the serve daemon. Every run checks the program's outputs
//! and prints, as the last line of standard output, one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. Untraced runs report
//! the end-to-end metrics of [`END_TO_END`]; traced runs (`--trace 1`)
//! repeat the measured phase with the benchmark's spans and the program's
//! telemetry on, and report the per-layer metrics of [`PER_LAYER`]
//! (0 where the workload does not exercise the layer). Scratch data goes
//! to `.perfbench/` in the current directory, and traced runs write their
//! spans to `.perfbench/trace-<workload>-<seed>.jsonl`.

mod common;
mod figures;
mod islands;
mod serve;
mod stats;
mod sys;
mod trace;

use common::{Metrics, Opts, RunResult};
use std::path::PathBuf;
use std::process::ExitCode;

/// End-to-end metrics (name, unit), reported by every workload.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("success_pct", "%"),
    ("ours_pct_of_max", "%"),
];

/// Per-layer metrics (name, unit) of the traced run.
pub const PER_LAYER: [(&str, &str); 59] = [
    ("suite.generate_s", "s"),
    ("campaign.wall_s", "s"),
    ("campaign.cpu_s", "s"),
    ("campaign.cells", "count"),
    ("campaign.cells_per_s", "1/s"),
    ("campaign.snapshot_builds", "count"),
    ("campaign.init_reuse_rate", "ratio"),
    ("campaign.retries", "count"),
    ("campaign.quarantined_sites", "count"),
    ("dataset.load_s", "s"),
    ("pipeline.build_suite_data_s", "s"),
    ("pipeline.speedups_s", "s"),
    ("methods.svm_cv_s", "s"),
    ("methods.tree_cv_s", "s"),
    ("methods.ours_cv_s", "s"),
    ("methods.ours_cv_calls", "count"),
    ("methods.fig15_ours_pct_of_max", "%"),
    ("grammar.derive_s", "s"),
    ("search.fold_s", "s"),
    ("search.cpu_s", "s"),
    ("search.generations", "count"),
    ("search.features", "count"),
    ("search.speedup", "x"),
    ("eval.matrix_s", "s"),
    ("eval.evals_per_s", "1/s"),
    ("eval.program_hit_rate", "ratio"),
    ("ml.tree_train_s", "s"),
    ("supervisor.idle_core_s", "s"),
    ("supervisor.wait_share", "ratio"),
    ("gp.rounds", "count"),
    ("supervisor.restarts", "count"),
    ("supervisor.heartbeat_missed", "count"),
    ("transport.frames", "count"),
    ("transport.bytes", "bytes"),
    ("workers.peak_rss_mb", "MiB"),
    ("serve.requests", "count"),
    ("serve.loops_per_s", "loops/s"),
    ("serve.p50_ms", "ms"),
    ("serve.tail_ms", "ms"),
    ("serve.tail_pct", "%"),
    ("serve.decode_us", "us"),
    ("serve.admit_us", "us"),
    ("serve.to_ir_us", "us"),
    ("serve.digest_us", "us"),
    ("serve.flatten_us", "us"),
    ("serve.eval_us", "us"),
    ("serve.predict_us", "us"),
    ("serve.encode_us", "us"),
    ("serve.engine_us", "us"),
    ("serve.client_overhead_us", "us"),
    ("serve.arena_hit_rate", "ratio"),
    ("serve.program_hit_rate", "ratio"),
    ("serve.queue_depth_peak", "count"),
    ("serve.daemon_cpu_s", "s"),
    ("proc.cpu_s", "s"),
    ("proc.cpu_util", "ratio"),
    ("trace.overhead_s", "s"),
    ("trace.unattributed_s", "s"),
    ("trace.spans", "count"),
];

/// Workload names, in the order BENCHMARK.json lists them.
pub const WORKLOADS: [&str; 4] = ["figures", "islands", "islands_proc", "serve"];

fn parse_args(args: &[String]) -> Result<Opts, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut fegen = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().cloned().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                seconds = Some(
                    value()?
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                })
            }
            "--fegen" => fegen = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err(format!("--seconds must be positive, not {seconds}"));
    }
    let fegen = fegen.ok_or("--fegen is required")?;
    if !fegen.is_file() {
        return Err(format!("no fegen binary at {}", fegen.display()));
    }
    Ok(Opts {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
        fegen,
        out_dir: PathBuf::from(".perfbench"),
    })
}

/// The self time of the measured job's root spans that the layer spans
/// under them do not cover, and the span count; each span's self time
/// goes to standard error.
pub fn report_self_times(tracer: &trace::Tracer, layers: &mut Metrics) {
    let spans = tracer.spans();
    let self_times = trace::self_times(&spans);
    for (name, s) in &self_times {
        eprintln!("  self {name:<28} {s:>10.4} s");
    }
    let with_children: std::collections::BTreeSet<u64> =
        spans.iter().filter_map(|s| s.parent).collect();
    let roots: Vec<trace::SpanRec> = spans
        .iter()
        .filter(|s| {
            s.parent.is_none() && with_children.contains(&s.id) && !s.name.ends_with("replay")
        })
        .cloned()
        .collect();
    let unattributed: f64 = roots
        .iter()
        .map(|r| {
            let mine: Vec<trace::SpanRec> = spans
                .iter()
                .filter(|s| s.id == r.id || s.parent == Some(r.id))
                .cloned()
                .collect();
            trace::self_times(&mine)
                .get(&r.name)
                .copied()
                .unwrap_or(0.0)
        })
        .sum();
    layers.set("trace.unattributed_s", unattributed);
    layers.set("trace.spans", spans.len() as f64);
}

fn run(opts: &Opts) -> Result<RunResult, String> {
    std::fs::create_dir_all(&opts.out_dir)
        .map_err(|e| format!("creating {}: {e}", opts.out_dir.display()))?;
    match opts.workload.as_str() {
        "figures" => figures::run(opts),
        "islands" => islands::run(opts, islands::Mode::Threads),
        "islands_proc" => islands::run(opts, islands::Mode::Processes),
        "serve" => serve::run(opts),
        other => Err(format!("unknown workload {other}")),
    }
}

/// The result line: every metric of the run's kind, with its unit.
fn result_json(result: &RunResult, trace: bool) -> (bool, String) {
    let mut correct = result.problems.is_empty();
    let (names, source): (&[(&str, &str)], &Metrics) = if trace {
        (&PER_LAYER, &result.layers)
    } else {
        (&END_TO_END, &result.end_to_end)
    };
    let mut metrics = Vec::new();
    for (name, unit) in names {
        let value = match (name, source.get(name)) {
            (&"success_pct", _) => result.tally.success_pct(),
            (_, Some(v)) => v,
            // A layer this workload does not exercise did no work.
            (_, None) if trace => 0.0,
            (_, None) => {
                eprintln!("perfbench: end-to-end metric {name} was not measured");
                correct = false;
                0.0
            }
        };
        let value = if value.is_finite() {
            value
        } else {
            eprintln!("perfbench: metric {name} is not finite ({value})");
            correct = false;
            0.0
        };
        metrics.push(format!(
            "{name:?}: {{\"value\": {value}, \"unit\": {unit:?}}}"
        ));
    }
    let line = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        result.tally.attempted.max(1),
        result.tally.failed,
        metrics.join(", ")
    );
    (correct, line)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let result = match run(&opts) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", opts.workload);
            return ExitCode::FAILURE;
        }
    };
    for p in &result.problems {
        eprintln!("perfbench: check failed: {p}");
    }
    let (correct, line) = result_json(&result, opts.trace);
    println!("{line}");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// BENCHMARK.json declares exactly the metrics and workloads this
    /// program reports.
    #[test]
    fn benchmark_json_matches_the_reported_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let v: serde::Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
        use fegen_core::telemetry::report::{field, field_str};
        let list = |key: &str| -> Vec<serde::Value> {
            match field(&v, key) {
                Some(serde::Value::Seq(items)) => items.clone(),
                other => panic!("{key} is not a list: {other:?}"),
            }
        };
        let named = |key: &str| -> Vec<(String, String)> {
            list(key)
                .iter()
                .map(|m| {
                    (
                        field_str(m, "name").expect("name").to_owned(),
                        field_str(m, "unit").unwrap_or("").to_owned(),
                    )
                })
                .collect()
        };
        let own = |l: &[(&str, &str)]| -> Vec<(String, String)> {
            l.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(named("end_to_end"), own(&END_TO_END));
        assert_eq!(named("per_layer"), own(&PER_LAYER));
        let workloads: Vec<String> = named("workloads").into_iter().map(|(n, _)| n).collect();
        assert_eq!(workloads, WORKLOADS.map(String::from).to_vec());
    }

    #[test]
    fn result_line_carries_every_metric_and_the_tally() {
        let mut r = RunResult::default();
        for (name, _) in END_TO_END {
            r.end_to_end.set(name, 1.5);
        }
        r.tally.add(10, 1);
        let (correct, line) = result_json(&r, false);
        assert!(correct);
        assert!(line.contains("\"attempted\": 10, \"failed\": 1"), "{line}");
        assert!(
            line.contains("\"success_pct\": {\"value\": 90, \"unit\": \"%\"}"),
            "{line}"
        );
        assert!(
            line.contains("\"wall_s\": {\"value\": 1.5, \"unit\": \"s\"}"),
            "{line}"
        );
        // A missing end-to-end metric fails the run; a missing layer is 0.
        let (correct, _) = result_json(&RunResult::default(), false);
        assert!(!correct);
        let (correct, line) = result_json(&RunResult::default(), true);
        assert!(correct);
        assert!(
            line.contains("\"serve.decode_us\": {\"value\": 0, \"unit\": \"us\"}"),
            "{line}"
        );
    }

    #[test]
    fn args_are_validated() {
        let exe = std::env::current_exe().expect("test binary path");
        let base = |extra: &[&str]| -> Vec<String> {
            let mut v: Vec<String> = [
                "--workload",
                "serve",
                "--seed",
                "3",
                "--seconds",
                "10",
                "--trace",
                "0",
                "--fegen",
            ]
            .iter()
            .map(|s| s.to_string())
            .collect();
            v.push(exe.to_string_lossy().into_owned());
            v.extend(extra.iter().map(|s| s.to_string()));
            v
        };
        let o = parse_args(&base(&[])).expect("valid flags parse");
        assert_eq!((o.seed, o.seconds, o.trace), (3, 10.0, false));
        assert!(parse_args(&base(&["--trace", "2"])).is_err());
        let mut bad = base(&[]);
        bad[1] = "nope".into();
        assert!(parse_args(&bad).is_err());
    }
}
