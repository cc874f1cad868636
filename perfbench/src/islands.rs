//! `islands` and `islands_proc`: one 4-island ring search over the loops
//! of 12 quick-suite programs, its islands stepped by two
//! coordinator threads or by two `fegen island-worker` processes. Each
//! workload checks its outcome against the other mode's: the two must be
//! identical.

use crate::common::{
    measured_suite, proc_metrics, repeated_setup, Event, Opts, Probe, RunResult, Scratch,
};
use crate::sys::{self, CpuTimes};
use fegen_bench::ExperimentConfig;
use fegen_core::{
    ChannelKind, FeatureSearch, Grammar, IslandTopology, SearchConfig, SearchOutcome, Telemetry,
    TrainingExample, WorkerLauncher,
};
use fegen_ml::data::Dataset;
use fegen_ml::tree::DecisionTree;
use std::time::Instant;

/// Quick-suite programs whose loops the search trains on.
pub const BENCHMARKS: usize = 12;
/// Islands in the ring.
pub const ISLANDS: usize = 4;
/// Total GP generation budget of the search (the quick preset's 400 would
/// take most of the benchmark's time budget on its own).
pub const GENERATIONS: usize = 160;
/// GP generations (rounds) of each feature step.
pub const STEP_GENERATIONS: usize = 10;
/// Coordinator threads or worker processes.
pub const WORKERS: usize = 2;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    Threads,
    Processes,
}

impl Mode {
    fn other(self) -> Mode {
        match self {
            Mode::Threads => Mode::Processes,
            Mode::Processes => Mode::Threads,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Mode::Threads => "islands",
            Mode::Processes => "islands_proc",
        }
    }
}

/// The search's inputs: measured loops and the configured search.
pub struct Setup {
    pub examples: Vec<TrainingExample>,
    pub search: FeatureSearch,
}

/// Measures the first [`BENCHMARKS`] quick-suite programs and configures
/// the ring search over all their loops. The inputs are the same for
/// every run seed: a seeded draw leaves the wall time alone (the round
/// count sets it) but moves `ours_pct_of_max` by 0.16 of its median from
/// seed to seed.
pub fn setup(opts: &Opts) -> Result<Setup, String> {
    let mut experiment = ExperimentConfig::quick();
    experiment.suite.n_benchmarks = BENCHMARKS;
    let store = Scratch::new(opts, "islands-store")?;
    let examples = measured_suite(&experiment, store.path())?.training_examples();
    // A fixed amount of work: a failed feature addition never ends the
    // search early and no island converges early, so every GP run takes
    // exactly STEP_GENERATIONS rounds until the generation budget is
    // spent. The round count sets the search's wall time while the
    // supervisors poll.
    let mut config = SearchConfig::quick();
    config.max_total_generations = GENERATIONS;
    config.max_failed_additions = config.max_features;
    config.gp.max_generations = STEP_GENERATIONS;
    config.gp.stagnation_limit = STEP_GENERATIONS;
    config.topology = IslandTopology::ring(ISLANDS);
    let search = FeatureSearch::from_examples(&examples, config);
    Ok(Setup { examples, search })
}

/// Runs the search in `mode`. `heartbeat_ms` overrides the default
/// heartbeat deadline (0 turns the observational monitor off).
fn search(
    opts: &Opts,
    setup: &Setup,
    mode: Mode,
    telemetry: &Telemetry,
    heartbeat_ms: Option<u64>,
) -> Result<SearchOutcome, String> {
    let mut driver = setup.search.driver().telemetry(telemetry.clone());
    driver = match mode {
        Mode::Threads => driver.workers(WORKERS),
        Mode::Processes => driver.process_workers(
            WORKERS,
            WorkerLauncher::Command {
                argv: vec![
                    opts.fegen.to_string_lossy().into_owned(),
                    "island-worker".into(),
                ],
                channel: ChannelKind::Stdio,
            },
        ),
    };
    if let Some(ms) = heartbeat_ms {
        driver = driver.heartbeat_deadline_ms(ms);
    }
    driver
        .run(&setup.examples)
        .map_err(|e| format!("{} search: {e}", mode.name()))
}

/// One timed search.
struct Timed {
    outcome: SearchOutcome,
    wall_s: f64,
    cpu_s: f64,
    io_bytes: u64,
    peak_rss_mb: f64,
}

fn timed(opts: &Opts, setup: &Setup, mode: Mode, probe: &Probe) -> Result<Timed, String> {
    let cpu0 = CpuTimes::now();
    let io0 = sys::io_bytes();
    let t0 = Instant::now();
    let outcome = {
        let _s = probe.tracer.span("search");
        search(opts, setup, mode, &probe.telemetry, None)?
    };
    let wall_s = t0.elapsed().as_secs_f64();
    Ok(Timed {
        outcome,
        wall_s,
        cpu_s: CpuTimes::now().since(&cpu0).total(),
        io_bytes: sys::io_bytes().saturating_sub(io0),
        peak_rss_mb: sys::peak_rss_mb(None).unwrap_or(0.0),
    })
}

/// The final internal-validation speedup of a search.
pub fn final_speedup(o: &SearchOutcome) -> f64 {
    o.steps.last().map_or(o.baseline_speedup, |s| s.speedup)
}

pub fn run(opts: &Opts, mode: Mode) -> Result<RunResult, String> {
    let (setup_s, setup) = repeated_setup(3, || setup(opts))?;
    let mut out = RunResult::default();
    let measured = timed(opts, &setup, mode, &Probe::new(false))?;
    out.tally.add(1, 0);

    // The byte-identity invariant: the other execution mode, with the
    // observational heartbeat monitor off, must return the same outcome.
    let reference = search(opts, &setup, mode.other(), &Telemetry::disabled(), Some(0))?;
    out.tally.add(1, 0);
    if reference != measured.outcome {
        out.problem(format!(
            "{}: outcome differs from the {} outcome ({} vs {} features, speedup {} vs {})",
            mode.name(),
            mode.other().name(),
            measured.outcome.features.len(),
            reference.features.len(),
            final_speedup(&measured.outcome),
            final_speedup(&reference),
        ));
    }

    if opts.trace {
        let probe = Probe::new(true);
        let traced = timed(opts, &setup, mode, &probe)?;
        if traced.outcome != measured.outcome {
            out.problem(format!(
                "{}: the traced search returned a different outcome",
                mode.name()
            ));
        }
        layer_metrics(&setup, mode, &traced, &measured, &probe, &mut out)?;
        crate::report_self_times(&probe.tracer, &mut out.layers);
        probe
            .tracer
            .write_jsonl(
                &opts
                    .out_dir
                    .join(format!("trace-{}-{}.jsonl", mode.name(), opts.seed)),
            )
            .map_err(|e| format!("writing trace: {e}"))?;
    }

    let o = &measured.outcome;
    let e = &mut out.end_to_end;
    e.set("setup_s", setup_s);
    e.set("wall_s", measured.wall_s);
    e.set("peak_rss_mb", measured.peak_rss_mb);
    e.set(
        "ours_pct_of_max",
        fegen_ml::metrics::percent_of_max(final_speedup(o), o.oracle_speedup) * 100.0,
    );
    eprintln!(
        "{}: {} loops, wall {:.2} s, cpu {:.2} s, {} features, speedup {:.4} (oracle {:.4}), {} generations",
        mode.name(),
        setup.examples.len(),
        measured.wall_s,
        measured.cpu_s,
        o.features.len(),
        final_speedup(o),
        o.oracle_speedup,
        o.total_generations,
    );
    Ok(out)
}

/// Rounds the island runs took. Each GP run's merge reports every
/// island's generation count, island 0 first; a run took as many rounds
/// as its longest-running island.
fn gp_rounds(events: &[Event]) -> u64 {
    let mut rounds = 0u64;
    let mut run_max = 0u64;
    for e in events.iter().filter(|e| e.kind() == "island_done") {
        if e.u64("island") == Some(0) {
            rounds += run_max;
            run_max = 0;
        }
        run_max = run_max.max(e.u64("generations").unwrap_or(0));
    }
    rounds + run_max
}

/// The traced search's layer metrics, and the failure tally of its
/// supervision (restarts and frozen islands against rounds).
fn layer_metrics(
    setup: &Setup,
    mode: Mode,
    traced: &Timed,
    untraced: &Timed,
    probe: &Probe,
    out: &mut RunResult,
) -> Result<(), String> {
    let tel = &probe.telemetry;
    let t = &probe.tracer;
    let events = probe.events();
    let rounds = gp_rounds(&events);
    let restarts = tel.counter_value("island.restarts")
        + tel.counter_value("worker.respawns")
        + tel.counter_value("worker.reconnects");
    let frozen = tel.counter_value("island.frozen");
    out.tally.add(rounds, restarts + frozen);

    let o = &traced.outcome;
    let replay = {
        let _s = t.span("replay");
        let t0 = Instant::now();
        let grammar = {
            let _s = t.span("grammar.derive");
            Grammar::derive(setup.examples.iter().map(|e| &e.ir))
        };
        let derive_s = t0.elapsed().as_secs_f64();
        std::hint::black_box(grammar);
        let t1 = Instant::now();
        let matrix = {
            let _s = t.span("eval.matrix");
            setup.search.feature_matrix(&o.features, &setup.examples)
        };
        let matrix_s = t1.elapsed().as_secs_f64();
        let mut tree_s = 0.0;
        if !o.features.is_empty() {
            let ys: Vec<usize> = setup
                .examples
                .iter()
                .map(TrainingExample::best_value)
                .collect();
            let n_classes = setup
                .examples
                .iter()
                .map(|e| e.cycles.len())
                .max()
                .unwrap_or(1);
            let ds =
                Dataset::new(matrix, ys, n_classes).map_err(|e| format!("feature matrix: {e}"))?;
            let t2 = Instant::now();
            let _s = t.span("ml.tree_train");
            std::hint::black_box(DecisionTree::train(&ds, &setup.search.config().tree));
            tree_s = t2.elapsed().as_secs_f64();
        }
        (derive_s, matrix_s, tree_s)
    };

    let m = &mut out.layers;
    m.set("trace.overhead_s", traced.wall_s - untraced.wall_s);
    m.set("search.fold_s", traced.wall_s);
    m.set("search.cpu_s", traced.cpu_s);
    m.set("search.generations", o.total_generations as f64);
    m.set("search.features", o.features.len() as f64);
    m.set("search.speedup", final_speedup(o));
    m.set("grammar.derive_s", replay.0);
    m.set("eval.matrix_s", replay.1);
    m.set(
        "eval.evals_per_s",
        (o.features.len() * setup.examples.len()) as f64 / replay.1.max(1e-9),
    );
    m.set(
        "eval.program_hit_rate",
        crate::common::program_hit_rate(&events),
    );
    m.set("ml.tree_train_s", replay.2);
    let cores = traced.wall_s * WORKERS as f64;
    let idle = (cores - traced.cpu_s).max(0.0);
    m.set("supervisor.idle_core_s", idle);
    m.set("supervisor.wait_share", idle / cores.max(1e-9));
    m.set("gp.rounds", rounds as f64);
    m.set("supervisor.restarts", restarts as f64);
    m.set(
        "supervisor.heartbeat_missed",
        (tel.counter_value("island.heartbeat_missed")
            + tel.counter_value("worker.heartbeat_missed")) as f64,
    );
    if mode == Mode::Processes {
        m.set(
            "transport.frames",
            (tel.counter_value("worker.frames_tx") + tel.counter_value("worker.frames_rx")) as f64,
        );
        m.set("transport.bytes", traced.io_bytes as f64);
        m.set("workers.peak_rss_mb", sys::children_peak_rss_mb());
    }
    proc_metrics(m, traced.cpu_s, traced.wall_s);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rounds_are_the_longest_island_of_each_run() {
        let line = |island: u64, generations: u64| {
            format!("{{\"seq\":0,\"ts_ms\":0,\"kind\":\"island_done\",\"island\":{island},\"generations\":{generations}}}")
        };
        let lines = [line(0, 7), line(1, 9), line(2, 3), line(0, 4), line(1, 2)];
        let events: Vec<Event> = lines.iter().filter_map(|l| Event::parse(l)).collect();
        assert_eq!(events.len(), 5);
        assert_eq!(gp_rounds(&events), 9 + 4);
        assert_eq!(gp_rounds(&[]), 0);
    }
}
