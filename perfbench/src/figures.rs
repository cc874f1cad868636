//! `figures`: the paper's reproduction as one closed batch job — a fresh
//! fork-once campaign, then the Figure 13 and Figure 15 computations
//! through the library entry points their binaries call, in their order.

use crate::common::{proc_metrics, repeated_setup, run_campaign, Opts, Probe, RunResult, Scratch};
use crate::stats::median;
use crate::sys::{self, CpuTimes};
use fegen_bench::methods::{
    predict_cv_svm, predict_cv_tree, try_predict_cv_ours, OursResult, N_CLASSES,
};
use fegen_bench::pipeline::{mean, try_compile};
use fegen_bench::{load_or_build_suite_data, try_build_suite_data, ExperimentConfig, SuiteData};
use fegen_core::{FeatureSearch, Grammar};
use fegen_ml::data::Dataset;
use fegen_ml::metrics::percent_of_max;
use fegen_ml::svm::SvmConfig;
use fegen_ml::tree::DecisionTree;
use fegen_ml::KFold;
use std::time::Instant;

/// Benchmarks taken from the quick suite (all 57 take about 70 s; the
/// first 20 keep one run inside the benchmark's time budget).
pub const BENCHMARKS: usize = 20;

/// The experiment: the quick preset over the first [`BENCHMARKS`]
/// quick-suite programs, with the preset's own seed. It is the same for
/// every run seed: any seed-driven change to the measured data or the
/// folds reshapes the GP trajectories, and single folds then take up to
/// six times their usual time, so the job's wall time would vary more
/// from seed to seed than any regression bound allows.
pub fn config() -> ExperimentConfig {
    let mut c = ExperimentConfig::quick();
    c.suite.n_benchmarks = BENCHMARKS;
    c
}

/// What one figure job produced.
struct Job {
    wall_s: f64,
    cpu_s: f64,
    data: SuiteData,
    fig13: Vec<(&'static str, Vec<f64>)>,
    fig15: Vec<(&'static str, Vec<f64>)>,
    factors: Vec<(&'static str, Vec<usize>)>,
    ours13: OursResult,
    campaign: crate::common::Campaign,
    peak_rss_mb: f64,
    ours_calls: usize,
}

pub fn run(opts: &Opts) -> Result<RunResult, String> {
    let config = config();
    // Set-up: generate the suite and compile every program once, which
    // also proves the inputs valid before anything is timed.
    let (setup_s, suite_s) = repeated_setup(25, || {
        let t0 = Instant::now();
        let suite = fegen_suite::generate_suite(&config.suite);
        let generate_s = t0.elapsed().as_secs_f64();
        for b in &suite {
            try_compile(b)
                .map_err(|e| format!("suite program {} does not compile: {e}", b.name))?;
        }
        Ok(generate_s)
    })?;

    let mut out = RunResult::default();
    let untraced = job(opts, &config, &Probe::new(false))?;
    check(&untraced, &config, &mut out);
    if opts.trace {
        let probe = Probe::new(true);
        let traced = job(opts, &config, &probe)?;
        check(&traced, &config, &mut out);
        let layers = &mut out.layers;
        layers.set("trace.overhead_s", traced.wall_s - untraced.wall_s);
        layers.set("suite.generate_s", suite_s);
        let t = &probe.tracer;
        traced.campaign.layer_metrics(layers);
        layers.set("dataset.load_s", t.total("dataset.load"));
        layers.set(
            "pipeline.build_suite_data_s",
            t.total("pipeline.build_suite_data"),
        );
        layers.set("pipeline.speedups_s", t.total("pipeline.speedups"));
        layers.set("methods.svm_cv_s", t.total("methods.svm_cv"));
        layers.set("methods.tree_cv_s", t.total("methods.tree_cv"));
        layers.set("methods.ours_cv_s", t.total("methods.ours_cv"));
        layers.set("methods.ours_cv_calls", traced.ours_calls as f64);
        layers.set("methods.fig15_ours_pct_of_max", ours_pct(&traced.fig15));
        proc_metrics(layers, traced.cpu_s, traced.wall_s);
        replay_folds(&config, &traced, &probe, &mut out)?;
        crate::report_self_times(&probe.tracer, &mut out.layers);
        probe
            .tracer
            .write_jsonl(
                &opts
                    .out_dir
                    .join(format!("trace-figures-{}.jsonl", opts.seed)),
            )
            .map_err(|e| format!("writing trace: {e}"))?;
    }

    let e = &mut out.end_to_end;
    e.set("setup_s", setup_s);
    e.set("wall_s", untraced.wall_s);
    e.set("peak_rss_mb", untraced.peak_rss_mb);
    e.set("ours_pct_of_max", ours_pct(&untraced.fig13));
    eprintln!(
        "figures: {} benchmarks, {} loops, wall {:.2} s, cpu {:.2} s, Fig13 Our {:.2}% of max, Fig15 Our {:.2}%",
        untraced.data.benchmarks.len(),
        untraced.data.loops.len(),
        untraced.wall_s,
        untraced.cpu_s,
        ours_pct(&untraced.fig13),
        ours_pct(&untraced.fig15),
    );
    Ok(out)
}

/// "Our" percent of the maximum available speedup in a figure's rows.
fn ours_pct(rows: &[(&'static str, Vec<f64>)]) -> f64 {
    let row = |name: &str| {
        &rows
            .iter()
            .find(|(n, _)| *n == name)
            .expect("figure row present")
            .1
    };
    percent_of_max(mean(row("Our")), mean(row("oracle"))) * 100.0
}

fn job(opts: &Opts, config: &ExperimentConfig, probe: &Probe) -> Result<Job, String> {
    let store = Scratch::new(opts, "figures-store")?;
    let t = &probe.tracer;
    let sim = &config.oracle.sim;
    let cpu0 = CpuTimes::now();
    let t0 = Instant::now();
    let root = t.span("figures");
    let mut ours_calls = 0usize;
    // A failed fold search leaves no figure to report: it ends the run.
    let mut ours = |data: &SuiteData| -> Result<OursResult, String> {
        let _s = t.span("methods.ours_cv");
        ours_calls += 1;
        try_predict_cv_ours(data, config.folds, config.seed, &config.search)
            .map_err(|e| format!("feature search: {e}"))
    };
    let speedups = |data: &SuiteData, factors: &[usize]| -> Result<Vec<f64>, String> {
        let _s = t.span("pipeline.speedups");
        data.try_all_benchmark_speedups(factors, sim)
            .map_err(|e| format!("deploying factors: {e}"))
    };

    // The campaign at --jobs = nproc, then the figure binaries' loader,
    // which finds every shard in place and loads them.
    let campaign = run_campaign(config, store.path(), sys::nproc(), t, &probe.telemetry)?;
    let (data, _) = {
        let _s = t.span("dataset.load");
        load_or_build_suite_data(config, Some(store.path()))
            .map_err(|e| format!("loading dataset: {e}"))?
    };

    // Figure 13.
    let oracle = speedups(&data, &data.oracle_factors())?;
    let gcc = speedups(&data, &data.gcc_factors())?;
    let svm = {
        let _s = t.span("methods.svm_cv");
        predict_cv_svm(
            &data,
            |l| l.stateml_feats.clone(),
            config.folds,
            config.seed,
            &SvmConfig::default(),
        )
    };
    let stateml = speedups(&data, &svm)?;
    let ours13 = ours(&data)?;
    let ours13_sp = speedups(&data, &ours13.factors)?;

    // Figure 15: its binary still builds its data in memory.
    let data15 = {
        let _s = t.span("pipeline.build_suite_data");
        try_build_suite_data(config).map_err(|e| format!("building suite data: {e}"))?
    };
    let oracle15 = speedups(&data15, &data15.oracle_factors())?;
    let tree = |features: &dyn Fn(&fegen_bench::LoopRecord) -> Vec<f64>| {
        let _s = t.span("methods.tree_cv");
        predict_cv_tree(
            &data15,
            features,
            config.folds,
            config.seed,
            &config.search.tree,
        )
    };
    let gcc_tree = tree(&|l| l.gcc_feats.clone());
    let sml_tree = tree(&|l| l.stateml_feats.clone());
    let combined = tree(&|l| {
        let mut v = l.gcc_feats.clone();
        v.extend(l.stateml_feats.iter());
        v
    });
    let gcc_tree_sp = speedups(&data15, &gcc_tree)?;
    let sml_tree_sp = speedups(&data15, &sml_tree)?;
    let combined_sp = speedups(&data15, &combined)?;
    let ours15 = ours(&data15)?;
    let ours15_sp = speedups(&data15, &ours15.factors)?;
    drop(root);
    let wall_s = t0.elapsed().as_secs_f64();
    let cpu_s = CpuTimes::now().since(&cpu0).total();
    let peak_rss_mb = sys::peak_rss_mb(None).unwrap_or(0.0);

    Ok(Job {
        wall_s,
        cpu_s,
        fig13: vec![
            ("oracle", oracle),
            ("GCC", gcc),
            ("stateML", stateml),
            ("Our", ours13_sp),
        ],
        fig15: vec![
            ("oracle", oracle15),
            ("GCCTree", gcc_tree_sp),
            ("sMLTree", sml_tree_sp),
            ("G+S", combined_sp),
            ("Our", ours15_sp),
        ],
        factors: vec![
            ("stateML", svm),
            ("Our13", ours13.factors.clone()),
            ("GCCTree", gcc_tree),
            ("sMLTree", sml_tree),
            ("G+S", combined),
            ("Our15", ours15.factors),
        ],
        ours13,
        data,
        campaign,
        peak_rss_mb,
        ours_calls,
    })
}

/// Every loop got a prediction, every factor is in range and every
/// speedup is finite and positive. Counts the job's campaign sites and
/// fold searches into the failure tally.
fn check(job: &Job, config: &ExperimentConfig, out: &mut RunResult) {
    let sites = job.campaign.tally();
    out.tally.add(sites.attempted, sites.failed);
    out.tally.add((job.ours_calls * config.folds) as u64, 0);
    let loops = job.data.loops.len();
    if loops == 0 {
        out.problem("figures: the campaign produced no loops");
    }
    for (name, factors) in &job.factors {
        if factors.len() != loops {
            out.problem(format!(
                "figures: {name} predicted {} of {loops} loops",
                factors.len()
            ));
        }
        if let Some(f) = factors.iter().find(|&&f| f >= N_CLASSES) {
            out.problem(format!(
                "figures: {name} predicted factor {f}, outside 0..{N_CLASSES}"
            ));
        }
    }
    for (name, row) in job.fig13.iter().chain(&job.fig15) {
        if let Some(s) = row.iter().find(|s| !s.is_finite() || **s <= 0.0) {
            out.problem(format!("figures: {name} has speedup {s}"));
        }
    }
}

/// Replays each Figure 13 search fold outside the timed job, with the
/// program's telemetry on, to split the search into grammar derivation,
/// GP search, feature-matrix evaluation and tree training. Each replayed
/// fold must find exactly the features the job's fold found.
fn replay_folds(
    config: &ExperimentConfig,
    job: &Job,
    probe: &Probe,
    out: &mut RunResult,
) -> Result<(), String> {
    let t = &probe.tracer;
    let _root = t.span("replay");
    let examples = job.data.training_examples();
    let labels: Vec<usize> = job.data.loops.iter().map(|l| l.label_factor()).collect();
    let mut fold_s = Vec::new();
    let (mut derive_s, mut matrix_s, mut tree_s, mut evals) = (0.0, 0.0, 0.0, 0u64);
    let (mut generations, mut features) = (0usize, 0usize);
    for (fold, (train, _)) in KFold::new(config.folds, config.seed)
        .splits(examples.len())
        .into_iter()
        .enumerate()
    {
        let train_examples: Vec<_> = train.iter().map(|&i| examples[i].clone()).collect();
        let mut cfg = config.search.clone();
        cfg.seed = config.seed ^ (fold as u64).wrapping_mul(0x9e37);
        let t0 = Instant::now();
        let grammar = {
            let _s = t.span("grammar.derive");
            Grammar::derive(train_examples.iter().map(|e| &e.ir))
        };
        derive_s += t0.elapsed().as_secs_f64();
        let fs = FeatureSearch::new(grammar, cfg.clone());
        let t1 = Instant::now();
        let outcome = {
            let _s = t.span("search.fold");
            fs.driver()
                .telemetry(probe.telemetry.clone())
                .run(&train_examples)
                .map_err(|e| format!("replaying fold {fold}: {e}"))?
        };
        fold_s.push(t1.elapsed().as_secs_f64());
        if job.ours13.outcomes.get(fold) != Some(&outcome) {
            out.problem(format!(
                "figures: replayed fold {fold} found different features than the job"
            ));
        }
        generations += outcome.total_generations;
        features += outcome.features.len();
        let t2 = Instant::now();
        let matrix = {
            let _s = t.span("eval.matrix");
            fs.feature_matrix(&outcome.features, &train_examples)
        };
        matrix_s += t2.elapsed().as_secs_f64();
        evals += (outcome.features.len() * train_examples.len()) as u64;
        if !outcome.features.is_empty() {
            let ys: Vec<usize> = train.iter().map(|&i| labels[i]).collect();
            let ds = Dataset::new(matrix, ys, N_CLASSES)
                .map_err(|e| format!("fold {fold} matrix: {e}"))?;
            let t3 = Instant::now();
            let _s = t.span("ml.tree_train");
            std::hint::black_box(DecisionTree::train(&ds, &cfg.tree));
            tree_s += t3.elapsed().as_secs_f64();
        }
    }
    let events = probe.events();
    let m = &mut out.layers;
    m.set("grammar.derive_s", derive_s);
    m.set("search.fold_s", median(&fold_s).unwrap_or(0.0));
    m.set("search.generations", generations as f64);
    m.set("search.features", features as f64);
    m.set("eval.matrix_s", matrix_s);
    m.set("eval.evals_per_s", evals as f64 / matrix_s.max(1e-9));
    m.set(
        "eval.program_hit_rate",
        crate::common::program_hit_rate(&events),
    );
    m.set("ml.tree_train_s", tree_s);
    Ok(())
}
