//! # fegen-bench — the experiment harness
//!
//! Reproduces every table and figure of the paper's evaluation. The crate
//! is a library (shared pipeline + methods + reporting) plus one binary per
//! paper artefact:
//!
//! | binary | artefact |
//! |---|---|
//! | `fig02_motivating` | Figure 2(b): the mesa loop, Baseline/Oracle/GCC/GCC-Tree/Ours |
//! | `fig03_04_tree_paths` | Figures 3–4: decision paths of the learned trees |
//! | `fig12_oracle_vs_gcc` | Figure 12: per-benchmark oracle vs GCC speedups (§VII-A limit study) |
//! | `fig13_comparison` | Figure 13: GCC vs stateML vs Ours, 10-fold CV |
//! | `fig14_stateml_features` | Figure 14: the 22 stateML features |
//! | `fig15_tree_comparison` | Figure 15: same learner (C4.5), different feature sets |
//! | `fig16_best_features` | Figure 16: the greedy feature list of one fold |
//! | `run_all` | everything, in order |
//!
//! All binaries accept `--paper` for paper-scale budgets (hours) and
//! default to a `--quick` preset (minutes) that preserves the experimental
//! protocol at reduced scale. Pass `--seed N` to change the master seed,
//! and `--dataset-dir DIR` to measure through the persistent dataset store
//! (see [`campaign`]) instead of re-measuring in memory.


// Library code must report through telemetry events or typed errors,
// never by printing; binaries are exempt (their crate roots are in bin/).
#![deny(clippy::print_stdout, clippy::print_stderr)]

pub mod campaign;
pub mod dataset;
pub mod methods;
mod par;
pub mod pipeline;
pub mod report;

pub use campaign::{
    campaign_fingerprint, load_suite_data, run_campaign, run_campaign_with_telemetry,
    CampaignConfig, CampaignError, CampaignReport, MeasureMode, SamplingPolicy,
};
pub use dataset::{DatasetError, DatasetStore, QuarantineEntry};
pub use pipeline::{
    build_suite_data, try_build_suite_data, BenchmarkSnapshot, ExperimentConfig, LoopRecord,
    PipelineError, SuiteData,
};

/// Parses the common CLI flags (`--paper`, `--quick`, `--seed N`,
/// `--folds N`, plus the undocumented `--tiny` smoke preset: the 3-program
/// suite at 2 folds, for tests that only need well-formed output fast).
pub fn config_from_args() -> ExperimentConfig {
    let args: Vec<String> = std::env::args().collect();
    let mut config = if args.iter().any(|a| a == "--paper") {
        ExperimentConfig::paper()
    } else {
        ExperimentConfig::quick()
    };
    if args.iter().any(|a| a == "--tiny") {
        config.suite = fegen_suite::SuiteConfig::tiny();
        config.folds = 2;
    }
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--seed" => {
                if let Some(v) = it.next().and_then(|v| v.parse().ok()) {
                    config.seed = v;
                }
            }
            "--folds" => {
                if let Some(v) = it.next().and_then(|v| v.parse().ok()) {
                    config.folds = v;
                }
            }
            _ => {}
        }
    }
    config
}

/// Parses the optional `--dataset-dir DIR` flag shared by the figure
/// binaries.
pub fn dataset_dir_from_args() -> Option<std::path::PathBuf> {
    let args: Vec<String> = std::env::args().collect();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "--dataset-dir" {
            return it.next().map(std::path::PathBuf::from);
        }
    }
    None
}

/// Builds a telemetry handle from the shared CLI flags `--telemetry-dir
/// DIR`, `--log-json` and `--progress`. Returns the disabled handle when
/// none are given; exits with a diagnostic when the sink cannot be opened.
pub fn telemetry_from_args() -> fegen_core::Telemetry {
    let args: Vec<String> = std::env::args().collect();
    let mut config = fegen_core::TelemetryConfig::default();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--telemetry-dir" => config.dir = it.next().map(std::path::PathBuf::from),
            "--log-json" => config.log_json = true,
            "--progress" => config.progress = true,
            _ => {}
        }
    }
    match config.build() {
        Ok(t) => t,
        Err(e) => {
            use std::io::Write;
            let _ = writeln!(std::io::stderr(), "error: cannot open telemetry sink: {e}");
            std::process::exit(2);
        }
    }
}

/// Builds [`SuiteData`] either in memory (no dataset directory: the
/// original `try_build_suite_data` path, exact simulation, no noise) or
/// through the persistent dataset store: open (or create) the dataset,
/// run the campaign for any benchmark not yet measured, then load the
/// stored cycle tables. Returns the data plus the quarantine entries
/// excluded from it (always empty on the in-memory path).
pub fn load_or_build_suite_data(
    config: &ExperimentConfig,
    dataset_dir: Option<&std::path::Path>,
) -> Result<(SuiteData, Vec<QuarantineEntry>), CampaignError> {
    load_or_build_suite_data_with_telemetry(config, dataset_dir, &fegen_core::Telemetry::disabled())
}

/// [`load_or_build_suite_data`] with a telemetry handle threaded into the
/// campaign and the dataset store. Telemetry never changes a shard byte.
pub fn load_or_build_suite_data_with_telemetry(
    config: &ExperimentConfig,
    dataset_dir: Option<&std::path::Path>,
    telemetry: &fegen_core::Telemetry,
) -> Result<(SuiteData, Vec<QuarantineEntry>), CampaignError> {
    let Some(dir) = dataset_dir else {
        let data = try_build_suite_data(config)?;
        return Ok((data, Vec::new()));
    };
    let sampling = SamplingPolicy::default();
    let store = DatasetStore::open(dir, campaign_fingerprint(config, &sampling))?
        .with_telemetry(telemetry.clone());
    let campaign = CampaignConfig {
        sampling,
        ..CampaignConfig::default()
    };
    let cancel = fegen_core::CancelToken::new();
    let report =
        run_campaign_with_telemetry(config, &campaign, &store, None, &cancel, telemetry)?;
    if report.measured > 0 {
        use std::io::Write;
        let _ = writeln!(
            std::io::stderr(),
            "# dataset: measured {} benchmark(s), reused {}",
            report.measured,
            report.resumed
        );
    }
    load_suite_data(config, &store)
}
