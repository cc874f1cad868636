//! Pieces the workloads share: scratch directories, the measurement
//! campaign, telemetry parsing and the run's metric record.

use crate::stats::Tally;
use crate::sys::CpuTimes;
use crate::trace::Tracer;
use fegen_bench::{
    campaign_fingerprint, load_suite_data, run_campaign_with_telemetry, CampaignConfig,
    CampaignReport, DatasetStore, ExperimentConfig, SamplingPolicy, SuiteData,
};
use fegen_core::Telemetry;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Command-line options of one run.
#[derive(Debug, Clone)]
pub struct Opts {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// The `fegen` binary (island workers, serve daemon).
    pub fegen: PathBuf,
    /// Directory for scratch data and trace files.
    pub out_dir: PathBuf,
}

/// A directory under the run's output directory, removed when dropped.
pub struct Scratch(PathBuf);

impl Scratch {
    pub fn new(opts: &Opts, tag: &str) -> Result<Scratch, String> {
        static NEXT: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
        let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let dir = opts
            .out_dir
            .join("tmp")
            .join(format!("{tag}-{}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        Ok(Scratch(dir))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// What a fresh campaign into an empty store did.
pub struct Campaign {
    pub report: CampaignReport,
    pub wall_s: f64,
    pub cpu_s: f64,
}

impl Campaign {
    /// Sites attempted (measured or quarantined) and sites lost to
    /// quarantine, for the failure tally.
    pub fn tally(&self) -> Tally {
        let lost = self.report.quarantined.len() as u64;
        Tally {
            attempted: self.report.sites_measured as u64 + lost,
            failed: lost,
        }
    }

    /// The campaign's layer metrics.
    pub fn layer_metrics(&self, m: &mut Metrics) {
        let r = &self.report;
        m.set("campaign.wall_s", self.wall_s);
        m.set("campaign.cpu_s", self.cpu_s);
        m.set("campaign.cells", r.forks as f64);
        m.set(
            "campaign.cells_per_s",
            r.forks as f64 / self.wall_s.max(1e-9),
        );
        m.set("campaign.snapshot_builds", r.snapshot_builds as f64);
        m.set(
            "campaign.init_reuse_rate",
            if r.forks == 0 {
                0.0
            } else {
                r.init_forks as f64 / r.forks as f64
            },
        );
        m.set("campaign.retries", r.retries as f64);
        m.set("campaign.quarantined_sites", r.quarantined.len() as f64);
    }
}

/// The dataset store of `config` in `dir`.
fn open_store(config: &ExperimentConfig, dir: &Path) -> Result<DatasetStore, String> {
    DatasetStore::open(
        dir,
        campaign_fingerprint(config, &SamplingPolicy::default()),
    )
    .map_err(|e| format!("opening dataset store: {e}"))
}

/// Runs a fresh fork-once campaign of `config`'s suite into `dir` with
/// `jobs` workers.
pub fn run_campaign(
    config: &ExperimentConfig,
    dir: &Path,
    jobs: usize,
    tracer: &Tracer,
    telemetry: &Telemetry,
) -> Result<Campaign, String> {
    let cpu0 = CpuTimes::now();
    let t0 = Instant::now();
    let report = {
        let _span = tracer.span("campaign");
        let store = open_store(config, dir)?.with_telemetry(telemetry.clone());
        let campaign = CampaignConfig {
            jobs,
            sampling: SamplingPolicy::default(),
            ..CampaignConfig::default()
        };
        let cancel = fegen_core::CancelToken::new();
        run_campaign_with_telemetry(config, &campaign, &store, None, &cancel, telemetry)
            .map_err(|e| format!("campaign: {e}"))?
    };
    Ok(Campaign {
        report,
        wall_s: t0.elapsed().as_secs_f64(),
        cpu_s: CpuTimes::now().since(&cpu0).total(),
    })
}

/// Measures `config`'s suite into a fresh store in `dir` and loads it.
pub fn measured_suite(config: &ExperimentConfig, dir: &Path) -> Result<SuiteData, String> {
    let tracer = Tracer::new(false);
    let campaign = run_campaign(
        config,
        dir,
        crate::sys::nproc(),
        &tracer,
        &Telemetry::disabled(),
    )?;
    if !campaign.report.quarantined.is_empty() {
        return Err(format!(
            "campaign quarantined {:?}",
            campaign.report.quarantined
        ));
    }
    let (data, _) = load_suite_data(config, &open_store(config, dir)?)
        .map_err(|e| format!("loading dataset: {e}"))?;
    Ok(data)
}

/// The tracer and program telemetry of one measured pass: both off for
/// the end-to-end numbers, both on for the traced run.
pub struct Probe {
    pub tracer: Tracer,
    pub telemetry: Telemetry,
}

impl Probe {
    pub fn new(traced: bool) -> Probe {
        Probe {
            tracer: Tracer::new(traced),
            telemetry: if traced {
                Telemetry::memory()
            } else {
                Telemetry::disabled()
            },
        }
    }

    /// The program's telemetry events so far, parsed (drains the buffer).
    pub fn events(&self) -> Vec<Event> {
        self.telemetry
            .drain_memory()
            .iter()
            .filter_map(|line| Event::parse(line))
            .collect()
    }
}

/// One parsed telemetry event line.
pub struct Event(serde::Value);

impl Event {
    /// Parses one JSON event line.
    pub fn parse(line: &str) -> Option<Event> {
        serde_json::from_str::<serde::Value>(line).ok().map(Event)
    }

    pub fn kind(&self) -> &str {
        fegen_core::telemetry::report::field_str(&self.0, "kind").unwrap_or("")
    }

    pub fn str(&self, key: &str) -> Option<&str> {
        fegen_core::telemetry::report::field_str(&self.0, key)
    }

    pub fn u64(&self, key: &str) -> Option<u64> {
        fegen_core::telemetry::report::field_u64(&self.0, key)
    }

    pub fn f64(&self, key: &str) -> Option<f64> {
        fegen_core::telemetry::report::field_f64(&self.0, key)
    }
}

/// The sum of every emission of metric `name` (each search emits its own
/// pool's counters once, so the sum covers every search in the log).
pub fn metric_sum(events: &[Event], name: &str) -> f64 {
    events
        .iter()
        .filter(|e| e.kind() == "metric" && e.str("metric") == Some(name))
        .filter_map(|e| e.f64("value"))
        .sum()
}

/// Compiled-program cache hit rate of the searches' evaluation pools.
pub fn program_hit_rate(events: &[Event]) -> f64 {
    let hits = metric_sum(events, "eval.program_hits");
    let misses = metric_sum(events, "eval.program_misses");
    if hits + misses == 0.0 {
        0.0
    } else {
        hits / (hits + misses)
    }
}

/// Named metric values of one run.
#[derive(Debug, Clone, Default)]
pub struct Metrics(pub BTreeMap<String, f64>);

impl Metrics {
    pub fn set(&mut self, name: &str, value: f64) {
        self.0.insert(name.to_owned(), value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }
}

/// Everything one run reports: the failure tally, the output problems
/// found by the checks, and the metrics.
#[derive(Debug, Default)]
pub struct RunResult {
    pub tally: Tally,
    pub problems: Vec<String>,
    pub end_to_end: Metrics,
    pub layers: Metrics,
}

impl RunResult {
    /// Records a failed output check.
    pub fn problem(&mut self, p: impl Into<String>) {
        self.problems.push(p.into());
    }
}

/// Runs `f` `times` times and returns the median of its wall times, with
/// the last result.
pub fn repeated_setup<T>(
    times: usize,
    mut f: impl FnMut() -> Result<T, String>,
) -> Result<(f64, T), String> {
    let mut walls = Vec::with_capacity(times);
    let mut last = None;
    for _ in 0..times.max(1) {
        let t0 = Instant::now();
        let v = f()?;
        walls.push(t0.elapsed().as_secs_f64());
        last = Some(v);
    }
    let median = crate::stats::median(&walls).expect("at least one set-up ran");
    Ok((median, last.expect("at least one set-up ran")))
}

/// CPU time and wall time of the measured phase, as `proc.*` layer
/// metrics.
pub fn proc_metrics(m: &mut Metrics, cpu_s: f64, wall_s: f64) {
    m.set("proc.cpu_s", cpu_s);
    m.set(
        "proc.cpu_util",
        cpu_s / (wall_s.max(1e-9) * crate::sys::nproc() as f64),
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use fegen_bench::QuarantineEntry;

    #[test]
    fn quarantined_sites_count_as_failed_attempts() {
        let entry = |site: &str| QuarantineEntry {
            bench: "b".into(),
            site: Some(site.into()),
            attempts: 3,
            reason: "injected".into(),
        };
        let campaign = Campaign {
            report: CampaignReport {
                sites_measured: 10,
                quarantined: vec![entry("f#0"), entry("f#1")],
                ..CampaignReport::default()
            },
            wall_s: 1.0,
            cpu_s: 1.0,
        };
        assert_eq!(
            campaign.tally(),
            Tally {
                attempted: 12,
                failed: 2
            }
        );
    }

    #[test]
    fn metric_sums_cover_every_emission() {
        let line = |name: &str, v: u64| {
            format!(
                "{{\"seq\":0,\"ts_ms\":0,\"kind\":\"metric\",\"metric\":\"{name}\",\"value\":{v}}}"
            )
        };
        let events: Vec<Event> = [
            line("eval.program_hits", 30),
            line("eval.program_misses", 10),
            line("eval.program_hits", 50),
            line("eval.program_misses", 10),
        ]
        .iter()
        .filter_map(|l| Event::parse(l))
        .collect();
        assert_eq!(metric_sum(&events, "eval.program_hits"), 80.0);
        assert!((program_hit_rate(&events) - 0.8).abs() < 1e-12);
        assert_eq!(program_hit_rate(&[]), 0.0);
    }
}
