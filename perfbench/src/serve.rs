//! `serve`: a `fegen serve --socket` daemon with default options, loading
//! a model whose features one search over a fixed draw found. Two closed-loop
//! clients, one connection each, stand in for compiler jobs waiting on
//! their reply: each request is one `Predict` carrying every loop of one
//! quick-suite benchmark, and every pass sends the benchmarks in a fresh
//! seeded order, like a clean build of the suite.

use crate::common::{
    measured_suite, proc_metrics, repeated_setup, Opts, Probe, RunResult, Scratch,
};
use crate::stats::{median, percentile, supported_percentile, TAIL_SAMPLES};
use crate::sys::{self, CpuTimes};
use fegen_bench::ExperimentConfig;
use fegen_core::gp::transport::{FrameTransport, StreamTransport, FRAME_HEADER_LEN};
use fegen_core::serve::wire::validate_batch;
use fegen_core::serve::{
    decode_request, decode_response, encode_request, encode_response, Decision, ModelArtifact,
    ServeEngine, ServeOptions, ServeRequest, ServeResponse, WireNode, SERVE_PROTOCOL,
};
use fegen_core::{
    stable_hash, EvalPool, FeatureSearch, IrArena, SearchConfig, Telemetry, TrainingExample,
};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Closed-loop clients, one connection each.
pub const CLIENTS: usize = 2;
/// Benchmarks whose loops train the served model.
pub const TRAIN_BENCHMARKS: usize = 12;
/// Seed of the served model's training draw and search.
const MODEL_SEED: u64 = 0xfe9e;
/// Latency samples a window collects at least (so a 99th percentile has
/// ten samples beyond it), unless it runs out of time first.
pub const MIN_REQUESTS: usize = 1000;

/// Everything the clients send and the answers they must get back.
struct Prepared {
    _dir: Scratch,
    model_path: PathBuf,
    /// Per benchmark: the encoded request and its loops.
    requests: Vec<(Vec<u8>, Vec<WireNode>)>,
    /// Per benchmark: the in-process engine's decisions.
    reference: Vec<Vec<usize>>,
    /// Share of the available loop speedup the reference decisions take.
    pct_of_max: f64,
}

fn prepare(opts: &Opts) -> Result<Prepared, String> {
    let dir = Scratch::new(opts, "serve")?;
    let experiment = ExperimentConfig::quick();
    let data = measured_suite(&experiment, &dir.path().join("store"))?;
    let n_bench = data.benchmarks.len();

    // The deployed model: the features one search fold finds on the loops
    // of a draw of benchmarks, and a tree trained over them. The model is
    // the same for every seed — the daemon serves one artifact, the seed
    // varies the traffic.
    let mut order: Vec<usize> = (0..n_bench).collect();
    order.shuffle(&mut StdRng::seed_from_u64(MODEL_SEED));
    let train_bench = &order[..TRAIN_BENCHMARKS.min(n_bench)];
    let train: Vec<TrainingExample> = data
        .loops
        .iter()
        .filter(|l| train_bench.contains(&l.bench))
        .map(|l| TrainingExample {
            ir: l.ir.clone(),
            cycles: l.cycles.clone(),
        })
        .collect();
    let mut config = SearchConfig::quick();
    config.seed = MODEL_SEED;
    let outcome = FeatureSearch::from_examples(&train, config.clone())
        .try_run(&train)
        .map_err(|e| format!("model search: {e}"))?;
    let artifact = ModelArtifact::train(&config, &outcome.features, &train)
        .map_err(|e| format!("training the served model: {e}"))?;
    let model_path = dir.path().join("model.fgm");
    artifact
        .save(&model_path)
        .map_err(|e| format!("saving model: {e}"))?;

    let engine = ServeEngine::new(
        model_path.clone(),
        ServeOptions::default(),
        Telemetry::disabled(),
    )
    .map_err(|e| format!("loading model in process: {e}"))?;
    let mut requests = Vec::with_capacity(n_bench);
    let mut reference = Vec::with_capacity(n_bench);
    let (mut tables, mut choices) = (Vec::new(), Vec::new());
    for b in 0..n_bench {
        let records: Vec<_> = data.loops.iter().filter(|l| l.bench == b).collect();
        let loops: Vec<WireNode> = records.iter().map(|l| WireNode::from_ir(&l.ir)).collect();
        let payload = encode_request(&ServeRequest::Predict {
            id: b as u64 + 1,
            loops: loops.clone(),
        })?;
        let decisions: Vec<usize> = engine
            .predict(&loops)
            .map_err(|e| format!("reference predict of benchmark {b}: {e}"))?
            .iter()
            .map(|d| d.unroll)
            .collect();
        for (l, &d) in records.iter().zip(&decisions) {
            tables.push(l.cycles.clone());
            choices.push(d);
        }
        requests.push((payload, loops));
        reference.push(decisions);
    }
    let pct_of_max = fegen_ml::metrics::percent_of_max(
        fegen_ml::metrics::mean_speedup(&tables, &choices),
        fegen_ml::metrics::mean_oracle_speedup(&tables),
    ) * 100.0;
    Ok(Prepared {
        _dir: dir,
        model_path,
        requests,
        reference,
        pct_of_max,
    })
}

/// A running daemon; killed and reaped if dropped before `shutdown`.
struct Daemon {
    child: Option<Child>,
    socket: PathBuf,
}

impl Daemon {
    fn start(
        opts: &Opts,
        model: &Path,
        socket: PathBuf,
        telemetry_dir: Option<&Path>,
    ) -> Result<Daemon, String> {
        let mut cmd = Command::new(&opts.fegen);
        cmd.arg("serve")
            .arg("--socket")
            .arg(&socket)
            .arg("--model")
            .arg(model);
        if let Some(dir) = telemetry_dir {
            cmd.arg("--telemetry-dir").arg(dir);
        }
        let child = cmd
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawning the serve daemon: {e}"))?;
        Ok(Daemon {
            child: Some(child),
            socket,
        })
    }

    fn pid(&self) -> u32 {
        self.child.as_ref().map_or(0, Child::id)
    }

    /// A connection that has completed the handshake.
    fn connect(&mut self) -> Result<Client, String> {
        let deadline = Instant::now() + Duration::from_secs(60);
        let stream = loop {
            match UnixStream::connect(&self.socket) {
                Ok(s) => break s,
                Err(e) if Instant::now() > deadline => {
                    return Err(format!("connecting to the daemon: {e}"))
                }
                Err(_) => {
                    if let Some(status) = self
                        .child
                        .as_mut()
                        .and_then(|c| c.try_wait().ok().flatten())
                    {
                        return Err(format!("the serve daemon exited at start-up: {status}"));
                    }
                    std::thread::sleep(Duration::from_millis(5));
                }
            }
        };
        let reader = stream
            .try_clone()
            .map_err(|e| format!("cloning the socket: {e}"))?;
        let mut client = Client {
            wire: StreamTransport::new(reader, stream),
            frames: 0,
            bytes: 0,
        };
        match client.call(&encode_request(&ServeRequest::Hello {
            protocol: SERVE_PROTOCOL,
        })?)? {
            ServeResponse::HelloAck { .. } => Ok(client),
            other => Err(format!("expected HelloAck, got {other:?}")),
        }
    }

    /// Asks the daemon to stop over `client` and reaps it.
    fn shutdown(mut self, mut client: Client) -> Result<(), String> {
        let bye = client.call(&encode_request(&ServeRequest::Shutdown)?)?;
        drop(client);
        let mut child = self.child.take().expect("daemon not yet reaped");
        let status = child
            .wait()
            .map_err(|e| format!("waiting for the daemon: {e}"))?;
        match bye {
            ServeResponse::Bye if status.success() => Ok(()),
            ServeResponse::Bye => Err(format!("the daemon exited uncleanly: {status}")),
            other => Err(format!("expected Bye, got {other:?}")),
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// One client connection with its frame and byte counts.
struct Client {
    wire: StreamTransport<UnixStream, UnixStream>,
    frames: u64,
    bytes: u64,
}

impl Client {
    fn call(&mut self, payload: &[u8]) -> Result<ServeResponse, String> {
        self.wire
            .send(payload)
            .map_err(|e| format!("sending to the daemon: {e}"))?;
        let reply = self
            .wire
            .recv()
            .map_err(|e| format!("the daemon hung up: {e}"))?;
        self.frames += 2;
        self.bytes += (payload.len() + reply.len() + 2 * FRAME_HEADER_LEN) as u64;
        decode_response(&reply)
    }
}

/// What one client saw in a window.
#[derive(Default)]
struct ClientLog {
    latencies: Vec<f64>,
    passes: Vec<f64>,
    loops: u64,
    sent: u64,
    failed: u64,
    wrong: Vec<String>,
}

/// Runs the closed-loop clients for one window.
fn window(
    opts: &Opts,
    prep: &Prepared,
    clients: &mut [Client],
    probe: &Probe,
) -> Result<(f64, Vec<ClientLog>), String> {
    let started = Instant::now();
    let budget = Duration::from_secs_f64(opts.seconds);
    let cap = budget * 3;
    let window_span = probe.tracer.span("serve.window");
    let parent = window_span.id();
    let tracer = &probe.tracer;
    let logs = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(c, client)| {
                s.spawn(move || -> Result<ClientLog, String> {
                    let mut log = ClientLog::default();
                    // Client c's pass orders come from its own stream of the run seed.
                    let mut rng = StdRng::seed_from_u64(opts.seed.wrapping_mul(CLIENTS as u64).wrapping_add(c as u64));
                    let enough = |log: &ClientLog| {
                        let elapsed = started.elapsed();
                        elapsed >= cap || (elapsed >= budget && log.latencies.len() * CLIENTS >= MIN_REQUESTS)
                    };
                    'passes: while !enough(&log) {
                        let pass_start = Instant::now();
                        let mut order: Vec<usize> = (0..prep.requests.len()).collect();
                        order.shuffle(&mut rng);
                        for b in order {
                            if enough(&log) {
                                break 'passes;
                            }
                            let (payload, loops) = &prep.requests[b];
                            let id = b as u64 + 1;
                            let t0 = Instant::now();
                            let reply = client.call(payload)?;
                            let t1 = Instant::now();
                            tracer.record("serve.request", parent, Some(id), t0, t1);
                            log.latencies.push((t1 - t0).as_secs_f64());
                            log.sent += 1;
                            match reply {
                                ServeResponse::Decisions { id: got, decisions } if got == id => {
                                    let unroll: Vec<usize> = decisions.iter().map(|d: &Decision| d.unroll).collect();
                                    if unroll != prep.reference[b] {
                                        log.wrong.push(format!("benchmark {b}: decisions differ from the in-process reference"));
                                    }
                                    log.loops += loops.len() as u64;
                                }
                                ServeResponse::Decisions { id: got, .. } => {
                                    log.failed += 1;
                                    log.wrong.push(format!("request {id} answered with id {got}"));
                                }
                                other => {
                                    log.failed += 1;
                                    log.wrong.push(format!("request {id} answered with {other:?}"));
                                }
                            }
                        }
                        log.passes.push(pass_start.elapsed().as_secs_f64());
                    }
                    Ok(log)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .map_err(|_| "a client thread panicked".to_owned())?
            })
            .collect::<Result<Vec<_>, String>>()
    })?;
    drop(window_span);
    Ok((started.elapsed().as_secs_f64(), logs))
}

/// One daemon's life: start, connect the clients, run a window, read the
/// daemon's counters and peak RSS, shut it down.
struct Served {
    wall_s: f64,
    logs: Vec<ClientLog>,
    stats: Option<ServeResponse>,
    daemon_rss_mb: f64,
    daemon_cpu_s: f64,
    client_cpu_s: f64,
    frames: u64,
    bytes: u64,
}

impl Served {
    fn latencies(&self) -> Vec<f64> {
        self.logs
            .iter()
            .flat_map(|l| l.latencies.iter().copied())
            .collect()
    }

    fn pass_s(&self) -> f64 {
        let passes: Vec<f64> = self
            .logs
            .iter()
            .flat_map(|l| l.passes.iter().copied())
            .collect();
        median(&passes).unwrap_or(f64::NAN)
    }

    fn loops(&self) -> u64 {
        self.logs.iter().map(|l| l.loops).sum()
    }
}

fn serve_once(
    opts: &Opts,
    prep: &Prepared,
    daemon: Daemon,
    mut clients: Vec<Client>,
    probe: &Probe,
) -> Result<Served, String> {
    let cpu0 = CpuTimes::now();
    let (wall_s, logs) = window(opts, prep, &mut clients, probe)?;
    let client_cpu_s = CpuTimes::now().since(&cpu0).own;
    let stats = match clients[0].call(&encode_request(&ServeRequest::Stats { id: 0 })?)? {
        r @ ServeResponse::StatsReport { .. } => Some(r),
        _ => None,
    };
    let daemon_rss_mb = sys::peak_rss_mb(Some(daemon.pid())).unwrap_or(0.0);
    let frames = clients.iter().map(|c| c.frames).sum();
    let bytes = clients.iter().map(|c| c.bytes).sum();
    let first = clients.remove(0);
    drop(clients);
    let before = CpuTimes::now();
    daemon.shutdown(first)?;
    let daemon_cpu_s = CpuTimes::now().since(&before).children;
    Ok(Served {
        wall_s,
        logs,
        stats,
        daemon_rss_mb,
        daemon_cpu_s,
        client_cpu_s,
        frames,
        bytes,
    })
}

fn start(
    opts: &Opts,
    prep: &Prepared,
    telemetry_dir: Option<&Path>,
) -> Result<(Daemon, Vec<Client>), String> {
    let socket = prep
        .model_path
        .with_file_name(format!("serve-{}.sock", telemetry_dir.is_some() as u8));
    let mut daemon = Daemon::start(opts, &prep.model_path, socket, telemetry_dir)?;
    let clients = (0..CLIENTS)
        .map(|_| daemon.connect())
        .collect::<Result<Vec<_>, _>>()?;
    Ok((daemon, clients))
}

pub fn run(opts: &Opts) -> Result<RunResult, String> {
    let (setup_s, (prep, (daemon, clients))) = repeated_setup(1, || {
        let prep = prepare(opts)?;
        let up = start(opts, &prep, None)?;
        Ok((prep, up))
    })?;
    let mut out = RunResult::default();
    let served = serve_once(opts, &prep, daemon, clients, &Probe::new(false))?;
    account(&served, &mut out);

    if opts.trace {
        let probe = Probe::new(true);
        let tel_dir = prep.model_path.with_file_name("telemetry");
        let (daemon, clients) = start(opts, &prep, Some(&tel_dir))?;
        let traced = serve_once(opts, &prep, daemon, clients, &probe)?;
        account(&traced, &mut out);
        layer_metrics(&prep, &served, &traced, &probe, &mut out)?;
        crate::report_self_times(&probe.tracer, &mut out.layers);
        probe
            .tracer
            .write_jsonl(
                &opts
                    .out_dir
                    .join(format!("trace-serve-{}.jsonl", opts.seed)),
            )
            .map_err(|e| format!("writing trace: {e}"))?;
    }

    let e = &mut out.end_to_end;
    e.set("setup_s", setup_s);
    e.set("wall_s", served.pass_s());
    e.set("peak_rss_mb", served.daemon_rss_mb);
    e.set("ours_pct_of_max", prep.pct_of_max);
    let lat = served.latencies();
    eprintln!(
        "serve: {} requests, {} loops in {:.2} s ({:.0} loops/s), p50 {:.3} ms, pass {:.3} s, daemon RSS {:.1} MiB",
        lat.len(),
        served.loops(),
        served.wall_s,
        served.loops() as f64 / served.wall_s,
        median(&lat).unwrap_or(0.0) * 1e3,
        served.pass_s(),
        served.daemon_rss_mb,
    );
    Ok(out)
}

/// Failure tally and output problems of one window.
fn account(s: &Served, out: &mut RunResult) {
    for log in &s.logs {
        out.tally.add(log.sent, log.failed);
        for w in log.wrong.iter().take(5) {
            out.problem(format!("serve: {w}"));
        }
    }
    if s.logs.iter().any(|l| l.passes.is_empty()) {
        out.problem("serve: a client completed no pass over the suite");
    }
}

fn layer_metrics(
    prep: &Prepared,
    untraced: &Served,
    traced: &Served,
    probe: &Probe,
    out: &mut RunResult,
) -> Result<(), String> {
    let m = &mut out.layers;
    m.set("trace.overhead_s", traced.pass_s() - untraced.pass_s());
    let lat = traced.latencies();
    m.set("serve.requests", lat.len() as f64);
    m.set("serve.loops_per_s", traced.loops() as f64 / traced.wall_s);
    m.set("serve.p50_ms", median(&lat).unwrap_or(0.0) * 1e3);
    let tail = supported_percentile(lat.len(), TAIL_SAMPLES).unwrap_or(50.0);
    m.set("serve.tail_pct", tail);
    m.set("serve.tail_ms", percentile(&lat, tail).unwrap_or(0.0) * 1e3);
    if let Some(ServeResponse::StatsReport { stats, pool, .. }) = &traced.stats {
        let rate = |h: u64, miss: u64| {
            if h + miss == 0 {
                0.0
            } else {
                h as f64 / (h + miss) as f64
            }
        };
        m.set(
            "serve.arena_hit_rate",
            rate(stats.arena_hits, stats.arena_misses),
        );
        m.set(
            "serve.program_hit_rate",
            rate(pool.program_hits, pool.program_misses),
        );
        m.set("serve.queue_depth_peak", stats.queue_depth_peak as f64);
    }
    m.set("serve.daemon_cpu_s", traced.daemon_cpu_s);
    m.set("transport.frames", traced.frames as f64);
    m.set("transport.bytes", traced.bytes as f64);
    proc_metrics(m, traced.client_cpu_s + traced.daemon_cpu_s, traced.wall_s);

    // The in-process replay of `ServeEngine::predict`'s stages, per loop.
    let stages = replay(prep, probe)?;
    let client_us = lat.iter().sum::<f64>() * 1e6 / traced.loops().max(1) as f64;
    for (name, us) in &stages {
        m.set(&format!("serve.{name}_us"), *us);
    }
    let engine_us = stages
        .iter()
        .find(|(n, _)| *n == "engine")
        .map_or(0.0, |s| s.1);
    m.set("serve.client_overhead_us", client_us - engine_us);
    Ok(())
}

/// Replays the stages of `ServeEngine::predict`, in its order, over every
/// request (passes until about a second has been spent), and times the
/// whole in-process `predict` alongside. Returns µs per loop per stage.
fn replay(prep: &Prepared, probe: &Probe) -> Result<Vec<(&'static str, f64)>, String> {
    const STAGES: [&str; 9] = [
        "decode", "admit", "to_ir", "digest", "flatten", "eval", "predict", "encode", "engine",
    ];
    let t = &probe.tracer;
    let root = t.span("serve.replay");
    let root_id = root.id();
    let engine = ServeEngine::new(
        prep.model_path.clone(),
        ServeOptions::default(),
        Telemetry::disabled(),
    )
    .map_err(|e| format!("loading model for the replay: {e}"))?;
    let model = engine.model();
    let symbol_cap = fegen_core::ir::symbol_count() + ServeOptions::default().symbol_headroom;
    let warm = EvalPool::from_arenas(Vec::new());
    let mut total = [0.0f64; 9];
    let mut loops = 0usize;
    let started = Instant::now();
    let mut request = 0u64;
    while started.elapsed() < Duration::from_secs(1) || loops == 0 {
        for (payload, _) in &prep.requests {
            request += 1;
            let mut clock = Instant::now();
            let mut lap = |stage: usize, total: &mut [f64; 9]| {
                let now = Instant::now();
                t.record(STAGES[stage], root_id, Some(request), clock, now);
                total[stage] += (now - clock).as_secs_f64();
                clock = now;
            };
            let ServeRequest::Predict { id, loops: batch } = decode_request(payload)? else {
                return Err("replay: a request did not decode as Predict".into());
            };
            lap(0, &mut total);
            validate_batch(&batch, symbol_cap).map_err(|e| format!("replay admission: {e}"))?;
            lap(1, &mut total);
            let irs: Vec<_> = batch.iter().map(WireNode::to_ir).collect();
            lap(2, &mut total);
            let digests: Vec<u64> = irs
                .iter()
                .map(|ir| stable_hash(ir.dump().as_bytes()))
                .collect();
            std::hint::black_box(digests);
            lap(3, &mut total);
            let arenas: Vec<Arc<IrArena>> = irs
                .iter()
                .map(|ir| Arc::new(IrArena::from_tree(ir)))
                .collect();
            lap(4, &mut total);
            let mut pool = EvalPool::from_arenas(arenas);
            pool.adopt_program_cache(&warm);
            let rows: Vec<Vec<f64>> = (0..batch.len())
                .map(|i| {
                    model
                        .features
                        .iter()
                        .map(|f| pool.eval(f, i, model.artifact.eval_budget).unwrap_or(0.0))
                        .collect()
                })
                .collect();
            lap(5, &mut total);
            let decisions: Vec<Decision> = rows
                .iter()
                .map(|r| Decision {
                    unroll: model.artifact.tree.predict(r),
                    cached: false,
                })
                .collect();
            lap(6, &mut total);
            std::hint::black_box(encode_response(&ServeResponse::Decisions {
                id,
                decisions,
            })?);
            lap(7, &mut total);
            std::hint::black_box(
                engine
                    .predict(&batch)
                    .map_err(|e| format!("replay predict: {e}"))?,
            );
            lap(8, &mut total);
            loops += batch.len();
        }
    }
    Ok(STAGES
        .iter()
        .zip(total)
        .map(|(&name, s)| (name, s * 1e6 / loops as f64))
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_answers_and_wrong_decisions_are_counted() {
        let log = |sent: u64, failed: u64, wrong: &[&str]| ClientLog {
            latencies: vec![0.001; sent as usize],
            passes: vec![0.1],
            loops: sent * 3,
            sent,
            failed,
            wrong: wrong.iter().map(|w| w.to_string()).collect(),
        };
        let served = Served {
            wall_s: 1.0,
            logs: vec![
                log(40, 0, &[]),
                log(60, 2, &["request 3 answered with Error"]),
            ],
            stats: None,
            daemon_rss_mb: 1.0,
            daemon_cpu_s: 0.5,
            client_cpu_s: 0.5,
            frames: 200,
            bytes: 1000,
        };
        let mut out = RunResult::default();
        account(&served, &mut out);
        assert_eq!((out.tally.attempted, out.tally.failed), (100, 2));
        assert_eq!(out.problems.len(), 1);
        assert_eq!(served.loops(), 300);
    }
}
