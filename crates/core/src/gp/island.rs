//! Supervised island-model GP runtime.
//!
//! The paper's feature searches ran for weeks, which makes worker failure
//! the normal case, not the exception. This module makes the *island* the
//! restartable unit of work: N populations advance independently on
//! isolated RNG streams (each derived from the root seed), exchange elites
//! through periodic deterministic migration rounds, and are driven by one
//! supervisor (`IslandSupervisor`) that supervises every step over a step
//! executor: this process's threads (`InThread`) or worker processes
//! (`WorkerFleet`, in [`super::worker_proc`]).
//!
//! # Determinism rule
//!
//! The signature invariant of this repository — byte-identical results for
//! a given `(seed, topology)` — survives supervision because only
//! *content-deterministic* events may alter the trajectory:
//!
//! - A **round is a barrier**: every active island advances exactly one
//!   generation per round, island `i` in batch `i % workers`. Each step
//!   executes on a *clone* of the island's last committed state; results
//!   are committed sequentially in island-id order after all batches
//!   join, so the worker count can only change wall-clock time, never
//!   state.
//! - **Crashes are keyed, not timed**: in thread mode each step attempt
//!   consults the fault injector under the key
//!   `island:<id>:g<generation>#a<attempt>` (process mode keys its faults
//!   per worker batch, see [`super::worker_proc`]). Whether an attempt
//!   crashes is a function of that key alone, so injected kills reproduce
//!   identically at any worker count. A crashed attempt is retried from
//!   the island's last committed state with bounded exponential backoff;
//!   after [`IslandTopology::restart_limit`] consecutive failures the
//!   island is **frozen** — reported, never silently dropped, and its last
//!   committed state still sends migrants and joins the final merge.
//! - **Wall-clock events are report-only**: heartbeat deadlines, stalls
//!   and slow check-ins produce telemetry, never state changes.
//! - **Cancellation discards, never commits, partial rounds**: if any
//!   step is interrupted mid-round, every step result of that round is
//!   thrown away and the run checkpoints at the previous round boundary —
//!   cancellation only chooses *which* boundary the run stops at.
//!
//! # Migration
//!
//! Every [`IslandTopology::migration_every`] rounds, island `i` clones its
//! best-so-far individual into the last population slot of island
//! `(i + 1) % n` (a deterministic ring). Frozen and converged islands
//! still *send* — their discoveries are not lost — but no longer receive.
//! Every migration is recorded in a digest-guarded ledger that travels
//! with the checkpoint.

use crate::faults::{CancelToken, FaultInjector, FaultKind};
use crate::gp::engine::{Evaluated, GpEngine, GpRun, GpSnapshot, GpState, GpStatus};
use crate::gp::FitnessFn;
use crate::telemetry::Telemetry;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// Island topology of a feature search. Part of
/// [`crate::search::SearchConfig`] — and therefore of the checkpoint
/// identity fingerprint — because it defines the search *trajectory*. The
/// worker thread count deliberately lives elsewhere
/// ([`crate::search::SearchDriver::workers`]): it is an execution knob
/// that must not change results.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct IslandTopology {
    /// Number of island populations (1 = the classic single-population
    /// search; the island supervisor is bypassed entirely).
    pub islands: usize,
    /// Rounds between migration exchanges (each round advances every
    /// active island by one generation).
    pub migration_every: usize,
    /// Consecutive failed step attempts after which an island is frozen
    /// (0 = freeze on the first crash; the default allows 3 restarts).
    pub restart_limit: usize,
}

impl IslandTopology {
    /// The classic single-population search.
    pub fn single() -> Self {
        IslandTopology {
            islands: 1,
            migration_every: 5,
            restart_limit: 3,
        }
    }

    /// A ring of `islands` islands with default migration cadence and
    /// restart budget.
    pub fn ring(islands: usize) -> Self {
        IslandTopology {
            islands: islands.max(1),
            ..IslandTopology::single()
        }
    }
}

impl Default for IslandTopology {
    fn default() -> Self {
        IslandTopology::single()
    }
}

/// Supervision status of one island.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum IslandStatus {
    /// Advancing one generation per round.
    Active,
    /// Reached its generation cap or stagnation limit.
    Converged,
    /// Exhausted its restart budget; its last committed state still sends
    /// migrants and joins the final merge.
    Frozen,
}

impl IslandStatus {
    /// Stable lower-case name, for telemetry.
    pub fn as_str(self) -> &'static str {
        match self {
            IslandStatus::Active => "active",
            IslandStatus::Converged => "converged",
            IslandStatus::Frozen => "frozen",
        }
    }
}

/// One island: an independent GP population under supervision.
#[derive(Debug, Clone)]
pub struct Island {
    /// Position in the ring (0-based, contiguous).
    pub id: usize,
    /// The island's GP state — its "last atomic checkpoint": steps execute
    /// on a clone and only successful results are committed back here.
    pub gp: GpState,
    /// Supervision status.
    pub status: IslandStatus,
    /// Crashed step attempts absorbed over the island's lifetime.
    pub restarts: usize,
}

/// One recorded elite exchange.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MigrationRecord {
    /// Round (1-based) after which the exchange happened.
    pub round: usize,
    /// Sending island.
    pub from: usize,
    /// Receiving island.
    pub to: usize,
    /// The migrated individual, printed.
    pub feature: String,
    /// Its quality at migration time.
    pub quality: f64,
}

/// Full state of an island run between rounds: the unit the outer search
/// checkpoints and the supervisor merges.
#[derive(Debug, Clone)]
pub struct IslandsState {
    /// The islands, indexed by id.
    pub islands: Vec<Island>,
    /// Completed rounds.
    pub round: usize,
    /// Every migration performed so far.
    pub ledger: Vec<MigrationRecord>,
}

/// Serializable form of one [`Island`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct IslandSnapshot {
    /// Position in the ring.
    pub id: usize,
    /// Supervision status.
    pub status: IslandStatus,
    /// Lifetime crashed attempts.
    pub restarts: usize,
    /// The island's GP state.
    pub gp: GpSnapshot,
}

/// Serializable form of an [`IslandsState`] — the merged multi-island
/// snapshot embedded in [`crate::checkpoint::SearchCheckpoint`]. The
/// migration ledger is guarded by a content digest so a truncated or
/// hand-edited ledger is rejected at load, never partially adopted.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct IslandsSnapshot {
    /// Completed rounds.
    pub round: usize,
    /// Per-island snapshots, in id order.
    pub islands: Vec<IslandSnapshot>,
    /// Every migration performed so far.
    pub ledger: Vec<MigrationRecord>,
    /// [`ledger_digest`] over `ledger`, for integrity.
    pub ledger_digest: u64,
}

/// Order-sensitive content digest of a migration ledger (FNV-1a chained
/// per record, like the examples digest).
pub fn ledger_digest(ledger: &[MigrationRecord]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for r in ledger {
        let text = format!(
            "{}|{}|{}|{}|{:016x}",
            r.round,
            r.from,
            r.to,
            r.feature,
            r.quality.to_bits()
        );
        h ^= crate::faults::stable_hash(text.as_bytes());
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

impl IslandsSnapshot {
    /// Structural integrity checks: contiguous island ids, in-range and
    /// digest-verified migration ledger. A snapshot that fails here is
    /// rejected wholesale — never partially loaded.
    pub fn validate(&self) -> Result<(), String> {
        if self.islands.is_empty() {
            return Err("island snapshot holds no islands".into());
        }
        let n = self.islands.len();
        for (slot, island) in self.islands.iter().enumerate() {
            if island.id != slot {
                return Err(format!(
                    "island ids must be contiguous: slot {slot} holds id {}",
                    island.id
                ));
            }
        }
        if ledger_digest(&self.ledger) != self.ledger_digest {
            return Err(
                "migration ledger digest mismatch (truncated or tampered ledger)".into(),
            );
        }
        for (i, r) in self.ledger.iter().enumerate() {
            if r.round == 0 || r.round > self.round {
                return Err(format!(
                    "migration record {i} claims round {} outside 1..={}",
                    r.round, self.round
                ));
            }
            if r.from >= n || r.to >= n {
                return Err(format!(
                    "migration record {i} references island {} -> {} outside 0..{n}",
                    r.from, r.to
                ));
            }
        }
        Ok(())
    }
}

impl Island {
    /// Captures the island in serializable form.
    pub(crate) fn snapshot(&self) -> IslandSnapshot {
        IslandSnapshot {
            id: self.id,
            status: self.status,
            restarts: self.restarts,
            gp: self.gp.snapshot(),
        }
    }

    /// Adopts a successfully stepped state; a converged step retires the
    /// island from further rounds.
    pub(crate) fn commit(&mut self, gp: GpState, converged: bool, telemetry: &Telemetry) {
        self.gp = gp;
        if converged {
            self.status = IslandStatus::Converged;
            telemetry
                .event("island_converged")
                .u64("island", self.id as u64)
                .u64("generations", self.gp.generations as u64)
                .emit();
        }
    }

    /// Graceful degradation: the island is frozen and reported, never
    /// silently dropped — its last committed state still migrates and
    /// merges. `cause` completes the progress line.
    pub(crate) fn freeze(&mut self, cause: &str, telemetry: &Telemetry) {
        self.status = IslandStatus::Frozen;
        telemetry
            .event("island_frozen")
            .u64("island", self.id as u64)
            .u64("generations", self.gp.generations as u64)
            .u64("restarts", self.restarts as u64)
            .emit();
        telemetry.counter_add("island.frozen", 1);
        telemetry.progress(&format!(
            "island {} frozen: {cause}; its last state still joins the merge",
            self.id
        ));
    }
}

impl IslandsState {
    /// Derives the initial island states: per-island RNG streams are
    /// seeded by consecutive draws from the outer RNG, in id order, so
    /// the topology fully determines every stream.
    pub(crate) fn init(engine: &GpEngine<'_>, topology: &IslandTopology, rng: &mut StdRng) -> Self {
        let islands = (0..topology.islands.max(1))
            .map(|id| Island {
                id,
                gp: engine.init_state(StdRng::seed_from_u64(rng.gen())),
                status: IslandStatus::Active,
                restarts: 0,
            })
            .collect();
        IslandsState {
            islands,
            round: 0,
            ledger: Vec::new(),
        }
    }

    /// Ids of the islands still advancing, ascending.
    pub(crate) fn active(&self) -> Vec<usize> {
        self.islands
            .iter()
            .filter(|i| i.status == IslandStatus::Active)
            .map(|i| i.id)
            .collect()
    }

    /// Closes a committed round: counts it, runs the ring migration on
    /// migration rounds, and reports whether any island is still active.
    pub(crate) fn end_round(
        &mut self,
        migration_every: usize,
        telemetry: &Telemetry,
    ) -> RoundStatus {
        self.round += 1;
        if self.round.is_multiple_of(migration_every.max(1)) {
            migrate_ring(self, telemetry);
        }
        if self.active().is_empty() {
            RoundStatus::Done
        } else {
            RoundStatus::Running
        }
    }

    /// Captures the full state in serializable form.
    pub fn snapshot(&self) -> IslandsSnapshot {
        IslandsSnapshot {
            round: self.round,
            islands: self.islands.iter().map(Island::snapshot).collect(),
            ledger: self.ledger.clone(),
            ledger_digest: ledger_digest(&self.ledger),
        }
    }

    /// Rebuilds the state from a snapshot, validating it first. All-or-
    /// nothing: any failure leaves nothing adopted.
    pub fn from_snapshot(snapshot: &IslandsSnapshot) -> Result<IslandsState, String> {
        snapshot.validate()?;
        let mut islands = Vec::with_capacity(snapshot.islands.len());
        for s in &snapshot.islands {
            islands.push(Island {
                id: s.id,
                gp: GpState::from_snapshot(&s.gp)
                    .map_err(|e| format!("island {}: {e}", s.id))?,
                status: s.status,
                restarts: s.restarts,
            });
        }
        Ok(IslandsState {
            islands,
            round: snapshot.round,
            ledger: snapshot.ledger.clone(),
        })
    }

    /// GP generations executed across all islands.
    pub fn generations(&self) -> usize {
        self.islands.iter().map(|i| i.gp.generations).sum()
    }
}

/// What a supervised round left behind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RoundStatus {
    /// At least one island remains active.
    Running,
    /// Every island is converged or frozen.
    Done,
    /// Cancellation landed mid-round; *nothing* was committed — the state
    /// still sits at the previous round boundary.
    Interrupted,
}

/// A stepped state and whether it converged, or why the island froze.
pub(crate) type Stepped = Result<(GpState, bool), String>;

/// One island's result from an uninterrupted batch, awaiting the round's
/// commit.
pub(crate) struct IslandStep {
    pub(crate) result: Stepped,
    /// Crashed attempts to record in the island's state. In-thread
    /// fitness crashes count; worker respawns and reconnects are
    /// infrastructure, reported as telemetry only.
    pub(crate) restarts: usize,
    /// Wall-clock time spent on this island this round (including retries
    /// and backoff), for the slowest-island report.
    pub(crate) step_us: u64,
}

/// What one batch — the islands one worker steps in a round — left
/// behind.
#[derive(Default)]
pub(crate) struct Batch<T> {
    /// One step per island of the batch, in batch order; cut short when
    /// the batch was interrupted.
    pub(crate) steps: Vec<IslandStep>,
    /// Cancellation landed mid-batch: the whole round is discarded.
    pub(crate) interrupted: bool,
    /// Executor-specific tallies, see [`StepExecutor::report`].
    pub(crate) tally: T,
}

/// Heartbeat sentinel: the slot has not been picked up this round.
const HB_QUEUED: u64 = u64::MAX;
/// Heartbeat sentinel: the slot finished this round.
const HB_DONE: u64 = u64::MAX - 1;

/// One round's barrier and heartbeat monitor, owned by the
/// [`IslandSupervisor`]; its slots are islands or workers, as the
/// executor's [`StepExecutor::slots`] says. Each unit
/// of work holds an [`InFlight`] token and checks its slots in with
/// [`RoundWatch::beat`]; [`RoundWatch::wait`] returns the moment the last
/// token drops, sleeping meanwhile until the earliest heartbeat deadline.
/// Observational: a missed deadline is reported, never acted on.
pub(crate) struct RoundWatch<'t> {
    /// Names the miss event `<noun>_heartbeat_missed`, its slot field
    /// `<noun>` and the counter `<noun>.heartbeat_missed`.
    noun: &'static str,
    /// 0 disables miss reporting (the round still waits for completion).
    deadline_ms: u64,
    telemetry: &'t Telemetry,
    epoch: Instant,
    state: Mutex<WatchState>,
    wake: Condvar,
}

struct WatchState {
    /// Per slot: the last check-in in ms since `epoch`, or a sentinel.
    beats: Vec<u64>,
    /// Dispatched units whose [`InFlight`] token is still alive.
    in_flight: usize,
    /// Summed step wall-clock of the slots finished this round.
    busy_us: u64,
}

impl<'t> RoundWatch<'t> {
    /// Starts a round over `slots` supervised slots.
    pub(crate) fn new(
        noun: &'static str,
        slots: usize,
        deadline_ms: u64,
        telemetry: &'t Telemetry,
    ) -> Self {
        RoundWatch {
            noun,
            deadline_ms,
            telemetry,
            epoch: Instant::now(),
            state: Mutex::new(WatchState {
                beats: vec![HB_QUEUED; slots],
                in_flight: 0,
                busy_us: 0,
            }),
            wake: Condvar::new(),
        }
    }

    fn state(&self) -> MutexGuard<'_, WatchState> {
        // Every update leaves the state consistent, even mid-panic.
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Registers one unit of work the round waits for. Call it before
    /// spawning the unit, so [`RoundWatch::wait`] cannot miss it.
    pub(crate) fn dispatch(&self) -> InFlight<'_, 't> {
        self.state().in_flight += 1;
        InFlight(self)
    }

    /// Checks `slot` in now.
    pub(crate) fn beat(&self, slot: usize) {
        let now = self.epoch.elapsed().as_millis() as u64;
        let mut state = self.state();
        let started = state.beats[slot] == HB_QUEUED;
        state.beats[slot] = now;
        if started {
            // A newly started slot may bring the earliest deadline forward.
            self.wake.notify_all();
        }
    }

    /// Marks `slot` finished for this round after `busy_us` of step work.
    pub(crate) fn done(&self, slot: usize, busy_us: u64) {
        let mut state = self.state();
        state.beats[slot] = HB_DONE;
        state.busy_us += busy_us;
    }

    /// Blocks until every dispatched unit has returned. Reports at most one
    /// miss per slot, once its check-in is more than the deadline old, then
    /// adds the round's wall-clock and step time to the
    /// `supervisor.round_us` and `supervisor.busy_us` counters.
    pub(crate) fn wait(&self) {
        let mut state = self.state();
        let mut reported = vec![false; state.beats.len()];
        while state.in_flight > 0 {
            let now = self.epoch.elapsed().as_millis() as u64;
            let mut next_due = u64::MAX;
            for (slot, &beat) in state.beats.iter().enumerate() {
                if self.deadline_ms == 0 || beat >= HB_DONE || reported[slot] {
                    continue;
                }
                let overdue = now.saturating_sub(beat);
                if overdue > self.deadline_ms {
                    reported[slot] = true;
                    self.telemetry
                        .event(&format!("{}_heartbeat_missed", self.noun))
                        .u64(self.noun, slot as u64)
                        .u64("overdue_ms", overdue)
                        .u64("deadline_ms", self.deadline_ms)
                        .emit();
                    self.telemetry
                        .counter_add(&format!("{}.heartbeat_missed", self.noun), 1);
                } else {
                    next_due =
                        next_due.min(beat.saturating_add(self.deadline_ms).saturating_add(1));
                }
            }
            // With nothing due, the timeout is effectively unbounded: only
            // a new check-in or the last unit's return wakes the round.
            let timeout = Duration::from_millis(next_due).saturating_sub(self.epoch.elapsed());
            state = self
                .wake
                .wait_timeout(state, timeout)
                .unwrap_or_else(PoisonError::into_inner)
                .0;
        }
        let busy_us = state.busy_us;
        drop(state);
        self.telemetry.counter_add(
            "supervisor.round_us",
            self.epoch.elapsed().as_micros() as u64,
        );
        self.telemetry.counter_add("supervisor.busy_us", busy_us);
    }
}

/// A dispatched unit's claim on its round. Dropping it, also while
/// unwinding, wakes the supervisor when it was the last.
pub(crate) struct InFlight<'w, 't>(&'w RoundWatch<'t>);

impl Drop for InFlight<'_, '_> {
    fn drop(&mut self) {
        let mut state = self.0.state();
        state.in_flight -= 1;
        if state.in_flight == 0 {
            self.0.wake.notify_all();
        }
    }
}

/// Base delay of [`back_off`], in milliseconds.
const BACKOFF_BASE_MS: u64 = 1;

/// Sleeps before retrying after the `failures`-th consecutive failed
/// attempt (1-based): `1 ms × 2^min(failures − 1, 5)`, capped at 2 s.
/// Shared by in-thread step restarts and worker reconnects.
pub(crate) fn back_off(failures: usize) {
    let ms = BACKOFF_BASE_MS
        .saturating_mul(1 << failures.saturating_sub(1).min(5))
        .min(2_000);
    std::thread::sleep(Duration::from_millis(ms));
}

/// The settings a supervised round runs under, read by both executors:
/// the engine and topology that define the trajectory, plus execution
/// knobs that must not change it.
pub(crate) struct Supervision<'a, 'g> {
    pub(crate) engine: &'a GpEngine<'g>,
    pub(crate) topology: IslandTopology,
    /// Batches per round (threads or worker processes): any value produces
    /// byte-identical results.
    pub(crate) workers: usize,
    /// 0 disables the heartbeat monitor. Observational only: a missed
    /// deadline is reported, never acted on (wall-clock events must not
    /// alter the trajectory).
    pub(crate) heartbeat_deadline_ms: u64,
    /// Cooperative cancellation, polled before and during steps.
    pub(crate) cancel: Option<&'a CancelToken>,
    /// Consulted by the executor under its own fault keys.
    pub(crate) injector: Option<&'a FaultInjector>,
    pub(crate) telemetry: Telemetry,
}

impl Supervision<'_, '_> {
    pub(crate) fn is_cancelled(&self) -> bool {
        self.cancel.is_some_and(CancelToken::is_cancelled)
    }
}

/// How one batch of islands is stepped: on this process's threads
/// ([`InThread`]) or by a worker process
/// ([`super::worker_proc::WorkerFleet`]). Everything else about a round is
/// [`IslandSupervisor`]'s, written once, so the two modes cannot drift.
pub(crate) trait StepExecutor: Sync {
    /// Executor-specific per-batch tallies, reported after a committed
    /// round.
    type Tally: Default + Send;
    /// A batch as its step thread receives it.
    type Staged<'s>: Send;
    /// What a round-watch slot stands for; names the
    /// `<noun>_heartbeat_missed` event.
    const NOUN: &'static str;

    /// Round-watch slots for `islands` islands stepped in `workers`
    /// batches.
    fn slots(islands: usize, workers: usize) -> usize;

    /// Runs before every round.
    fn prepare_round(&mut self, _sup: &Supervision<'_, '_>) {}

    /// Prepares a batch on the supervisor thread, before dispatch. Large
    /// payloads belong here, not on the round's short-lived step threads:
    /// built there, in per-thread allocator arenas, they made process-mode
    /// rounds measurably slower.
    fn stage<'s>(&self, batch: Vec<&'s Island>) -> Self::Staged<'s>;

    /// Steps batch `w` of round `round`: every island one generation from
    /// its committed state, checking slots in with `watch`.
    fn step_batch(
        &self,
        sup: &Supervision<'_, '_>,
        w: usize,
        round: usize,
        batch: Self::Staged<'_>,
        watch: &RoundWatch<'_>,
    ) -> Batch<Self::Tally>;

    /// Reports batch `w` (of `islands` islands) after an uninterrupted
    /// round, in worker-id order, before the commit.
    fn report(
        &self,
        _sup: &Supervision<'_, '_>,
        _w: usize,
        _round: usize,
        _islands: usize,
        _tally: &Self::Tally,
    ) {
    }

    /// Releases the executor's resources.
    fn shutdown(self, _sup: &Supervision<'_, '_>)
    where
        Self: Sized,
    {
    }
}

/// The island supervisor: drives one round at a time over a
/// [`StepExecutor`], owning assignment, dispatch, the round watch, the
/// discard of interrupted rounds, the island-id-order commit, migration
/// and the final merge.
pub(crate) struct IslandSupervisor<'a, 'g, E> {
    sup: Supervision<'a, 'g>,
    executor: E,
    /// Cumulative per-island step wall-clock, for the final report.
    step_us: Vec<u64>,
}

impl<'a, 'g, E: StepExecutor> IslandSupervisor<'a, 'g, E> {
    pub(crate) fn new(mut sup: Supervision<'a, 'g>, executor: E) -> Self {
        sup.workers = sup.workers.max(1);
        let islands = sup.topology.islands.max(1);
        IslandSupervisor {
            sup,
            executor,
            step_us: vec![0; islands],
        }
    }

    /// Advances every active island by one generation, then (on migration
    /// rounds) exchanges elites. All-or-nothing: an interrupted round
    /// commits nothing.
    pub(crate) fn round(&mut self, state: &mut IslandsState) -> RoundStatus {
        self.executor.prepare_round(&self.sup);
        let active = state.active();
        if active.is_empty() {
            return RoundStatus::Done;
        }
        if self.sup.is_cancelled() {
            return RoundStatus::Interrupted;
        }

        // Deterministic assignment: island `i` is stepped in batch
        // `i % workers`, whatever the fleet's health history. Results never
        // depend on it, but process-mode fault keys name the batch's worker.
        let workers = self.sup.workers;
        let batches: Vec<Vec<usize>> = (0..workers)
            .map(|w| {
                active
                    .iter()
                    .copied()
                    .filter(|id| id % workers == w)
                    .collect()
            })
            .collect();
        let round = state.round + 1;
        let watch = &RoundWatch::new(
            E::NOUN,
            E::slots(state.islands.len(), workers),
            self.sup.heartbeat_deadline_ms,
            &self.sup.telemetry,
        );
        let mut outcomes: Vec<Batch<E::Tally>> = (0..workers).map(|_| Batch::default()).collect();
        let (sup, executor, islands) = (&self.sup, &self.executor, &state.islands);
        std::thread::scope(|s| {
            for ((w, batch), out) in batches.iter().enumerate().zip(outcomes.iter_mut()) {
                if batch.is_empty() {
                    continue;
                }
                let batch = executor.stage(batch.iter().map(|&id| &islands[id]).collect());
                let in_flight = watch.dispatch();
                s.spawn(move || {
                    let _in_flight = in_flight;
                    *out = executor.step_batch(sup, w, round, batch, watch);
                });
            }
            watch.wait();
        });

        // An interrupted batch poisons the whole round: committing a
        // partial round would make the boundary worker-count-dependent.
        if outcomes.iter().any(|o| o.interrupted) || self.sup.is_cancelled() {
            return RoundStatus::Interrupted;
        }
        for (w, out) in outcomes.iter().enumerate() {
            self.executor
                .report(&self.sup, w, round, batches[w].len(), &out.tally);
        }

        // Deterministic commit, in island-id order (`active` ascends).
        let mut steps: Vec<Option<IslandStep>> = state.islands.iter().map(|_| None).collect();
        for (batch, out) in batches.iter().zip(outcomes) {
            for (&id, step) in batch.iter().zip(out.steps) {
                steps[id] = Some(step);
            }
        }
        let telemetry = &self.sup.telemetry;
        for &id in &active {
            let step = steps[id]
                .take()
                .expect("an uninterrupted round steps every active island");
            self.step_us[id] += step.step_us;
            let island = &mut state.islands[id];
            if step.restarts > 0 {
                island.restarts += step.restarts;
                telemetry
                    .event("island_restart")
                    .u64("island", id as u64)
                    .u64("generation", (island.gp.generations + 1) as u64)
                    .u64("restarts", step.restarts as u64)
                    .emit();
                telemetry.counter_add("island.restarts", step.restarts as u64);
            }
            match step.result {
                Ok((gp, converged)) => island.commit(gp, converged, telemetry),
                Err(cause) => island.freeze(&cause, telemetry),
            }
        }
        state.end_round(self.sup.topology.migration_every, telemetry)
    }

    /// Merges the islands into one [`GpRun`]: best individual across all
    /// islands (parsimony-aware, ties to the lowest island id — frozen
    /// islands included), summed counters. Emits one `island_done` event
    /// per island so the report can name the slowest.
    pub(crate) fn merge(&self, state: &IslandsState) -> GpRun {
        let parsimony = self.sup.engine.config().parsimony;
        let mut best: Option<Evaluated> = None;
        for island in &state.islands {
            self.sup
                .telemetry
                .event("island_done")
                .u64("island", island.id as u64)
                .str("status", island.status.as_str())
                .u64("generations", island.gp.generations as u64)
                .u64("restarts", island.restarts as u64)
                .u64("step_us", self.step_us.get(island.id).copied().unwrap_or(0))
                .emit();
            if let Some(candidate) = &island.gp.best {
                if best
                    .as_ref()
                    .is_none_or(|b| candidate.better_than_with(b, parsimony))
                {
                    best = Some(candidate.clone());
                }
            }
        }
        GpRun {
            best,
            generations: state.generations(),
            evaluations: state.islands.iter().map(|i| i.gp.evaluations).sum(),
            panics: state.islands.iter().map(|i| i.gp.panics).sum(),
        }
    }

    /// Releases the executor. Callers run it on every exit path, so worker
    /// processes are shut down gracefully rather than killed on drop.
    pub(crate) fn shutdown(self) {
        self.executor.shutdown(&self.sup);
    }
}

/// Steps a batch on this process's threads. Each island steps on a clone
/// of its committed state; a crashed attempt (injected kill or an escaped
/// panic) is retried under `island:<id>:g<generation>#a<attempt>` fault
/// keys with bounded backoff and recorded in [`Island::restarts`]; after
/// [`IslandTopology::restart_limit`] + 1 crashed attempts only that island
/// freezes.
pub(crate) struct InThread<'f, F>(pub(crate) &'f F);

impl<F: FitnessFn> StepExecutor for InThread<'_, F> {
    type Tally = ();
    type Staged<'s> = Vec<&'s Island>;
    const NOUN: &'static str = "island";

    fn slots(islands: usize, _workers: usize) -> usize {
        islands
    }

    fn stage<'s>(&self, batch: Vec<&'s Island>) -> Vec<&'s Island> {
        batch
    }

    fn step_batch(
        &self,
        sup: &Supervision<'_, '_>,
        _w: usize,
        _round: usize,
        batch: Vec<&Island>,
        watch: &RoundWatch<'_>,
    ) -> Batch<()> {
        let mut out = Batch::default();
        for island in batch {
            let started = Instant::now();
            watch.beat(island.id);
            let stepped = self.step_island(sup, island, watch);
            let step_us = started.elapsed().as_micros() as u64;
            watch.done(island.id, step_us);
            let Some((result, restarts)) = stepped else {
                out.interrupted = true;
                break;
            };
            out.steps.push(IslandStep {
                result,
                restarts,
                step_us,
            });
        }
        out
    }
}

impl<F: FitnessFn> InThread<'_, F> {
    /// One island's attempts: the stepped state (or the freeze cause) and
    /// the crashed attempts absorbed, or `None` when cancellation
    /// interrupted the step.
    fn step_island(
        &self,
        sup: &Supervision<'_, '_>,
        island: &Island,
        watch: &RoundWatch<'_>,
    ) -> Option<(Stepped, usize)> {
        let generation = island.gp.generations + 1;
        let mut failures = 0usize;
        loop {
            if sup.is_cancelled() {
                return None;
            }
            let attempt = failures + 1;
            let fault = sup.injector.and_then(|inj| {
                inj.fire(&format!("island:{}:g{generation}#a{attempt}", island.id))
            });
            // A slow heartbeat delays the check-in itself; a stall hangs
            // the worker *after* it checked in. Both are wall-clock only.
            if let Some(FaultKind::SlowHeartbeat(ms)) = fault {
                std::thread::sleep(Duration::from_millis(ms));
            }
            watch.beat(island.id);
            match fault {
                Some(FaultKind::IslandStall(ms) | FaultKind::Delay(ms)) => {
                    std::thread::sleep(Duration::from_millis(ms));
                }
                Some(FaultKind::Cancel) => {
                    if let Some(cancel) = sup.cancel {
                        cancel.cancel();
                    }
                }
                _ => {}
            }
            let crashed = matches!(fault, Some(FaultKind::IslandKill | FaultKind::Panic));
            if !crashed {
                // Step on a clone; the committed state is untouched until
                // the supervisor adopts the result — the island's "last
                // atomic checkpoint" is always intact to restart from.
                let mut trial = island.gp.clone();
                let (engine, fitness, cancel) = (sup.engine, self.0, sup.cancel);
                let result = catch_unwind(AssertUnwindSafe(move || {
                    let status = engine.step_cancellable(&mut trial, fitness, cancel);
                    (trial, status)
                }));
                match result {
                    Ok((trial, Some(status))) => {
                        return Some((Ok((trial, status == GpStatus::Converged)), failures))
                    }
                    Ok((_, None)) => return None,
                    // A panic that escaped the engine's own quarantine:
                    // treat it as a worker crash and retry.
                    Err(_) => {}
                }
            }
            failures += 1;
            if failures > sup.topology.restart_limit {
                let cause = format!("{} crashed attempt(s)", island.restarts + failures);
                return Some((Err(cause), failures));
            }
            back_off(failures);
        }
    }
}

/// The shared migration policy, run by [`IslandsState::end_round`] after
/// every committed round whichever executor stepped it:
/// island `i` clones its best into the last population slot of island
/// `(i + 1) % n` (a deterministic ring), every exchange recorded in the
/// digest-sealed ledger. Frozen and converged islands send but do not
/// receive.
fn migrate_ring(state: &mut IslandsState, telemetry: &Telemetry) {
    let n = state.islands.len();
    if n < 2 {
        return;
    }
    let donors: Vec<Option<Evaluated>> = state.islands.iter().map(|i| i.gp.best.clone()).collect();
    for (from, donor) in donors.iter().enumerate() {
        let Some(best) = donor else { continue };
        let to = (from + 1) % n;
        if state.islands[to].status != IslandStatus::Active {
            continue;
        }
        let population = &mut state.islands[to].gp.population;
        let Some(slot) = population.len().checked_sub(1) else {
            continue;
        };
        population[slot] = best.expr.clone();
        state.ledger.push(MigrationRecord {
            round: state.round,
            from,
            to,
            feature: best.expr.to_string(),
            quality: best.quality,
        });
        telemetry
            .event("island_migration")
            .u64("round", state.round as u64)
            .u64("from", from as u64)
            .u64("to", to as u64)
            .f64("quality", best.quality)
            .emit();
        telemetry.counter_add("island.migrations", 1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::{FaultPlan, FaultTrigger};
    use crate::grammar::Grammar;
    use crate::gp::GpConfig;
    use crate::ir::IrNode;
    use crate::lang::FeatureExpr;

    fn grammar_and_ir() -> (Grammar, IrNode) {
        let ir = IrNode::build("loop", |l| {
            l.attr_num("num-iter", 12.0);
            for _ in 0..3 {
                l.child("insn", |i| {
                    i.attr_enum("mode", "SI");
                });
            }
            l.child("jump_insn", |_| {});
        });
        (Grammar::derive([&ir]), ir)
    }

    fn quick_cfg() -> GpConfig {
        GpConfig {
            population: 10,
            max_generations: 6,
            stagnation_limit: 6,
            ..GpConfig::quick()
        }
    }

    fn run_to_done(
        engine: &GpEngine<'_>,
        topology: IslandTopology,
        workers: usize,
        seed: u64,
        fitness: &impl FitnessFn,
        injector: Option<&FaultInjector>,
    ) -> (IslandsState, GpRun) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut state = IslandsState::init(engine, &topology, &mut rng);
        let sup = Supervision {
            engine,
            topology,
            workers,
            heartbeat_deadline_ms: 2_000,
            cancel: None,
            injector,
            telemetry: Telemetry::disabled(),
        };
        let mut supervisor = IslandSupervisor::new(sup, InThread(fitness));
        loop {
            match supervisor.round(&mut state) {
                RoundStatus::Running => {}
                RoundStatus::Done => break,
                RoundStatus::Interrupted => panic!("no cancellation in this test"),
            }
        }
        let run = supervisor.merge(&state);
        (state, run)
    }

    #[test]
    fn worker_count_is_invisible_to_results() {
        let (g, ir) = grammar_and_ir();
        let fitness = |e: &FeatureExpr| e.eval_with_budget(&ir, 10_000).ok();
        let engine = GpEngine::new(&g, quick_cfg());
        let (s1, r1) = run_to_done(&engine, IslandTopology::ring(4), 1, 7, &fitness, None);
        let (s4, r4) = run_to_done(&engine, IslandTopology::ring(4), 4, 7, &fitness, None);
        assert_eq!(r1.best, r4.best);
        assert_eq!(r1.generations, r4.generations);
        assert_eq!(s1.snapshot(), s4.snapshot(), "state must be byte-identical");
    }

    #[test]
    fn migration_is_recorded_and_digested() {
        let (g, ir) = grammar_and_ir();
        let fitness = |e: &FeatureExpr| e.eval_with_budget(&ir, 10_000).ok();
        let engine = GpEngine::new(&g, quick_cfg());
        let topology = IslandTopology {
            islands: 3,
            migration_every: 2,
            restart_limit: 3,
        };
        let (state, _) = run_to_done(&engine, topology, 2, 9, &fitness, None);
        assert!(
            !state.ledger.is_empty(),
            "three islands over six generations must migrate at least once"
        );
        let snapshot = state.snapshot();
        assert_eq!(snapshot.ledger_digest, ledger_digest(&state.ledger));
        assert!(snapshot.validate().is_ok());
        let restored = IslandsState::from_snapshot(&snapshot).expect("roundtrip");
        assert_eq!(restored.snapshot(), snapshot);
    }

    #[test]
    fn transient_kill_is_retried_and_neutral() {
        let (g, ir) = grammar_and_ir();
        let fitness = |e: &FeatureExpr| e.eval_with_budget(&ir, 10_000).ok();
        let engine = GpEngine::new(&g, quick_cfg());
        let clean = run_to_done(&engine, IslandTopology::ring(3), 2, 5, &fitness, None);
        let injector = FaultInjector::new(vec![FaultPlan {
            trigger: FaultTrigger::OnKeyPrefix("island:1:g2#a1".into()),
            kind: FaultKind::IslandKill,
        }]);
        let faulted = run_to_done(
            &engine,
            IslandTopology::ring(3),
            2,
            5,
            &fitness,
            Some(&injector),
        );
        assert!(injector.injected() >= 1, "the kill must have fired");
        assert_eq!(clean.1, faulted.1, "a retried crash must not change results");
        // Snapshots differ only in the restart counter.
        let mut snap = faulted.0.snapshot();
        assert_eq!(snap.islands[1].restarts, 1);
        snap.islands[1].restarts = 0;
        assert_eq!(snap, clean.0.snapshot());
    }

    #[test]
    fn persistent_kill_freezes_island_which_still_merges() {
        let (g, ir) = grammar_and_ir();
        let fitness = |e: &FeatureExpr| e.eval_with_budget(&ir, 10_000).ok();
        let engine = GpEngine::new(&g, quick_cfg());
        let injector = FaultInjector::new(vec![FaultPlan {
            // Kill only generation >= 2 attempts, so the island has a
            // committed generation-1 state to contribute to the merge.
            trigger: FaultTrigger::OnKeyPrefix("island:0:g2".into()),
            kind: FaultKind::IslandKill,
        }]);
        let topology = IslandTopology {
            islands: 2,
            migration_every: 2,
            restart_limit: 2,
        };
        let (state, run) = run_to_done(&engine, topology, 1, 13, &fitness, Some(&injector));
        assert_eq!(state.islands[0].status, IslandStatus::Frozen);
        assert_eq!(state.islands[0].gp.generations, 1);
        assert_eq!(state.islands[0].restarts, 3, "limit + 1 attempts crashed");
        assert_eq!(state.islands[1].status, IslandStatus::Converged);
        // The frozen island's generations still count in the merge.
        assert_eq!(run.generations, state.generations());
        assert!(run.best.is_some(), "the healthy island still delivers");
    }

    #[test]
    fn snapshot_validation_rejects_corruption() {
        let (g, ir) = grammar_and_ir();
        let fitness = |e: &FeatureExpr| e.eval_with_budget(&ir, 10_000).ok();
        let engine = GpEngine::new(&g, quick_cfg());
        let topology = IslandTopology {
            islands: 3,
            migration_every: 2,
            restart_limit: 3,
        };
        let (state, _) = run_to_done(&engine, topology, 1, 9, &fitness, None);
        let good = state.snapshot();
        assert!(good.validate().is_ok());

        let mut truncated = good.clone();
        truncated.ledger.pop();
        assert!(truncated.validate().is_err(), "truncated ledger must fail");

        let mut shuffled = good.clone();
        shuffled.islands.swap(0, 2);
        assert!(shuffled.validate().is_err(), "non-contiguous ids must fail");

        let mut empty = good.clone();
        empty.islands.clear();
        assert!(empty.validate().is_err(), "empty snapshot must fail");

        let mut bad_round = good;
        if let Some(r) = bad_round.ledger.first().cloned() {
            let mut r2 = r;
            r2.round = bad_round.round + 10;
            bad_round.ledger[0] = r2;
            bad_round.ledger_digest = ledger_digest(&bad_round.ledger);
            assert!(bad_round.validate().is_err(), "out-of-range round must fail");
        }
    }
}
