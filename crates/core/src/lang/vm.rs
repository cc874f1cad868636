//! The bytecode VM and the pooled evaluation engine.
//!
//! [`Vm`] executes a compiled [`Program`] over one [`IrArena`] with an
//! explicit frame stack for aggregates — no recursion, no pointer chasing,
//! no per-node allocation. It reproduces the interpreter in
//! [`super::eval`] **bit-for-bit**: same values (floating-point operations
//! in the same order), same [`EvalError`] outcomes, and the same
//! `BudgetExceeded` decision for every budget. The interpreter stays the
//! reference oracle; `tests/vm_differential.rs` enforces the equivalence on
//! generated features × generated trees.
//!
//! [`EvalPool`] is the engine the GP search uses: it flattens every
//! training loop into an arena **once**, compiles each candidate **once**
//! (memoised by structural fingerprint), and shares a CSE result cache of
//! `(steps, outcome)` pairs across candidates, loops and worker threads,
//! stored as one dense column of 16-byte cells per subtree fingerprint.
//! Cached entries are pure functions of their key, so racing inserts are
//! idempotent and results are invariant under thread count — the
//! determinism argument is spelled out in DESIGN.md §11.

use super::ast::{ArithOp, CmpOp, FeatureExpr, Fingerprint};
use super::compile::{
    AggKind, BoolView, CountMeta, CoverSrc, FusedAggMeta, FusedBody, LeafArg, Op, PlanAgg,
    PlanBool, PlanExpr, PlanPred, Program, ProgramPath, PureAtom, PureExpr, PurePred,
};
use super::eval::EvalError;
use crate::faults::CancelToken;
use crate::ir::{AttrValue, IrArena, IrNode, Symbol};
use crate::lru::LruCache;
use crate::telemetry::Telemetry;
use parking_lot::{Mutex, RwLock};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// One cached CSE result: the exact step cost of evaluating the subtree at
/// this loop, and its outcome. `BudgetExceeded` outcomes are **never**
/// cached — their step totals are truncated by the failing budget, so they
/// are not transferable to other budgets.
#[derive(Debug, Clone, Copy)]
struct CacheEntry {
    steps: u64,
    /// `Ok(value)` or `Err(())` for `NonFinite`.
    outcome: Result<f64, ()>,
}

/// One cell of a dense cache column: 16 bytes. `steps` holds
/// [`Slot::EMPTY`] for an unfilled cell, otherwise the step total with
/// [`Slot::NON_FINITE`] set for a `NonFinite` outcome; `value` is the
/// `Ok` value.
#[derive(Debug, Clone, Copy)]
struct Slot {
    steps: u64,
    value: f64,
}

impl Slot {
    const EMPTY: u64 = u64::MAX;
    const NON_FINITE: u64 = 1 << 63;
    const UNFILLED: Slot = Slot {
        steps: Self::EMPTY,
        value: 0.0,
    };

    /// Encodes `entry`, or `None` when its step total does not fit beside
    /// the flag bits (then it is simply not cached).
    fn encode(entry: CacheEntry) -> Option<Slot> {
        if entry.steps >= Self::NON_FINITE - 1 {
            return None;
        }
        Some(match entry.outcome {
            Ok(value) => Slot {
                steps: entry.steps,
                value,
            },
            Err(()) => Slot {
                steps: entry.steps | Self::NON_FINITE,
                value: 0.0,
            },
        })
    }

    fn decode(self) -> Option<CacheEntry> {
        if self.steps == Self::EMPTY {
            return None;
        }
        let steps = self.steps & !Self::NON_FINITE;
        let outcome = if self.steps & Self::NON_FINITE == 0 {
            Ok(self.value)
        } else {
            Err(())
        };
        Some(CacheEntry { steps, outcome })
    }
}

/// Shared CSE result cache: one dense column per subtree fingerprint, one
/// [`Slot`] per pool loop.
///
/// Replaying a hit charges the recorded `steps` against the current budget
/// (failing with `BudgetExceeded` exactly when the interpreter would have
/// run out mid-subtree, since every interpreter charge is one unit and the
/// decision depends only on the running total), then yields the recorded
/// outcome.
#[derive(Debug, Default)]
struct EvalCache {
    /// Cells per column: the pool's loop count.
    loops: usize,
    columns: RwLock<Columns>,
    hits: AtomicU64,
    misses: AtomicU64,
    /// Rides along with the cache because the cache is the per-pool state
    /// every VM run of the pool sees.
    sweep: SweepCounters,
}

/// How often the columnar sweep ([`PlanEval::column_agg`]) decided an
/// aggregate (a value or `BudgetExceeded`) and how often it fell back to
/// the scalar loop. Relaxed counters: observability only.
#[derive(Debug, Default)]
struct SweepCounters {
    commits: AtomicU64,
    fallbacks: AtomicU64,
}

#[derive(Debug, Default)]
struct Columns {
    map: HashMap<Fingerprint, Box<[Slot]>>,
    /// Filled cells across all columns.
    filled: usize,
}

/// Epoch-flush capacity bound on *allocated* slots (columns × loops):
/// allocating a column past it clears the cache. Entries are pure
/// functions of their key, so flushing only costs recomputation.
const RESULT_CACHE_CAP: usize = 1 << 20;

impl EvalCache {
    fn new(loops: usize) -> EvalCache {
        EvalCache {
            loops,
            ..EvalCache::default()
        }
    }

    fn get(&self, key: Fingerprint, loop_idx: u32) -> Option<CacheEntry> {
        let entry = self
            .columns
            .read()
            .map
            .get(&key)
            .and_then(|col| col[loop_idx as usize].decode());
        // Relaxed counters: observability only, never a decision input.
        match entry {
            Some(_) => self.hits.fetch_add(1, Ordering::Relaxed),
            None => self.misses.fetch_add(1, Ordering::Relaxed),
        };
        entry
    }

    fn insert(&self, key: Fingerprint, loop_idx: u32, entry: CacheEntry) {
        let Some(slot) = Slot::encode(entry) else {
            return;
        };
        if self.loops > RESULT_CACHE_CAP {
            return;
        }
        let mut columns = self.columns.write();
        if !columns.map.contains_key(&key)
            && (columns.map.len() + 1) * self.loops > RESULT_CACHE_CAP
        {
            columns.map.clear();
            columns.filled = 0;
        }
        let col = columns
            .map
            .entry(key)
            .or_insert_with(|| vec![Slot::UNFILLED; self.loops].into_boxed_slice());
        let cell = &mut col[loop_idx as usize];
        let fresh = cell.steps == Slot::EMPTY;
        *cell = slot;
        columns.filled += usize::from(fresh);
    }

    /// Filled cells.
    fn entries(&self) -> usize {
        self.columns.read().filled
    }

    /// Allocated cells (columns × loops).
    #[cfg(test)]
    fn allocated(&self) -> usize {
        self.columns.read().map.len() * self.loops
    }
}

/// An in-flight aggregate: iterator state plus the accumulator. The static
/// aggregate description is copied in at [`Op::AggStart`] so the
/// per-element hot path (`advance`, `AggAccum`) touches only this struct —
/// no side-table lookups.
#[derive(Debug, Clone, Copy)]
struct AggFrame {
    body_pc: u32,
    end_pc: u32,
    /// Next arena index to consider (children advance by sibling jump,
    /// descendants by `+1`).
    next: u32,
    /// Exclusive end of the iteration span.
    end: u32,
    children: bool,
    acc: Acc,
    saved_ctx: u32,
}

/// An open CSE region (root-context aggregate being computed on a miss).
#[derive(Debug, Clone, Copy)]
struct CacheFrame {
    key: Fingerprint,
    entry_remaining: u64,
}

/// Reusable VM stack storage. One run leaves its vectors allocated; a
/// columnar sweep hands the same scratch to every cell of the column, so
/// the per-cell cost is five `clear()`s instead of five fresh allocations.
#[derive(Debug, Default)]
struct VmScratch {
    nums: Vec<f64>,
    bools: Vec<bool>,
    frames: Vec<AggFrame>,
    cache_frames: Vec<CacheFrame>,
    ctx_saves: Vec<u32>,
}

impl VmScratch {
    fn clear(&mut self) {
        self.nums.clear();
        self.bools.clear();
        self.frames.clear();
        self.cache_frames.clear();
        self.ctx_saves.clear();
    }
}

/// The bytecode interpreter. One instance per (program, loop) execution;
/// stacks are tiny (bounded by expression depth).
struct Vm<'a> {
    arena: &'a IrArena,
    remaining: u64,
    nums: Vec<f64>,
    bools: Vec<bool>,
    frames: Vec<AggFrame>,
    cache_frames: Vec<CacheFrame>,
    ctx_saves: Vec<u32>,
    ctx: u32,
}

impl<'a> Vm<'a> {
    /// Runs `prog` over `arena` with the given step budget, using `cache`
    /// (when provided) for CSE regions.
    fn run(
        prog: &Program,
        arena: &'a IrArena,
        loop_idx: u32,
        budget: u64,
        cache: Option<&EvalCache>,
    ) -> Result<f64, EvalError> {
        // One-instruction programs (most of a GP population) skip the
        // dispatch loop and the stack machinery entirely.
        if cache.is_none() {
            if let Some(r) = Self::run_simple(prog, arena, budget) {
                return r;
            }
        }
        // Standalone evals reuse one thread-local stack set: allocating
        // fresh stacks per call costs more than evaluating a small feature.
        thread_local! {
            static SCRATCH: std::cell::RefCell<VmScratch> =
                std::cell::RefCell::new(VmScratch::default());
        }
        SCRATCH.with(|s| match s.try_borrow_mut() {
            Ok(mut scratch) => {
                Self::run_scratch(prog, arena, loop_idx, budget, cache, &mut scratch)
            }
            // Re-entrant use (an attr-value callback evaluating a feature
            // mid-eval cannot happen today, but stay total regardless).
            Err(_) => {
                let mut scratch = VmScratch::default();
                Self::run_scratch(prog, arena, loop_idx, budget, cache, &mut scratch)
            }
        })
    }

    /// Stackless dispatch for one-instruction programs — a literal, an
    /// attribute read, one indexed count, one fused or planned aggregate,
    /// optionally wrapped in (cache-less) CSE markers. Semantically
    /// identical to `exec`: the single op computes a value and an exact
    /// step total; budget is checked first (`charge` order), then the
    /// final finiteness check that `push_num` would apply.
    fn run_simple(prog: &Program, arena: &IrArena, budget: u64) -> Option<Result<f64, EvalError>> {
        if prog.ops.len() > 4 {
            return None;
        }
        let mut core = None;
        for op in &prog.ops {
            match op {
                Op::CacheBegin { .. } | Op::CacheEnd | Op::Return => {}
                o => {
                    if core.replace(o).is_some() {
                        return None;
                    }
                }
            }
        }
        let finish = |steps: u64, v: f64| {
            if budget < steps {
                Err(EvalError::BudgetExceeded)
            } else if !v.is_finite() {
                Err(EvalError::NonFinite)
            } else {
                Ok(v)
            }
        };
        Some(match core? {
            Op::PushConst(c) => finish(1, *c),
            Op::LoadAttr(name) => finish(
                1,
                arena.attr(0, *name).and_then(|a| a.as_num()).unwrap_or(0.0),
            ),
            Op::CountIndexed(i) => {
                let (cost, m) = indexed_count_at(arena, 0, &prog.counts[*i as usize]);
                finish(cost, m as f64)
            }
            Op::AggFused(i) => {
                let (steps, r) = fused_eval(arena, &prog.fused[*i as usize], 0);
                match r {
                    Ok(v) => finish(steps, v),
                    Err(e) if budget < steps => {
                        debug_assert!(matches!(e, EvalError::NonFinite));
                        Err(EvalError::BudgetExceeded)
                    }
                    Err(e) => Err(e),
                }
            }
            Op::AggPlan(i) => {
                let pe = PlanEval {
                    arena,
                    limit: budget,
                    sweep: None,
                };
                let mut steps = 0u64;
                match pe.agg(0, &prog.plans[*i as usize], &mut steps) {
                    Ok(v) => finish(steps, v),
                    Err(_) if budget < steps => Err(EvalError::BudgetExceeded),
                    Err(e) => Err(e),
                }
            }
            _ => return None,
        })
    }

    /// [`Vm::run`] with caller-provided stack storage, so a columnar sweep
    /// reuses one allocation set across every cell of the column.
    fn run_scratch(
        prog: &Program,
        arena: &'a IrArena,
        loop_idx: u32,
        budget: u64,
        cache: Option<&EvalCache>,
        scratch: &mut VmScratch,
    ) -> Result<f64, EvalError> {
        scratch.clear();
        let mut vm = Vm {
            arena,
            remaining: budget,
            nums: std::mem::take(&mut scratch.nums),
            bools: std::mem::take(&mut scratch.bools),
            frames: std::mem::take(&mut scratch.frames),
            cache_frames: std::mem::take(&mut scratch.cache_frames),
            ctx_saves: std::mem::take(&mut scratch.ctx_saves),
            ctx: 0,
        };
        let result = vm.exec(prog, loop_idx, cache);
        // A NonFinite error inside an open CSE region is itself cacheable:
        // the steps burned up to the error are deterministic, and a replay
        // charges them before re-raising (matching the interpreter, which
        // does not zero the budget on NonFinite).
        if let (Err(EvalError::NonFinite), Some(c)) = (&result, cache) {
            for fr in &vm.cache_frames {
                let steps = fr.entry_remaining - vm.remaining;
                c.insert(
                    fr.key,
                    loop_idx,
                    CacheEntry {
                        steps,
                        outcome: Err(()),
                    },
                );
            }
        }
        scratch.nums = vm.nums;
        scratch.bools = vm.bools;
        scratch.frames = vm.frames;
        scratch.cache_frames = vm.cache_frames;
        scratch.ctx_saves = vm.ctx_saves;
        result
    }

    /// Charges `cost` steps, mirroring `Evaluator::step` (including zeroing
    /// the remaining budget on failure).
    #[inline]
    fn charge(&mut self, cost: u64) -> Result<(), EvalError> {
        if self.remaining < cost {
            self.remaining = 0;
            return Err(EvalError::BudgetExceeded);
        }
        self.remaining -= cost;
        Ok(())
    }

    #[inline]
    fn push_num(&mut self, v: f64) -> Result<(), EvalError> {
        if !v.is_finite() {
            return Err(EvalError::NonFinite);
        }
        self.nums.push(v);
        Ok(())
    }

    #[inline]
    fn pop_num(&mut self) -> f64 {
        self.nums.pop().expect("numeric stack underflow")
    }

    #[inline]
    fn pop_bool(&mut self) -> bool {
        self.bools.pop().expect("boolean stack underflow")
    }

    fn exec(
        &mut self,
        prog: &Program,
        loop_idx: u32,
        cache: Option<&EvalCache>,
    ) -> Result<f64, EvalError> {
        let mut pc = 0usize;
        loop {
            match prog.ops[pc] {
                Op::Charge => {
                    self.charge(1)?;
                    pc += 1;
                }
                Op::PushConst(c) => {
                    self.charge(1)?;
                    self.push_num(c)?;
                    pc += 1;
                }
                Op::LoadAttr(name) => {
                    self.charge(1)?;
                    let v = self
                        .arena
                        .attr(self.ctx, name)
                        .and_then(|a| a.as_num())
                        .unwrap_or(0.0);
                    self.push_num(v)?;
                    pc += 1;
                }
                Op::Arith(op) => {
                    let b = self.pop_num();
                    let a = self.pop_num();
                    self.push_num(arith(op, a, b))?;
                    pc += 1;
                }
                Op::Neg => {
                    let v = -self.pop_num();
                    self.push_num(v)?;
                    pc += 1;
                }
                Op::IsType(kind) => {
                    self.charge(1)?;
                    self.bools.push(self.arena.kind(self.ctx) == kind);
                    pc += 1;
                }
                Op::HasAttr(name) => {
                    self.charge(1)?;
                    self.bools.push(self.arena.attr(self.ctx, name).is_some());
                    pc += 1;
                }
                Op::AttrEqEnum(name, target, view) => {
                    self.charge(1)?;
                    let b = attr_eq(self.arena, self.ctx, name, target, view);
                    self.bools.push(b);
                    pc += 1;
                }
                Op::AttrCmpNum(name, op, k) => {
                    self.charge(1)?;
                    let b = match self.arena.attr(self.ctx, name).and_then(|a| a.as_num()) {
                        Some(v) => op.apply(v, k),
                        None => false,
                    };
                    self.bools.push(b);
                    pc += 1;
                }
                Op::CmpNum(op) => {
                    let b = self.pop_num();
                    let a = self.pop_num();
                    self.bools.push(op.apply(a, b));
                    pc += 1;
                }
                Op::NotBool => {
                    let b = !self.pop_bool();
                    self.bools.push(b);
                    pc += 1;
                }
                Op::AndJump(target) => {
                    let b = self.pop_bool();
                    if b {
                        pc += 1;
                    } else {
                        self.bools.push(false);
                        pc = target as usize;
                    }
                }
                Op::OrJump(target) => {
                    let b = self.pop_bool();
                    if b {
                        self.bools.push(true);
                        pc = target as usize;
                    } else {
                        pc += 1;
                    }
                }
                Op::ChildCtx { idx, skip } => {
                    self.charge(1)?;
                    match self.arena.nth_child(self.ctx, idx as usize) {
                        Some(child) => {
                            self.ctx_saves.push(self.ctx);
                            self.ctx = child;
                            pc += 1;
                        }
                        None => {
                            self.bools.push(false);
                            pc = skip as usize;
                        }
                    }
                }
                Op::PopCtx => {
                    self.ctx = self.ctx_saves.pop().expect("context stack underflow");
                    pc += 1;
                }
                Op::AggStart(meta_idx) => {
                    self.charge(1)?;
                    let meta = &prog.aggs[meta_idx as usize];
                    self.frames.push(AggFrame {
                        body_pc: meta.body_pc,
                        end_pc: meta.end_pc,
                        next: self.ctx + 1,
                        end: self.arena.subtree_end(self.ctx),
                        children: meta.children_base,
                        acc: Acc::new(meta.kind),
                        saved_ctx: self.ctx,
                    });
                    self.advance(&mut pc)?;
                }
                Op::PredGate => {
                    if self.pop_bool() {
                        pc += 1;
                    } else {
                        self.advance(&mut pc)?;
                    }
                }
                Op::AggAccum => {
                    let kind = self
                        .frames
                        .last()
                        .expect("aggregate frame underflow")
                        .acc
                        .kind;
                    let v = match kind {
                        AggKind::Count => 0.0, // count pops no body value
                        _ => self.pop_num(),
                    };
                    self.accum_frame(v);
                    self.advance(&mut pc)?;
                }
                Op::IsTypeGate(kind) => {
                    self.charge(1)?;
                    if self.arena.kind(self.ctx) == kind {
                        pc += 1;
                    } else {
                        self.advance(&mut pc)?;
                    }
                }
                Op::HasAttrGate(name) => {
                    self.charge(1)?;
                    if self.arena.attr(self.ctx, name).is_some() {
                        pc += 1;
                    } else {
                        self.advance(&mut pc)?;
                    }
                }
                Op::AttrEqEnumGate(name, target, view) => {
                    self.charge(1)?;
                    if attr_eq(self.arena, self.ctx, name, target, view) {
                        pc += 1;
                    } else {
                        self.advance(&mut pc)?;
                    }
                }
                Op::AttrCmpNumGate(name, op, k) => {
                    self.charge(1)?;
                    let b = match self.arena.attr(self.ctx, name).and_then(|a| a.as_num()) {
                        Some(v) => op.apply(v, k),
                        None => false,
                    };
                    if b {
                        pc += 1;
                    } else {
                        self.advance(&mut pc)?;
                    }
                }
                Op::ConstAccum(c) => {
                    self.charge(1)?;
                    if !c.is_finite() {
                        return Err(EvalError::NonFinite);
                    }
                    self.accum_frame(c);
                    self.advance(&mut pc)?;
                }
                Op::AttrAccum(name) => {
                    self.charge(1)?;
                    let v = self
                        .arena
                        .attr(self.ctx, name)
                        .and_then(|a| a.as_num())
                        .unwrap_or(0.0);
                    if !v.is_finite() {
                        return Err(EvalError::NonFinite);
                    }
                    self.accum_frame(v);
                    self.advance(&mut pc)?;
                }
                Op::CountIndexed(meta_idx) => {
                    self.count_indexed(prog, meta_idx)?;
                    pc += 1;
                }
                Op::AggFused(meta_idx) => {
                    self.agg_fused(prog, meta_idx)?;
                    pc += 1;
                }
                Op::AggPlan(meta_idx) => {
                    let meta = &prog.plans[meta_idx as usize];
                    let pe = PlanEval {
                        arena: self.arena,
                        limit: self.remaining,
                        sweep: cache.map(|c| &c.sweep),
                    };
                    let mut steps = 0u64;
                    match pe.agg(self.ctx, meta, &mut steps) {
                        Ok(v) => {
                            self.charge(steps)?;
                            self.push_num(v)?;
                            pc += 1;
                        }
                        Err(e) => {
                            // Charge what the interpreter would have
                            // charged before the error; running out first
                            // wins, exactly as `charge` encodes (a
                            // plan-level BudgetExceeded always carries
                            // `steps > remaining`, so `charge` fails and
                            // zeroes the budget).
                            self.charge(steps)?;
                            return Err(e);
                        }
                    }
                }
                Op::CacheBegin { key_idx, end } => match cache {
                    Some(c) => {
                        let key = prog.keys[key_idx as usize];
                        match c.get(key, loop_idx) {
                            Some(entry) => {
                                self.charge(entry.steps)?;
                                match entry.outcome {
                                    Ok(v) => {
                                        self.nums.push(v);
                                        pc = end as usize;
                                    }
                                    Err(()) => return Err(EvalError::NonFinite),
                                }
                            }
                            None => {
                                self.cache_frames.push(CacheFrame {
                                    key,
                                    entry_remaining: self.remaining,
                                });
                                pc += 1;
                            }
                        }
                    }
                    None => pc += 1,
                },
                Op::CacheEnd => {
                    if let Some(c) = cache {
                        let fr = self
                            .cache_frames
                            .pop()
                            .expect("CacheEnd without open region");
                        let steps = fr.entry_remaining - self.remaining;
                        let v = *self.nums.last().expect("cached region left no value");
                        c.insert(
                            fr.key,
                            loop_idx,
                            CacheEntry {
                                steps,
                                outcome: Ok(v),
                            },
                        );
                    }
                    pc += 1;
                }
                Op::Return => return Ok(self.pop_num()),
            }
        }
    }

    /// Folds one element value into the top aggregate frame (the shared
    /// tail of `AggAccum` and the accumulate superinstructions).
    #[inline]
    fn accum_frame(&mut self, v: f64) {
        let f = self.frames.last_mut().expect("aggregate frame underflow");
        f.acc.push(v);
    }

    /// Yields the next element of the top aggregate frame (charging one
    /// step per element, as the interpreter's `for_each` does) or, when the
    /// iteration is exhausted, finalizes the aggregate value.
    fn advance(&mut self, pc: &mut usize) -> Result<(), EvalError> {
        let arena = self.arena;
        let f = self.frames.last_mut().expect("aggregate frame underflow");
        if f.next < f.end {
            let cur = f.next;
            f.next = if f.children {
                arena.subtree_end(cur)
            } else {
                cur + 1
            };
            let body_pc = f.body_pc;
            self.charge(1)?;
            self.ctx = cur;
            *pc = body_pc as usize;
            Ok(())
        } else {
            let f = self.frames.pop().expect("aggregate frame underflow");
            self.ctx = f.saved_ctx;
            self.push_num(f.acc.finish())?;
            *pc = f.end_pc as usize;
            Ok(())
        }
    }

    /// Indexed `count`: computes the exact step total the interpreter would
    /// charge (every interpreter charge is one unit, so the `BudgetExceeded`
    /// decision depends only on the total) plus the count — from the arena's
    /// postings lists for single atoms, or a scan with short-circuit step
    /// accounting for predicate trees — then charges in bulk. Pure
    /// predicates cannot raise `NonFinite`, so no error-ordering concern
    /// arises.
    fn count_indexed(&mut self, prog: &Program, meta_idx: u32) -> Result<(), EvalError> {
        let meta = &prog.counts[meta_idx as usize];
        let (total_cost, value) = indexed_count_at(self.arena, self.ctx, meta);
        self.charge(total_cost)?;
        // Counts are always finite; push directly.
        self.nums.push(value as f64);
        Ok(())
    }

    /// Fused aggregate: evaluated out-of-line by [`fused_eval`], then the
    /// exact step total is charged in bulk. The only mid-iteration error
    /// the interpreter could raise is `NonFinite` from a body value; at
    /// that point the steps charged so far decide between `BudgetExceeded`
    /// (if they already exhaust the budget) and `NonFinite` — identical to
    /// the interpreter's charge-then-check order.
    fn agg_fused(&mut self, prog: &Program, meta_idx: u32) -> Result<(), EvalError> {
        let (steps, r) = fused_eval(self.arena, &prog.fused[meta_idx as usize], self.ctx);
        // Charge what the interpreter would have charged up to the result
        // or the error; running out first wins, exactly as `charge` encodes.
        self.charge(steps)?;
        self.push_num(r?)
    }
}

/// Evaluates one fused aggregate at `ctx`: one tight loop over the
/// elements, evaluating pure predicates and the leaf body directly while
/// accumulating the exact step total the interpreter would charge. The
/// `Ok` value has not yet had the final finiteness check applied.
fn fused_eval(arena: &IrArena, meta: &FusedAggMeta, ctx: u32) -> (u64, Result<f64, EvalError>) {
    // The aggregate node's own entry charge.
    let mut steps = 1u64;
    let mut acc = Acc::new(meta.kind);
    let mut element = |j: u32, steps: &mut u64| -> Result<(), EvalError> {
        *steps += 1; // the per-element `for_each` charge
        for p in &meta.preds {
            if !pure_pred_matches(arena, j, p, steps) {
                return Ok(());
            }
        }
        let v = match &meta.body {
            FusedBody::None => {
                acc.count();
                return Ok(());
            }
            FusedBody::Const(c) => {
                *steps += 1;
                *c
            }
            FusedBody::Attr(a) => {
                *steps += 1;
                arena.attr(j, *a).and_then(|x| x.as_num()).unwrap_or(0.0)
            }
            FusedBody::Count(cm) => {
                let (cost, m) = indexed_count_at(arena, j, cm);
                *steps += cost;
                m as f64
            }
        };
        if !v.is_finite() {
            return Err(EvalError::NonFinite);
        }
        acc.push(v);
        Ok(())
    };
    let result = if meta.children_base {
        arena.children(ctx).try_for_each(|j| element(j, &mut steps))
    } else {
        (ctx + 1..arena.subtree_end(ctx)).try_for_each(|j| element(j, &mut steps))
    };
    match result {
        Ok(()) => (steps, Ok(acc.finish())),
        Err(e) => (steps, Err(e)),
    }
}

/// Computes one indexed-count site at context node `ctx`: the exact step
/// total the interpreter would charge and the matching-element count.
fn indexed_count_at(arena: &IrArena, ctx: u32, meta: &CountMeta) -> (u64, u64) {
    if meta.children_base {
        let c = u64::from(arena.child_count(ctx));
        match &meta.pred {
            None => (1 + c, c),
            Some(PurePred::Atom {
                atom,
                negated,
                cost,
            }) => {
                let mut m = 0u64;
                for j in arena.children(ctx) {
                    if pure_atom_matches(arena, j, atom) {
                        m += 1;
                    }
                }
                let m = if *negated { c - m } else { m };
                (1 + c * (1 + cost), m)
            }
            Some(PurePred::Tree { expr, .. }) => {
                let mut steps = 0u64;
                let mut m = 0u64;
                for j in arena.children(ctx) {
                    steps += 1; // the per-element `for_each` charge
                    if eval_pure(arena, j, expr, &mut steps) {
                        m += 1;
                    }
                }
                (1 + steps, m)
            }
        }
    } else {
        let d = u64::from(arena.descendant_count(ctx));
        let (lo, hi) = (ctx + 1, arena.subtree_end(ctx));
        match &meta.pred {
            None => (1 + d, d),
            Some(PurePred::Atom {
                atom,
                negated,
                cost,
            }) => {
                let m = match *atom {
                    PureAtom::IsType(k) => u64::from(arena.count_kind_in(k, lo, hi)),
                    PureAtom::HasAttr(a) => u64::from(arena.count_attr_in(a, lo, hi)),
                    PureAtom::AttrEq(a, v, view) => arena
                        .attr_nodes_in(a, lo, hi)
                        .iter()
                        .filter(|&&j| attr_eq(arena, j, a, v, view))
                        .count() as u64,
                    PureAtom::AttrCmp(a, op, k) => arena
                        .attr_nodes_in(a, lo, hi)
                        .iter()
                        .filter(|&&j| {
                            matches!(
                                arena.attr(j, a).and_then(|x| x.as_num()),
                                Some(v) if op.apply(v, k)
                            )
                        })
                        .count() as u64,
                };
                let m = if *negated { d - m } else { m };
                (1 + d * (1 + cost), m)
            }
            Some(PurePred::Tree { expr, kinds }) => {
                if kinds.is_none() {
                    if let PureExpr::Child(idx, inner) = expr {
                        if let PureExpr::Atom(atom) = &**inner {
                            return child_probe_count(arena, lo, hi, *idx, atom, d);
                        }
                    }
                }
                let mut steps = 0u64;
                let mut m = 0u64;
                if let Some(table) = kinds {
                    // Kinds-only tree: verdict and cost were tabled at
                    // compile time, so the scan is one kind load and a
                    // probe of a few mentioned kinds per element.
                    for j in lo..hi {
                        let k = arena.kind(j);
                        let (matched, cost) = table
                            .entries
                            .iter()
                            .find(|&&(s, ..)| s == k)
                            .map_or(table.default, |&(_, matched, cost)| (matched, cost));
                        steps += 1 + cost;
                        if matched {
                            m += 1;
                        }
                    }
                } else {
                    for j in lo..hi {
                        steps += 1; // the per-element `for_each` charge
                        if eval_pure(arena, j, expr, &mut steps) {
                            m += 1;
                        }
                    }
                }
                (1 + steps, m)
            }
        }
    }
}

/// Counts `filter(//*, /[idx][atom])` without probing every element.
///
/// Matches are found backwards: instead of walking to every element's
/// `idx`-th child, iterate the atom's postings list and keep the nodes
/// that sit in child position `idx` under an in-range parent. The step
/// total is closed-form — the interpreter charges each element one
/// `for_each` step, one `Child` probe step, and one atom step only when
/// the probed child exists (`child_count > idx`).
fn child_probe_count(
    arena: &IrArena,
    lo: u32,
    hi: u32,
    idx: u32,
    atom: &PureAtom,
    d: u64,
) -> (u64, u64) {
    let mut probed = 0u64;
    for j in lo..hi {
        if arena.child_count(j) > idx {
            probed += 1;
        }
    }
    let in_position = |&&k: &&u32| {
        let p = arena.parent(k);
        p >= lo && arena.nth_child(p, idx as usize) == Some(k)
    };
    let m = match *atom {
        PureAtom::IsType(kind) => arena.kind_nodes_in(kind, lo, hi).iter().filter(in_position),
        PureAtom::HasAttr(a) => arena.attr_nodes_in(a, lo, hi).iter().filter(in_position),
        PureAtom::AttrEq(a, v, view) => {
            let m = arena
                .attr_nodes_in(a, lo, hi)
                .iter()
                .filter(|&&k| attr_eq(arena, k, a, v, view))
                .filter(in_position)
                .count() as u64;
            return (1 + 2 * d + probed, m);
        }
        PureAtom::AttrCmp(a, op, cmp_k) => {
            let m = arena
                .attr_nodes_in(a, lo, hi)
                .iter()
                .filter(|&&k| {
                    matches!(arena.attr(k, a).and_then(|x| x.as_num()), Some(v) if op.apply(v, cmp_k))
                })
                .filter(in_position)
                .count() as u64;
            return (1 + 2 * d + probed, m);
        }
    }
    .count() as u64;
    (1 + 2 * d + probed, m)
}

/// Evaluates one loop-nest plan ([`Op::AggPlan`]) with exact interpreter
/// step accounting.
///
/// All charges accumulate into one running `steps` total and are
/// bulk-charged by the op handler; since every interpreter charge is one
/// unit, the `BudgetExceeded` decision depends only on the cumulative
/// total (DESIGN.md §11). Two orderings need explicit care:
///
/// - The element loops abort with `BudgetExceeded` as soon as the running
///   total exceeds `limit`, so a deep nest stops scanning near the
///   interpreter's stopping point instead of walking the whole arena.
/// - At every `NonFinite` detection point the running total decides the
///   error: if it already exceeds `limit`, the interpreter would have run
///   out *before* computing the offending value, so `BudgetExceeded` wins.
struct PlanEval<'a> {
    arena: &'a IrArena,
    /// Budget remaining when the plan started (`Vm::remaining`).
    limit: u64,
    /// The pool's columnar-sweep counters, when run from a pool.
    sweep: Option<&'a SweepCounters>,
}

impl PlanEval<'_> {
    /// Budget-vs-NonFinite decision for a non-finite value whose
    /// computation ended at step total `steps`.
    #[inline]
    fn non_finite(&self, steps: u64) -> EvalError {
        if steps > self.limit {
            EvalError::BudgetExceeded
        } else {
            EvalError::NonFinite
        }
    }

    #[inline]
    fn finite(&self, v: f64, steps: u64) -> Result<f64, EvalError> {
        if v.is_finite() {
            Ok(v)
        } else {
            Err(self.non_finite(steps))
        }
    }

    /// One aggregate level: iterates the base elements (postings slice,
    /// sibling jumps, or a preorder range scan), filters, accumulates.
    fn agg(&self, ctx: u32, plan: &PlanAgg, steps: &mut u64) -> Result<f64, EvalError> {
        if let Some(body) = plan.leaf {
            return self.leaf_agg(ctx, plan.kind, plan.children_base, body, steps);
        }
        *steps += 1; // the aggregate node's entry charge
        if let (AggKind::Count, false, None, [PlanPred::Dyn(PlanBool::LeafCmp(op, a, b))]) = (
            plan.kind,
            plan.children_base,
            &plan.body,
            plan.preds.as_slice(),
        ) {
            return self.count_leaf_cmp(ctx, *op, *a, *b, steps);
        }
        let mut acc = Acc::new(plan.kind);
        if let Some(cov) = &plan.cover {
            let (lo, hi) = (ctx + 1, self.arena.subtree_end(ctx));
            // Merge the cover postings slices (each sorted, deduplicated
            // across slices): only cover elements can match, and every
            // skipped element follows the constant all-atoms-false trace.
            let mut slices = [&[] as &[u32]; 4];
            let k = cov.srcs.len().min(slices.len());
            for (slot, src) in slices.iter_mut().zip(&cov.srcs) {
                *slot = match src {
                    CoverSrc::Kind(sym) => self.arena.kind_nodes_in(*sym, lo, hi),
                    CoverSrc::Attr(sym) => self.arena.attr_nodes_in(*sym, lo, hi),
                };
            }
            let mut prev = lo;
            loop {
                let mut j = u32::MAX;
                for s in &slices[..k] {
                    if let Some(&h) = s.first() {
                        j = j.min(h);
                    }
                }
                if j == u32::MAX {
                    break;
                }
                for s in &mut slices[..k] {
                    if s.first() == Some(&j) {
                        *s = &s[1..];
                    }
                }
                // Bulk-charge the skipped run (`for_each` + false-trace
                // cost each; pure predicates cannot raise, so no error
                // point is jumped over), then this element's `for_each`;
                // the predicates themselves charge exactly during eval.
                *steps += u64::from(j - prev) * cov.skip_per + 1;
                prev = j + 1;
                if *steps > self.limit {
                    return Err(EvalError::BudgetExceeded);
                }
                self.element(j, plan, steps, &mut acc)?;
            }
            *steps += u64::from(hi - prev) * cov.skip_per;
        } else if plan.children_base {
            let end = self.arena.subtree_end(ctx);
            let mut j = ctx + 1;
            while j < end {
                *steps += 1; // the per-element `for_each` charge
                if *steps > self.limit {
                    return Err(EvalError::BudgetExceeded);
                }
                self.element(j, plan, steps, &mut acc)?;
                j = self.arena.subtree_end(j);
            }
        } else {
            if let Some(r) = self.column_agg(ctx, plan, steps) {
                return r;
            }
            for j in ctx + 1..self.arena.subtree_end(ctx) {
                *steps += 1;
                if *steps > self.limit {
                    return Err(EvalError::BudgetExceeded);
                }
                self.element(j, plan, steps, &mut acc)?;
            }
        }
        self.finite(acc.finish(), *steps)
    }

    /// One element: the filter predicates, then body accumulation.
    fn element(
        &self,
        j: u32,
        plan: &PlanAgg,
        steps: &mut u64,
        acc: &mut Acc,
    ) -> Result<(), EvalError> {
        for p in &plan.preds {
            let holds = match p {
                PlanPred::Pure(pp) => pure_pred_matches(self.arena, j, pp, steps),
                PlanPred::Dyn(pb) => self.boolean(j, pb, steps)?,
            };
            if !holds {
                return Ok(());
            }
        }
        match &plan.body {
            None => acc.count(), // `count` has no body
            Some(b) => acc.push(self.expr(j, b, steps)?),
        }
        Ok(())
    }

    /// A predicate node: one entry charge, then the interpreter's
    /// short-circuit/child-probe semantics.
    fn boolean(&self, j: u32, e: &PlanBool, steps: &mut u64) -> Result<bool, EvalError> {
        *steps += 1;
        match e {
            PlanBool::Atom(a) => Ok(pure_atom_matches(self.arena, j, a)),
            PlanBool::Cmp(op, a, b) => {
                let x = self.expr(j, a, steps)?;
                let y = self.expr(j, b, steps)?;
                Ok(op.apply(x, y))
            }
            PlanBool::LeafCmp(op, a, b) => {
                let (ca, x) = self.leaf_arg_at(j, *a);
                *steps += ca;
                if !x.is_finite() {
                    return Err(self.non_finite(*steps));
                }
                let (cb, y) = self.leaf_arg_at(j, *b);
                *steps += cb;
                if !y.is_finite() {
                    return Err(self.non_finite(*steps));
                }
                Ok(op.apply(x, y))
            }
            PlanBool::Not(inner) => Ok(!self.boolean(j, inner, steps)?),
            PlanBool::And(a, b) => Ok(self.boolean(j, a, steps)? && self.boolean(j, b, steps)?),
            PlanBool::Or(a, b) => Ok(self.boolean(j, a, steps)? || self.boolean(j, b, steps)?),
            PlanBool::Child(idx, inner) => match self.arena.nth_child(j, *idx as usize) {
                Some(child) => self.boolean(child, inner, steps),
                None => Ok(false),
            },
        }
    }

    /// A numeric node: one entry charge, value computed, finiteness checked
    /// — exactly the interpreter's per-node protocol.
    fn expr(&self, j: u32, e: &PlanExpr, steps: &mut u64) -> Result<f64, EvalError> {
        match e {
            PlanExpr::Const(c) => {
                *steps += 1;
                self.finite(*c, *steps)
            }
            PlanExpr::Attr(a) => {
                *steps += 1;
                let v = self
                    .arena
                    .attr(j, *a)
                    .and_then(|x| x.as_num())
                    .unwrap_or(0.0);
                self.finite(v, *steps)
            }
            PlanExpr::Count(cm) => {
                let (cost, m) = indexed_count_at(self.arena, j, cm);
                *steps += cost;
                Ok(m as f64) // counts are always finite
            }
            PlanExpr::Agg(inner) => self.agg(j, inner, steps),
            PlanExpr::LeafAgg {
                kind,
                children_base,
                body,
            } => self.leaf_agg(j, *kind, *children_base, *body, steps),
            PlanExpr::Arith(op, a, b) => {
                *steps += 1;
                let x = self.expr(j, a, steps)?;
                let y = self.expr(j, b, steps)?;
                self.finite(arith(*op, x, y), *steps)
            }
            PlanExpr::Neg(a) => {
                *steps += 1;
                let v = -self.expr(j, a, steps)?;
                self.finite(v, *steps)
            }
        }
    }

    /// Evaluates a leaf operand at element `j`: `(exact step cost, value)`.
    #[inline]
    fn leaf_arg_at(&self, j: u32, a: LeafArg) -> (u64, f64) {
        match a {
            LeafArg::Const(c) => (1, c),
            LeafArg::Attr(s) => (1, self.attr_num(j, s)),
            LeafArg::ChildCount => {
                let c = self.arena.child_count(j);
                (1 + u64::from(c), f64::from(c))
            }
            LeafArg::DescCount => {
                let d = self.arena.descendant_count(j);
                (1 + u64::from(d), f64::from(d))
            }
        }
    }

    #[inline]
    fn attr_num(&self, j: u32, name: Symbol) -> f64 {
        self.arena
            .attr(j, name)
            .and_then(|x| x.as_num())
            .unwrap_or(0.0)
    }

    /// A predicate-free aggregate with a leaf body: one bulk-charged arena
    /// loop. Over `//*` the charge total is closed-form per body kind and
    /// only genuine error points (non-finite attribute values) are visited
    /// individually; over `/*` the sibling-jump loop is short enough that
    /// per-element charging is already cheap.
    fn leaf_agg(
        &self,
        ctx: u32,
        kind: AggKind,
        children_base: bool,
        body: LeafArg,
        steps: &mut u64,
    ) -> Result<f64, EvalError> {
        *steps += 1; // the aggregate node's entry charge
        if children_base {
            let end = self.arena.subtree_end(ctx);
            let mut acc = Acc::new(kind);
            let mut j = ctx + 1;
            while j < end {
                let (c, v) = self.leaf_arg_at(j, body);
                *steps += 1 + c; // `for_each` + the body's charge
                if !v.is_finite() {
                    return Err(self.non_finite(*steps));
                }
                acc.push(v);
                j = self.arena.subtree_end(j);
            }
            return self.finite(acc.finish(), *steps);
        }
        let (lo, hi) = (ctx + 1, self.arena.subtree_end(ctx));
        let n = u64::from(hi - lo);
        let v = match body {
            LeafArg::Const(c) => {
                if n > 0 && !c.is_finite() {
                    // The first element's body raises at exactly this
                    // prefix (`for_each` + the literal's entry charge).
                    *steps += 2;
                    return Err(self.non_finite(*steps));
                }
                *steps += 2 * n;
                match kind {
                    AggKind::Sum | AggKind::Avg => {
                        // Repeated addition, not multiplication: identical
                        // rounding to the interpreter's fold.
                        let mut acc = 0.0;
                        for _ in 0..n {
                            acc += c;
                        }
                        if matches!(kind, AggKind::Avg) && n > 0 {
                            acc / n as f64
                        } else {
                            acc
                        }
                    }
                    AggKind::Max | AggKind::Min => {
                        if n > 0 {
                            c
                        } else {
                            0.0
                        }
                    }
                    AggKind::Count => unreachable!("count aggregates have no body"),
                }
            }
            LeafArg::Attr(name) => match kind {
                AggKind::Sum | AggKind::Avg => {
                    // Only elements carrying the attribute can contribute a
                    // non-zero (or non-finite) value; the rest add +0.0,
                    // an exact identity here (the accumulator starts at
                    // +0.0 and IEEE round-to-nearest addition never
                    // produces -0.0 from a +0.0 start).
                    let mut acc = 0.0;
                    for &j in self.arena.attr_nodes_in(name, lo, hi) {
                        let v = self.attr_num(j, name);
                        if !v.is_finite() {
                            // Every element up to and including `j` costs
                            // exactly 2 (`for_each` + attribute read).
                            *steps += 2 * u64::from(j - lo + 1);
                            return Err(self.non_finite(*steps));
                        }
                        acc += v;
                    }
                    *steps += 2 * n;
                    if matches!(kind, AggKind::Avg) && n > 0 {
                        acc / n as f64
                    } else {
                        acc
                    }
                }
                AggKind::Max | AggKind::Min => {
                    // Missing attributes contribute 0.0 to the fold, so
                    // every element participates; keep the fold order.
                    let (mut acc, mut started) = (0.0f64, false);
                    for j in lo..hi {
                        *steps += 2;
                        let v = self.attr_num(j, name);
                        if !v.is_finite() {
                            return Err(self.non_finite(*steps));
                        }
                        acc = match (started, kind) {
                            (false, _) => v,
                            (true, AggKind::Max) => acc.max(v),
                            _ => acc.min(v),
                        };
                        started = true;
                    }
                    if started {
                        acc
                    } else {
                        0.0
                    }
                }
                AggKind::Count => unreachable!("count aggregates have no body"),
            },
            LeafArg::ChildCount => {
                // Σ child-count over `lo..hi` is the subtree's inner edge
                // count: every descendant's parent edge except those from
                // `ctx` itself. All values are small integers, so the
                // interpreter's f64 fold is exact and order-free.
                let edges = n - u64::from(self.arena.child_count(ctx));
                *steps += 2 * n + edges;
                match kind {
                    AggKind::Sum => edges as f64,
                    AggKind::Avg => {
                        if n == 0 {
                            0.0
                        } else {
                            edges as f64 / n as f64
                        }
                    }
                    AggKind::Max | AggKind::Min => {
                        let it = (lo..hi).map(|j| self.arena.child_count(j));
                        let m = match kind {
                            AggKind::Max => it.max(),
                            _ => it.min(),
                        };
                        m.map_or(0.0, f64::from)
                    }
                    AggKind::Count => unreachable!("count aggregates have no body"),
                }
            }
            LeafArg::DescCount => {
                // Charge per element is 2 + its descendant count; the f64
                // fold mirrors the interpreter's exactly (all integers).
                let mut charged = 2 * n;
                let (mut acc, mut started) = (0.0f64, false);
                for j in lo..hi {
                    let d = self.arena.descendant_count(j);
                    charged += u64::from(d);
                    let v = f64::from(d);
                    acc = match (started, kind) {
                        (false, _) => v,
                        (true, AggKind::Sum) | (true, AggKind::Avg) => acc + v,
                        (true, AggKind::Max) => acc.max(v),
                        (true, AggKind::Min) => acc.min(v),
                        (true, AggKind::Count) => {
                            unreachable!("count aggregates have no body")
                        }
                    };
                    started = true;
                }
                *steps += charged;
                match kind {
                    AggKind::Avg => {
                        if n == 0 {
                            0.0
                        } else {
                            acc / n as f64
                        }
                    }
                    _ => {
                        if started {
                            acc
                        } else {
                            0.0
                        }
                    }
                }
            }
        };
        self.finite(v, *steps)
    }

    /// `count(filter(//*, <leaf> OP <leaf>))`: one flat pass over the
    /// subtree range with no per-element dispatch. When neither operand
    /// reads an attribute the loop is error-free (counts and literals are
    /// always finite), so only the cumulative step total matters and the
    /// charge is applied in bulk after the scan.
    fn count_leaf_cmp(
        &self,
        ctx: u32,
        op: CmpOp,
        a: LeafArg,
        b: LeafArg,
        steps: &mut u64,
    ) -> Result<f64, EvalError> {
        let (lo, hi) = (ctx + 1, self.arena.subtree_end(ctx));
        let attr_free = !matches!(a, LeafArg::Attr(_)) && !matches!(b, LeafArg::Attr(_));
        let mut n = 0u64;
        if attr_free {
            let mut total = 0u64;
            for j in lo..hi {
                let (ca, x) = self.leaf_arg_at(j, a);
                let (cb, y) = self.leaf_arg_at(j, b);
                total += 2 + ca + cb; // `for_each` + the Cmp node's entry
                n += u64::from(op.apply(x, y));
            }
            *steps += total;
        } else {
            for j in lo..hi {
                *steps += 2; // `for_each` + the Cmp node's entry
                let (ca, x) = self.leaf_arg_at(j, a);
                *steps += ca;
                if !x.is_finite() {
                    return Err(self.non_finite(*steps));
                }
                let (cb, y) = self.leaf_arg_at(j, b);
                *steps += cb;
                if !y.is_finite() {
                    return Err(self.non_finite(*steps));
                }
                n += u64::from(op.apply(x, y));
            }
        }
        self.finite(n as f64, *steps)
    }

    /// Columnar evaluation of a `//*` aggregate level without a cover.
    ///
    /// Bottom-up passes produce, for every node of the range at once, the
    /// value column and the exact per-node step-cost column of each filter
    /// gate and of the body; a final fold at `ctx` finishes the aggregate.
    /// A nested aggregate level is itself one column: each node folds its
    /// own element range (children by sibling jumps, descendants as the
    /// preorder range `i + 1..subtree_end(i)`) sequentially over the level
    /// below, so every aggregate is evaluated once per node instead of once
    /// per enclosing context, in `O(levels · nodes · depth)`.
    ///
    /// Exactness: every fold visits elements in increasing preorder — the
    /// interpreter's iteration order — with its gates short-circuiting, so
    /// each floating-point fold performs the identical operation sequence
    /// and each cost sums exactly the interpreter's unit charges (with
    /// saturating arithmetic: nested costs grow like `nodes^levels`). The
    /// sweep is *optimistic*: when any value the interpreter could
    /// finite-check is non-finite (conservatively, even one no element
    /// consumes) it returns `None` and the scalar loop reproduces the
    /// interpreter's exact error point. With every value finite the
    /// interpreter raises nothing, so the summed cost alone decides the
    /// budget: over the limit is `BudgetExceeded`, as the interpreter would
    /// end.
    fn column_agg(
        &self,
        ctx: u32,
        plan: &PlanAgg,
        steps: &mut u64,
    ) -> Option<Result<f64, EvalError>> {
        let (lo, hi) = (ctx + 1, self.arena.subtree_end(ctx));
        if hi - lo < COLUMN_MIN || !sweeps_well(plan) {
            return None;
        }
        let folded = COL_POOL.with(|p| {
            let mut pool = p.try_borrow_mut().ok()?;
            let mut ok = true;
            let level = self.col_level(plan, lo, hi, &mut pool, &mut ok);
            let folded = ok.then(|| self.col_fold(ctx, plan, &level, lo));
            level.release(&mut pool);
            folded
        });
        let counted = |c: Option<&AtomicU64>| {
            if let Some(c) = c {
                c.fetch_add(1, Ordering::Relaxed);
            }
        };
        let Some((v, cost)) = folded else {
            counted(self.sweep.map(|s| &s.fallbacks));
            return None;
        };
        let total = steps.saturating_add(cost);
        if total > self.limit {
            counted(self.sweep.map(|s| &s.commits));
            *steps = total;
            return Some(Err(EvalError::BudgetExceeded));
        }
        if total == u64::MAX {
            // Saturated at an unbounded limit: the true total is unknown.
            counted(self.sweep.map(|s| &s.fallbacks));
            return None;
        }
        counted(self.sweep.map(|s| &s.commits));
        *steps = total;
        Some(self.finite(v, total))
    }

    /// The gate columns (one per filter, in evaluation order) and the body
    /// column of one aggregate level over `lo..hi`.
    fn col_level(
        &self,
        plan: &PlanAgg,
        lo: u32,
        hi: u32,
        pool: &mut Vec<ColBuf>,
        ok: &mut bool,
    ) -> ColLevel {
        let gates = plan
            .preds
            .iter()
            .map(|p| match p {
                PlanPred::Pure(pp) => {
                    let mut b = acquire(pool, (hi - lo) as usize, 0.0, 0);
                    for j in lo..hi {
                        let x = (j - lo) as usize;
                        b.val[x] = f64::from(u8::from(pure_pred_matches(
                            self.arena,
                            j,
                            pp,
                            &mut b.cost[x],
                        )));
                    }
                    b
                }
                PlanPred::Dyn(pb) => self.col_bool(pb, lo, hi, pool, ok),
            })
            .collect();
        let body = plan
            .body
            .as_ref()
            .map(|b| self.col_expr(b, lo, hi, pool, ok));
        ColLevel { gates, body }
    }

    /// One aggregate level at node `i` from its columns: the elements in
    /// interpreter order, each charged its `for_each` step and its gates
    /// up to the first that fails, then its body. Returns the value and the
    /// cost *excluding* the aggregate's own entry charge.
    #[inline]
    fn col_fold(&self, i: u32, plan: &PlanAgg, level: &ColLevel, lo: u32) -> (f64, u64) {
        let end = self.arena.subtree_end(i);
        let mut acc = Acc::new(plan.kind);
        let mut cost = 0u64;
        if let ([], Some(b)) = (level.gates.as_slice(), &level.body) {
            // The dominant shapes, unfiltered: a `//*` level folds the body
            // column's contiguous range, a `/*` level hops over children.
            if !plan.children_base {
                let range = (i + 1 - lo) as usize..(end - lo) as usize;
                let cost = b.cost[range.clone()]
                    .iter()
                    .fold(range.len() as u64, |t, &c| t.saturating_add(c));
                return (Acc::fold(plan.kind, &b.val[range]), cost);
            }
            for k in self.arena.children(i) {
                let x = (k - lo) as usize;
                cost = cost.saturating_add(1).saturating_add(b.cost[x]);
                acc.push(b.val[x]);
            }
            return (acc.finish(), cost);
        }
        let mut k = i + 1;
        while k < end {
            let x = (k - lo) as usize;
            k = if plan.children_base {
                self.arena.subtree_end(k)
            } else {
                k + 1
            };
            let (holds, c) = level.element(x);
            cost = cost.saturating_add(c);
            if holds {
                match &level.body {
                    Some(b) => acc.push(b.val[x]),
                    None => acc.count(),
                }
            }
        }
        (acc.finish(), cost)
    }

    /// Evaluates `e` for **every** node in `lo..hi` at once, returning the
    /// value column and the exact per-node interpreter step cost column.
    /// Non-finiteness of any value the interpreter would check clears
    /// `ok` (conservatively — including values no element consumes).
    fn col_expr(
        &self,
        e: &PlanExpr,
        lo: u32,
        hi: u32,
        pool: &mut Vec<ColBuf>,
        ok: &mut bool,
    ) -> ColBuf {
        let n = (hi - lo) as usize;
        match e {
            PlanExpr::Const(c) => {
                *ok &= c.is_finite();
                acquire(pool, n, *c, 1)
            }
            PlanExpr::Attr(name) => {
                let mut b = acquire(pool, n, 0.0, 1);
                let mut fin = true;
                for &j in self.arena.attr_nodes_in(*name, lo, hi) {
                    let v = self.attr_num(j, *name);
                    fin &= v.is_finite();
                    b.val[(j - lo) as usize] = v;
                }
                *ok &= fin;
                b
            }
            PlanExpr::Count(meta) => {
                let mut b = acquire(pool, n, 0.0, 0);
                for j in lo..hi {
                    let (cost, m) = indexed_count_at(self.arena, j, meta);
                    let x = (j - lo) as usize;
                    b.val[x] = m as f64;
                    b.cost[x] = cost;
                }
                b
            }
            PlanExpr::Arith(op, x, y) => {
                let mut a = self.col_expr(x, lo, hi, pool, ok);
                let b = self.col_expr(y, lo, hi, pool, ok);
                let mut fin = true;
                for (i, (va, ca)) in a.val.iter_mut().zip(&mut a.cost).enumerate() {
                    let v = arith(*op, *va, b.val[i]);
                    fin &= v.is_finite();
                    *va = v;
                    *ca = ca.saturating_add(1).saturating_add(b.cost[i]);
                }
                *ok &= fin;
                pool.push(b);
                a
            }
            PlanExpr::Neg(x) => {
                let mut a = self.col_expr(x, lo, hi, pool, ok);
                let mut fin = true;
                for (v, c) in a.val.iter_mut().zip(&mut a.cost) {
                    *v = -*v;
                    fin &= v.is_finite();
                    *c = c.saturating_add(1);
                }
                *ok &= fin;
                a
            }
            PlanExpr::LeafAgg {
                kind: kind @ (AggKind::Sum | AggKind::Avg),
                children_base: true,
                body: LeafArg::Attr(name),
            } => self.col_leaf_attr_sum(*kind, *name, lo, hi, pool, ok),
            PlanExpr::LeafAgg {
                kind,
                children_base: true,
                body,
            } => {
                let mut out = acquire(pool, n, 0.0, 0);
                let mut fin = true;
                for j in lo..hi {
                    let mut acc = Acc::new(*kind);
                    let mut cost = 1u64;
                    let end = self.arena.subtree_end(j);
                    let mut k = j + 1;
                    while k < end {
                        let (c, v) = self.leaf_arg_at(k, *body);
                        fin &= v.is_finite();
                        cost += 1 + c;
                        acc.push(v);
                        k = self.arena.subtree_end(k);
                    }
                    let v = acc.finish();
                    fin &= v.is_finite();
                    let x = (j - lo) as usize;
                    out.val[x] = v;
                    out.cost[x] = cost;
                }
                *ok &= fin;
                out
            }
            // A `//*` leaf level is one flat loop per node: the scalar
            // evaluator already charges it exactly (in closed form where
            // it can), and any error clears `ok`.
            PlanExpr::LeafAgg {
                kind,
                children_base: false,
                body,
            } => {
                let mut out = acquire(pool, n, 0.0, 0);
                for j in lo..hi {
                    let x = (j - lo) as usize;
                    match self.leaf_agg(j, *kind, false, *body, &mut out.cost[x]) {
                        Ok(v) => out.val[x] = v,
                        Err(_) => {
                            *ok = false;
                            break;
                        }
                    }
                }
                out
            }
            PlanExpr::Agg(inner) => {
                let level = self.col_level(inner, lo, hi, pool, ok);
                let mut out = acquire(pool, n, 0.0, 0);
                if *ok {
                    let mut fin = true;
                    for j in lo..hi {
                        let (v, c) = self.col_fold(j, inner, &level, lo);
                        let x = (j - lo) as usize;
                        fin &= v.is_finite();
                        out.val[x] = v;
                        out.cost[x] = c.saturating_add(1);
                    }
                    *ok &= fin;
                }
                level.release(pool);
                out
            }
        }
    }

    /// Sparse column for `sum`/`avg` over a children-base attribute leaf.
    /// Missing attributes contribute `+0.0`, which is an exact identity on
    /// the running sum (a sum of non-`-0.0` addends is never `-0.0`), so
    /// only the attribute-carrying children — found through the postings
    /// list — are scattered to their parents. The step cost per element is
    /// closed-form: one aggregate entry plus `for_each` + leaf for each
    /// child.
    fn col_leaf_attr_sum(
        &self,
        kind: AggKind,
        name: Symbol,
        lo: u32,
        hi: u32,
        pool: &mut Vec<ColBuf>,
        ok: &mut bool,
    ) -> ColBuf {
        let n = (hi - lo) as usize;
        let mut out = acquire(pool, n, 0.0, 1);
        for i in lo..hi {
            out.cost[(i - lo) as usize] = 1 + 2 * u64::from(self.arena.child_count(i));
        }
        let mut fin = true;
        for &j in self.arena.attr_nodes_in(name, lo, hi) {
            let p = self.arena.parent(j);
            if p < lo {
                continue;
            }
            let v = self.attr_num(j, name);
            fin &= v.is_finite();
            out.val[(p - lo) as usize] += v;
        }
        for (idx, v) in out.val.iter_mut().enumerate() {
            let c = self.arena.child_count(lo + idx as u32);
            if c == 0 {
                *v = 0.0;
            } else if matches!(kind, AggKind::Avg) {
                *v /= f64::from(c);
            }
            fin &= v.is_finite();
        }
        *ok &= fin;
        out
    }

    /// Evaluates predicate `e` for every node in `lo..hi` at once: the
    /// verdict column (`1.0` / `0.0`) and the exact per-node cost column,
    /// with `&&` / `||` charging their right operand only where the
    /// interpreter's short-circuit evaluates it and a child probe charging
    /// its inner predicate only where the child exists.
    fn col_bool(
        &self,
        e: &PlanBool,
        lo: u32,
        hi: u32,
        pool: &mut Vec<ColBuf>,
        ok: &mut bool,
    ) -> ColBuf {
        let n = (hi - lo) as usize;
        let verdict = |b: bool| f64::from(u8::from(b));
        match e {
            PlanBool::Atom(a) => {
                let mut b = acquire(pool, n, 0.0, 1);
                for j in lo..hi {
                    b.val[(j - lo) as usize] = verdict(pure_atom_matches(self.arena, j, a));
                }
                b
            }
            PlanBool::Cmp(op, x, y) => {
                let mut a = self.col_expr(x, lo, hi, pool, ok);
                let b = self.col_expr(y, lo, hi, pool, ok);
                for (i, (va, ca)) in a.val.iter_mut().zip(&mut a.cost).enumerate() {
                    *va = verdict(op.apply(*va, b.val[i]));
                    *ca = ca.saturating_add(1).saturating_add(b.cost[i]);
                }
                pool.push(b);
                a
            }
            PlanBool::LeafCmp(op, x, y) => {
                let mut b = acquire(pool, n, 0.0, 0);
                let mut fin = true;
                for j in lo..hi {
                    let (cx, vx) = self.leaf_arg_at(j, *x);
                    let (cy, vy) = self.leaf_arg_at(j, *y);
                    fin &= vx.is_finite() && vy.is_finite();
                    let i = (j - lo) as usize;
                    b.val[i] = verdict(op.apply(vx, vy));
                    b.cost[i] = 1 + cx + cy;
                }
                *ok &= fin;
                b
            }
            PlanBool::Not(x) => {
                let mut a = self.col_bool(x, lo, hi, pool, ok);
                for (v, c) in a.val.iter_mut().zip(&mut a.cost) {
                    *v = 1.0 - *v;
                    *c = c.saturating_add(1);
                }
                a
            }
            PlanBool::And(x, y) | PlanBool::Or(x, y) => {
                // The right operand runs where the left one does not
                // decide: true for `&&`, false for `||`.
                let goes_on = verdict(matches!(e, PlanBool::And(..)));
                let mut a = self.col_bool(x, lo, hi, pool, ok);
                let b = self.col_bool(y, lo, hi, pool, ok);
                for (i, (va, ca)) in a.val.iter_mut().zip(&mut a.cost).enumerate() {
                    *ca = ca.saturating_add(1);
                    if *va == goes_on {
                        *ca = ca.saturating_add(b.cost[i]);
                        *va = b.val[i];
                    }
                }
                pool.push(b);
                a
            }
            PlanBool::Child(idx, inner) => {
                let c = self.col_bool(inner, lo, hi, pool, ok);
                let mut b = acquire(pool, n, 0.0, 1);
                for j in lo..hi {
                    // A child of a node in the range lies in the range.
                    if let Some(child) = self.arena.nth_child(j, *idx as usize) {
                        let (i, x) = ((j - lo) as usize, (child - lo) as usize);
                        b.val[i] = c.val[x];
                        b.cost[i] = c.cost[x].saturating_add(1);
                    }
                }
                pool.push(c);
                b
            }
        }
    }
}

/// Minimum element count for the columnar aggregate sweep; below this the
/// scalar loop's smaller constant factor wins.
const COLUMN_MIN: u32 = 8;

/// One reusable column pair: per-element body value and the exact
/// interpreter step cost of producing it.
#[derive(Debug, Default)]
struct ColBuf {
    val: Vec<f64>,
    cost: Vec<u64>,
}

/// The columns of one aggregate level: its filter gates in evaluation
/// order and its body (`None` for `count`).
struct ColLevel {
    gates: Vec<ColBuf>,
    body: Option<ColBuf>,
}

impl ColLevel {
    /// Element `x` of the level: whether all its gates hold, and what it
    /// costs — its `for_each` step, its gates up to the first that fails
    /// and, when all hold, its body.
    #[inline]
    fn element(&self, x: usize) -> (bool, u64) {
        let mut cost = 1u64;
        for g in &self.gates {
            cost = cost.saturating_add(g.cost[x]);
            if g.val[x] == 0.0 {
                return (false, cost);
            }
        }
        if let Some(b) = &self.body {
            cost = cost.saturating_add(b.cost[x]);
        }
        (true, cost)
    }

    fn release(self, pool: &mut Vec<ColBuf>) {
        pool.extend(self.gates);
        pool.extend(self.body);
    }
}

thread_local! {
    /// Reused column buffers for [`PlanEval::column_agg`] (one columnar
    /// evaluation is active at a time; `col_expr` never re-enters it).
    static COL_POOL: std::cell::RefCell<Vec<ColBuf>> =
        const { std::cell::RefCell::new(Vec::new()) };
}

/// Takes a buffer from the pool sized to `n` with the given initial value
/// and step cost.
fn acquire(pool: &mut Vec<ColBuf>, n: usize, v0: f64, c0: u64) -> ColBuf {
    let mut b = pool.pop().unwrap_or_default();
    b.val.clear();
    b.val.resize(n, v0);
    b.cost.clear();
    b.cost.resize(n, c0);
    b
}

/// The shape rule for [`PlanEval::column_agg`]. The sweep computes every
/// column at every node of the range, so it pays off where the scalar
/// loop would do that work at (nearly) every element anyway:
///
/// - a predicate-free level — its body runs at every element;
/// - a level whose *first* filter — the only one every element runs —
///   reaches a nested non-leaf aggregate level outside any short-circuit;
/// - a level behind a pure first filter whose body holds a nested `//*`
///   level over further aggregates: the scalar loop repeats that whole
///   nest for every element that passes, so one passing element near the
///   root already costs about a sweep.
///
/// Behind a selective filter or a short-circuit the scalar loop evaluates
/// any other nested work at a few elements only, and columns would waste
/// it on all the others.
fn sweeps_well(plan: &PlanAgg) -> bool {
    /// Whether `e` evaluates a nested non-leaf level unconditionally; with
    /// `deep`, only a `//*` level counts, and only over further aggregates.
    fn expr(e: &PlanExpr, deep: bool) -> bool {
        match e {
            PlanExpr::Agg(inner) => {
                !deep
                    || (!inner.children_base
                        && inner.preds.is_empty()
                        && inner.body.as_ref().is_some_and(aggregates))
            }
            PlanExpr::Arith(_, a, b) => expr(a, deep) || expr(b, deep),
            PlanExpr::Neg(a) => expr(a, deep),
            PlanExpr::Const(_) | PlanExpr::Attr(_) | PlanExpr::Count(_) => false,
            PlanExpr::LeafAgg { .. } => false,
        }
    }
    fn aggregates(e: &PlanExpr) -> bool {
        match e {
            PlanExpr::Agg(_) | PlanExpr::LeafAgg { .. } => true,
            PlanExpr::Arith(_, a, b) => aggregates(a) || aggregates(b),
            PlanExpr::Neg(a) => aggregates(a),
            PlanExpr::Const(_) | PlanExpr::Attr(_) | PlanExpr::Count(_) => false,
        }
    }
    // Only the left operand of `&&` / `||` runs at every element.
    fn boolean(b: &PlanBool) -> bool {
        match b {
            PlanBool::Cmp(_, x, y) => expr(x, false) || expr(y, false),
            PlanBool::Not(x) | PlanBool::And(x, _) | PlanBool::Or(x, _) => boolean(x),
            PlanBool::Atom(_) | PlanBool::LeafCmp(..) | PlanBool::Child(..) => false,
        }
    }
    match plan.preds.first() {
        None => true,
        Some(PlanPred::Dyn(b)) => boolean(b),
        Some(PlanPred::Pure(_)) => plan.body.as_ref().is_some_and(|b| expr(b, true)),
    }
}

/// The protected arithmetic of the interpreter's `Arith` node.
#[inline]
fn arith(op: ArithOp, a: f64, b: f64) -> f64 {
    match op {
        ArithOp::Add => a + b,
        ArithOp::Sub => a - b,
        ArithOp::Mul => a * b,
        ArithOp::Div => {
            if b.abs() < 1e-12 {
                0.0
            } else {
                a / b
            }
        }
    }
}

/// One aggregate's running state: the interpreter's fold for each kind.
#[derive(Debug, Clone, Copy)]
struct Acc {
    kind: AggKind,
    acc: f64,
    n: u64,
    started: bool,
}

impl Acc {
    fn new(kind: AggKind) -> Acc {
        Acc {
            kind,
            acc: 0.0,
            n: 0,
            started: false,
        }
    }

    /// Folds one element's body value.
    #[inline]
    fn push(&mut self, v: f64) {
        match self.kind {
            AggKind::Count => self.n += 1,
            AggKind::Sum => self.acc += v,
            AggKind::Max => {
                self.acc = if self.started { self.acc.max(v) } else { v };
                self.started = true;
            }
            AggKind::Min => {
                self.acc = if self.started { self.acc.min(v) } else { v };
                self.started = true;
            }
            AggKind::Avg => {
                self.acc += v;
                self.n += 1;
            }
        }
    }

    /// Counts one element of a bodiless `count`.
    #[inline]
    fn count(&mut self) {
        self.n += 1;
    }

    /// The aggregate of `vals` in order: [`Acc::push`] each, then
    /// [`Acc::finish`], with the kind dispatched once instead of per value.
    fn fold(kind: AggKind, vals: &[f64]) -> f64 {
        let mut acc = Acc::new(kind);
        match kind {
            AggKind::Count => acc.n = vals.len() as u64,
            AggKind::Sum | AggKind::Avg => {
                for &v in vals {
                    acc.acc += v;
                }
                acc.n = vals.len() as u64;
            }
            AggKind::Max | AggKind::Min => {
                let pick = if matches!(kind, AggKind::Max) {
                    f64::max
                } else {
                    f64::min
                };
                if let Some(v) = vals.iter().copied().reduce(pick) {
                    acc.acc = v;
                    acc.started = true;
                }
            }
        }
        acc.finish()
    }

    /// The aggregate value at exit: empty aggregates yield `0.0`.
    fn finish(self) -> f64 {
        match self.kind {
            AggKind::Count => self.n as f64,
            AggKind::Sum => self.acc,
            AggKind::Max | AggKind::Min => {
                if self.started {
                    self.acc
                } else {
                    0.0
                }
            }
            AggKind::Avg => {
                if self.n == 0 {
                    0.0
                } else {
                    self.acc / self.n as f64
                }
            }
        }
    }
}

/// Evaluates one pure predicate at arena node `j`, accumulating the exact
/// interpreter step cost. Shared by the fused-aggregate loop and the
/// loop-nest plan evaluator.
#[inline]
fn pure_pred_matches(arena: &IrArena, j: u32, p: &PurePred, steps: &mut u64) -> bool {
    match p {
        PurePred::Atom {
            atom,
            negated,
            cost,
        } => {
            *steps += cost;
            pure_atom_matches(arena, j, atom) != *negated
        }
        PurePred::Tree { expr, kinds } => match kinds {
            Some(table) => {
                let k = arena.kind(j);
                let (matched, cost) = table
                    .entries
                    .iter()
                    .find(|&&(s, ..)| s == k)
                    .map_or(table.default, |&(_, m, c)| (m, c));
                *steps += cost;
                matched
            }
            None => eval_pure(arena, j, expr, steps),
        },
    }
}

/// The `@a == V` test over arena node `j` (enum by symbol; bool via the
/// compile-time [`BoolView`]; numeric or missing attributes never match).
fn attr_eq(arena: &IrArena, j: u32, name: Symbol, target: Symbol, view: BoolView) -> bool {
    match arena.attr(j, name) {
        Some(AttrValue::Enum(v)) => v == target,
        Some(AttrValue::Bool(b)) => match view {
            BoolView::True => b,
            BoolView::False => !b,
            BoolView::NotBool => false,
        },
        _ => false,
    }
}

/// Evaluates a pure predicate tree at arena node `j`, accumulating into
/// `steps` exactly the unit charges the interpreter would make: one per
/// predicate node entered, with `&&`/`||` short-circuiting and a missing
/// child probe skipping its inner predicate.
fn eval_pure(arena: &IrArena, j: u32, e: &PureExpr, steps: &mut u64) -> bool {
    *steps += 1;
    match e {
        PureExpr::Atom(a) => pure_atom_matches(arena, j, a),
        PureExpr::Not(inner) => !eval_pure(arena, j, inner, steps),
        PureExpr::And(a, b) => eval_pure(arena, j, a, steps) && eval_pure(arena, j, b, steps),
        PureExpr::Or(a, b) => eval_pure(arena, j, a, steps) || eval_pure(arena, j, b, steps),
        PureExpr::Child(idx, inner) => match arena.nth_child(j, *idx as usize) {
            Some(child) => eval_pure(arena, child, inner, steps),
            None => false,
        },
    }
}

fn pure_atom_matches(arena: &IrArena, j: u32, atom: &PureAtom) -> bool {
    match *atom {
        PureAtom::IsType(k) => arena.kind(j) == k,
        PureAtom::HasAttr(a) => arena.attr(j, a).is_some(),
        PureAtom::AttrEq(a, v, view) => attr_eq(arena, j, a, v, view),
        PureAtom::AttrCmp(a, op, k) => {
            matches!(arena.attr(j, a).and_then(|x| x.as_num()), Some(v) if op.apply(v, k))
        }
    }
}

impl Program {
    /// Executes the compiled feature over one arena with the given step
    /// budget, without a CSE cache.
    ///
    /// # Errors
    ///
    /// Same conditions as [`super::Evaluator::eval`].
    pub fn eval(&self, arena: &IrArena, budget: u64) -> Result<f64, EvalError> {
        Vm::run(self, arena, 0, budget, None)
    }
}

/// Which engine an [`EvalPool`] (and the search built on it) uses.
/// Serializable so a process-level island worker can be told which engine
/// to rebuild (both engines are bit-identical, so this is a speed knob,
/// not a correctness one).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, serde::Serialize, serde::Deserialize)]
pub enum EvalEngine {
    /// The compiled bytecode VM over arena-flattened loops (default).
    #[default]
    Compiled,
    /// The recursive reference interpreter in [`super::eval`].
    Interpreter,
}

/// Default capacity bound for the compiled-program LRU cache.
pub const PROGRAM_CACHE_CAP: usize = 1 << 16;

/// A batch evaluation engine over a fixed set of loops.
///
/// Construction flattens every loop into an [`IrArena`] once; evaluation
/// compiles each distinct feature once (memoised by structural fingerprint)
/// and shares CSE results across features, loops and threads. With
/// [`EvalEngine::Interpreter`] the pool delegates to the reference
/// interpreter instead — byte-identical results, just slower; the GP search
/// exposes this as a runtime choice precisely so the equivalence is
/// testable end-to-end.
pub struct EvalPool<'a> {
    trees: Vec<&'a IrNode>,
    arenas: Vec<Arc<IrArena>>,
    engine: EvalEngine,
    cache: EvalCache,
    /// Compiled programs, bounded: a long-lived pool (the `fegen serve`
    /// daemon's warm path) must not grow without limit under a stream of
    /// distinct features. Strict LRU replaces the old epoch flush, which
    /// dumped all 65k entries at once and leaked unboundedly below the
    /// flush threshold in any long-lived process. Behind an `Arc` so the
    /// serve daemon's per-batch pools can share one warm cache
    /// ([`EvalPool::adopt_program_cache`]); programs are keyed by
    /// structural fingerprint only, never by loop, so sharing across
    /// batches is always sound (unlike the CSE result cache, which is
    /// loop-indexed and stays per-pool).
    programs: Arc<Mutex<LruCache<Fingerprint, Arc<Program>>>>,
    cancel: Option<CancelToken>,
    vm_evals: AtomicU64,
    interp_evals: AtomicU64,
    fast_evals: AtomicU64,
    plan_evals: AtomicU64,
    frame_evals: AtomicU64,
    program_hits: AtomicU64,
    program_misses: AtomicU64,
}

/// A point-in-time snapshot of an [`EvalPool`]'s cumulative activity
/// counters (observability only; counting never affects evaluation).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Per-loop evaluations dispatched to the bytecode VM.
    pub vm_evals: u64,
    /// Per-loop evaluations dispatched to the reference interpreter.
    pub interp_evals: u64,
    /// VM evaluations of straight-line fast-path programs (leaves, indexed
    /// counts, fused aggregates — no plan or frame aggregates).
    pub fast_evals: u64,
    /// VM evaluations of programs containing loop-nest plans (and no frame
    /// aggregates).
    pub plan_evals: u64,
    /// VM evaluations of programs containing frame-path fallback
    /// aggregates (per-element bytecode dispatch).
    pub frame_evals: u64,
    /// Compiled-program cache hits.
    pub program_hits: u64,
    /// Compiled-program cache misses (compilations).
    pub program_misses: u64,
    /// Compiled programs evicted by the bounded LRU cache.
    pub program_evictions: u64,
    /// CSE result-cache hits.
    pub result_hits: u64,
    /// CSE result-cache misses.
    pub result_misses: u64,
    /// Filled CSE cache cells at snapshot time.
    pub cache_entries: u64,
    /// Aggregates the columnar sweep decided (a value or `BudgetExceeded`).
    pub column_commits: u64,
    /// Columnar sweeps abandoned to the scalar loop (a non-finite value).
    pub column_fallbacks: u64,
}

impl<'a> EvalPool<'a> {
    /// Builds a pool over `trees` using the given engine.
    pub fn new(trees: impl IntoIterator<Item = &'a IrNode>, engine: EvalEngine) -> EvalPool<'a> {
        let trees: Vec<&IrNode> = trees.into_iter().collect();
        let arenas = match engine {
            EvalEngine::Compiled => trees
                .iter()
                .map(|t| Arc::new(IrArena::from_tree(t)))
                .collect(),
            EvalEngine::Interpreter => Vec::new(),
        };
        EvalPool::from_parts(trees, arenas, engine)
    }

    /// Builds a compiled-engine pool directly over pre-flattened arenas —
    /// the `fegen serve` warm path, where arenas come out of the daemon's
    /// digest-keyed LRU cache and a batch must never re-flatten a loop it
    /// has already seen.
    pub fn from_arenas(arenas: Vec<Arc<IrArena>>) -> EvalPool<'static> {
        EvalPool::from_parts(Vec::new(), arenas, EvalEngine::Compiled)
    }

    fn from_parts(
        trees: Vec<&'a IrNode>,
        arenas: Vec<Arc<IrArena>>,
        engine: EvalEngine,
    ) -> EvalPool<'a> {
        let loops = arenas.len();
        EvalPool {
            trees,
            arenas,
            engine,
            cache: EvalCache::new(loops),
            programs: Arc::new(Mutex::new(LruCache::new(PROGRAM_CACHE_CAP))),
            cancel: None,
            vm_evals: AtomicU64::new(0),
            interp_evals: AtomicU64::new(0),
            fast_evals: AtomicU64::new(0),
            plan_evals: AtomicU64::new(0),
            frame_evals: AtomicU64::new(0),
            program_hits: AtomicU64::new(0),
            program_misses: AtomicU64::new(0),
        }
    }

    /// Rebounds the compiled-program LRU to `cap` entries (clamped to at
    /// least 1). Existing entries are discarded — callers set this before
    /// the first evaluation. Capacity never changes results, only how
    /// often a program is recompiled; the differential suite pins this.
    pub fn set_program_cache_capacity(&mut self, cap: usize) {
        *self.programs.lock() = LruCache::new(cap);
    }

    /// Shares `donor`'s compiled-program cache with this pool. The serve
    /// daemon builds a short-lived pool per batch over LRU-cached arenas;
    /// adopting the long-lived pool's cache keeps programs warm across
    /// batches. Sound because programs are keyed by structural fingerprint
    /// alone — the loop-indexed CSE cache is deliberately *not* shared.
    pub fn adopt_program_cache(&mut self, donor: &EvalPool<'_>) {
        self.programs = Arc::clone(&donor.programs);
    }

    /// The engine this pool evaluates with.
    pub fn engine(&self) -> EvalEngine {
        self.engine
    }

    /// Number of loops in the pool.
    pub fn len(&self) -> usize {
        match self.engine {
            EvalEngine::Interpreter => self.trees.len(),
            EvalEngine::Compiled => self.arenas.len(),
        }
    }

    /// True when the pool holds no loops.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Returns the compiled program for `expr`, compiling at most once per
    /// distinct structure.
    fn program(&self, expr: &FeatureExpr) -> Arc<Program> {
        let key = expr.fingerprint();
        if let Some(p) = self.programs.lock().get(&key) {
            self.program_hits.fetch_add(1, Ordering::Relaxed);
            return Arc::clone(p);
        }
        // Compile outside the lock: a slow compile must not stall other
        // threads' cache hits. A racing thread may compile the same
        // program; compilation is pure, so adopting either copy is fine.
        self.program_misses.fetch_add(1, Ordering::Relaxed);
        let compiled = Arc::new(Program::compile(expr));
        let mut programs = self.programs.lock();
        if let Some(p) = programs.get(&key) {
            return Arc::clone(p);
        }
        programs.insert(key, Arc::clone(&compiled));
        compiled
    }

    /// Evaluates `expr` on loop `idx` with the given budget.
    ///
    /// # Errors
    ///
    /// Same conditions as [`super::Evaluator::eval`]; identical outcomes
    /// for both engines.
    pub fn eval(&self, expr: &FeatureExpr, idx: usize, budget: u64) -> Result<f64, EvalError> {
        match self.engine {
            EvalEngine::Interpreter => {
                self.interp_evals.fetch_add(1, Ordering::Relaxed);
                expr.eval_with_budget(self.trees[idx], budget)
            }
            EvalEngine::Compiled => {
                let prog = self.program(expr);
                self.note_vm_evals(&prog, 1);
                Vm::run(
                    &prog,
                    self.arenas[idx].as_ref(),
                    idx as u32,
                    budget,
                    Some(&self.cache),
                )
            }
        }
    }

    /// Batches the VM-dispatch counters: `n` evaluations of `prog`,
    /// attributed to its execution tier (observability only).
    fn note_vm_evals(&self, prog: &Program, n: u64) {
        self.vm_evals.fetch_add(n, Ordering::Relaxed);
        let tier = match prog.path() {
            ProgramPath::Fast => &self.fast_evals,
            ProgramPath::LoopNest => &self.plan_evals,
            ProgramPath::Frame => &self.frame_evals,
        };
        tier.fetch_add(n, Ordering::Relaxed);
    }

    /// Installs a cancellation token consulted by
    /// [`EvalPool::column_cancellable`]: a coordinator-initiated shutdown
    /// then interrupts an in-flight column between loops instead of
    /// waiting it out. Plain [`EvalPool::column`] is deliberately *not*
    /// affected — resume-time column recomputation and accept-path
    /// re-derivation must never be perturbed by cancellation timing.
    pub fn set_cancel(&mut self, cancel: CancelToken) {
        self.cancel = Some(cancel);
    }

    /// Evaluates `expr` over every loop, applying the paper's discard rule:
    /// `None` as soon as any loop fails (budget exhaustion or non-finite
    /// value), otherwise the per-loop feature column.
    pub fn column(&self, expr: &FeatureExpr, budget: u64) -> Option<Vec<f64>> {
        self.column_inner(expr, budget, false)
    }

    /// [`EvalPool::column`], but bails out (returning `None`) between
    /// loops once the installed cancellation token flips. Only safe where
    /// a spurious `None` is discarded wholesale — the GP fitness path
    /// gates commits on the token, so a cancelled column can never be
    /// memoised as a genuine failure.
    pub fn column_cancellable(&self, expr: &FeatureExpr, budget: u64) -> Option<Vec<f64>> {
        self.column_inner(expr, budget, true)
    }

    fn column_inner(&self, expr: &FeatureExpr, budget: u64, cancellable: bool) -> Option<Vec<f64>> {
        let cancelled =
            || cancellable && self.cancel.as_ref().is_some_and(CancelToken::is_cancelled);
        match self.engine {
            EvalEngine::Interpreter => {
                self.interp_evals
                    .fetch_add(self.trees.len() as u64, Ordering::Relaxed);
                let mut out = Vec::with_capacity(self.trees.len());
                for t in &self.trees {
                    if cancelled() {
                        return None;
                    }
                    out.push(expr.eval_with_budget(t, budget).ok()?);
                }
                Some(out)
            }
            EvalEngine::Compiled => {
                // Columnar sweep: one program fetch, one scratch allocation
                // set, and one counter flush for the whole column; the
                // cancellation token is still consulted at every cell
                // boundary so shutdown latency is unchanged.
                let prog = self.program(expr);
                let mut scratch = VmScratch::default();
                let mut out = Vec::with_capacity(self.arenas.len());
                for (i, arena) in self.arenas.iter().enumerate() {
                    if cancelled() {
                        self.note_vm_evals(&prog, out.len() as u64);
                        return None;
                    }
                    match Vm::run_scratch(
                        &prog,
                        arena.as_ref(),
                        i as u32,
                        budget,
                        Some(&self.cache),
                        &mut scratch,
                    ) {
                        Ok(v) => out.push(v),
                        Err(_) => {
                            self.note_vm_evals(&prog, out.len() as u64 + 1);
                            return None;
                        }
                    }
                }
                self.note_vm_evals(&prog, out.len() as u64);
                Some(out)
            }
        }
    }

    /// Number of filled CSE cache cells (diagnostics).
    pub fn cache_entries(&self) -> usize {
        self.cache.entries()
    }

    /// Snapshot of the pool's cumulative activity counters.
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            vm_evals: self.vm_evals.load(Ordering::Relaxed),
            interp_evals: self.interp_evals.load(Ordering::Relaxed),
            fast_evals: self.fast_evals.load(Ordering::Relaxed),
            plan_evals: self.plan_evals.load(Ordering::Relaxed),
            frame_evals: self.frame_evals.load(Ordering::Relaxed),
            program_hits: self.program_hits.load(Ordering::Relaxed),
            program_misses: self.program_misses.load(Ordering::Relaxed),
            program_evictions: self.programs.lock().evictions(),
            result_hits: self.cache.hits.load(Ordering::Relaxed),
            result_misses: self.cache.misses.load(Ordering::Relaxed),
            cache_entries: self.cache_entries() as u64,
            column_commits: self.cache.sweep.commits.load(Ordering::Relaxed),
            column_fallbacks: self.cache.sweep.fallbacks.load(Ordering::Relaxed),
        }
    }

    /// Publishes the pool's counters as `eval.*` telemetry gauges (the
    /// caller decides when to [`Telemetry::emit_metrics`]).
    pub fn record_telemetry(&self, telemetry: &Telemetry) {
        if !telemetry.is_enabled() {
            return;
        }
        let s = self.stats();
        telemetry.gauge_set("eval.vm_evals", s.vm_evals as f64);
        telemetry.gauge_set("eval.interp_evals", s.interp_evals as f64);
        telemetry.gauge_set("eval.path_fast", s.fast_evals as f64);
        telemetry.gauge_set("eval.path_plan", s.plan_evals as f64);
        telemetry.gauge_set("eval.path_frame", s.frame_evals as f64);
        telemetry.gauge_set("eval.program_hits", s.program_hits as f64);
        telemetry.gauge_set("eval.program_misses", s.program_misses as f64);
        telemetry.gauge_set("eval.program_evictions", s.program_evictions as f64);
        telemetry.gauge_set("eval.result_hits", s.result_hits as f64);
        telemetry.gauge_set("eval.result_misses", s.result_misses as f64);
        telemetry.gauge_set("eval.cache_entries", s.cache_entries as f64);
        telemetry.gauge_set("eval.column_commits", s.column_commits as f64);
        telemetry.gauge_set("eval.column_fallbacks", s.column_fallbacks as f64);
    }
}

impl std::fmt::Debug for EvalPool<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EvalPool")
            .field("loops", &self.trees.len())
            .field("engine", &self.engine)
            .field("cache_entries", &self.cache_entries())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::IrNode;
    use crate::lang::eval::DEFAULT_BUDGET;
    use crate::lang::parse::parse_feature;

    fn sample_ir() -> IrNode {
        IrNode::build("loop", |l| {
            l.attr_num("num-iter", 49.0);
            l.child("basic-block", |b| {
                b.attr_num("loop-depth", 1.0);
                b.attr_bool("may-be-hot", true);
                b.child("insn", |i| {
                    i.attr_enum("mode", "SI");
                    i.child("set", |s| {
                        s.child("reg", |r| {
                            r.attr_enum("mode", "SI");
                        });
                        s.child("plus", |p| {
                            p.child("reg", |r| {
                                r.attr_enum("mode", "SI");
                            });
                            p.child("const_int", |c| {
                                c.attr_num("value", 4.0);
                            });
                        });
                    });
                });
                b.child("jump_insn", |_| {});
            });
        })
    }

    /// Every expression the interpreter's test battery exercises must agree
    /// between VM and interpreter — value, error and remaining-budget
    /// decisions alike.
    const BATTERY: &[&str] = &[
        "get-attr(@num-iter)",
        "get-attr(@no-such-attr)",
        "count(/*)",
        "count(//*)",
        "count(filter(//*, is-type(reg)))",
        "count(filter(//*, is-type(insn)))",
        "count(filter(//*, @mode==SI))",
        "count(filter(//*, @may-be-hot==true))",
        "count(filter(//*, @loop-depth==1))",
        "count(filter(//*, has-attr(@mode)))",
        "count(filter(//*, !has-attr(@mode)))",
        "count(filter(//*, is-type(reg) || is-type(const_int)))",
        "count(filter(//*, is-type(reg) && @mode==SI))",
        "count(filter(//*, is-type(insn) && /[0][is-type(set) && /[0][is-type(reg)]]))",
        "count(filter(//*, /[7][is-type(reg)]))",
        "sum(filter(//*, is-type(const_int)), get-attr(@value))",
        "max(//*, count(/*))",
        "min(//*, count(/*))",
        "avg(filter(//*, is-type(basic-block)), count(/*))",
        "sum(filter(//*, is-type(nonexistent-kind)), 1)",
        "max(filter(//*, is-type(nonexistent-kind)), 1)",
        "2 + 3 * 4",
        "count(//*) / 2",
        "5 / 0",
        "-count(/*)",
        "count(filter(//*, count(/*) > 1))",
        "count(filter(//*, 0.0 > count(/*)))",
        "sum(//*, sum(//*, count(//*)))",
        "avg(//*, get-attr(@value) * 2 - 1)",
        "min(filter(/*, has-attr(@loop-depth)), get-attr(@loop-depth))",
        // Loop-nest plan shapes: postings-driven outer loops, dynamic
        // predicates, nested aggregates in bodies and comparisons.
        "sum(filter(//*, is-type(reg)), count(/*) + 1)",
        "sum(filter(//*, has-attr(@mode)), get-attr(@value) + count(//*))",
        "avg(filter(//*, is-type(insn) && count(/*) > 0), sum(/*, count(/*)))",
        "max(filter(/*, count(/*) > 0), min(//*, get-attr(@value) * 2))",
        "count(filter(filter(//*, is-type(set)), count(//*) > 1))",
        "sum(filter(//*, is-type(reg) || /[0][count(/*) > 0]), 1)",
        "min(filter(//*, !(count(/*) > 2)), max(/*, get-attr(@value)) - 1)",
    ];

    #[test]
    fn vm_matches_interpreter_on_battery() {
        let ir = sample_ir();
        let arena = IrArena::from_tree(&ir);
        for src in BATTERY {
            let f = parse_feature(src).unwrap();
            let prog = Program::compile(&f);
            let want = f.eval_with_budget(&ir, DEFAULT_BUDGET);
            let got = prog.eval(&arena, DEFAULT_BUDGET);
            assert_eq!(got, want, "mismatch on {src}");
        }
    }

    #[test]
    fn vm_matches_interpreter_at_every_budget_boundary() {
        let ir = sample_ir();
        let arena = IrArena::from_tree(&ir);
        for src in BATTERY {
            let f = parse_feature(src).unwrap();
            let prog = Program::compile(&f);
            // Find the exact step cost with a generous budget, then probe
            // every interesting boundary.
            let spent = {
                let mut ev = crate::lang::Evaluator::new(DEFAULT_BUDGET);
                let _ = ev.eval(&f, &ir);
                DEFAULT_BUDGET - ev.remaining()
            };
            for budget in [0, 1, spent.saturating_sub(1), spent, spent + 1] {
                let want = f.eval_with_budget(&ir, budget);
                let got = prog.eval(&arena, budget);
                assert_eq!(got, want, "mismatch on {src} at budget {budget}");
            }
        }
    }

    #[test]
    fn pool_column_matches_interpreter_and_caches() {
        let irs: Vec<IrNode> = (0..4)
            .map(|i| {
                let mut ir = sample_ir();
                ir.attr_num("num-iter", 10.0 + i as f64);
                ir
            })
            .collect();
        let pool = EvalPool::new(irs.iter(), EvalEngine::Compiled);
        let oracle = EvalPool::new(irs.iter(), EvalEngine::Interpreter);
        for src in BATTERY {
            let f = parse_feature(src).unwrap();
            assert_eq!(
                pool.column(&f, DEFAULT_BUDGET),
                oracle.column(&f, DEFAULT_BUDGET),
                "column mismatch on {src}"
            );
        }
        // Root aggregates of the battery populated the CSE cache; replaying
        // the battery must hit it and still agree.
        assert!(pool.cache_entries() > 0);
        for src in BATTERY {
            let f = parse_feature(src).unwrap();
            assert_eq!(
                pool.column(&f, DEFAULT_BUDGET),
                oracle.column(&f, DEFAULT_BUDGET),
                "cached column mismatch on {src}"
            );
        }
    }

    #[test]
    fn non_finite_results_are_detected_and_cached() {
        let ir = sample_ir();
        let huge = format!("sum(//*, {0} * {0})", f64::MAX);
        let f = parse_feature(&huge).unwrap();
        let pool = EvalPool::new([&ir], EvalEngine::Compiled);
        assert_eq!(pool.eval(&f, 0, DEFAULT_BUDGET), Err(EvalError::NonFinite));
        // The failing aggregate is cached as NonFinite with its step cost;
        // a replay must agree with the interpreter at tight budgets too.
        for budget in [0, 1, 5, 10, DEFAULT_BUDGET] {
            assert_eq!(
                pool.eval(&f, 0, budget),
                f.eval_with_budget(&ir, budget),
                "budget {budget}"
            );
        }
    }

    #[test]
    fn cache_reuse_preserves_budget_decisions() {
        let ir = sample_ir();
        let f = parse_feature("sum(//*, count(//*))").unwrap();
        let pool = EvalPool::new([&ir], EvalEngine::Compiled);
        // Warm the cache with a generous budget.
        let spent = {
            let mut ev = crate::lang::Evaluator::new(DEFAULT_BUDGET);
            let _ = ev.eval(&f, &ir);
            DEFAULT_BUDGET - ev.remaining()
        };
        assert!(pool.eval(&f, 0, DEFAULT_BUDGET).is_ok());
        // Replays at boundary budgets must match the interpreter exactly:
        // below the recorded cost the cache hit must fail with
        // BudgetExceeded, at or above it must succeed.
        for budget in [0, spent - 1, spent, spent + 1] {
            assert_eq!(
                pool.eval(&f, 0, budget),
                f.eval_with_budget(&ir, budget),
                "budget {budget}"
            );
        }
    }

    /// Exact step cost of `f` on `ir` under the default budget.
    fn interp_steps(f: &FeatureExpr, ir: &IrNode) -> u64 {
        let mut ev = crate::lang::Evaluator::new(DEFAULT_BUDGET);
        let _ = ev.eval(f, ir);
        DEFAULT_BUDGET - ev.remaining()
    }

    /// Distinct single-region features: `sum(//*, count(//*) + k)`.
    fn filler(k: usize) -> FeatureExpr {
        parse_feature(&format!("sum(//*, count(//*) + {k})")).unwrap()
    }

    #[test]
    fn cache_hits_replay_steps_for_ok_and_non_finite_across_a_flush() {
        let ir = sample_ir();
        // 512 columns fill the slot bound.
        let irs = vec![ir.clone(); RESULT_CACHE_CAP / 512];
        let pool = EvalPool::new(irs.iter(), EvalEngine::Compiled);
        let ok = parse_feature("sum(//*, count(//*))").unwrap();
        let non_finite = parse_feature(&format!("sum(//*, {0} * {0})", f64::MAX)).unwrap();
        let replay = |f: &FeatureExpr| {
            let spent = interp_steps(f, &ir);
            // Warm (or re-warm) the cell, then every boundary budget must
            // be decided from the cached step total exactly as the
            // interpreter decides it.
            assert_eq!(
                pool.eval(f, 0, DEFAULT_BUDGET),
                f.eval_with_budget(&ir, DEFAULT_BUDGET)
            );
            let hits = pool.stats().result_hits;
            for budget in [0, 1, spent - 1, spent, spent + 1, DEFAULT_BUDGET] {
                assert_eq!(
                    pool.eval(f, 0, budget),
                    f.eval_with_budget(&ir, budget),
                    "budget {budget}"
                );
            }
            assert!(
                pool.stats().result_hits >= hits + 6,
                "every replay must hit"
            );
        };
        replay(&ok);
        replay(&non_finite);
        assert_eq!(
            pool.eval(&non_finite, 0, DEFAULT_BUDGET),
            Err(EvalError::NonFinite)
        );
        let mut k = 0;
        let mut before = pool.cache_entries();
        loop {
            pool.eval(&filler(k), 0, DEFAULT_BUDGET).unwrap();
            k += 1;
            let now = pool.cache_entries();
            if now < before {
                break;
            }
            before = now;
            assert!(k <= 512, "no flush after {k} columns");
        }
        replay(&ok);
        replay(&non_finite);
    }

    #[test]
    fn cache_entries_count_filled_cells_not_allocated_ones() {
        let irs = vec![sample_ir(); 8];
        let pool = EvalPool::new(irs.iter(), EvalEngine::Compiled);
        let f = parse_feature("sum(//*, count(//*))").unwrap();
        assert!(pool.eval(&f, 3, DEFAULT_BUDGET).is_ok());
        let one = pool.cache_entries();
        assert!(one >= 1, "the root aggregate is a CSE region");
        assert_eq!(pool.cache.allocated(), 8 * one, "one column per region");
        assert!(pool.column(&f, DEFAULT_BUDGET).is_some());
        assert_eq!(pool.cache_entries(), 8 * one);
        assert_eq!(pool.cache_entries(), pool.cache.allocated());
        assert_eq!(pool.stats().cache_entries, 8 * one as u64);
    }

    #[test]
    fn allocated_slots_stay_within_the_cap_for_single_loop_evals() {
        let ir = sample_ir();
        // 255 columns of 4,103 slots fit under the bound, a 256th does not.
        let irs = vec![ir; RESULT_CACHE_CAP / 256 + 7];
        let pool = EvalPool::new(irs.iter(), EvalEngine::Compiled);
        for k in 0..300 {
            pool.eval(&filler(k), k % irs.len(), DEFAULT_BUDGET)
                .unwrap();
            assert!(pool.cache.allocated() <= RESULT_CACHE_CAP, "feature {k}");
            assert!(pool.cache_entries() <= 255);
        }
    }

    #[test]
    fn unencodable_step_totals_are_not_cached() {
        let cache = EvalCache::new(2);
        let key = Fingerprint(7);
        let huge = CacheEntry {
            steps: Slot::NON_FINITE - 1,
            outcome: Err(()),
        };
        cache.insert(key, 0, huge);
        assert_eq!(cache.entries(), 0);
        assert!(cache.get(key, 0).is_none());
        let fits = CacheEntry {
            steps: Slot::NON_FINITE - 2,
            outcome: Err(()),
        };
        cache.insert(key, 1, fits);
        let got = cache.get(key, 1).expect("cached");
        assert_eq!((got.steps, got.outcome), (fits.steps, Err(())));
        assert!(cache.get(key, 0).is_none(), "the other cell stays empty");
    }

    /// `levels` nested `sum(//*, ... + 0)` — beyond the plan depth bound,
    /// so the outer levels stay on the frame path.
    fn deep_src(levels: usize) -> String {
        let mut s = String::from("1");
        for _ in 0..levels {
            s = format!("sum(//*, {s} + 0)");
        }
        s
    }

    #[test]
    fn frame_fallback_and_superinstructions_match_interpreter() {
        let ir = sample_ir();
        let arena = IrArena::from_tree(&ir);
        let deep = deep_src(10);
        let gate_src = format!("sum(filter(//*, is-type(basic-block)), {deep})");
        let accum_src = format!("sum(filter(//*, {deep} > 0), 1)");
        for src in [deep.as_str(), gate_src.as_str(), accum_src.as_str()] {
            let f = parse_feature(src).unwrap();
            let prog = Program::compile(&f);
            assert!(!prog.aggs.is_empty(), "deep nest should keep frame levels");
            for budget in [0, 1, 13, 997, 50_000] {
                let want = f.eval_with_budget(&ir, budget);
                let got = prog.eval(&arena, budget);
                assert_eq!(got, want, "mismatch at budget {budget}");
            }
        }
        // The superinstruction rewrites really fired on the frame levels.
        let gate = Program::compile(&parse_feature(&gate_src).unwrap());
        assert!(gate.ops.iter().any(|op| matches!(op, Op::IsTypeGate(_))));
        let accum = Program::compile(&parse_feature(&accum_src).unwrap());
        assert!(accum.ops.iter().any(|op| matches!(op, Op::ConstAccum(_))));
    }

    #[test]
    fn pool_counts_execution_paths() {
        let ir = sample_ir();
        let pool = EvalPool::new([&ir], EvalEngine::Compiled);
        let fast = parse_feature("count(//*)").unwrap();
        let plan = parse_feature("sum(//*, 1 + get-attr(@value))").unwrap();
        let frame = parse_feature(&deep_src(10)).unwrap();
        assert_eq!(Program::compile(&fast).path(), ProgramPath::Fast);
        assert_eq!(Program::compile(&plan).path(), ProgramPath::LoopNest);
        assert_eq!(Program::compile(&frame).path(), ProgramPath::Frame);
        assert!(pool.column(&fast, DEFAULT_BUDGET).is_some());
        assert!(pool.column(&plan, DEFAULT_BUDGET).is_some());
        // Deep contexts have few descendants, so even the deep nest fits
        // the default budget on this small tree.
        assert!(pool.column(&frame, DEFAULT_BUDGET).is_some());
        let s = pool.stats();
        assert_eq!(s.fast_evals, 1);
        assert_eq!(s.plan_evals, 1);
        assert_eq!(s.frame_evals, 1);
        assert_eq!(s.vm_evals, 3);
    }
}
