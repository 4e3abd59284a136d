//! Drives `postcard_runtime::Runtime` slot by slot from outside, times
//! every interval next to the reference kernel, and checks the outputs.

use crate::hostref::{RefKernel, Timed};
use crate::trace::Tracer;
use crate::workloads::{Inputs, Workload};
use postcard_core::{build_postcard_problem, PostcardConfig, PostcardError};
use postcard_flow::AlapScheduler;
use postcard_lp::LpError;
use postcard_net::{Network, TrafficLedger, TransferRequest};
use postcard_runtime::{
    ArrivalSchedule, AttemptOutcome, ClockKind, Runtime, RuntimeConfig, TierKind,
};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Raw time each pass spends on timed set-ups, and on timed resumes from
/// its end-of-run checkpoint. Every set-up and resume is its own sample,
/// timed next to its own kernel run, and a pass takes `MIN_REPEATS` to
/// `MAX_REPEATS` of each.
const SETUP_MS_PER_PASS: f64 = 150.0;
const RESUME_MS_PER_PASS: f64 = 400.0;
const MIN_REPEATS: usize = 3;
const MAX_REPEATS: usize = 40;
/// At most this many layer replays per traced pass (a stride over slots).
const MAX_REPLAYS: u64 = 100;
/// Slack allowed on a link's capacity by the per-slot capacity check.
const CAPACITY_EPS: f64 = 1e-6;

/// The observable outcome of one pass, or of the exact passes of a run
/// summed: identical in every run of a seed, traced or not.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Outcome {
    /// Files accepted.
    pub accepted: usize,
    /// Files rejected by admission control.
    pub rejected: usize,
    /// Files never decided (queue drops, expiries, degraded-slot losses).
    pub lost: usize,
    /// Files offered.
    pub offered: usize,
    /// Slots run.
    pub slots: usize,
    /// `final_cost_per_slot`, as bits.
    pub bill_bits: u64,
}

impl Outcome {
    /// The final bill per slot (the mean over passes of a sum).
    pub fn bill(&self) -> f64 {
        f64::from_bits(self.bill_bits)
    }

    /// The passes' counts summed, and the mean of their bills.
    pub fn sum(passes: &[Outcome]) -> Outcome {
        let total = |f: fn(&Outcome) -> usize| passes.iter().map(f).sum();
        let bill = passes.iter().map(Outcome::bill).sum::<f64>() / passes.len() as f64;
        Outcome {
            accepted: total(|o| o.accepted),
            rejected: total(|o| o.rejected),
            lost: total(|o| o.lost),
            offered: total(|o| o.offered),
            slots: total(|o| o.slots),
            bill_bits: bill.to_bits(),
        }
    }
}

/// Untraced timing samples, pooled over passes.
#[derive(Debug, Default)]
pub struct Samples {
    /// `run_slot` intervals, raw ms.
    pub slot: Vec<Timed>,
    /// Set-up intervals, raw s.
    pub setup: Vec<Timed>,
    /// Resume intervals, raw s.
    pub resume: Vec<Timed>,
    /// Files decided (accepted + rejected) by each timed slot.
    pub slot_decided: Vec<usize>,
    /// Files offered, summed over passes.
    pub offered: usize,
    /// Files lost, summed over passes.
    pub lost: usize,
    /// For each complete pass: the index into `slot` where it ended, its
    /// wall time in s, and the process's peak RSS (MB) at its end.
    pub pass_ends: Vec<(usize, f64, f64)>,
    /// Peak RSS (MB) at the end of the exact passes. Later passes only add
    /// timing samples, and each lets the allocator's footprint creep up a
    /// little, so the process's final peak would depend on the pass count.
    pub exact_rss_mb: f64,
}

/// Per-layer measurements of traced passes. Timings pool over passes;
/// counts and ratios come from the first traced pass (they are exact and
/// identical in every run of a seed).
#[derive(Debug, Default)]
pub struct Layers {
    /// Traced `run_slot` intervals, ref-ms.
    pub slot_ms: Vec<f64>,
    /// `run_slot` minus chain attempts minus checkpoint, ref-ms.
    pub slot_self_ms: Vec<f64>,
    /// Per-tier attempt self time, summed, ref-ms.
    pub tier_self_ms: BTreeMap<&'static str, f64>,
    /// Slots traced (denominator of per-slot tier times).
    pub slots_traced: u64,
    /// Model build replays, ref-ms.
    pub build_ms: Vec<f64>,
    /// Simplex replays, ref-ms.
    pub solve_ms: Vec<f64>,
    /// ALAP rebase replays, ref-ms.
    pub rebase_ms: Vec<f64>,
    /// Bill recomputation replays, ref-µs.
    pub bill_us: Vec<f64>,
    /// Checkpoint writes, ref-ms.
    pub checkpoint_ms: Vec<f64>,
    /// Slowest shard per slot, ref-ms.
    pub shard_max_ms: Vec<f64>,
    /// Slowest shard over mean shard per slot.
    pub shard_imbalance: Vec<f64>,
    /// Sharded solve wall minus the slowest shard per slot, ref-ms.
    pub shard_merge_ms: Vec<f64>,
    /// Set-up CSV parse, ref-ms.
    pub parse_ms: Vec<f64>,
    /// Set-up `Runtime::new`, ref-ms.
    pub runtime_new_ms: Vec<f64>,
    /// Exact counts of the first traced pass.
    pub counts: Option<Counts>,
}

/// Exact per-layer counts of one traced pass.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Counts {
    /// Queue depth seen by each slot.
    pub queue_depth: Vec<f64>,
    /// Arrivals dropped by a full queue.
    pub queue_dropped: u64,
    /// Backlog entries whose deadline passed while queued.
    pub queue_expired: u64,
    /// Slots run.
    pub slots: u64,
    /// Tier attempts over slots with a non-empty batch.
    pub attempts: u64,
    /// Slots with a non-empty batch.
    pub busy_slots: u64,
    /// Attempts made after the slot's batch was found infeasible.
    pub retry_attempts: u64,
    /// Fallback activations.
    pub activations: u64,
    /// Pivots of each LP-tier attempt.
    pub pivots: Vec<f64>,
    /// Dual simplex pivots.
    pub dual_pivots: u64,
    /// Replayed solves that hit the simplex iteration limit.
    pub iteration_limit_hits: u64,
    /// Postcard-tier attempts.
    pub postcard_attempts: u64,
    /// Postcard attempts that advanced the standing model.
    pub delta_hits: u64,
    /// Standing-model rebuilds.
    pub rebuilds: u64,
    /// Slots the headroom rung committed.
    pub headroom_commits: u64,
    /// Headroom declines.
    pub headroom_declined: u64,
    /// Files the ALAP rung admitted.
    pub alap_admits: u64,
    /// Files the ALAP rung rejected.
    pub alap_rejects: u64,
    /// Shard reconciliation conflicts.
    pub shard_conflicts: u64,
    /// Bytes of the end-of-run checkpoint.
    pub snapshot_bytes: u64,
}

/// Replay and span state of one traced pass.
struct TraceState<'a> {
    tracer: &'a mut Tracer,
    layers: &'a mut Layers,
    counts: Counts,
    by_slot: &'a [Vec<TransferRequest>],
}

/// One benchmark run over one workload and seed.
#[derive(Debug)]
pub struct Bench {
    /// The workload.
    pub workload: Workload,
    /// The run seed.
    pub seed: u64,
    /// The current pass's inputs.
    pub inputs: Inputs,
    /// Scratch directory for checkpoints (inside the checkout).
    pub work_dir: PathBuf,
    /// The reference kernel, timed after single-threaded intervals (set-up,
    /// checkpoint, resume) and after slots of unsharded workloads.
    pub kernel: RefKernel,
    /// A kernel on one thread per shard, timed after the slots of sharded
    /// workloads: their slots keep every worker thread busy.
    pub pool_kernel: Option<RefKernel>,
    /// Correctness-check failures so far.
    pub failures: Vec<String>,
}

/// Peak resident set (VmHWM) of this process in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn ms(from: Instant, to: Instant) -> f64 {
    to.saturating_duration_since(from).as_secs_f64() * 1e3
}

/// Total size of the files in `dir`.
fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| entries.flatten().filter_map(|e| e.metadata().ok()).map(|m| m.len()).sum())
        .unwrap_or(0)
}

impl Bench {
    /// Prepares a run; checkpoint files go under `work_dir`.
    pub fn new(workload: Workload, seed: u64, work_dir: PathBuf) -> Self {
        let inputs = workload.generate(seed, &work_dir.to_string_lossy());
        let pool_kernel = (inputs.config.shards > 1).then(|| RefKernel::new(inputs.config.shards));
        Self {
            workload,
            seed,
            inputs,
            work_dir,
            kernel: RefKernel::new(1),
            pool_kernel,
            failures: Vec::new(),
        }
    }

    /// The traced configuration: a wall clock with an unbounded budget, so
    /// attempt records carry real times and no decision depends on them.
    fn traced_config(&self) -> RuntimeConfig {
        RuntimeConfig {
            clock: ClockKind::Wall,
            slot_budget_us: u64::MAX,
            ..self.inputs.config.clone()
        }
    }

    /// Parses the CSV text and builds a runtime ready for slot 0, the path
    /// `postcard serve` takes. Returns the runtime and the parse and
    /// `Runtime::new` boundaries.
    fn setup(&self, config: &RuntimeConfig) -> Result<(Runtime, [Instant; 3]), String> {
        let faults = self.inputs.faults.clone();
        let config = config.clone();
        let t0 = Instant::now();
        let network = Network::from_csv(&self.inputs.network_csv)?;
        let arrivals = ArrivalSchedule::from_csv(&self.inputs.trace_csv)?;
        let t1 = Instant::now();
        let rt = Runtime::new(network, arrivals, faults, self.inputs.num_slots, config)
            .map_err(|e| e.to_string())?;
        let t2 = Instant::now();
        Ok((rt, [t0, t1, t2]))
    }

    /// Sets up the runtime the pass runs on, then times further set-ups
    /// for `SETUP_MS_PER_PASS`; returns the pass's runtime.
    fn timed_setups(
        &mut self,
        config: &RuntimeConfig,
        samples: &mut Samples,
        mut trace: Option<&mut TraceState<'_>>,
    ) -> Result<Runtime, String> {
        let (rt, [t0, t1, t2]) = self.setup(config)?;
        if let Some(t) = trace.as_mut() {
            let parent = t.tracer.record_between("setup", t0, t2, None, None);
            t.tracer.record_between("setup.parse", t0, t1, Some(parent), None);
            t.tracer.record_between("setup.runtime_new", t1, t2, Some(parent), None);
        }
        let mut spent = 0.0;
        for n in 0.. {
            if n >= MAX_REPEATS || (n >= MIN_REPEATS && spent >= SETUP_MS_PER_PASS) {
                break;
            }
            let (other, [t0, t1, t2]) = self.setup(config)?;
            let timed = Timed::after(ms(t0, t2) / 1e3, &mut self.kernel);
            drop(other);
            spent += ms(t0, t2);
            samples.setup.push(timed);
            if let Some(t) = trace.as_mut() {
                t.layers.parse_ms.push(ms(t0, t1) / timed.kernel_ms);
                t.layers.runtime_new_ms.push(ms(t1, t2) / timed.kernel_ms);
            }
        }
        Ok(rt)
    }

    /// Runs one full pass: set-ups, every slot, an end-of-run checkpoint
    /// and (with `timed_resumes`) resumes. With `trace`, records spans and
    /// per-layer figures. A pass still running at `deadline` stops after
    /// the current slot and returns `None`, and its slot samples are
    /// dropped: the first slots of a pass are not a fair sample of all.
    fn pass(
        &mut self,
        config: &RuntimeConfig,
        samples: &mut Samples,
        timed_resumes: bool,
        deadline: Option<Instant>,
        mut trace: Option<TraceState<'_>>,
    ) -> Result<Option<Outcome>, String> {
        let mut rt = self.timed_setups(config, samples, trace.as_mut())?;
        let scheme = rt.controller().charging();
        let sharded = config.shards > 1;
        let replay_stride = (rt.num_slots() / MAX_REPLAYS).max(1);
        let mut slot_times = Vec::new();
        loop {
            let slot = rt.next_slot();
            let pre = match &trace {
                Some(_) if slot % replay_stride == 0 => {
                    Some((rt.controller().network().clone(), rt.controller().ledger().clone()))
                }
                _ => None,
            };
            let before = trace.as_ref().map(|_| Probe::read(&rt, config.shards));
            let t0 = Instant::now();
            let out = rt.run_slot().map_err(|e| format!("slot {slot}: {e}"))?;
            let t1 = Instant::now();
            let timed =
                Timed::after(ms(t0, t1), self.pool_kernel.as_mut().unwrap_or(&mut self.kernel));
            let Some(out) = out else { break };
            slot_times.push((timed, out.report.accepted.len() + out.report.rejected.len()));
            if let (Some(t), Some(before)) = (trace.as_mut(), before) {
                let after = Probe::read(&rt, config.shards);
                self.trace_slot(t, &mut rt, slot, (t0, t1), timed, &before, &after, pre, sharded);
            }
            if out.degraded {
                self.failures.push(format!("slot {slot}: ran degraded"));
            }
            self.check_slot(&rt, slot, scheme);
            if deadline.is_some_and(|d| t1 >= d) {
                return Ok(None);
            }
        }

        let (accepted, rejected) = rt.controller().admission_counts();
        let m = rt.metrics();
        let lost =
            ["queue_dropped", "backlog_expired", "files_lost_analysis", "files_lost_degraded"]
                .iter()
                .map(|c| m.counter(c) as usize)
                .sum::<usize>();
        let queued = rt.snapshot().queue.len();
        if accepted + rejected + lost + queued != self.inputs.offered {
            self.failures.push(format!(
                "accounting: {accepted} accepted + {rejected} rejected + {lost} lost + {queued} \
                 queued != {} offered",
                self.inputs.offered
            ));
        }
        samples.slot.extend(slot_times.iter().map(|s| s.0));
        samples.slot_decided.extend(slot_times.iter().map(|s| s.1));
        samples.offered += self.inputs.offered;
        samples.lost += lost;
        if let Some(t) = trace.as_mut() {
            let c = &mut t.counts;
            c.queue_dropped = m.counter("queue_dropped");
            c.queue_expired = m.counter("backlog_expired");
            c.activations = m.counter("fallback_activations");
            c.headroom_declined = m.counter("headroom_declined");
            c.alap_admits = m.counter("alap_admits");
            c.alap_rejects = m.counter("alap_rejects");
            c.shard_conflicts = m.counter("shard_conflicts");
        }

        self.end_of_run(&mut rt, samples, timed_resumes, trace.as_mut())?;
        if let Some(t) = trace {
            if t.layers.counts.is_none() {
                t.layers.counts = Some(t.counts);
            }
        }
        Ok(Some(Outcome {
            accepted,
            rejected,
            lost,
            offered: self.inputs.offered,
            slots: rt.cost_history().len(),
            bill_bits: rt.final_cost_per_slot().to_bits(),
        }))
    }

    /// Capacity and bill checks after one slot.
    fn check_slot(&mut self, rt: &Runtime, slot: u64, scheme: postcard_net::ChargingScheme) {
        let network = rt.controller().network();
        let ledger = rt.controller().ledger();
        for link in network.links() {
            let used = ledger.volume(link.from, link.to, slot);
            if used > link.capacity + CAPACITY_EPS {
                self.failures.push(format!(
                    "slot {slot}: link {}->{} carries {used} > capacity {}",
                    link.from.0, link.to.0, link.capacity
                ));
            }
        }
        let fresh = ledger.cost_per_slot_scheme(network, scheme);
        if fresh.to_bits() != rt.final_cost_per_slot().to_bits() {
            self.failures.push(format!(
                "slot {slot}: bill {} != recomputed {fresh}",
                rt.final_cost_per_slot()
            ));
        }
    }

    /// Writes the end-of-run checkpoint, resumes from it once to check the
    /// resumed snapshot against the live one, then (with `timed_resumes`)
    /// times resumes for `RESUME_MS_PER_PASS`.
    fn end_of_run(
        &mut self,
        rt: &mut Runtime,
        samples: &mut Samples,
        timed_resumes: bool,
        mut trace: Option<&mut TraceState<'_>>,
    ) -> Result<(), String> {
        let dir = self.work_dir.join("end");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
        let path = dir.join("checkpoint.json");
        let t0 = Instant::now();
        rt.checkpoint(&path).map_err(|e| e.to_string())?;
        let t1 = Instant::now();
        if let Some(t) = trace.as_mut() {
            let timed = Timed::after(ms(t0, t1), &mut self.kernel);
            t.layers.checkpoint_ms.push(timed.normalized());
            t.tracer.record_between("end.checkpoint", t0, t1, None, None);
            t.counts.snapshot_bytes = dir_bytes(&dir);
        }
        let resume = || Runtime::resume(&path).map_err(|e| format!("resume: {e}"));
        let t0 = Instant::now();
        let resumed = resume()?;
        let t1 = Instant::now();
        if let Some(t) = trace.as_mut() {
            t.tracer.record_between("resume", t0, t1, None, None);
        }
        if resumed.snapshot() != rt.snapshot() {
            self.failures.push("resumed snapshot differs from the live snapshot".into());
        }
        drop(resumed);
        let mut spent = 0.0;
        for n in 0.. {
            if !timed_resumes
                || n >= MAX_REPEATS
                || (n >= MIN_REPEATS && spent >= RESUME_MS_PER_PASS)
            {
                break;
            }
            let t0 = Instant::now();
            let resumed = resume()?;
            let t1 = Instant::now();
            samples.resume.push(Timed::after(ms(t0, t1) / 1e3, &mut self.kernel));
            drop(resumed);
            spent += ms(t0, t1);
        }
        Ok(())
    }

    /// Folds one traced slot into spans and per-layer figures, replaying
    /// the layers on the pre-slot state where due.
    #[allow(clippy::too_many_arguments)]
    fn trace_slot(
        &mut self,
        t: &mut TraceState<'_>,
        rt: &mut Runtime,
        slot: u64,
        (t0, t1): (Instant, Instant),
        timed: Timed,
        before: &Probe,
        after: &Probe,
        pre: Option<(Network, TrafficLedger)>,
        sharded: bool,
    ) {
        let k = timed.kernel_ms;
        let start_us = t.tracer.offset_us(t0);
        let span = t.tracer.record_between("slot", t0, t1, None, Some(slot));
        t.layers.slot_ms.push(timed.normalized());
        t.layers.slots_traced += 1;
        let batch = t.by_slot.get(slot as usize).map_or(&[][..], |b| &b[..]);
        let c = &mut t.counts;
        c.slots += 1;
        c.queue_depth.push(after.queue_depth_sum - before.queue_depth_sum);

        // Chain attempts: attempt records carry cumulative wall time since
        // the chain's slot start, so each attempt's self time is the step
        // between consecutive records.
        let mut postcard_attempted = false;
        if sharded {
            let chain_ms = (after.solve_wall - before.solve_wall) * 1e3;
            let shard_ms: Vec<f64> = (0..after.shard_wall.len())
                .map(|i| (after.shard_wall[i] - before.shard_wall[i]) * 1e3)
                .filter(|d| *d > 0.0)
                .collect();
            if !shard_ms.is_empty() {
                let max = shard_ms.iter().copied().fold(0.0, f64::max);
                let mean = shard_ms.iter().sum::<f64>() / shard_ms.len() as f64;
                t.layers.shard_max_ms.push(max / k);
                t.layers.shard_imbalance.push(max / mean);
                t.layers.shard_merge_ms.push((chain_ms - max).max(0.0) / k);
                t.tracer.record(
                    "slot.shards",
                    start_us,
                    start_us + chain_ms * 1e3,
                    Some(span),
                    Some(slot),
                );
            }
        } else if !batch.is_empty() {
            let records = rt.controller().scheduler().records();
            c.busy_slots += 1;
            c.attempts += records.len() as u64;
            let mut prev = 0.0;
            let mut infeasible_seen = false;
            // Per-tier time in this slot, in order of first attempt; one
            // span per tier (per-file admission makes hundreds of attempts).
            let mut tier_ms: Vec<(&'static str, f64)> = Vec::new();
            for r in records {
                let end = r.elapsed.as_secs_f64() * 1e3;
                let self_ms = (end - prev).max(0.0);
                prev = end;
                match tier_ms.iter_mut().find(|(name, _)| *name == r.tier.name()) {
                    Some((_, ms)) => *ms += self_ms,
                    None => tier_ms.push((r.tier.name(), self_ms)),
                }
                if infeasible_seen {
                    c.retry_attempts += 1;
                }
                if r.outcome == AttemptOutcome::Infeasible {
                    infeasible_seen = true;
                }
                let solved =
                    !matches!(r.outcome, AttemptOutcome::Skipped | AttemptOutcome::ForcedTimeout);
                if solved && matches!(r.tier, TierKind::Postcard | TierKind::FlowLp) {
                    c.pivots.push(r.lp_iterations as f64);
                    c.dual_pivots += r.dual_iterations as u64;
                }
                if solved && r.tier == TierKind::Postcard {
                    postcard_attempted = true;
                    c.postcard_attempts += 1;
                    c.delta_hits += u64::from(r.delta_hit);
                    c.rebuilds += u64::from(r.rebuilt);
                }
            }
            let mut at_us = start_us;
            for (name, ms) in tier_ms {
                t.tracer.record(
                    format!("slot.tier.{name}"),
                    at_us,
                    at_us + ms * 1e3,
                    Some(span),
                    Some(slot),
                );
                at_us += ms * 1e3;
                *t.layers.tier_self_ms.entry(name).or_default() += ms / k;
            }
            if rt.controller().scheduler().chosen_tier() == Some(TierKind::Headroom) {
                c.headroom_commits += 1;
            }
        }

        // The runtime checkpoints inside `run_slot`; a replay of the same
        // write to another file measures it.
        if after.checkpoints > before.checkpoints && !sharded {
            let path = self.work_dir.join("replay-checkpoint.json");
            let c0 = Instant::now();
            if let Err(e) = rt.checkpoint(&path) {
                self.failures.push(format!("slot {slot}: checkpoint replay: {e}"));
            }
            let c1 = Instant::now();
            let checkpoint_ms = ms(c0, c1);
            t.layers.checkpoint_ms.push(checkpoint_ms / k);
            t.tracer.record_between("replay.checkpoint", c0, c1, None, Some(slot));
            let end_us = t.tracer.offset_us(t1);
            t.tracer.record(
                "slot.checkpoint",
                end_us - checkpoint_ms * 1e3,
                end_us,
                Some(span),
                Some(slot),
            );
        }
        // The slot's self time: its span minus the attempt, shard and
        // checkpoint spans under it.
        t.layers.slot_self_ms.push(t.tracer.self_time_us(span) / 1e3 / k);

        // Billing: recompute the bill from the post-slot ledger.
        let scheme = rt.controller().charging();
        let b0 = Instant::now();
        let bill = rt.controller().ledger().cost_per_slot_scheme(rt.controller().network(), scheme);
        let b1 = Instant::now();
        std::hint::black_box(bill);
        t.layers.bill_us.push(ms(b0, b1) * 1e3 / k);
        t.tracer.record_between("replay.bill", b0, b1, None, Some(slot));

        // Model build, simplex and ALAP rebase on the pre-slot state.
        if let Some((network, ledger)) = pre {
            if postcard_attempted || (sharded && !batch.is_empty()) {
                let config = PostcardConfig::default();
                let r0 = Instant::now();
                let built = build_postcard_problem(&network, batch, &ledger, &config);
                let r1 = Instant::now();
                t.layers.build_ms.push(ms(r0, r1) / k);
                t.tracer.record_between("replay.build", r0, r1, None, Some(slot));
                if let Ok(problem) = built {
                    let s0 = Instant::now();
                    let solved = problem.solve(&config.simplex);
                    let s1 = Instant::now();
                    t.layers.solve_ms.push(ms(s0, s1) / k);
                    t.tracer.record_between("replay.solve", s0, s1, None, Some(slot));
                    if matches!(solved, Err(PostcardError::Lp(LpError::IterationLimit { .. }))) {
                        t.counts.iteration_limit_hits += 1;
                    }
                }
            }
            if rt.config().tiers.contains(&TierKind::Alap) {
                let mut alap = AlapScheduler::new(&network);
                let a0 = Instant::now();
                alap.rebase(&network, &ledger);
                let a1 = Instant::now();
                std::hint::black_box(alap.grid());
                t.layers.rebase_ms.push(ms(a0, a1) / k);
                t.tracer.record_between("replay.alap_rebase", a0, a1, None, Some(slot));
            }
        }
    }

    /// Generates the inputs of pass `pass`: pass 0 runs the run seed's
    /// own traffic, later passes fresh traffic from seeds derived from it,
    /// so a run's timings average over several traffic draws.
    fn load(&mut self, pass: u64) {
        let seed = self.seed ^ pass.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        self.inputs = self.workload.generate(seed, &self.work_dir.to_string_lossy());
    }

    /// Runs passes until `seconds` have elapsed, untraced. The workload's
    /// exact passes always run to their end; a later pass stops at the
    /// deadline. Returns the pooled samples and the exact passes' outcome.
    pub fn measure(&mut self, seconds: f64) -> Result<(Samples, Outcome), String> {
        let deadline = Instant::now() + Duration::from_secs_f64(seconds);
        let exact = self.workload.exact_passes();
        let mut samples = Samples::default();
        let mut outcomes = Vec::new();
        for pass in 0.. {
            self.load(pass);
            let config = self.inputs.config.clone();
            let cut = (pass >= exact).then_some(deadline);
            let started = Instant::now();
            if let Some(outcome) = self.pass(&config, &mut samples, true, cut, None)? {
                let wall = started.elapsed().as_secs_f64();
                samples.pass_ends.push((samples.slot.len(), wall, peak_rss_mb()));
                if pass < exact {
                    outcomes.push(outcome);
                    samples.exact_rss_mb = peak_rss_mb();
                }
            }
            if pass + 1 >= exact && Instant::now() >= deadline {
                break;
            }
        }
        Ok((samples, Outcome::sum(&outcomes)))
    }

    /// Traced passes until `seconds` have elapsed, cut like `measure`.
    pub fn measure_traced(
        &mut self,
        seconds: f64,
        tracer: &mut Tracer,
    ) -> Result<(Layers, Samples, Outcome), String> {
        let deadline = Instant::now() + Duration::from_secs_f64(seconds);
        let mut layers = Layers::default();
        let mut samples = Samples::default();
        let exact = self.workload.exact_passes();
        let mut outcomes = Vec::new();
        for pass in 0.. {
            self.load(pass);
            let config = self.traced_config();
            let arrivals = ArrivalSchedule::from_csv(&self.inputs.trace_csv)?;
            let mut by_slot: Vec<Vec<TransferRequest>> = Vec::new();
            for r in arrivals.requests() {
                let slot = r.release_slot as usize;
                if by_slot.len() <= slot {
                    by_slot.resize(slot + 1, Vec::new());
                }
                by_slot[slot].push(*r);
            }
            let state = TraceState {
                tracer: &mut *tracer,
                layers: &mut layers,
                counts: Counts::default(),
                by_slot: &by_slot,
            };
            let cut = (pass >= exact).then_some(deadline);
            let outcome = self.pass(&config, &mut samples, false, cut, Some(state))?;
            if let Some(outcome) = outcome.filter(|_| pass < exact) {
                outcomes.push(outcome);
            }
            if pass + 1 >= exact && Instant::now() >= deadline {
                break;
            }
        }
        Ok((layers, samples, Outcome::sum(&outcomes)))
    }
}

/// Cumulative registry readings taken around one slot.
#[derive(Debug, Default)]
struct Probe {
    queue_depth_sum: f64,
    checkpoints: u64,
    solve_wall: f64,
    shard_wall: Vec<f64>,
}

impl Probe {
    fn read(rt: &Runtime, shards: usize) -> Self {
        let hist_sum = |r: &postcard_runtime::MetricsRegistry, name: &str| {
            r.histogram(name).map_or(0.0, |h| h.sum)
        };
        let wall = rt.wall_metrics();
        Self {
            queue_depth_sum: hist_sum(rt.metrics(), "queue_depth"),
            checkpoints: rt.metrics().counter("checkpoints_written"),
            solve_wall: hist_sum(wall, "solve_wall_seconds"),
            shard_wall: (0..shards)
                .map(|i| hist_sum(wall, &format!("solve_wall_seconds_shard{i}")))
                .collect(),
        }
    }
}

/// Per-tier self time per traced slot, ref-ms.
pub fn tier_self_ms(layers: &Layers, tier: TierKind) -> f64 {
    if layers.slots_traced == 0 {
        return 0.0;
    }
    layers.tier_self_ms.get(tier.name()).copied().unwrap_or(0.0) / layers.slots_traced as f64
}
