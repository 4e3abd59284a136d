//! `perfbench` — the Postcard service benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <lp_admission|alap_stream|diurnal_p95|tenant_shards> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. `--trace 0` prints the end-to-end
//! metrics, `--trace 1` the per-layer breakdown; the last line of standard
//! output is the JSON result. Any failed correctness check exits with
//! code 1. See `perfbench/README.md`.

mod bench;
mod hostref;
mod report;
mod stats;
mod trace;
mod workloads;

use bench::{Bench, Layers, Outcome, Samples};
use hostref::Timed;
use postcard_runtime::TierKind;
use report::{Metrics, END_TO_END, PER_LAYER};
use stats::{median, percentile, samples_beyond};
use std::path::PathBuf;
use std::process::ExitCode;
use trace::Tracer;
use workloads::Workload;

/// Where checkpoints and span files go, relative to the checkout root.
const WORK_ROOT: &str = ".bench_work";
/// Samples a reported p95 needs beyond it; every workload's exact passes
/// time at least 200 slots, which leaves 10.
const MIN_BEYOND_P95: usize = 10;
/// The longest `--seconds` accepted: a day.
const MAX_SECONDS: f64 = 86_400.0;
/// Share of a traced run spent on untraced passes (the overhead baseline).
const UNTRACED_SHARE: f64 = 0.4;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1))
            .ok_or_else(|| format!("missing {flag}"))
    };
    let workload = get("--workload")?;
    Ok(Args {
        workload: Workload::parse(workload)
            .ok_or_else(|| format!("unknown workload {workload}"))?,
        seed: get("--seed")?.parse().map_err(|_| "bad --seed")?,
        seconds: get("--seconds")?
            .parse()
            .ok()
            .filter(|s| (0.0..=MAX_SECONDS).contains(s))
            .ok_or("bad --seconds")?,
        trace: match get("--trace")?.as_str() {
            "0" => false,
            "1" => true,
            other => return Err(format!("bad --trace {other}")),
        },
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <lp_admission|alap_stream|diurnal_p95|tenant_shards> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let work_dir =
        PathBuf::from(WORK_ROOT).join(format!("{}-{}", args.workload.name(), std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&work_dir) {
        eprintln!("perfbench: cannot create {}: {e}", work_dir.display());
        return ExitCode::from(2);
    }
    let mut bench = Bench::new(args.workload, args.seed, work_dir.clone());
    let result = if args.trace { traced(&mut bench, &args) } else { untraced(&mut bench, &args) };
    let _ = std::fs::remove_dir_all(&work_dir);
    match result {
        Ok(line) => {
            for f in &bench.failures {
                println!("CHECK FAILED: {f}");
            }
            println!("{line}");
            if bench.failures.is_empty() {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(1)
        }
    }
}

fn quartiles(v: &[f64]) -> (f64, f64, f64) {
    (percentile(v, 25.0), median(v), percentile(v, 75.0))
}

/// The untraced run: every end-to-end metric.
fn untraced(bench: &mut Bench, args: &Args) -> Result<String, String> {
    let (samples, outcome) = bench.measure(args.seconds)?;
    let beyond = samples_beyond(samples.slot.len(), 95.0);
    if beyond < MIN_BEYOND_P95 {
        bench
            .failures
            .push(format!("slot p95 has {beyond} samples beyond it, fewer than {MIN_BEYOND_P95}"));
    }
    let m = end_to_end(&samples, &outcome);
    let slot_raw: Vec<f64> = samples.slot.iter().map(|t| t.raw).collect();
    let kernel: Vec<f64> = samples.slot.iter().map(|t| t.kernel_ms).collect();
    let (k25, k50, k75) = quartiles(&kernel);
    println!(
        "perfbench {} seed {}: {} passes, {} timed slots ({} beyond p95); exact passes: {} \
         accepted / {} rejected / {} lost of {} offered",
        args.workload.name(),
        args.seed,
        samples.pass_ends.len(),
        samples.slot.len(),
        beyond,
        outcome.accepted,
        outcome.rejected,
        outcome.lost,
        outcome.offered,
    );
    print!("{}", m.table());
    println!("diagnostics (raw wall time, not gated):");
    println!(
        "  raw.slot_p50_ms {:.4}  raw.slot_p95_ms {:.4}  raw.slot_max_ms {:.4}",
        median(&slot_raw),
        percentile(&slot_raw, 95.0),
        percentile(&slot_raw, 100.0)
    );
    let setup_raw: Vec<f64> = samples.setup.iter().map(|t| t.raw).collect();
    let resume_raw: Vec<f64> = samples.resume.iter().map(|t| t.raw).collect();
    println!(
        "  raw.setup_s {:.5} (n={})  raw.resume_s {:.5} (n={})",
        median(&setup_raw),
        setup_raw.len(),
        median(&resume_raw),
        resume_raw.len()
    );
    let mut from = 0;
    for (pass, &(to, wall, rss)) in samples.pass_ends.iter().enumerate() {
        let part = &samples.slot[from..to];
        let p50 = |f: fn(&Timed) -> f64| median(&part.iter().map(f).collect::<Vec<_>>());
        println!(
            "  pass {pass}: {wall:.2} s, {} slots in {:.2} s, raw p50 {:.4} ms, kernel p50 {:.4} ms, \
             normalized p50 {:.4} ref-ms, peak RSS {rss:.2} MB",
            part.len(),
            part.iter().map(|t| t.raw).sum::<f64>() / 1e3,
            p50(|t| t.raw),
            p50(|t| t.kernel_ms),
            p50(Timed::normalized)
        );
        from = to;
    }
    let threads = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!("  host.ref_kernel_ms p25 {k25:.4} p50 {k50:.4} p75 {k75:.4}  host.threads {threads}");
    Ok(m.result_line(bench.failures.is_empty(), samples.offered, samples.lost))
}

/// The end-to-end metrics of untraced samples.
fn end_to_end(samples: &Samples, exact: &Outcome) -> Metrics {
    let slot: Vec<f64> = samples.slot.iter().map(|t| t.normalized()).collect();
    // Files decided per busy slot over the median busy-slot time: a rare
    // multi-second LP solve would swing a ratio of sums by up to 4× from
    // one seed to the next (see README.md).
    let busy: Vec<(usize, f64)> = samples
        .slot_decided
        .iter()
        .copied()
        .zip(slot.iter().copied())
        .filter(|(d, _)| *d > 0)
        .collect();
    let per_slot = busy.iter().map(|(d, _)| *d as f64).sum::<f64>() / busy.len().max(1) as f64;
    let busy_ms: Vec<f64> = busy.iter().map(|(_, ms)| *ms).collect();
    let setup: Vec<f64> = samples.setup.iter().map(|t| t.normalized()).collect();
    let resume: Vec<f64> = samples.resume.iter().map(|t| t.normalized()).collect();
    let mut m = Metrics::default();
    let t = &END_TO_END;
    m.set(t, "slot_p50_ms", median(&slot));
    m.set(t, "slot_p95_ms", percentile(&slot, 95.0));
    m.set(t, "decisions_per_s", per_slot / (median(&busy_ms) / 1e3));
    m.set(t, "bill_per_slot", exact.bill());
    m.set(t, "served_ratio", exact.accepted as f64 / exact.offered as f64);
    m.set(t, "setup_s", median(&setup));
    m.set(t, "resume_s", median(&resume));
    m.set(t, "peak_rss_mb", samples.exact_rss_mb);
    m
}

/// The traced run: untraced passes for the overhead baseline, then traced
/// passes for every per-layer metric.
fn traced(bench: &mut Bench, args: &Args) -> Result<String, String> {
    let (untraced, base) = bench.measure(args.seconds * UNTRACED_SHARE)?;
    let mut tracer = Tracer::new();
    let (layers, traced, outcome) =
        bench.measure_traced(args.seconds * (1.0 - UNTRACED_SHARE), &mut tracer)?;
    if outcome != base {
        bench
            .failures
            .push(format!("traced run outcome {outcome:?} differs from the untraced {base:?}"));
    }
    let spans = PathBuf::from(WORK_ROOT).join(format!(
        "spans-{}-seed{}.csv",
        args.workload.name(),
        args.seed
    ));
    std::fs::write(&spans, tracer.to_csv()).map_err(|e| format!("{}: {e}", spans.display()))?;

    let untraced_p50 = median(&untraced.slot.iter().map(|t| t.normalized()).collect::<Vec<_>>());
    let m = per_layer(&layers, &traced, untraced_p50);
    println!(
        "perfbench {} seed {} (traced): {} traced slots, {} spans written to {}",
        args.workload.name(),
        args.seed,
        layers.slot_ms.len(),
        tracer.spans().len(),
        spans.display()
    );
    print!("{}", m.table());
    println!(
        "tracing overhead: traced slot p50 {:.4} vs untraced {:.4} ref-ms ({:+.2}%)",
        m.get("trace.slot_p50_traced_ms").unwrap_or(0.0),
        untraced_p50,
        m.get("trace.overhead_pct").unwrap_or(0.0)
    );
    Ok(m.result_line(
        bench.failures.is_empty(),
        untraced.offered + traced.offered,
        untraced.lost + traced.lost,
    ))
}

/// Share `num / den`, 0 when `den` is 0.
fn share(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// The per-layer metrics of traced passes.
fn per_layer(layers: &Layers, traced: &Samples, untraced_p50: f64) -> Metrics {
    let c = layers.counts.clone().unwrap_or_default();
    let t = &PER_LAYER;
    let mut m = Metrics::default();
    m.set(t, "runtime.slot_self_ms", median(&layers.slot_self_ms));
    m.set(t, "runtime.slot_samples", layers.slot_ms.len() as f64);
    m.set(t, "queue.depth_p95", percentile(&c.queue_depth, 95.0));
    m.set(t, "queue.dropped", c.queue_dropped as f64);
    m.set(t, "queue.expired", c.queue_expired as f64);
    m.set(t, "fallback.attempts_per_slot", share(c.attempts, c.busy_slots));
    m.set(t, "fallback.activations", c.activations as f64);
    for tier in
        [TierKind::Headroom, TierKind::Alap, TierKind::Postcard, TierKind::FlowLp, TierKind::Greedy]
    {
        m.set(t, &format!("fallback.{}.self_ms", tier.name()), bench::tier_self_ms(layers, tier));
    }
    m.set(t, "core.admission_retry_share", share(c.retry_attempts, c.attempts));
    m.set(t, "core.build_ms", median(&layers.build_ms));
    m.set(t, "lp.solve_ms_p50", median(&layers.solve_ms));
    m.set(t, "lp.solve_ms_p95", percentile(&layers.solve_ms, 95.0));
    m.set(t, "lp.pivots_per_solve_p50", median(&c.pivots));
    m.set(t, "lp.pivots_per_solve_p95", percentile(&c.pivots, 95.0));
    m.set(t, "lp.dual_pivots", c.dual_pivots as f64);
    m.set(t, "lp.iteration_limit_hits", c.iteration_limit_hits as f64);
    m.set(t, "delta.hit_ratio", share(c.delta_hits, c.postcard_attempts));
    m.set(t, "delta.rebuilds", c.rebuilds as f64);
    m.set(t, "headroom.commit_share", share(c.headroom_commits, c.busy_slots));
    m.set(t, "headroom.declined", c.headroom_declined as f64);
    let alap_decided = c.alap_admits + c.alap_rejects;
    // Mean ALAP time per slot (all traced passes) × the first pass's slots
    // = the first pass's ALAP time, over the requests it decided.
    let alap_us = bench::tier_self_ms(layers, TierKind::Alap) * c.slots as f64 * 1e3;
    m.set(
        t,
        "alap.us_per_request",
        if alap_decided == 0 { 0.0 } else { alap_us / alap_decided as f64 },
    );
    m.set(t, "alap.rebase_ms", median(&layers.rebase_ms));
    m.set(t, "alap.admit_ratio", share(c.alap_admits, alap_decided));
    m.set(t, "net.bill_us", median(&layers.bill_us));
    m.set(t, "snapshot.checkpoint_ms", median(&layers.checkpoint_ms));
    m.set(t, "snapshot.bytes", c.snapshot_bytes as f64);
    m.set(t, "shard.max_ms", median(&layers.shard_max_ms));
    m.set(t, "shard.imbalance", median(&layers.shard_imbalance));
    m.set(t, "shard.merge_ms", median(&layers.shard_merge_ms));
    m.set(t, "shard.conflicts", c.shard_conflicts as f64);
    m.set(t, "setup.parse_ms", median(&layers.parse_ms));
    m.set(t, "setup.runtime_new_ms", median(&layers.runtime_new_ms));
    let traced_p50 = median(&layers.slot_ms);
    m.set(t, "trace.slot_p50_untraced_ms", untraced_p50);
    m.set(t, "trace.slot_p50_traced_ms", traced_p50);
    m.set(t, "trace.overhead_pct", (traced_p50 / untraced_p50 - 1.0) * 100.0);
    let kernel: Vec<f64> = traced.slot.iter().map(|s| s.kernel_ms).collect();
    m.set(t, "host.ref_kernel_ms", median(&kernel));
    m
}
