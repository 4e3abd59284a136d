//! Seeded workload generators.
//!
//! Each generator turns a seed into the inputs the program sees: a network
//! CSV, a trace CSV (the formats `postcard serve` reads), a fault plan and
//! a runtime configuration. The generators use their own RNG so that the
//! inputs depend on the seed alone.

use postcard_net::{ChargingScheme, DcId, FileId};
use postcard_runtime::{FaultPlan, RuntimeConfig, ShardBy};
use std::f64::consts::PI;
use std::fmt::Write as _;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Per-file LP admission on a complete 10-DC network (paper Fig. 6).
    LpAdmission,
    /// ALAP fast-path admission of 400–600 requests per slot.
    AlapStream,
    /// Recurring diurnal replication under p95 billing, checkpointed every
    /// slot.
    DiurnalP95,
    /// Two tenant clusters solved on two shards.
    TenantShards,
}

impl Workload {
    /// Every workload, in the order they are documented.
    pub const ALL: [Workload; 4] =
        [Workload::LpAdmission, Workload::AlapStream, Workload::DiurnalP95, Workload::TenantShards];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::LpAdmission => "lp_admission",
            Workload::AlapStream => "alap_stream",
            Workload::DiurnalP95 => "diurnal_p95",
            Workload::TenantShards => "tenant_shards",
        }
    }

    /// Passes of a run that always run to their end: the exact metrics
    /// (bill, served ratio, counts) are theirs. `lp_admission` runs
    /// 100-slot passes, as the paper's runs do, so two of them.
    pub fn exact_passes(self) -> u64 {
        match self {
            Workload::LpAdmission => 2,
            _ => 1,
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Generates the workload's inputs from `seed`. The network (link
    /// prices) is the workload's fixed deployment; the seed draws the
    /// traffic. Checkpoint files go under `work_dir`.
    pub fn generate(self, seed: u64, work_dir: &str) -> Inputs {
        let salt = (self as u64 + 1).wrapping_mul(0xA076_1D64_78BD_642F);
        let mut net = Rng::new(NETWORK_SEED ^ salt);
        let mut rng = Rng::new(seed ^ salt);
        match self {
            Workload::LpAdmission => lp_admission(&mut net, &mut rng),
            Workload::AlapStream => alap_stream(&mut net, &mut rng),
            Workload::DiurnalP95 => diurnal_p95(&mut net, &mut rng, work_dir),
            Workload::TenantShards => tenant_shards(&mut net, &mut rng),
        }
    }
}

/// Seed of every workload's network: the deployment stays fixed while the
/// run seed varies the traffic.
const NETWORK_SEED: u64 = 1;

/// Everything the program is given for one run.
#[derive(Debug, Clone, PartialEq)]
pub struct Inputs {
    /// Network CSV text (`from,to,price,capacity`).
    pub network_csv: String,
    /// Trace CSV text (`id,src,dst,size_gb,deadline_slots,release_slot`).
    pub trace_csv: String,
    /// Scheduled faults (reprices, maintenance windows).
    pub faults: FaultPlan,
    /// The runtime configuration.
    pub config: RuntimeConfig,
    /// Slots to run (the runtime extends this to cover every deadline).
    pub num_slots: u64,
    /// Files in the trace.
    pub offered: usize,
}

/// SplitMix64: small, fast and good enough for workload generation.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[lo, hi)`.
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * ((self.next_u64() >> 11) as f64 / (1u64 << 53) as f64)
    }

    /// Uniform integer in `lo..=hi`.
    pub fn int(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo + 1)
    }

    /// `n` counts spread evenly over `lo..=hi` (each value equally often
    /// when `n` is a multiple of the range), in random order. Every slot's
    /// count is still uniform over the range, but every pass offers the
    /// same number of files: a run pools only a handful of passes, and
    /// they should differ in which files they draw, not in how many.
    fn stratified(&mut self, n: u64, lo: u64, hi: u64) -> Vec<u64> {
        let span = hi - lo + 1;
        let mut counts: Vec<u64> = (0..n).map(|i| lo + (2 * i + 1) * span / (2 * n)).collect();
        for i in (1..counts.len()).rev() {
            let j = self.int(0, i as u64) as usize;
            counts.swap(i, j);
        }
        counts
    }

    /// A uniform ordered pair of distinct values in `0..n`.
    fn pair(&mut self, n: usize) -> (usize, usize) {
        let a = self.int(0, n as u64 - 1) as usize;
        let b = (a + 1 + self.int(0, n as u64 - 2) as usize) % n;
        (a, b)
    }
}

/// A complete network on DCs `first..first + n` with prices U[1,10) and
/// uniform capacity, appended to `csv`.
fn complete_network(csv: &mut String, rng: &mut Rng, first: usize, n: usize, capacity: f64) {
    for a in first..first + n {
        for b in first..first + n {
            if a != b {
                let price = round2(rng.uniform(1.0, 10.0));
                let _ = writeln!(csv, "{a},{b},{price},{capacity}");
            }
        }
    }
}

/// Rounds to two decimals, so the CSV text carries the exact value.
fn round2(x: f64) -> f64 {
    (x * 100.0).round() / 100.0
}

/// Appends one trace line.
fn push_file(csv: &mut String, id: u64, src: usize, dst: usize, size: f64, dl: u64, slot: u64) {
    let _ = writeln!(csv, "{id},{src},{dst},{size},{dl},{slot}");
}

const NETWORK_HEADER: &str = "from,to,price,capacity\n";
const TRACE_HEADER: &str = "id,src,dst,size_gb,deadline_slots,release_slot\n";

/// Random point-to-point files: `files_per_slot` files per slot (stratified)
/// between uniform distinct DC pairs, sizes U[10,100) GB, deadlines
/// U{1..max_deadline}.
fn random_trace(
    rng: &mut Rng,
    dcs: usize,
    slots: u64,
    files_per_slot: (u64, u64),
    max_deadline: u64,
) -> (String, usize) {
    let mut csv = String::from(TRACE_HEADER);
    let mut id = 0u64;
    let counts = rng.stratified(slots, files_per_slot.0, files_per_slot.1);
    for (slot, &count) in counts.iter().enumerate() {
        let slot = slot as u64;
        for _ in 0..count {
            let (src, dst) = rng.pair(dcs);
            let size = round2(rng.uniform(10.0, 100.0));
            push_file(&mut csv, id, src, dst, size, rng.int(1, max_deadline), slot);
            id += 1;
        }
    }
    (csv, id as usize)
}

fn lp_admission(net: &mut Rng, rng: &mut Rng) -> Inputs {
    let mut network_csv = String::from(NETWORK_HEADER);
    complete_network(&mut network_csv, net, 0, 10, 30.0);
    let slots = 100;
    let (trace_csv, offered) = random_trace(rng, 10, slots, (1, 20), 3);
    Inputs {
        network_csv,
        trace_csv,
        faults: FaultPlan::none(),
        config: RuntimeConfig::default(),
        num_slots: slots,
        offered,
    }
}

fn alap_stream(net: &mut Rng, rng: &mut Rng) -> Inputs {
    let mut network_csv = String::from(NETWORK_HEADER);
    complete_network(&mut network_csv, net, 0, 6, 1000.0);
    let slots = 200;
    let (trace_csv, offered) = random_trace(rng, 6, slots, (400, 600), 4);
    Inputs {
        network_csv,
        trace_csv,
        faults: FaultPlan::none(),
        config: RuntimeConfig { alap: true, reopt_every: 100, ..RuntimeConfig::default() },
        num_slots: slots,
        offered,
    }
}

/// Slots per simulated day: 5-minute slots.
pub const SLOTS_PER_DAY: u64 = 96;

fn diurnal_p95(net: &mut Rng, rng: &mut Rng, work_dir: &str) -> Inputs {
    let dcs = 6;
    let mut network_csv = String::from(NETWORK_HEADER);
    complete_network(&mut network_csv, net, 0, dcs, 100.0);
    // Eight recurring jobs on distinct DC pairs, each with its own base
    // size, deadline and daily phase. The jobs belong to the deployment;
    // the seed draws each release's jitter.
    let mut jobs: Vec<(usize, usize, f64, u64, f64)> = Vec::new();
    while jobs.len() < 8 {
        let (src, dst) = net.pair(dcs);
        if jobs.iter().any(|j| j.0 == src && j.1 == dst) {
            continue;
        }
        let base = net.uniform(10.0, 25.0);
        let deadline = net.int(2, 6);
        let phase = net.uniform(0.0, 0.5 * PI);
        jobs.push((src, dst, base, deadline, phase));
    }
    // Six days. Each job's last release meets its deadline on the last
    // slot of day 6, so the run ends on a billing-window boundary and the
    // final bill is a complete day's.
    let days = 6;
    let slots = days * SLOTS_PER_DAY;
    let mut trace_csv = String::from(TRACE_HEADER);
    let mut id = 0u64;
    for slot in 0..slots {
        let angle = 2.0 * PI * (slot % SLOTS_PER_DAY) as f64 / SLOTS_PER_DAY as f64;
        for &(src, dst, base, deadline, phase) in &jobs {
            if slot + deadline > slots {
                continue;
            }
            let daily = 1.0 + 0.8 * (angle + phase).sin();
            let jitter = rng.uniform(0.9, 1.1);
            push_file(&mut trace_csv, id, src, dst, round2(base * daily * jitter), deadline, slot);
            id += 1;
        }
    }
    // One mid-run reprice of the first job's direct link, and a two-hour
    // maintenance window on the second job's link on day 5.
    let (s0, d0) = (jobs[0].0, jobs[0].1);
    let (s1, d1) = (jobs[1].0, jobs[1].1);
    let reprice_to = round2(net.uniform(1.0, 10.0));
    let maintenance_start = 4 * SLOTS_PER_DAY + 40;
    let faults = FaultPlan::none().reprice(slots / 2, DcId(s0), DcId(d0), reprice_to).maintain(
        maintenance_start,
        maintenance_start + 24,
        DcId(s1),
        DcId(d1),
    );
    let config = RuntimeConfig {
        incremental: true,
        charging: ChargingScheme::parse("p95:96").expect("valid charging spec"),
        checkpoint_every: 1,
        checkpoint_path: Some(format!("{work_dir}/diurnal-ckpt.json")),
        ..RuntimeConfig::default()
    };
    Inputs { network_csv, trace_csv, faults, config, num_slots: slots, offered: id as usize }
}

fn tenant_shards(net: &mut Rng, rng: &mut Rng) -> Inputs {
    let per_tenant = 6;
    let mut network_csv = String::from(NETWORK_HEADER);
    for tenant in 0..2 {
        complete_network(&mut network_csv, net, tenant * per_tenant, per_tenant, 30.0);
    }
    let slots = 200;
    let mut trace_csv = String::from(TRACE_HEADER);
    let mut seq = [0u64; 2];
    let counts = [rng.stratified(slots, 1, 10), rng.stratified(slots, 1, 10)];
    for slot in 0..slots {
        for tenant in 0..2u16 {
            let first = tenant as usize * per_tenant;
            for _ in 0..counts[tenant as usize][slot as usize] {
                let (a, b) = rng.pair(per_tenant);
                let size = round2(rng.uniform(10.0, 100.0));
                let id = FileId::for_tenant(tenant, seq[tenant as usize]).0;
                seq[tenant as usize] += 1;
                push_file(&mut trace_csv, id, first + a, first + b, size, rng.int(1, 3), slot);
            }
        }
    }
    let config = RuntimeConfig { shards: 2, shard_by: ShardBy::Tenant, ..RuntimeConfig::default() };
    Inputs {
        network_csv,
        trace_csv,
        faults: FaultPlan::none(),
        config,
        num_slots: slots,
        offered: (seq[0] + seq[1]) as usize,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generators_are_deterministic_per_seed_and_differ_across_seeds() {
        for w in Workload::ALL {
            let a = w.generate(7, "work");
            let b = w.generate(7, "work");
            let c = w.generate(8, "work");
            assert_eq!(a, b, "{}: same seed, same inputs", w.name());
            assert_eq!(a.network_csv, c.network_csv, "{}: the network is fixed", w.name());
            assert_ne!(a.trace_csv, c.trace_csv, "{}: traces differ across seeds", w.name());
        }
    }

    #[test]
    fn stratified_counts_cover_the_range_evenly() {
        let mut rng = Rng::new(5);
        let mut counts = rng.stratified(100, 1, 20);
        assert_ne!(counts, (0..100).map(|i| 1 + i / 5).collect::<Vec<_>>(), "shuffled");
        counts.sort_unstable();
        assert_eq!(counts, (0..100).map(|i| 1 + i / 5).collect::<Vec<_>>());
        let counts = rng.stratified(200, 400, 600);
        assert!(counts.iter().all(|c| (400..=600).contains(c)));
        assert_eq!(counts.iter().sum::<u64>(), 200 * 500);
    }

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
    }

    #[test]
    fn traces_parse_and_count_what_they_offer() {
        for w in Workload::ALL {
            let inputs = w.generate(3, "work");
            let arrivals = postcard_runtime::ArrivalSchedule::from_csv(&inputs.trace_csv)
                .expect("generated trace parses");
            assert_eq!(arrivals.requests().len(), inputs.offered, "{}", w.name());
            postcard_net::Network::from_csv(&inputs.network_csv).expect("generated network parses");
        }
    }
}
