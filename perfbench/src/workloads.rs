//! The three workloads, each one seeded round: set up, measure, check.
//!
//! A round builds a fresh stack, so two rounds with the same seed must
//! produce identical simulated results. Untraced rounds use the
//! program's own builders and no probe; traced rounds build the same
//! stack from public constructors with [`TimedBackend`] wrappers and an
//! aggregated probe attached after set-up.

use std::collections::{BTreeMap, BTreeSet};
use std::rc::Rc;

use requiem_bench::aging::{self, AgingConfig, AgingPoint};
use requiem_block::StackConfig;
use requiem_db::{
    BlockStackBackend, CoopLogBackend, Database, DbBuilder, DbConfig, ExecConfig,
    GroupCommitPolicy, PcmWalConfig, PersistenceBackend, ShardedDb, ShardedReport, TxnInput,
    WalConfig,
};
use requiem_iface::nameless::NamelessConfig;
use requiem_sim::time::SimTime;
use requiem_sim::{Histogram, IoRequest, Probe, ProbeSummary, SimRng};
use requiem_ssd::{
    ArrayShape, BufferConfig, ChannelTiming, FtlKind, GcPolicyKind, Placement, QueuePair, Ssd,
    SsdConfig, SsdMetrics,
};
use requiem_workload::oltp::{PageAccess, Txn};
use requiem_workload::pattern::{AddressPattern, Pattern};
use requiem_workload::sharded::{ShardedOltpConfig, ShardedOltpGen};
use requiem_workload::txn_to_input;

use crate::timing::{timed, Chunks, HostClock, TimedBackend, WalSource};

/// The workloads, by their fixed names.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The block-interface stack at exp17's channel-bound knee.
    OltpBlock,
    /// A raw page-mapped SSD aged to steady state (Myths 2 and 3).
    SsdAging,
    /// The paper's §3 stack: cooperating logs on a nameless SSD, PCM WAL.
    OltpVision,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 3] = [
        Workload::OltpBlock,
        Workload::SsdAging,
        Workload::OltpVision,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::OltpBlock => "oltp_block",
            Workload::SsdAging => "ssd_aging",
            Workload::OltpVision => "oltp_vision",
        }
    }

    /// Look a workload up by name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Run one round.
    pub fn round(self, seed: u64, scale: &Scale, trace: &Trace) -> Round {
        match self {
            Workload::OltpBlock => oltp_block(seed, scale, trace),
            Workload::SsdAging => ssd_aging(seed, scale, trace),
            Workload::OltpVision => oltp_vision(seed, scale, trace),
        }
    }
}

/// How much work one round does.
#[derive(Debug, Clone)]
pub struct Scale {
    /// Transactions per `oltp_block` round.
    pub block_txns: u64,
    /// Zipf θ 0.9 overwrites per `ssd_aging` round.
    pub aging_overwrites: u64,
    /// Zipf θ 0.99 50/50 mixed I/Os per `ssd_aging` round.
    pub aging_mixed: u64,
    /// Transactions per `oltp_vision` round.
    pub vision_txns: u64,
    /// Times each round builds its stack; `setup_s` is their median.
    pub setups: usize,
}

impl Scale {
    /// The benchmark's scale.
    pub fn full() -> Self {
        Scale {
            block_txns: 450,
            aging_overwrites: 16 * 7618,
            aging_mixed: 65_536,
            vision_txns: 20_000,
            setups: 3,
        }
    }

    /// A scale small enough for the benchmark's own tests.
    pub fn tiny() -> Self {
        Scale {
            block_txns: 8,
            aging_overwrites: 2048,
            aging_mixed: 1024,
            vision_txns: 400,
            setups: 1,
        }
    }
}

/// The instruments of a round: host clocks per layer and the probe.
/// [`Trace::off`] disables all of them.
pub struct Trace {
    /// Workload generator draws (interleaved generators only).
    pub gen: Rc<HostClock>,
    /// Calls into the page persistence backend.
    pub storage: Rc<HostClock>,
    /// Calls into the WAL backend.
    pub wal: Rc<HostClock>,
    /// `QueuePair::submit` calls (raw-device workloads).
    pub submit: Rc<HostClock>,
    /// The simulated-time probe.
    pub probe: Probe,
}

impl Trace {
    /// No timers, no probe: the end-to-end configuration.
    pub fn off() -> Self {
        Trace {
            gen: HostClock::disabled(),
            storage: HostClock::disabled(),
            wal: HostClock::disabled(),
            submit: HostClock::disabled(),
            probe: Probe::disabled(),
        }
    }

    /// Every timer on and an aggregated probe.
    pub fn on() -> Self {
        Trace {
            gen: HostClock::enabled(),
            storage: HostClock::enabled(),
            wal: HostClock::enabled(),
            submit: HostClock::enabled(),
            probe: Probe::aggregated(),
        }
    }

    /// Whether this round is traced.
    pub fn is_on(&self) -> bool {
        self.probe.is_enabled()
    }
}

/// The simulated outcome of a round. Everything here is a function of
/// the seed and the scale: rounds compare it for exact equality.
#[derive(Debug, Clone, PartialEq)]
pub struct SimResult {
    /// Transactions offered or I/Os issued.
    pub attempted: u64,
    /// Transactions committed or I/Os completed.
    pub completed: u64,
    /// Failed operations: aborts, I/O errors, insolvency, lost commits.
    pub failed: u64,
    /// Simulated span of the measured phase.
    pub makespan_ns: u64,
    /// Per-operation latency (transactions or I/Os).
    pub latency: Histogram,
    /// Read-only transactions, or reads of the mixed phase.
    pub read_latency: Histogram,
    /// Flash programs during the measured phase.
    pub programs: u64,
    /// Logical page writes from the layer above the device.
    pub logical_writes: u64,
    /// Simulated clock advance of crash + recover (0: no crash phase).
    pub recovery_ns: u64,
    /// Per-layer counts from the program's public stats.
    pub counts: BTreeMap<&'static str, f64>,
}

/// One round's measurements.
#[derive(Debug)]
pub struct Round {
    /// Simulated results.
    pub sim: SimResult,
    /// Host seconds of each set-up.
    pub setup_s: Vec<f64>,
    /// The measured phase, in the same fixed sequence of chunks on
    /// every round with the same seed and scale.
    pub chunks: Chunks,
    /// Host seconds in the workload generator.
    pub gen_s: f64,
    /// Host seconds in `ShardedDb::run` (0 on raw-device workloads).
    pub run_s: f64,
    /// Host seconds of crash + recover.
    pub recover_s: f64,
    /// Host seconds and calls in the page backend during the run.
    pub storage: (f64, u64),
    /// Host seconds and calls in the WAL backend during the run.
    pub wal: (f64, u64),
    /// Host seconds and calls in `QueuePair::submit`.
    pub submit: (f64, u64),
    /// The probe's decomposition (traced rounds only).
    pub probe: Option<ProbeSummary>,
    /// Failed correctness checks, described.
    pub violations: Vec<String>,
}

/// Build `setups` times, keeping the last; returns it with each
/// set-up's host seconds.
fn median_setup<T>(setups: usize, mut build: impl FnMut() -> T) -> (T, Vec<f64>) {
    let mut times = Vec::new();
    let mut last = None;
    for _ in 0..setups.max(1) {
        drop(last.take());
        let (built, secs) = timed(&mut build);
        times.push(secs);
        last = Some(built);
    }
    (last.expect("at least one set-up"), times)
}

/// Snapshot of the clocks' (seconds, calls).
fn reading(clock: &HostClock) -> (f64, u64) {
    (clock.secs(), clock.calls())
}

fn since(after: (f64, u64), before: (f64, u64)) -> (f64, u64) {
    (after.0 - before.0, after.1 - before.1)
}

// ---------------------------------------------------------------------
// Device counters behind a page backend
// ---------------------------------------------------------------------

/// Device counters a page backend exposes through public accessors.
#[derive(Debug, Clone, Copy, Default)]
struct DevSnap {
    host_reads: u64,
    host_writes: u64,
    host_trims: u64,
    flash_reads: u64,
    flash_programs: u64,
    flash_erases: u64,
    gc_runs: u64,
    gc_moved: u64,
    relocations: u64,
    block_ios: u64,
}

impl DevSnap {
    fn from_metrics(m: &SsdMetrics) -> Self {
        DevSnap {
            host_reads: m.host_reads,
            host_writes: m.host_writes,
            host_trims: m.host_trims,
            flash_reads: m.flash_reads.total(),
            flash_programs: m.flash_programs.total(),
            flash_erases: m.flash_erases.total(),
            gc_runs: m.gc_runs,
            gc_moved: m.gc_pages_moved,
            ..DevSnap::default()
        }
    }

    fn delta(self, before: DevSnap) -> DevSnap {
        DevSnap {
            host_reads: self.host_reads - before.host_reads,
            host_writes: self.host_writes - before.host_writes,
            host_trims: self.host_trims - before.host_trims,
            flash_reads: self.flash_reads - before.flash_reads,
            flash_programs: self.flash_programs - before.flash_programs,
            flash_erases: self.flash_erases - before.flash_erases,
            gc_runs: self.gc_runs - before.gc_runs,
            gc_moved: self.gc_moved - before.gc_moved,
            relocations: self.relocations - before.relocations,
            block_ios: self.block_ios - before.block_ios,
        }
    }

    fn commands(&self) -> u64 {
        self.host_reads + self.host_writes + self.host_trims
    }

    fn count_into(&self, counts: &mut BTreeMap<&'static str, f64>) {
        counts.insert("ssd.host_reads", self.host_reads as f64);
        counts.insert("ssd.host_writes", self.host_writes as f64);
        counts.insert("ssd.flash_reads", self.flash_reads as f64);
        counts.insert("ssd.flash_programs", self.flash_programs as f64);
        counts.insert("ssd.flash_erases", self.flash_erases as f64);
        counts.insert("ssd.gc_runs", self.gc_runs as f64);
        counts.insert("ssd.gc_pages_moved", self.gc_moved as f64);
        counts.insert("ssd.gc_moved_per_run", ratio(self.gc_moved, self.gc_runs));
        counts.insert("iface.relocations_patched", self.relocations as f64);
        counts.insert("block.ios", self.block_ios as f64);
        counts.insert("sim.device_cmds", self.commands() as f64);
    }
}

/// Backends whose device the benchmark can read counters from.
trait Devices {
    /// Current device counters.
    fn snap(&self) -> DevSnap;
    /// Block-layer software share and p99 latency (ns), where there is
    /// a block layer.
    fn block_latency(&self) -> Option<(f64, u64)> {
        None
    }
}

impl Devices for BlockStackBackend {
    fn snap(&self) -> DevSnap {
        let mut s = DevSnap::from_metrics(self.ssd().metrics());
        s.block_ios = self.stack().ios();
        s
    }

    fn block_latency(&self) -> Option<(f64, u64)> {
        let stack = self.stack();
        Some((stack.software_share(), stack.latency().p99()))
    }
}

impl Devices for CoopLogBackend {
    fn snap(&self) -> DevSnap {
        let mut s = DevSnap::from_metrics(self.dev().metrics());
        s.relocations = self.relocations_patched();
        s
    }
}

impl<B: PersistenceBackend + Devices> Devices for TimedBackend<B> {
    fn snap(&self) -> DevSnap {
        self.inner().snap()
    }

    fn block_latency(&self) -> Option<(f64, u64)> {
        self.inner().block_latency()
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

// ---------------------------------------------------------------------
// OLTP: one driver for both sharded stacks
// ---------------------------------------------------------------------

/// Engine-side counters summed over shards.
#[derive(Debug, Clone, Default)]
struct EngineSnap {
    commits: u64,
    read_stall_ns: u64,
    steal_stall_ns: u64,
    commit_stall_ns: u64,
    force_failures: u64,
    media_failures: u64,
    page_reads: u64,
    page_writes: u64,
    steal_writes: u64,
    logical_writes: u64,
    wal_logical_writes: u64,
    log_forces: u64,
    log_bytes: u64,
}

fn engine_snap<B: PersistenceBackend>(db: &ShardedDb<B>) -> EngineSnap {
    let mut e = EngineSnap::default();
    for s in 0..db.num_shards() {
        let shard = db.shard(s);
        let st = shard.stats();
        e.commits += st.commits;
        e.read_stall_ns += st.read_stall.as_nanos();
        e.steal_stall_ns += st.steal_stall.as_nanos();
        e.commit_stall_ns += st.commit_stall.as_nanos();
        e.force_failures += st.wal_force_failures;
        e.media_failures += st.media_failures;
        let b = shard.backend().stats();
        e.page_reads += b.page_reads;
        e.page_writes += b.page_writes;
        e.steal_writes += b.steal_writes;
        e.logical_writes += b.logical_writes;
        let w = shard.wal_backend().stats();
        e.wal_logical_writes += w.logical_writes;
        e.log_forces += w.log_forces;
        e.log_bytes += w.log_bytes;
    }
    e
}

/// Visible owner of each global `(page, slot)`.
fn owners<B: PersistenceBackend>(db: &mut ShardedDb<B>, slots: &[(u64, u16)]) -> Vec<u64> {
    let n = db.num_shards() as u64;
    slots
        .iter()
        .map(|&(g, slot)| db.shard_mut((g % n) as usize).visible_owner(g / n, slot))
        .collect()
}

/// The durability oracle's view of a run: which transactions wrote each
/// slot. Global transaction ids are assigned in input order from 1 on a
/// fresh database.
struct Writers {
    slots: Vec<(u64, u16)>,
    by_slot: Vec<BTreeSet<u64>>,
}

impl Writers {
    fn of(inputs: &[TxnInput], data_pages: u64) -> Self {
        let mut map: BTreeMap<(u64, u16), BTreeSet<u64>> = BTreeMap::new();
        for (i, t) in inputs.iter().enumerate() {
            for &(page, slot, dirty) in &t.accesses {
                if dirty {
                    map.entry((page % data_pages, slot))
                        .or_default()
                        .insert(i as u64 + 1);
                }
            }
        }
        let (slots, by_slot) = map.into_iter().unzip();
        Writers { slots, by_slot }
    }
}

/// A transaction generator.
trait TxnSource {
    fn next_txn(&mut self) -> Txn;
}

impl TxnSource for ShardedOltpGen {
    fn next_txn(&mut self) -> Txn {
        ShardedOltpGen::next_txn(self)
    }
}

struct OltpSpec {
    crash: bool,
    exec: ExecConfig,
    /// Transactions per round.
    txns: u64,
    /// Transactions generated per timed chunk.
    gen_batch: u64,
    /// Generator draws per transaction.
    draws_per_txn: u64,
}

/// Measure one OLTP round on a loaded `db`: generate the inputs, run
/// them, then crash and recover if the spec says so, checking
/// durability.
fn oltp_measure<B: PersistenceBackend + Devices>(
    mut db: ShardedDb<B>,
    mut gen: impl TxnSource,
    spec: &OltpSpec,
    trace: &Trace,
    setup_s: Vec<f64>,
) -> Round {
    let mut violations = Vec::new();
    if trace.is_on() {
        for s in 0..db.num_shards() {
            db.shard_mut(s).attach_probe(trace.probe.clone());
        }
    }
    let data_pages = db.data_pages();
    let mut chunks = Chunks::default();
    let mut inputs: Vec<TxnInput> = Vec::with_capacity(spec.txns as usize);
    let mut gen_s = 0.0;
    while (inputs.len() as u64) < spec.txns {
        let batch = spec.gen_batch.min(spec.txns - inputs.len() as u64);
        let ((), secs) = chunks.time(|| {
            for _ in 0..batch {
                inputs.push(txn_to_input(&gen.next_txn()));
            }
        });
        gen_s += secs;
    }
    let dev_before = db.shard(0).backend().snap();
    let eng_before = engine_snap(&db);
    let storage_before = reading(&trace.storage);
    let wal_before = reading(&trace.wal);
    let (report, run_s): (ShardedReport, f64) = chunks.time(|| db.run(&inputs, &spec.exec));
    let storage = since(reading(&trace.storage), storage_before);
    let wal = since(reading(&trace.wal), wal_before);
    let dev = db.shard(0).backend().snap().delta(dev_before);
    let eng = engine_snap(&db);

    let attempted = inputs.len() as u64;
    if report.committed + report.aborted != attempted {
        violations.push(format!(
            "committed {} + aborted {} != attempted {attempted}",
            report.committed, report.aborted
        ));
    }
    let mut failed = report.aborted
        + (eng.force_failures - eng_before.force_failures)
        + (eng.media_failures - eng_before.media_failures);

    let mut recovery_ns = 0;
    let mut recover_s = 0.0;
    let mut replayed = 0;
    if spec.crash {
        let writers = Writers::of(&inputs, data_pages);
        let committed: BTreeSet<u64> = report
            .per_shard
            .iter()
            .flat_map(|r| r.commit_order.iter().map(|&(txn, _)| txn))
            .collect();
        let before = owners(&mut db, &writers.slots);
        for (i, &owner) in before.iter().enumerate() {
            let committed_writers: Vec<u64> = writers.by_slot[i]
                .iter()
                .copied()
                .filter(|t| committed.contains(t))
                .collect();
            let ok = if committed_writers.is_empty() {
                owner == 0
            } else {
                committed_writers.contains(&owner)
            };
            if !ok {
                violations.push(format!(
                    "slot {:?} owned by txn {owner} before the crash, not by a committed writer",
                    writers.slots[i]
                ));
            }
        }
        let clock_before = db.shard(0).now();
        let (r, secs) = chunks.time(|| {
            db.crash();
            db.recover()
        });
        replayed = r;
        recover_s = secs;
        recovery_ns = db.shard(0).now().since(clock_before).as_nanos();
        let after = owners(&mut db, &writers.slots);
        let lost: BTreeSet<u64> = before
            .iter()
            .zip(&after)
            .filter(|(b, a)| b != a)
            .map(|(&b, _)| b)
            .collect();
        if !lost.is_empty() {
            violations.push(format!(
                "{} acknowledged commits lost on recovery (e.g. txn {})",
                lost.len(),
                lost.iter().next().unwrap()
            ));
            failed += lost.len() as u64;
        }
    }

    let mut latency = report.update_latency.clone();
    latency.merge(&report.read_only_latency);
    let accesses: u64 = inputs.iter().map(|t| t.accesses.len() as u64).sum();
    let ledger = db.ledger().stats();
    let page_reads = eng.page_reads - eng_before.page_reads;
    let mut counts = BTreeMap::new();
    dev.count_into(&mut counts);
    let (software_share, block_p99) = db.shard(0).backend().block_latency().unwrap_or((0.0, 0));
    counts.insert("block.software_share", software_share);
    counts.insert("block.lat_p99_us", block_p99 as f64 / 1e3);
    counts.insert("workload.draws", (spec.txns * spec.draws_per_txn) as f64);
    counts.insert("db.commits", (eng.commits - eng_before.commits) as f64);
    counts.insert("db.txns_per_force", ratio(report.committed, report.forces));
    counts.insert(
        "db.coalesced",
        report.per_shard.iter().map(|r| r.coalesced).sum::<u64>() as f64,
    );
    let ms = |after: u64, before: u64| (after - before) as f64 / 1e6;
    counts.insert(
        "db.read_stall_ms",
        ms(eng.read_stall_ns, eng_before.read_stall_ns),
    );
    counts.insert(
        "db.steal_stall_ms",
        ms(eng.steal_stall_ns, eng_before.steal_stall_ns),
    );
    counts.insert(
        "db.commit_stall_ms",
        ms(eng.commit_stall_ns, eng_before.commit_stall_ns),
    );
    counts.insert("db.page_reads", page_reads as f64);
    counts.insert(
        "db.page_writes",
        (eng.page_writes - eng_before.page_writes) as f64,
    );
    counts.insert(
        "db.steal_writes",
        (eng.steal_writes - eng_before.steal_writes) as f64,
    );
    counts.insert(
        "db.logical_writes",
        (eng.logical_writes - eng_before.logical_writes) as f64,
    );
    counts.insert("db.pool_miss_ratio", ratio(page_reads, accesses));
    counts.insert("db.cross_txns", ledger.cross_txns as f64);
    counts.insert("db.prepares", ledger.prepares as f64);
    counts.insert("db.aborted", report.aborted as f64);
    counts.insert("db.records_replayed", replayed as f64);
    counts.insert(
        "wal.log_forces",
        (eng.log_forces - eng_before.log_forces) as f64,
    );
    counts.insert(
        "wal.log_bytes",
        (eng.log_bytes - eng_before.log_bytes) as f64,
    );
    let wear = db
        .shard(0)
        .wal_backend()
        .wear()
        .map(|w| w.skew())
        .unwrap_or(0.0);
    counts.insert("pcm.wear_skew", wear);

    let logical_writes = (eng.logical_writes - eng_before.logical_writes)
        + (eng.wal_logical_writes - eng_before.wal_logical_writes);
    Round {
        sim: SimResult {
            attempted,
            completed: report.committed,
            failed,
            makespan_ns: report.makespan.as_nanos(),
            latency,
            read_latency: report.read_only_latency.clone(),
            programs: dev.flash_programs,
            logical_writes,
            recovery_ns,
            counts,
        },
        setup_s,
        chunks,
        gen_s,
        run_s,
        recover_s,
        storage,
        wal,
        submit: (0.0, 0),
        probe: trace.is_on().then(|| trace.probe.summary()),
        violations,
    }
}

// ---------------------------------------------------------------------
// oltp_block
// ---------------------------------------------------------------------

const BLOCK_SHARDS: usize = 4;
const BLOCK_DATA_PAGES: u64 = 1024;
const BLOCK_LOG_PAGES: u64 = 512;
const BLOCK_QD: usize = 4;

/// exp17's Figure-1 device: four chips behind one ONFI-2 channel.
fn figure1_device() -> SsdConfig {
    SsdConfig {
        shape: ArrayShape {
            channels: 1,
            chips_per_channel: 4,
            luns_per_chip: 1,
        },
        channel: ChannelTiming::onfi2(),
        placement: Placement::RoundRobin,
        buffer: BufferConfig { capacity_pages: 0 },
        ..SsdConfig::modern()
    }
}

fn block_builder() -> DbBuilder {
    DbConfig::builder()
        .data_pages(BLOCK_DATA_PAGES)
        .log_pages(BLOCK_LOG_PAGES)
        .buffer_frames(1024)
        .shards(BLOCK_SHARDS)
        .cross_shard_ratio(0.10)
        .concurrency(BLOCK_QD)
        .group(GroupCommitPolicy::batched(BLOCK_QD as u32))
}

/// The traced stack: `build_sharded_stack`'s steps, from public
/// constructors, with every shard backend wrapped.
fn timed_block_stack(b: &DbBuilder, trace: &Trace) -> ShardedDb<TimedBackend<BlockStackBackend>> {
    let mut stack = StackConfig::blk_mq(BLOCK_SHARDS as u32);
    stack.cores = stack.cores.max(BLOCK_SHARDS as u32);
    let per_shard = BLOCK_DATA_PAGES / BLOCK_SHARDS as u64;
    let backends = BlockStackBackend::shards(
        stack,
        figure1_device(),
        BLOCK_SHARDS,
        per_shard,
        BLOCK_LOG_PAGES,
    );
    let cfg = DbConfig {
        data_pages: per_shard,
        buffer_frames: (1024 / BLOCK_SHARDS).max(1),
        ..b.db_config()
    };
    let dbs = backends
        .into_iter()
        .map(|be| {
            let be = TimedBackend::new(
                be,
                Rc::clone(&trace.storage),
                Rc::clone(&trace.wal),
                WalSource::Inner,
            );
            Database::new(cfg.clone(), be)
        })
        .collect();
    let mut db = ShardedDb::new(dbs, BLOCK_DATA_PAGES);
    db.load();
    db
}

fn block_gen(seed: u64) -> ShardedOltpGen {
    ShardedOltpGen::new(
        ShardedOltpConfig {
            clients: 1 << 20,
            theta: 0.8,
            shards: BLOCK_SHARDS,
            cross_shard_ratio: 0.10,
            data_pages: BLOCK_DATA_PAGES,
            ..ShardedOltpConfig::default()
        },
        seed,
    )
}

fn oltp_block(seed: u64, scale: &Scale, trace: &Trace) -> Round {
    let b = block_builder();
    let spec = OltpSpec {
        crash: true,
        exec: b.exec_config(),
        txns: scale.block_txns,
        gen_batch: 1,
        draws_per_txn: u64::from(ShardedOltpConfig::default().pages_per_txn),
    };
    if trace.is_on() {
        let ((db, gen), setup_s) = median_setup(scale.setups, || {
            (timed_block_stack(&b, trace), block_gen(seed))
        });
        oltp_measure(db, gen, &spec, trace, setup_s)
    } else {
        let ((db, gen), setup_s) = median_setup(scale.setups, || {
            (
                b.build_sharded_stack(StackConfig::blk_mq(BLOCK_SHARDS as u32), figure1_device()),
                block_gen(seed),
            )
        });
        oltp_measure(db, gen, &spec, trace, setup_s)
    }
}

// ---------------------------------------------------------------------
// oltp_vision
// ---------------------------------------------------------------------

const VISION_DATA_PAGES: u64 = 1200;
const VISION_LOG_PAGES: u64 = 600;
const VISION_QD: usize = 8;

/// exp14's pressured device: two chips behind one ONFI-2 channel.
fn pressured_device() -> SsdConfig {
    SsdConfig {
        shape: ArrayShape {
            channels: 1,
            chips_per_channel: 2,
            luns_per_chip: 1,
        },
        channel: ChannelTiming::onfi2(),
        placement: Placement::RoundRobin,
        buffer: BufferConfig { capacity_pages: 0 },
        ..SsdConfig::modern()
    }
}

fn vision_builder() -> DbBuilder {
    DbConfig::builder()
        .data_pages(VISION_DATA_PAGES)
        .log_pages(VISION_LOG_PAGES)
        .buffer_frames(384)
        .checkpoint_every(300)
        .concurrency(VISION_QD)
        .group(GroupCommitPolicy::batched(VISION_QD as u32))
        .wal(WalConfig::pcm())
}

/// Hot/cold OLTP inputs: 4 pages per transaction, 20 % of the pages get
/// 80 % of the accesses, each access dirty with probability 1/2.
struct HotColdGen {
    pages: AddressPattern,
    rng: SimRng,
    next_id: u64,
}

impl HotColdGen {
    fn new(seed: u64) -> Self {
        HotColdGen {
            pages: AddressPattern::new(
                Pattern::HotCold {
                    hot_fraction: 0.2,
                    hot_probability: 0.8,
                },
                VISION_DATA_PAGES,
                seed,
            ),
            rng: SimRng::from_seed(seed).derive("oltp"),
            next_id: 0,
        }
    }
}

impl TxnSource for HotColdGen {
    fn next_txn(&mut self) -> Txn {
        let id = self.next_id;
        self.next_id += 1;
        let accesses = (0..4)
            .map(|_| PageAccess {
                page: self.pages.next_addr(),
                dirty: !self.rng.chance(0.5),
            })
            .collect();
        Txn {
            id,
            accesses,
            log_bytes: 256,
        }
    }
}

fn oltp_vision(seed: u64, scale: &Scale, trace: &Trace) -> Round {
    let b = vision_builder();
    let spec = OltpSpec {
        crash: false,
        exec: b.exec_config(),
        txns: scale.vision_txns,
        gen_batch: 1000,
        draws_per_txn: 4,
    };
    let coop = || {
        CoopLogBackend::new(
            NamelessConfig::from(&pressured_device()),
            VISION_DATA_PAGES,
            VISION_LOG_PAGES,
        )
    };
    if trace.is_on() {
        // the engine asks the wrapper for its WAL, which builds the same
        // PCM WAL `Database::new` builds for `WalConfig::Pcm`
        let cfg = DbConfig {
            wal: WalConfig::Flash,
            ..b.db_config()
        };
        let ((db, gen), setup_s) = median_setup(scale.setups, || {
            let be = TimedBackend::new(
                coop(),
                Rc::clone(&trace.storage),
                Rc::clone(&trace.wal),
                WalSource::Pcm(PcmWalConfig::default()),
            );
            let mut db = ShardedDb::new(vec![Database::new(cfg.clone(), be)], VISION_DATA_PAGES);
            db.load();
            (db, HotColdGen::new(seed))
        });
        oltp_measure(db, gen, &spec, trace, setup_s)
    } else {
        let ((db, gen), setup_s) = median_setup(scale.setups, || {
            let mut db = ShardedDb::new(
                vec![Database::new(b.db_config(), coop())],
                VISION_DATA_PAGES,
            );
            db.load();
            (db, HotColdGen::new(seed))
        });
        oltp_measure(db, gen, &spec, trace, setup_s)
    }
}

// ---------------------------------------------------------------------
// ssd_aging
// ---------------------------------------------------------------------

const AGING_QD: usize = 8;
/// I/Os per timed chunk and GC-debt sample.
const AGING_WINDOW: u64 = 1024;
/// I/Os per windowed-WA sample for the plateau (exp16's window).
const WA_WINDOW: u64 = 4096;

/// What one closed-loop window measured.
#[derive(Default)]
struct Window {
    issued: u64,
    completed: u64,
    errors: u64,
    end: SimTime,
}

/// A closed loop of `ops` I/Os at [`AGING_QD`] in flight from `start`;
/// reads with probability `read_fraction`. Latencies go to `all` (and
/// reads also to `reads`).
#[allow(clippy::too_many_arguments)]
fn closed_loop(
    ssd: &mut Ssd,
    pattern: &mut AddressPattern,
    read_fraction: f64,
    ops: u64,
    seed: u64,
    start: SimTime,
    trace: &Trace,
    all: &mut Histogram,
    mut reads: Option<&mut Histogram>,
) -> Window {
    let mut rng = SimRng::from_seed(seed).derive("driver-mix");
    let mut qp = QueuePair::new(AGING_QD);
    let mut w = Window {
        end: start,
        ..Window::default()
    };
    let mut in_flight = 0usize;
    let mut reap = |c: requiem_sim::IoCompletion, w: &mut Window| {
        if c.status.is_success() {
            w.completed += 1;
        } else {
            w.errors += 1;
        }
        all.record_duration(c.latency());
        if c.op == requiem_sim::IoOp::Read {
            if let Some(r) = reads.as_deref_mut() {
                r.record_duration(c.latency());
            }
        }
        w.end = w.end.max(c.done);
        c.done
    };
    while w.issued < ops {
        let now = if in_flight >= AGING_QD {
            let c = qp.pop().expect("completions outstanding");
            in_flight -= 1;
            reap(c, &mut w)
        } else {
            start
        };
        let lba = trace.gen.time(|| pattern.next_addr());
        let req = if rng.chance(read_fraction) {
            IoRequest::read(lba)
        } else {
            IoRequest::write(lba)
        };
        w.issued += 1;
        if trace.submit.time(|| qp.submit(ssd, now, req)).is_err() {
            // insolvency: the device found no space for the write
            w.errors += 1;
            break;
        }
        in_flight += 1;
    }
    while let Some(c) = qp.pop() {
        reap(c, &mut w);
    }
    w
}

fn aging_config() -> AgingConfig {
    AgingConfig {
        ftl: FtlKind::PageMap,
        gc: GcPolicyKind::Greedy,
        op_ratio: 0.07,
    }
}

struct Aged {
    ssd: Ssd,
    start: SimTime,
    baseline_free: Vec<u32>,
    overwrite: AddressPattern,
    mixed: AddressPattern,
    fill_ok: bool,
}

/// Build the device and fill it sequentially to 100 % mapped.
fn aged_device(seed: u64) -> Aged {
    let mut ssd = Ssd::new(aging::device(&aging_config()));
    let pages = ssd.capacity().exported_pages;
    let off = Trace::off();
    let mut scratch = Histogram::new();
    let fill = closed_loop(
        &mut ssd,
        &mut AddressPattern::new(Pattern::Sequential, pages, seed),
        0.0,
        pages,
        seed,
        SimTime::ZERO,
        &off,
        &mut scratch,
        None,
    );
    Aged {
        baseline_free: ssd.free_blocks_per_lun(),
        start: fill.end,
        fill_ok: fill.errors == 0 && fill.completed == pages,
        overwrite: AddressPattern::new(Pattern::Zipfian { theta: 0.9 }, pages, seed ^ 0xA5),
        mixed: AddressPattern::new(Pattern::Zipfian { theta: 0.99 }, pages, seed ^ 0x5A),
        ssd,
    }
}

fn ssd_aging(seed: u64, scale: &Scale, trace: &Trace) -> Round {
    let (mut aged, setup_s) = median_setup(scale.setups, || aged_device(seed));
    let mut violations = Vec::new();
    if !aged.fill_ok {
        violations.push("sequential fill did not complete every write".to_string());
    }
    if trace.is_on() {
        aged.ssd.attach_probe(trace.probe.clone());
    }
    let before = DevSnap::from_metrics(aged.ssd.metrics());
    let mut latency = Histogram::new();
    let mut read_latency = Histogram::new();
    let mut points = Vec::new();
    let mut peak_debt = 0u32;
    let mut t = aged.start;
    let mut issued = 0;
    let mut completed = 0;
    let mut errors = 0;
    let gen_before = reading(&trace.gen);
    let submit_before = reading(&trace.submit);
    let mut chunks = Chunks::default();
    let phases = [
        ("overwrite", scale.aging_overwrites, 0.0),
        ("mixed", scale.aging_mixed, 0.5),
    ];
    for (phase, ops, read_fraction) in phases {
        let mut done = 0;
        let mut window_start = DevSnap::from_metrics(aged.ssd.metrics());
        while done < ops && errors == 0 {
            let n = AGING_WINDOW.min(ops - done);
            let pattern = if phase == "overwrite" {
                &mut aged.overwrite
            } else {
                &mut aged.mixed
            };
            let reads = (phase == "mixed").then_some(&mut read_latency);
            let (w, _) = chunks.time(|| {
                closed_loop(
                    &mut aged.ssd,
                    pattern,
                    read_fraction,
                    n,
                    seed.wrapping_add(issued),
                    t,
                    trace,
                    &mut latency,
                    reads,
                )
            });
            t = w.end;
            done += w.issued;
            issued += w.issued;
            completed += w.completed;
            errors += w.errors;
            let debt: u32 = aged
                .ssd
                .free_blocks_per_lun()
                .iter()
                .zip(&aged.baseline_free)
                .map(|(&f, &b)| b.saturating_sub(f))
                .sum();
            peak_debt = peak_debt.max(debt);
            if done % WA_WINDOW == 0 || done >= ops {
                let now = DevSnap::from_metrics(aged.ssd.metrics());
                let cur = now.delta(window_start);
                window_start = now;
                points.push(AgingPoint {
                    phase,
                    ops: issued,
                    wa_window: ratio(cur.flash_programs, cur.host_writes),
                    wa_cum: 0.0,
                    free_blocks: 0,
                    gc_debt: debt,
                    gc_runs: cur.gc_runs,
                    merges: 0,
                    p99_ns: 0,
                    p999_ns: 0,
                    iops: 0.0,
                });
            }
        }
    }
    let gen = since(reading(&trace.gen), gen_before);
    let submit = since(reading(&trace.submit), submit_before);
    if completed + errors != issued {
        violations.push(format!(
            "completed {completed} + failed {errors} != issued {issued}"
        ));
    }
    let dev = DevSnap::from_metrics(aged.ssd.metrics()).delta(before);
    let mut counts = BTreeMap::new();
    dev.count_into(&mut counts);
    counts.insert("workload.draws", issued as f64);
    counts.insert("ssd.gc_debt_peak", f64::from(peak_debt));
    counts.insert(
        "ssd.wa_plateau",
        aging::plateau(&points, 4, 0.25).unwrap_or(0.0),
    );
    Round {
        sim: SimResult {
            attempted: issued,
            completed,
            failed: errors,
            makespan_ns: t.since(aged.start).as_nanos(),
            latency,
            read_latency,
            programs: dev.flash_programs,
            logical_writes: dev.host_writes,
            recovery_ns: 0,
            counts,
        },
        setup_s,
        chunks,
        gen_s: gen.0,
        run_s: 0.0,
        recover_s: 0.0,
        storage: (0.0, 0),
        wal: (0.0, 0),
        submit,
        probe: trace.is_on().then(|| trace.probe.summary()),
        violations,
    }
}
