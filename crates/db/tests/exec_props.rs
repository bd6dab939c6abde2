//! Property tests for the completion-driven executor, driven through
//! its one event loop (a one-shard [`ShardedDb`]):
//!
//! 1. **Group commit never reorders LSNs** — the durability order the
//!    executor reports is exactly WAL order, for any mix, concurrency,
//!    and batching policy.
//! 2. **Coalesced fetches return identical bytes** — a workload
//!    engineered so concurrent transactions pile onto the same in-flight
//!    page reads must leave the database byte-for-byte where independent
//!    (serialized) fetches leave it.
//! 3. **The QD-1 identity holds under random access mixes** — on every
//!    storage manager (legacy, block stack, cooperating logs, vision)
//!    and both WAL media (flash, PCM), for a half-dirty mix and a
//!    commit-heavy one, the executor at concurrency 1 replays the
//!    serialized `execute()` engine bit for bit.
//! 4. **Forces park instead of stalling the loop** — an immediate
//!    policy keeps one force per commit at depth, and the PCM WAL turns
//!    queue depth into throughput.

use proptest::prelude::*;
use requiem_block::StackConfig;
use requiem_db::{
    BlockStackBackend, CoopLogBackend, Database, DbConfig, ExecConfig, GroupCommitPolicy,
    PcmWalConfig, PersistenceBackend, ShardedDb, ShardedReport, TxnInput, VisionBackend, WalConfig,
};
use requiem_iface::nameless::NamelessConfig;
use requiem_pcm::PcmTiming;
use requiem_sim::SimRng;
use requiem_ssd::SsdConfig;

const DATA_PAGES: u64 = 64;
const LOG_PAGES: u64 = 64;
const SLOTS: u16 = 16;

fn bare_ssd() -> SsdConfig {
    let mut cfg = SsdConfig::modern();
    cfg.buffer.capacity_pages = 0;
    cfg
}

fn small_db(buffer_frames: usize) -> Database<BlockStackBackend> {
    let cfg = DbConfig {
        data_pages: DATA_PAGES,
        buffer_frames,
        ..DbConfig::default()
    };
    let mut db = Database::new(
        cfg,
        BlockStackBackend::new(StackConfig::bare(1), bare_ssd(), DATA_PAGES, 64),
    );
    db.load();
    db
}

/// The single executor: the coordinator over one shard of `pages` pages.
fn run_one<B: PersistenceBackend>(
    db: Database<B>,
    pages: u64,
    inputs: &[TxnInput],
    cfg: &ExecConfig,
) -> (ShardedDb<B>, ShardedReport) {
    let mut one = ShardedDb::new(vec![db], pages);
    let report = one.run(inputs, cfg);
    (one, report)
}

/// One random transaction over `pages` pages; each access is dirty
/// with probability `dirty_quarters / 4`.
fn arb_txn(pages: u64, dirty_quarters: u8) -> impl Strategy<Value = TxnInput> {
    (
        proptest::collection::vec((0..pages, 0..SLOTS, 0u8..4), 1..6),
        32u32..512,
    )
        .prop_map(move |(raw, log_bytes)| TxnInput {
            accesses: raw
                .into_iter()
                .map(|(page, slot, d)| (page, slot, d < dirty_quarters))
                .collect(),
            log_bytes,
        })
}

fn arb_inputs() -> impl Strategy<Value = Vec<TxnInput>> {
    proptest::collection::vec(arb_txn(DATA_PAGES, 2), 1..24)
}

/// Every (page, slot)'s visible owner — the byte-level observable.
fn owners<B: PersistenceBackend>(db: &mut Database<B>, pages: u64) -> Vec<u64> {
    (0..pages)
        .flat_map(|p| (0..SLOTS).map(move |s| (p, s)))
        .map(|(p, s)| db.visible_owner(p, s))
        .collect()
}

/// An identity workload: the key space, the pool it runs in, and the
/// share of dirty accesses (in quarters).
#[derive(Clone, Copy)]
struct Shape {
    pages: u64,
    frames: usize,
    dirty_quarters: u8,
}

/// Half the accesses dirty over 64 pages in a 16-frame pool.
const MIXED: Shape = Shape {
    pages: DATA_PAGES,
    frames: 16,
    dirty_quarters: 2,
};
/// Commit-heavy: three quarters of the accesses dirty over 96 pages in
/// a 24-frame pool — the shape where the WAL medium matters most.
const COMMIT_HEAVY: Shape = Shape {
    pages: 96,
    frames: 24,
    dirty_quarters: 3,
};

/// Up to 40 random transactions of one shape.
fn arb_mix(shape: Shape) -> impl Strategy<Value = Vec<TxnInput>> {
    proptest::collection::vec(arb_txn(shape.pages, shape.dirty_quarters), 1..40)
}

/// A small pool (steals) and, when `checkpoint_every > 0`, frequent
/// checkpoints (log truncation), so the identity covers every WAL call
/// site, not just the commit force.
fn loaded<B: PersistenceBackend>(
    shape: Shape,
    wal: &WalConfig,
    checkpoint_every: u64,
    backend: B,
) -> Database<B> {
    let cfg = DbConfig {
        data_pages: shape.pages,
        buffer_frames: shape.frames,
        checkpoint_every,
        wal: wal.clone(),
        ..DbConfig::default()
    };
    let mut db = Database::new(cfg, backend);
    db.load();
    db
}

/// QD 1 on the coordinator == serialized `execute()`: clock, stall
/// ledger, histograms, WAL counters, PCM wear, device counters, and
/// every record owner — with nothing coalesced or prefetched.
fn assert_qd1_identity<B: PersistenceBackend>(
    label: &str,
    shape: Shape,
    make: impl Fn() -> Database<B>,
    inputs: &[TxnInput],
) -> Result<(), TestCaseError> {
    let mut serial = make();
    for t in inputs {
        serial.execute(&t.accesses, t.log_bytes);
    }
    let (mut one, report) = run_one(make(), shape.pages, inputs, &ExecConfig::serialized());
    prop_assert_eq!(
        report.committed,
        inputs.len() as u64,
        "{}: committed",
        label
    );
    let exec = &report.per_shard[0];
    prop_assert_eq!(exec.coalesced, 0, "{}: coalesced fetches", label);
    prop_assert_eq!(exec.prefetch.issued, 0, "{}: prefetches", label);
    let conc = one.shard_mut(0);
    prop_assert_eq!(conc.now(), serial.now(), "{}: clock", label);
    prop_assert_eq!(conc.stats(), serial.stats(), "{}: stall ledger", label);
    prop_assert_eq!(
        conc.txn_latency(),
        serial.txn_latency(),
        "{}: txn histogram",
        label
    );
    prop_assert_eq!(
        conc.commit_latency(),
        serial.commit_latency(),
        "{}: commit histogram",
        label
    );
    let (cw, sw) = (conc.wal_backend().stats(), serial.wal_backend().stats());
    prop_assert_eq!(cw.log_forces, sw.log_forces, "{}: log forces", label);
    prop_assert_eq!(cw.log_bytes, sw.log_bytes, "{}: log bytes", label);
    prop_assert_eq!(
        conc.wal_backend().wear().map(|w| w.total_line_writes),
        serial.wal_backend().wear().map(|w| w.total_line_writes),
        "{}: start-gap wear",
        label
    );
    let (cb, sb) = (conc.backend().stats(), serial.backend().stats());
    prop_assert_eq!(cb.page_reads, sb.page_reads, "{}: page reads", label);
    prop_assert_eq!(cb.steal_writes, sb.steal_writes, "{}: steal writes", label);
    prop_assert_eq!(
        owners(conc, shape.pages),
        owners(&mut serial, shape.pages),
        "{}: record owners",
        label
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Durability order == WAL order: the executor's reported
    /// `commit_order` is strictly increasing in LSN, covers every
    /// transaction exactly once, and every reported LSN is flushed.
    #[test]
    fn group_commit_never_reorders_lsns(
        inputs in arb_inputs(),
        concurrency in 1usize..6,
        batch in 1u32..8,
    ) {
        let cfg = ExecConfig {
            concurrency,
            group: GroupCommitPolicy::batched(batch),
            ..ExecConfig::serialized()
        };
        let (db, report) = run_one(small_db(16), DATA_PAGES, &inputs, &cfg);
        let commit_order = &report.per_shard[0].commit_order;
        prop_assert_eq!(commit_order.len(), inputs.len());
        for w in commit_order.windows(2) {
            prop_assert!(
                w[0].1 < w[1].1,
                "durability order must be strictly increasing in LSN: {:?} then {:?}",
                w[0], w[1]
            );
        }
        let mut txns: Vec<u64> = commit_order.iter().map(|&(t, _)| t).collect();
        txns.sort_unstable();
        txns.dedup();
        prop_assert_eq!(txns.len(), inputs.len(), "each txn commits exactly once");
        let flushed = db.shard(0).wal().flushed();
        let max_lsn = commit_order.iter().map(|&(_, l)| l).max();
        if let (Some(f), Some(m)) = (flushed, max_lsn) {
            prop_assert!(m <= f, "every reported commit LSN must be durable");
        }
    }

    /// Coalescing must be invisible in the bytes: a run whose demand
    /// fetches pile onto in-flight reads (tiny pool, shared hot pages,
    /// disjoint writes) ends with exactly the record owners a serialized
    /// run produces. Disjoint write sets make the final image
    /// order-independent, so any byte difference is a coalescing bug.
    #[test]
    fn coalesced_fetches_return_identical_bytes(
        hot in proptest::collection::vec(0..DATA_PAGES, 1..4),
        seed_pages in proptest::collection::vec(0..DATA_PAGES, 8..24),
        concurrency in 2usize..6,
    ) {
        // each txn reads the shared hot pages, then writes its own page
        let inputs: Vec<TxnInput> = seed_pages
            .iter()
            .enumerate()
            .map(|(i, &p)| {
                let mut accesses: Vec<(u64, u16, bool)> =
                    hot.iter().map(|&h| (h, (h % u64::from(SLOTS)) as u16, false)).collect();
                // unique (page, slot) per txn: page stride + slot from index
                let page = (p + i as u64) % DATA_PAGES;
                accesses.push((page, (i as u16) % SLOTS, true));
                TxnInput { accesses, log_bytes: 64 }
            })
            .collect();
        let mut serial = small_db(4);
        for t in &inputs {
            serial.execute(&t.accesses, t.log_bytes);
        }
        let cfg = ExecConfig {
            concurrency,
            ..ExecConfig::serialized()
        };
        let (mut conc, _) = run_one(small_db(4), DATA_PAGES, &inputs, &cfg);
        prop_assert_eq!(owners(conc.shard_mut(0), DATA_PAGES), owners(&mut serial, DATA_PAGES));
    }
}

/// The identity on every storage manager × WAL medium for one shape.
fn assert_qd1_identity_everywhere(
    shape_name: &str,
    shape: Shape,
    inputs: &[TxnInput],
) -> Result<(), TestCaseError> {
    let pcm = WalConfig::Pcm(PcmWalConfig {
        bytes: 1 << 20,
        timing: PcmTiming::gen1(),
        gap_interval: 64,
    });
    let pages = shape.pages;
    for (medium, wal) in [("flash", WalConfig::Flash), ("pcm", pcm)] {
        // the legacy design: the block-interface manager on a bare stack
        assert_qd1_identity(
            &format!("{shape_name}/legacy/{medium}"),
            shape,
            || {
                loaded(
                    shape,
                    &wal,
                    16,
                    BlockStackBackend::new(StackConfig::bare(1), bare_ssd(), pages, LOG_PAGES),
                )
            },
            inputs,
        )?;
        assert_qd1_identity(
            &format!("{shape_name}/stack/{medium}"),
            shape,
            || {
                let be = BlockStackBackend::new(
                    StackConfig::blk_mq(1),
                    SsdConfig::modern(),
                    pages,
                    LOG_PAGES,
                );
                loaded(shape, &wal, 16, be)
            },
            inputs,
        )?;
        assert_qd1_identity(
            &format!("{shape_name}/coop/{medium}"),
            shape,
            || {
                let nameless = NamelessConfig::from(&SsdConfig::modern());
                loaded(
                    shape,
                    &wal,
                    16,
                    CoopLogBackend::new(nameless, pages, LOG_PAGES),
                )
            },
            inputs,
        )?;
        assert_qd1_identity(
            &format!("{shape_name}/vision/{medium}"),
            shape,
            || {
                let be = VisionBackend::new(SsdConfig::modern(), pages, 1 << 22);
                loaded(shape, &wal, 16, be)
            },
            inputs,
        )?;
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The QD-1 identity under arbitrary mixes, on every storage manager
    /// × WAL medium, for a half-dirty mix and a commit-heavy one:
    /// concurrency 1 + prefetch off + immediate forces replays the
    /// serialized engine bit for bit.
    #[test]
    fn qd1_identity_on_every_manager_and_wal(
        mixed in arb_mix(MIXED),
        heavy in arb_mix(COMMIT_HEAVY),
    ) {
        assert_qd1_identity_everywhere("mixed", MIXED, &mixed)?;
        assert_qd1_identity_everywhere("commit-heavy", COMMIT_HEAVY, &heavy)?;
    }
}

/// E15's shape: four uniformly drawn pages per transaction, 80 % of
/// the accesses dirty, 256 log bytes each.
fn commit_heavy_inputs(count: usize, pages: u64, seed: u64) -> Vec<TxnInput> {
    let mut rng = SimRng::from_seed(seed);
    (0..count)
        .map(|_| TxnInput {
            accesses: (0..4)
                .map(|_| {
                    let page = rng.below(pages);
                    (page, (page % u64::from(SLOTS)) as u16, rng.chance(0.8))
                })
                .collect(),
            log_bytes: 256,
        })
        .collect()
}

/// Forces park their completion instead of advancing the executor's
/// clock, so independent slots keep running through a force. Two
/// consequences pin that semantics: an immediate policy still issues
/// (nearly) one force per commit at depth — it does not collapse into
/// an accidental group commit of slots piled up behind each force —
/// and the PCM WAL, whose forces cost microseconds, turns queue depth
/// into throughput.
#[test]
fn parked_forces_keep_immediate_commits_independent() {
    const PAGES: u64 = 1024;
    const TXNS: usize = 600;
    let inputs = commit_heavy_inputs(TXNS, PAGES, 15);
    let run = |wal: WalConfig, qd: usize| {
        let b = DbConfig::builder()
            .data_pages(PAGES)
            .log_pages(512)
            .buffer_frames(512)
            .group(GroupCommitPolicy::immediate())
            .concurrency(qd)
            .wal(wal);
        let mut one = ShardedDb::new(
            vec![b.build_stack(StackConfig::bare(1), SsdConfig::figure1())],
            PAGES,
        );
        one.run(&inputs, &b.exec_config())
    };
    let flash = run(WalConfig::Flash, 8);
    assert_eq!(flash.committed, TXNS as u64);
    assert!(
        flash.forces * 100 >= flash.committed * 95,
        "an immediate policy at QD 8 must force (nearly) every commit on its own: \
         {} forces for {} commits",
        flash.forces,
        flash.committed
    );
    let pcm1 = run(WalConfig::pcm(), 1);
    let pcm8 = run(WalConfig::pcm(), 8);
    assert!(
        pcm8.tps >= 1.5 * pcm1.tps,
        "the PCM WAL must scale with queue depth: QD 8 {:.0} TPS vs QD 1 {:.0} TPS",
        pcm8.tps,
        pcm1.tps
    );
}
