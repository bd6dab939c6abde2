//! Property tests for deterministic fault injection: a faulty run is a
//! *function of its seed* — replaying the same [`FaultPlan`] over the
//! same workload reproduces every completion instant, every status, and
//! every recovery counter bit-for-bit; a zero-fault plan is
//! indistinguishable from no plan at all; and the probe bus's span
//! tiling invariant survives the recovery ladder's extra occupancy.

use proptest::prelude::*;
use requiem_sim::time::{SimDuration, SimTime};
use requiem_sim::{Cause, FaultPlan, IoStatus, Probe, SpanEvent};
use requiem_ssd::{BufferConfig, Lpn, Ssd, SsdConfig};

#[derive(Debug, Clone)]
enum HostOp {
    Write(u64),
    Read(u64),
    Trim(u64),
}

fn ops() -> impl Strategy<Value = Vec<HostOp>> {
    proptest::collection::vec(
        prop_oneof![
            3 => (0..128u64).prop_map(HostOp::Write),
            3 => (0..128u64).prop_map(HostOp::Read),
            1 => (0..128u64).prop_map(HostOp::Trim),
        ],
        1..120,
    )
}

/// A small two-LUN write-through device carrying `plan`.
fn small_cfg(plan: FaultPlan) -> SsdConfig {
    let mut cfg = SsdConfig::modern();
    cfg.shape.channels = 2;
    cfg.shape.chips_per_channel = 1;
    cfg.buffer = BufferConfig { capacity_pages: 0 };
    cfg.fault = plan;
    cfg
}

/// Drive `ops` and fold every observable into a replayable trace string:
/// completion instants, statuses, serving layer, and (at the end) the
/// full metrics including the recovery pipeline counters.
fn trace(cfg: SsdConfig, ops: &[HostOp]) -> Vec<String> {
    let mut ssd = Ssd::new(cfg);
    let space = 128u64.min(ssd.capacity().exported_pages);
    let mut t = SimTime::ZERO;
    let mut out = Vec::with_capacity(ops.len() + 1);
    for op in ops {
        let line = match op {
            HostOp::Write(lpn) => match ssd.write(t, Lpn(lpn % space)) {
                Ok(c) => {
                    t = c.done;
                    format!(
                        "w {} {:?} {:?} {:?}",
                        lpn % space,
                        c.done,
                        c.served,
                        c.status
                    )
                }
                Err(e) => format!("w {} err {e}", lpn % space),
            },
            HostOp::Read(lpn) => match ssd.read(t, Lpn(lpn % space)) {
                Ok(c) => {
                    t = c.done;
                    format!(
                        "r {} {:?} {:?} {:?}",
                        lpn % space,
                        c.done,
                        c.served,
                        c.status
                    )
                }
                Err(e) => format!("r {} err {e}", lpn % space),
            },
            HostOp::Trim(lpn) => match ssd.trim(t, Lpn(lpn % space)) {
                Ok(c) => {
                    t = c.done;
                    format!("t {} {:?} {:?}", lpn % space, c.done, c.status)
                }
                Err(e) => format!("t {} err {e}", lpn % space),
            },
        };
        out.push(line);
    }
    out.push(format!("drain {:?}", ssd.drain_time()));
    out.push(format!("metrics {:?}", ssd.metrics()));
    out
}

proptest! {
    /// A seeded fault plan replays bit-identically: same seed, same
    /// workload → same completions, statuses, and recovery counters.
    #[test]
    fn fault_injected_runs_replay_bit_identically(
        seed in 0u64..1_000,
        mult_idx in 0usize..3,
        program_fails in 0u32..4,
        erase_fails in 0u32..3,
        hiccups in 0u32..3,
        ops in ops(),
    ) {
        let mult = [5.0e4, 1.0e5, 3.0e5][mult_idx];
        let plan = FaultPlan::seeded(seed, 2, 2, mult, program_fails, erase_fails, hiccups, 4096);
        let a = trace(small_cfg(plan.clone()), &ops);
        let b = trace(small_cfg(plan), &ops);
        prop_assert_eq!(a, b, "two runs of one plan diverged");
    }

    /// A seeded plan with unit multiplier and zero scheduled faults is
    /// byte-identical to [`FaultPlan::none`] — the identity plan really
    /// is the identity, schedules and all.
    #[test]
    fn zero_fault_plan_is_the_identity(seed in 0u64..1_000, ops in ops()) {
        let empty = FaultPlan::seeded(seed, 2, 2, 1.0, 0, 0, 0, 4096);
        prop_assert!(empty.is_none(), "zero-count seeded plan must be none");
        let a = trace(small_cfg(empty), &ops);
        let b = trace(small_cfg(FaultPlan::none()), &ops);
        prop_assert_eq!(a, b, "zero-fault plan changed behaviour");
    }
}

/// Assert the spans attributed to command `id` tile `[submit, done)`
/// contiguously (no gap, no overlap) and return them.
fn assert_tiles(probe: &Probe, id: u64) -> Vec<SpanEvent> {
    let cmds = probe.commands_ref();
    let rec = cmds.iter().find(|c| c.id == id).expect("command recorded");
    let done = rec.done.expect("command closed");
    let spans = probe.command_spans(id);
    assert!(!spans.is_empty(), "command {id} has no spans");
    let mut cursor = rec.submit;
    for s in &spans {
        assert_eq!(
            s.start, cursor,
            "gap/overlap before {:?}/{:?} span at {} (cursor {cursor}) in cmd {id}",
            s.layer, s.cause, s.start
        );
        cursor = s.end;
    }
    assert_eq!(cursor, done, "spans do not reach the completion instant");
    let total: SimDuration = spans
        .iter()
        .map(SpanEvent::duration)
        .fold(SimDuration::ZERO, |a, b| a + b);
    assert_eq!(
        total,
        done.since(rec.submit),
        "span durations must sum to end-to-end latency of cmd {id}"
    );
    spans
}

/// With RBER elevated into the retry band, recovered reads still tile
/// their `[submit, done)` interval exactly — the ladder's rungs are
/// attributed, not smeared.
#[test]
fn recovered_reads_tile_their_latency() {
    let mut cfg = small_cfg(FaultPlan::uniform_rber(1.0e5));
    cfg.shape.channels = 1; // single LUN: stage 3 impossible, but 1→2 engage
    cfg.shape.chips_per_channel = 1;
    let mut ssd = Ssd::new(cfg);
    let probe = Probe::recording();
    ssd.attach_probe(probe.clone());

    let mut t = SimTime::ZERO;
    for lpn in 0..16u64 {
        t = ssd.write(t, Lpn(lpn)).expect("write").done;
    }
    let mut recovered = 0u64;
    for lpn in 0..16u64 {
        let c = ssd.read(t, Lpn(lpn)).expect("read");
        t = c.done;
        let id = probe.commands_ref().last().expect("recorded").id;
        let spans = assert_tiles(&probe, id);
        if matches!(c.status, IoStatus::RecoveredAfterRetry { .. }) {
            recovered += 1;
            assert!(
                spans.iter().any(|s| s.cause == Cause::Recovery),
                "recovered read must carry Recovery spans"
            );
        }
    }
    assert!(recovered > 0, "RBER 1e5x must force recoveries");
    assert!(ssd.metrics().recovery.retry_recovered > 0);
}

/// Even reads that exhaust the whole ladder (peerless device, extreme
/// RBER → `Unrecoverable`) must tile — failure is a first-class,
/// fully-attributed outcome, not an accounting hole.
#[test]
fn unrecoverable_reads_tile_their_latency() {
    let mut cfg = small_cfg(FaultPlan::uniform_rber(1.0e7));
    cfg.shape.channels = 1;
    cfg.shape.chips_per_channel = 1;
    let mut ssd = Ssd::new(cfg);
    let probe = Probe::recording();
    ssd.attach_probe(probe.clone());

    let mut t = SimTime::ZERO;
    for lpn in 0..8u64 {
        t = ssd.write(t, Lpn(lpn)).expect("write").done;
    }
    let mut unrecoverable = 0u64;
    for lpn in 0..8u64 {
        let c = ssd.read(t, Lpn(lpn)).expect("read");
        t = c.done;
        let id = probe.commands_ref().last().expect("recorded").id;
        assert_tiles(&probe, id);
        if c.status == IoStatus::Unrecoverable {
            unrecoverable += 1;
        }
    }
    assert!(unrecoverable > 0, "extreme RBER with no peers must exhaust");
    assert_eq!(
        ssd.metrics().recovery.parity_rebuilds,
        0,
        "no peers to read"
    );
    let statuses = probe.summary().statuses;
    assert_eq!(statuses.get("unrecoverable"), Some(&unrecoverable));
}

/// A program that fails still held its LUN for the whole tPROG: the
/// write that hit it completes no earlier than a clean write plus one
/// more tPROG (salvage and retry start when the failed attempt ends),
/// and its spans still tile the latency.
#[test]
fn failed_program_occupies_its_lun_for_tprog() {
    let cfg = |plan: FaultPlan| {
        let mut cfg = small_cfg(plan);
        cfg.shape.channels = 1;
        cfg.shape.chips_per_channel = 1;
        cfg
    };
    let clean = cfg(FaultPlan::none());
    let tprog = clean.flash.timing.program(0);
    let clean_done = Ssd::new(clean)
        .write(SimTime::ZERO, Lpn(0))
        .expect("write")
        .done;

    let mut ssd = Ssd::new(cfg(FaultPlan::none().with_program_fail(0, vec![0])));
    let probe = Probe::recording();
    ssd.attach_probe(probe.clone());
    let c = ssd.write(SimTime::ZERO, Lpn(0)).expect("write");
    assert_eq!(ssd.metrics().recovery.program_salvages, 1);
    assert!(
        c.done >= clean_done + tprog,
        "failed program cost no tPROG: done {} vs clean {} + {}",
        c.done,
        clean_done,
        tprog
    );
    let id = probe.commands_ref().last().expect("recorded").id;
    let spans = assert_tiles(&probe, id);
    let programs = spans
        .iter()
        .filter(|s| s.cause == Cause::CellProgram)
        .count();
    assert_eq!(programs, 2, "the failed attempt and the retry");
}
