//! Same flash, same controller: a nameless device and a page-mapped
//! block SSD built from one [`SsdConfig`] must agree command for command.
//!
//! The two differ only in who holds the names. The block side keeps a
//! page map and the host speaks LPNs; the nameless side keeps no map and
//! the host patches its own index from `Migrated` upcalls. Every flash
//! operation underneath — placement, programs, GC relocations and
//! erases, the read-recovery ladder, salvage of failed programs, channel
//! hiccups — is the same controller's, so completion instants, statuses
//! and flash counters must match exactly, with and without injected
//! faults. This is what makes the interface comparisons of E8, E14 and
//! the `oltp_vision` benchmark compare interfaces rather than two
//! diverging flash models.

use requiem_iface::comm::Upcall;
use requiem_iface::nameless::{NamelessConfig, NamelessSsd, PhysName};
use requiem_sim::time::SimTime;
use requiem_sim::FaultPlan;
use requiem_ssd::{Lpn, Placement, Ssd, SsdConfig, SsdMetrics};

/// Modern flash on 2 channels × 2 chips, no write buffer, least-loaded
/// placement (the nameless device's placement).
fn config(fault: FaultPlan) -> SsdConfig {
    let mut cfg = SsdConfig::modern();
    cfg.shape.channels = 2;
    cfg.shape.chips_per_channel = 2;
    cfg.buffer.capacity_pages = 0;
    cfg.placement = Placement::LeastLoaded;
    cfg.fault = fault;
    cfg
}

/// Flash reads, programs, erases, GC pages moved, blocks retired and
/// uncorrectable first senses.
fn flash_counts(m: &SsdMetrics) -> [u64; 6] {
    [
        m.flash_reads.total(),
        m.flash_programs.total(),
        m.flash_erases.total(),
        m.gc_pages_moved,
        m.blocks_retired,
        m.uncorrectable_reads,
    ]
}

/// Patch the host index from the device's pending `Migrated` upcalls.
fn apply_upcalls(dev: &mut NamelessSsd, names: &mut [PhysName]) {
    for u in dev.upcalls().drain() {
        if let Upcall::Migrated { tag, new, .. } = u {
            names[tag as usize] = new;
        }
    }
}

/// Fill 80 % of the exported pages, then run six fills' worth of churn
/// (trim + rewrite against free + rewrite, every fourth op a read) on
/// both devices in lockstep.
fn twin_run(fault: FaultPlan) {
    let cfg = config(fault);
    let mut block = Ssd::new(cfg.clone());
    let mut named = NamelessSsd::new(NamelessConfig::from(&cfg));
    let live = block.capacity().exported_pages * 8 / 10;
    let mut names: Vec<PhysName> = Vec::with_capacity(live as usize);
    let mut t = SimTime::ZERO;
    for tag in 0..live {
        let b = block.write(t, Lpn(tag)).expect("block fill write");
        let n = named.write(t, tag).expect("nameless fill write");
        assert_eq!((b.done, b.status), (n.done, n.status), "fill write {tag}");
        names.push(n.name);
        apply_upcalls(&mut named, &mut names);
        t = b.done;
    }
    let mut x = 12345u64;
    for step in 0..live * 6 {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let tag = (x >> 16) % live;
        let name = names[tag as usize];
        if step % 4 == 3 {
            let b = block.read(t, Lpn(tag)).expect("block read");
            let (done, _, status) = named.read(t, name, tag).expect("nameless read");
            assert_eq!((b.done, b.status), (done, status), "read at step {step}");
            t = b.done;
        } else {
            let bt = block.trim(t, Lpn(tag)).expect("trim");
            let nt = named.free(t, name, tag).expect("free of the current name");
            assert_eq!(bt.done, nt, "free at step {step}");
            let b = block.write(bt.done, Lpn(tag)).expect("block write");
            let n = named.write(nt, tag).expect("nameless write");
            assert_eq!(
                (b.done, b.status),
                (n.done, n.status),
                "write at step {step}"
            );
            names[tag as usize] = n.name;
            t = b.done;
        }
        apply_upcalls(&mut named, &mut names);
    }
    assert!(named.metrics().gc_runs > 0, "the churn must reach GC");
    assert_eq!(
        flash_counts(block.metrics()),
        flash_counts(named.metrics()),
        "flash reads/programs/erases, GC moves, retirements, uncorrectable senses"
    );
}

#[test]
fn twins_agree_without_faults() {
    twin_run(FaultPlan::none());
}

#[test]
fn twins_agree_under_elevated_rber() {
    twin_run(FaultPlan::uniform_rber(1e5));
}

#[test]
fn twins_agree_under_seeded_faults() {
    twin_run(FaultPlan::seeded(3, 4, 2, 400.0, 2, 2, 6, 4_000));
}

#[test]
fn twins_agree_under_channel_hiccups_alone() {
    twin_run(FaultPlan::seeded(3, 4, 2, 1.0, 0, 0, 6, 4_000));
}
