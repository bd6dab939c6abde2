//! Nameless writes: the device names the data, the host keeps the name.
//!
//! §3: with a communication abstraction, *"extent-based allocation is
//! irrelevant, nameless writes are interesting"*. In a nameless write the
//! host sends only data (plus an opaque `tag` such as its database page
//! id); the **device** picks the physical location — wherever its write
//! frontier and parallelism make cheapest — and returns the location's
//! *name*. The host stores names in the index it already maintains, so
//! the FTL's page-mapping table (8 bytes/page of controller RAM) simply
//! disappears, and the double indirection (host index → LBA → physical)
//! collapses to one hop.
//!
//! The cost is a protocol: when garbage collection relocates a live page,
//! the device must tell the host its new name — the
//! [`Upcall::Migrated`](crate::comm::Upcall) message. A host that reads a
//! stale name gets [`NamelessError::StaleName`] (detectable via the
//! out-of-band tag), so correctness is preserved even with a lazy host.
//!
//! [`NamelessSsd`] is only that naming protocol. The flash, placement,
//! GC, wear leveling, read recovery and salvage underneath are the block
//! SSD's own controller, built with [`Ssd::nameless`]: a mapping state in
//! which the host holds the names and relocations are logged for the
//! host instead of remapped. After every command the device turns that
//! log into `Migrated` upcalls and its block retirements into
//! `BlockRetired`. Two differences from a block SSD built from the same
//! [`SsdConfig`] remain by design: placement is always least-loaded (the
//! controller picks the LUN that can start soonest), and there is no
//! write buffer — a nameless write completes when its program does.

use requiem_sim::time::{SimDuration, SimTime};
use requiem_sim::{IoStatus, Probe};
use requiem_ssd::config::{Placement, SsdConfig};
use requiem_ssd::metrics::SsdMetrics;
use requiem_ssd::{PhysPage, Ssd, SsdError};

use crate::comm::{Upcall, UpcallQueue};

/// The physical name of a written page — the device-chosen location.
pub type PhysName = PhysPage;

/// Configuration of a nameless device: the [`SsdConfig`] it is built
/// from, with placement pinned to [`Placement::LeastLoaded`]. The
/// mapping knobs (`ftl`) and the write buffer are unused.
#[derive(Debug, Clone)]
pub struct NamelessConfig(SsdConfig);

impl From<&SsdConfig> for NamelessConfig {
    fn from(c: &SsdConfig) -> Self {
        NamelessConfig(SsdConfig {
            placement: Placement::LeastLoaded,
            ..c.clone()
        })
    }
}

/// Errors from the nameless interface.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NamelessError {
    /// The name no longer holds the tagged page (migrated or freed); the
    /// host must drain its upcalls.
    StaleName {
        /// The stale name presented.
        name: PhysName,
    },
    /// The device could not place the page: no usable space left.
    DeviceFull,
}

impl From<SsdError> for NamelessError {
    fn from(e: SsdError) -> Self {
        match e {
            SsdError::StaleName { phys } => NamelessError::StaleName { name: phys },
            // out of space, or a flash command the controller could not
            // complete: either way the page has no name to return
            _ => NamelessError::DeviceFull,
        }
    }
}

impl std::fmt::Display for NamelessError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NamelessError::StaleName { name } => {
                write!(f, "stale name {:?}; drain migration upcalls", name)
            }
            NamelessError::DeviceFull => write!(f, "device full"),
        }
    }
}

impl std::error::Error for NamelessError {}

/// Completion of a nameless write.
#[derive(Debug, Clone, Copy)]
pub struct NamelessCompletion {
    /// The device-chosen name.
    pub name: PhysName,
    /// Instant the write was durable.
    pub done: SimTime,
    /// End-to-end latency.
    pub latency: SimDuration,
    /// Clean, or recovered after program-fail salvage(s).
    pub status: IoStatus,
}

/// A flash device with no FTL mapping: nameless writes + migration upcalls.
pub struct NamelessSsd {
    ssd: Ssd,
    upcalls: UpcallQueue,
}

impl std::fmt::Debug for NamelessSsd {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NamelessSsd")
            .field("luns", &self.ssd.config().total_luns())
            .field("writes", &self.ssd.metrics().host_writes)
            .field("pending_upcalls", &self.upcalls.len())
            .finish()
    }
}

impl NamelessSsd {
    /// Build a nameless device.
    pub fn new(cfg: NamelessConfig) -> Self {
        NamelessSsd {
            ssd: Ssd::nameless(cfg.0),
            upcalls: UpcallQueue::new(),
        }
    }

    /// Attach an observability probe: the controller's span discipline
    /// (occupant-blamed queueing, background GC) applies unchanged, which
    /// is what lets E14 compare stall blame across the two interfaces.
    pub fn attach_probe(&mut self, probe: Probe) {
        self.ssd.attach_probe(probe);
    }

    /// The attached probe (disabled handle when none was attached).
    pub fn probe(&self) -> &Probe {
        self.ssd.probe()
    }

    /// The device configuration.
    pub fn config(&self) -> &SsdConfig {
        self.ssd.config()
    }

    /// Accumulated metrics.
    pub fn metrics(&self) -> &SsdMetrics {
        self.ssd.metrics()
    }

    /// The device→host message queue.
    pub fn upcalls(&mut self) -> &mut UpcallQueue {
        &mut self.upcalls
    }

    /// Immutable view of the device→host message queue (for metrics).
    pub fn upcalls_pending(&self) -> &UpcallQueue {
        &self.upcalls
    }

    /// Distinct host tags the device can keep live while honouring its
    /// over-provisioning ratio (the analog of an FTL's exported LBA
    /// count). A block-device FTL enforces the ratio by exporting fewer
    /// LBAs; a nameless device can only *tell* the host.
    pub fn usable_tags(&self) -> u64 {
        self.ssd.capacity().exported_pages
    }

    /// Controller RAM spent on logical→physical mapping: **zero** — the
    /// point of the interface (contrast [`SsdConfig::mapping_table_bytes`]).
    pub fn mapping_table_bytes(&self) -> u64 {
        0
    }

    /// When all queued operations drain.
    pub fn drain_time(&self) -> SimTime {
        self.ssd.drain_time()
    }

    /// Post what the last command did behind the host's back: one
    /// `BlockRetired` per block retired since `retired_before`, then one
    /// `Migrated` per logged relocation, in the order they happened.
    fn post_upcalls(&mut self, retired_before: u64, at: SimTime) {
        for _ in retired_before..self.ssd.metrics().blocks_retired {
            self.upcalls.push(Upcall::BlockRetired { at });
        }
        for m in self.ssd.take_moves() {
            self.upcalls.push(Upcall::Migrated {
                tag: m.tag,
                old: m.old,
                new: m.new,
                at: m.at,
            });
        }
    }

    /// Write a page; the device picks the location and returns its name.
    /// `tag` is an opaque host identifier stored out-of-band (and echoed
    /// in migration upcalls).
    pub fn write(&mut self, now: SimTime, tag: u64) -> Result<NamelessCompletion, NamelessError> {
        let retired = self.ssd.metrics().blocks_retired;
        let written = self.ssd.write_named(now, tag);
        self.post_upcalls(retired, now);
        let (name, c) = written?;
        Ok(NamelessCompletion {
            name,
            done: c.done,
            latency: c.latency,
            status: c.status,
        })
    }

    /// Read the page at `name`, verifying it still holds `tag`'s data.
    /// The third element reports how the media fared: clean, recovered
    /// (a parity rebuild re-homes the page and queues a
    /// [`Upcall::Migrated`] naming the new location), or unrecoverable.
    pub fn read(
        &mut self,
        now: SimTime,
        name: PhysName,
        tag: u64,
    ) -> Result<(SimTime, SimDuration, IoStatus), NamelessError> {
        let retired = self.ssd.metrics().blocks_retired;
        let read = self.ssd.read_named(now, name, tag);
        self.post_upcalls(retired, now);
        let c = read?;
        Ok((c.done, c.latency, c.status))
    }

    /// Free the page at `name` (the trim analog — but exact, since the
    /// host speaks in physical names).
    pub fn free(
        &mut self,
        now: SimTime,
        name: PhysName,
        tag: u64,
    ) -> Result<SimTime, NamelessError> {
        Ok(self.ssd.free_named(now, name, tag)?.done)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    fn device() -> NamelessSsd {
        let mut base = SsdConfig::modern();
        base.shape.channels = 2;
        base.shape.chips_per_channel = 2;
        NamelessSsd::new(NamelessConfig::from(&base))
    }

    #[test]
    fn write_returns_name_and_read_round_trips() {
        let mut d = device();
        let w = d.write(SimTime::ZERO, 42).unwrap();
        let (done, lat, status) = d.read(w.done, w.name, 42).unwrap();
        assert!(done > w.done);
        assert!(lat > SimDuration::ZERO);
        assert_eq!(status, IoStatus::Ok);
    }

    #[test]
    fn wrong_tag_is_stale() {
        let mut d = device();
        let w = d.write(SimTime::ZERO, 42).unwrap();
        let err = d.read(w.done, w.name, 43).unwrap_err();
        assert!(matches!(err, NamelessError::StaleName { .. }));
    }

    #[test]
    fn free_then_read_is_stale() {
        let mut d = device();
        let w = d.write(SimTime::ZERO, 7).unwrap();
        let t = d.free(w.done, w.name, 7).unwrap();
        let err = d.read(t, w.name, 7).unwrap_err();
        assert!(matches!(err, NamelessError::StaleName { .. }));
    }

    #[test]
    fn no_mapping_table_ram() {
        let d = device();
        assert_eq!(d.mapping_table_bytes(), 0);
        // versus the page-mapped FTL on the same hardware:
        let mut base = SsdConfig::modern();
        base.shape.channels = 2;
        base.shape.chips_per_channel = 2;
        assert!(base.mapping_table_bytes() > 50_000);
    }

    #[test]
    fn gc_migrations_emit_upcalls_and_host_stays_consistent() {
        let mut d = device();
        // host-side index: tag -> name (exactly what a DB's page table is)
        let mut index: HashMap<u64, PhysName> = HashMap::new();
        let raw_pages: u64 = 4 * d.config().flash.geometry.total_pages();
        // high utilization so GC victims cannot be fully dead
        let live_set = raw_pages * 8 / 10;
        let mut t = SimTime::ZERO;
        // initial fill: every tag written once
        for tag in 0..live_set {
            let w = d.write(t, tag).unwrap();
            t = w.done;
            index.insert(tag, w.name);
        }
        // random churn: rewrite scattered tags so invalid pages spread
        // thinly over blocks, forcing GC to relocate live neighbours
        let mut x = 12345u64;
        for step in 0..(live_set * 2) {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let tag = x % live_set;
            // old version may have migrated; drain upcalls first
            for u in d.upcalls().drain() {
                if let Upcall::Migrated { tag, new, .. } = u {
                    index.insert(tag, new);
                }
            }
            let cur = index[&tag];
            d.free(t, cur, tag).expect("free of current name");
            let w = d
                .write(t, tag)
                .unwrap_or_else(|e| panic!("step {step} tag {tag}: {e}"));
            t = w.done;
            index.insert(tag, w.name);
        }
        // final drain + verify every tag readable at its current name
        for u in d.upcalls().drain() {
            if let Upcall::Migrated { tag, new, .. } = u {
                index.insert(tag, new);
            }
        }
        assert!(d.metrics().gc_runs > 0, "churn must trigger GC");
        assert!(d.upcalls().delivered() > 0, "GC must have migrated pages");
        for (tag, name) in index {
            let r = d.read(t, name, tag);
            assert!(r.is_ok(), "tag {tag} unreadable at {name:?}");
            t = r.unwrap().0;
        }
    }

    #[test]
    fn parallel_writes_stripe_like_an_ftl() {
        let mut d = device();
        let mut names = Vec::new();
        for tag in 0..8u64 {
            names.push(d.write(SimTime::ZERO, tag).unwrap().name);
        }
        let luns: std::collections::HashSet<u32> = names.iter().map(|n| n.lun.0).collect();
        assert!(luns.len() >= 3, "writes should spread over LUNs: {luns:?}");
    }
}
