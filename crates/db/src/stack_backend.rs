//! The block-interface storage manager: the legacy design's one flash
//! SSD carrying the log, the data and a double-write journal, reached
//! through the composed block-layer [`IoStack`].
//!
//! The [`StackConfig`] decides what the host costs. Over
//! [`StackConfig::bare`] every stage is free and each command completes
//! exactly when the device does — the paper's legacy design, which is
//! charged only for the device. Over a costed preset
//! ([`StackConfig::blk_mq`], [`StackConfig::legacy`], …) the same
//! traffic also pays the OS submission path, queue locks, doorbells,
//! and IRQ/polling completions.
//!
//! Batched reads are implemented directly over
//! [`IoStack::submit_batch`] / [`IoStack::poll_completions`], so a DB
//! queue depth of N turns into N commands resident in the device-side
//! in-flight window — the paper's Figure-1 parallelism reaching
//! transaction throughput. Reads are the only traffic that uses the
//! window: writes, checkpoint batches and log forces are serialized
//! submits.

use std::cell::{Ref, RefCell};
use std::collections::BTreeMap;
use std::rc::Rc;

use requiem_block::{IoStack, StackConfig};
use requiem_sim::time::SimTime;
use requiem_sim::IoStatus;
use requiem_ssd::{IoClass, IoRequest, Lpn, Ssd, SsdConfig};

use crate::backend::{BackendStats, CommandTag, PageRead, PersistenceBackend};
use crate::page::PageId;
use crate::walbackend::{FlashWal, StackLog, WalBackend};

/// The block-interface backend: one flash SSD behind the I/O stack.
pub struct BlockStackBackend {
    /// Shared with the WAL port ([`make_wal`](PersistenceBackend::make_wal)):
    /// log forces land on the same device, through the same block-layer
    /// path, as the page traffic.
    stack: Rc<RefCell<IoStack<Ssd>>>,
    /// LBA layout inside the stripe: circular log, data, journal.
    log_pages: u64,
    data_base: u64,
    journal_base: u64,
    data_pages: u64,
    /// First LBA of this backend's region. A standalone backend owns
    /// the whole device (base 0); a shard of a multi-queue deployment
    /// owns a disjoint `[log | data | journal]` stripe.
    lba_base: u64,
    /// Submission/completion core this backend drives. Each shard's
    /// traffic rides its own queue pair; contention happens below, on
    /// the shared channels.
    core: usize,
    /// Batched reads in flight: host tag → page.
    pending: BTreeMap<u64, PageId>,
    /// Tag namespace for batched reads.
    next_tag: u64,
    stats: BackendStats,
}

impl std::fmt::Debug for BlockStackBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BlockStackBackend")
            .field("stats", &self.stats)
            .finish()
    }
}

impl BlockStackBackend {
    /// Lay out `data_pages` of data, `log_pages` of circular log, and an
    /// equal-size journal area on one device behind `stack_cfg` — a
    /// single-shard [`BlockStackBackend::shards`].
    ///
    /// # Panics
    /// Panics if the device is too small for the layout.
    pub fn new(
        stack_cfg: StackConfig,
        ssd_cfg: SsdConfig,
        data_pages: u64,
        log_pages: u64,
    ) -> Self {
        Self::shards(stack_cfg, ssd_cfg, 1, data_pages, log_pages)
            .pop()
            .expect("one shard")
    }

    /// Build `shards` backends over ONE device and ONE block stack:
    /// shard `i` submits on core `i` (its own queue pair and in-flight
    /// window) and owns the LBA stripe
    /// `[i * stripe, (i+1) * stripe)` with the usual
    /// `[log | data | journal]` layout inside, where
    /// `stripe = log_pages + 2 * data_pages`. `data_pages` here is the
    /// *per-shard* data-region size. Host tags are namespaced per core
    /// so traces stay unambiguous. [`ShardedDb::new`](crate::ShardedDb::new)
    /// switches the shared device to multi-queue submission order.
    ///
    /// # Panics
    /// Panics if `stack_cfg` has fewer cores than `shards`, or the
    /// device is too small for `shards` stripes.
    pub fn shards(
        stack_cfg: StackConfig,
        ssd_cfg: SsdConfig,
        shards: usize,
        data_pages: u64,
        log_pages: u64,
    ) -> Vec<Self> {
        let shards = shards.max(1);
        assert!(
            stack_cfg.cores as usize >= shards,
            "stack must expose one core per shard ({} < {shards})",
            stack_cfg.cores
        );
        let ssd = Ssd::new(ssd_cfg);
        let exported = ssd.capacity().exported_pages;
        let stripe = log_pages + 2 * data_pages;
        let needed = stripe * shards as u64;
        assert!(
            needed <= exported,
            "device too small: need {needed} pages ({shards} shards x {stripe}), exported {exported}"
        );
        let stack = Rc::new(RefCell::new(IoStack::new(stack_cfg, ssd)));
        (0..shards)
            .map(|i| BlockStackBackend {
                stack: Rc::clone(&stack),
                log_pages,
                data_base: log_pages,
                journal_base: log_pages + data_pages,
                data_pages,
                lba_base: i as u64 * stripe,
                core: i,
                pending: BTreeMap::new(),
                next_tag: (i as u64) << 48,
                stats: BackendStats::default(),
            })
            .collect()
    }

    /// The block stack (for software-share reporting).
    pub fn stack(&self) -> Ref<'_, IoStack<Ssd>> {
        self.stack.borrow()
    }

    /// The underlying device (for write-amplification reporting).
    pub fn ssd(&self) -> Ref<'_, Ssd> {
        Ref::map(self.stack.borrow(), |s| s.backend())
    }

    /// The LBA `page` lives at: static arithmetic, fixed for the page's
    /// lifetime (the memory abstraction).
    pub(crate) fn data_lpn(&self, page: PageId) -> Lpn {
        assert!(page.0 < self.data_pages, "page id beyond data region");
        Lpn(self.lba_base + self.data_base + page.0)
    }

    /// A serialized write the engine cannot survive losing: the
    /// completion instant, or a panic with `what` when the device
    /// refused it.
    fn write(&mut self, now: SimTime, req: IoRequest, what: &str) -> SimTime {
        let c = self.stack.borrow_mut().submit(now, self.core, req);
        assert!(c.status != IoStatus::Rejected, "{what}");
        c.done
    }
}

impl PersistenceBackend for BlockStackBackend {
    fn make_wal(&mut self) -> Box<dyn WalBackend> {
        // the log shares the device with the page traffic — the classic
        // small-synchronous-write problem, and the FTL drags dead WAL
        // through GC until truncation trims it — in this backend's own
        // stripe, on its own core
        Box::new(FlashWal::new(
            StackLog::with_region(
                Rc::clone(&self.stack),
                self.log_pages,
                self.lba_base,
                self.core,
            ),
            self.log_pages,
        ))
    }

    fn page_write(&mut self, now: SimTime, page: PageId) -> SimTime {
        self.stats.page_writes += 1;
        self.stats.logical_writes += 1;
        // write-back: nobody waits on this completion
        let lpn = self.data_lpn(page);
        let req = IoRequest::write(lpn.0).class(IoClass::Background);
        self.write(now, req, "data write failed")
    }

    fn steal_write(&mut self, now: SimTime, page: PageId) -> SimTime {
        self.stats.steal_writes += 1;
        self.stats.logical_writes += 1;
        let lpn = self.data_lpn(page);
        self.write(now, IoRequest::write(lpn.0), "steal write failed")
    }

    fn page_read(&mut self, now: SimTime, page: PageId) -> (SimTime, IoStatus) {
        self.stats.page_reads += 1;
        let lpn = self.data_lpn(page);
        // a refused command (worn-out device, protocol violation) comes
        // back as a typed Rejected status instead of tearing the engine
        // down
        let c = self
            .stack
            .borrow_mut()
            .submit(now, self.core, IoRequest::read(lpn.0));
        (c.done, c.status)
    }

    fn page_batch(&mut self, now: SimTime, pages: &[PageId]) -> SimTime {
        if pages.is_empty() {
            return now;
        }
        self.stats.batches += 1;
        self.stats.page_writes += pages.len() as u64;
        self.stats.logical_writes += pages.len() as u64;
        // torn-write safety through the block interface = double-write
        // journal: the journal copies go out together at `now`, a barrier
        // waits for them and for the device to drain, then the in-place
        // writes go out together
        let journal = self.lba_base + self.journal_base;
        let mut copied = now;
        for i in 0..pages.len() as u64 {
            let req = IoRequest::write(journal + i);
            copied = copied.max(self.write(now, req, "journal batch failed"));
        }
        let barrier = copied.max(self.ssd().drain_time());
        let mut done = barrier;
        for &page in pages {
            let req = IoRequest::write(self.data_lpn(page).0);
            done = done.max(self.write(barrier, req, "journal batch failed"));
        }
        done
    }

    fn free_page(&mut self, _now: SimTime, _page: PageId) {
        // the block interface has no way to say a page died: the device
        // keeps carrying it until the LBA is overwritten
        self.stats.frees += 1;
    }

    fn stats(&self) -> &BackendStats {
        &self.stats
    }

    fn label(&self) -> &'static str {
        "stack-block"
    }

    fn attach_probe(&mut self, probe: requiem_sim::Probe) {
        self.stack.borrow_mut().attach_probe(probe);
    }

    fn relax_submit_order(&mut self) {
        self.stack.borrow_mut().backend_mut().relax_submit_order();
    }

    fn submit_reads(&mut self, now: SimTime, pages: &[PageId]) -> Vec<CommandTag> {
        let reqs: Vec<IoRequest> = pages
            .iter()
            .map(|&p| {
                self.stats.page_reads += 1;
                self.next_tag += 1;
                self.pending.insert(self.next_tag, p);
                IoRequest::read(self.data_lpn(p).0).tag(CommandTag(self.next_tag))
            })
            .collect();
        self.stack.borrow_mut().submit_batch(now, self.core, &reqs)
    }

    fn poll(&mut self, now: SimTime) -> Vec<PageRead> {
        let completions = self.stack.borrow_mut().poll_completions(now, self.core);
        completions
            .into_iter()
            .filter_map(|c| {
                let page = self.pending.remove(&c.tag.0)?;
                Some(PageRead {
                    tag: c.tag,
                    page,
                    done: c.done,
                    status: c.status,
                })
            })
            .collect()
    }

    fn next_read_done(&mut self) -> Option<SimTime> {
        self.stack.borrow().next_completion_time(self.core)
    }

    fn reads_in_flight(&mut self) -> usize {
        self.pending.len()
    }

    fn set_read_window(&mut self, depth: usize) {
        debug_assert!(
            self.pending.is_empty(),
            "window change with reads in flight"
        );
        self.stack
            .borrow_mut()
            .set_core_inflight_window(self.core, depth.max(1));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wal::Lsn;

    fn backend() -> BlockStackBackend {
        let mut ssd_cfg = SsdConfig::modern();
        ssd_cfg.buffer.capacity_pages = 0;
        BlockStackBackend::new(StackConfig::blk_mq(1), ssd_cfg, 1024, 64)
    }

    #[test]
    fn sync_ops_advance_time_and_count() {
        let mut b = backend();
        let mut w = b.make_wal();
        let t1 = b.page_write(SimTime::ZERO, PageId(0));
        let (t2, st) = b.page_read(t1, PageId(0));
        assert!(t2 > t1);
        assert_eq!(st, IoStatus::Ok);
        w.append(Lsn(1), 256);
        let t3 = w.force(t2, Lsn(1)).done;
        assert!(t3 > t2);
        assert_eq!(b.stats().page_writes, 1);
        assert_eq!(b.stats().page_reads, 1);
        assert_eq!(w.stats().log_forces, 1);
        assert_eq!(w.label(), "stack-wal");
    }

    #[test]
    fn page_batch_journals_then_writes_in_place() {
        let mut b = backend();
        let pages: Vec<PageId> = (0..8).map(PageId).collect();
        let done = b.page_batch(SimTime::ZERO, &pages);
        assert!(done > SimTime::ZERO);
        assert_eq!(
            b.ssd().metrics().host_writes,
            16,
            "double-write journal writes twice"
        );
        assert_eq!(b.reads_in_flight(), 0);
    }

    #[test]
    fn batched_reads_overlap_on_the_device() {
        let mut b = backend();
        // precondition: write the pages so reads hit mapped LPNs
        let mut t = SimTime::ZERO;
        for p in 0..16u64 {
            t = b.page_write(t, PageId(p));
        }
        // serialized reference
        let mut serial = t;
        for p in 0..16u64 {
            let (done, _) = b.page_read(serial, PageId(p));
            serial = done;
        }
        // batched at depth 8 over the same (now warmer) device state
        b.set_read_window(8);
        let pages: Vec<PageId> = (0..16).map(PageId).collect();
        let tags = b.submit_reads(serial, &pages);
        assert_eq!(tags.len(), 16);
        assert_eq!(b.reads_in_flight(), 16);
        let mut last = serial;
        let mut got = 0;
        while b.reads_in_flight() > 0 {
            let next = b.next_read_done().expect("reads in flight");
            for r in PersistenceBackend::poll(&mut b, next) {
                last = last.max(r.done);
                got += 1;
            }
        }
        assert_eq!(got, 16);
        let batched_span = last.since(serial);
        let serial_span = serial.since(t);
        assert!(
            batched_span < serial_span,
            "batched {batched_span} should beat serialized {serial_span}"
        );
    }

    #[test]
    fn recover_scan_covers_the_byte_range() {
        let mut b = backend();
        let mut w = b.make_wal();
        w.append(Lsn(1), 10 * 1024);
        let t1 = w.force(SimTime::ZERO, Lsn(1)).done;
        let reads_before = b.ssd().metrics().host_reads;
        let (t2, st) = w.recover_scan(t1, 0, 10 * 1024);
        assert!(t2 > t1);
        assert_eq!(st, IoStatus::Ok);
        assert_eq!(b.ssd().metrics().host_reads - reads_before, 3);
    }
}
