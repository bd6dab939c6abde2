//! Host timers, reference seconds, and the transparent timing wrappers.
//!
//! [`HostClock`] accumulates wall time and a call count for one layer.
//! [`Chunks`] times a measured phase piece by piece, each piece followed
//! by a fixed [`calibrate`] kernel, so that host seconds can be scaled
//! to reference seconds that do not drift with the host's speed.
//! [`TimedBackend`] and [`TimedWal`] wrap the program's public
//! `PersistenceBackend` and `WalBackend` traits: every method, the
//! defaulted ones included, forwards to the wrapped value, and the call
//! is timed on the layer's clock. A wrapper adds host time and nothing
//! else, so a traced run must reproduce the untraced run's simulated
//! results exactly; the benchmark checks that on every traced run.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::rc::Rc;
use std::time::{Duration, Instant};

use requiem_db::backend::{BackendStats, CommandTag, PageRead, ReadShim};
use requiem_db::wal::Lsn;
use requiem_db::{
    PageId, PcmWal, PcmWalConfig, PersistenceBackend, WalBackend, WalForce, WalStats,
};
use requiem_pcm::WearSnapshot;
use requiem_sim::time::SimTime;
use requiem_sim::{Cause, IoStatus, Probe};

/// Wall time and call count of one layer. A disabled clock runs the
/// timed closure and records nothing, so untraced runs pay no timer.
#[derive(Debug, Default)]
pub struct HostClock {
    enabled: bool,
    nanos: Cell<u64>,
    calls: Cell<u64>,
    /// Extra host work added to every timed call (the attribution
    /// self-test's injected slowdown).
    extra: Cell<Duration>,
}

impl HostClock {
    /// A clock that records.
    pub fn enabled() -> Rc<Self> {
        Rc::new(HostClock {
            enabled: true,
            ..HostClock::default()
        })
    }

    /// A clock that records nothing.
    pub fn disabled() -> Rc<Self> {
        Rc::new(HostClock::default())
    }

    /// Spin for `extra` inside every timed call from now on.
    pub fn inject(&self, extra: Duration) {
        self.extra.set(extra);
    }

    /// Run `f`, charging its wall time and one call to this clock.
    #[inline]
    pub fn time<R>(&self, f: impl FnOnce() -> R) -> R {
        if !self.enabled {
            return f();
        }
        let start = Instant::now();
        let r = f();
        let extra = self.extra.get();
        if !extra.is_zero() {
            while start.elapsed() < extra {
                std::hint::spin_loop();
            }
        }
        self.nanos
            .set(self.nanos.get() + start.elapsed().as_nanos() as u64);
        self.calls.set(self.calls.get() + 1);
        r
    }

    /// Seconds charged so far.
    pub fn secs(&self) -> f64 {
        self.nanos.get() as f64 * 1e-9
    }

    /// Calls charged so far.
    pub fn calls(&self) -> u64 {
        self.calls.get()
    }
}

/// Run `f` and return its result with its wall time in seconds.
pub(crate) fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let start = Instant::now();
    let r = f();
    (r, start.elapsed().as_secs_f64())
}

/// Seconds the calibration kernel takes on the reference host (one core
/// of a quiet 2-vCPU x86-64 container). Host times are reported in
/// reference seconds: host seconds scaled by how much slower or faster
/// the kernel ran next to them than it runs on the reference host.
pub(crate) const CAL_REF_S: f64 = 7.0e-4;

/// Calibration runs each side of a chunk whose median scales it: the
/// host's speed drifts over seconds, so a chunk is scaled by the speed
/// measured around it.
const CAL_WINDOW: usize = 8;

/// A fixed host workload shaped like the simulator's: a `powf` series
/// (the zipf generator's rank scan) and ordered-map churn (the event
/// queues and page tables). Returns its wall time.
pub(crate) fn calibrate() -> f64 {
    let start = Instant::now();
    let mut h = 0.0f64;
    for i in 1..=12_000u32 {
        h += 1.0 / f64::from(i).powf(0.8);
    }
    let mut map = BTreeMap::new();
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for i in 0..4096u64 {
        x = x
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        map.insert(x >> 40, i);
        if map.len() > 512 {
            map.pop_first();
        }
    }
    black_box((h, map.len()));
    start.elapsed().as_secs_f64()
}

/// Host time of a measured phase in a fixed sequence of chunks, each
/// followed by one calibration run.
#[derive(Debug, Clone, Default)]
pub struct Chunks {
    secs: Vec<f64>,
    cal: Vec<f64>,
}

impl Chunks {
    /// Run `f` as the next chunk; returns its result and host seconds.
    pub fn time<R>(&mut self, f: impl FnOnce() -> R) -> (R, f64) {
        let (r, secs) = timed(f);
        self.secs.push(secs);
        self.cal.push(calibrate());
        (r, secs)
    }

    /// Host seconds of each chunk.
    pub fn secs(&self) -> &[f64] {
        &self.secs
    }

    /// Each chunk in reference seconds, scaled by the median of the
    /// calibration runs within [`CAL_WINDOW`] chunks of it.
    pub fn reference(&self) -> Vec<f64> {
        let n = self.secs.len();
        (0..n)
            .map(|i| {
                let lo = i.saturating_sub(CAL_WINDOW);
                let hi = (i + CAL_WINDOW + 1).min(n);
                self.secs[i] * CAL_REF_S / median(&self.cal[lo..hi])
            })
            .collect()
    }

    /// Reference seconds per host second over the whole phase.
    pub fn speed(&self) -> f64 {
        CAL_REF_S / median(&self.cal)
    }
}

/// Median of `xs` (0 when empty).
pub(crate) fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Where a [`TimedBackend`] gets the WAL it hands the engine.
#[derive(Debug, Clone)]
pub enum WalSource {
    /// The wrapped backend's own `make_wal` (the flash WAL).
    Inner,
    /// A standalone PCM WAL, exactly as `Database::new` builds one for
    /// `WalConfig::Pcm`. The engine is then configured with
    /// `WalConfig::Flash` so that it asks this wrapper for the WAL.
    Pcm(PcmWalConfig),
}

/// A `PersistenceBackend` that times every call into the wrapped one on
/// `storage` (pure accessors excepted: `stats`, `label`, `read_shim`),
/// and wraps the WAL it builds in a [`TimedWal`] on `wal`.
pub struct TimedBackend<B: PersistenceBackend> {
    inner: B,
    storage: Rc<HostClock>,
    wal: Rc<HostClock>,
    source: WalSource,
}

impl<B: PersistenceBackend> TimedBackend<B> {
    /// Wrap `inner`.
    pub fn new(inner: B, storage: Rc<HostClock>, wal: Rc<HostClock>, source: WalSource) -> Self {
        TimedBackend {
            inner,
            storage,
            wal,
            source,
        }
    }

    /// The wrapped backend.
    pub fn inner(&self) -> &B {
        &self.inner
    }
}

impl<B: PersistenceBackend> PersistenceBackend for TimedBackend<B> {
    fn make_wal(&mut self) -> Box<dyn WalBackend> {
        let inner: Box<dyn WalBackend> = match &self.source {
            WalSource::Inner => self.storage.time(|| self.inner.make_wal()),
            WalSource::Pcm(cfg) => Box::new(PcmWal::new(cfg)),
        };
        Box::new(TimedWal::new(inner, Rc::clone(&self.wal)))
    }

    fn page_write(&mut self, now: SimTime, page: PageId) -> SimTime {
        self.storage.time(|| self.inner.page_write(now, page))
    }

    fn steal_write(&mut self, now: SimTime, page: PageId) -> SimTime {
        self.storage.time(|| self.inner.steal_write(now, page))
    }

    fn page_read(&mut self, now: SimTime, page: PageId) -> (SimTime, IoStatus) {
        self.storage.time(|| self.inner.page_read(now, page))
    }

    fn page_batch(&mut self, now: SimTime, pages: &[PageId]) -> SimTime {
        self.storage.time(|| self.inner.page_batch(now, pages))
    }

    fn free_page(&mut self, now: SimTime, page: PageId) {
        self.storage.time(|| self.inner.free_page(now, page))
    }

    fn stats(&self) -> &BackendStats {
        self.inner.stats()
    }

    fn label(&self) -> &'static str {
        self.inner.label()
    }

    fn attach_probe(&mut self, probe: Probe) {
        self.storage.time(|| self.inner.attach_probe(probe))
    }

    fn relax_submit_order(&mut self) {
        self.storage.time(|| self.inner.relax_submit_order())
    }

    fn read_shim(&mut self) -> Option<&mut ReadShim> {
        self.inner.read_shim()
    }

    fn submit_reads(&mut self, now: SimTime, pages: &[PageId]) -> Vec<CommandTag> {
        self.storage.time(|| self.inner.submit_reads(now, pages))
    }

    fn poll(&mut self, now: SimTime) -> Vec<PageRead> {
        self.storage.time(|| self.inner.poll(now))
    }

    fn next_read_done(&mut self) -> Option<SimTime> {
        self.storage.time(|| self.inner.next_read_done())
    }

    fn reads_in_flight(&mut self) -> usize {
        self.storage.time(|| self.inner.reads_in_flight())
    }

    fn set_read_window(&mut self, depth: usize) {
        self.storage.time(|| self.inner.set_read_window(depth))
    }
}

/// A `WalBackend` that times every call into the wrapped one.
pub struct TimedWal {
    inner: Box<dyn WalBackend>,
    clock: Rc<HostClock>,
}

impl TimedWal {
    /// Wrap `inner`, charging its calls to `clock`.
    pub fn new(inner: Box<dyn WalBackend>, clock: Rc<HostClock>) -> Self {
        TimedWal { inner, clock }
    }
}

impl WalBackend for TimedWal {
    fn append(&mut self, lsn: Lsn, bytes: u32) {
        self.clock.time(|| self.inner.append(lsn, bytes))
    }

    fn force(&mut self, now: SimTime, to: Lsn) -> WalForce {
        self.clock.time(|| self.inner.force(now, to))
    }

    fn truncate(&mut self, now: SimTime, up_to_byte: u64) {
        self.clock.time(|| self.inner.truncate(now, up_to_byte))
    }

    fn recover_scan(&mut self, now: SimTime, offset: u64, bytes: u32) -> (SimTime, IoStatus) {
        self.clock
            .time(|| self.inner.recover_scan(now, offset, bytes))
    }

    fn stats(&self) -> &WalStats {
        self.inner.stats()
    }

    fn label(&self) -> &'static str {
        self.inner.label()
    }

    fn force_cause(&self) -> Cause {
        self.inner.force_cause()
    }

    fn wear(&self) -> Option<WearSnapshot> {
        self.inner.wear()
    }
}
