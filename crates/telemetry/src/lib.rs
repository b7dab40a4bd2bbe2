//! # dra-telemetry
//!
//! Observability layer for the DRA reproduction: a handle-based
//! metrics registry, a flight recorder, deterministic packet-lifecycle
//! sampling, and exporters (`dra-telemetry/v1` JSON + Chrome
//! `trace_event` for Perfetto).
//!
//! ## Architecture
//!
//! All state lives in a **thread-local hub**. Campaign workers are
//! threads, so per-worker flight recorders and registries fall out of
//! thread locality with zero synchronization on the hot path; each
//! worker's [`Snapshot`] merges into one section afterwards
//! ([`Snapshot::merge`] is commutative + associative, so worker count
//! cannot change the merged bytes).
//!
//! Instrumented crates call the free functions in this module
//! (`counter_add`, `event`, `mark_*`, …) unconditionally; a run arms
//! collection with [`enable`]. A process-wide count of live hubs
//! gates every hook: while no thread has a hub armed, a hook is one
//! `Relaxed` load and a not-taken branch, and the body that touches
//! the thread-local hub sits out of line in a `#[cold]` function.
//! (Without the gate each hook would borrow the thread-local
//! `RefCell`; DESIGN.md §3.2 has the measured cost.) A thread with no
//! hub still records nothing while another thread is armed: the gate
//! only skips the thread-local lookup, it does not replace it.
//!
//! ## Determinism contract
//!
//! Telemetry observes, never steers: no function here consumes
//! simulation RNG, schedules DES events, or feeds anything back into
//! the model. Sampling decisions are a pure hash of the packet id
//! ([`lifecycle::sample_hash`], the same SplitMix64 mixer
//! `dra-campaign` derives seeds from). A simulation therefore runs
//! bit-identically with telemetry enabled, and
//! `results/faceoff.json` stays byte-identical.

pub mod hist;
mod jsonw;
pub mod lifecycle;
pub mod netscope;
pub mod recorder;
pub mod snapshot;
pub mod trace;

pub use hist::CompactHist;
pub use lifecycle::{is_sampled, sample_hash};
pub use netscope::{
    FlowSpan, ForensicEntry, ForensicKind, NetScopeSnapshot, NodeCounters, SpanKind,
    NET_DROP_CAUSES, NET_SNAPSHOT_FORMAT,
};
pub use recorder::{Event, EventKind, Ring};
pub use snapshot::{Anomaly, Snapshot, SNAPSHOT_FORMAT};
pub use trace::{chrome_trace_json, TraceEvent};

use lifecycle::Tracker;
use std::cell::RefCell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Once;

/// Handle to a registered counter (index into the hub's table).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterId(pub u32);

/// Handle to a registered gauge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GaugeId(pub u32);

/// Handle to a registered histogram.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistId(pub u32);

/// Well-known metric handles, pre-registered by [`enable`] so every
/// hot-path update is a single indexed add.
pub mod ids {
    use super::{CounterId, GaugeId, HistId};

    /// DES events executed.
    pub const DES_EVENTS: CounterId = CounterId(0);
    /// DES events scheduled.
    pub const DES_SCHEDULED: CounterId = CounterId(1);
    /// Packets offered at ingress.
    pub const ARRIVALS: CounterId = CounterId(2);
    /// FIB lookups performed (batched lookups count per packet).
    pub const FIB_LOOKUPS: CounterId = CounterId(3);
    /// Cells enqueued into VOQs.
    pub const VOQ_ENQUEUED_CELLS: CounterId = CounterId(4);
    /// iSLIP input→output grants issued.
    pub const ISLIP_GRANTS: CounterId = CounterId(5);
    /// Cells that crossed the fabric.
    pub const CELLS_SWITCHED: CounterId = CounterId(6);
    /// Packets completed by egress reassembly.
    pub const PACKETS_REASSEMBLED: CounterId = CounterId(7);
    /// Packets delivered.
    pub const DELIVERED: CounterId = CounterId(8);
    /// Packets dropped (all causes).
    pub const DROPPED: CounterId = CounterId(9);
    /// Packets that took at least one EIB hop.
    pub const EIB_DETOURS: CounterId = CounterId(10);
    /// EIB control-line transmission attempts.
    pub const EIB_CONTROL_ATTEMPTS: CounterId = CounterId(11);
    /// EIB control-line collisions.
    pub const EIB_COLLISIONS: CounterId = CounterId(12);

    /// Latest sim-time seen (gauges merge by max).
    pub const SIM_TIME: GaugeId = GaugeId(0);
    /// Peak DES queue length.
    pub const QUEUE_LEN: GaugeId = GaugeId(1);

    /// Ingress processing + FIB lookup time.
    pub const H_LOOKUP: HistId = HistId(0);
    /// VOQ wait before the first fabric grant.
    pub const H_VOQ_WAIT: HistId = HistId(1);
    /// First-to-last-cell crossbar time.
    pub const H_SWITCHING: HistId = HistId(2);
    /// Accumulated EIB occupancy.
    pub const H_EIB: HistId = HistId(3);
    /// Last cell to delivery (reassembly + egress).
    pub const H_REASSEMBLY: HistId = HistId(4);
    /// End-to-end packet latency.
    pub const H_TOTAL: HistId = HistId(5);
}

const COUNTER_NAMES: [&str; 13] = [
    "des.events",
    "des.scheduled",
    "router.arrivals",
    "router.fib_lookups",
    "router.voq_enqueued_cells",
    "router.islip_grants",
    "router.cells_switched",
    "router.packets_reassembled",
    "router.delivered",
    "router.dropped",
    "eib.detours",
    "eib.control_attempts",
    "eib.collisions",
];

const GAUGE_NAMES: [&str; 2] = ["des.sim_time", "des.queue_len_peak"];

const HIST_NAMES: [&str; 6] = [
    "latency.lookup",
    "latency.voq_wait",
    "latency.switching",
    "latency.eib",
    "latency.reassembly",
    "latency.total",
];

/// Latency histogram layout: 1 ns to 1 s, 9 buckets per decade.
const HIST_LO: f64 = 1e-9;
const HIST_HI: f64 = 1.0;
const HIST_BUCKETS: usize = 81;

/// Runtime configuration for [`enable`].
#[derive(Debug, Clone)]
pub struct Config {
    /// Sample one packet in `sample_every` for lifecycle tracking
    /// (0 disables sampling; counters and the recorder still run).
    pub sample_every: u64,
    /// Flight-recorder window size in events.
    pub ring_capacity: usize,
    /// Collect Chrome trace events for sampled packets.
    pub collect_trace: bool,
    /// Hard cap on buffered trace events (excess is counted, not kept).
    pub trace_limit: usize,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            sample_every: 64,
            ring_capacity: 1024,
            collect_trace: false,
            trace_limit: 200_000,
        }
    }
}

struct Hub {
    now: f64,
    sample_every: u64,
    counters: Vec<u64>,
    gauges: Vec<f64>,
    hists: Vec<CompactHist>,
    extra_counter_names: Vec<&'static str>,
    ring: Ring,
    tracker: Tracker,
    anomaly: Option<Anomaly>,
    collect_trace: bool,
    trace: Vec<TraceEvent>,
    trace_limit: usize,
    trace_dropped: u64,
}

/// Hubs alive in the process, over all threads. Counted in
/// [`Hub::new`] and `Drop`, so re-arming a thread, [`disable`], and a
/// thread exiting with its hub armed all keep it exact. `Relaxed` is
/// enough: a thread always sees its own increment, so a thread with a
/// hub never reads 0; other threads at worst take the slow path once
/// and find no hub of their own.
static LIVE_HUBS: AtomicUsize = AtomicUsize::new(0);

impl Hub {
    fn new(cfg: &Config) -> Self {
        LIVE_HUBS.fetch_add(1, Ordering::Relaxed);
        Hub {
            now: 0.0,
            sample_every: cfg.sample_every,
            counters: vec![0; COUNTER_NAMES.len()],
            gauges: vec![0.0; GAUGE_NAMES.len()],
            hists: (0..HIST_NAMES.len())
                .map(|_| CompactHist::new(HIST_LO, HIST_HI, HIST_BUCKETS))
                .collect(),
            extra_counter_names: Vec::new(),
            ring: Ring::new(cfg.ring_capacity),
            tracker: Tracker::default(),
            anomaly: None,
            collect_trace: cfg.collect_trace,
            trace: Vec::new(),
            trace_limit: cfg.trace_limit,
            trace_dropped: 0,
        }
    }

    fn counter_name(&self, i: usize) -> &'static str {
        if i < COUNTER_NAMES.len() {
            COUNTER_NAMES[i]
        } else {
            self.extra_counter_names[i - COUNTER_NAMES.len()]
        }
    }

    fn push_trace(&mut self, ev: TraceEvent) {
        if self.trace.len() < self.trace_limit {
            self.trace.push(ev);
        } else {
            self.trace_dropped += 1;
        }
    }
}

impl Drop for Hub {
    fn drop(&mut self) {
        LIVE_HUBS.fetch_sub(1, Ordering::Relaxed);
    }
}

thread_local! {
    static HUB: RefCell<Option<Hub>> = const { RefCell::new(None) };
}

static PANIC_HOOK: Once = Once::new();

/// Install the process-wide panic hook that dumps the panicking
/// thread's flight recorder to stderr before unwinding.
fn install_panic_hook() {
    PANIC_HOOK.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            // The hook runs on the panicking thread, so its
            // thread-local hub is exactly the right one to dump.
            // try_* everywhere: panicking inside a panic hook aborts.
            let _ = HUB.try_with(|cell| {
                if let Ok(hub) = cell.try_borrow() {
                    if let Some(hub) = hub.as_ref() {
                        if !hub.ring.is_empty() {
                            eprintln!("[dra-telemetry] panic — dumping {}", hub.ring.dump());
                        }
                    }
                }
            });
            prev(info);
        }));
    });
}

/// Turn telemetry on for this thread with a fresh hub.
pub fn enable(cfg: Config) {
    install_panic_hook();
    HUB.with(|cell| *cell.borrow_mut() = Some(Hub::new(&cfg)));
}

/// Turn telemetry off for this thread, discarding all state.
pub fn disable() {
    HUB.with(|cell| *cell.borrow_mut() = None);
}

/// Is telemetry enabled on this thread?
pub fn enabled() -> bool {
    with_hub(|_| ()).is_some()
}

/// Is a hub armed on any thread? One `Relaxed` load. Every hook checks
/// this itself; a site that issues several hooks, or computes their
/// arguments, checks it once around them so an unarmed run skips the
/// whole block.
#[inline]
pub fn armed() -> bool {
    LIVE_HUBS.load(Ordering::Relaxed) != 0
}

/// Run `f` on this thread's hub. While no hub is armed anywhere this
/// is one `Relaxed` load; the thread-local lookup is out of line.
#[inline]
fn with_hub<R>(f: impl FnOnce(&mut Hub) -> R) -> Option<R> {
    if !armed() {
        return None;
    }
    with_local_hub(f)
}

#[cold]
#[inline(never)]
fn with_local_hub<R>(f: impl FnOnce(&mut Hub) -> R) -> Option<R> {
    HUB.with(|cell| cell.borrow_mut().as_mut().map(f))
}

/// Register an additional counter (e.g. a bench-specific one).
/// Telemetry must be enabled; ids stay valid until [`disable`].
pub fn register_counter(name: &'static str) -> Option<CounterId> {
    with_hub(|h| {
        h.extra_counter_names.push(name);
        h.counters.push(0);
        CounterId((h.counters.len() - 1) as u32)
    })
}

/// Add `n` to a counter — a single indexed add on the hot path.
#[inline]
pub fn counter_add(id: CounterId, n: u64) {
    with_hub(|h| h.counters[id.0 as usize] += n);
}

/// Set a gauge to `v`.
#[inline]
pub fn gauge_set(id: GaugeId, v: f64) {
    with_hub(|h| h.gauges[id.0 as usize] = v);
}

/// Raise a gauge to `v` if `v` is larger (peak tracking).
#[inline]
pub fn gauge_max(id: GaugeId, v: f64) {
    with_hub(|h| {
        let g = &mut h.gauges[id.0 as usize];
        if v > *g {
            *g = v;
        }
    });
}

/// Record `x` into a histogram.
#[inline]
pub fn hist_record(id: HistId, x: f64) {
    with_hub(|h| h.hists[id.0 as usize].record(x));
}

/// The DES executive reports each delivered event here: advances the
/// hub's sim-time stamp (used by every subsequent [`event`]) and
/// updates the kernel counters/gauges.
#[inline]
pub fn des_event(now: f64, queue_len: usize) {
    with_hub(|h| {
        h.now = now;
        h.counters[ids::DES_EVENTS.0 as usize] += 1;
        h.gauges[ids::SIM_TIME.0 as usize] = now;
        let ql = queue_len as f64;
        if ql > h.gauges[ids::QUEUE_LEN.0 as usize] {
            h.gauges[ids::QUEUE_LEN.0 as usize] = ql;
        }
    });
}

/// The DES executive reports each scheduled event here.
#[inline]
pub fn des_scheduled() {
    with_hub(|h| h.counters[ids::DES_SCHEDULED.0 as usize] += 1);
}

/// Append a flight-recorder event stamped with the hub's current
/// sim-time.
#[inline]
pub fn event(kind: EventKind, packet: u64, a: u32, b: u32) {
    with_hub(|h| {
        let t = h.now;
        h.ring.push(Event {
            t,
            kind,
            a,
            b,
            packet,
        });
    });
}

/// Is this packet in the lifecycle sample? (false when disabled)
#[inline]
pub fn sampled(packet: u64) -> bool {
    with_hub(|h| is_sampled(packet, h.sample_every)).unwrap_or(false)
}

/// Begin lifecycle tracking for a packet if it is sampled.
#[inline]
pub fn track_arrival(packet: u64, ingress: u32, ip_bytes: u32) {
    with_hub(|h| {
        if is_sampled(packet, h.sample_every) {
            let now = h.now;
            h.tracker.begin(packet, ingress, ip_bytes, now);
        }
    });
}

/// Mark ingress processing + FIB lookup complete.
#[inline]
pub fn mark_lookup_done(packet: u64) {
    with_hub(|h| {
        let now = h.now;
        if let Some(t) = h.tracker.get_mut(packet) {
            t.lookup_done = now;
        }
    });
}

/// Mark the packet's cells entering a VOQ.
#[inline]
pub fn mark_voq_enqueue(packet: u64) {
    with_hub(|h| {
        let now = h.now;
        if let Some(t) = h.tracker.get_mut(packet) {
            t.voq_enqueued = now;
        }
    });
}

/// Mark one of the packet's cells crossing the fabric (first call
/// anchors the switching span, every call extends it).
#[inline]
pub fn mark_cell_switched(packet: u64) {
    with_hub(|h| {
        let now = h.now;
        if let Some(t) = h.tracker.get_mut(packet) {
            if !t.switch_start.is_finite() {
                t.switch_start = now;
            }
            t.switch_end = now;
        }
    });
}

/// Account an EIB hop occupying the bus for `dur` seconds starting at
/// `start`.
#[inline]
pub fn mark_eib_hop(packet: u64, start: f64, dur: f64) {
    with_hub(|h| {
        if let Some(t) = h.tracker.get_mut(packet) {
            if !t.eib_start.is_finite() {
                t.eib_start = start;
            }
            t.eib += dur;
        }
    });
}

/// Packet delivered: resolve its lifecycle into the latency
/// decomposition histograms and (optionally) Chrome trace spans.
#[inline]
pub fn finish_packet(packet: u64) {
    with_hub(|h| {
        let now = h.now;
        let Some((track, d)) = h.tracker.finish(packet, now) else {
            return;
        };
        h.hists[ids::H_LOOKUP.0 as usize].record(d.lookup);
        h.hists[ids::H_VOQ_WAIT.0 as usize].record(d.voq_wait);
        h.hists[ids::H_SWITCHING.0 as usize].record(d.switching);
        h.hists[ids::H_EIB.0 as usize].record(d.eib);
        h.hists[ids::H_REASSEMBLY.0 as usize].record(d.reassembly);
        h.hists[ids::H_TOTAL.0 as usize].record(d.total);
        if h.collect_trace {
            let pid = track.ingress;
            let tid = packet as u32;
            let us = 1e6;
            let span = |name, t0: f64, dur: f64| TraceEvent {
                name,
                ph: 'X',
                ts_us: t0 * us,
                dur_us: dur * us,
                pid,
                tid,
                packet,
                id: 0,
            };
            h.push_trace(span("packet", track.arrived, d.total));
            if d.lookup > 0.0 {
                h.push_trace(span("lookup", track.arrived, d.lookup));
            }
            if d.voq_wait > 0.0 {
                h.push_trace(span("voq-wait", track.voq_enqueued, d.voq_wait));
            }
            if d.switching > 0.0 {
                h.push_trace(span("switching", track.switch_start, d.switching));
            }
            if d.eib > 0.0 && track.eib_start.is_finite() {
                h.push_trace(span("eib", track.eib_start, d.eib));
            }
            if d.reassembly > 0.0 && track.switch_end.is_finite() {
                h.push_trace(span("reassembly", track.switch_end, d.reassembly));
            }
        }
    });
}

/// Packet dropped: recorder event, drop counter, lifecycle cleanup,
/// and an instant trace marker. `cause_name` should be the stable
/// `DropCause` name; `cause_index` its index.
#[inline]
pub fn packet_dropped(packet: u64, cause_index: u32, lc: u32, cause_name: &'static str) {
    with_hub(|h| {
        let t = h.now;
        h.counters[ids::DROPPED.0 as usize] += 1;
        h.ring.push(Event {
            t,
            kind: EventKind::Drop,
            a: cause_index,
            b: lc,
            packet,
        });
        h.tracker.drop_packet(packet);
        if h.collect_trace {
            h.push_trace(TraceEvent {
                name: drop_trace_name(cause_name),
                ph: 'i',
                ts_us: t * 1e6,
                dur_us: 0.0,
                pid: lc,
                tid: packet as u32,
                packet,
                id: 0,
            });
        }
    });
}

/// Map a `DropCause` name to a static trace label without allocating
/// per event.
fn drop_trace_name(cause_name: &str) -> &'static str {
    match cause_name {
        "ingress-down" => "drop:ingress-down",
        "egress-down" => "drop:egress-down",
        "fabric-down" => "drop:fabric-down",
        "voq-overflow" => "drop:voq-overflow",
        "reassembly-timeout" => "drop:reassembly-timeout",
        "no-route" => "drop:no-route",
        "eib-oversubscribed" => "drop:eib-oversubscribed",
        "no-coverage" => "drop:no-coverage",
        _ => "drop",
    }
}

/// Trip the anomaly trigger: the first call freezes a copy of the
/// flight-recorder window for the snapshot; later calls are no-ops.
#[inline]
pub fn anomaly(reason: &'static str) {
    with_hub(|h| {
        if h.anomaly.is_none() {
            h.anomaly = Some(Anomaly {
                reason: reason.to_string(),
                t: h.now,
                events: h.ring.recent().copied().collect(),
            });
        }
    });
}

/// Has the anomaly trigger tripped?
pub fn anomaly_tripped() -> bool {
    with_hub(|h| h.anomaly.is_some()).unwrap_or(false)
}

/// On-demand flight-recorder dump (None when disabled).
pub fn ring_dump() -> Option<String> {
    with_hub(|h| h.ring.dump())
}

/// Snapshot this thread's hub (None when disabled). The hub keeps
/// accumulating; callers that want per-cell snapshots re-[`enable`]
/// between cells.
pub fn snapshot() -> Option<Snapshot> {
    with_hub(|h| Snapshot {
        sample_every: h.sample_every,
        sampled_packets: h.tracker.sampled(),
        open_tracks: h.tracker.open() as u64,
        counters: h
            .counters
            .iter()
            .enumerate()
            .map(|(i, &v)| (h.counter_name(i), v))
            .collect(),
        gauges: GAUGE_NAMES
            .iter()
            .zip(&h.gauges)
            .map(|(&n, &v)| (n, v))
            .collect(),
        hists: HIST_NAMES
            .iter()
            .zip(&h.hists)
            .map(|(&n, h)| (n, h.clone()))
            .collect(),
        ring_appended: h.ring.appended(),
        ring_capacity: h.ring.capacity() as u64,
        anomaly: h.anomaly.clone(),
    })
}

/// Drain the buffered Chrome trace events (empty when disabled or
/// when trace collection is off).
pub fn take_trace_events() -> Vec<TraceEvent> {
    with_hub(|h| std::mem::take(&mut h.trace)).unwrap_or_default()
}

/// Trace events discarded after the buffer hit its cap.
pub fn trace_dropped() -> u64 {
    with_hub(|h| h.trace_dropped).unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Mutex, MutexGuard};

    /// Tests that arm a hub run one at a time: the gate tests read the
    /// process-wide hub count, which a concurrently armed test moves.
    fn serial() -> MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn live() -> usize {
        LIVE_HUBS.load(Ordering::Relaxed)
    }

    fn fresh(collect_trace: bool) -> Config {
        Config {
            sample_every: 1,
            ring_capacity: 8,
            collect_trace,
            trace_limit: 100,
        }
    }

    #[test]
    fn gate_counts_each_thread_once_and_closes_on_disable() {
        let _serial = serial();
        assert_eq!(live(), 0);
        enable(fresh(false));
        assert_eq!(live(), 1);
        enable(fresh(false));
        assert_eq!(live(), 1, "re-arming a thread replaces its hub");
        disable();
        assert_eq!(live(), 0);
        disable();
        assert_eq!(live(), 0);
    }

    #[test]
    fn gate_closes_when_an_armed_thread_exits() {
        let _serial = serial();
        std::thread::spawn(|| {
            enable(fresh(false));
            assert_eq!(live(), 1);
        })
        .join()
        .unwrap();
        assert_eq!(live(), 0);
    }

    #[test]
    fn unarmed_thread_records_nothing_while_another_is_armed() {
        let _serial = serial();
        enable(fresh(true));
        std::thread::spawn(|| {
            assert_eq!(live(), 1);
            assert!(!enabled());
            des_event(1.0, 1);
            counter_add(ids::ARRIVALS, 1);
            track_arrival(7, 0, 64);
            event(EventKind::Arrival, 7, 0, 64);
            packet_dropped(7, 5, 0, "no-route");
            anomaly("must not trip");
            assert!(!sampled(0));
            assert!(!anomaly_tripped());
            assert!(snapshot().is_none());
            assert!(take_trace_events().is_empty());
        })
        .join()
        .unwrap();
        let snap = snapshot().expect("this thread is armed");
        assert!(snap.counters.iter().all(|&(_, v)| v == 0));
        assert_eq!(snap.ring_appended, 0);
        assert!(snap.anomaly.is_none());
        assert!(take_trace_events().is_empty());
        disable();
    }

    #[test]
    fn disabled_is_inert() {
        let _serial = serial();
        disable();
        assert!(!enabled());
        counter_add(ids::ARRIVALS, 1);
        event(EventKind::Arrival, 1, 0, 0);
        assert!(snapshot().is_none());
        assert!(!sampled(0));
    }

    #[test]
    fn full_lifecycle_roundtrip() {
        let _serial = serial();
        enable(fresh(true));
        des_event(1.0, 3);
        counter_add(ids::ARRIVALS, 1);
        track_arrival(42, 2, 1500);
        event(EventKind::Arrival, 42, 2, 1500);
        des_event(1.1, 2);
        mark_lookup_done(42);
        mark_voq_enqueue(42);
        des_event(1.2, 2);
        mark_cell_switched(42);
        des_event(1.3, 1);
        mark_cell_switched(42);
        des_event(1.4, 0);
        finish_packet(42);

        let snap = snapshot().expect("enabled");
        assert_eq!(snap.counters[ids::ARRIVALS.0 as usize].1, 1);
        assert_eq!(snap.counters[ids::DES_EVENTS.0 as usize].1, 5);
        assert_eq!(snap.sampled_packets, 1);
        assert_eq!(snap.open_tracks, 0);
        let (name, total) = &snap.hists[ids::H_TOTAL.0 as usize];
        assert_eq!(*name, "latency.total");
        assert_eq!(total.count(), 1);

        let trace = take_trace_events();
        assert!(trace.iter().any(|e| e.name == "packet"));
        assert!(trace.iter().any(|e| e.name == "switching"));
        disable();
    }

    #[test]
    fn anomaly_freezes_ring_window() {
        let _serial = serial();
        enable(fresh(false));
        for i in 0..20u64 {
            des_event(i as f64, 0);
            event(EventKind::Arrival, i, 0, 0);
        }
        assert!(!anomaly_tripped());
        packet_dropped(19, 6, 0, "eib-oversubscribed");
        anomaly("first eib-oversubscribed drop");
        anomaly("second call must not overwrite");
        let snap = snapshot().unwrap();
        let a = snap.anomaly.expect("tripped");
        assert_eq!(a.reason, "first eib-oversubscribed drop");
        // Window = ring capacity (8): the drop plus the 7 most recent.
        assert_eq!(a.events.len(), 8);
        assert_eq!(a.events.last().unwrap().kind, EventKind::Drop);
        disable();
    }

    #[test]
    fn registered_counters_appear_in_snapshot() {
        let _serial = serial();
        enable(fresh(false));
        let id = register_counter("bench.iterations").unwrap();
        counter_add(id, 7);
        let snap = snapshot().unwrap();
        assert_eq!(*snap.counters.last().unwrap(), ("bench.iterations", 7));
        disable();
    }
}
