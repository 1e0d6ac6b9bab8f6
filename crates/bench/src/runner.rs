//! Parallel, self-metering experiment runner.
//!
//! Every figure/table cell — one (message size × loss rate × transport ×
//! seed) combination — is an independent deterministic simulation, so the
//! harness fans cells across a `std::thread::scope` worker pool. Results
//! are written back by cell index, so output order (and therefore every
//! aggregate computed from it) is identical to a sequential run no matter
//! how threads interleave; only wall-clock changes.
//!
//! Each cell records wall-clock, simulated seconds, the simulator's
//! `events_fired` counter, and the runtime's meters (rank polls performed,
//! wakes coalesced away, µs of wall clock per event).
//! The per-figure roll-up is persisted as `results/BENCH_<fig>.json`
//! (schema documented in EXPERIMENTS.md) so harness performance is
//! comparable across PRs.
//!
//! `SIM_CHECK=1` turns on shadow verification: every cell runs twice, first
//! under the reference wakeup discipline (pre-coalescing accounting), then
//! under the fast one, and the harness panics if any semantic output
//! (value, simulated seconds, events, aux) differs by even a bit. Only the
//! fast run is metered.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use crate::json::{Json, ToJson};
use crate::{impl_to_json, Scale};

/// What one cell's simulation reports back to the harness.
#[derive(Debug, Clone, Copy)]
pub struct Measured {
    /// The cell's metric (throughput, seconds, MOPS — figure-dependent).
    pub value: f64,
    /// Simulated seconds the run covered.
    pub sim_secs: f64,
    /// Simulator events fired during the run.
    pub events: u64,
    /// Figure-specific side channel (the farm figures report the peak
    /// unexpected-queue length here); 0 when unused.
    pub aux: u64,
    /// Rank polls the runtime performed (wall-clock diagnostic;
    /// excluded from `SIM_CHECK` comparison because the disciplines differ
    /// here by design).
    pub handoffs: u64,
    /// Wakes coalesced away by the runtime fast path (ditto).
    pub wakes_coalesced: u64,
    /// Packet trains emitted through the burst path (ditto; zero under the
    /// reference discipline by design).
    pub bursts_total: u64,
    /// Packets fused inside those trains (each still counts in `events`).
    pub pkts_fused: u64,
    /// Timers that took the O(1) wheel insert (ditto).
    pub wheel_hits: u64,
    /// Timers beyond the wheel horizon (heap fallback; ditto).
    pub heap_falls: u64,
    /// Worker shards the cell's simulation ran on (1 = sequential; ditto —
    /// the partition must not change semantic outputs, so it is not
    /// compared).
    pub shards: u64,
    /// Conservative epochs the sharded engine synchronized through (ditto).
    pub epochs_total: u64,
    /// Messages that crossed a shard boundary (partition-dependent; ditto).
    pub cross_shard_pkts: u64,
    /// Conservative lookahead the run executed under, in ns (0 when the
    /// cell did not use the sharded engine).
    pub lookahead_ns: u64,
    /// Destination addresses configured per association (1 = singlehomed;
    /// 0 when the cell's transport has no path notion, e.g. TCP).
    pub paths: u64,
    /// Packets sent per path index across the run — the CMT stripe balance
    /// (all zeros for TCP cells).
    pub per_path_pkts: [u64; 4],
    /// Fast retransmits a later SACK proved unnecessary (the reordering
    /// false-positive count CMT's SFR accounting drives to zero).
    pub spurious_frtx: u64,
    /// Chunks re-queued by the CMT rescue probe (tail-loss recovery that
    /// bypassed the RTO).
    pub rescue_rtx: u64,
    /// Sender-side stream scheduler the cell ran under ("fcfs" when the
    /// cell has no scheduler notion, e.g. TCP or non-interleaved SCTP).
    pub scheduler: &'static str,
    /// PR-SCTP messages abandoned past their lifetime.
    pub msgs_abandoned: u64,
    /// FORWARD-TSN chunks sent across the run.
    pub fwd_tsn_total: u64,
    /// Sender-side HOL blocks observed by the flight recorder (0 when the
    /// cell was not traced).
    pub snd_hol_blocks: u64,
    /// Total sender-side HOL blocked time, ns (ditto).
    pub snd_hol_ns: u64,
}

impl Measured {
    pub fn new(value: f64, sim_secs: f64, events: u64) -> Measured {
        Measured {
            value,
            sim_secs,
            events,
            aux: 0,
            handoffs: 0,
            wakes_coalesced: 0,
            bursts_total: 0,
            pkts_fused: 0,
            wheel_hits: 0,
            heap_falls: 0,
            shards: 1,
            epochs_total: 0,
            cross_shard_pkts: 0,
            lookahead_ns: 0,
            paths: 0,
            per_path_pkts: [0; 4],
            spurious_frtx: 0,
            rescue_rtx: 0,
            scheduler: "fcfs",
            msgs_abandoned: 0,
            fwd_tsn_total: 0,
            snd_hol_blocks: 0,
            snd_hol_ns: 0,
        }
    }

    /// Attach the runtime's poll/coalescing meters.
    pub fn with_runtime_meters(mut self, handoffs: u64, wakes_coalesced: u64) -> Measured {
        self.handoffs = handoffs;
        self.wakes_coalesced = wakes_coalesced;
        self
    }

    /// Attach the burst-path and timer-wheel meters.
    pub fn with_burst_meters(
        mut self,
        bursts_total: u64,
        pkts_fused: u64,
        wheel_hits: u64,
        heap_falls: u64,
    ) -> Measured {
        self.bursts_total = bursts_total;
        self.pkts_fused = pkts_fused;
        self.wheel_hits = wheel_hits;
        self.heap_falls = heap_falls;
        self
    }

    /// Attach the multipath (CMT) meters.
    pub fn with_path_meters(
        mut self,
        paths: u64,
        per_path_pkts: [u64; 4],
        spurious_frtx: u64,
        rescue_rtx: u64,
    ) -> Measured {
        self.paths = paths;
        self.per_path_pkts = per_path_pkts;
        self.spurious_frtx = spurious_frtx;
        self.rescue_rtx = rescue_rtx;
        self
    }

    /// Attach the stream-machinery meters (scheduler identity, PR-SCTP
    /// abandonment, and sender-side HOL accounting from a forced trace).
    pub fn with_stream_meters(
        mut self,
        scheduler: &'static str,
        msgs_abandoned: u64,
        fwd_tsn_total: u64,
        snd_hol_blocks: u64,
        snd_hol_ns: u64,
    ) -> Measured {
        self.scheduler = scheduler;
        self.msgs_abandoned = msgs_abandoned;
        self.fwd_tsn_total = fwd_tsn_total;
        self.snd_hol_blocks = snd_hol_blocks;
        self.snd_hol_ns = snd_hol_ns;
        self
    }

    /// Attach the sharded-engine meters.
    pub fn with_shard_meters(
        mut self,
        shards: u64,
        epochs_total: u64,
        cross_shard_pkts: u64,
        lookahead_ns: u64,
    ) -> Measured {
        self.shards = shards;
        self.epochs_total = epochs_total;
        self.cross_shard_pkts = cross_shard_pkts;
        self.lookahead_ns = lookahead_ns;
        self
    }
}

/// One unit of work: a label for the meter plus the simulation closure.
pub struct Cell<'a> {
    pub label: String,
    pub run: Box<dyn Fn() -> Measured + Send + Sync + 'a>,
}

impl<'a> Cell<'a> {
    pub fn new(label: String, run: impl Fn() -> Measured + Send + Sync + 'a) -> Cell<'a> {
        Cell { label, run: Box::new(run) }
    }
}

/// Per-cell self-metering record (one row of `results/BENCH_<fig>.json`).
#[derive(Debug, Clone)]
pub struct CellMeter {
    pub label: String,
    pub wall_secs: f64,
    pub sim_secs: f64,
    pub events_fired: u64,
    pub events_per_sec: f64,
    /// Rank polls the runtime performed for this cell.
    pub handoffs_total: u64,
    /// Wakes coalesced away (suppressed spurious wakes + inline-advanced
    /// sleeps); under the reference discipline each of these would have
    /// been a poll.
    pub wakes_coalesced: u64,
    /// Wall-clock microseconds per simulator event — the runtime-overhead
    /// trajectory the overhaul drives down.
    pub us_per_event: f64,
    /// Packet trains emitted through the burst path for this cell.
    pub bursts_total: u64,
    /// Mean packets per train (fused packets / trains; 0.0 when no trains).
    pub pkts_per_burst_avg: f64,
    /// Timers that took the O(1) wheel insert.
    pub wheel_hits: u64,
    /// Timers beyond the wheel horizon (heap fallback).
    pub heap_falls: u64,
    /// Worker shards the cell's simulation ran on (1 = sequential).
    pub shards: u64,
    /// Conservative epochs the sharded engine synchronized through.
    pub epochs_total: u64,
    /// Messages that crossed a shard boundary.
    pub cross_shard_pkts: u64,
    /// Conservative lookahead the run executed under, in ns.
    pub lookahead_ns: u64,
    /// Destination addresses per association (0 = no path notion).
    pub paths: u64,
    /// Packets sent per path index — the CMT stripe balance.
    pub per_path_pkts: Vec<u64>,
    /// Fast retransmits a later SACK proved unnecessary.
    pub spurious_frtx_total: u64,
    /// Chunks re-queued by the CMT rescue probe.
    pub rescue_rtx_total: u64,
    /// Sender-side stream scheduler the cell ran under.
    pub scheduler: String,
    /// PR-SCTP messages abandoned past their lifetime.
    pub msgs_abandoned: u64,
    /// FORWARD-TSN chunks sent across the run.
    pub fwd_tsn_total: u64,
    /// Sender-side HOL blocks observed by the flight recorder.
    pub snd_hol_blocks: u64,
    /// Total sender-side HOL blocked time, ns.
    pub snd_hol_ns: u64,
    /// Heap allocations during the metered run (`ALLOC_METER=1`; 0 when the
    /// counting allocator is off). Process-global, so attributable to this
    /// cell only at `BENCH_THREADS=1`.
    pub allocs_total: u64,
    /// Allocations per simulator event (the memory-plane trajectory this
    /// pass drives down; 0.0 when metering is off).
    pub allocs_per_event: f64,
}

impl_to_json!(CellMeter {
    label,
    wall_secs,
    sim_secs,
    events_fired,
    events_per_sec,
    handoffs_total,
    wakes_coalesced,
    us_per_event,
    bursts_total,
    pkts_per_burst_avg,
    wheel_hits,
    heap_falls,
    shards,
    epochs_total,
    cross_shard_pkts,
    lookahead_ns,
    paths,
    per_path_pkts,
    spurious_frtx_total,
    rescue_rtx_total,
    scheduler,
    msgs_abandoned,
    fwd_tsn_total,
    snd_hol_blocks,
    snd_hol_ns,
    allocs_total,
    allocs_per_event
});

/// Roll-up of one figure's harness run.
#[derive(Debug, Clone)]
pub struct BenchReport {
    pub fig: String,
    pub scale: &'static str,
    pub threads: usize,
    pub wall_secs_total: f64,
    pub events_total: u64,
    /// The fault plan every cell ran under, as [`netsim::FaultPlan::to_json`]
    /// text — present only for fault experiments. Replaying the report is
    /// `FaultPlan::from_json` on this string plus the cell label's seed.
    /// Adding this field is schema-compatible (see `SCHEMA_VERSION`).
    pub fault_plan: Option<String>,
    pub cells: Vec<CellMeter>,
}

impl ToJson for BenchReport {
    fn to_json(&self) -> Json {
        let mut fields = vec![
            ("schema_version", crate::json::SCHEMA_VERSION.to_json()),
            ("fig", self.fig.to_json()),
            ("scale", self.scale.to_json()),
            ("threads", self.threads.to_json()),
            ("wall_secs_total", self.wall_secs_total.to_json()),
            ("events_total", self.events_total.to_json()),
        ];
        if let Some(plan) = &self.fault_plan {
            fields.push(("fault_plan", Json::Raw(plan.clone())));
        }
        fields.push(("cells", self.cells.to_json()));
        Json::Obj(fields)
    }
}

impl BenchReport {
    /// Writes `results/BENCH_<fig>.json`.
    pub fn save(&self) {
        self.save_to(std::path::Path::new("results"));
    }

    /// [`BenchReport::save`] with an explicit directory (testable). A pre-existing file
    /// with a different `schema_version` is retired to `.bak` first, so a
    /// reader diffing result files across PRs never silently compares
    /// fields whose meaning changed between schemas.
    pub fn save_to(&self, dir: &std::path::Path) {
        if std::fs::create_dir_all(dir).is_err() {
            return;
        }
        let path = dir.join(format!("BENCH_{}.json", self.fig));
        if let Ok(old) = std::fs::read_to_string(&path) {
            if crate::json::sniff_schema_version(&old) != crate::json::SCHEMA_VERSION {
                let _ = std::fs::rename(&path, path.with_extension("json.bak"));
            }
        }
        let _ = std::fs::write(path, self.to_json().render() + "\n");
    }

    /// One-line harness summary for the binaries' stderr.
    pub fn summary(&self) -> String {
        format!(
            "[bench {}] {} cells on {} threads: {:.2}s wall, {} events ({:.0} ev/s)",
            self.fig,
            self.cells.len(),
            self.threads,
            self.wall_secs_total,
            self.events_total,
            self.events_total as f64 / self.wall_secs_total.max(1e-9),
        )
    }
}

/// Worker count: `BENCH_THREADS` env override (1 forces a sequential run),
/// else the machine's available parallelism.
pub fn pool_threads() -> usize {
    threads_from_env(std::env::var("BENCH_THREADS").ok().as_deref())
        .unwrap_or_else(|| std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1))
}

/// Parse a `BENCH_THREADS` override. `Some(n)` forces an `n`-worker pool —
/// clamped to at least one worker, so `BENCH_THREADS=0` means "sequential",
/// not "no workers ever run a cell". Unset or unparsable values mean "no
/// override" (fall back to machine parallelism).
fn threads_from_env(var: Option<&str>) -> Option<usize> {
    var.and_then(|v| v.parse::<usize>().ok()).map(|n| n.max(1))
}

/// `SIM_CHECK=1` enables per-cell shadow verification against the reference
/// wakeup discipline.
pub fn sim_check() -> bool {
    std::env::var("SIM_CHECK").map(|v| v == "1").unwrap_or(false)
}

/// Worker shards for the sharded-engine experiments: `SHARDS` env override,
/// default 1 (sequential). Results are bit-identical at any value; only
/// wall-clock changes.
pub fn shards() -> u32 {
    shards_from_env(std::env::var("SHARDS").ok().as_deref())
}

/// Parse a `SHARDS` override; unset, unparsable, or zero means sequential.
fn shards_from_env(var: Option<&str>) -> u32 {
    var.and_then(|v| v.parse::<u32>().ok()).map(|n| n.max(1)).unwrap_or(1)
}

/// Which packet driver `pingpong_live` runs on (see `BACKEND`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackendKind {
    /// The deterministic simulator — the comparison path.
    Sim,
    /// Real UDP sockets over loopback.
    Udp,
}

/// Packet-driver selection for the live binaries: `BACKEND` env override,
/// default the real-socket driver (the binary exists to exercise it);
/// `BACKEND=sim` selects the simulated comparison path.
pub fn backend_kind() -> BackendKind {
    backend_from_env(std::env::var("BACKEND").ok().as_deref())
}

/// Parse a `BACKEND` override. Unset, empty, or unrecognized values fall
/// back to the default (udp) rather than erroring, the same
/// garbage-tolerant posture as `SHARDS`/`BENCH_THREADS`: an env knob must
/// never turn a benchmark run into a parse failure.
fn backend_from_env(var: Option<&str>) -> BackendKind {
    match var.map(|v| v.trim().to_ascii_lowercase()).as_deref() {
        Some("sim") => BackendKind::Sim,
        _ => BackendKind::Udp,
    }
}

/// Panics unless the reference-discipline and fast-discipline runs of one
/// cell agree bit for bit on every semantic output. Handoff meters are
/// excluded: coalescing exists precisely to change them.
fn assert_disciplines_agree(label: &str, reference: &Measured, fast: &Measured) {
    let same = reference.value.to_bits() == fast.value.to_bits()
        && reference.sim_secs.to_bits() == fast.sim_secs.to_bits()
        && reference.events == fast.events
        && reference.aux == fast.aux
        && reference.per_path_pkts == fast.per_path_pkts
        && reference.spurious_frtx == fast.spurious_frtx
        && reference.rescue_rtx == fast.rescue_rtx
        && reference.msgs_abandoned == fast.msgs_abandoned
        && reference.fwd_tsn_total == fast.fwd_tsn_total;
    assert!(
        same,
        "SIM_CHECK divergence in cell `{label}`: \
         reference (value={:?} sim_secs={:?} events={} aux={} paths={:?}) vs \
         fast (value={:?} sim_secs={:?} events={} aux={} paths={:?})",
        reference.value,
        reference.sim_secs,
        reference.events,
        reference.aux,
        reference.per_path_pkts,
        fast.value,
        fast.sim_secs,
        fast.events,
        fast.aux,
        fast.per_path_pkts,
    );
}

/// Runs all cells on the worker pool; returns per-cell measurements in
/// cell order plus the metering roll-up.
pub fn run_cells(fig: &str, scale: Scale, cells: Vec<Cell<'_>>) -> (Vec<Measured>, BenchReport) {
    run_cells_with_plan(fig, scale, cells, None)
}

/// [`run_cells`] for fault experiments: `plan_json` (the serialized
/// [`netsim::FaultPlan`] every cell ran under) is stamped into the report so
/// `results/BENCH_<fig>.json` carries everything needed to replay the run.
pub fn run_cells_with_plan(
    fig: &str,
    scale: Scale,
    cells: Vec<Cell<'_>>,
    plan_json: Option<String>,
) -> (Vec<Measured>, BenchReport) {
    let n = cells.len();
    let threads = pool_threads().min(n.max(1));
    let check = sim_check();
    if crate::alloc_meter::env_enabled() {
        crate::alloc_meter::enable(true);
    }
    let metering_allocs = crate::alloc_meter::enabled();
    let start = Instant::now();
    let slots: Vec<Mutex<Option<(Measured, CellMeter)>>> =
        (0..n).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for _ in 0..threads {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let cell = &cells[i];
                // Name any flight-recorder capture after the cell, so a
                // `TRACE=1 fig10 --quick` run leaves one
                // `traces/<fig>_<label>.{pcapng,jsonl}` pair per cell. The
                // label is thread-local; clearing it keeps later non-cell
                // runs (e.g. Criterion) on the seed-derived default name.
                trace::set_run_label(Some(&format!("{fig} {}", cell.label)));
                // Shadow run first so the metered (fast) run below is
                // undisturbed. The discipline flag is thread-local, so
                // parallel workers shadow-check independently.
                let reference = check.then(|| {
                    simcore::set_reference_discipline(true);
                    let r = (cell.run)();
                    simcore::set_reference_discipline(false);
                    r
                });
                let a0 = metering_allocs.then(crate::alloc_meter::allocs);
                let t0 = Instant::now();
                let m = (cell.run)();
                let wall = t0.elapsed().as_secs_f64();
                let allocs_total =
                    a0.map_or(0, |a| crate::alloc_meter::allocs().saturating_sub(a));
                trace::set_run_label(None);
                if let Some(r) = &reference {
                    assert_disciplines_agree(&cell.label, r, &m);
                }
                let meter = CellMeter {
                    label: cell.label.clone(),
                    wall_secs: wall,
                    sim_secs: m.sim_secs,
                    events_fired: m.events,
                    events_per_sec: m.events as f64 / wall.max(1e-9),
                    handoffs_total: m.handoffs,
                    wakes_coalesced: m.wakes_coalesced,
                    us_per_event: wall * 1e6 / (m.events.max(1)) as f64,
                    bursts_total: m.bursts_total,
                    pkts_per_burst_avg: if m.bursts_total == 0 {
                        0.0
                    } else {
                        m.pkts_fused as f64 / m.bursts_total as f64
                    },
                    wheel_hits: m.wheel_hits,
                    heap_falls: m.heap_falls,
                    shards: m.shards,
                    epochs_total: m.epochs_total,
                    cross_shard_pkts: m.cross_shard_pkts,
                    lookahead_ns: m.lookahead_ns,
                    paths: m.paths,
                    per_path_pkts: m.per_path_pkts.to_vec(),
                    spurious_frtx_total: m.spurious_frtx,
                    rescue_rtx_total: m.rescue_rtx,
                    scheduler: m.scheduler.to_string(),
                    msgs_abandoned: m.msgs_abandoned,
                    fwd_tsn_total: m.fwd_tsn_total,
                    snd_hol_blocks: m.snd_hol_blocks,
                    snd_hol_ns: m.snd_hol_ns,
                    allocs_total,
                    allocs_per_event: allocs_total as f64 / (m.events.max(1)) as f64,
                };
                *slots[i].lock().unwrap() = Some((m, meter));
            });
        }
    });
    let wall_total = start.elapsed().as_secs_f64();
    let mut values = Vec::with_capacity(n);
    let mut meters = Vec::with_capacity(n);
    for slot in slots {
        let (v, m) = slot.into_inner().unwrap().expect("cell not run");
        values.push(v);
        meters.push(m);
    }
    let report = BenchReport {
        fig: scale.tag(fig),
        scale: match scale {
            Scale::Paper => "paper",
            Scale::Quick => "quick",
        },
        threads,
        wall_secs_total: wall_total,
        events_total: meters.iter().map(|m| m.events_fired).sum(),
        fault_plan: plan_json,
        cells: meters,
    };
    (values, report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_are_in_cell_order_regardless_of_runtime() {
        // Cells finish in reverse submission order (later = faster), yet
        // values come back in cell order.
        let cells: Vec<Cell> = (0..16)
            .map(|i| {
                Cell::new(format!("cell{i}"), move || {
                    std::thread::sleep(std::time::Duration::from_millis(16 - i as u64));
                    Measured::new(i as f64, 0.0, i)
                })
            })
            .collect();
        let (values, report) = run_cells("test", Scale::Quick, cells);
        let got: Vec<f64> = values.iter().map(|m| m.value).collect();
        assert_eq!(got, (0..16).map(|i| i as f64).collect::<Vec<_>>());
        assert_eq!(report.cells.len(), 16);
        assert_eq!(report.cells[3].label, "cell3");
        assert_eq!(report.events_total, (0..16).sum::<u64>());
        assert!(report.wall_secs_total > 0.0);
    }

    #[test]
    fn thread_override_parsing_clamps_to_one_worker() {
        // No env var, or garbage: no override, harness picks parallelism.
        assert_eq!(threads_from_env(None), None);
        assert_eq!(threads_from_env(Some("")), None);
        assert_eq!(threads_from_env(Some("lots")), None);
        assert_eq!(threads_from_env(Some("-3")), None);
        // Explicit values force the pool size...
        assert_eq!(threads_from_env(Some("1")), Some(1));
        assert_eq!(threads_from_env(Some("8")), Some(8));
        // ...and zero clamps to one sequential worker instead of a pool
        // that would never run any cell.
        assert_eq!(threads_from_env(Some("0")), Some(1));
    }

    #[test]
    fn shards_override_parsing_defaults_to_sequential() {
        assert_eq!(shards_from_env(None), 1);
        assert_eq!(shards_from_env(Some("")), 1);
        assert_eq!(shards_from_env(Some("many")), 1);
        assert_eq!(shards_from_env(Some("0")), 1);
        assert_eq!(shards_from_env(Some("4")), 4);
    }

    #[test]
    fn backend_override_parsing_defaults_to_udp_on_bad_values() {
        assert_eq!(backend_from_env(None), BackendKind::Udp);
        assert_eq!(backend_from_env(Some("")), BackendKind::Udp);
        assert_eq!(backend_from_env(Some("tcp")), BackendKind::Udp);
        assert_eq!(backend_from_env(Some("0")), BackendKind::Udp);
        assert_eq!(backend_from_env(Some("udp")), BackendKind::Udp);
        assert_eq!(backend_from_env(Some(" UDP ")), BackendKind::Udp);
        assert_eq!(backend_from_env(Some("sim")), BackendKind::Sim);
        assert_eq!(backend_from_env(Some(" Sim ")), BackendKind::Sim);
    }

    #[test]
    fn bench_report_renders_schema() {
        let r = BenchReport {
            fig: "fig0".into(),
            scale: "quick",
            threads: 2,
            wall_secs_total: 0.5,
            events_total: 10,
            fault_plan: None,
            cells: vec![CellMeter {
                label: "a".into(),
                wall_secs: 0.25,
                sim_secs: 1.0,
                events_fired: 10,
                events_per_sec: 40.0,
                handoffs_total: 4,
                wakes_coalesced: 6,
                us_per_event: 25000.0,
                bursts_total: 3,
                pkts_per_burst_avg: 2.5,
                wheel_hits: 9,
                heap_falls: 1,
                shards: 4,
                epochs_total: 12,
                cross_shard_pkts: 7,
                lookahead_ns: 22_000,
                paths: 3,
                per_path_pkts: vec![5, 3, 2, 0],
                spurious_frtx_total: 1,
                rescue_rtx_total: 2,
                scheduler: "rr".into(),
                msgs_abandoned: 4,
                fwd_tsn_total: 2,
                snd_hol_blocks: 6,
                snd_hol_ns: 9_000,
                allocs_total: 123,
                allocs_per_event: 12.3,
            }],
        };
        let s = r.to_json().render();
        for key in [
            "\"schema_version\"",
            "\"fig\"",
            "\"threads\"",
            "\"cells\"",
            "\"events_fired\"",
            "\"label\"",
            "\"handoffs_total\"",
            "\"wakes_coalesced\"",
            "\"us_per_event\"",
            "\"bursts_total\"",
            "\"pkts_per_burst_avg\"",
            "\"wheel_hits\"",
            "\"heap_falls\"",
            "\"shards\"",
            "\"epochs_total\"",
            "\"cross_shard_pkts\"",
            "\"lookahead_ns\"",
            "\"paths\"",
            "\"per_path_pkts\"",
            "\"spurious_frtx_total\"",
            "\"rescue_rtx_total\"",
            "\"scheduler\"",
            "\"msgs_abandoned\"",
            "\"fwd_tsn_total\"",
            "\"snd_hol_blocks\"",
            "\"snd_hol_ns\"",
            "\"allocs_total\"",
            "\"allocs_per_event\"",
        ] {
            assert!(s.contains(key), "missing {key} in {s}");
        }
        assert!(
            s.contains(&format!("\"schema_version\": {}", crate::json::SCHEMA_VERSION)),
            "report must stamp the current schema: {s}"
        );
    }

    #[test]
    fn fault_plan_embeds_verbatim_and_replays() {
        let plan = netsim::FaultPlan {
            flaps: vec![netsim::FlapRule {
                scope: netsim::Scope::on_iface(0),
                from_ns: 50_000_000,
                until_ns: 10_000_000_000,
            }],
            ..Default::default()
        };
        let text = plan.to_json();
        let report = BenchReport {
            fig: "flap_quick".into(),
            scale: "quick",
            threads: 1,
            wall_secs_total: 0.1,
            events_total: 1,
            fault_plan: Some(text.clone()),
            cells: vec![],
        };
        let s = report.to_json().render();
        // Embedded verbatim — what the file carries is exactly what
        // `FaultPlan::from_json` replays.
        assert!(s.contains(&format!("\"fault_plan\": {text}")), "not verbatim: {s}");
        assert_eq!(netsim::FaultPlan::from_json(&text).unwrap(), plan);
    }

    #[test]
    fn save_retires_old_schema_files_to_bak() {
        let dir = std::env::temp_dir()
            .join(format!("bench-schema-test-{}-{:?}", std::process::id(), std::thread::current().id()));
        let _ = std::fs::remove_dir_all(&dir);
        let report = BenchReport {
            fig: "figtest".into(),
            scale: "quick",
            threads: 1,
            wall_secs_total: 0.1,
            events_total: 1,
            fault_plan: None,
            cells: vec![],
        };
        let path = dir.join("BENCH_figtest.json");
        let bak = dir.join("BENCH_figtest.json.bak");

        // Seed a pre-versioned (v1) file, as PR 3 and earlier wrote.
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(&path, "{\n  \"fig\": \"figtest\"\n}\n").unwrap();
        report.save_to(&dir);
        assert!(bak.exists(), "v1 file must be retired, not overwritten");
        let new = std::fs::read_to_string(&path).unwrap();
        assert_eq!(crate::json::sniff_schema_version(&new), crate::json::SCHEMA_VERSION);

        // Same-schema overwrite keeps the old backup untouched.
        std::fs::write(&bak, "sentinel").unwrap();
        report.save_to(&dir);
        assert_eq!(std::fs::read_to_string(&bak).unwrap(), "sentinel");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
