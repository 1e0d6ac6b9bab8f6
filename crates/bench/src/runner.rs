//! Parallel, self-metering experiment runner.
//!
//! Every figure/table cell — one (message size × loss rate × transport ×
//! seed) combination — is an independent deterministic simulation, so the
//! harness fans cells across a `std::thread::scope` worker pool. A cell
//! returns its workload's own result type; [`run_cells`] hands the typed
//! results back by cell index, so output order (and therefore every
//! aggregate computed from it) is identical to a sequential run no matter
//! how threads interleave; only wall-clock changes.
//!
//! Beside the results the runner builds one [`CellMeter`] per cell: wall
//! clock, simulated seconds, events fired, and the counter block of every
//! layer the result carries ([`CellResult::meter`] — one conversion per
//! result type). The per-figure roll-up is persisted as
//! `results/BENCH_<fig>.json` (schema documented in EXPERIMENTS.md) so
//! harness performance is comparable across PRs.
//!
//! `SIM_CHECK=1` turns on shadow verification: every cell runs twice, first
//! under the reference wakeup discipline (pre-coalescing accounting), then
//! under the fast one, and the harness panics if the two typed results
//! differ in anything but their run-cost counters
//! ([`CellResult::strip_cost`]). Only the fast run is metered.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use mpi_core::MpiReport;
use netsim::NetStats;
use simcore::SchedCounters;
use transport::sctp::AssocStats;
use transport::tcp::SockStats;
use workloads::farm::FarmResult;
use workloads::media::MediaResult;
use workloads::mixed::TracedMixedResult;
use workloads::nas::NasResult;
use workloads::pingpong::PingPongResult;
use workloads::scale::FanInResult;

use crate::json::{Json, ToJson};
use crate::Scale;

/// One unit of work: a label for the meter plus the simulation closure.
pub struct Cell<R> {
    pub label: String,
    pub run: Box<dyn Fn() -> R + Send + Sync>,
}

impl<R> Cell<R> {
    pub fn new(label: String, run: impl Fn() -> R + Send + Sync + 'static) -> Cell<R> {
        Cell { label, run: Box::new(run) }
    }
}

/// One layer's counter block in a report cell: the group's key and its
/// JSON object.
pub type Group = (&'static str, Json);

/// What the harness needs from a cell's result, whatever workload made it.
pub trait CellResult: std::fmt::Debug + Clone + Send {
    /// Simulated seconds the run covered, simulator events it fired, and
    /// one [`Group`] per layer that ran in it — none for a layer that did
    /// not (a TCP cell has no `sctp`, a live cell no `sched`), so a report
    /// never shows a structural zero.
    fn meter(&self) -> (f64, u64, Vec<Group>);
    /// Zero what the wakeup discipline changes by design; `SIM_CHECK` compares everything that is left.
    fn strip_cost(&mut self);
}

fn group<const N: usize>(name: &'static str, fields: [(&'static str, &dyn ToJson); N]) -> Group {
    (name, Json::obj(fields.iter().map(|(k, v)| (*k, v.to_json()))))
}

/// The groups of a run under `mpirun`; a transport counts as having run
/// when it sent anything.
fn mpi_groups(s: SchedCounters, net: NetStats, tcp: SockStats, sctp: AssocStats) -> Vec<Group> {
    let mut groups = vec![group(
        "sched",
        [
            ("polls_total", &s.polls),
            ("wakes_coalesced", &s.wakes_coalesced),
            ("events_queued", &s.queued),
        ],
    )];
    if sctp.packets_out > 0 {
        groups.push(group(
            "sctp",
            [
                ("packets_out", &sctp.packets_out),
                ("retransmits", &sctp.retransmits),
                ("fast_retransmits", &sctp.fast_retransmits),
                ("timeouts", &sctp.timeouts),
                ("failovers", &sctp.failovers),
                ("per_path_pkts", &sctp.per_path_pkts.to_vec()),
                ("spurious_frtx_total", &sctp.spurious_frtx),
                ("rescue_rtx_total", &sctp.rescue_rtx),
                ("msgs_abandoned", &sctp.msgs_abandoned),
                ("fwd_tsn_total", &sctp.fwd_tsn_out),
            ],
        ));
    }
    if tcp.segs_out > 0 {
        groups.push(group(
            "tcp",
            [
                ("segs_out", &tcp.segs_out),
                ("retransmits", &tcp.retransmits),
                ("fast_retransmits", &tcp.fast_retransmits),
                ("timeouts", &tcp.timeouts),
            ],
        ));
    }
    groups.push(group(
        "net",
        [
            ("packets_offered", &net.packets_offered),
            ("packets_delivered", &net.packets_delivered),
            ("drops_loss", &net.drops_loss),
            ("drops_queue", &net.drops_queue),
            ("drops_down", &net.drops_down),
        ],
    ));
    groups
}

/// Results that carry `secs`, `events` and the four `mpirun` blocks as
/// fields of those names.
macro_rules! mpi_cell_result {
    ($($t:ty),*) => {$(
        impl CellResult for $t {
            fn meter(&self) -> (f64, u64, Vec<Group>) {
                (self.secs, self.events, mpi_groups(self.sched, self.net, self.tcp, self.sctp))
            }
            fn strip_cost(&mut self) {
                self.sched = SchedCounters::default();
            }
        }
    )*};
}
mpi_cell_result!(PingPongResult, FarmResult, NasResult, FanInResult);

impl CellResult for MpiReport {
    fn meter(&self) -> (f64, u64, Vec<Group>) {
        (self.secs(), self.events, mpi_groups(self.sched, self.net, self.tcp, self.sctp))
    }
    fn strip_cost(&mut self) {
        self.sched = SchedCounters::default();
    }
}

impl CellResult for MediaResult {
    fn meter(&self) -> (f64, u64, Vec<Group>) {
        (self.secs, self.events, mpi_groups(self.sched, self.net, SockStats::default(), self.sctp))
    }
    fn strip_cost(&mut self) {
        self.sched = SchedCounters::default();
    }
}

/// Adds the sender-side head-of-line blocking its forced flight recording saw.
impl CellResult for TracedMixedResult {
    fn meter(&self) -> (f64, u64, Vec<Group>) {
        let r = &self.result;
        let mut groups = mpi_groups(r.sched, r.net, r.tcp, r.sctp);
        groups.push(group("hol", [("snd_hol_blocks", &self.snd_hol_blocks), ("snd_hol_ns", &self.snd_hol_ns)]));
        (r.secs, r.events, groups)
    }
    fn strip_cost(&mut self) {
        self.result.sched = SchedCounters::default();
    }
}

/// A live cell has no reference discipline to compare against, and of the
/// layers only the socket driver keeps counters: the scheduler is the
/// reactor loop, the network is the kernel.
impl CellResult for crate::live::LiveCell {
    fn meter(&self) -> (f64, u64, Vec<Group>) {
        let u = &self.udp;
        let udp = group(
            "udp",
            [
                ("tx_frames", &u.tx_frames),
                ("tx_calls", &u.tx_calls),
                ("tx_copied", &u.tx_copied),
                ("rx_frames", &u.rx_frames),
                ("rx_calls", &u.rx_calls),
                ("rx_copied", &u.rx_copied),
                ("rx_errors", &u.rx_errors),
                ("rx_bad_crc", &u.rx_bad_crc),
                ("rx_bad_frame", &u.rx_bad_frame),
            ],
        );
        (self.sim_secs, self.events, vec![udp])
    }
    fn strip_cost(&mut self) {}
}

/// Per-cell self-metering record (one row of `results/BENCH_<fig>.json`).
#[derive(Debug, Clone)]
pub struct CellMeter {
    pub label: String,
    pub wall_secs: f64,
    pub sim_secs: f64,
    pub events_fired: u64,
    /// Heap allocations during the metered run (`ALLOC_METER=1`; 0 when the
    /// counting allocator is off). Process-global, so attributable to this
    /// cell only at `BENCH_THREADS=1`.
    pub allocs_total: u64,
    /// One group per layer that ran in the cell.
    pub layers: Vec<Group>,
}

impl CellMeter {
    /// Counter `key` of layer group `layer`, if that layer ran in the cell.
    pub fn counter(&self, layer: &str, key: &str) -> Option<u64> {
        let (_, group) = self.layers.iter().find(|(name, _)| *name == layer)?;
        group.get(key)?.as_u64()
    }

    /// The one place a cell's result becomes its report row.
    pub fn new(label: String, wall_secs: f64, allocs_total: u64, r: &impl CellResult) -> CellMeter {
        let (sim_secs, events_fired, layers) = r.meter();
        CellMeter { label, wall_secs, sim_secs, events_fired, allocs_total, layers }
    }
}

impl ToJson for CellMeter {
    /// Adds the rates: events per wall second, wall-clock µs per event (the
    /// runtime-overhead trajectory) and allocations per event.
    fn to_json(&self) -> Json {
        let (wall, events) = (self.wall_secs, self.events_fired.max(1) as f64);
        let mut fields = vec![
            ("label", self.label.to_json()),
            ("wall_secs", wall.to_json()),
            ("sim_secs", self.sim_secs.to_json()),
            ("events_fired", self.events_fired.to_json()),
            ("events_per_sec", (self.events_fired as f64 / wall.max(1e-9)).to_json()),
            ("us_per_event", (wall * 1e6 / events).to_json()),
            ("allocs_total", self.allocs_total.to_json()),
            ("allocs_per_event", (self.allocs_total as f64 / events).to_json()),
        ];
        fields.extend(self.layers.iter().cloned());
        Json::obj(fields)
    }
}

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
        Json::obj(fields)
    }
}

impl BenchReport {
    /// Roll `cells` up under `fig`'s scale-tagged name.
    pub fn new(
        fig: &str,
        scale: Scale,
        threads: usize,
        wall_secs_total: f64,
        fault_plan: Option<String>,
        cells: Vec<CellMeter>,
    ) -> BenchReport {
        BenchReport {
            fig: scale.tag(fig),
            scale: match scale {
                Scale::Paper => "paper",
                Scale::Quick => "quick",
            },
            threads,
            wall_secs_total,
            events_total: cells.iter().map(|m| m.events_fired).sum(),
            fault_plan,
            cells,
        }
    }

    /// Append `other`'s cells: one figure whose cells come in more than one
    /// result type runs a pool per type and reports them together.
    pub fn absorb(&mut self, other: BenchReport) {
        self.wall_secs_total += other.wall_secs_total;
        self.events_total += other.events_total;
        self.cells.extend(other.cells);
    }

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
            if crate::json::schema_version(&old) != Some(crate::json::SCHEMA_VERSION) {
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

/// Panics, naming the cell, unless its reference-discipline and
/// fast-discipline runs agree on the whole typed result once the run-cost
/// counters are stripped: those exist precisely to differ. The `Debug`
/// text prints every field and enough float digits to round-trip, so
/// equal text is bit-equal results.
fn assert_disciplines_agree<R: CellResult>(label: &str, reference: &R, fast: &R) {
    let semantic = |r: &R| {
        let mut r = r.clone();
        r.strip_cost();
        format!("{r:?}")
    };
    let (reference, fast) = (semantic(reference), semantic(fast));
    assert!(
        reference == fast,
        "SIM_CHECK divergence in cell `{label}`:\n reference {reference}\n fast      {fast}"
    );
}

/// Runs all cells on the worker pool; returns the cells' own results in
/// cell order plus the metering roll-up. `plan_json` — the serialized
/// [`netsim::FaultPlan`] a fault experiment's cells ran under — is stamped
/// into the report so `results/BENCH_<fig>.json` carries everything needed
/// to replay the run.
pub fn run_cells<R: CellResult>(
    fig: &str,
    scale: Scale,
    cells: Vec<Cell<R>>,
    plan_json: Option<String>,
) -> (Vec<R>, BenchReport) {
    let n = cells.len();
    let threads = pool_threads().min(n.max(1));
    let check = sim_check();
    let _env_metering = crate::alloc_meter::env_enabled().then(|| crate::alloc_meter::enable(true));
    let metering_allocs = crate::alloc_meter::enabled();
    let start = Instant::now();
    let next = AtomicUsize::new(0);
    let worker = || {
        // Metering is per thread: a metered caller meters its workers.
        let _metering = crate::alloc_meter::enable(metering_allocs);
        let mut done: Vec<(usize, R, CellMeter)> = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= n {
                return done;
            }
            let cell = &cells[i];
            // Name any flight-recorder capture after the cell, so a
            // `TRACE=1 bench fig10 --quick` run leaves one
            // `traces/<fig>_<label>.{pcapng,jsonl}` pair per cell. The
            // label is thread-local; clearing it keeps later non-cell
            // runs on the seed-derived default name.
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
            let r = (cell.run)();
            let wall = t0.elapsed().as_secs_f64();
            let allocs_total = a0.map_or(0, |a| crate::alloc_meter::allocs().saturating_sub(a));
            trace::set_run_label(None);
            if let Some(reference) = &reference {
                assert_disciplines_agree(&cell.label, reference, &r);
            }
            let meter = CellMeter::new(cell.label.clone(), wall, allocs_total, &r);
            done.push((i, r, meter));
        }
    };
    // Each worker hands back what it ran; a cell's panic is the pool's.
    let mut done: Vec<(usize, R, CellMeter)> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..threads).map(|_| s.spawn(worker)).collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().unwrap_or_else(|panic| std::panic::resume_unwind(panic)))
            .collect()
    });
    let wall_total = start.elapsed().as_secs_f64();
    done.sort_by_key(|&(i, ..)| i);
    let (results, meters): (Vec<R>, Vec<CellMeter>) = done.into_iter().map(|(_, r, m)| (r, m)).unzip();
    let report = BenchReport::new(fig, scale, threads, wall_total, plan_json, meters);
    (results, report)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A hand-built ping-pong result: `events` doubles as the value.
    fn sample(events: u64) -> PingPongResult {
        PingPongResult {
            size: 1024,
            iters: 10,
            secs: 0.5,
            throughput: events as f64,
            events,
            sched: SchedCounters { polls: 7, ..SchedCounters::default() },
            sctp: AssocStats { packets_out: 9, ..AssocStats::default() },
            tcp: SockStats::default(),
            net: NetStats::default(),
            mpi: mpi_core::MpiStats::default(),
        }
    }

    #[test]
    fn results_are_in_cell_order_regardless_of_runtime() {
        // Cells finish in reverse submission order (later = faster), yet
        // the typed results come back in cell order.
        let cells: Vec<Cell<PingPongResult>> = (0..16)
            .map(|i| {
                Cell::new(format!("cell{i}"), move || {
                    std::thread::sleep(std::time::Duration::from_millis(16 - i));
                    sample(i)
                })
            })
            .collect();
        let (results, report) = run_cells("test", Scale::Quick, cells, None);
        let got: Vec<u64> = results.iter().map(|r| r.events).collect();
        assert_eq!(got, (0..16).collect::<Vec<_>>());
        assert_eq!(report.cells.len(), 16);
        assert_eq!(report.cells[3].label, "cell3");
        assert_eq!(report.events_total, (0..16).sum::<u64>());
        assert!(report.wall_secs_total > 0.0);
    }

    #[test]
    fn sim_check_names_the_cell_on_any_semantic_difference_and_ignores_run_cost() {
        type Edit = fn(&mut PingPongResult);
        let semantic: [(&str, Edit); 7] = [
            ("value", |r| r.throughput += 1.0),
            ("sim seconds", |r| r.secs = f64::from_bits(r.secs.to_bits() + 1)),
            ("events", |r| r.events += 1),
            ("per-path packets", |r| r.sctp.per_path_pkts[1] += 1),
            ("abandoned messages", |r| r.sctp.msgs_abandoned += 1),
            ("FORWARD-TSN count", |r| r.sctp.fwd_tsn_out += 1),
            ("drops", |r| r.net.drops_queue += 1),
        ];
        for (what, edit) in semantic {
            let mut fast = sample(3);
            edit(&mut fast);
            let err = std::panic::catch_unwind(|| {
                assert_disciplines_agree("size=1024 rpi=sctp", &sample(3), &fast)
            })
            .expect_err(what);
            let msg = err.downcast_ref::<String>().expect("formatted panic");
            assert!(msg.contains("cell `size=1024 rpi=sctp`"), "{what}: {msg}");
        }
        let cost: [Edit; 3] = [
            |r| r.sched.polls += 1,
            |r| r.sched.wakes_coalesced += 1,
            |r| r.sched.queued += 1,
        ];
        for edit in cost {
            let mut fast = sample(3);
            edit(&mut fast);
            assert_disciplines_agree("cell", &sample(3), &fast);
        }
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
    fn bench_report_renders_schema() {
        let sim = CellMeter::new("sim".into(), 0.25, 123, &sample(10));
        let live = crate::live::LiveCell {
            throughput: 1.0,
            rtt: 1.0,
            events: 4,
            wall_secs: 0.5,
            sim_secs: 0.5,
            udp: transport::backend::udp::UdpStats { tx_frames: 5, ..Default::default() },
        };
        let live = CellMeter::new("live".into(), live.wall_secs, 0, &live);
        let render = |c: &CellMeter| c.to_json().render();
        let (sim, live) = (render(&sim), render(&live));
        for key in [
            "\"label\": \"sim\"",
            "\"events_fired\": 10",
            "\"us_per_event\": 25000.0",
            "\"allocs_total\": 123",
            "\"allocs_per_event\": 12.3",
            "\"sched\": {",
            "\"polls_total\": 7",
            "\"wakes_coalesced\"",
            "\"events_queued\"",
            "\"sctp\": {",
            "\"per_path_pkts\"",
            "\"spurious_frtx_total\"",
            "\"rescue_rtx_total\"",
            "\"msgs_abandoned\"",
            "\"fwd_tsn_total\"",
            "\"net\": {",
            "\"drops_queue\"",
        ] {
            assert!(sim.contains(key), "missing {key} in {sim}");
        }
        // A layer that did not run leaves no group behind: no TCP in an
        // SCTP cell, no scheduler or simulated network in a live one.
        for group in ["\"tcp\"", "\"udp\"", "\"hol\""] {
            assert!(!sim.contains(group), "structural {group} group in {sim}");
        }
        assert!(live.contains("\"udp\": {") && live.contains("\"tx_frames\": 5"), "{live}");
        for group in ["\"sched\"", "\"net\"", "\"sctp\"", "\"tcp\""] {
            assert!(!live.contains(group), "structural {group} group in {live}");
        }

        let report = BenchReport::new("fig0", Scale::Quick, 2, 0.5, None, vec![]);
        let s = report.to_json().render();
        assert!(s.contains("\"fig\": \"fig0_quick\"") && s.contains("\"threads\": 2"), "{s}");
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
        let report = BenchReport::new("flap", Scale::Quick, 1, 0.1, Some(text.clone()), vec![]);
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
        let report = BenchReport::new("figtest", Scale::Paper, 1, 0.1, None, vec![]);
        let path = dir.join("BENCH_figtest.json");
        let bak = dir.join("BENCH_figtest.json.bak");
        std::fs::create_dir_all(&dir).unwrap();

        // A pre-versioned (v1) file, as PR 3 and earlier wrote, then a v2
        // file (ungrouped cells): each is retired.
        for old in ["{\n  \"fig\": \"figtest\"\n}\n", "{\n  \"schema_version\": 2\n}\n"] {
            let _ = std::fs::remove_file(&bak);
            std::fs::write(&path, old).unwrap();
            report.save_to(&dir);
            assert_eq!(std::fs::read_to_string(&bak).unwrap(), old, "retired, not overwritten");
            let new = std::fs::read_to_string(&path).unwrap();
            assert_eq!(crate::json::schema_version(&new), Some(crate::json::SCHEMA_VERSION));
        }

        // Same-schema overwrite keeps the old backup untouched.
        std::fs::write(&bak, "sentinel").unwrap();
        report.save_to(&dir);
        assert_eq!(std::fs::read_to_string(&bak).unwrap(), "sentinel");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
