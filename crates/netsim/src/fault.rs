//! Deterministic fault-injection plane.
//!
//! A [`FaultPlan`] scripts *when and where the network misbehaves*, beyond
//! the uniform Bernoulli pipe of [`crate::NetCfg::loss_prob`]. Four fault
//! models compose, each as a list of scoped rules:
//!
//! - **Bursty loss** ([`BurstLossRule`]): a Gilbert–Elliott two-state Markov
//!   chain per rule. In the *good* state packets drop with `loss_good`
//!   (usually 0); in the *bad* state with `loss_bad` (usually high). The
//!   chain moves good→bad with probability `p_gb` and bad→good with `p_bg`
//!   per offered packet, producing correlated loss bursts whose long-run
//!   average can be matched to a Bernoulli rate (see
//!   [`BurstLossRule::matched`]).
//! - **Link flaps** ([`FlapRule`]): a scheduled `[from, until)` window during
//!   which every matching packet is refused with
//!   [`DropReason::LinkDown`](crate::DropReason::LinkDown) — the same
//!   verdict an administratively downed interface produces, so the
//!   transports' failover machinery is exercised end to end.
//! - **Delay jitter** ([`JitterRule`]): adds `U[0, max_jitter_ns]` to each
//!   matching delivery instant, with reordering bounded so that no packet is
//!   overtaken by more than `reorder_bound` later packets.
//! - **Bandwidth degradation** ([`DegradeRule`]): a scheduled window during
//!   which matching links serialize at `factor` × their configured rate.
//!
//! # Determinism contract
//!
//! All randomness comes from the caller-supplied sequential RNG — the same
//! one the Bernoulli pipe uses — with a *fixed draw order per offered
//! packet*: every matching burst-loss rule draws exactly twice (state
//! transition, then loss), in plan order, whether or not an earlier rule
//! already dropped the packet; then the Bernoulli pipe draws (if
//! configured); then every matching jitter rule draws once, in plan order,
//! but only if the packet survived to delivery. Flaps and degradation draw
//! nothing. [`Net::transmit`](crate::Net::transmit) is the one place that
//! sequence runs; a train is offered one packet at a time through it.
//!
//! An **empty plan is free**: [`FaultState::install`] prunes rules that can
//! provably never act (zero probabilities, empty windows, zero jitter,
//! factor ≥ 1), and when nothing survives pruning the per-packet fast path
//! is a single boolean test — no RNG draws, no verdict changes. Figure
//! output is therefore bit-identical to a build without the fault plane,
//! which the `fault_props` proptest pins down.
//!
//! # Replay
//!
//! Plans serialize to a small hand-rolled JSON form ([`FaultPlan::to_json`]
//! / [`FaultPlan::from_json`]) that the bench harness embeds in its
//! `results/BENCH_*.json` reports, so any faulted experiment can be re-run
//! bit-exactly from the report alone.
//!
//! # Observability
//!
//! Every rule-state *edge* (chain enters/leaves the bad state, flap window
//! opens/closes, degradation window opens/closes) is emitted into the
//! flight recorder as a [`trace::FaultKind`] event. Edges are detected
//! lazily at packet-offer time — the fault plane, like the rest of
//! `netsim`, never schedules events of its own.

use std::collections::VecDeque;

use rand::rngs::SmallRng;
use rand::Rng;
use simcore::SimTime;
use trace::{FaultEv, FaultKind};

use crate::addr::IfAddr;

/// Which paths a fault rule applies to. `None` fields are wildcards.
///
/// A path `src → dst` matches when `iface` (if set) equals the path's
/// network index and `host` (if set) equals either endpoint's host — so a
/// scope can pin a fault to one network, one host's links, or one specific
/// attachment point.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Scope {
    /// Restrict to paths touching this host (either endpoint).
    pub host: Option<u16>,
    /// Restrict to this network (interface index).
    pub iface: Option<u8>,
}

impl Scope {
    /// Every path on every network.
    pub const ALL: Scope = Scope { host: None, iface: None };

    /// Every path on network `iface`.
    pub fn on_iface(iface: u8) -> Scope {
        Scope { host: None, iface: Some(iface) }
    }

    /// Paths touching `host` on network `iface`.
    pub fn on_link(host: u16, iface: u8) -> Scope {
        Scope { host: Some(host), iface: Some(iface) }
    }

    /// Does the path `src → dst` fall under this scope? (`src.iface ==
    /// dst.iface` is guaranteed by the caller — networks are independent.)
    pub fn matches(&self, src: IfAddr, dst: IfAddr) -> bool {
        self.iface.is_none_or(|i| i == src.iface)
            && self.host.is_none_or(|h| h == src.host || h == dst.host)
    }

    fn host_i32(&self) -> i32 {
        self.host.map_or(-1, |h| h as i32)
    }

    fn iface_i32(&self) -> i32 {
        self.iface.map_or(-1, |i| i as i32)
    }
}

/// Gilbert–Elliott bursty-loss rule. See the module docs for the chain
/// definition; the chain starts in the good state at install time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BurstLossRule {
    /// Paths the chain observes and acts on.
    pub scope: Scope,
    /// Per-packet probability of moving good → bad.
    pub p_gb: f64,
    /// Per-packet probability of moving bad → good.
    pub p_bg: f64,
    /// Loss probability while in the good state.
    pub loss_good: f64,
    /// Loss probability while in the bad state.
    pub loss_bad: f64,
}

impl BurstLossRule {
    /// Build a chain whose **long-run average loss rate** equals `avg_loss`
    /// while losses arrive in bursts of `mean_burst_pkts` expected length:
    /// the stationary bad-state fraction is `avg_loss / loss_bad` (the good
    /// state is lossless), `p_bg = 1 / mean_burst_pkts`, and `p_gb` follows
    /// from stationarity. This is how the bursty fig10/fig11 variants match
    /// the paper's 1 % / 2 % Bernoulli cells.
    pub fn matched(scope: Scope, avg_loss: f64, loss_bad: f64, mean_burst_pkts: f64) -> BurstLossRule {
        assert!(avg_loss >= 0.0 && loss_bad > 0.0 && avg_loss < loss_bad, "need avg_loss < loss_bad");
        assert!(mean_burst_pkts >= 1.0, "a burst is at least one packet");
        let pi_bad = avg_loss / loss_bad;
        let p_bg = 1.0 / mean_burst_pkts;
        let p_gb = p_bg * pi_bad / (1.0 - pi_bad);
        BurstLossRule { scope, p_gb, p_bg, loss_good: 0.0, loss_bad }
    }

    /// Stationary long-run average loss rate of this chain.
    pub fn avg_loss(&self) -> f64 {
        if self.p_gb + self.p_bg == 0.0 {
            return self.loss_good; // chain never leaves its initial (good) state
        }
        let pi_bad = self.p_gb / (self.p_gb + self.p_bg);
        pi_bad * self.loss_bad + (1.0 - pi_bad) * self.loss_good
    }

    fn is_noop(&self) -> bool {
        // Starting good: if the chain can never leave the good state and the
        // good state never drops, the rule can never act.
        (self.p_gb == 0.0 && self.loss_good == 0.0)
            || (self.loss_good == 0.0 && self.loss_bad == 0.0)
    }
}

/// Scheduled link flap: matching paths refuse everything during
/// `[from, until)` with a `LinkDown` verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlapRule {
    /// Paths taken down during the window.
    pub scope: Scope,
    /// Window start (inclusive), nanoseconds of simulated time.
    pub from_ns: u64,
    /// Window end (exclusive), nanoseconds of simulated time.
    pub until_ns: u64,
}

impl FlapRule {
    fn is_noop(&self) -> bool {
        self.from_ns >= self.until_ns
    }

    fn covers(&self, now_ns: u64) -> bool {
        (self.from_ns..self.until_ns).contains(&now_ns)
    }
}

/// Per-packet delay jitter with bounded reordering: each matching delivery
/// is delayed by `U[0, max_jitter_ns]`, clamped so that no packet is
/// overtaken by more than `reorder_bound` packets offered after it.
/// `reorder_bound = 0` jitters latency but preserves FIFO order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JitterRule {
    /// Paths whose deliveries are jittered.
    pub scope: Scope,
    /// Maximum added delay, nanoseconds (uniform).
    pub max_jitter_ns: u64,
    /// Maximum number of later packets that may overtake any given packet.
    pub reorder_bound: u32,
}

impl JitterRule {
    fn is_noop(&self) -> bool {
        self.max_jitter_ns == 0
    }
}

/// Time-windowed bandwidth degradation: during `[from, until)`, matching
/// links serialize at `factor` × the configured rate (`0 < factor < 1`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DegradeRule {
    /// Paths degraded during the window.
    pub scope: Scope,
    /// Window start (inclusive), nanoseconds of simulated time.
    pub from_ns: u64,
    /// Window end (exclusive), nanoseconds of simulated time.
    pub until_ns: u64,
    /// Bandwidth multiplier in `(0, 1)`.
    pub factor: f64,
}

impl DegradeRule {
    fn is_noop(&self) -> bool {
        self.from_ns >= self.until_ns || self.factor >= 1.0
    }

    fn covers(&self, now_ns: u64) -> bool {
        (self.from_ns..self.until_ns).contains(&now_ns)
    }
}

/// A complete fault script: four rule lists, all empty by default. See the
/// module docs for the per-packet evaluation order and determinism
/// contract.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    /// Gilbert–Elliott bursty-loss chains.
    pub burst_loss: Vec<BurstLossRule>,
    /// Scheduled link up/down windows.
    pub flaps: Vec<FlapRule>,
    /// Delay-jitter rules.
    pub jitter: Vec<JitterRule>,
    /// Bandwidth-degradation windows.
    pub degrade: Vec<DegradeRule>,
}

impl FaultPlan {
    /// True when the plan holds no rules at all.
    pub fn is_empty(&self) -> bool {
        self.burst_loss.is_empty()
            && self.flaps.is_empty()
            && self.jitter.is_empty()
            && self.degrade.is_empty()
    }

    /// True when no rule can ever change a verdict, a delivery instant, or
    /// the RNG stream — i.e. installing this plan is provably equivalent to
    /// installing an empty one.
    pub fn is_noop(&self) -> bool {
        self.burst_loss.iter().all(|r| r.is_noop())
            && self.flaps.iter().all(|r| r.is_noop())
            && self.jitter.iter().all(|r| r.is_noop())
            && self.degrade.iter().all(|r| r.is_noop())
    }

    /// Serialize to the compact JSON form embedded in BENCH reports.
    /// Window bounds round-trip exactly up to 2^53 ns (~104 days of
    /// simulated time); use a large-but-representable sentinel, not
    /// `u64::MAX`, for "forever".
    pub fn to_json(&self) -> String {
        fn scope(s: &mut String, sc: Scope) {
            s.push_str(&format!("{{\"host\":{},\"iface\":{}}}", sc.host_i32(), sc.iface_i32()));
        }
        let mut s = String::from("{\"burst_loss\":[");
        for (i, r) in self.burst_loss.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str("{\"scope\":");
            scope(&mut s, r.scope);
            s.push_str(&format!(
                ",\"p_gb\":{},\"p_bg\":{},\"loss_good\":{},\"loss_bad\":{}}}",
                r.p_gb, r.p_bg, r.loss_good, r.loss_bad
            ));
        }
        s.push_str("],\"flaps\":[");
        for (i, r) in self.flaps.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str("{\"scope\":");
            scope(&mut s, r.scope);
            s.push_str(&format!(",\"from_ns\":{},\"until_ns\":{}}}", r.from_ns, r.until_ns));
        }
        s.push_str("],\"jitter\":[");
        for (i, r) in self.jitter.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str("{\"scope\":");
            scope(&mut s, r.scope);
            s.push_str(&format!(
                ",\"max_jitter_ns\":{},\"reorder_bound\":{}}}",
                r.max_jitter_ns, r.reorder_bound
            ));
        }
        s.push_str("],\"degrade\":[");
        for (i, r) in self.degrade.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str("{\"scope\":");
            scope(&mut s, r.scope);
            s.push_str(&format!(
                ",\"from_ns\":{},\"until_ns\":{},\"factor\":{}}}",
                r.from_ns, r.until_ns, r.factor
            ));
        }
        s.push_str("]}");
        s
    }

    /// Parse the form produced by [`FaultPlan::to_json`]. Round-trips
    /// exactly for every finite plan.
    pub fn from_json(text: &str) -> Result<FaultPlan, String> {
        let v = trace::json::parse(text)?;
        fn scope_of(v: &trace::json::Json) -> Result<Scope, String> {
            let sc = v.get("scope").ok_or("rule missing scope")?;
            let host = sc.get("host").and_then(|h| h.as_i64()).ok_or("scope missing host")?;
            let iface = sc.get("iface").and_then(|i| i.as_i64()).ok_or("scope missing iface")?;
            Ok(Scope {
                host: (host >= 0).then_some(host as u16),
                iface: (iface >= 0).then_some(iface as u8),
            })
        }
        fn f64_of(v: &trace::json::Json, key: &str) -> Result<f64, String> {
            v.get(key).and_then(|x| x.as_f64()).ok_or_else(|| format!("missing {key}"))
        }
        fn u64_of(v: &trace::json::Json, key: &str) -> Result<u64, String> {
            v.get(key).and_then(|x| x.as_u64()).ok_or_else(|| format!("missing {key}"))
        }
        let mut plan = FaultPlan::default();
        for r in v.get("burst_loss").and_then(|a| a.as_arr()).ok_or("missing burst_loss")? {
            plan.burst_loss.push(BurstLossRule {
                scope: scope_of(r)?,
                p_gb: f64_of(r, "p_gb")?,
                p_bg: f64_of(r, "p_bg")?,
                loss_good: f64_of(r, "loss_good")?,
                loss_bad: f64_of(r, "loss_bad")?,
            });
        }
        for r in v.get("flaps").and_then(|a| a.as_arr()).ok_or("missing flaps")? {
            plan.flaps.push(FlapRule {
                scope: scope_of(r)?,
                from_ns: u64_of(r, "from_ns")?,
                until_ns: u64_of(r, "until_ns")?,
            });
        }
        for r in v.get("jitter").and_then(|a| a.as_arr()).ok_or("missing jitter")? {
            plan.jitter.push(JitterRule {
                scope: scope_of(r)?,
                max_jitter_ns: u64_of(r, "max_jitter_ns")?,
                reorder_bound: u64_of(r, "reorder_bound")? as u32,
            });
        }
        for r in v.get("degrade").and_then(|a| a.as_arr()).ok_or("missing degrade")? {
            plan.degrade.push(DegradeRule {
                scope: scope_of(r)?,
                from_ns: u64_of(r, "from_ns")?,
                until_ns: u64_of(r, "until_ns")?,
                factor: f64_of(r, "factor")?,
            });
        }
        Ok(plan)
    }
}

/// Runtime state of an installed plan: the plan's *active* rules plus each
/// rule's mutable state (chain state, lazily-observed window phase, jitter
/// reorder window). Owned by [`crate::Net`]; not constructed directly.
#[derive(Debug, Clone, Default)]
pub struct FaultState {
    plan: FaultPlan,
    /// Per burst-loss rule: is the chain in the bad state?
    ge_bad: Vec<bool>,
    /// Per flap rule: last observed in-window status (for edge events).
    flap_on: Vec<bool>,
    /// Per degrade rule: last observed in-window status (for edge events).
    degrade_on: Vec<bool>,
    /// Per jitter rule: last `reorder_bound + 1` assigned arrival instants
    /// plus the monotone floor of everything older (see `jitter_arrival`).
    jit_recent: Vec<VecDeque<u64>>,
    jit_floor: Vec<u64>,
    active: bool,
}

fn emit_fault(tracer: &Option<trace::Tracer>, now: SimTime, kind: FaultKind, rule: u32, scope: Scope) {
    if let Some(t) = tracer {
        t.emit(
            now.as_nanos(),
            trace::Event::Fault(FaultEv { kind, rule, host: scope.host_i32(), iface: scope.iface_i32() }),
        );
    }
}

impl FaultState {
    /// Install `plan`, resetting all rule state. No-op rules are pruned so
    /// an all-zero plan degenerates to the empty fast path (see the module
    /// docs' determinism contract).
    pub fn install(&mut self, plan: FaultPlan) {
        let mut plan = plan;
        plan.burst_loss.retain(|r| !r.is_noop());
        plan.flaps.retain(|r| !r.is_noop());
        plan.jitter.retain(|r| !r.is_noop());
        plan.degrade.retain(|r| !r.is_noop());
        self.ge_bad = vec![false; plan.burst_loss.len()];
        self.flap_on = vec![false; plan.flaps.len()];
        self.degrade_on = vec![false; plan.degrade.len()];
        self.jit_recent = plan.jitter.iter().map(|_| VecDeque::new()).collect();
        self.jit_floor = vec![0; plan.jitter.len()];
        self.active = !plan.is_empty();
        self.plan = plan;
    }

    /// One-branch fast path: false means every hook below is skipped.
    #[inline]
    pub fn active(&self) -> bool {
        self.active
    }

    /// Is `src → dst` inside any matching flap window at `now`? Emits
    /// window-edge events on the first matching packet that observes a
    /// phase change. Draws nothing from the RNG.
    pub(crate) fn flap_blocks(
        &mut self,
        tracer: &Option<trace::Tracer>,
        now: SimTime,
        src: IfAddr,
        dst: IfAddr,
    ) -> bool {
        let mut blocked = false;
        for (i, r) in self.plan.flaps.iter().enumerate() {
            if !r.scope.matches(src, dst) {
                continue;
            }
            let on = r.covers(now.as_nanos());
            if on != self.flap_on[i] {
                self.flap_on[i] = on;
                let kind = if on { FaultKind::FlapDown } else { FaultKind::FlapUp };
                emit_fault(tracer, now, kind, i as u32, r.scope);
            }
            blocked |= on;
        }
        blocked
    }

    /// Advance every matching Gilbert–Elliott chain by one packet and
    /// return whether any chain drops it. Exactly two RNG draws per
    /// matching rule, always, so the draw sequence is data-independent.
    pub(crate) fn bursty_drop(
        &mut self,
        tracer: &Option<trace::Tracer>,
        now: SimTime,
        src: IfAddr,
        dst: IfAddr,
        rng: &mut SmallRng,
    ) -> bool {
        let mut dropped = false;
        for (i, r) in self.plan.burst_loss.iter().enumerate() {
            if !r.scope.matches(src, dst) {
                continue;
            }
            let bad = self.ge_bad[i];
            let flip = rng.gen_bool(if bad { r.p_bg } else { r.p_gb });
            if flip {
                self.ge_bad[i] = !bad;
                let kind = if bad { FaultKind::GeGood } else { FaultKind::GeBad };
                emit_fault(tracer, now, kind, i as u32, r.scope);
            }
            let loss_p = if self.ge_bad[i] { r.loss_bad } else { r.loss_good };
            dropped |= rng.gen_bool(loss_p);
        }
        dropped
    }

    /// Effective link rate for `src → dst` at `now`: the configured
    /// `base_bps` scaled by the smallest matching in-window degradation
    /// factor. Emits window-edge events; draws nothing.
    pub(crate) fn degraded_bps(
        &mut self,
        tracer: &Option<trace::Tracer>,
        now: SimTime,
        src: IfAddr,
        dst: IfAddr,
        base_bps: u64,
    ) -> u64 {
        let mut factor = 1.0f64;
        for (i, r) in self.plan.degrade.iter().enumerate() {
            if !r.scope.matches(src, dst) {
                continue;
            }
            let on = r.covers(now.as_nanos());
            if on != self.degrade_on[i] {
                self.degrade_on[i] = on;
                let kind = if on { FaultKind::DegradeOn } else { FaultKind::DegradeOff };
                emit_fault(tracer, now, kind, i as u32, r.scope);
            }
            if on {
                factor = factor.min(r.factor);
            }
        }
        if factor >= 1.0 {
            base_bps
        } else {
            ((base_bps as f64 * factor) as u64).max(1)
        }
    }

    /// Jitter a delivery instant. One RNG draw per matching rule. The
    /// reordering bound is enforced with a sliding window per rule: before
    /// assigning instant `a_i`, the instant assigned `reorder_bound + 1`
    /// packets ago is folded into a monotone floor, and `a_i` is clamped to
    /// it — so `a_i ≥ a_j` whenever `i − j > reorder_bound`, i.e. at most
    /// `reorder_bound` later packets can overtake any given packet. Jitter
    /// only ever *delays* (`a_i ≥ at`), so causality is preserved.
    pub(crate) fn jitter_arrival(
        &mut self,
        at: SimTime,
        src: IfAddr,
        dst: IfAddr,
        rng: &mut SmallRng,
    ) -> SimTime {
        let mut out = at;
        for (i, r) in self.plan.jitter.iter().enumerate() {
            if !r.scope.matches(src, dst) {
                continue;
            }
            let d = rng.gen_range(0..=r.max_jitter_ns);
            let mut a = out.as_nanos().saturating_add(d);
            let win = &mut self.jit_recent[i];
            if win.len() > r.reorder_bound as usize {
                let oldest = win.pop_front().unwrap();
                self.jit_floor[i] = self.jit_floor[i].max(oldest);
            }
            a = a.max(self.jit_floor[i]);
            win.push_back(a);
            out = SimTime::from_nanos(a);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Net, NetCfg, Verdict};
    use simcore::derive_rng;

    fn path() -> (IfAddr, IfAddr) {
        (IfAddr::new(0, 0), IfAddr::new(1, 0))
    }

    /// Offer `n` far-apart packets (no queueing) and count drops.
    fn drop_rate(net: &mut Net, rng: &mut SmallRng, n: u64) -> f64 {
        let (src, dst) = path();
        let mut drops = 0u64;
        for k in 0..n {
            // Spread offers out so links never queue.
            let now = SimTime::from_nanos(k * 1_000_000);
            if matches!(net.transmit(now, src, dst, 100, rng), Verdict::Drop(_)) {
                drops += 1;
            }
        }
        drops as f64 / n as f64
    }

    #[test]
    fn gilbert_elliott_long_run_average_converges() {
        for &(avg, burst) in &[(0.01, 10.0), (0.02, 25.0), (0.05, 5.0)] {
            let rule = BurstLossRule::matched(Scope::ALL, avg, 0.5, burst);
            assert!((rule.avg_loss() - avg).abs() < 1e-12, "stationary rate mismatch");
            let mut net = Net::new(NetCfg::paper_cluster(0.0));
            net.set_fault_plan(FaultPlan { burst_loss: vec![rule], ..Default::default() });
            let mut rng = derive_rng(7, 7);
            let measured = drop_rate(&mut net, &mut rng, 400_000);
            assert!(
                (measured - avg).abs() < avg * 0.25,
                "GE measured {measured}, expected ~{avg} (burst {burst})"
            );
        }
    }

    #[test]
    fn gilbert_elliott_losses_are_bursty() {
        // Same average rate, very different clustering: the GE chain must
        // produce longer runs of consecutive drops than Bernoulli would.
        let avg = 0.02;
        let rule = BurstLossRule::matched(Scope::ALL, avg, 1.0, 20.0);
        let mut net = Net::new(NetCfg::paper_cluster(0.0));
        net.set_fault_plan(FaultPlan { burst_loss: vec![rule], ..Default::default() });
        let (src, dst) = path();
        let mut rng = derive_rng(3, 1);
        let (mut run, mut max_run) = (0u32, 0u32);
        for k in 0..200_000u64 {
            let now = SimTime::from_nanos(k * 1_000_000);
            if matches!(net.transmit(now, src, dst, 100, &mut rng), Verdict::Drop(_)) {
                run += 1;
                max_run = max_run.max(run);
            } else {
                run = 0;
            }
        }
        // With loss_bad = 1.0 and mean burst 20 pkts, runs of 10+ are
        // routine; Bernoulli at 2% reaches ~3 in a trace this long.
        assert!(max_run >= 10, "longest loss run {max_run}, expected bursty (>= 10)");
    }

    #[test]
    fn flap_window_drops_then_recovers() {
        let mut net = Net::new(NetCfg::paper_cluster(0.0));
        net.set_fault_plan(FaultPlan {
            flaps: vec![FlapRule { scope: Scope::on_iface(0), from_ns: 1_000, until_ns: 2_000 }],
            ..Default::default()
        });
        let (src, dst) = path();
        let mut rng = derive_rng(1, 1);
        let before = net.transmit(SimTime::from_nanos(0), src, dst, 100, &mut rng);
        assert!(matches!(before, Verdict::Deliver { .. }));
        let during = net.transmit(SimTime::from_nanos(1_500), src, dst, 100, &mut rng);
        assert_eq!(during, Verdict::Drop(crate::DropReason::LinkDown));
        // Another network is unaffected.
        let other =
            net.transmit(SimTime::from_nanos(1_500), IfAddr::new(0, 1), IfAddr::new(1, 1), 100, &mut rng);
        assert!(matches!(other, Verdict::Deliver { .. }));
        let after = net.transmit(SimTime::from_nanos(2_000), src, dst, 100, &mut rng);
        assert!(matches!(after, Verdict::Deliver { .. }));
        assert_eq!(net.stats.drops_down, 1);
    }

    #[test]
    fn jitter_respects_reorder_bound_and_causality() {
        for &bound in &[0u32, 1, 4, 16] {
            let mut st = FaultState::default();
            st.install(FaultPlan {
                jitter: vec![JitterRule { scope: Scope::ALL, max_jitter_ns: 50_000, reorder_bound: bound }],
                ..Default::default()
            });
            let (src, dst) = path();
            let mut rng = derive_rng(9, bound as u64);
            let mut assigned = Vec::new();
            for k in 0..5_000u64 {
                let at = SimTime::from_nanos(k * 1_000);
                let a = st.jitter_arrival(at, src, dst, &mut rng);
                assert!(a >= at, "jitter must never deliver early");
                assigned.push(a.as_nanos());
            }
            for (j, &aj) in assigned.iter().enumerate() {
                let overtakers =
                    assigned[j + 1..].iter().filter(|&&ai| ai < aj).count();
                assert!(
                    overtakers <= bound as usize,
                    "packet {j} overtaken by {overtakers} > bound {bound}"
                );
            }
            if bound == 0 {
                for w in assigned.windows(2) {
                    assert!(w[0] <= w[1], "bound 0 must preserve FIFO order");
                }
            }
        }
    }

    #[test]
    fn degrade_window_slows_serialization() {
        let mut net = Net::new(NetCfg::paper_cluster(0.0));
        let (src, dst) = path();
        let mut rng = derive_rng(2, 2);
        let t0 = SimTime::from_nanos(0);
        let Verdict::Deliver { at: base } = net.transmit(t0, src, dst, 1500, &mut rng) else {
            panic!("delivery expected")
        };
        // Half-rate window: serialization doubles (12us -> 24us per hop).
        let mut net2 = Net::new(NetCfg::paper_cluster(0.0));
        net2.set_fault_plan(FaultPlan {
            degrade: vec![DegradeRule { scope: Scope::ALL, from_ns: 0, until_ns: u64::MAX, factor: 0.5 }],
            ..Default::default()
        });
        let Verdict::Deliver { at: slow } = net2.transmit(t0, src, dst, 1500, &mut rng) else {
            panic!("delivery expected")
        };
        // 1500 B at 500 Mb/s = 24 us per hop instead of 12: +12 us per hop.
        assert_eq!(slow.since(base), simcore::Dur::from_micros(24));
    }

    #[test]
    fn all_zero_plan_is_pruned_to_empty() {
        let mut st = FaultState::default();
        st.install(FaultPlan {
            burst_loss: vec![BurstLossRule { scope: Scope::ALL, p_gb: 0.0, p_bg: 0.0, loss_good: 0.0, loss_bad: 0.9 }],
            flaps: vec![FlapRule { scope: Scope::ALL, from_ns: 5, until_ns: 5 }],
            jitter: vec![JitterRule { scope: Scope::ALL, max_jitter_ns: 0, reorder_bound: 3 }],
            degrade: vec![DegradeRule { scope: Scope::ALL, from_ns: 0, until_ns: 100, factor: 1.0 }],
        });
        assert!(!st.active(), "all-zero plan must degenerate to the empty fast path");
    }

    #[test]
    fn empty_plan_leaves_rng_and_verdicts_untouched() {
        let cfg = NetCfg::paper_cluster(0.02);
        let mut plain = Net::new(cfg);
        let mut planned = Net::new(cfg);
        planned.set_fault_plan(FaultPlan::default());
        let (src, dst) = path();
        let mut rng_a = derive_rng(11, 4);
        let mut rng_b = derive_rng(11, 4);
        for k in 0..20_000u64 {
            let now = SimTime::from_nanos(k * 10_000);
            let va = plain.transmit(now, src, dst, 1500, &mut rng_a);
            let vb = planned.transmit(now, src, dst, 1500, &mut rng_b);
            assert_eq!(va, vb);
        }
        assert_eq!(plain.stats, planned.stats);
        // The RNG streams must still be in lockstep afterwards.
        assert_eq!(rng_a.gen_range(0..u64::MAX), rng_b.gen_range(0..u64::MAX));
    }

    #[test]
    fn plan_json_round_trips() {
        let plan = FaultPlan {
            burst_loss: vec![BurstLossRule::matched(Scope::on_iface(1), 0.01, 0.25, 12.0)],
            flaps: vec![FlapRule { scope: Scope::on_link(3, 0), from_ns: 50_000_000, until_ns: 4_000_000_000 }],
            jitter: vec![JitterRule { scope: Scope::ALL, max_jitter_ns: 30_000, reorder_bound: 3 }],
            degrade: vec![DegradeRule { scope: Scope { host: Some(0), iface: None }, from_ns: 1, until_ns: 2, factor: 0.25 }],
        };
        let text = plan.to_json();
        let back = FaultPlan::from_json(&text).expect("parse");
        assert_eq!(plan, back);
        assert_eq!(FaultPlan::from_json(&FaultPlan::default().to_json()).unwrap(), FaultPlan::default());
    }
}
