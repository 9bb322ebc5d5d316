//! `paper-sweep`: single-node runs through `run_app`, fanned out by
//! `par_map` over its workers (one per core).
//!
//! One op is one Table VI application's sweep, as fig4 runs it: the
//! `StepAfter` protocol at every cap 45–150 W, fig3's jagged-edge and
//! linear-decay schedules, and two runs on the emulated backend with 2 ms
//! cap latching (one jagged-edge, one `StepAfter` at a seeded cap). The
//! seed sets every run's workload seed and the order of runs and sweeps.
//! A per-run median would jump between the applications' cost clusters,
//! since the cycle's 60 runs split evenly between them; five sweeps per
//! cycle put the median inside one.

use std::cell::Cell;

use nrm::daemon::NrmDaemon;
use powerprog_core::runner::{ChannelStats, FaultSummary};
use powerprog_core::sweep::par_map;
use powerprog_core::{run_app, RunArtifacts, RunConfig, ScheduleSpec};
use progress::aggregator::ProgressAggregator;
use progress::bus::{BusConfig, DropPolicy, ProgressBus, Subscriber};
use progress::event::SourceId;
use proxyapps::catalog::{build, AppId};
use proxyapps::runtime::{Action, Driver, Program};
use proxyapps::trace::TelemetryAgent;
use simnode::agent::SimAgent;
use simnode::faults::FaultStats;
use simnode::hw::{
    encode_perf_ctl, BackendKind, Capabilities, EmulatedBackend, MsrBackend, MsrDevice, MsrError,
    SimBackend, IA32_PERF_CTL,
};
use simnode::node::Node;
use simnode::time::{Nanos, SEC};

use crate::common::{
    guarded, median, run_for, setup_reps, timed, workers, Fnv, RefClock, Rng, RunResult, SETUP_REPS,
};
use crate::trace;

/// Host time of one op cycle (a sweep per application) at the nominal
/// kernel speed, s.
const CYCLE_S: f64 = 2.7;

const CAPS_W: [f64; 8] = [45.0, 60.0, 75.0, 90.0, 105.0, 120.0, 135.0, 150.0];

/// fig4's protocol: uncapped for 10 s, then capped at `cap_w`.
fn fig4(cap_w: f64) -> ScheduleSpec {
    ScheduleSpec::StepAfter {
        lead_in: 10 * SEC,
        cap_w,
    }
}

/// The seeded op cycle: one op per Table VI application, each a sweep of
/// that application's runs in a seeded order.
fn cycle(seed: u64) -> Vec<Vec<RunConfig>> {
    let mut rng = Rng::new(seed, 1);
    let fig3 = 60 * SEC;
    let jagged = ScheduleSpec::Jagged {
        high_w: 150.0,
        low_w: 60.0,
        decay: fig3 / 3,
    };
    let linear = ScheduleSpec::LinearDecay {
        uncapped_for: fig3 / 6,
        from_w: 150.0,
        to_w: 60.0,
        ramp: fig3 * 2 / 3,
    };
    let mut ops = Vec::new();
    for app in AppId::table_vi() {
        let mut sweep = Vec::new();
        let latched_cap = CAPS_W[rng.below(CAPS_W.len())];
        let mut runs: Vec<(Nanos, ScheduleSpec, BackendKind)> = CAPS_W
            .iter()
            .map(|&cap| (30 * SEC, fig4(cap), BackendKind::Sim))
            .collect();
        runs.push((fig3, jagged, BackendKind::Sim));
        runs.push((fig3, linear, BackendKind::Sim));
        runs.push((fig3, jagged, BackendKind::emulated()));
        runs.push((30 * SEC, fig4(latched_cap), BackendKind::emulated()));
        for (duration, schedule, backend) in runs {
            sweep.push(
                RunConfig::new(app, duration)
                    .with_seed(rng.next_u64() >> 1)
                    .with_schedule(schedule)
                    .with_backend(backend),
            );
        }
        rng.shuffle(&mut sweep);
        ops.push(sweep);
    }
    rng.shuffle(&mut ops);
    ops
}

/// FNV over a run's simulated outputs: energy, progress series, exact
/// channel statistics, counters, daemon caps and power telemetry.
fn fingerprint(a: &RunArtifacts) -> u64 {
    let mut h = Fnv::default();
    h.f64(a.total_energy_j);
    h.f64(a.duration_s);
    for s in &a.progress {
        h.f64s(&s.t);
        h.f64s(&s.v);
    }
    for c in &a.channel_stats {
        h.u64(c.events);
        h.f64(c.sum);
        h.u64(c.last_at);
    }
    h.f64(a.counters.instructions);
    h.f64(a.counters.cycles);
    h.f64(a.counters.l3_misses);
    for d in &a.daemon_samples {
        h.f64(d.cap_w.unwrap_or(f64::NAN));
        h.f64(d.avg_power_w);
    }
    h.f64s(&a.telemetry.power.v);
    h.u64(a.record.barriers);
    h.finish()
}

/// The program's own invariants for a fault-free run: it ran to its
/// limit, its energy and progress are finite and non-negative, and every
/// actuation landed.
fn run_ok(cfg: &RunConfig, a: &RunArtifacts) -> bool {
    (a.record.all_done || a.record.end >= cfg.duration)
        && a.total_energy_j.is_finite()
        && a.total_energy_j > 0.0
        && a.progress
            .iter()
            .all(|s| s.v.iter().all(|v| v.is_finite() && *v >= 0.0))
        && a.actuation_failures() == 0
}

struct Done {
    ms: f64,
    ok: bool,
    hash: u64,
    sim_s: f64,
}

fn one(cfg: &RunConfig, traced: bool, op_id: u64) -> Done {
    let (res, ms) = timed(|| {
        guarded(|| {
            trace::op(op_id, "paper_sweep.op", || {
                if traced {
                    traced_run_app(cfg)
                } else {
                    run_app(cfg)
                }
            })
        })
    });
    match res {
        Ok(a) => Done {
            ms,
            ok: run_ok(cfg, &a),
            hash: fingerprint(&a),
            sim_s: a.duration_s,
        },
        Err(_) => Done {
            ms,
            ok: false,
            hash: 0,
            sim_s: 0.0,
        },
    }
}

/// One op: the sweep's runs over the `par_map` workers. Returns each run's
/// outcome and the op's host time, ms.
fn sweep(runs: &[RunConfig], traced: bool, op_id: u64) -> (Vec<Done>, f64) {
    timed(|| par_map(runs.to_vec(), |cfg| one(&cfg, traced, op_id)))
}

/// Closed loop over whole cycles for about `seconds` of ops (see
/// [`run_for`]). Returns each first-cycle run's outcome, the Σ of run
/// host times (the workers' busy time), ms, and the simulated seconds.
fn timed_loop(
    cycle: &[Vec<RunConfig>],
    seconds: f64,
    traced: bool,
    op_base: usize,
    clock: &mut RefClock,
    r: &mut RunResult,
) -> (Vec<Done>, f64, f64) {
    let (mut first, mut busy_ms, mut sim_s) = (Vec::new(), 0.0, 0.0);
    r.wall_s = run_for(seconds, cycle.len(), CYCLE_S, clock, |k, ref_ms| {
        let (done, ms) = sweep(&cycle[k % cycle.len()], traced, (op_base + k) as u64);
        r.ops.record(ms, done.iter().all(|d| d.ok), ref_ms, 0);
        busy_ms += done.iter().map(|d| d.ms).sum::<f64>();
        sim_s += done.iter().map(|d| d.sim_s).sum::<f64>();
        if k < cycle.len() {
            first.extend(done);
        }
    });
    (first, busy_ms, sim_s)
}

/// Run the workload.
pub fn run(seed: u64, seconds: f64, traced: bool) -> RunResult {
    let mut clock = RefClock::new(workers());
    let (cycle, setup) = setup_reps(SETUP_REPS, &mut clock, || {
        let c = cycle(seed);
        // The same application warms up on every seed, so set-up time does
        // not depend on which sweep the shuffle put first.
        let lammps = c
            .iter()
            .find(|s| s[0].app == AppId::Lammps)
            .expect("the cycle sweeps LAMMPS");
        std::hint::black_box(sweep(lammps, false, 0).1);
        c
    });
    let mut r = RunResult {
        setup,
        ..RunResult::default()
    };

    let untraced_s = if traced { seconds / 2.0 } else { seconds };
    let (first, busy_ms, sim_s) = timed_loop(&cycle, untraced_s, false, 0, &mut clock, &mut r);
    let mut fp = Fnv::default();
    for d in &first {
        fp.u64(d.hash);
    }
    r.fingerprint = fp.finish();
    r.ref_ms = clock.median_ms();
    r.self_check("run 0", one(&cycle[0][0], false, 0).hash, first[0].hash);
    r.extra.push(("sim_rate", sim_s / r.wall_s, "node-s/s"));
    r.extra.push((
        "par_map_util",
        busy_ms / (r.wall_s * 1e3 * workers() as f64),
        "ratio",
    ));

    if traced {
        let untraced = std::mem::take(&mut r.ops);
        let untraced_wall_s = r.wall_s;
        trace::enable();
        let (identical, checked, checked_sim_s) = check_traced_composition(&cycle);
        r.correct &= identical;
        r.notes.push(format!(
            "traced composition vs run_app: {}",
            if identical {
                "bit-identical"
            } else {
                "MISMATCH"
            }
        ));
        let base = untraced.attempted as usize;
        let (_, busy_ms, sim_s) = timed_loop(&cycle, seconds / 2.0, true, base, &mut clock, &mut r);
        let runs: usize = (0..r.ops.attempted as usize)
            .map(|k| cycle[k % cycle.len()].len())
            .sum();
        trace::count("perfbench.traced_ops", (runs as u64 + checked) as f64);
        trace::count("perfbench.sim_ns", (sim_s + checked_sim_s) * 1e9);
        trace::count("core.par_map.busy_ms", busy_ms);
        trace::count(
            "core.par_map.capacity_ms",
            r.wall_s * 1e3 * workers() as f64,
        );
        trace::count(
            "perfbench.trace_overhead_ms",
            median(&r.ops.lat_ms) - median(&untraced.lat_ms),
        );
        r.ops = untraced;
        r.wall_s = untraced_wall_s;
    }
    r
}

/// Run one op of each schedule/backend kind through both `run_app` and the
/// traced composition (with tracing on) and compare their fingerprints.
/// Returns whether all matched, the traced ops run and their simulated
/// seconds.
fn check_traced_composition(cycle: &[Vec<RunConfig>]) -> (bool, u64, f64) {
    let mut seen = Vec::new();
    let (mut all, mut sim_s) = (true, 0.0);
    for cfg in cycle.iter().flatten() {
        let kind = (std::mem::discriminant(&cfg.schedule), cfg.backend);
        if seen.contains(&kind) {
            continue;
        }
        seen.push(kind);
        let traced = trace::op(u64::MAX - seen.len() as u64, "paper_sweep.op", || {
            traced_run_app(cfg)
        });
        sim_s += traced.duration_s;
        all &= fingerprint(&run_app(cfg)) == fingerprint(&traced);
    }
    (all, seen.len() as u64, sim_s)
}

// ---------------------------------------------------------------------------
// The traced composition of `run_app`: the same node, driver and agents,
// with each layer's calls wrapped in spans.
// ---------------------------------------------------------------------------

/// A `SimAgent` whose ticks run inside a span.
struct Traced<A> {
    name: &'static str,
    inner: A,
}

impl<A: SimAgent> SimAgent for Traced<A> {
    fn period(&self) -> Nanos {
        self.inner.period()
    }
    fn phase(&self) -> Nanos {
        self.inner.phase()
    }
    fn on_tick(&mut self, node: &mut Node, now: Nanos) {
        let inner = &mut self.inner;
        trace::span(self.name, || inner.on_tick(node, now));
    }
}

/// A rank program whose `next_action` calls run inside a span.
struct TracedProgram(Box<dyn Program>);

impl Program for TracedProgram {
    fn next_action(&mut self, rank: usize) -> Action {
        let inner = &mut self.0;
        trace::span("proxyapps.driver", || inner.next_action(rank))
    }
}

/// An MSR backend with spans around user-space accesses and around each
/// advance of the register file (one per node step, where cap latches
/// land). Every register access is counted, the simulated silicon's own
/// included, but those are not timed: each is a map lookup, cheaper than a
/// span. The counts reach the trace when the node drops its device.
#[derive(Debug)]
struct TracedMsr {
    inner: Box<dyn MsrBackend>,
    reads: Cell<u64>,
    writes: u64,
    steps: u64,
}

impl TracedMsr {
    fn new(inner: Box<dyn MsrBackend>) -> Self {
        Self {
            inner,
            reads: Cell::new(0),
            writes: 0,
            steps: 0,
        }
    }
}

impl Drop for TracedMsr {
    fn drop(&mut self) {
        trace::count("simnode.msr.reads", self.reads.get() as f64);
        trace::count("simnode.msr.writes", self.writes as f64);
        trace::count("simnode.steps", self.steps as f64);
    }
}

impl MsrBackend for TracedMsr {
    fn read(&self, addr: u32) -> Result<u64, MsrError> {
        self.reads.set(self.reads.get() + 1);
        trace::span("simnode.msr", || self.inner.read(addr))
    }
    fn write(&mut self, addr: u32, value: u64) -> Result<(), MsrError> {
        self.writes += 1;
        let inner = &mut self.inner;
        trace::span("simnode.msr", || inner.write(addr, value))
    }
    fn advance_to(&mut self, now: Nanos) {
        self.steps += 1;
        let inner = &mut self.inner;
        trace::span("simnode.msr", || inner.advance_to(now))
    }
    fn next_event_hint(&self, now: Nanos) -> Option<Nanos> {
        self.inner.next_event_hint(now)
    }
    fn capabilities(&self) -> Capabilities {
        self.inner.capabilities()
    }
    fn hw_read(&self, addr: u32) -> u64 {
        self.reads.set(self.reads.get() + 1);
        self.inner.hw_read(addr)
    }
    fn hw_write(&mut self, addr: u32, value: u64) {
        self.writes += 1;
        self.inner.hw_write(addr, value)
    }
    fn fault_stats(&self) -> Option<&FaultStats> {
        self.inner.fault_stats()
    }
    fn bus_stats(&self) -> Option<simnode::hw::BusStats> {
        self.inner.bus_stats()
    }
}

fn backend(kind: BackendKind) -> Box<dyn MsrBackend> {
    match kind {
        BackendKind::Sim => Box::new(SimBackend::new()),
        BackendKind::Emulated {
            write_latency,
            access_cost,
        } => Box::new(EmulatedBackend::new(
            SimBackend::new(),
            write_latency,
            access_cost,
        )),
        BackendKind::LinuxRapl { .. } => panic!("the benchmark runs simulated backends only"),
    }
}

/// `run_app`'s monitor: polls an aggregator once per window and keeps
/// exact per-channel statistics from a lossless side channel.
struct Monitor {
    agg: ProgressAggregator,
    raw: Subscriber,
    stats: ChannelStats,
    source: SourceId,
    window: Nanos,
}

impl Monitor {
    fn drain_raw(&mut self) {
        for ev in self.raw.drain() {
            if ev.source != self.source {
                continue;
            }
            let s = &mut self.stats;
            if s.events == 0 {
                s.first_at = ev.at;
                s.first_value = ev.value;
            }
            s.events += 1;
            s.sum += ev.value;
            s.last_at = ev.at;
        }
    }
}

impl SimAgent for Monitor {
    fn period(&self) -> Nanos {
        self.window
    }
    fn on_tick(&mut self, _node: &mut Node, now: Nanos) {
        self.agg.poll(now);
        self.drain_raw();
    }
}

/// `run_app` rebuilt from its public parts with spans at each layer. The
/// configurations the benchmark generates carry no fault plan, no fixed
/// frequency and no hardened loop.
fn traced_run_app(cfg: &RunConfig) -> RunArtifacts {
    assert!(cfg.faults.is_none() && cfg.resilience.is_none());
    let mut node_cfg = cfg.node.clone();
    node_cfg.backend = cfg.backend;
    let mut node = Node::new(node_cfg);
    *node.msr_mut() = MsrDevice::from_backend(Box::new(TracedMsr::new(backend(cfg.backend))));
    if let Some(mhz) = cfg.fixed_mhz {
        node.msr_mut()
            .write(IA32_PERF_CTL, encode_perf_ctl(mhz))
            .expect("PERF_CTL writable");
    }
    let bus = ProgressBus::new();
    let mut app = build(cfg.app, &cfg.node, cfg.ranks, cfg.seed);
    let channels = app.channels();
    let bus_cfg = match cfg.lossy_capacity {
        Some(cap) => BusConfig::lossy(cap, DropPolicy::DropNewest),
        None => BusConfig::lossless(),
    };
    let programs: Vec<Box<dyn Program>> = std::mem::take(&mut app.programs)
        .into_iter()
        .map(|p| Box::new(TracedProgram(p)) as Box<dyn Program>)
        .collect();
    let mut driver = Driver::new(node, programs, &bus, channels);
    let mut monitors: Vec<Traced<Monitor>> = driver
        .channel_sources()
        .into_iter()
        .map(|s| Traced {
            name: "progress.poll",
            inner: Monitor {
                agg: ProgressAggregator::new(bus.subscribe(bus_cfg), cfg.window, Some(s)),
                raw: bus.subscribe(BusConfig::lossless()),
                stats: ChannelStats::default(),
                source: s,
                window: cfg.window,
            },
        })
        .collect();
    let mut telemetry = Traced {
        name: "proxyapps.telemetry",
        inner: TelemetryAgent::new(cfg.window),
    };
    let mut daemon = Traced {
        name: "nrm.tick",
        inner: NrmDaemon::new(cfg.schedule.build(), cfg.actuator),
    };
    let record = {
        let mut agents: Vec<&mut dyn SimAgent> = Vec::with_capacity(2 + monitors.len());
        agents.push(&mut daemon);
        agents.push(&mut telemetry);
        for m in &mut monitors {
            agents.push(m);
        }
        trace::span("simnode.step_until", || {
            driver.run(cfg.duration, &mut agents)
        })
    };
    let node = driver.node();
    let end = node.now();
    let mut progress = Vec::with_capacity(monitors.len());
    let mut channel_stats = Vec::with_capacity(monitors.len());
    for mut m in monitors {
        m.inner.drain_raw();
        channel_stats.push(m.inner.stats);
        progress.push(m.inner.agg.finish(end));
    }
    trace::count(
        "progress.events",
        channel_stats.iter().map(|c| c.events as f64).sum(),
    );
    let samples = daemon.inner.samples;
    trace::count(
        "nrm.tick.fallbacks",
        samples.iter().filter(|s| s.fallback_used).count() as f64,
    );
    RunArtifacts {
        progress,
        channel_stats,
        telemetry: telemetry.inner,
        daemon_samples: samples,
        counters: node.counters().clone(),
        duration_s: simnode::time::secs(end),
        total_energy_j: node.total_energy(),
        dropped_events: bus.dropped(),
        fault_summary: FaultSummary::default(),
        bus_stats: node.msr().bus_stats(),
        record,
    }
}
