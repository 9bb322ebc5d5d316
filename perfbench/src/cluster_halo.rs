//! `cluster-halo`: `run_cluster` at 1024 nodes with a rack-tree halo
//! exchange, progress-feedback arbitration and a 10 ms daemon period.
//! Ops alternate between the flat `PowerArbiter` and a 32-node-rack
//! `RackArbiter` over the same seeded permutation of the ramp weights.

use cluster::{
    exchange, ramp_weights, run_cluster, ArbiterConfig, BudgetArbiter, ClusterConfig,
    ClusterOutcome, CommConfig, CommPattern, GrantTrace, HierarchyConfig, NodeSpec, NodeTelemetry,
    Policy, PowerArbiter, Preset, RackArbiter, Topology, WorkloadShape,
};

use crate::common::{
    guarded, median, run_for, setup_reps, timed, workers, Fnv, RefClock, Rng, RunResult, SETUP_REPS,
};
use crate::trace;

const NODES: usize = 1024;
const RACK: usize = 32;
/// Host time of one op cycle (a flat and a rack run) at the nominal kernel
/// speed, s.
const CYCLE_S: f64 = 0.38;
/// The arbiters' own Σ grants ≤ budget tolerance, W.
const EPS_W: f64 = 1e-6;

fn config(weights: &[f64], hierarchical: bool) -> ClusterConfig {
    let n = weights.len();
    ClusterConfig {
        nodes: weights
            .iter()
            .map(|&w| NodeSpec::new(Preset::Reference, w))
            .collect(),
        iters: 3,
        arbiter: ArbiterConfig {
            budget_w: 65.0 * n as f64,
            min_cap_w: 40.0,
            max_cap_w: 130.0,
            policy: Policy::ProgressFeedback { gain: 1.0 },
        },
        shape: WorkloadShape::default().scaled(0.1),
        comm: CommConfig {
            alpha_s: 2e-6,
            nic_bw: 12.5e9,
            power_coupling: 0.5,
            pattern: CommPattern::HaloExchange {
                bytes_per_unit: 1024.0 * 1024.0,
            },
            topology: Topology::RackTree {
                nodes_per_rack: RACK,
                uplink_bw: 25.0e9,
            },
        },
        daemon_period: 10 * simnode::time::MS,
        hierarchy: hierarchical.then(|| HierarchyConfig {
            racks: vec![RACK; n / RACK],
            outer_period: 2,
            inner_period: 1,
            rack_policy: Policy::ProgressFeedback { gain: 1.0 },
            rack_clamps: None,
        }),
    }
}

/// The op cycle: flat, then hierarchical, over one seeded permutation.
fn cycle(seed: u64) -> Vec<ClusterConfig> {
    let mut w = ramp_weights(NODES, 1.0, 2.6);
    Rng::new(seed, 2).shuffle(&mut w);
    vec![config(&w, false), config(&w, true)]
}

fn conserves(trace: &GrantTrace) -> bool {
    trace
        .ticks()
        .iter()
        .all(|t| t.total_w <= t.budget_w + EPS_W)
}

fn fingerprint(o: &ClusterOutcome) -> u64 {
    let mut h = Fnv::default();
    h.f64(o.makespan_s);
    h.f64(o.energy_j);
    h.f64s(&o.final_grants_w);
    for t in o.grant_trace.ticks() {
        h.f64s(&t.granted_w);
    }
    for it in &o.iterations {
        h.f64(it.barrier_at_s);
    }
    h.finish()
}

struct Done {
    ms: f64,
    ok: bool,
    hash: u64,
    makespan_s: f64,
    energy_j: f64,
}

fn one(cfg: &ClusterConfig, op_id: u64) -> (Done, Option<ClusterOutcome>) {
    let (res, ms) = timed(|| guarded(|| trace::op(op_id, "cluster.run", || run_cluster(cfg))));
    match res {
        Ok(Ok(o)) => {
            let ok = conserves(&o.grant_trace)
                && o.rack_trace.as_ref().is_none_or(conserves)
                && o.makespan_s.is_finite()
                && o.energy_j.is_finite();
            let d = Done {
                ms,
                ok,
                hash: fingerprint(&o),
                makespan_s: o.makespan_s,
                energy_j: o.energy_j,
            };
            (d, Some(o))
        }
        _ => (
            Done {
                ms,
                ok: false,
                hash: 0,
                makespan_s: 0.0,
                energy_j: 0.0,
            },
            None,
        ),
    }
}

/// Replay the layers `run_cluster` calls internally: the exchange pricing
/// per barrier, and the op's arbiter kind redistributing each barrier's
/// telemetry. From the outcome come each node's ready time (the previous
/// barrier plus its compute time), its compute, comm and slack times, which
/// nodes reported, and the grants the barrier produced. The outcome does
/// not record the rest, so it is synthetic: the NIC drain factor
/// (`run_cluster` blends each node's frequency and uncore ratios; here the
/// barrier's grant as a share of the maximum cap), the progress rate (here
/// weight ÷ compute time) and the measured power (here the grant).
fn replay(cfg: &ClusterConfig, o: &ClusterOutcome, op_id: u64) {
    let weights: Vec<f64> = cfg.nodes.iter().map(|s| s.weight).collect();
    let ticks = o.grant_trace.ticks();
    let mut arbiter: Box<dyn BudgetArbiter> = match &cfg.hierarchy {
        Some(h) => Box::new(RackArbiter::new(cfg.arbiter, h.clone())),
        None => Box::new(PowerArbiter::new(cfg.arbiter, weights.len())),
    };
    let mut barrier_s = 0.0;
    for (it, tick) in o.iterations.iter().zip(ticks) {
        let ready_s: Vec<f64> = it.compute_s.iter().map(|c| barrier_s + c).collect();
        barrier_s = it.barrier_at_s;
        let drain: Vec<f64> = tick
            .granted_w
            .iter()
            .map(|g| {
                let c = cfg.comm.power_coupling;
                (1.0 - c) + c * (g / cfg.arbiter.max_cap_w).clamp(0.05, 1.0)
            })
            .collect();
        trace::op(op_id, "cluster.comm.exchange", || {
            exchange(&cfg.comm, &ready_s, &weights, &drain)
        });
        let reports: Vec<Option<NodeTelemetry>> = (0..weights.len())
            .map(|i| {
                it.reporting[i].then(|| NodeTelemetry {
                    compute_s: it.compute_s[i],
                    comm_s: it.comm_s[i],
                    slack_s: it.slack_s[i],
                    rate: weights[i] / it.compute_s[i].max(1e-9),
                    power_w: tick.granted_w[i],
                })
            })
            .collect();
        let _ = trace::op(op_id, "cluster.arbiter.redistribute", || {
            arbiter.redistribute(&reports).map(|g| g.len())
        });
    }
    let (mut changed, mut slots) = (0.0, 0.0);
    for w in ticks.windows(2) {
        for (a, b) in w[0].granted_w.iter().zip(&w[1].granted_w) {
            slots += 1.0;
            if a.to_bits() != b.to_bits() {
                changed += 1.0;
            }
        }
    }
    trace::count("cluster.grant_changes", changed);
    trace::count("cluster.grant_slots", slots);
}

/// Run the workload.
pub fn run(seed: u64, seconds: f64, traced: bool) -> RunResult {
    let mut clock = RefClock::new(workers());
    let (cycle, setup) = setup_reps(SETUP_REPS, &mut clock, || {
        let c = cycle(seed);
        std::hint::black_box(one(&c[0], 0).0.hash);
        c
    });
    let mut r = RunResult {
        setup,
        ..RunResult::default()
    };

    let untraced_s = if traced { seconds / 2.0 } else { seconds };
    let mut first: Vec<Done> = Vec::new();
    let mut sim_node_s = 0.0;
    r.wall_s = run_for(untraced_s, cycle.len(), CYCLE_S, &mut clock, |k, ref_ms| {
        let cfg = &cycle[k % cycle.len()];
        let (d, _) = one(cfg, k as u64);
        r.ops.record(d.ms, d.ok, ref_ms, k % cycle.len());
        sim_node_s += d.makespan_s * cfg.nodes.len() as f64;
        if k < cycle.len() {
            first.push(d);
        }
    });

    let mut fp = Fnv::default();
    for d in &first {
        fp.u64(d.hash);
    }
    r.fingerprint = fp.finish();
    r.ref_ms = clock.median_ms();
    r.self_check("op 0", one(&cycle[0], 0).0.hash, first[0].hash);
    r.extra
        .push(("sim_rate", sim_node_s / r.wall_s, "node-s/s"));
    r.extra.push((
        "sim_makespan_s",
        first.iter().map(|d| d.makespan_s).sum(),
        "sim-s",
    ));
    r.extra.push((
        "sim_energy_kj",
        first.iter().map(|d| d.energy_j).sum::<f64>() / 1e3,
        "kJ",
    ));

    if traced {
        let base = r.ops.attempted as usize;
        let mut lat = Vec::new();
        trace::enable();
        run_for(seconds / 2.0, cycle.len(), CYCLE_S, &mut clock, |j, _| {
            let cfg = &cycle[j % cycle.len()];
            let op_id = (base + j) as u64;
            let (d, out) = one(cfg, op_id);
            lat.push(d.ms);
            if let Some(o) = out {
                replay(cfg, &o, op_id);
            }
        });
        trace::count("perfbench.traced_ops", lat.len() as f64);
        trace::count(
            "perfbench.trace_overhead_ms",
            median(&lat) - median(&r.ops.lat_ms),
        );
    }
    r
}
