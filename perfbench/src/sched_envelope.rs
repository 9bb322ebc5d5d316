//! `sched-envelope`: `sched::simulate` on seeded 2048-job, 256-node traces
//! under a 75 W/node envelope, cycling through the three policies on each
//! of three traces.

use std::collections::BTreeSet;

use cluster::{ArbiterConfig, MachinePartition, NodeTelemetry, Policy, PowerArbiter};
use sched::admission::{reserve, RunningSnapshot};
use sched::{
    simulate, JobSpec, MachineConfig, PowerPredictor, SchedConfig, SchedPolicy, ScheduleOutcome,
    TraceConfig,
};

use crate::common::{
    guarded, median, run_for, setup_reps, timed, Fnv, RefClock, Rng, RunResult, SETUP_REPS,
};
use crate::trace;

const NODES: usize = 256;
const JOBS: usize = 2048;
/// The scheduler's own envelope-slack tolerance, W.
const EPS_W: f64 = 1e-6;

/// Traces per run: the op mix spans several seeded queues, so no single
/// queue's cost sets a run's median.
const TRACES: usize = 3;
/// Host time of one op cycle (every trace under every policy) at the
/// nominal kernel speed, s.
const CYCLE_S: f64 = 8.3;

fn configs(seed: u64) -> Vec<SchedConfig> {
    let mut rng = Rng::new(seed, 4);
    (0..TRACES)
        .map(|_| SchedConfig {
            machine: MachineConfig {
                nodes: NODES,
                envelope_w: 75.0 * NODES as f64,
                telemetry_seed: rng.next_u64(),
                ..MachineConfig::default()
            },
            trace: TraceConfig {
                seed: rng.next_u64(),
                jobs: JOBS,
                // The default 64-node queue's arrival rate, scaled to 4× the
                // nodes.
                mean_interarrival_s: 7.5,
                ..TraceConfig::default()
            },
            ..SchedConfig::default()
        })
        .collect()
}

fn fingerprint(o: &ScheduleOutcome) -> u64 {
    let mut h = Fnv::default();
    h.f64(o.makespan_s);
    h.f64(o.job_energy_j);
    h.f64(o.idle_energy_j);
    h.f64(o.mean_bsld);
    h.f64(o.min_envelope_slack_w);
    for j in &o.jobs {
        h.u64(j.id as u64);
        h.f64(j.cap_w);
        h.f64(j.power_w);
        h.f64(j.start_s);
        h.f64(j.end_s);
    }
    h.finish()
}

/// The engine's own invariants: every job ran, none started before it
/// arrived, and the envelope held at every event.
fn schedule_ok(o: &ScheduleOutcome) -> bool {
    o.jobs.len() == JOBS
        && o.min_envelope_slack_w >= -EPS_W
        && o.jobs.iter().all(|j| j.start_s >= j.arrival_s - 1e-9)
        && o.makespan_s.is_finite()
}

struct Done {
    ms: f64,
    ok: bool,
    hash: u64,
    makespan_s: f64,
    energy_j: f64,
    bsld: f64,
}

fn one(cfg: &SchedConfig, policy: SchedPolicy, op_id: u64) -> (Done, Option<ScheduleOutcome>) {
    let (res, ms) =
        timed(|| guarded(|| trace::op(op_id, "sched.simulate", || simulate(cfg, policy))));
    match res {
        Ok(Ok(o)) => (
            Done {
                ms,
                ok: schedule_ok(&o),
                hash: fingerprint(&o),
                makespan_s: o.makespan_s,
                energy_j: o.total_energy_j(),
                bsld: o.mean_bsld,
            },
            Some(o),
        ),
        _ => (
            Done {
                ms,
                ok: false,
                hash: 0,
                makespan_s: 0.0,
                energy_j: 0.0,
                bsld: 0.0,
            },
            None,
        ),
    }
}

fn us(s: f64) -> u64 {
    (s * 1e6).round() as u64
}

/// Replay the layers `simulate` calls internally on this op's schedule:
/// at every arrival and completion, each running job's arbiter inside a
/// `MachinePartition` redistributes, the queue head's EASY reservation is
/// recomputed, and the predictor is queried for every waiting job.
/// Returns whether the replay drained: every job arrived, started and
/// completed, leaving nothing pending or running.
fn replay(
    cfg: &SchedConfig,
    policy: SchedPolicy,
    specs: &[JobSpec],
    o: &ScheduleOutcome,
    op: u64,
) -> bool {
    let Ok(predictor) = PowerPredictor::new(cfg.predictor) else {
        return false;
    };
    let Ok(mut partition) = MachinePartition::new(cfg.machine.envelope_w) else {
        return false;
    };
    // (time, kind, job): at one instant completions (0) come first, then
    // arrivals (1), then starts (2): the engine frees nodes and queues the
    // newcomer before its admission pass starts anyone, so a job that
    // starts on arrival is pending for no time at all.
    let mut events: BTreeSet<(u64, u8, u32)> = BTreeSet::new();
    for j in &o.jobs {
        events.insert((us(j.arrival_s), 1, j.id));
        events.insert((us(j.start_s), 2, j.id));
        events.insert((us(j.end_s), 0, j.id));
    }
    let mut rng = Rng::new(cfg.machine.telemetry_seed, 5);
    let mut pending: BTreeSet<u32> = BTreeSet::new();
    let mut running: BTreeSet<u32> = BTreeSet::new();
    let mut free_nodes = cfg.machine.nodes;
    for &(t, kind, id) in &events {
        let rec = &o.jobs[id as usize];
        // A job's record sits at its id; the engine numbers jobs in arrival
        // order.
        debug_assert_eq!(rec.id, id);
        match kind {
            0 => {
                running.remove(&id);
                partition.release(id);
                free_nodes += rec.nodes;
            }
            2 => {
                pending.remove(&id);
                running.insert(id);
                free_nodes = free_nodes.saturating_sub(rec.nodes);
                let arbiter = PowerArbiter::new(
                    ArbiterConfig {
                        budget_w: rec.power_w,
                        min_cap_w: cfg.predictor.min_cap_w,
                        max_cap_w: rec.cap_w,
                        policy: Policy::ProgressFeedback {
                            gain: cfg.machine.gain,
                        },
                    },
                    rec.nodes,
                );
                // Float order can leave the replayed sum a hair above the
                // envelope; such a job is simply not replayed.
                let _ = partition.admit(id, Box::new(arbiter));
                continue;
            }
            _ => {
                pending.insert(id);
            }
        }
        for &jid in &running {
            let j = &o.jobs[jid as usize];
            // The engine reports each node at its admitted per-node power;
            // the record carries the whole job's.
            let node_power_w = j.power_w / j.nodes as f64;
            let reports: Vec<Option<NodeTelemetry>> = (0..j.nodes)
                .map(|_| {
                    let jitter = 0.9 + 0.2 * rng.unit();
                    Some(NodeTelemetry::compute_only(
                        jitter,
                        1.0 / jitter,
                        node_power_w,
                    ))
                })
                .collect();
            let _ = trace::op(op, "cluster.partition.redistribute", || {
                partition.redistribute(jid, &reports).map(|g| g.len())
            });
        }
        // The engine reserves only for a head its pass cannot start: here,
        // the first waiting job that does not start at this instant.
        let blocked = pending
            .iter()
            .find(|&&p| us(o.jobs[p as usize].start_s) > t);
        if let Some(&head) = blocked {
            let mut snaps: Vec<RunningSnapshot> = running
                .iter()
                .map(|&r| {
                    let j = &o.jobs[r as usize];
                    RunningSnapshot {
                        end_us: us(j.end_s),
                        nodes: j.nodes,
                        power_w: j.power_w,
                    }
                })
                .collect();
            snaps.sort_by_key(|s| s.end_us);
            let h = &o.jobs[head as usize];
            trace::op(op, "sched.admission.reserve", || {
                reserve(
                    h.nodes,
                    h.power_w,
                    free_nodes,
                    partition.headroom_w(),
                    &snaps,
                )
            });
        }
        for &p in &pending {
            let spec = &specs[p as usize];
            trace::op(op, "powermodel.predict", || {
                let cap = if policy.eco_aware() && spec.is_eco() {
                    predictor.cap_for_relative_slowdown(spec.class, 1.0 + spec.eco_slack)
                } else {
                    cfg.predictor.max_cap_w
                };
                (
                    predictor.job_power_w(spec, cap),
                    predictor.duration_s(spec, cap),
                )
            });
        }
    }
    trace::count("sched.events", (2 * o.jobs.len()) as f64);
    pending.is_empty() && running.is_empty()
}

/// Run the workload.
pub fn run(seed: u64, seconds: f64, traced: bool) -> RunResult {
    let cycle: Vec<(usize, SchedPolicy)> = (0..TRACES)
        .flat_map(|t| SchedPolicy::ALL.map(|p| (t, p)))
        .collect();
    let mut clock = RefClock::new(1);
    let (cfgs, setup) = setup_reps(SETUP_REPS, &mut clock, || {
        let cfgs = configs(seed);
        std::hint::black_box(one(&cfgs[0], cycle[0].1, 0).0.hash);
        cfgs
    });
    let mut r = RunResult {
        setup,
        ..RunResult::default()
    };

    let untraced_s = if traced { seconds / 2.0 } else { seconds };
    let mut first: Vec<Done> = Vec::new();
    let mut sim_node_s = 0.0;
    r.wall_s = run_for(untraced_s, cycle.len(), CYCLE_S, &mut clock, |k, ref_ms| {
        let (t, policy) = cycle[k % cycle.len()];
        let (d, _) = one(&cfgs[t], policy, k as u64);
        r.ops.record(d.ms, d.ok, ref_ms, 0);
        sim_node_s += d.makespan_s * NODES as f64;
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
    r.self_check("op 0", one(&cfgs[0], cycle[0].1, 0).0.hash, first[0].hash);
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
    r.extra.push((
        "sim_slowdown",
        first.iter().map(|d| d.bsld).sum::<f64>() / first.len() as f64,
        "ratio",
    ));

    if traced {
        let specs: Vec<Vec<JobSpec>> = cfgs
            .iter()
            .map(|c| c.trace.generate().unwrap_or_default())
            .collect();
        let base = r.ops.attempted as usize;
        let mut lat = Vec::new();
        let mut undrained = 0;
        trace::enable();
        run_for(seconds / 2.0, cycle.len(), CYCLE_S, &mut clock, |j, _| {
            let (t, policy) = cycle[j % cycle.len()];
            let op_id = (base + j) as u64;
            let (d, out) = one(&cfgs[t], policy, op_id);
            lat.push(d.ms);
            if let Some(o) = out {
                if !replay(&cfgs[t], policy, &specs[t], &o, op_id) {
                    undrained += 1;
                }
            }
        });
        r.correct &= undrained == 0;
        r.notes.push(format!(
            "replay drained (no job left pending or running): {}",
            if undrained == 0 {
                "every op".to_string()
            } else {
                format!("NOT on {undrained} ops")
            }
        ));
        trace::count("perfbench.traced_ops", lat.len() as f64);
        trace::count(
            "perfbench.trace_overhead_ms",
            median(&lat) - median(&r.ops.lat_ms),
        );
    }
    r
}
