//! Bench for the **cluster** experiment — measures the cost of the
//! barrier-coupled multi-node simulation and the arbiter redistribution
//! path. The members step in parallel between barriers, so this also
//! tracks the coordination overhead of the owned-move fan-out; the bare
//! arbiter bench isolates the redistribution arithmetic from the node
//! simulation.

use cluster::{
    exchange, ramp_weights, run_cluster, ArbiterConfig, ClusterConfig, CommConfig, CommPattern,
    HierarchyConfig, MachinePartition, NodeSpec, NodeTelemetry, Policy, PowerArbiter, Preset,
    Topology, WorkloadShape, DEFAULT_DAEMON_PERIOD,
};
use criterion::{criterion_group, criterion_main, Criterion};
use simnode::config::NodeConfig;
use simnode::hw::{
    EmulatedBackend, MsrBackend, SimBackend, IA32_APERF, IA32_CLOCK_MODULATION, IA32_MPERF,
    IA32_PERF_CTL, MSR_PKG_ENERGY_STATUS, MSR_PKG_POWER_LIMIT, MSR_RAPL_POWER_UNIT,
};
use simnode::node::{CoreWork, Node, WorkPacket};
use simnode::time::{MS, SEC, US};
use std::hint::black_box;

/// A small imbalanced cluster, sized so one run is bench-friendly.
fn bench_config(policy: Policy) -> ClusterConfig {
    ClusterConfig {
        nodes: vec![
            NodeSpec::new(Preset::Reference, 1.0),
            NodeSpec::new(Preset::Leaky(15.0), 1.4),
            NodeSpec::new(Preset::Reference, 1.8),
            NodeSpec::new(Preset::Reference, 2.2),
        ],
        iters: 3,
        arbiter: ArbiterConfig {
            budget_w: 280.0,
            min_cap_w: 40.0,
            max_cap_w: 130.0,
            policy,
        },
        shape: WorkloadShape::default(),
        daemon_period: DEFAULT_DAEMON_PERIOD,
        comm: CommConfig {
            alpha_s: 2e-6,
            nic_bw: 1.25e9,
            power_coupling: 0.5,
            pattern: CommPattern::HaloExchange {
                bytes_per_unit: 8.0 * 1024.0 * 1024.0,
            },
            topology: Topology::RackTree {
                nodes_per_rack: 2,
                uplink_bw: 2.5e9,
            },
        },
        hierarchy: None,
    }
}

/// The ISSUE-5 comparison workload: an imbalanced 16-node, 4-rack BSP
/// cluster, run under flat vs. hierarchical progress-feedback.
fn rack_tree_config(hierarchy: Option<HierarchyConfig>) -> ClusterConfig {
    ClusterConfig {
        nodes: ramp_weights(16, 1.0, 2.6)
            .into_iter()
            .map(|w| NodeSpec::new(Preset::Reference, w))
            .collect(),
        iters: 3,
        arbiter: ArbiterConfig {
            budget_w: 1040.0,
            min_cap_w: 40.0,
            max_cap_w: 130.0,
            policy: Policy::ProgressFeedback { gain: 1.0 },
        },
        shape: WorkloadShape::default(),
        daemon_period: DEFAULT_DAEMON_PERIOD,
        comm: CommConfig {
            alpha_s: 2e-6,
            nic_bw: 1.25e9,
            power_coupling: 0.5,
            pattern: CommPattern::HaloExchange {
                bytes_per_unit: 8.0 * 1024.0 * 1024.0,
            },
            topology: Topology::RackTree {
                nodes_per_rack: 4,
                uplink_bw: 2.5e9,
            },
        },
        hierarchy,
    }
}

/// The extreme-scale shapes: a thousand-node (and up) ramp at one tenth
/// the per-unit kernel work — the regime where per-node allocation or a
/// full waterfill per control tick stops being noise — stepped under a
/// 10 ms daemon period so the control plane stays active within the
/// shortened iterations.
fn scale_config(n: usize, hierarchy: bool, halo: bool) -> ClusterConfig {
    ClusterConfig {
        nodes: ramp_weights(n, 1.0, 2.6)
            .into_iter()
            .map(|w| NodeSpec::new(Preset::Reference, w))
            .collect(),
        iters: 3,
        arbiter: ArbiterConfig {
            budget_w: 65.0 * n as f64,
            min_cap_w: 40.0,
            max_cap_w: 130.0,
            policy: Policy::ProgressFeedback { gain: 1.0 },
        },
        shape: WorkloadShape::default().scaled(0.1),
        comm: if halo {
            CommConfig {
                alpha_s: 2e-6,
                nic_bw: 12.5e9,
                power_coupling: 0.5,
                pattern: CommPattern::HaloExchange {
                    bytes_per_unit: 1024.0 * 1024.0,
                },
                topology: Topology::RackTree {
                    nodes_per_rack: 32,
                    uplink_bw: 25.0e9,
                },
            }
        } else {
            CommConfig::none()
        },
        daemon_period: 10 * simnode::time::MS,
        hierarchy: hierarchy.then(|| HierarchyConfig {
            racks: vec![32; n / 32],
            outer_period: 2,
            inner_period: 1,
            rack_policy: Policy::ProgressFeedback { gain: 1.0 },
            rack_clamps: None,
        }),
    }
}

fn bench_cluster(c: &mut Criterion) {
    let mut g = c.benchmark_group("cluster");
    g.sample_size(10);

    let uniform = bench_config(Policy::UniformStatic);
    g.bench_function("uniform_4n_3it", |b| {
        b.iter(|| black_box(run_cluster(black_box(&uniform)).unwrap()))
    });

    let feedback = bench_config(Policy::ProgressFeedback { gain: 1.0 });
    g.bench_function("feedback_4n_3it", |b| {
        b.iter(|| {
            let out = run_cluster(black_box(&feedback)).unwrap();
            assert!(out.min_budget_slack_w() >= -1e-6);
            black_box(out)
        })
    });

    // Flat vs. hierarchical arbitration on the same imbalanced 16-node,
    // 4-rack workload: what the extra arbiter level costs per run.
    let flat16 = rack_tree_config(None);
    g.bench_function("flat_16n_3it", |b| {
        b.iter(|| black_box(run_cluster(black_box(&flat16)).unwrap()))
    });

    let hier16 = rack_tree_config(Some(HierarchyConfig {
        racks: vec![4; 4],
        outer_period: 2,
        inner_period: 1,
        rack_policy: Policy::ProgressFeedback { gain: 1.0 },
        rack_clamps: None,
    }));
    g.bench_function("hier_16n_3it", |b| {
        b.iter(|| {
            let out = run_cluster(black_box(&hier16)).unwrap();
            assert!(out.min_budget_slack_w() >= -1e-6);
            let rack = out.rack_trace.as_ref().expect("rack trace");
            assert!(rack.min_slack_w() >= -1e-6);
            black_box(out)
        })
    });

    // Extreme scale: the sharded engine at 1024 flat / 1024 hierarchical
    // / 4096 hierarchical-with-halo nodes. The 4096-node halo bench is
    // the acceptance headline — a 3-iteration halo workload must stay
    // interactive (< 1 s median) for scale sweeps to be usable.
    let flat1024 = scale_config(1024, false, false);
    g.bench_function("flat_1024n", |b| {
        b.iter(|| black_box(run_cluster(black_box(&flat1024)).unwrap()))
    });

    let hier1024 = scale_config(1024, true, false);
    g.bench_function("hier_1024n", |b| {
        b.iter(|| {
            let out = run_cluster(black_box(&hier1024)).unwrap();
            assert!(out.min_budget_slack_w() >= -1e-6);
            black_box(out)
        })
    });

    let hier4096 = scale_config(4096, true, true);
    g.bench_function("hier_4096n_halo", |b| {
        b.iter(|| {
            let out = run_cluster(black_box(&hier4096)).unwrap();
            assert!(out.min_budget_slack_w() >= -1e-6);
            black_box(out)
        })
    });

    // The arbiter alone: redistribution arithmetic at a 64-node scale.
    let cfg = ArbiterConfig {
        budget_w: 64.0 * 80.0,
        min_cap_w: 40.0,
        max_cap_w: 130.0,
        policy: Policy::ProgressFeedback { gain: 1.0 },
    };
    let reports: Vec<Option<NodeTelemetry>> = (0..64)
        .map(|i| {
            Some(NodeTelemetry {
                compute_s: 1.0 + (i % 7) as f64 * 0.2,
                comm_s: 0.05 * (i % 3) as f64,
                slack_s: 0.0,
                rate: 1.0,
                power_w: 75.0 + (i % 11) as f64,
            })
        })
        .collect();
    g.bench_function("arbiter_redistribute_64n", |b| {
        b.iter(|| {
            let mut arb = PowerArbiter::new(cfg, 64);
            for _ in 0..10 {
                black_box(arb.redistribute(black_box(&reports)).unwrap());
            }
            black_box(arb)
        })
    });

    // The exchange pricing alone: one 64-node halo over a rack tree,
    // staggered readiness and throttled NICs — the per-barrier cost the
    // comm model adds to the driver loop.
    let comm_cfg = CommConfig {
        alpha_s: 2e-6,
        nic_bw: 12.5e9,
        power_coupling: 0.5,
        pattern: CommPattern::HaloExchange {
            bytes_per_unit: 32.0 * 1024.0 * 1024.0,
        },
        topology: Topology::RackTree {
            nodes_per_rack: 8,
            uplink_bw: 25.0e9,
        },
    };
    let ready: Vec<f64> = (0..64).map(|i| 0.01 * (i % 5) as f64).collect();
    let weights: Vec<f64> = (0..64).map(|i| 1.0 + (i % 7) as f64 * 0.2).collect();
    let drain: Vec<f64> = (0..64).map(|i| 0.6 + 0.05 * (i % 8) as f64).collect();
    g.bench_function("exchange_halo_64n", |b| {
        b.iter(|| {
            black_box(exchange(
                black_box(&comm_cfg),
                black_box(&ready),
                black_box(&weights),
                black_box(&drain),
            ))
        })
    });

    // The batch scheduler end to end: a 64-job, 4-tenant trace admitted
    // onto a 64-node machine under a 4.8 kW envelope with eco-aware
    // backfill — every event ticking each running job's arbiter through
    // the machine partition. Tracks the cost of the whole discrete-event
    // scheduling loop, not just one redistribution.
    let sched_cfg = sched::SchedConfig::default();
    g.bench_function("sched_64jobs", |b| {
        b.iter(|| {
            let out =
                sched::simulate(black_box(&sched_cfg), sched::SchedPolicy::EcoBackfill).unwrap();
            assert!(out.min_envelope_slack_w >= -1e-6);
            black_box(out)
        })
    });

    // The same loop with a deep queue: 2048 jobs arriving 4× faster than
    // the default trace onto 256 nodes under a 75 W/node envelope, so
    // the queue stays deep behind the envelope. The 64-job queue above never
    // gets deep enough for the head reservation and the backfill scan to
    // matter.
    let deep_cfg = sched::SchedConfig {
        machine: sched::MachineConfig {
            nodes: 256,
            envelope_w: 75.0 * 256.0,
            ..sched::MachineConfig::default()
        },
        trace: sched::TraceConfig {
            jobs: 2048,
            mean_interarrival_s: 7.5,
            ..sched::TraceConfig::default()
        },
        ..sched::SchedConfig::default()
    };
    g.bench_function("sched_2048jobs_256n", |b| {
        b.iter(|| {
            let out =
                sched::simulate(black_box(&deep_cfg), sched::SchedPolicy::EcoBackfill).unwrap();
            assert!(out.min_envelope_slack_w >= -1e-6);
            black_box(out)
        })
    });

    // One scheduler event's intra-job tick on its own: 32 running jobs of
    // 8 nodes each fill a 256-node machine under its 75 W/node envelope,
    // and each job's progress-feedback arbiter redistributes once through
    // the machine partition, which re-checks the envelope after each.
    // This is the per-event work `sched_2048jobs_256n` repeats thousands
    // of times, without the admission pass around it.
    let mut partition = MachinePartition::new(75.0 * 256.0).unwrap();
    for job in 0..32 {
        let arbiter = PowerArbiter::new(
            ArbiterConfig {
                budget_w: 8.0 * 72.0,
                min_cap_w: 40.0,
                max_cap_w: 130.0,
                policy: Policy::ProgressFeedback { gain: 0.8 },
            },
            8,
        )
        .with_tracing(false);
        partition.admit(job, Box::new(arbiter)).unwrap();
    }
    let job_reports: Vec<Vec<Option<NodeTelemetry>>> = (0..32)
        .map(|job| {
            (0..8)
                .map(|i| {
                    let compute_s = 0.9 + ((job * 8 + i) % 11) as f64 * 0.02;
                    Some(NodeTelemetry::compute_only(
                        compute_s,
                        1.0 / compute_s,
                        72.0,
                    ))
                })
                .collect()
        })
        .collect();
    g.bench_function("partition_tick_32jobs_256n", |b| {
        b.iter(|| {
            for (job, reports) in (0u32..).zip(&job_reports) {
                black_box(partition.redistribute(job, black_box(reports)).unwrap());
            }
        })
    });

    // The daemon service loop at scale: 1000 telemetry producers through
    // the full ingest → police → lease → redistribute → grant cycle over
    // clean in-process wires (snapshotting off, so this isolates the
    // service core from disk). Tracks the per-tick overhead arbiterd
    // adds on top of the bare redistribution arithmetic above.
    let lg_cfg = arbiterd::loadgen::LoadgenConfig {
        clients: 1000,
        ticks: 10,
        seed: 5,
        // Throughput runs measure message handling, not the per-grant
        // test bookkeeping (both sides of the batching comparison skip
        // it equally; the bitwise tests keep it on).
        record_grants: false,
        service: arbiterd::ServiceConfig {
            snapshot_every: 0,
            ..arbiterd::ServiceConfig::default()
        },
        ..arbiterd::loadgen::LoadgenConfig::default()
    };
    g.bench_function("arbiterd_1k_clients", |b| {
        b.iter(|| {
            black_box(
                arbiterd::loadgen::run_loadgen(black_box(&lg_cfg))
                    .service
                    .rounds,
            )
        })
    });

    // The same 1000-producer workload multiplexed 128 per wire: identical
    // telemetry count, identical grants (tested bitwise in the crate),
    // but one Msg::Batch frame per group per tick instead of one frame
    // per producer. The ratio to `arbiterd_1k_clients` is the headline
    // batching win — the acceptance bar is ≥3× message throughput.
    let lg_batched = arbiterd::loadgen::LoadgenConfig {
        batch: 128,
        ..lg_cfg.clone()
    };
    g.bench_function("arbiterd_1k_batched", |b| {
        b.iter(|| {
            let out = arbiterd::loadgen::run_loadgen(black_box(&lg_batched));
            assert!(out.invariant_ok);
            black_box(out.telemetry_sent)
        })
    });

    // The scale headline: 100k producers across 4 arbiter shards, 64 per
    // wire, machine budget re-split by the outer solver mid-run. Σ grants
    // ≤ budget is asserted inside ShardedService on every tick, so each
    // bench iteration is also an invariant check at full scale.
    let lg_sharded = arbiterd::loadgen::LoadgenConfig {
        clients: 100_000,
        shards: 4,
        batch: 64,
        outer_period: 2,
        ticks: 3,
        seed: 5,
        service: arbiterd::ServiceConfig {
            queue_depth: 32_768,
            snapshot_every: 0,
            ..arbiterd::ServiceConfig::default()
        },
        ..arbiterd::loadgen::LoadgenConfig::default()
    };
    g.bench_function("arbiterd_sharded_100k", |b| {
        b.iter(|| {
            let out = arbiterd::loadgen::run_loadgen(black_box(&lg_sharded));
            assert!(out.invariant_ok);
            black_box(out.telemetry_sent)
        })
    });

    g.finish();
}

/// 3 s of capped compute on a full 24-core node, `packet(core)` on each
/// core, advanced with `step_until`. Every packet holds at least ~4 s of
/// work at fmax, so none completes and the node macro-steps whole RAPL
/// periods end to end.
fn step_until_3s(packet: impl Fn(usize) -> WorkPacket) -> u64 {
    let mut node = Node::new(NodeConfig::default());
    node.set_package_cap(Some(80.0)).expect("cap writable");
    for core in 0..node.cores() {
        node.assign(core, CoreWork::Compute(packet(core).into()));
    }
    while node.now() < 3 * SEC {
        node.step_until(3 * SEC);
    }
    node.now()
}

/// One RAPL period's register traffic on a simulated node, as
/// `Node::step_until` and an NRM daemon drive it: the energy counter,
/// APERF/MPERF and the clock advance of a macro step, the unit and limit
/// reads of the RAPL decision, the user DVFS/DDCM requests, and the
/// daemon's user-space energy read.
fn one_period(msr: &mut dyn MsrBackend, now: u64) -> u64 {
    let e = msr.hw_read(MSR_PKG_ENERGY_STATUS);
    msr.hw_write(MSR_PKG_ENERGY_STATUS, (e + 1_000) & 0xFFFF_FFFF);
    msr.advance_to(now);
    let ap = msr.hw_read(IA32_APERF);
    msr.hw_write(IA32_APERF, ap + 2_000_000);
    let mp = msr.hw_read(IA32_MPERF);
    msr.hw_write(IA32_MPERF, mp + 3_300_000);
    let units = msr.hw_read(MSR_RAPL_POWER_UNIT);
    let limit = msr.hw_read(MSR_PKG_POWER_LIMIT);
    let perf = msr.hw_read(IA32_PERF_CTL);
    let duty = msr.hw_read(IA32_CLOCK_MODULATION);
    let seen = msr.read(MSR_PKG_ENERGY_STATUS).expect("energy readable");
    units ^ limit ^ perf ^ duty ^ seen
}

/// The node engine in isolation.
///
/// - `step_until_3s`: every core runs the same packet, the shape of the
///   rank-symmetric proxy apps, so the macro step evaluates it once per
///   period. The `micro` bench's `node/step_1s` covers the exact
///   single-quantum path; the ratio between the two is the headline win of
///   the macro-quantum stepping.
/// - `step_until_3s_mixed`: the same run with 24 distinct packets, which
///   gets no reuse and so measures the per-core cost of a macro step.
/// - `msr_hw_rw_{sim,emulated}`: 10k periods of register traffic through a
///   `Box<dyn MsrBackend>` for each simulated tier (the emulated one with
///   its default 2 ms latch and 1 µs bus cost).
fn bench_simnode(c: &mut Criterion) {
    let mut g = c.benchmark_group("simnode");
    g.sample_size(10);
    g.bench_function("step_until_3s", |b| {
        b.iter(|| {
            black_box(step_until_3s(|_| {
                WorkPacket::new(3.3e9 * 4.0, 2.0e6, 8.0e9)
            }))
        })
    });
    g.bench_function("step_until_3s_mixed", |b| {
        b.iter(|| {
            black_box(step_until_3s(|core| {
                let skew = 1.0 + 0.01 * core as f64;
                WorkPacket::new(3.3e9 * 4.0 * skew, 2.0e6 * skew, 8.0e9)
            }))
        })
    });
    let periods = |mut msr: Box<dyn MsrBackend>| {
        let mut acc = 0;
        for p in 1..=10_000 {
            acc ^= one_period(msr.as_mut(), p * MS);
        }
        acc
    };
    g.bench_function("msr_hw_rw_sim", |b| {
        b.iter(|| black_box(periods(Box::new(SimBackend::new()))))
    });
    g.bench_function("msr_hw_rw_emulated", |b| {
        b.iter(|| {
            let emulated = EmulatedBackend::new(SimBackend::new(), 2 * MS, US);
            black_box(periods(Box::new(emulated)))
        })
    });
    g.finish();
}

criterion_group!(benches, bench_cluster, bench_simnode);
criterion_main!(benches);
