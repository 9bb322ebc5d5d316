//! Integration tests for the cluster layer: the progress-aware arbiter
//! must actually pay off end-to-end (lower makespan than uniform-static
//! under the same global budget, without spending more energy), conserve
//! the budget on every tick, tolerate the PR-1 fault layer taking a
//! node's telemetry out, and degrade exactly — not approximately — to
//! the ideal-barrier schedule when the exchange moves no bytes.

use cluster::{
    ramp_weights, run_cluster, ArbiterConfig, ClusterConfig, CommConfig, CommPattern, NodeSpec,
    Policy, Preset, Topology, WorkloadShape, DEFAULT_DAEMON_PERIOD,
};
use powerprog_core::experiments::cluster as experiment;
use powerprog_core::experiments::hierarchy;
use simnode::faults::{FaultPlan, FaultWindow};
use simnode::time::SEC;

/// The acceptance scenario: on an imbalanced 8-node workload under one
/// global budget, the progress-feedback policy achieves strictly lower
/// makespan than uniform-static, at no extra energy, with budget
/// conservation holding at every arbiter tick of every policy.
#[test]
fn progress_aware_beats_uniform_static_under_the_same_budget() {
    let cfg = experiment::Config::quick();
    let r = experiment::run(&cfg).unwrap();
    let uniform = &r.cell("uniform-static").expect("baseline ran").outcome;
    let feedback = &r.cell("progress-feedback").expect("feedback ran").outcome;

    assert!(
        feedback.makespan_s < uniform.makespan_s,
        "progress-aware arbiter must strictly beat uniform-static: \
         {:.2} s vs {:.2} s",
        feedback.makespan_s,
        uniform.makespan_s
    );
    assert!(
        feedback.energy_j <= uniform.energy_j * 1.05,
        "the win must not come from extra energy: {:.0} J vs {:.0} J",
        feedback.energy_j,
        uniform.energy_j
    );

    // Budget conservation, asserted tick by tick for every policy.
    for cell in &r.cells {
        for tick in cell.outcome.grant_trace.ticks() {
            let total: f64 = tick.granted_w.iter().sum();
            assert!(
                total <= cfg.budget_w + 1e-6,
                "{} round {}: granted {:.2} W over the {:.0} W budget",
                cell.policy,
                tick.round,
                total,
                cfg.budget_w
            );
            for &g in &tick.granted_w {
                assert!(
                    g >= cfg.min_cap_w - 1e-6 && g <= cfg.max_cap_w + 1e-6,
                    "{} round {}: grant {g:.2} W outside clamps",
                    cell.policy,
                    tick.round
                );
            }
        }
    }
}

/// The hierarchical acceptance scenario: on the imbalanced 16-node,
/// 4-rack workload, the rack-tree progress-feedback arbiter strictly
/// beats uniform-static makespan, with Σ ≤ budget holding at *both*
/// levels (leaf grants vs. machine budget, rack sub-budgets vs. machine
/// budget) on every tick.
#[test]
fn hierarchical_feedback_beats_uniform_static_with_two_level_conservation() {
    let cfg = hierarchy::Config::quick();
    let r = hierarchy::run(&cfg).unwrap();
    let uniform = &r.cell("uniform-static").expect("baseline ran").outcome;
    let hier = &r.cell("hier-feedback").expect("tree ran").outcome;

    assert!(
        hier.makespan_s < uniform.makespan_s,
        "rack-tree feedback must strictly beat uniform-static: {:.2} s vs {:.2} s",
        hier.makespan_s,
        uniform.makespan_s
    );

    // Leaf level: every barrier tick of every variant.
    for cell in &r.cells {
        for tick in cell.outcome.grant_trace.ticks() {
            let total: f64 = tick.granted_w.iter().sum();
            assert!(
                total <= cfg.budget_w + 1e-6,
                "{} round {}: leaves granted {:.2} W over the {:.0} W budget",
                cell.name,
                tick.round,
                total,
                cfg.budget_w
            );
        }
    }
    // Rack level: every outer epoch of every hierarchical variant.
    let rack = hier.rack_trace.as_ref().expect("tree traces the racks");
    assert!(!rack.is_empty());
    for tick in rack.ticks() {
        let total: f64 = tick.granted_w.iter().sum();
        assert!(
            total <= cfg.budget_w + 1e-6,
            "round {}: racks granted {:.2} W over the {:.0} W budget",
            tick.round,
            total,
            cfg.budget_w
        );
    }
}

/// Node variability alone: three ranks with equal work, one of them on a
/// leaky chip that needs more watts for the same frequency. Under the
/// uniform split the leaky rank sets every barrier; progress feedback
/// must move watts to it and finish the job strictly sooner.
#[test]
fn feedback_rescues_a_leaky_node_among_equal_weights() {
    let run = |policy| {
        run_cluster(&ClusterConfig {
            nodes: vec![
                NodeSpec::new(Preset::Reference, 1.0),
                NodeSpec::new(Preset::Reference, 1.0),
                NodeSpec::new(Preset::Leaky(18.0), 1.0),
            ],
            iters: 6,
            arbiter: ArbiterConfig {
                budget_w: 270.0,
                min_cap_w: 40.0,
                max_cap_w: 130.0,
                policy,
            },
            shape: WorkloadShape::default(),
            daemon_period: DEFAULT_DAEMON_PERIOD,
            comm: CommConfig::none(),
            hierarchy: None,
        })
        .unwrap()
    };
    let uniform = run(Policy::UniformStatic);
    let feedback = run(Policy::ProgressFeedback { gain: 1.0 });

    for it in &uniform.iterations {
        assert_eq!(it.imbalance.critical_rank, 2, "the leaky rank lags");
    }
    assert!(
        feedback.makespan_s < uniform.makespan_s,
        "feedback must beat the uniform split: {:.3} s vs {:.3} s",
        feedback.makespan_s,
        uniform.makespan_s
    );
    let g = &feedback.final_grants_w;
    assert!(
        g[2] > g[0] && g[2] > g[1],
        "watts move to the leaky node: {g:?}"
    );
    assert!(feedback.min_budget_slack_w() >= -1e-6);
}

/// A node whose telemetry drops out keeps its last-granted cap verbatim
/// and is excluded from redistribution until it reports again.
#[test]
fn telemetry_dropout_freezes_the_grant_until_the_node_reports_again() {
    let victim = 1usize;
    // Dropout over the middle of the run (node-local clock): the energy
    // counter becomes unreadable, so the collector cannot report.
    let plan = FaultPlan::new(21).telemetry_dropout(FaultWindow::new(SEC, 4 * SEC));
    let mut nodes = vec![
        NodeSpec::new(Preset::Reference, 1.0),
        NodeSpec::new(Preset::Reference, 1.5),
        NodeSpec::new(Preset::Reference, 2.0),
    ];
    nodes[victim] = nodes[victim].clone().with_faults(plan);
    let out = run_cluster(&ClusterConfig {
        nodes,
        iters: 8,
        arbiter: ArbiterConfig {
            budget_w: 240.0,
            min_cap_w: 40.0,
            max_cap_w: 130.0,
            policy: Policy::ProgressFeedback { gain: 1.0 },
        },
        shape: WorkloadShape::default(),
        daemon_period: DEFAULT_DAEMON_PERIOD,
        comm: CommConfig::none(),
        hierarchy: None,
    })
    .unwrap();

    let silent_rounds: Vec<usize> = out
        .grant_trace
        .ticks()
        .iter()
        .filter(|t| !t.reporting[victim])
        .map(|t| t.round)
        .collect();
    assert!(
        !silent_rounds.is_empty(),
        "the dropout window must actually silence the victim"
    );
    assert!(
        out.grant_trace.ticks().iter().any(|t| t.reporting[victim]),
        "the victim must report again after the window closes"
    );

    // While silent, the victim's grant is frozen bit-for-bit at its
    // previous value (the arbiter may only shrink it if feasibility
    // demanded it, which this generous budget never does).
    for &round in &silent_rounds {
        if round == 0 {
            continue;
        }
        let prev = out.grant_trace.ticks()[round - 1].granted_w[victim];
        let cur = out.grant_trace.ticks()[round].granted_w[victim];
        assert_eq!(
            cur.to_bits(),
            prev.to_bits(),
            "round {round}: silent victim's grant moved ({prev} -> {cur})"
        );
    }

    // The healthy nodes keep being rebalanced meanwhile.
    assert!(out.excluded_node_ticks() == silent_rounds.len());
    assert!(out.min_budget_slack_w() >= -1e-6);
}

/// Determinism end-to-end: the same cluster configuration reproduces the
/// same makespan, energy and grant trace bit-for-bit.
#[test]
fn cluster_runs_are_deterministic() {
    let cfg = ClusterConfig {
        nodes: vec![
            NodeSpec::new(Preset::Reference, 1.0),
            NodeSpec::new(Preset::Leaky(12.0), 1.6),
            NodeSpec::new(Preset::LowBin(2800), 2.1),
        ],
        iters: 3,
        arbiter: ArbiterConfig {
            budget_w: 250.0,
            min_cap_w: 40.0,
            max_cap_w: 130.0,
            policy: Policy::ProgressFeedback { gain: 0.8 },
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
            topology: Topology::FlatSwitch,
        },
        hierarchy: None,
    };
    let a = run_cluster(&cfg).unwrap();
    let b = run_cluster(&cfg).unwrap();
    assert_eq!(a.makespan_s.to_bits(), b.makespan_s.to_bits());
    assert_eq!(a.energy_j.to_bits(), b.energy_j.to_bits());
    assert_eq!(a.grant_trace.len(), b.grant_trace.len());
    for (ta, tb) in a.grant_trace.ticks().iter().zip(b.grant_trace.ticks()) {
        for (ga, gb) in ta.granted_w.iter().zip(&tb.granted_w) {
            assert_eq!(ga.to_bits(), gb.to_bits());
        }
        for (ca, cb) in ta.comm_s.iter().zip(&tb.comm_s) {
            assert_eq!(ca.to_bits(), cb.to_bits(), "exchange pricing must be pure");
        }
    }
}

/// Workload/cluster edge cases around the exchange phase.
mod comm_edges {
    use super::*;

    fn base(nodes: Vec<NodeSpec>, comm: CommConfig) -> ClusterConfig {
        ClusterConfig {
            nodes,
            iters: 4,
            arbiter: ArbiterConfig {
                budget_w: 480.0,
                min_cap_w: 40.0,
                max_cap_w: 130.0,
                policy: Policy::ProgressFeedback { gain: 1.0 },
            },
            shape: WorkloadShape::default(),
            daemon_period: DEFAULT_DAEMON_PERIOD,
            comm,
            hierarchy: None,
        }
    }

    fn halo(bytes_per_unit: f64) -> CommConfig {
        CommConfig {
            alpha_s: 2e-6,
            nic_bw: 1.25e9,
            power_coupling: 0.5,
            pattern: CommPattern::HaloExchange { bytes_per_unit },
            topology: Topology::FlatSwitch,
        }
    }

    /// A zero-node cluster is a configuration error, rejected with the
    /// offending field named rather than producing a vacuous outcome.
    #[test]
    fn zero_node_cluster_is_rejected() {
        let err = base(vec![], halo(1.0)).validate().unwrap_err();
        assert_eq!(err.what, "ClusterConfig.nodes");
        assert!(err.to_string().contains("at least one node"));
    }

    /// A budget below `n * min_cap` has no feasible allocation; the
    /// validator names the arbiter config instead of letting the run
    /// panic deep inside `PowerArbiter::new`.
    #[test]
    fn infeasible_budget_is_rejected_by_validate() {
        let nodes = vec![NodeSpec::new(Preset::Reference, 1.0); 4];
        let mut cfg = base(nodes, halo(1.0));
        cfg.arbiter.budget_w = 100.0; // 4 nodes at a 40 W floor need 160 W
        let err = cfg.validate().unwrap_err();
        assert_eq!(err.what, "ClusterConfig.arbiter");
        assert!(err.to_string().contains("cannot fund"));
    }

    /// Same for a zero-node decomposition: the weight ramp refuses to
    /// produce an empty roster.
    #[test]
    #[should_panic(expected = "at least one node")]
    fn zero_node_ramp_is_rejected() {
        ramp_weights(0, 1.0, 2.0);
    }

    /// A single rank has nobody to exchange with: the halo pattern
    /// produces no flows and the run equals its ideal-barrier twin
    /// bit for bit, bytes and all.
    #[test]
    fn single_node_cluster_has_no_exchange() {
        let nodes = vec![NodeSpec::new(Preset::Reference, 1.7)];
        let wired = run_cluster(&base(nodes.clone(), halo(64.0 * 1024.0 * 1024.0))).unwrap();
        let ideal = run_cluster(&base(nodes, CommConfig::none())).unwrap();
        assert_eq!(wired.total_bytes(), 0.0);
        assert_eq!(wired.mean_comm_s(), 0.0);
        assert_eq!(wired.makespan_s.to_bits(), ideal.makespan_s.to_bits());
        assert_eq!(wired.energy_j.to_bits(), ideal.energy_j.to_bits());
    }

    /// Zero-byte messages must reproduce the ideal-barrier makespan
    /// *exactly* — the acceptance criterion that guards PR-2 behaviour.
    /// Grants must match bitwise too: the comm-aware controller's
    /// damping factor is exactly 1.0 when `comm_s == 0`.
    #[test]
    fn zero_byte_halo_is_bit_identical_to_the_ideal_barrier() {
        let nodes: Vec<NodeSpec> = ramp_weights(5, 1.0, 2.2)
            .into_iter()
            .map(|w| NodeSpec::new(Preset::Reference, w))
            .collect();
        let zeroed = run_cluster(&base(nodes.clone(), halo(0.0))).unwrap();
        let ideal = run_cluster(&base(nodes, CommConfig::none())).unwrap();
        assert_eq!(zeroed.makespan_s.to_bits(), ideal.makespan_s.to_bits());
        assert_eq!(zeroed.energy_j.to_bits(), ideal.energy_j.to_bits());
        assert_eq!(zeroed.total_bytes(), 0.0);
        for (tz, ti) in zeroed
            .grant_trace
            .ticks()
            .iter()
            .zip(ideal.grant_trace.ticks())
        {
            for (gz, gi) in tz.granted_w.iter().zip(&ti.granted_w) {
                assert_eq!(gz.to_bits(), gi.to_bits(), "round {}", tz.round);
            }
        }
    }
}
