//! Job-level power distribution (paper §II): the Argo hierarchy hands a
//! *job* a power budget; the job manager divides it across nodes
//! "according to application characteristics and node variability" — and
//! progress monitoring is what makes an informed division possible.
//!
//! Three simulated nodes carry equal shares of a bulk-synchronous job;
//! one has a leakier chip (manufacturing variability: +18% switched
//! capacitance, so it needs more watts for the same frequency). Under a
//! tight 270 W job budget, the application-agnostic uniform split leaves
//! the leaky node lagging — and because every iteration ends at a
//! barrier, the whole job runs at the slowest node's pace. The
//! progress-feedback arbiter reads each node's compute time at every
//! barrier and moves watts to the laggard.
//!
//! ```text
//! cargo run --release --example job_power_manager
//! ```
//!
//! Exits non-zero unless progress feedback finishes strictly sooner than
//! the uniform split.

use cluster::{
    run_cluster, ArbiterConfig, ClusterConfig, ClusterOutcome, CommConfig, NodeSpec, Policy,
    Preset, WorkloadShape, DEFAULT_DAEMON_PERIOD,
};

const BUDGET_W: f64 = 270.0;
const ITERS: usize = 10;

fn run(policy: Policy, label: &str) -> ClusterOutcome {
    let cfg = ClusterConfig {
        nodes: vec![
            NodeSpec::new(Preset::Reference, 1.0),
            NodeSpec::new(Preset::Reference, 1.0),
            NodeSpec::new(Preset::Leaky(18.0), 1.0),
        ],
        iters: ITERS,
        arbiter: ArbiterConfig {
            budget_w: BUDGET_W,
            min_cap_w: 40.0,
            max_cap_w: 130.0,
            policy,
        },
        shape: WorkloadShape::default(),
        comm: CommConfig::none(),
        daemon_period: DEFAULT_DAEMON_PERIOD,
        hierarchy: None,
    };
    let out = run_cluster(&cfg).expect("the example configuration is valid");

    println!("--- {label} ---");
    println!(
        "{:>5} {:>22} {:>22} {:>12}",
        "iter", "compute (ms)", "next caps (W)", "barrier (s)"
    );
    for (it, tick) in out.iterations.iter().zip(out.grant_trace.ticks()) {
        let compute: Vec<String> = it
            .compute_s
            .iter()
            .map(|s| format!("{:.0}", s * 1e3))
            .collect();
        let caps: Vec<String> = tick.granted_w.iter().map(|w| format!("{w:.0}")).collect();
        println!(
            "{:>5} {:>22} {:>22} {:>12.3}",
            it.round,
            compute.join("/"),
            caps.join("/"),
            it.barrier_at_s
        );
    }
    println!(
        "makespan {:.3} s, energy {:.0} J\n",
        out.makespan_s, out.energy_j
    );
    out
}

fn main() {
    println!("Job budget: {BUDGET_W:.0} W over 3 equal-weight nodes (node 2 has a leaky chip).\n");
    let uniform = run(
        Policy::UniformStatic,
        "uniform static (application-agnostic)",
    );
    let feedback = run(
        Policy::ProgressFeedback { gain: 1.0 },
        "progress feedback (moves watts to the laggard)",
    );
    let gain = 100.0 * (1.0 - feedback.makespan_s / uniform.makespan_s);
    println!("progress feedback shortens the bulk-synchronous job by {gain:.1}%");
    println!("— exactly why the paper wants progress to be monitorable online.");
    if feedback.makespan_s >= uniform.makespan_s {
        eprintln!(
            "job_power_manager: feedback ({:.3} s) did not beat uniform static ({:.3} s)",
            feedback.makespan_s, uniform.makespan_s
        );
        std::process::exit(1);
    }
}
