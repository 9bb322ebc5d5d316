//! Differential tests: the event-horizon macro-step fast path versus the
//! exact fixed-quantum reference.
//!
//! Every test here drives two nodes built from the *same* configuration —
//! one through [`exact_step_until`] (a plain [`Node::step`] loop), one
//! through [`Node::step_until`] — over identical segments, assigning
//! identical fresh work whenever a core completes or wakes. The contract
//! under test is the one stated on [`Node::step_until`]:
//!
//! - event times (`now` at every non-empty outcome) and the outcomes
//!   themselves are **equal**;
//! - counters, energy and remaining per-core progress agree to ≤ 1e-9
//!   relative (the only permitted difference is floating-point summation
//!   order, and only when a macro-step actually fires);
//! - the integer MSR state (`IA32_APERF`, `IA32_MPERF`,
//!   `MSR_PKG_ENERGY_STATUS`) is **bit-identical** whenever the thermal
//!   model is off, and *everything* is bit-identical when no macro-step can
//!   fire (RAPL period == quantum caps every horizon at one quantum).
//!
//! Most cases give every core its own random work. The symmetric cases
//! hand one work item to a whole class of cores (all of them, two halves,
//! alternate cores, all but one), the shape of the rank-symmetric proxy
//! apps, where the macro step evaluates a run of bitwise-equal packets
//! once. They also assert that cores of one class hold bitwise-equal
//! state after every step.

use std::sync::Arc;

use proptest::prelude::*;

use crate::config::NodeConfig;
use crate::faults::{FaultPlan, FaultWindow};
use crate::msr::{IA32_APERF, IA32_MPERF, MSR_PKG_ENERGY_STATUS};
use crate::node::{CoreWork, Node, StepOutcome, WorkPacket};
use crate::thermal::ThermalConfig;
use crate::time::{Nanos, MS, US};

/// The exact reference for [`Node::step_until`]: single quanta through
/// [`Node::step`] until `deadline` or the first non-empty outcome.
fn exact_step_until(node: &mut Node, deadline: Nanos) -> StepOutcome {
    while node.now() < deadline {
        let outcome = node.step();
        if !outcome.is_empty() {
            return outcome.clone();
        }
    }
    StepOutcome::default()
}

/// SplitMix64 — a tiny deterministic stream for workload generation, kept
/// separate from proptest's own RNG so a case's work sequence depends only
/// on its `seed` input.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + self.unit() * (hi - lo)
    }
}

/// Draw a random work item: mostly compute packets across the whole
/// compute-bound/memory-bound spectrum, with occasional sleeps, spins and
/// idle stretches so every `CoreWork` arm of the step paths is exercised.
fn random_work(rng: &mut Mix, now: Nanos) -> CoreWork {
    match rng.next() % 8 {
        0 => CoreWork::Idle,
        1 => CoreWork::Spin,
        2 => CoreWork::Sleep {
            until: now + rng.range(50_000.0, 5_000_000.0) as Nanos,
        },
        _ => {
            let cycles = rng.range(2e5, 4e7);
            // Miss rate spans compute-bound (~0) to STREAM-like (heavy).
            let misses = cycles * rng.range(0.0, 2e-3);
            let instructions = cycles * rng.range(0.4, 2.4);
            CoreWork::Compute(
                WorkPacket {
                    cycles,
                    misses,
                    instructions,
                    mlp: rng.range(0.15, 1.0),
                    mem_weight: rng.range(0.0, 1.0),
                }
                .into(),
            )
        }
    }
}

/// Which cores share work. Cores of one class are always handed the same
/// work item at the same instant, so they hold bitwise-equal state for the
/// whole run: the layouts besides `Distinct` exercise the macro step's
/// reuse of one evaluation across a run of equal packets, and the
/// boundaries between runs of different packets.
#[derive(Debug, Clone, Copy)]
enum Layout {
    /// Every core draws its own work.
    Distinct,
    /// All cores share one work item.
    AllSame,
    /// The lower and upper halves of the cores each share one.
    Halves,
    /// Even and odd cores each share one (A/B/A/B...).
    Alternating,
    /// All cores share one item except the given core (mod core count).
    OddOneOut(usize),
}

impl Layout {
    fn class(self, core: usize, cores: usize) -> usize {
        match self {
            Layout::Distinct => core,
            Layout::AllSame => 0,
            Layout::Halves => usize::from(core >= cores / 2),
            Layout::Alternating => core % 2,
            Layout::OddOneOut(odd) => usize::from(core == odd % cores),
        }
    }

    fn symmetric() -> impl Strategy<Value = Layout> {
        prop_oneof![
            Just(Layout::AllSame),
            Just(Layout::Halves),
            Just(Layout::Alternating),
            (0usize..64).prop_map(Layout::OddOneOut),
        ]
    }
}

/// Hand fresh work to `cores` on both nodes at `now`: one [`random_work`]
/// draw per class, in the order the classes first appear among `cores`.
/// Under [`Layout::Distinct`] that is one draw per core, in core order.
fn assign_fresh(
    layout: Layout,
    rng: &mut Mix,
    now: Nanos,
    nodes: [&mut Node; 2],
    cores: impl IntoIterator<Item = usize>,
    pick: fn(&mut Mix, Nanos) -> CoreWork,
) {
    let [exact, fast] = nodes;
    let n = exact.cores();
    let mut drawn: Vec<(usize, CoreWork)> = Vec::new();
    for c in cores {
        let class = layout.class(c, n);
        let w = match drawn.iter().find(|(k, _)| *k == class) {
            Some(&(_, w)) => w,
            None => {
                let w = pick(rng, now);
                drawn.push((class, w));
                w
            }
        };
        exact.assign(c, w);
        fast.assign(c, w);
    }
}

/// Cores of one class must hold bitwise-equal work after every step: the
/// reuse may never let two equal packets drift apart.
fn assert_classes_stay_equal(node: &Node, layout: Layout) {
    let n = node.cores();
    for a in 0..n {
        for b in a + 1..n {
            if layout.class(a, n) != layout.class(b, n) {
                continue;
            }
            let same = match (node.work(a), node.work(b)) {
                (CoreWork::Compute(x), CoreWork::Compute(y)) => x.same_bits(y),
                (x, y) => x == y,
            };
            assert!(
                same,
                "cores {a} and {b} share work but diverged at t={}: {:?} vs {:?}",
                node.now(),
                node.work(a),
                node.work(b)
            );
        }
    }
}

fn assert_rel_close(a: f64, b: f64, what: &str) {
    let scale = a.abs().max(b.abs()).max(1.0);
    assert!(
        (a - b).abs() <= 1e-9 * scale,
        "{what} diverged: exact={a} horizon={b}"
    );
}

/// Drive `exact` and `fast` in lockstep for `total` sim-time, re-assigning
/// identical fresh work (shared per `layout` class) on every
/// completion/wake, changing the package cap at every segment boundary
/// from `caps`, and asserting the equivalence contract at every event and
/// every boundary. No thermal model runs here, so integer MSR state must
/// match bit for bit.
fn run_lockstep(
    mut exact: Node,
    mut fast: Node,
    seed: u64,
    total: Nanos,
    segment: Nanos,
    caps: &[Option<f64>],
    layout: Layout,
) {
    let cores = exact.cores();
    let mut rng = Mix(seed);
    assign_fresh(
        layout,
        &mut rng,
        0,
        [&mut exact, &mut fast],
        0..cores,
        random_work,
    );
    let mut cap_idx = 0usize;
    while fast.now() < total {
        if !caps.is_empty() {
            let cap = caps[cap_idx % caps.len()];
            cap_idx += 1;
            // Under write-fault plans the set may fail; it must fail (or
            // succeed) identically in both modes.
            let re = exact.set_package_cap(cap);
            let rf = fast.set_package_cap(cap);
            assert_eq!(re.is_ok(), rf.is_ok(), "cap write outcome diverged");
        }
        let deadline = (fast.now() + segment).min(total);
        loop {
            let oe = exact_step_until(&mut exact, deadline);
            let of = fast.step_until(deadline).clone();
            assert_eq!(oe, of, "step outcomes diverged at t={}", exact.now());
            assert_eq!(exact.now(), fast.now(), "event times diverged");
            assert_classes_stay_equal(&exact, layout);
            assert_classes_stay_equal(&fast, layout);
            let now = fast.now();
            let freed = oe.completed.iter().chain(oe.woke.iter()).copied();
            assign_fresh(
                layout,
                &mut rng,
                now,
                [&mut exact, &mut fast],
                freed,
                random_work,
            );
            if oe.is_empty() {
                break;
            }
        }
        // Deadlines need not be quantum-aligned; both modes must land on
        // the same first quantum boundary at or past the deadline.
        assert!(exact.now() >= deadline);
        assert_eq!(exact.now(), fast.now());
        compare_nodes(&exact, &fast, true);
    }
}

/// Assert the two nodes agree: counters/energy/progress ≤ 1e-9 relative,
/// and (optionally) integer MSR state bit-for-bit.
fn compare_nodes(exact: &Node, fast: &Node, bit_exact_msrs: bool) {
    let ce = exact.counters();
    let cf = fast.counters();
    assert_rel_close(ce.instructions, cf.instructions, "instructions");
    assert_rel_close(ce.cycles, cf.cycles, "cycles");
    assert_rel_close(ce.l3_misses, cf.l3_misses, "l3_misses");
    assert_rel_close(exact.total_energy(), fast.total_energy(), "energy");
    for c in 0..exact.cores() {
        match (exact.work(c), fast.work(c)) {
            (CoreWork::Compute(a), CoreWork::Compute(b)) => {
                assert_rel_close(a.cycles_left, b.cycles_left, "cycles_left");
                assert_rel_close(a.misses_left, b.misses_left, "misses_left");
                assert_rel_close(a.inst_left, b.inst_left, "inst_left");
            }
            (a, b) => assert_eq!(a, b, "core {c} work state diverged"),
        }
    }
    if bit_exact_msrs {
        for addr in [IA32_APERF, IA32_MPERF, MSR_PKG_ENERGY_STATUS] {
            assert_eq!(
                exact.msr().hw_read(addr),
                fast.msr().hw_read(addr),
                "MSR {addr:#x} diverged bit-wise"
            );
        }
    }
}

/// Build the exact/fast node pair from one base configuration.
fn node_pair(cfg: NodeConfig) -> (Node, Node) {
    (Node::new(cfg.clone()), Node::new(cfg))
}

fn base_cfg(cores: usize, quantum: Nanos, rapl_period: Nanos) -> NodeConfig {
    NodeConfig {
        cores,
        quantum,
        rapl_period,
        rapl_window: rapl_period * 8,
        ..NodeConfig::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Tentpole acceptance: random workloads, random quanta, random
    /// (possibly quantum-misaligned) RAPL periods, random caps. Integer
    /// MSR state must stay bit-identical (no thermal model here).
    #[test]
    fn step_until_matches_exact_on_random_workloads(
        seed in any::<u64>(),
        cores in 1usize..8,
        quantum_us in 20u64..200,
        rapl_mult in 1u64..24,
        rapl_skew_us in 0u64..100,
        cap in prop_oneof![Just(None), (45.0f64..140.0).prop_map(Some)],
    ) {
        let quantum = quantum_us * US;
        let rapl_period = quantum * rapl_mult + rapl_skew_us.min(quantum_us - 1) * US;
        let (exact, fast) = node_pair(base_cfg(cores, quantum, rapl_period));
        run_lockstep(exact, fast, seed, 40 * MS, 7 * MS, &[cap], Layout::Distinct);
    }

    /// Same contract under active fault plans: stuck/jumping energy
    /// counters, delayed cap latching, probabilistic read/write errors and
    /// telemetry dropouts, with cap writes landing inside the windows.
    #[test]
    fn step_until_matches_exact_under_fault_plans(
        seed in any::<u64>(),
        plan_seed in any::<u64>(),
        rapl_mult in 1u64..16,
        jump_to in any::<u32>(),
        latch_delay_us in 1u64..2_000,
    ) {
        let quantum = 100 * US;
        let plan = FaultPlan::new(plan_seed)
            .stuck_energy(FaultWindow::new(4 * MS, 9 * MS))
            .energy_jump(u64::from(jump_to), FaultWindow::new(12 * MS, 14 * MS))
            .delayed_cap_latch(latch_delay_us * US, FaultWindow::new(0, 20 * MS))
            .read_error(MSR_PKG_ENERGY_STATUS, 0.3, FaultWindow::new(6 * MS, 16 * MS))
            .write_error(crate::msr::MSR_PKG_POWER_LIMIT, 0.3, FaultWindow::new(0, 10 * MS))
            .telemetry_dropout(FaultWindow::new(17 * MS, 19 * MS));
        let mut cfg = base_cfg(4, quantum, quantum * rapl_mult);
        cfg.faults = Some(Arc::new(plan));
        let (exact, fast) = node_pair(cfg);
        run_lockstep(
            exact,
            fast,
            seed,
            24 * MS,
            3 * MS,
            &[Some(90.0), Some(60.0), None],
            Layout::Distinct,
        );
    }

    /// The same contract on a full 24-core node whose cores share work:
    /// all alike, two halves, A/B alternating, or all but one odd core.
    /// The macro step evaluates a run of bitwise-equal packets once; this
    /// holds it to the exact reference, and holds cores of one class to
    /// bitwise-equal state after every step.
    #[test]
    fn step_until_matches_exact_on_symmetric_workloads(
        seed in any::<u64>(),
        layout in Layout::symmetric(),
        quantum_us in 20u64..200,
        rapl_mult in 1u64..24,
        caps in prop::collection::vec(
            prop_oneof![Just(None), (45.0f64..140.0).prop_map(Some)],
            1..4,
        ),
    ) {
        let quantum = quantum_us * US;
        let (exact, fast) = node_pair(base_cfg(24, quantum, quantum * rapl_mult));
        run_lockstep(exact, fast, seed, 40 * MS, 5 * MS, &caps, layout);
    }

    /// With the thermal model on, summation order inside a macro-step is
    /// not bit-preserved (dynamic and leakage sums are kept separate), so
    /// the contract relaxes to ≤ 1e-9 relative — but event times, PROCHOT
    /// flips and throttle truncation must still line up exactly.
    #[test]
    fn step_until_matches_exact_with_thermal_throttling(
        seed in any::<u64>(),
        throttle_c in 55.0f64..80.0,
        tau_s in 0.005f64..0.05,
    ) {
        let mut cfg = base_cfg(24, 100 * US, MS);
        cfg.thermal = Some(ThermalConfig {
            throttle_c,
            tau_s,
            ..ThermalConfig::default()
        });
        let (mut exact, mut fast) = node_pair(cfg);
        run_lockstep_thermal_check(&mut exact, &mut fast, seed, Layout::Distinct);
    }

    /// The thermal contract with cores sharing work.
    #[test]
    fn step_until_matches_exact_with_thermal_throttling_on_symmetric_workloads(
        seed in any::<u64>(),
        layout in Layout::symmetric(),
        throttle_c in 55.0f64..80.0,
    ) {
        let mut cfg = base_cfg(24, 100 * US, MS);
        cfg.thermal = Some(ThermalConfig {
            throttle_c,
            tau_s: 0.01,
            ..ThermalConfig::default()
        });
        let (mut exact, mut fast) = node_pair(cfg);
        run_lockstep_thermal_check(&mut exact, &mut fast, seed, layout);
    }
}

/// [`random_work`], with idle turned into spinning so the package heats up.
fn hot_work(rng: &mut Mix, now: Nanos) -> CoreWork {
    match random_work(rng, now) {
        CoreWork::Idle => CoreWork::Spin,
        other => other,
    }
}

/// Thermal lockstep: besides the relaxed numeric contract, throttle state
/// must agree at every event and boundary (a PROCHOT flip one quantum off
/// would show up here before it shows up in the counters).
fn run_lockstep_thermal_check(exact: &mut Node, fast: &mut Node, seed: u64, layout: Layout) {
    let cores = exact.cores();
    let mut rng = Mix(seed);
    assign_fresh(layout, &mut rng, 0, [exact, fast], 0..cores, hot_work);
    let total = 60 * MS;
    while fast.now() < total {
        let deadline = (fast.now() + 5 * MS).min(total);
        loop {
            let oe = exact_step_until(exact, deadline);
            let of = fast.step_until(deadline).clone();
            assert_eq!(oe, of, "thermal outcomes diverged at t={}", exact.now());
            assert_eq!(exact.now(), fast.now());
            assert_eq!(
                exact.thermal_throttling(),
                fast.thermal_throttling(),
                "PROCHOT state diverged at t={}",
                exact.now()
            );
            let (te, tf) = (
                exact.temperature_c().unwrap(),
                fast.temperature_c().unwrap(),
            );
            assert_rel_close(te, tf, "temperature");
            assert_classes_stay_equal(exact, layout);
            assert_classes_stay_equal(fast, layout);
            let now = fast.now();
            let freed = oe.completed.iter().chain(oe.woke.iter()).copied();
            assign_fresh(layout, &mut rng, now, [exact, fast], freed, random_work);
            if oe.is_empty() {
                break;
            }
        }
        compare_nodes(exact, fast, false);
    }
}

/// When `rapl_period == quantum`, the RAPL horizon caps every macro-step at
/// a single quantum, so the fast path never fires and `step_until` must
/// be **bit-identical** to the exact step loop — registers, counters,
/// energy, work state, everything.
#[test]
fn bit_identical_when_no_macro_step_fires() {
    let quantum = 100 * US;
    let cfg = base_cfg(6, quantum, quantum);
    let (mut exact, mut fast) = node_pair(cfg);
    let mut rng = Mix(0xD1FF_7E57);
    for c in 0..6 {
        let w = random_work(&mut rng, 0);
        exact.assign(c, w);
        fast.assign(c, w);
    }
    exact.set_package_cap(Some(70.0)).unwrap();
    fast.set_package_cap(Some(70.0)).unwrap();
    let total = 20 * MS;
    while fast.now() < total {
        let oe = exact_step_until(&mut exact, total);
        let of = fast.step_until(total).clone();
        assert_eq!(oe, of);
        assert_eq!(exact.now(), fast.now());
        for &c in oe.completed.iter().chain(oe.woke.iter()) {
            let w = random_work(&mut rng, fast.now());
            exact.assign(c, w);
            fast.assign(c, w);
        }
    }
    let ce = exact.counters();
    let cf = fast.counters();
    assert_eq!(ce.instructions.to_bits(), cf.instructions.to_bits());
    assert_eq!(ce.cycles.to_bits(), cf.cycles.to_bits());
    assert_eq!(ce.l3_misses.to_bits(), cf.l3_misses.to_bits());
    assert_eq!(
        exact.total_energy().to_bits(),
        fast.total_energy().to_bits()
    );
    for addr in [IA32_APERF, IA32_MPERF, MSR_PKG_ENERGY_STATUS] {
        assert_eq!(exact.msr().hw_read(addr), fast.msr().hw_read(addr));
    }
    for c in 0..6 {
        assert_eq!(exact.work(c), fast.work(c));
    }
}

/// `step_until` honours its deadline exactly when nothing happens, and
/// returns early (at the completion quantum) when something does.
#[test]
fn step_until_deadline_and_early_return_semantics() {
    let cfg = base_cfg(2, 100 * US, MS);
    let mut node = Node::new(cfg);
    // Uneventful: idle cores, far deadline.
    let o = node.step_until(3 * MS).clone();
    assert!(o.is_empty());
    assert_eq!(node.now(), 3 * MS);
    // Eventful: a small packet completes long before the deadline.
    node.assign(
        0,
        CoreWork::Compute(WorkPacket::new(3.0e6, 0.0, 3.0e6).into()),
    );
    let o = node.step_until(100 * MS).clone();
    assert_eq!(o.completed, vec![0]);
    assert!(o.woke.is_empty());
    assert!(
        node.now() < 100 * MS,
        "returned at {} — did not stop early",
        node.now()
    );
    // Sleep horizon: the wake lands on the quantum whose end covers `until`.
    let wake_at = node.now() + 1_550 * US;
    node.assign(1, CoreWork::Sleep { until: wake_at });
    let o = node.step_until(100 * MS).clone();
    assert_eq!(o.woke, vec![1]);
    assert!(node.now() >= wake_at);
    assert!(node.now() - wake_at < 100 * US);
}
