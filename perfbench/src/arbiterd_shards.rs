//! `arbiterd-shards`: a closed-loop lockstep driver of the sharded arbiter
//! service core, one op per tick, 100k producers.
//!
//! Each tick the producers' telemetry (a seeded ~5 % send a heartbeat
//! instead) is packed 64 producers per `Msg::Batch`, encoded and decoded
//! with `arbiterd::proto`, ingested by a `ShardedService`, and the tick's
//! grants are encoded and decoded back. Epochs of 20 ticks alternate
//! between 2 and 4 shards, with an outer re-split every 2 ticks. A tick
//! that panics writes off the rest of its epoch, and the next epoch starts
//! from a fresh service.

use arbiterd::loadgen::synth_telemetry;
use arbiterd::{ArbiterService, Msg, ServiceConfig, ShardedService};
use cluster::{
    ArbiterConfig, BudgetArbiter, GrantTrace, NodeTelemetry, Policy, PowerArbiter, TelemetryError,
};

use crate::common::{
    guarded, median, run_for, setup_reps, timed, Fnv, Ops, RefClock, Rng, RunResult, SETUP_REPS,
};
use crate::trace;

const PRODUCERS: usize = 100_000;
const BATCH: usize = 64;
const OUTER_PERIOD: u64 = 2;
const EPOCH_TICKS: u64 = 20;
const SHARDS: [usize; 2] = [2, 4];
/// Host time of one op cycle (an epoch at each shard count) without
/// panics at the nominal kernel speed, s.
const CYCLE_S: f64 = 7.0;
/// The service's own Σ grants ≤ budget tolerance, W.
const EPS_W: f64 = 1e-6;
const MIN_CAP_W: f64 = 40.0;
const MAX_CAP_W: f64 = 130.0;

fn machine() -> ArbiterConfig {
    ArbiterConfig {
        budget_w: 100.0 * PRODUCERS as f64,
        min_cap_w: MIN_CAP_W,
        max_cap_w: MAX_CAP_W,
        policy: Policy::ProgressFeedback { gain: 1.0 },
    }
}

/// A `BudgetArbiter` whose redistribution and budget re-fits run inside
/// spans; passed to `ShardedService` through its shard factory.
struct TimedArbiter(Box<dyn BudgetArbiter>);

impl BudgetArbiter for TimedArbiter {
    fn node_count(&self) -> usize {
        self.0.node_count()
    }
    fn redistribute(
        &mut self,
        reports: &[Option<NodeTelemetry>],
    ) -> Result<&[f64], TelemetryError> {
        let inner = &mut self.0;
        trace::span("cluster.arbiter.redistribute", || {
            inner.redistribute(reports)
        })
    }
    fn redistribute_trusted(
        &mut self,
        reports: &[Option<NodeTelemetry>],
    ) -> Result<&[f64], TelemetryError> {
        let inner = &mut self.0;
        trace::span("cluster.arbiter.redistribute", || {
            inner.redistribute_trusted(reports)
        })
    }
    fn grants(&self) -> &[f64] {
        self.0.grants()
    }
    fn trace(&self) -> &GrantTrace {
        self.0.trace()
    }
    fn budget(&self) -> f64 {
        self.0.budget()
    }
    fn set_budget(&mut self, budget_w: f64) {
        let inner = &mut self.0;
        trace::span("cluster.arbiter.set_budget", || inner.set_budget(budget_w))
    }
    fn rack_trace(&self) -> Option<&GrantTrace> {
        self.0.rack_trace()
    }
    fn reclaim(&mut self, node: usize) -> bool {
        self.0.reclaim(node)
    }
    fn restore_grants(&mut self, grants: &[f64]) -> bool {
        self.0.restore_grants(grants)
    }
}

fn service(shards: usize, traced: bool) -> ShardedService {
    let svc_cfg = ServiceConfig {
        // Every producer of the largest shard fits one round's queue, so
        // nothing is shed by construction.
        queue_depth: PRODUCERS.div_ceil(SHARDS[0]).next_power_of_two(),
        snapshot_every: 0,
        ..ServiceConfig::default()
    };
    let mut make = |_i: usize, cfg: ArbiterConfig, k: usize| {
        let a = PowerArbiter::new(cfg, k).with_tracing(false);
        let a: Box<dyn BudgetArbiter> = if traced {
            Box::new(TimedArbiter(Box::new(a)))
        } else {
            Box::new(a)
        };
        ArbiterService::new(a, svc_cfg.clone())
    };
    ShardedService::new(&machine(), PRODUCERS, shards, OUTER_PERIOD, &mut make)
}

/// One tick's producer-side input: per shard, the batched messages.
fn producer_batches(svc: &ShardedService, seed: u64, seq: u64) -> Vec<Vec<Msg>> {
    svc.spans()
        .iter()
        .map(|span| {
            let msgs: Vec<Msg> = span
                .clone()
                .map(|global| {
                    let local = (global - span.start) as u32;
                    let mut pick = Rng::new(seed ^ ((global as u64) << 20), seq);
                    if pick.unit() < 0.05 {
                        Msg::Heartbeat { node: local }
                    } else {
                        Msg::Telemetry {
                            node: local,
                            seq,
                            report: synth_telemetry(seed, global as u32, seq),
                        }
                    }
                })
                .collect();
            msgs.chunks(BATCH).map(|c| Msg::Batch(c.to_vec())).collect()
        })
        .collect()
}

fn roundtrip(msg: &Msg) -> Msg {
    let frame = trace::span("arbiterd.proto.encode", || msg.encode());
    trace::count("arbiterd.proto.bytes", frame.len() as f64);
    // `encode` writes a 4-byte length prefix; `decode` takes the payload.
    trace::span("arbiterd.proto.decode", || Msg::decode(&frame[4..]))
        .expect("a frame this process encoded decodes")
}

struct Tick {
    ok: bool,
    hash: u64,
    granted: u64,
}

/// One telemetry → grant round trip over every producer.
fn tick(svc: &mut ShardedService, batches: Vec<Vec<Msg>>, seq: u64) -> Tick {
    let mut refused = 0u64;
    let mut telemetry = 0u64;
    for (shard, frames) in batches.into_iter().enumerate() {
        for msg in frames {
            if let Msg::Batch(ms) = &msg {
                telemetry += ms
                    .iter()
                    .filter(|m| matches!(m, Msg::Telemetry { .. }))
                    .count() as u64;
            }
            let wire = roundtrip(&msg);
            let replies = trace::span("arbiterd.service.ingest", || svc.ingest(shard, wire));
            refused += replies
                .iter()
                .map(|r| match r {
                    Msg::Batch(ms) => ms
                        .iter()
                        .filter(|m| matches!(m, Msg::Busy { .. } | Msg::Nack { .. }))
                        .count() as u64,
                    Msg::Busy { .. } | Msg::Nack { .. } => 1,
                    _ => 0,
                })
                .sum::<u64>();
        }
    }
    let replies = trace::span("arbiterd.sharded.tick", || svc.tick());
    let budget_ok = svc.sum_grants() <= svc.machine_budget_w() + EPS_W;
    let mut h = Fnv::default();
    h.u64(seq);
    let mut granted = 0u64;
    let mut clamped = true;
    for mut shard in replies {
        while !shard.is_empty() {
            let rest = shard.split_off(BATCH.min(shard.len()));
            let chunk = std::mem::replace(&mut shard, rest);
            let Msg::Batch(grants) = roundtrip(&Msg::Batch(chunk)) else {
                continue;
            };
            for g in grants {
                if let Msg::Grant { watts, .. } = g {
                    granted += 1;
                    clamped &= (MIN_CAP_W - EPS_W..=MAX_CAP_W + EPS_W).contains(&watts);
                    h.f64(watts);
                }
            }
        }
    }
    trace::count("arbiterd.refused", refused as f64);
    trace::count("arbiterd.offered", telemetry as f64);
    Tick {
        ok: refused == 0 && budget_ok && clamped && granted == telemetry,
        hash: h.finish(),
        granted,
    }
}

/// The lockstep driver: epochs alternate shard counts, each on a fresh
/// service.
struct Driver {
    seed: u64,
    traced: bool,
    epoch: usize,
    tick_in_epoch: u64,
    /// A tick of this epoch panicked: its remaining ticks are written off.
    panicked: bool,
    svc: ShardedService,
}

impl Driver {
    fn new(seed: u64, traced: bool) -> Self {
        Self {
            seed,
            traced,
            epoch: 0,
            tick_in_epoch: 0,
            panicked: false,
            svc: service(SHARDS[0], traced),
        }
    }

    /// The op kind of this epoch's ticks: the index of its shard count.
    fn kind(&self) -> usize {
        self.epoch % SHARDS.len()
    }

    fn next_epoch(&mut self) {
        self.epoch += 1;
        self.tick_in_epoch = 0;
        self.panicked = false;
        self.svc = service(SHARDS[self.kind()], self.traced);
    }

    /// Run the next op into `ops` (`ref_ms`: the latest reference-kernel
    /// sample); returns the tick, or `None` when it panicked or was written
    /// off because an earlier tick of its epoch panicked.
    fn step(
        &mut self,
        ops: &mut Ops,
        op_id: u64,
        first_panic: &mut Option<String>,
        ref_ms: f64,
    ) -> Option<Tick> {
        let seq = self.tick_in_epoch + 1;
        self.tick_in_epoch += 1;
        let out = if self.panicked {
            ops.write_off(1);
            None
        } else {
            let batches = producer_batches(&self.svc, self.seed, seq);
            let svc = &mut self.svc;
            let (res, ms) =
                timed(|| guarded(|| trace::op(op_id, "arbiterd.op", || tick(svc, batches, seq))));
            match res {
                Ok(t) => {
                    ops.record(ms, t.ok, ref_ms, self.kind());
                    Some(t)
                }
                Err(msg) => {
                    trace::count("arbiterd.panicked_ticks", 1.0);
                    ops.record(ms, false, ref_ms, self.kind());
                    self.panicked = true;
                    first_panic.get_or_insert_with(|| {
                        format!(
                            "epoch {} ({} shards) tick {seq}: {msg}",
                            self.epoch,
                            SHARDS[self.kind()]
                        )
                    });
                    None
                }
            }
        };
        if self.tick_in_epoch >= EPOCH_TICKS {
            self.next_epoch();
        }
        out
    }
}

/// Run the workload.
pub fn run(seed: u64, seconds: f64, traced: bool) -> RunResult {
    let cycle_ticks = EPOCH_TICKS as usize * SHARDS.len();
    let mut clock = RefClock::new(1);
    let (mut drv, setup) = setup_reps(SETUP_REPS, &mut clock, || {
        let mut d = Driver::new(seed, false);
        let mut warm = Ops::default();
        std::hint::black_box(d.step(&mut warm, 0, &mut None, 1.0).map(|t| t.hash));
        Driver::new(seed, false)
    });
    let mut r = RunResult {
        setup,
        ..RunResult::default()
    };

    let untraced_s = if traced { seconds / 2.0 } else { seconds };
    let mut ops = Ops::default();
    let mut first_panic = None;
    let mut fp = Fnv::default();
    let mut first_tick_hash = None;
    let mut granted = 0u64;
    // Every step attempts one tick (or writes one off), so step `k` is
    // tick `k` of the run.
    r.wall_s = run_for(untraced_s, cycle_ticks, CYCLE_S, &mut clock, |k, ref_ms| {
        let t = drv.step(&mut ops, k as u64, &mut first_panic, ref_ms);
        granted += t.as_ref().map_or(0, |t| t.granted);
        // A panicked or written-off tick hashes as zero.
        let h = t.as_ref().map_or(0, |t| t.hash);
        first_tick_hash.get_or_insert(h);
        if k < cycle_ticks {
            fp.u64(h);
        }
    });
    r.fingerprint = fp.finish();
    r.ref_ms = clock.median_ms();

    let again = Driver::new(seed, false)
        .step(&mut Ops::default(), 0, &mut None, 1.0)
        .map_or(0, |t| t.hash);
    r.self_check(
        "tick 1",
        again,
        first_tick_hash.expect("the timed loop runs at least one tick"),
    );
    if let Some(p) = &first_panic {
        r.notes.push(format!("first panic: {p}"));
    }
    r.extra
        .push(("msgs_per_s", granted as f64 / r.wall_s, "msg/s"));

    if traced {
        let mut tops = Ops::default();
        let mut drv = Driver::new(seed, true);
        let base = ops.attempted;
        trace::enable();
        run_for(
            seconds / 2.0,
            cycle_ticks,
            CYCLE_S,
            &mut clock,
            |k, ref_ms| {
                drv.step(&mut tops, base + k as u64, &mut None, ref_ms);
            },
        );
        // Ticks that ran: a panicked tick's root span never closed, but the
        // spans it finished before the panic were counted.
        let ran =
            trace::stat("arbiterd.op").calls as f64 + trace::counter("arbiterd.panicked_ticks");
        trace::count("perfbench.traced_ops", ran);
        trace::count(
            "perfbench.trace_overhead_ms",
            median(&tops.lat_ms) - median(&ops.lat_ms),
        );
    }
    r.ops = ops;
    r
}
