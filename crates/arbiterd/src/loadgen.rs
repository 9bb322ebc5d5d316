//! Deterministic load generator: up to 100k simulated telemetry
//! producers against one or more [`ArbiterService`] shards, with seeded
//! transport faults and an optional mid-run daemon crash.
//!
//! Everything is in-process and lockstep — clients, "network", and
//! services advance one tick at a time over [`PipeWire`] pairs — so a
//! run is a pure function of its configuration: the same seed gives the
//! same sheds, the same reconnect schedule, the same grants, bit for
//! bit. That determinism is what lets the chaos acceptance test demand
//! *bitwise* equality between a crashed-and-recovered run and an
//! uncrashed reference instead of hand-waving tolerances.
//!
//! Two scale levers:
//!
//! - **Sharding** (`shards > 1`): producers split across N
//!   [`ShardedService`] shards, the machine budget re-split on
//!   `outer_period` by the rack-level solver. One shard owns the whole
//!   budget and never re-splits, bit-identical to a lone service.
//! - **Batching** (`batch > 1`): each [`GrantClient`] serves a group of
//!   `batch` producers over one wire, sending one [`Msg::Batch`] of
//!   telemetry per tick instead of one frame per producer. Grants
//!   return batched the same way. The service treats a batch exactly as
//!   its members (tested bitwise), so this only changes frame count,
//!   never grants.
//!
//! The crash model mirrors `kill -9` at a tick boundary: the victim
//! shard's endpoints hang up, its service object is dropped on the
//! floor (no flush), and a fresh service restores from the write-ahead
//! snapshot. `crash_shard` selects one victim; `None` crashes every
//! shard at once. Clients notice only through their wires dying.
//!
//! `repro loadgen`, the CI soak and the benches all drive this one
//! generator. Live TCP sockets under concurrent producers are exercised
//! by the [`crate::sharded`] tests.

use std::collections::BTreeMap;
use std::ops::Range;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};

use cluster::{ArbiterConfig, BudgetArbiter, ConfigError, NodeTelemetry, Policy, PowerArbiter};

use crate::client::{ClientStats, GrantClient};
use crate::proto::Msg;
use crate::service::{ArbiterService, ServiceConfig, ServiceStats};
use crate::sharded::ShardedService;
use crate::wire::{send_members, FaultyWire, PipeWire, Wire, WireFaultPlan};

/// Transport-fault knobs for the simulated cluster.
#[derive(Debug, Clone)]
pub struct FaultKnobs {
    /// Per-message drop probability.
    pub drop_prob: f64,
    /// Per-message duplication probability.
    pub dup_prob: f64,
    /// Per-message delay probability.
    pub delay_prob: f64,
    /// Maximum delay, polls.
    pub max_delay_polls: u64,
    /// Partition `(start_tick, end_tick)` applied to every `stride`-th
    /// client (`None` = no partitions).
    pub partition: Option<(u64, u64, usize)>,
}

impl FaultKnobs {
    /// The chaos-test default: drops, dups, delays, and a partition
    /// hitting every 7th client.
    pub fn hostile() -> Self {
        Self {
            drop_prob: 0.05,
            dup_prob: 0.02,
            delay_prob: 0.10,
            max_delay_polls: 3,
            partition: Some((20, 35, 7)),
        }
    }
}

/// One load-generation scenario.
#[derive(Debug, Clone)]
pub struct LoadgenConfig {
    /// Simulated telemetry producers (= arbiter nodes, machine-wide).
    pub clients: usize,
    /// Arbiter shards the producers are spread across (contiguous
    /// near-equal spans; 1 = one service owning the whole budget).
    pub shards: usize,
    /// Producers served per wire, in contiguous groups within a shard
    /// (1 = one connection and one bare frame per producer; >1 sends
    /// one batched frame per group per tick).
    pub batch: usize,
    /// Ticks between machine-budget re-splits across shards (ignored
    /// when `shards` is 1).
    pub outer_period: u64,
    /// Lockstep ticks to run.
    pub ticks: u64,
    /// Master seed: telemetry content, fault schedules, backoff jitter.
    pub seed: u64,
    /// Cluster budget per client, W (total budget = `clients ×` this).
    pub budget_per_client_w: f64,
    /// Per-node grant floor, W.
    pub min_cap_w: f64,
    /// Per-node grant ceiling, W.
    pub max_cap_w: f64,
    /// Service tuning (queue depth, leases, snapshot cadence, …).
    pub service: ServiceConfig,
    /// Transport faults (`None` = clean wires).
    pub faults: Option<FaultKnobs>,
    /// Kill a daemon at the start of this tick and restore it from the
    /// snapshot.
    pub crash_at: Option<u64>,
    /// Which shard `crash_at` kills: `Some(k)` = shard `k` only (the
    /// others keep serving); `None` = every shard at once.
    pub crash_shard: Option<usize>,
    /// Snapshot location (required for `crash_at`; `None` disables
    /// snapshotting). With `shards > 1` each shard appends `.s<i>`. A
    /// run deletes its snapshot files when it starts and before it
    /// returns.
    pub snapshot_path: Option<PathBuf>,
    /// Send telemetry every N ticks (heartbeats in between).
    pub report_every: u64,
    /// Reconnect backoff cap, ticks.
    pub backoff_cap: u32,
    /// Use one shared jitter seed for every client's backoff so a
    /// crashed cohort reconnects in lockstep — required by the bitwise
    /// recovery comparison, unrealistic for throughput runs.
    pub lockstep_backoff: bool,
    /// Record every `(seq, grant-bits)` per node in the report's
    /// `grant_log`. The bitwise tests need it; throughput benches turn
    /// it off so they measure message handling, not test bookkeeping.
    pub record_grants: bool,
}

impl Default for LoadgenConfig {
    fn default() -> Self {
        Self {
            clients: 64,
            shards: 1,
            batch: 1,
            outer_period: 4,
            ticks: 60,
            seed: 1,
            budget_per_client_w: 100.0,
            min_cap_w: 40.0,
            max_cap_w: 130.0,
            service: ServiceConfig::default(),
            faults: None,
            crash_at: None,
            crash_shard: None,
            snapshot_path: None,
            report_every: 1,
            backoff_cap: 8,
            lockstep_backoff: false,
            record_grants: true,
        }
    }
}

impl LoadgenConfig {
    /// Check the scale knobs, with the constraint in the error message.
    /// The `repro` CLI maps a failure here to exit code 2.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.clients == 0 {
            return Err(ConfigError::new(
                "LoadgenConfig.clients",
                "need at least one client",
            ));
        }
        if self.shards == 0 {
            return Err(ConfigError::new(
                "LoadgenConfig.shards",
                "need at least one shard",
            ));
        }
        if self.shards > self.clients {
            return Err(ConfigError::new(
                "LoadgenConfig.shards",
                format!(
                    "cannot spread {} clients over {} shards",
                    self.clients, self.shards
                ),
            ));
        }
        if self.batch == 0 {
            return Err(ConfigError::new(
                "LoadgenConfig.batch",
                "batch must be at least 1",
            ));
        }
        if self.outer_period == 0 {
            return Err(ConfigError::new(
                "LoadgenConfig.outer_period",
                "outer period must be positive",
            ));
        }
        if self.report_every == 0 {
            return Err(ConfigError::new(
                "LoadgenConfig.report_every",
                "report cadence must be positive",
            ));
        }
        if let Some(k) = self.crash_shard {
            if k >= self.shards {
                return Err(ConfigError::new(
                    "LoadgenConfig.crash_shard",
                    format!("shard {k} does not exist (shards = {})", self.shards),
                ));
            }
        }
        Ok(())
    }
}

/// What a run did, in aggregate and grant-for-grant.
#[derive(Debug, Clone)]
pub struct LoadgenReport {
    /// Clients simulated.
    pub clients: usize,
    /// Shards the clients were spread across.
    pub shards: usize,
    /// Ticks executed.
    pub ticks: u64,
    /// Total budget, W.
    pub budget_w: f64,
    /// Σ grants ≤ budget held at every observed tick, machine-wide.
    pub invariant_ok: bool,
    /// Largest Σ grants observed, W.
    pub max_sum_grants_w: f64,
    /// FNV-1a over the per-tick machine-wide Σ-grants bits: one u64
    /// carrying the whole Σ trace, printable in a CSV cell so the soak
    /// harness can diff two runs bit-for-bit without shipping logs.
    pub sum_fingerprint: u64,
    /// Telemetry messages actually handed to a wire (batch members
    /// counted individually).
    pub telemetry_sent: u64,
    /// Service counters (summed across shards and crashes).
    pub service: ServiceStats,
    /// Σ successful client (re)connections beyond each client's first.
    pub reconnects: u64,
    /// Σ reports held back client-side (hold-last-grant ticks).
    pub held_reports: u64,
    /// Σ Busy sheds observed client-side.
    pub busy_seen: u64,
    /// Ticks from the crash until every crashed-span client held a
    /// fresh post-crash grant (`None`: no crash, or recovery incomplete
    /// at run end).
    pub recovery_ticks: Option<u64>,
    /// Client calls after which a disconnected client's held grant had
    /// changed or dropped to `None` since its link died (must be 0; see
    /// `HoldWatch`).
    pub hold_violations: u64,
    /// Per-node grant log (global node order): seq → granted watts
    /// bits. The bitwise fingerprint recovery runs are compared on.
    pub grant_log: Vec<BTreeMap<u64, u64>>,
}

impl LoadgenReport {
    /// Largest seq granted to every node (0 when some node got none).
    pub fn min_granted_seq(&self) -> u64 {
        self.grant_log
            .iter()
            .map(|m| m.keys().next_back().copied().unwrap_or(0))
            .min()
            .unwrap_or(0)
    }
}

fn mix(a: u64, b: u64) -> u64 {
    let mut z = a ^ b.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn unit(h: u64) -> f64 {
    (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

fn fnv1a_fold(h: u64, bits: u64) -> u64 {
    let mut h = h;
    for b in bits.to_le_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Synthetic telemetry, a pure function of `(seed, node, seq)` — keyed
/// by the client's own sequence, *not* wall time, so a client that
/// paused through an outage resumes producing exactly the reports the
/// uncrashed reference produced under the same seqs. `node` is always
/// the *global* id, so re-sharding never changes the workload.
pub fn synth_telemetry(seed: u64, node: u32, seq: u64) -> NodeTelemetry {
    let h = mix(seed, ((node as u64) << 32) ^ seq);
    let compute_s = 0.5 + 2.0 * unit(h);
    NodeTelemetry {
        compute_s,
        comm_s: 0.2 * unit(mix(h, 1)),
        slack_s: 0.3 * unit(mix(h, 2)),
        rate: 1.0 / compute_s,
        power_w: 60.0 + 60.0 * unit(mix(h, 3)),
    }
}

/// Server ends waiting to be "accepted" by the driver. The key is the
/// connection's conn-id: the first shard-local node its client serves.
type Registry = Arc<Mutex<Vec<(u32, PipeWire)>>>;

fn machine_config(cfg: &LoadgenConfig) -> ArbiterConfig {
    ArbiterConfig {
        budget_w: cfg.budget_per_client_w * cfg.clients as f64,
        min_cap_w: cfg.min_cap_w,
        max_cap_w: cfg.max_cap_w,
        policy: Policy::ProgressFeedback { gain: 1.0 },
    }
}

/// The snapshot file for shard `i`: the configured path untouched for a
/// single shard, `.s<i>`-suffixed otherwise.
fn shard_snapshot_path(cfg: &LoadgenConfig, i: usize) -> Option<PathBuf> {
    let base = cfg.snapshot_path.as_ref()?;
    if cfg.shards == 1 {
        Some(base.clone())
    } else {
        Some(PathBuf::from(format!("{}.s{i}", base.display())))
    }
}

fn make_shard_service(
    cfg: &LoadgenConfig,
    i: usize,
    shard_cfg: ArbiterConfig,
    k: usize,
) -> ArbiterService {
    // Tracing is observational (it never feeds back into grants); off,
    // so 100k-node runs don't pay for per-round history they never read.
    let arbiter: Box<dyn BudgetArbiter> =
        Box::new(PowerArbiter::new(shard_cfg, k).with_tracing(false));
    let svc = ArbiterService::new(arbiter, cfg.service.clone());
    match shard_snapshot_path(cfg, i) {
        Some(p) => svc.with_snapshot_path(p),
        None => svc,
    }
}

/// Build the seeded fault plan for a connection whose identity (for
/// fault purposes) is the *global* node id `global` — so moving a
/// producer between shards never re-rolls its faults.
fn fault_plan(cfg: &LoadgenConfig, global: u64, attempt: u64) -> WireFaultPlan {
    match &cfg.faults {
        None => WireFaultPlan::clean(0),
        Some(k) => {
            let mut plan = WireFaultPlan {
                seed: mix(cfg.seed, (global << 24) ^ attempt),
                drop_prob: k.drop_prob,
                dup_prob: k.dup_prob,
                delay_prob: k.delay_prob,
                max_delay_polls: k.max_delay_polls,
                partitions: Vec::new(),
            };
            if let Some((start, end, stride)) = k.partition {
                if stride > 0 && (global as usize).is_multiple_of(stride) {
                    plan = plan.partition(simnode::faults::FaultWindow::new(start, end));
                }
            }
            plan
        }
    }
}

/// The client for the shard-local span `local`, whose first producer
/// has the global id `global`. Its faults and backoff jitter are keyed
/// by that global id, so moving a producer between shards never re-rolls
/// them; a group's faults drop or duplicate the whole batch at once.
fn make_client(
    cfg: &LoadgenConfig,
    local: Range<u32>,
    global: usize,
    registry: &Registry,
) -> GrantClient {
    let registry = registry.clone();
    let plan_cfg = cfg.clone();
    let conn_id = local.start;
    let mut attempt = 0u64;
    let connector = Box::new(move || {
        attempt += 1;
        let (client_end, server_end) = PipeWire::pair();
        registry.lock().unwrap().push((conn_id, server_end));
        let plan = fault_plan(&plan_cfg, global as u64, attempt);
        Some(Box::new(FaultyWire::new(client_end, plan)) as Box<dyn Wire>)
    });
    let jitter_seed = if cfg.lockstep_backoff {
        cfg.seed
    } else {
        mix(cfg.seed, 0x00C1_1E47 ^ global as u64)
    };
    GrantClient::new(local, connector, cfg.backoff_cap, jitter_seed)
}

/// Hold-last-grant, checked from outside the client: from the moment a
/// client's link is seen down until it reconnects, its last grant must
/// stay the one it held when the link died, never changed and never
/// dropped to `None`. A hang-up in `advance`, `send_report` or
/// `heartbeat` starts an outage alike.
#[derive(Default)]
struct HoldWatch {
    /// The grant held through the current outage; `None` while up.
    held: Option<Option<f64>>,
}

impl HoldWatch {
    /// Check `c` after one call that began holding `before`; `true` when
    /// the call broke hold-last-grant. `absorbs` marks `advance`, which
    /// may take in grants before its link dies: an outage it starts may
    /// hold a newer grant than `before`, but never none instead of one.
    fn breached(&mut self, c: &GrantClient, before: Option<f64>, absorbs: bool) -> bool {
        let now = c.last_grant();
        if c.connected() {
            self.held = None;
            return false;
        }
        match self.held {
            Some(held) => held != now,
            None => {
                self.held = Some(now);
                if absorbs {
                    before.is_some() && now.is_none()
                } else {
                    before != now
                }
            }
        }
    }
}

/// Send one connection's consecutive grants as a single frame, draining
/// `run` for reuse.
fn flush_grants(conns: &mut BTreeMap<u32, PipeWire>, key: u32, run: &mut Vec<Msg>) {
    if let Some(wire) = conns.get_mut(&key) {
        send_members(wire, run).ok();
    }
    run.clear();
}

/// Run the scenario to completion.
///
/// # Panics
/// Panics when the configuration fails [`LoadgenConfig::validate`],
/// when `crash_at` is set without a `snapshot_path`, or when the
/// post-crash snapshot cannot be restored — all harness bugs, not
/// operating conditions.
pub fn run_loadgen(cfg: &LoadgenConfig) -> LoadgenReport {
    cfg.validate().unwrap_or_else(|e| panic!("{e}"));
    assert!(
        cfg.crash_at.is_none() || cfg.snapshot_path.is_some(),
        "a crash scenario needs a snapshot path to recover from"
    );
    let remove_snapshots = || {
        for i in 0..cfg.shards {
            if let Some(p) = shard_snapshot_path(cfg, i) {
                std::fs::remove_file(p).ok();
            }
        }
    };
    // A stale snapshot from a previous run must not leak into this one.
    remove_snapshots();

    let machine = machine_config(cfg);
    let mut make =
        |i: usize, shard_cfg: ArbiterConfig, k: usize| make_shard_service(cfg, i, shard_cfg, k);
    let mut sharded = ShardedService::new(
        &machine,
        cfg.clients,
        cfg.shards,
        cfg.outer_period,
        &mut make,
    );
    let spans = sharded.spans().to_vec();

    let registries: Vec<Registry> = (0..cfg.shards)
        .map(|_| Arc::new(Mutex::new(Vec::new())))
        .collect();
    // Per-shard conn table: conn-id → server wire of its latest Hello
    // (BTreeMap: deterministic iteration order, unlike HashMap).
    let mut conns: Vec<BTreeMap<u32, PipeWire>> = vec![BTreeMap::new(); cfg.shards];

    // Producers: one client per contiguous group of up to `batch` nodes
    // of a shard, next to the global ids it serves.
    let mut clients: Vec<(Range<usize>, GrantClient)> = Vec::new();
    for (shard, span) in spans.iter().enumerate() {
        for start in (0..span.len()).step_by(cfg.batch) {
            let end = (start + cfg.batch).min(span.len());
            let global = span.start + start..span.start + end;
            let local = start as u32..end as u32;
            let client = make_client(cfg, local, global.start, &registries[shard]);
            clients.push((global, client));
        }
    }

    let budget_w = machine.budget_w;
    let mut grant_log: Vec<BTreeMap<u64, u64>> = vec![BTreeMap::new(); cfg.clients];
    let mut invariant_ok = true;
    let mut max_sum = 0.0f64;
    let mut sum_fingerprint: u64 = 0xcbf2_9ce4_8422_2325;
    let mut telemetry_sent = 0u64;
    let mut pre_crash_stats = ServiceStats::default();
    let mut hold_violations = 0u64;
    let mut holds: Vec<HoldWatch> = clients.iter().map(|_| HoldWatch::default()).collect();
    let mut recovery_ticks = None;
    let mut awaiting_recovery: Vec<bool> = Vec::new();
    // Grant-run staging, kept across ticks so batch frames reuse one
    // allocation instead of re-growing from empty every tick.
    let mut grant_run: Vec<Msg> = Vec::new();

    for t in 1..=cfg.ticks {
        // kill -9 at the tick boundary: the victim shard's wires die,
        // its state lands on the floor, a fresh service adopts the
        // write-ahead snapshot. Other shards keep serving.
        if cfg.crash_at == Some(t) {
            let victims: Vec<usize> = match cfg.crash_shard {
                Some(k) => vec![k],
                None => (0..cfg.shards).collect(),
            };
            if awaiting_recovery.is_empty() {
                awaiting_recovery = vec![false; cfg.clients];
            }
            for &k in &victims {
                for (_, wire) in conns[k].iter() {
                    wire.hang_up();
                }
                for (_, wire) in registries[k].lock().unwrap().drain(..) {
                    wire.hang_up();
                }
                conns[k].clear();
                pre_crash_stats += sharded.shard(k).stats();
                let sub_budget = sharded.sub_budgets()[k];
                let fresh = make_shard_service(
                    cfg,
                    k,
                    ArbiterConfig {
                        budget_w: sub_budget,
                        ..machine
                    },
                    spans[k].len(),
                );
                assert!(
                    sharded.replace_shard(k, fresh),
                    "the write-ahead snapshot must be adoptable after a crash"
                );
                for g in spans[k].clone() {
                    awaiting_recovery[g] = true;
                }
            }
        }

        // Accept pending connections (latest Hello wins the route).
        for (shard, registry) in registries.iter().enumerate() {
            for (conn_id, wire) in registry.lock().unwrap().drain(..) {
                conns[shard].insert(conn_id, wire);
            }
        }

        // Clients: drain inbound, run reconnect state machines, then
        // produce this tick's traffic.
        for ((global, c), hold) in clients.iter_mut().zip(&mut holds) {
            let before = c.last_grant();
            c.advance();
            hold_violations += u64::from(hold.breached(c, before, true));
            let before = c.last_grant();
            if t.is_multiple_of(cfg.report_every) {
                let first = global.start as u32;
                let sent =
                    c.send_report(|member, seq| synth_telemetry(cfg.seed, first + member, seq));
                if sent.is_some() {
                    telemetry_sent += global.len() as u64;
                }
            } else {
                c.heartbeat();
            }
            hold_violations += u64::from(hold.breached(c, before, false));
        }

        // Server: ingest everything that arrived, reply in place.
        for (shard, shard_conns) in conns.iter_mut().enumerate() {
            let mut immediate: Vec<(u32, Vec<Msg>)> = Vec::new();
            for (&conn_id, wire) in shard_conns.iter_mut() {
                while let Ok(Some(msg)) = wire.poll() {
                    let replies = sharded.ingest(shard, msg);
                    if !replies.is_empty() {
                        immediate.push((conn_id, replies));
                    }
                }
            }
            for (conn_id, replies) in immediate {
                if let Some(wire) = shard_conns.get_mut(&conn_id) {
                    for r in &replies {
                        wire.send(r).ok();
                    }
                }
            }
        }

        // The arbitration tick, then grant routing + logging. Grants
        // arrive in node order, so grants sharing a connection are
        // consecutive: coalesce each run into one frame (with batch = 1
        // every run has length one — bare frames).
        let all_replies = sharded.tick();
        for (shard, replies) in all_replies.into_iter().enumerate() {
            let mut run = std::mem::take(&mut grant_run);
            let mut run_key = 0u32;
            for msg in replies {
                let Msg::Grant {
                    node, seq, watts, ..
                } = msg
                else {
                    continue;
                };
                let global = spans[shard].start + node as usize;
                if seq > 0 {
                    if cfg.record_grants {
                        grant_log[global].insert(seq, watts.to_bits());
                    }
                    if let Some(flag) = awaiting_recovery.get_mut(global) {
                        *flag = false;
                    }
                }
                // The conn-id: the first node of the node's group.
                let key = node - node % cfg.batch as u32;
                if key != run_key && !run.is_empty() {
                    flush_grants(&mut conns[shard], run_key, &mut run);
                }
                run_key = key;
                run.push(msg);
            }
            if !run.is_empty() {
                flush_grants(&mut conns[shard], run_key, &mut run);
            }
            grant_run = run;
        }

        // The headline invariant, observed from outside every tick, and
        // the Σ trace folded into one diffable fingerprint.
        let sum: f64 = sharded.sum_grants();
        max_sum = max_sum.max(sum);
        sum_fingerprint = fnv1a_fold(sum_fingerprint, sum.to_bits());
        if sum > budget_w + 1e-6 {
            invariant_ok = false;
        }

        if recovery_ticks.is_none()
            && cfg.crash_at.is_some_and(|c| t >= c)
            && !awaiting_recovery.is_empty()
            && awaiting_recovery.iter().all(|w| !w)
        {
            recovery_ticks = Some(t - cfg.crash_at.unwrap());
        }
    }

    remove_snapshots();
    let mut stats = sharded.stats();
    stats += pre_crash_stats;
    let mut client_stats = ClientStats::default();
    for (_, c) in &clients {
        client_stats += c.stats();
    }

    LoadgenReport {
        clients: cfg.clients,
        shards: cfg.shards,
        ticks: cfg.ticks,
        budget_w,
        invariant_ok: invariant_ok && sharded.max_sum_grants_w() <= budget_w + 1e-6,
        max_sum_grants_w: max_sum,
        sum_fingerprint,
        telemetry_sent,
        service: stats,
        reconnects: client_stats.connects.saturating_sub(clients.len() as u64),
        held_reports: client_stats.held,
        busy_seen: client_stats.busy,
        recovery_ticks,
        hold_violations,
        grant_log,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(clients: usize, ticks: u64) -> LoadgenConfig {
        LoadgenConfig {
            clients,
            ticks,
            service: ServiceConfig {
                snapshot_every: 0,
                ..ServiceConfig::default()
            },
            ..LoadgenConfig::default()
        }
    }

    #[test]
    fn clean_run_grants_everyone_and_conserves_budget() {
        let r = run_loadgen(&quick(16, 20));
        assert!(r.invariant_ok);
        assert!(r.max_sum_grants_w <= r.budget_w + 1e-6);
        assert!(r.min_granted_seq() >= 15, "steady traffic grants steadily");
        assert_eq!(r.reconnects, 0);
        assert_eq!(r.hold_violations, 0);
        assert!(r.telemetry_sent > 0);
    }

    #[test]
    fn same_seed_same_run_bit_for_bit() {
        let cfg = LoadgenConfig {
            faults: Some(FaultKnobs::hostile()),
            ..quick(12, 30)
        };
        let a = run_loadgen(&cfg);
        let b = run_loadgen(&cfg);
        assert_eq!(a.grant_log, b.grant_log);
        assert_eq!(a.service, b.service);
        assert_eq!(a.sum_fingerprint, b.sum_fingerprint);
        let c = run_loadgen(&LoadgenConfig { seed: 2, ..cfg });
        assert_ne!(a.grant_log, c.grant_log, "seeds must matter");
    }

    #[test]
    fn faulty_wires_still_conserve_the_budget() {
        let r = run_loadgen(&LoadgenConfig {
            faults: Some(FaultKnobs::hostile()),
            ..quick(21, 50)
        });
        assert!(r.invariant_ok);
        assert_eq!(r.hold_violations, 0);
        // The partitioned clients went silent long enough to lose their
        // leases; expiry must have reclaimed watts, not leaked them.
        assert!(r.service.leases_expired > 0, "{:?}", r.service);
        assert!(r.max_sum_grants_w <= r.budget_w + 1e-6);
    }

    #[test]
    fn invalid_scale_knobs_are_config_errors() {
        for bad in [
            LoadgenConfig {
                clients: 0,
                ..LoadgenConfig::default()
            },
            LoadgenConfig {
                shards: 0,
                ..LoadgenConfig::default()
            },
            LoadgenConfig {
                shards: 65,
                ..LoadgenConfig::default()
            },
            LoadgenConfig {
                batch: 0,
                ..LoadgenConfig::default()
            },
            LoadgenConfig {
                outer_period: 0,
                ..LoadgenConfig::default()
            },
            LoadgenConfig {
                crash_shard: Some(1),
                ..LoadgenConfig::default()
            },
        ] {
            assert!(bad.validate().is_err(), "{bad:?} must be rejected");
        }
        assert!(LoadgenConfig::default().validate().is_ok());
    }

    #[test]
    fn batched_producers_grant_bitwise_like_singletons() {
        // Same seed, same workload; the only difference is 8 producers
        // per wire sending one batched frame per tick. The server-side
        // grant log must be bit-identical.
        let base = quick(24, 20);
        let singles = run_loadgen(&base);
        let batched = run_loadgen(&LoadgenConfig { batch: 8, ..base });
        assert!(batched.invariant_ok);
        assert_eq!(
            singles.grant_log, batched.grant_log,
            "batching must not change a single grant bit"
        );
        assert_eq!(singles.sum_fingerprint, batched.sum_fingerprint);
        assert_eq!(singles.telemetry_sent, batched.telemetry_sent);
    }

    #[test]
    fn sharded_run_conserves_budget_and_reproduces() {
        let cfg = LoadgenConfig {
            shards: 4,
            batch: 4,
            outer_period: 4,
            ..quick(32, 30)
        };
        let a = run_loadgen(&cfg);
        assert!(a.invariant_ok);
        assert!(a.max_sum_grants_w <= a.budget_w + 1e-6);
        assert_eq!(a.shards, 4);
        assert!(a.min_granted_seq() >= 25, "all shards grant steadily");
        let b = run_loadgen(&cfg);
        assert_eq!(a.sum_fingerprint, b.sum_fingerprint);
        assert_eq!(a.grant_log, b.grant_log);
    }

    /// FNV-1a over the report's `Debug` rendering, which prints every
    /// `f64` in its shortest round-trip form and every grant-log entry —
    /// so equal hashes mean bit-identical reports.
    fn report_hash(r: &LoadgenReport) -> u64 {
        format!("{r:?}")
            .bytes()
            .fold(0xcbf2_9ce4_8422_2325, |h, b| {
                (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
            })
    }

    #[test]
    fn reports_are_pinned() {
        // One config per producer shape the generator drives: singleton
        // wires clean, overloaded (sheds and mutes) and hostile with a
        // crash; grouped wires over two shards with a crash of shard 1
        // (13 producers per shard in groups of 6, 6 and 1, so a trailing
        // one-member group is covered); and four clean batched shards.
        // The hashes pin every grant, counter and fingerprint bit for
        // bit: a refactor of the producers or the coordinator must not
        // move any of them.
        let snap = |tag: &str| {
            std::env::temp_dir().join(format!("arbiterd-pinned-{}-{tag}.snap", std::process::id()))
        };
        let hostile_crash = LoadgenConfig {
            faults: Some(FaultKnobs::hostile()),
            crash_at: Some(20),
            ..LoadgenConfig::default()
        };
        let cases = [
            ("clean", quick(16, 30), 0x60aa_af52_002c_0079),
            (
                "overload",
                LoadgenConfig {
                    service: ServiceConfig {
                        queue_depth: 5,
                        rate_capacity: 2.0,
                        rate_refill: 0.5,
                        snapshot_every: 0,
                        ..ServiceConfig::default()
                    },
                    ..quick(20, 30)
                },
                0x594a_3c33_f5bc_82c9,
            ),
            (
                "hostile-crash",
                LoadgenConfig {
                    clients: 21,
                    ticks: 50,
                    snapshot_path: Some(snap("hostile-crash")),
                    ..hostile_crash.clone()
                },
                0xf783_8842_8135_49a8,
            ),
            (
                "grouped-shard-crash",
                LoadgenConfig {
                    clients: 26,
                    shards: 2,
                    batch: 6,
                    ticks: 50,
                    crash_shard: Some(1),
                    snapshot_path: Some(snap("grouped-shard-crash")),
                    ..hostile_crash
                },
                0x6c95_2466_6ee4_4471,
            ),
            (
                "batched-4-shards",
                LoadgenConfig {
                    shards: 4,
                    batch: 8,
                    ..quick(40, 30)
                },
                0x08da_5a71_95dd_e81a,
            ),
        ];
        // Every case runs before the comparison, so a drift report
        // names all the configs that moved at once.
        let (got, want): (Vec<_>, Vec<_>) = cases
            .into_iter()
            .map(|(name, cfg, want)| ((name, report_hash(&run_loadgen(&cfg))), (name, want)))
            .unzip();
        assert_eq!(got, want);
    }
}
