//! `arbiterd` — the power arbiter as a crash-tolerant service.
//!
//! The in-process [`cluster::BudgetArbiter`] assumes its callers never
//! crash, never flood it, and never lie. This crate drops that
//! assumption: it wraps any boxed arbiter in a long-running daemon that
//! serves telemetry → grant streams over a framed transport and
//! survives the failure modes a real facility deployment meets —
//! client crashes, telemetry floods, lossy links, and its own `kill -9`.
//!
//! The layering keeps every robustness property deterministic and
//! testable:
//!
//! - [`proto`] — the framed wire protocol. Watts travel as raw `f64`
//!   bits so the daemon path can be *bit-identical* to the in-process
//!   arbiter.
//! - [`wire`] — transports behind one [`wire::Wire`] trait: an
//!   in-process pipe for lockstep tests, non-blocking TCP for
//!   deployment, and a seeded fault wrapper (drop/duplicate/delay/
//!   partition) for chaos runs.
//! - [`service`] — the deterministic core: bounded ingress with
//!   load-shedding, per-client token buckets, heartbeat leases that
//!   reclaim a crashed client's watts, and write-ahead snapshots.
//! - [`snapshot`] — atomic (write-temp → fsync → rename) checksummed
//!   state captures; a restarted daemon resumes with Σ grants ≤ budget
//!   intact and grants bitwise-unchanged.
//! - [`daemon`] — the threaded TCP front-end around the service:
//!   blocking readers staging into per-connection inboxes, one service
//!   lock per tick, grants batched into one frame per connection.
//! - [`sharded`] — horizontal scale-out: N shards, each owning a span
//!   of producers and a rack-style sub-budget, under a coordinator
//!   that reuses [`cluster::OuterSolver`] so the machine budget splits
//!   exactly as the in-process rack tree splits it.
//! - [`client`] — the member side: one client serves a contiguous span
//!   of node ids over one wire (a lone node in bare frames, several in
//!   one [`Msg::Batch`] per round), with hold-last-grant degradation,
//!   jittered exponential reconnect backoff and shed-hint compliance;
//!   it implements [`cluster::GrantSource`], so cluster members consume
//!   daemon grants exactly like in-process ones.
//! - [`loadgen`] — the crate's one load generator: lockstep and
//!   in-process, driving thousands of simulated producers with seeded
//!   faults and a mid-run crash/restore, reproducible bit-for-bit.

pub mod client;
pub mod daemon;
pub mod loadgen;
pub mod proto;
pub mod service;
pub mod sharded;
pub mod snapshot;
pub mod wire;

pub use client::{ClientStats, GrantClient};
pub use daemon::{Daemon, DaemonConfig};
pub use loadgen::{run_loadgen, FaultKnobs, LoadgenConfig, LoadgenReport};
pub use proto::Msg;
pub use service::{ArbiterService, ServiceConfig, ServiceStats};
pub use sharded::{shard_spans, ShardedDaemon, ShardedService};
pub use snapshot::Snapshot;
pub use wire::{FaultyWire, PipeWire, TcpWire, Wire, WireError, WireFaultPlan, WireFaultStats};
