//! The member-side grant client: timeouts, jittered backoff, and
//! hold-last-grant degradation.
//!
//! [`GrantClient`] is the bridge between cluster members and the
//! daemon: it pushes telemetry upstream for a contiguous span of
//! shard-local node ids over one wire and implements
//! [`cluster::GrantSource`], so [`cluster::ClusterNode::pull_grant`]
//! works identically whether grants come from an in-process arbiter
//! slice or over a lossy wire. Every frame it sends follows the framing
//! rule the daemon applies to grants: a lone member goes as a bare
//! message, several go as one [`Msg::Batch`]. Degradation is the design
//! center, per Cerf et al.'s assumption that the runtime outlives its
//! transport:
//!
//! - **disconnected** → the members keep the last grant seen (a stale
//!   cap is safe — the daemon froze the same value bitwise) and the
//!   client reconnects under seeded jittered exponential backoff
//!   ([`nrm::Backoff`], the same curve the resilient NRM daemon uses
//!   for actuator re-probes);
//! - **shed** ([`Msg::Busy`]) → the client honours the daemon's
//!   `retry_after` hint and mutes telemetry for the whole wire, never
//!   retries hot;
//! - **NACKed** → the offending report is dropped, not resent: the
//!   next epoch produces fresher telemetry anyway.

use std::ops::Range;

use cluster::{GrantSource, NodeTelemetry};
use nrm::Backoff;

use crate::proto::Msg;
use crate::wire::{send_members, Wire, WireError};

/// Client-side counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClientStats {
    /// Successful (re)connections, first connect included.
    pub connects: u64,
    /// Link losses observed.
    pub disconnects: u64,
    /// Member reports suppressed while muted or down (hold-last-grant
    /// ticks), counted per member.
    pub held: u64,
    /// [`Msg::Busy`] sheds honoured.
    pub busy: u64,
    /// [`Msg::Nack`] rejections observed.
    pub nacked: u64,
}

impl std::ops::AddAssign for ClientStats {
    fn add_assign(&mut self, o: Self) {
        self.connects += o.connects;
        self.disconnects += o.disconnects;
        self.held += o.held;
        self.busy += o.busy;
        self.nacked += o.nacked;
    }
}

enum Link {
    Up(Box<dyn Wire>),
    /// Waiting `retry_in` more polls before redialing.
    Down {
        /// Polls left before the next connection attempt.
        retry_in: u32,
    },
}

/// A telemetry producer / grant consumer for a span of nodes sharing
/// one wire.
pub struct GrantClient {
    /// Shard-local node ids served (at least one).
    nodes: Range<u32>,
    link: Link,
    /// Produces a fresh wire to the daemon, or `None` while the daemon
    /// is unreachable (each call is one connection attempt).
    connector: Box<dyn FnMut() -> Option<Box<dyn Wire>> + Send>,
    backoff: Backoff,
    /// Newest grant received, W; held across outages.
    last_grant: Option<f64>,
    /// Daemon tick of the newest grant.
    last_tick: u64,
    /// Telemetry sequence, shared by every member — advances only when
    /// a report is actually sent, so a recovered run's seq stream
    /// aligns with an uncrashed reference regardless of how long the
    /// outage lasted.
    seq: u64,
    /// Local poll counter (the client's clock).
    polls: u64,
    /// Busy-shed mute: no telemetry until this local poll.
    muted_until: u64,
    /// Reused member buffer for outgoing frames.
    scratch: Vec<Msg>,
    stats: ClientStats,
}

impl GrantClient {
    /// Build a client for the shard-local ids `nodes`. `connector` dials
    /// the daemon (or hands over a pre-connected test pipe);
    /// `backoff_cap` and `seed` shape the reconnect schedule.
    ///
    /// # Panics
    /// Panics when `nodes` is empty.
    pub fn new(
        nodes: Range<u32>,
        connector: Box<dyn FnMut() -> Option<Box<dyn Wire>> + Send>,
        backoff_cap: u32,
        seed: u64,
    ) -> Self {
        assert!(!nodes.is_empty(), "a grant client serves at least one node");
        let mut c = Self {
            scratch: Vec::with_capacity(nodes.len()),
            nodes,
            link: Link::Down { retry_in: 0 },
            connector,
            backoff: Backoff::new(backoff_cap, seed),
            last_grant: None,
            last_tick: 0,
            seq: 0,
            polls: 0,
            muted_until: 0,
            stats: ClientStats::default(),
        };
        c.try_connect();
        c
    }

    /// Send `member(node)` for every served node in one frame over the
    /// up link; a failed send takes the link down. Returns whether the
    /// frame went out.
    fn send_all(&mut self, member: impl FnMut(u32) -> Msg) -> bool {
        let Link::Up(wire) = &mut self.link else {
            return false;
        };
        let sent = send_each(wire.as_mut(), &self.nodes, &mut self.scratch, member).is_ok();
        if !sent {
            self.note_down();
        }
        sent
    }

    fn try_connect(&mut self) {
        match (self.connector)() {
            Some(mut wire) => {
                // Introduce ourselves; the daemon answers with the
                // current grants so the caps recover without waiting a
                // full telemetry round.
                let hello = |node| Msg::Hello { node };
                if send_each(wire.as_mut(), &self.nodes, &mut self.scratch, hello).is_ok() {
                    self.link = Link::Up(wire);
                    self.backoff.reset();
                    self.stats.connects += 1;
                    // Settle for one poll before resuming telemetry: the
                    // Hello grant gets a round trip to land, and a
                    // recovering daemon sees at most one report per
                    // control period — which keeps a recovered run's
                    // round structure aligned with an uncrashed one.
                    self.muted_until = self.polls + 1;
                } else {
                    self.note_down();
                }
            }
            None => self.note_down(),
        }
    }

    fn note_down(&mut self) {
        self.stats.disconnects += u64::from(matches!(self.link, Link::Up(_)));
        self.link = Link::Down {
            retry_in: self.backoff.record_failure(),
        };
    }

    /// One client tick: drain inbound grants, run the reconnect state
    /// machine. Call once per control period (the load generator calls
    /// it once per simulated tick).
    pub fn advance(&mut self) {
        self.polls += 1;
        if let Link::Down { retry_in } = &mut self.link {
            if *retry_in == 0 {
                self.try_connect();
            } else {
                *retry_in -= 1;
            }
            return;
        }
        while let Link::Up(wire) = &mut self.link {
            let polled = wire.poll();
            match polled {
                // A batch is its members in order — the daemon groups a
                // tick's replies per connection into one frame.
                Ok(Some(Msg::Batch(msgs))) => {
                    for m in msgs {
                        self.absorb(m);
                    }
                }
                Ok(Some(msg)) => self.absorb(msg),
                Ok(None) => break,
                Err(WireError::Disconnected) | Err(WireError::Corrupt(_)) => {
                    self.note_down();
                    break;
                }
            }
        }
    }

    fn absorb(&mut self, msg: Msg) {
        match msg {
            Msg::Grant { tick, watts, .. } => {
                self.last_grant = Some(watts);
                self.last_tick = tick;
            }
            Msg::Busy { retry_after } => {
                self.stats.busy += 1;
                // One member's shed mutes the whole wire: the daemon is
                // telling this connection to slow down.
                self.muted_until = self.polls + retry_after as u64;
            }
            Msg::Nack { .. } => {
                self.stats.nacked += 1;
            }
            // Client-only messages from a confused peer; nested batches
            // never decode off the wire.
            Msg::Hello { .. } | Msg::Heartbeat { .. } | Msg::Telemetry { .. } | Msg::Batch(_) => {}
        }
    }

    /// Offer this epoch's telemetry: `report(member, seq)` builds the
    /// report of the `member`-th served node (0-based), and every member
    /// goes under the same seq in one frame. Returns that seq, or `None`
    /// when held back (down, muted, or send failure) — the members then
    /// simply keep their current caps.
    pub fn send_report(
        &mut self,
        mut report: impl FnMut(u32, u64) -> NodeTelemetry,
    ) -> Option<u64> {
        let members = self.nodes.len() as u64;
        if self.polls < self.muted_until || !self.connected() {
            self.stats.held += members;
            return None;
        }
        let seq = self.seq + 1;
        let first = self.nodes.start;
        if self.send_all(|node| Msg::Telemetry {
            node,
            seq,
            report: report(node - first, seq),
        }) {
            self.seq = seq;
            Some(seq)
        } else {
            self.stats.held += members;
            None
        }
    }

    /// Keep the members' leases alive on an epoch without telemetry.
    pub fn heartbeat(&mut self) {
        self.send_all(|node| Msg::Heartbeat { node });
    }

    /// Whether the link is currently up.
    pub fn connected(&self) -> bool {
        matches!(self.link, Link::Up(_))
    }

    /// Newest grant received, W (held across outages).
    pub fn last_grant(&self) -> Option<f64> {
        self.last_grant
    }

    /// Daemon tick of the newest grant.
    pub fn last_grant_tick(&self) -> u64 {
        self.last_tick
    }

    /// Client counters.
    pub fn stats(&self) -> ClientStats {
        self.stats
    }
}

/// Send `member(node)` for every node of `nodes` as one frame, staging
/// the members in `scratch`.
fn send_each(
    wire: &mut dyn Wire,
    nodes: &Range<u32>,
    scratch: &mut Vec<Msg>,
    member: impl FnMut(u32) -> Msg,
) -> Result<(), WireError> {
    scratch.clear();
    scratch.extend(nodes.clone().map(member));
    send_members(wire, scratch)
}

impl GrantSource for GrantClient {
    fn poll_grant(&mut self, _node: usize) -> Option<f64> {
        self.advance();
        self.last_grant
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::Msg;
    use crate::wire::PipeWire;
    use cluster::NodeTelemetry;

    /// A connector that hands out pre-made pipes, one per call.
    fn pipe_connector(
        mut pipes: Vec<Option<PipeWire>>,
    ) -> Box<dyn FnMut() -> Option<Box<dyn Wire>> + Send> {
        pipes.reverse();
        Box::new(move || pipes.pop().flatten().map(|p| Box::new(p) as Box<dyn Wire>))
    }

    fn report() -> NodeTelemetry {
        NodeTelemetry::compute_only(1.0, 1.0, 95.0)
    }

    #[test]
    fn connects_says_hello_and_tracks_grants() {
        let (client_end, mut server_end) = PipeWire::pair();
        let mut c = GrantClient::new(3..4, pipe_connector(vec![Some(client_end)]), 32, 1);
        assert!(c.connected());
        assert_eq!(server_end.poll().unwrap(), Some(Msg::Hello { node: 3 }));

        server_end
            .send(&Msg::Grant {
                node: 3,
                seq: 0,
                tick: 7,
                watts: 88.5,
            })
            .unwrap();
        c.advance();
        assert_eq!(c.last_grant(), Some(88.5));
        assert_eq!(c.last_grant_tick(), 7);

        let seq = c.send_report(|_, _| report()).unwrap();
        assert_eq!(seq, 1);
        assert!(matches!(
            server_end.poll().unwrap(),
            Some(Msg::Telemetry {
                node: 3,
                seq: 1,
                ..
            })
        ));
    }

    #[test]
    fn holds_last_grant_and_seq_across_an_outage() {
        let (a, server_a) = PipeWire::pair();
        let (b, mut server_b) = PipeWire::pair();
        let mut c = GrantClient::new(0..1, pipe_connector(vec![Some(a), None, Some(b)]), 4, 9);
        // Deliver a grant, then kill the first pipe.
        let mut sa = server_a;
        sa.poll().unwrap(); // consume Hello
        sa.send(&Msg::Grant {
            node: 0,
            seq: 0,
            tick: 1,
            watts: 77.0,
        })
        .unwrap();
        c.advance();
        assert_eq!(c.last_grant(), Some(77.0));
        sa.hang_up();

        // The outage: grant held, telemetry suppressed, seq frozen.
        c.advance();
        assert!(!c.connected());
        assert_eq!(c.last_grant(), Some(77.0), "hold-last-grant");
        assert_eq!(c.send_report(|_, _| report()), None);
        assert!(c.stats().held >= 1);

        // Backoff eventually redials: attempt 1 fails (None), attempt 2
        // lands on the second pipe and re-Hellos.
        for _ in 0..64 {
            c.advance();
            if c.connected() {
                break;
            }
        }
        assert!(c.connected(), "client must reconnect through backoff");
        assert_eq!(server_b.poll().unwrap(), Some(Msg::Hello { node: 0 }));
        // One settle poll after the redial, then telemetry resumes.
        assert_eq!(
            c.send_report(|_, _| report()),
            None,
            "settling after redial"
        );
        c.advance();
        // Seq resumes where it left off — nothing was consumed while down.
        assert_eq!(c.send_report(|_, _| report()), Some(1));
        assert!(c.stats().connects >= 2);
        assert_eq!(c.stats().disconnects, 1);
    }

    #[test]
    fn busy_shed_mutes_telemetry_for_the_hinted_window() {
        let (client_end, mut server_end) = PipeWire::pair();
        let mut c = GrantClient::new(0..1, pipe_connector(vec![Some(client_end)]), 32, 5);
        server_end.poll().unwrap(); // Hello
        server_end.send(&Msg::Busy { retry_after: 3 }).unwrap();
        c.advance();
        assert_eq!(c.stats().busy, 1);
        assert_eq!(c.send_report(|_, _| report()), None, "muted after shed");
        c.advance();
        c.advance();
        assert_eq!(c.send_report(|_, _| report()), None, "still muted");
        c.advance();
        assert!(c.send_report(|_, _| report()).is_some(), "mute expires");
    }

    #[test]
    fn poll_grant_is_the_grant_source_bridge() {
        let (client_end, mut server_end) = PipeWire::pair();
        let mut c = GrantClient::new(2..3, pipe_connector(vec![Some(client_end)]), 32, 2);
        server_end.poll().unwrap();
        server_end
            .send(&Msg::Grant {
                node: 2,
                seq: 1,
                tick: 4,
                watts: 64.25,
            })
            .unwrap();
        let src: &mut dyn GrantSource = &mut c;
        assert_eq!(src.poll_grant(2), Some(64.25));
    }

    #[test]
    fn a_group_client_frames_its_span_as_one_batch() {
        let (a, mut server_a) = PipeWire::pair();
        let (b, mut server_b) = PipeWire::pair();
        let mut c = GrantClient::new(4..7, pipe_connector(vec![Some(a), Some(b)]), 4, 3);
        let frame = |member: fn(u32) -> Msg| Some(Msg::Batch((4..7).map(member).collect()));
        let hellos = frame(|node| Msg::Hello { node });
        assert_eq!(server_a.poll().unwrap(), hellos, "one batched Hello");
        c.advance();

        // One telemetry frame: every member under the one seq, each
        // report built from its member index.
        let seq =
            c.send_report(|j, seq| NodeTelemetry::compute_only(j as f64 + 1.0, seq as f64, 95.0));
        assert_eq!(seq, Some(1));
        let telemetry = frame(|node| Msg::Telemetry {
            node,
            seq: 1,
            report: NodeTelemetry::compute_only((node - 3) as f64, 1.0, 95.0),
        });
        assert_eq!(server_a.poll().unwrap(), telemetry);
        assert_eq!(server_a.poll().unwrap(), None, "exactly one frame");

        // A shed mutes the whole wire: each muted tick holds 3 reports.
        server_a.send(&Msg::Busy { retry_after: 2 }).unwrap();
        c.advance();
        assert_eq!(c.send_report(|_, _| report()), None);
        assert_eq!(c.stats().held, 3);
        c.advance();
        assert_eq!(c.send_report(|_, _| report()), None);
        assert_eq!(c.stats().held, 6);
        c.advance();
        assert_eq!(c.send_report(|_, _| report()), Some(2));

        // After a hang-up the redial introduces the whole span again.
        server_a.hang_up();
        for _ in 0..64 {
            c.advance();
            if c.connected() {
                break;
            }
        }
        assert!(c.connected(), "client must redial");
        assert_eq!(server_b.poll().unwrap(), hellos, "batched re-Hello");
        assert_eq!(c.stats().disconnects, 1);
    }
}
