//! `ode-router` — a shard-routing front tier for ode-net.
//!
//! An [`OdeRouter`] listens on one address speaking wire-protocol v2
//! and forwards every request to one of N backend [`crate::OdeServer`]
//! shards chosen by `shard_of(oid)` (see [`crate::ShardMap`]). Clients
//! connect to the router exactly as they would to a single server:
//! same handshake, same frames, same pipelining. The router remaps
//! sequence ids per backend connection and re-tags responses with the
//! client's original ids, so a client may keep requests to many shards
//! in flight and receive their responses in whatever order the shards
//! finish.
//!
//! ## One readiness loop
//!
//! One thread runs an `epoll` loop over the listener, every client
//! socket, and every backend socket (all nonblocking, sharing the
//! per-socket state machine in `wire` with [`crate::OdeServer`]). Each
//! client session lazily dials its own connection to each shard it
//! uses; the blocking connect + handshake runs on that shard's dialer
//! thread and the connected socket comes back to the loop. So the
//! router's thread count is fixed — the loop, the health prober, one
//! dialer per shard — however many clients are connected, and a slow
//! dial never stalls the loop or another shard.
//!
//! Backpressure is interest-based: a session whose client lets more
//! than a fixed backlog of responses pile up stops having its backend
//! sockets read, and a session with any socket that far behind stops
//! having its client read.
//!
//! ## Ordering guarantees
//!
//! Requests naming the *same object* always route to the same shard
//! and travel one backend connection in client send order, so the
//! per-connection read-your-writes guarantee of a single `OdeServer`
//! survives the tier per oid. Requests naming *different* objects may
//! land on different shards and complete in any order — there are no
//! cross-shard transactions and no cross-object ordering.
//!
//! ## Faults
//!
//! When a backend connection drops, every request in flight on it is
//! answered with [`RemoteError::Unavailable`] — the router never
//! retries, because a request that reached a dead shard has an unknown
//! outcome and a silent retry could double-execute a write. The shard
//! then enters a reconnect-with-backoff window (doubling from
//! [`RouterConfig::reconnect_backoff`] up to
//! [`RouterConfig::reconnect_backoff_max`]); requests for its objects
//! fail fast with `Unavailable` until a dial succeeds. Other shards
//! are unaffected throughout.
//!
//! ## Scatter requests
//!
//! `Ping` is answered by the router itself. `Stats`, `Objects`, and
//! `ObjectsPage` fan out to every shard and merge: stats counters sum
//! (gauges take the maximum), extent scans merge-sort by client-visible
//! id (`ObjectsPage` re-truncates to the requested limit). A scatter
//! fails as a whole if any shard is down — partial extents would be
//! silent lies.

use std::collections::HashMap;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use ode::{Oid, Vid};
use ode_codec::varint;
use parking_lot::Mutex;
use polling::{Event, Poller};

use crate::client::{ClientConfig, OdeClient};
use crate::error::RemoteError;
use crate::protocol::{kind, Opcode, Request, Response, Routing, StatsReport};
use crate::shard::ShardMap;
use crate::wire::{handshake, Outbox, Wire};

/// Router tuning knobs.
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// Dial + handshake timeout for backend connections.
    pub connect_timeout: Duration,
    /// First reconnect-backoff window after a shard connection fails;
    /// doubles per consecutive failure.
    pub reconnect_backoff: Duration,
    /// Backoff ceiling.
    pub reconnect_backoff_max: Duration,
    /// How often the health prober samples every member's epoch.
    pub probe_interval: Duration,
    /// Consecutive failed primary probes before the router drives a
    /// failover (given a live replica to promote).
    pub failover_after: u32,
    /// Route reads from sessions that have not written to a shard onto
    /// that shard's replicas (pinned by `ReadFloor` at the primary's
    /// last probed epoch). Writes always go to the primary, and a
    /// session's first write to a shard flips its reads there too.
    pub replica_reads: bool,
}

impl Default for RouterConfig {
    fn default() -> RouterConfig {
        RouterConfig {
            connect_timeout: Duration::from_secs(5),
            reconnect_backoff: Duration::from_millis(50),
            reconnect_backoff_max: Duration::from_secs(2),
            probe_interval: Duration::from_millis(150),
            failover_after: 3,
            replica_reads: true,
        }
    }
}

/// One shard's member set, as handed to
/// [`OdeRouter::bind_with_members`]: the address writes go to plus the
/// replicas tailing its WAL (possibly none).
#[derive(Debug, Clone)]
pub struct ShardMembership {
    /// The shard's current primary.
    pub primary: SocketAddr,
    /// Read-only replicas of that primary.
    pub replicas: Vec<SocketAddr>,
}

impl ShardMembership {
    /// A single-node shard (no replicas).
    pub fn solo(primary: SocketAddr) -> ShardMembership {
        ShardMembership {
            primary,
            replicas: Vec::new(),
        }
    }
}

/// One shard's live membership view, maintained by the prober.
struct MemberState {
    primary: SocketAddr,
    /// Last epoch a primary probe reported.
    primary_epoch: u64,
    /// Consecutive failed primary probes.
    primary_failures: u32,
    replicas: Vec<SocketAddr>,
    /// Last probed epoch per replica; `None` = unreachable.
    replica_epochs: Vec<Option<u64>>,
    /// Set for the promotion window: every dial to this shard fails
    /// with `Unavailable` (strictly no retry) until the new primary is
    /// installed or the attempt is abandoned.
    promoting: bool,
}

/// The router's membership table: one probed member set per shard.
struct Membership {
    shards: Vec<Mutex<MemberState>>,
    /// Round-robin cursor for spreading read connections over replicas.
    read_rr: AtomicU64,
}

impl Membership {
    fn new(members: Vec<ShardMembership>) -> Membership {
        Membership {
            shards: members
                .into_iter()
                .map(|m| {
                    let n = m.replicas.len();
                    Mutex::new(MemberState {
                        primary: m.primary,
                        primary_epoch: 0,
                        primary_failures: 0,
                        replicas: m.replicas,
                        replica_epochs: vec![None; n],
                        promoting: false,
                    })
                })
                .collect(),
            read_rr: AtomicU64::new(0),
        }
    }

    fn primary_addr(&self, shard: usize) -> SocketAddr {
        self.shards[shard].lock().primary
    }

    /// The primary's last probed epoch — the read floor pinned onto
    /// replica-read connections.
    fn primary_epoch(&self, shard: usize) -> u64 {
        self.shards[shard].lock().primary_epoch
    }

    fn promoting(&self, shard: usize) -> bool {
        self.shards[shard].lock().promoting
    }

    /// Whether any replica answered its last probe (a read connection
    /// would have somewhere to go).
    fn has_live_replica(&self, shard: usize) -> bool {
        self.shards[shard]
            .lock()
            .replica_epochs
            .iter()
            .any(Option::is_some)
    }

    /// Address for a *read* connection: a live replica round-robin,
    /// falling back to the primary when none is reachable.
    fn pick_read_addr(&self, shard: usize) -> SocketAddr {
        let ms = self.shards[shard].lock();
        let live: Vec<SocketAddr> = ms
            .replicas
            .iter()
            .zip(&ms.replica_epochs)
            .filter_map(|(a, e)| e.map(|_| *a))
            .collect();
        if live.is_empty() {
            return ms.primary;
        }
        let i = self.read_rr.fetch_add(1, Ordering::Relaxed) as usize;
        live[i % live.len()]
    }
}

/// A snapshot of the router's lifetime counters.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RouterStatsReport {
    /// Client connections accepted over the router's lifetime.
    pub client_connections: u64,
    /// Requests forwarded to a backend (scatter requests count once per
    /// shard).
    pub forwarded: u64,
    /// Requests answered by the router without touching a backend
    /// (`Ping`).
    pub answered_locally: u64,
    /// Scatter requests fanned out to every shard.
    pub gathers: u64,
    /// Successful backend dials (including reconnects).
    pub backend_connects: u64,
    /// Backend connections lost (each triggers a backoff window).
    pub shard_failures: u64,
    /// `Unavailable` error frames sent to clients.
    pub unavailable_errors: u64,
    /// Undecodable frames, from clients or backends.
    pub protocol_errors: u64,
    /// Read requests forwarded to a replica instead of a primary.
    pub replica_reads: u64,
    /// Failovers this router drove to completion (a replica promoted
    /// and installed as the shard's primary).
    pub failovers: u64,
}

#[derive(Default)]
struct RouterStats {
    client_connections: AtomicU64,
    forwarded: AtomicU64,
    answered_locally: AtomicU64,
    gathers: AtomicU64,
    backend_connects: AtomicU64,
    shard_failures: AtomicU64,
    unavailable_errors: AtomicU64,
    protocol_errors: AtomicU64,
    replica_reads: AtomicU64,
    failovers: AtomicU64,
}

impl RouterStats {
    fn report(&self) -> RouterStatsReport {
        RouterStatsReport {
            client_connections: self.client_connections.load(Ordering::Relaxed),
            forwarded: self.forwarded.load(Ordering::Relaxed),
            answered_locally: self.answered_locally.load(Ordering::Relaxed),
            gathers: self.gathers.load(Ordering::Relaxed),
            backend_connects: self.backend_connects.load(Ordering::Relaxed),
            shard_failures: self.shard_failures.load(Ordering::Relaxed),
            unavailable_errors: self.unavailable_errors.load(Ordering::Relaxed),
            protocol_errors: self.protocol_errors.load(Ordering::Relaxed),
            replica_reads: self.replica_reads.load(Ordering::Relaxed),
            failovers: self.failovers.load(Ordering::Relaxed),
        }
    }
}

/// State shared by the loop, the prober and the caller's handle.
struct RouterShared {
    membership: Membership,
    map: ShardMap,
    config: RouterConfig,
    stats: RouterStats,
    shutdown: AtomicBool,
}

/// A running shard router. See the module docs.
pub struct OdeRouter {
    addr: SocketAddr,
    shared: Arc<RouterShared>,
    poller: Arc<Poller>,
    /// The loop first: the dialers exit once it drops their queues.
    threads: Vec<JoinHandle<()>>,
}

impl OdeRouter {
    /// Bind `addr` (port 0 picks a free port) and start routing to
    /// `backends`, each a single-node shard with no replicas. The order
    /// of `backends` **is** the shard map — it must be identical on
    /// every router over the same tier.
    pub fn bind(
        addr: impl ToSocketAddrs,
        backends: Vec<SocketAddr>,
        config: RouterConfig,
    ) -> io::Result<OdeRouter> {
        let members = backends.into_iter().map(ShardMembership::solo).collect();
        OdeRouter::bind_with_members(addr, members, config)
    }

    /// [`OdeRouter::bind`] with full per-shard membership: each shard
    /// has a primary plus replicas. The router probes every member's
    /// epoch on [`RouterConfig::probe_interval`], routes replica reads
    /// behind a `ReadFloor` pin, and on
    /// [`RouterConfig::failover_after`] consecutive failed primary
    /// probes promotes the most-caught-up live replica and installs it
    /// as the shard's primary.
    pub fn bind_with_members(
        addr: impl ToSocketAddrs,
        members: Vec<ShardMembership>,
        config: RouterConfig,
    ) -> io::Result<OdeRouter> {
        if members.is_empty() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "a router needs at least one backend shard",
            ));
        }
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let poller = Arc::new(Poller::new()?);
        poller.add(&listener, Event::readable(LISTENER_KEY))?;
        let shards = members.len();
        let shared = Arc::new(RouterShared {
            membership: Membership::new(members),
            map: ShardMap::new(shards),
            config,
            stats: RouterStats::default(),
            shutdown: AtomicBool::new(false),
        });

        let (dialed_tx, dialed_rx) = mpsc::channel::<Dialed>();
        let mut dialers = Vec::with_capacity(shards);
        let mut threads = Vec::with_capacity(shards + 2);
        let mut dialer_threads = Vec::with_capacity(shards);
        for shard in 0..shards {
            let (tx, rx) = mpsc::channel::<Dial>();
            dialers.push(tx);
            let done = dialed_tx.clone();
            let poller = Arc::clone(&poller);
            let timeout = shared.config.connect_timeout;
            dialer_threads.push(
                thread::Builder::new()
                    .name(format!("ode-router-dial-{shard}"))
                    .spawn(move || dialer_loop(rx, timeout, &done, &poller))
                    .expect("spawn router dialer thread"),
            );
        }

        let ctx = Ctx {
            shared: Arc::clone(&shared),
            poller: Arc::clone(&poller),
            dialers,
            next_pnew: 0,
            scratch: Vec::new(),
        };
        threads.push(
            thread::Builder::new()
                .name("ode-router-loop".into())
                .spawn(move || router_loop(ctx, listener, dialed_rx))
                .expect("spawn router event-loop thread"),
        );
        let prober_shared = Arc::clone(&shared);
        threads.push(
            thread::Builder::new()
                .name("ode-router-prober".into())
                .spawn(move || prober_loop(&prober_shared))
                .expect("spawn router prober thread"),
        );
        threads.extend(dialer_threads);

        Ok(OdeRouter {
            addr,
            shared,
            poller,
            threads,
        })
    }

    /// One shard's current membership as the prober sees it: the
    /// primary address and its last probed epoch, then each replica
    /// with its last probed epoch (`None` = unreachable).
    pub fn shard_members(&self, shard: usize) -> (SocketAddr, u64, Vec<(SocketAddr, Option<u64>)>) {
        let ms = self.shared.membership.shards[shard].lock();
        (
            ms.primary,
            ms.primary_epoch,
            ms.replicas
                .iter()
                .copied()
                .zip(ms.replica_epochs.iter().copied())
                .collect(),
        )
    }

    /// The address the router is listening on.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shard map this router routes by.
    pub fn shard_map(&self) -> ShardMap {
        self.shared.map
    }

    /// A snapshot of the router's counters.
    pub fn stats(&self) -> RouterStatsReport {
        self.shared.stats.report()
    }

    /// Stop accepting, close every client session and its backend
    /// connections, and join all router threads.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        if self.shared.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        let _ = self.poller.notify();
        for handle in self.threads.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for OdeRouter {
    fn drop(&mut self) {
        self.stop();
    }
}

// ---------------------------------------------------------------------------
// Health probing and driven failover
// ---------------------------------------------------------------------------

/// The router's health loop: sample every member's epoch each tick,
/// and drive a failover when a primary stays dead.
fn prober_loop(shared: &RouterShared) {
    loop {
        for shard in 0..shared.map.shard_count() {
            if shared.shutdown.load(Ordering::SeqCst) {
                return;
            }
            probe_shard(shared, shard);
        }
        // Chunked sleep so shutdown is prompt.
        let deadline = Instant::now() + shared.config.probe_interval;
        while Instant::now() < deadline {
            if shared.shutdown.load(Ordering::SeqCst) {
                return;
            }
            thread::sleep(Duration::from_millis(5));
        }
    }
}

/// Dial a member and ask its applied epoch. A fresh connection per
/// probe keeps liveness honest: a wedged node fails the dial, not just
/// the request.
fn probe_epoch(addr: SocketAddr, timeout: Duration) -> Option<u64> {
    let config = ClientConfig {
        read_timeout: Some(timeout),
        write_timeout: Some(timeout),
        retry_reads: false,
    };
    let mut client = OdeClient::connect(addr, config).ok()?;
    client.epoch().ok()
}

fn probe_shard(shared: &RouterShared, shard: usize) {
    let (primary, replicas) = {
        let ms = shared.membership.shards[shard].lock();
        (ms.primary, ms.replicas.clone())
    };
    let timeout = shared.config.connect_timeout.min(Duration::from_secs(1));
    let replica_epochs: Vec<Option<u64>> = replicas
        .iter()
        .map(|&addr| probe_epoch(addr, timeout))
        .collect();
    let primary_epoch = probe_epoch(primary, timeout);
    let drive_failover = {
        let mut ms = shared.membership.shards[shard].lock();
        // Membership may have moved under us (another failover path);
        // only publish results for the set we probed.
        if ms.primary == primary && ms.replicas == replicas {
            ms.replica_epochs = replica_epochs;
            match primary_epoch {
                Some(e) => {
                    ms.primary_epoch = e;
                    ms.primary_failures = 0;
                    false
                }
                None => {
                    ms.primary_failures += 1;
                    ms.primary_failures >= shared.config.failover_after
                        && ms.replica_epochs.iter().any(Option::is_some)
                }
            }
        } else {
            false
        }
    };
    if drive_failover {
        attempt_failover(shared, shard);
    }
}

/// Promote the most-caught-up live replica and install it as the
/// shard's primary. During the promotion window every dial to the
/// shard fails `Unavailable` (strictly no retry — a request that
/// raced the old primary's death has an unknown outcome).
fn attempt_failover(shared: &RouterShared, shard: usize) {
    let (idx, addr, epoch) = {
        let mut ms = shared.membership.shards[shard].lock();
        let best = ms
            .replica_epochs
            .iter()
            .enumerate()
            .filter_map(|(i, e)| e.map(|e| (i, e)))
            .max_by_key(|&(_, e)| e);
        let Some((idx, epoch)) = best else { return };
        ms.promoting = true;
        (idx, ms.replicas[idx], epoch)
    };
    let timeout = shared.config.connect_timeout.min(Duration::from_secs(2));
    let promoted = (|| {
        let config = ClientConfig {
            read_timeout: Some(timeout),
            write_timeout: Some(timeout),
            retry_reads: false,
        };
        OdeClient::connect(addr, config)?.promote()
    })();
    let mut ms = shared.membership.shards[shard].lock();
    ms.promoting = false;
    if promoted.is_ok() && ms.replicas.get(idx) == Some(&addr) {
        let old = std::mem::replace(&mut ms.primary, addr);
        ms.replicas.remove(idx);
        ms.replica_epochs.remove(idx);
        // The dead ex-primary stays listed as a (currently unreachable)
        // replica: when it rejoins the shipping channel fences its
        // unshipped tail and it starts answering probes again.
        ms.replicas.push(old);
        ms.replica_epochs.push(None);
        ms.primary_epoch = epoch;
        ms.primary_failures = 0;
        shared.stats.failovers.fetch_add(1, Ordering::Relaxed);
    }
}

// ---------------------------------------------------------------------------
// Routing and id translation
// ---------------------------------------------------------------------------

/// What kind of scatter a fan-out request is, and how to merge it.
#[derive(Debug, Clone, Copy)]
enum GatherKind {
    Stats,
    Objects,
    Page { limit: u64 },
}

/// Where one client request goes.
enum Route {
    /// Answered by the router itself.
    Local(Response),
    /// Forwarded to one shard, request already in backend id-space.
    Single { shard: usize, backend: Request },
    /// Fanned out to every shard; carries the original (client
    /// id-space) request so per-shard variants can be derived.
    Gather { kind: GatherKind, original: Request },
}

/// A request forwarded by patching its head, `seq opcode [id] rest…`,
/// where the routing id (if any) is the first operand. Rewriting the
/// leading varints straight into a backend frame skips the full
/// decode/re-encode round trip; the patched ids are canonical varints,
/// so a shard sees exactly the bytes a re-encode would send. Checking
/// everything after the routing id is left to the shard: a malformed
/// tail comes back as the same `BadRequest` frame the router would
/// produce, because both run the same decoder.
struct Head<'a> {
    seq: u64,
    op: Opcode,
    shard: usize,
    /// The routing id in backend space (`None` for `Pnew`).
    id: Option<u64>,
    rest: &'a [u8],
}

/// Parse the head of a `Pnew` or single-id request and pick its shard;
/// `None` for requests that need the full decode (see [`route`]).
fn patch_head<'a>(payload: &'a [u8], map: ShardMap, next_pnew: &mut u64) -> Option<Head<'a>> {
    let (seq, seq_len) = varint::read_u64(payload).ok()?;
    let op = Opcode::from_u8(*payload.get(seq_len)?)?;
    let operands = &payload[seq_len + 1..];
    let (shard, id, rest) = match op.routing() {
        Routing::Decoded => return None,
        // New objects have no id yet: the router places them round
        // robin and the minted id carries the placement forever.
        Routing::Placed => {
            let shard = (*next_pnew % map.shard_count() as u64) as usize;
            *next_pnew += 1;
            (shard, None, operands)
        }
        Routing::Oid => {
            let (id, len) = varint::read_u64(operands).ok()?;
            let oid = Oid(id);
            (
                map.shard_of(oid),
                Some(map.backend_oid(oid).0),
                &operands[len..],
            )
        }
        Routing::Vid => {
            let (id, len) = varint::read_u64(operands).ok()?;
            let vid = Vid(id);
            (
                map.shard_of_vid(vid),
                Some(map.backend_vid(vid).0),
                &operands[len..],
            )
        }
    };
    Some(Head {
        seq,
        op,
        shard,
        id,
        rest,
    })
}

impl Head<'_> {
    /// The backend frame payload under backend sequence id `bseq`.
    fn write(&self, bseq: u64, out: &mut Vec<u8>) {
        varint::write_u64(out, bseq);
        out.push(self.op as u8);
        if let Some(id) = self.id {
            varint::write_u64(out, id);
        }
        out.extend_from_slice(self.rest);
    }
}

/// Decide the route of a request the head-patching fast path
/// ([`patch_head`]) does not take, translating its ids to backend
/// space. That path takes every `Pnew` and single-id request whose
/// head parses, and a head that fails to parse fails [`Request::decode`]
/// too (the same varint reader, in the same order), so those requests
/// never arrive here.
fn route(req: Request, map: ShardMap) -> Route {
    use Request as R;
    let single = |shard, backend| Route::Single { shard, backend };
    match req {
        R::Ping => Route::Local(Response::Pong),
        // Node-local requests: epochs are per shard (not comparable
        // across the tier), read floors are pinned by the router
        // itself, and promotion is the router's failover to drive.
        R::Epoch | R::ReadFloor { .. } | R::Promote => Route::Local(Response::Err(
            RemoteError::BadRequest("node-local request; connect to a node directly".into()),
        )),
        R::Stats => Route::Gather {
            kind: GatherKind::Stats,
            original: R::Stats,
        },
        R::Objects { tag } => Route::Gather {
            kind: GatherKind::Objects,
            original: R::Objects { tag },
        },
        R::ObjectsPage { tag, after, limit } => Route::Gather {
            kind: GatherKind::Page { limit },
            original: R::ObjectsPage { tag, after, limit },
        },
        R::HistoryBetween { oid, from, to } => {
            let shard = map.shard_of(oid);
            // Stamps are vid values, so the client-space range maps to
            // backend space by the same residue decomposition as ids:
            // the backend range is every backend stamp whose minted
            // client stamp falls inside [from, to].
            let s = shard as u64;
            if to < s || from > to {
                // No stamp on this shard can fall in the range.
                return Route::Local(Response::Versions(Vec::new()));
            }
            let bfrom = map.backend_cursor(Oid(from), shard).0;
            let bto = map.backend_vid(Vid(to)).0;
            single(
                shard,
                R::HistoryBetween {
                    oid: map.backend_oid(oid),
                    from: bfrom,
                    to: bto,
                },
            )
        }
        R::DiffVersions { from, to } => {
            let shard = map.shard_of_vid(from);
            if map.shard_of_vid(to) != shard {
                return Route::Local(Response::Err(RemoteError::BadRequest(
                    "diff endpoints live on different shards (different objects)".into(),
                )));
            }
            single(
                shard,
                R::DiffVersions {
                    from: map.backend_vid(from),
                    to: map.backend_vid(to),
                },
            )
        }
        R::Merge { a, b, policy } => {
            let shard = map.shard_of_vid(a);
            if map.shard_of_vid(b) != shard {
                return Route::Local(Response::Err(RemoteError::BadRequest(
                    "merge parents live on different shards (different objects)".into(),
                )));
            }
            single(
                shard,
                R::Merge {
                    a: map.backend_vid(a),
                    b: map.backend_vid(b),
                    policy,
                },
            )
        }
        other => unreachable!("{:?} takes the head-patching path", other.opcode()),
    }
}

/// The per-shard variant of a scatter request.
fn per_shard_request(original: &Request, map: ShardMap, shard: usize) -> Request {
    match original {
        Request::Stats => Request::Stats,
        Request::Objects { tag } => Request::Objects { tag: *tag },
        Request::ObjectsPage { tag, after, limit } => Request::ObjectsPage {
            tag: *tag,
            after: map.backend_cursor(*after, shard),
            limit: *limit,
        },
        other => unreachable!("{:?} is not a scatter request", other.opcode()),
    }
}

/// Rewrite every id embedded in a backend response into client space.
fn translate_response(resp: Response, map: ShardMap, shard: usize) -> Response {
    match resp {
        Response::Created { oid, vid } => Response::Created {
            oid: map.client_oid(oid, shard),
            vid: map.client_vid(vid, shard),
        },
        Response::Version(vid) => Response::Version(map.client_vid(vid, shard)),
        Response::Body { vid, bytes } => Response::Body {
            vid: map.client_vid(vid, shard),
            bytes,
        },
        Response::MaybeVersion(v) => Response::MaybeVersion(v.map(|v| map.client_vid(v, shard))),
        Response::Versions(vs) => {
            Response::Versions(vs.into_iter().map(|v| map.client_vid(v, shard)).collect())
        }
        Response::Objects(os) => {
            Response::Objects(os.into_iter().map(|o| map.client_oid(o, shard)).collect())
        }
        Response::Object(oid) => Response::Object(map.client_oid(oid, shard)),
        Response::Diff(d) => Response::Diff(crate::protocol::DiffSummary {
            from: map.client_vid(d.from, shard),
            to: map.client_vid(d.to, shard),
            ..d
        }),
        // Conflict ranges are byte offsets in the merge base — shard
        // agnostic; only the new version id needs remapping.
        Response::Merged { vid, conflicts } => Response::Merged {
            vid: vid.map(|v| map.client_vid(v, shard)),
            conflicts,
        },
        Response::Err(e) => Response::Err(match e {
            RemoteError::UnknownObject(oid) => {
                RemoteError::UnknownObject(map.client_oid(oid, shard))
            }
            RemoteError::UnknownVersion(vid) => {
                RemoteError::UnknownVersion(map.client_vid(vid, shard))
            }
            RemoteError::LastVersion(vid) => RemoteError::LastVersion(map.client_vid(vid, shard)),
            other => other,
        }),
        other => other, // Pong, Stats, Unit, Count, Flag: no ids
    }
}

/// Re-tag a backend response payload with the client's sequence id
/// without a full decode. Covers the shapes whose only embedded id is
/// a single leading varint (or none at all): the id is patched, every
/// byte after it is copied verbatim. The patched varints are canonical
/// either way, so the frame is byte-for-byte what decode + translate +
/// re-encode would produce. Returns `None` for richer shapes (and
/// garbage), which take the slow path.
fn retag_response(
    payload: &[u8],
    after_seq: usize,
    client_seq: u64,
    map: ShardMap,
    shard: usize,
    out: &mut Vec<u8>,
) -> Option<()> {
    let k = *payload.get(after_seq)?;
    let body = &payload[after_seq + 1..];
    out.clear();
    varint::write_u64(out, client_seq);
    out.push(k);
    match k {
        // No ids at all (COUNT's varint is a count, FLAG's byte a bool).
        kind::PONG | kind::UNIT | kind::COUNT | kind::FLAG => {
            out.extend_from_slice(body);
        }
        kind::VERSION | kind::BODY => {
            let (vid, len) = varint::read_u64(body).ok()?;
            varint::write_u64(out, map.client_vid(Vid(vid), shard).0);
            out.extend_from_slice(&body[len..]);
        }
        kind::OBJECT => {
            let (oid, len) = varint::read_u64(body).ok()?;
            varint::write_u64(out, map.client_oid(Oid(oid), shard).0);
            out.extend_from_slice(&body[len..]);
        }
        _ => return None, // Created, lists, errors, stats: slow path
    }
    Some(())
}

/// Fold per-shard stats reports into one tier-wide report: counters
/// sum, gauges take the maximum.
fn merge_stats(parts: Vec<StatsReport>) -> StatsReport {
    let mut merged = StatsReport::default();
    let mut per_op = [0u64; crate::protocol::OPCODE_COUNT];
    for part in parts {
        merged.active_connections += part.active_connections;
        merged.total_connections += part.total_connections;
        merged.bytes_in += part.bytes_in;
        merged.bytes_out += part.bytes_out;
        merged.protocol_errors += part.protocol_errors;
        merged.op_errors += part.op_errors;
        merged.snapshot_hits += part.snapshot_hits;
        merged.snapshot_misses += part.snapshot_misses;
        merged.slow_client_evictions += part.slow_client_evictions;
        merged.materialize_hits += part.materialize_hits;
        merged.materialize_misses += part.materialize_misses;
        merged.storage.read_txs += part.storage.read_txs;
        merged.storage.write_txs += part.storage.write_txs;
        merged.storage.reader_waits += part.storage.reader_waits;
        merged.storage.reader_wait_nanos += part.storage.reader_wait_nanos;
        merged.storage.writer_waits += part.storage.writer_waits;
        merged.storage.writer_wait_nanos += part.storage.writer_wait_nanos;
        merged.storage.wal_syncs += part.storage.wal_syncs;
        merged.storage.group_syncs += part.storage.group_syncs;
        merged.storage.group_commit_txns += part.storage.group_commit_txns;
        merged.storage.bytes_shipped += part.storage.bytes_shipped;
        merged.storage.failovers += part.storage.failovers;
        merged.storage.write_conflicts += part.storage.write_conflicts;
        merged.storage.write_retries += part.storage.write_retries;
        // Gauges take a max, not a sum: the largest cohort any one
        // shard saw, and the worst replica lag.
        merged.storage.group_batch_max = merged
            .storage
            .group_batch_max
            .max(part.storage.group_batch_max);
        merged.storage.replica_lag_epochs = merged
            .storage
            .replica_lag_epochs
            .max(part.storage.replica_lag_epochs);
        for (op, n) in part.requests {
            per_op[op as usize] += n;
        }
    }
    merged.requests = Opcode::ALL
        .iter()
        .filter_map(|&op| {
            let n = per_op[op as usize];
            (n != 0).then_some((op, n))
        })
        .collect();
    merged
}

/// Merge per-shard extent scans (already translated to client ids,
/// each ascending) into one ascending list.
fn merge_objects(parts: Vec<Vec<Oid>>, limit: Option<u64>) -> Vec<Oid> {
    let mut all: Vec<Oid> = parts.into_iter().flatten().collect();
    all.sort_unstable_by_key(|o| o.0);
    if let Some(limit) = limit {
        all.truncate(limit as usize);
    }
    all
}

// ---------------------------------------------------------------------------
// Scatters
// ---------------------------------------------------------------------------

/// One in-flight scatter: per-shard parts accumulate until every shard
/// has answered (or failed), then the merged response ships exactly
/// once.
struct Gather {
    client_seq: u64,
    kind: GatherKind,
    parts: Vec<Option<Response>>,
    remaining: usize,
    error: Option<RemoteError>,
    done: bool,
}

impl Gather {
    fn new(client_seq: u64, kind: GatherKind, shards: usize) -> Gather {
        Gather {
            client_seq,
            kind,
            parts: (0..shards).map(|_| None).collect(),
            remaining: shards,
            error: None,
            done: false,
        }
    }

    /// Record one shard's outcome; returns the merged response when
    /// this was the last part.
    fn complete_part(
        &mut self,
        shard: usize,
        part: Result<Response, RemoteError>,
    ) -> Option<Response> {
        if self.done {
            return None;
        }
        match part {
            Ok(Response::Err(e)) | Err(e) => {
                if self.error.is_none() {
                    self.error = Some(e);
                }
            }
            Ok(resp) => self.parts[shard] = Some(resp),
        }
        self.remaining -= 1;
        if self.remaining > 0 {
            return None;
        }
        self.done = true;
        if let Some(e) = self.error.take() {
            return Some(Response::Err(e));
        }
        Some(self.merge())
    }

    fn merge(&mut self) -> Response {
        let parts: Vec<Response> = self.parts.iter_mut().map(|p| p.take().unwrap()).collect();
        match self.kind {
            GatherKind::Stats => {
                let mut reports = Vec::with_capacity(parts.len());
                for p in parts {
                    match p {
                        Response::Stats(r) => reports.push(r),
                        other => {
                            return Response::Err(RemoteError::Unavailable(format!(
                                "shard returned a {} response to a stats scatter",
                                other.kind_name()
                            )))
                        }
                    }
                }
                Response::Stats(merge_stats(reports))
            }
            GatherKind::Objects | GatherKind::Page { .. } => {
                let mut lists = Vec::with_capacity(parts.len());
                for p in parts {
                    match p {
                        Response::Objects(oids) => lists.push(oids),
                        other => {
                            return Response::Err(RemoteError::Unavailable(format!(
                                "shard returned a {} response to an extent scatter",
                                other.kind_name()
                            )))
                        }
                    }
                }
                let limit = match self.kind {
                    GatherKind::Page { limit } => Some(limit),
                    _ => None,
                };
                Response::Objects(merge_objects(lists, limit))
            }
        }
    }
}

// ---------------------------------------------------------------------------
// The event loop and its sessions
// ---------------------------------------------------------------------------

/// The listener's poller key. Session `sid` (numbered from 1) owns the
/// `stride` keys from `sid * stride`: its client socket, then one per
/// slot.
const LISTENER_KEY: usize = 0;

/// Backlog (bytes) past which a socket counts as jammed: a session
/// whose client owes more stops having its backend sockets read, and a
/// session with any socket this far behind stops having its client
/// read.
const BACKLOG_CAP: usize = 1 << 20;

/// What a backend owes for one forwarded sequence id.
enum Pending {
    /// A single-shard request: answer the client under this seq.
    Single { client_seq: u64 },
    /// One part of the session's scatter with this id.
    Part(u64),
    /// Router-internal bookkeeping (the `ReadFloor` pin sent when a
    /// replica-read connection opens): the response is swallowed.
    Internal,
}

/// Where one session's connection to one shard stands.
enum Link {
    /// No connection; the next request dials (outside a backoff
    /// window).
    Down,
    /// The shard's dialer is connecting; frames queue until the socket
    /// comes back.
    Dialing(Outbox),
    Up(Wire),
}

/// One session's lazily dialed connection to one shard.
struct Slot {
    link: Link,
    /// Next backend sequence id. Never reset across reconnects, so a
    /// bseq is unique for the session's lifetime.
    next_bseq: u64,
    /// Requests queued or sent to this backend and not yet answered.
    /// Whichever path removes an entry answers the client, so each
    /// client seq is answered exactly once.
    pending: HashMap<u64, Pending>,
    /// Consecutive connection failures (doubles the backoff).
    failures: u32,
    /// No dial is attempted before this instant.
    down_until: Option<Instant>,
}

impl Slot {
    fn outbox(&mut self) -> Option<&mut Outbox> {
        match &mut self.link {
            Link::Down => None,
            Link::Dialing(out) => Some(out),
            Link::Up(wire) => Some(&mut wire.out),
        }
    }

    fn backlog(&self) -> usize {
        match &self.link {
            Link::Down => 0,
            Link::Dialing(out) => out.backlog(),
            Link::Up(wire) => wire.out.backlog(),
        }
    }
}

/// A dial for one session's slot, queued to the shard's dialer.
struct Dial {
    session: usize,
    slot: usize,
    addr: SocketAddr,
}

/// A finished dial on its way back to the loop.
struct Dialed {
    session: usize,
    slot: usize,
    result: crate::Result<TcpStream>,
}

/// One shard's dialer: connect and handshake each queued dial off the
/// loop, then hand the socket back and wake the loop.
fn dialer_loop(
    jobs: mpsc::Receiver<Dial>,
    timeout: Duration,
    done: &mpsc::Sender<Dialed>,
    poller: &Poller,
) {
    for Dial {
        session,
        slot,
        addr,
    } in jobs
    {
        let result = dial(addr, timeout);
        if done
            .send(Dialed {
                session,
                slot,
                result,
            })
            .is_err()
        {
            return; // the loop is gone
        }
        let _ = poller.notify();
    }
}

/// Connect and handshake, each step bounded by `timeout` so a wedged
/// backend can't hold the dialer.
fn dial(addr: SocketAddr, timeout: Duration) -> crate::Result<TcpStream> {
    let stream = TcpStream::connect_timeout(&addr, timeout)?;
    stream.set_read_timeout(Some(timeout))?;
    stream.set_write_timeout(Some(timeout))?;
    handshake(&stream)?;
    Ok(stream)
}

/// The doubling reconnect backoff after `failures` consecutive
/// failures.
fn backoff(config: &RouterConfig, failures: u32) -> Duration {
    let exp = failures.saturating_sub(1).min(16);
    config
        .reconnect_backoff
        .saturating_mul(1u32 << exp)
        .min(config.reconnect_backoff_max)
}

/// What the loop owns besides its sessions.
struct Ctx {
    shared: Arc<RouterShared>,
    poller: Arc<Poller>,
    /// One queue per shard, to that shard's dialer thread.
    dialers: Vec<mpsc::Sender<Dial>>,
    /// Round-robin cursor for `Pnew` placement.
    next_pnew: u64,
    /// Reused to build one backend frame.
    scratch: Vec<u8>,
}

/// The router's readiness loop: accept clients, read and write every
/// client and backend socket, install finished dials, and pump each
/// session touched by any of it.
fn router_loop(mut ctx: Ctx, listener: TcpListener, dialed: mpsc::Receiver<Dialed>) {
    let stride = 2 * ctx.shared.map.shard_count() + 1;
    let mut sessions: HashMap<usize, Session> = HashMap::new();
    let mut next_sid = 1;
    let mut events = Vec::new();
    let mut scratch = vec![0u8; 64 << 10];
    // Sessions touched this wakeup, pumped once at the end so a burst
    // of readiness costs one flush per socket.
    let mut touched: Vec<usize> = Vec::new();
    loop {
        if ctx.poller.wait(&mut events, None).is_err() || ctx.shared.shutdown.load(Ordering::SeqCst)
        {
            break;
        }
        touched.clear();
        for ev in &events {
            if ev.key == LISTENER_KEY {
                accept_ready(&ctx, &listener, &mut sessions, &mut next_sid, stride);
                continue;
            }
            let (sid, code) = (ev.key / stride, ev.key % stride);
            let Some(session) = sessions.get_mut(&sid) else {
                continue; // closed earlier this round
            };
            // Readable without read interest means hang-up or error:
            // reading then just collects the EOF.
            if ev.readable {
                let wire = match code {
                    0 => Some(&mut session.client),
                    _ => match &mut session.slots[code - 1].link {
                        Link::Up(wire) => Some(wire),
                        _ => None,
                    },
                };
                if wire.is_some_and(|wire| !wire.fill(&mut scratch)) {
                    ctx.shared
                        .stats
                        .protocol_errors
                        .fetch_add(1, Ordering::Relaxed);
                }
            }
            if !touched.contains(&sid) {
                touched.push(sid);
            }
        }
        while let Ok(done) = dialed.try_recv() {
            // A session closed mid-dial drops the socket here.
            let Some(session) = sessions.get_mut(&done.session) else {
                continue;
            };
            let key = done.session * stride + 1 + done.slot;
            session.connected(&ctx, key, done.slot, done.result);
            if !touched.contains(&done.session) {
                touched.push(done.session);
            }
        }
        for &sid in &touched {
            let Some(session) = sessions.get_mut(&sid) else {
                continue;
            };
            if session.pump(&mut ctx, sid).is_err() {
                let mut session = sessions.remove(&sid).expect("session present");
                session.client.flush();
                session.close(&ctx.poller);
            }
        }
    }
    for (_, session) in sessions.drain() {
        session.close(&ctx.poller);
    }
    // `ctx` drops its dialer queues here: the dialers exit.
}

fn accept_ready(
    ctx: &Ctx,
    listener: &TcpListener,
    sessions: &mut HashMap<usize, Session>,
    next_sid: &mut usize,
    stride: usize,
) {
    // WouldBlock, or a transient failure (ECONNABORTED, EMFILE): leave
    // the rest for the next readiness report.
    while let Ok((stream, _)) = listener.accept() {
        ctx.shared
            .stats
            .client_connections
            .fetch_add(1, Ordering::Relaxed);
        let sid = *next_sid;
        *next_sid += 1;
        if let Ok(client) = Wire::open(stream, sid * stride, &ctx.poller, false, Outbox::default())
        {
            sessions.insert(sid, Session::new(client, ctx.shared.map.shard_count()));
        }
    }
}

/// One client connection and its backend connections.
///
/// Slots come in two banks of `shard_count` each: slot `s` is the
/// session's *write* connection to shard `s`'s primary, slot
/// `shard_count + s` its *read* connection (a replica when one is
/// live, pinned by `ReadFloor`; otherwise the primary again).
struct Session {
    client: Wire,
    slots: Vec<Slot>,
    /// Set once the session has written to a shard: its reads flip to
    /// the primary bank forever (read-your-writes without cross-node
    /// epoch bookkeeping).
    wrote: Vec<bool>,
    /// Scatters still waiting on parts, by id.
    gathers: HashMap<u64, Gather>,
    next_gather: u64,
}

impl Session {
    fn new(client: Wire, shards: usize) -> Session {
        Session {
            client,
            slots: (0..shards * 2)
                .map(|_| Slot {
                    link: Link::Down,
                    next_bseq: 0,
                    pending: HashMap::new(),
                    failures: 0,
                    down_until: None,
                })
                .collect(),
            wrote: vec![false; shards],
            gathers: HashMap::new(),
            next_gather: 0,
        }
    }

    /// Advance the session: answer what the backends sent, route what
    /// the client sent, flush, and re-arm. `Err` means the session is
    /// over and must be closed.
    fn pump(&mut self, ctx: &mut Ctx, sid: usize) -> Result<(), ()> {
        let shards = ctx.shared.map.shard_count();
        for i in 0..self.slots.len() {
            if let Some(why) = self.read_responses(ctx, i) {
                let msg = format!("shard {}: {why}; request not retried", i % shards);
                self.fail_slot(ctx, i, msg);
            }
        }
        if !self.read_requests(ctx, sid) {
            ctx.shared
                .stats
                .protocol_errors
                .fetch_add(1, Ordering::Relaxed);
            return Err(());
        }
        self.client.flush();
        let drain_backends = self.client.out.backlog() <= BACKLOG_CAP;
        for i in 0..self.slots.len() {
            let Link::Up(wire) = &mut self.slots[i].link else {
                continue;
            };
            wire.flush();
            let why = if wire.out.dead {
                "write to shard failed"
            } else if wire.arm(&ctx.poller, drain_backends).is_err() {
                "poller registration failed"
            } else {
                continue;
            };
            let msg = format!("shard {}: {why}; request not retried", i % shards);
            self.fail_slot(ctx, i, msg);
        }
        // Failed slots may have queued answers.
        self.client.flush();

        if self.client.out.dead {
            return Err(()); // the client is gone
        }
        // The client hung up and everything it sent has been answered.
        if self.client.peer_closed
            && self.client.out.backlog() == 0
            && self.slots.iter().all(|s| s.pending.is_empty())
        {
            return Err(());
        }
        let read = !self.client.peer_closed && !self.jammed();
        self.client.arm(&ctx.poller, read).map_err(|_| ())
    }

    /// Whether any socket of the session is over the backlog cap.
    fn jammed(&self) -> bool {
        self.client.out.backlog() > BACKLOG_CAP
            || self.slots.iter().any(|s| s.backlog() > BACKLOG_CAP)
    }

    /// Route every complete client frame while nothing is jammed; the
    /// rest stays buffered. False on a frame-level protocol error,
    /// after which the stream cannot be resynchronized.
    fn read_requests(&mut self, ctx: &mut Ctx, sid: usize) -> bool {
        let mut rbuf = std::mem::take(&mut self.client.rbuf);
        let ok = loop {
            if self.jammed() {
                break true;
            }
            match rbuf.next_frame() {
                Ok(Some(payload)) => self.request(ctx, sid, payload),
                Ok(None) => break true,
                Err(_) => break false,
            }
        };
        self.client.rbuf = rbuf;
        ok
    }

    /// Route one client frame.
    fn request(&mut self, ctx: &mut Ctx, sid: usize, payload: &[u8]) {
        let map = ctx.shared.map;
        if let Some(head) = patch_head(payload, map, &mut ctx.next_pnew) {
            let slot = self.pick_slot(&ctx.shared, head.shard, head.op.is_read());
            let pending = Pending::Single {
                client_seq: head.seq,
            };
            self.forward(ctx, sid, slot, pending, |bseq, out| head.write(bseq, out));
            return;
        }
        let stats = &ctx.shared.stats;
        let (seq, request) = match Request::decode(payload) {
            Ok(decoded) => decoded,
            Err(e) => {
                // Well-delimited frame, bad payload: the stream is
                // still in sync, report and continue (server behavior).
                stats.protocol_errors.fetch_add(1, Ordering::Relaxed);
                let seq = Request::decode_seq(payload).unwrap_or(0);
                let response = Response::Err(RemoteError::BadRequest(e.to_string()));
                self.reply(stats, seq, &response);
                return;
            }
        };
        match route(request, map) {
            Route::Local(response) => {
                stats.answered_locally.fetch_add(1, Ordering::Relaxed);
                self.reply(stats, seq, &response);
            }
            Route::Single { shard, backend } => {
                let slot = self.pick_slot(&ctx.shared, shard, backend.is_read());
                let pending = Pending::Single { client_seq: seq };
                self.forward(ctx, sid, slot, pending, |bseq, out| {
                    *out = backend.encode(bseq)
                });
            }
            Route::Gather { kind, original } => {
                stats.gathers.fetch_add(1, Ordering::Relaxed);
                let shards = map.shard_count();
                let id = self.next_gather;
                self.next_gather += 1;
                self.gathers.insert(id, Gather::new(seq, kind, shards));
                // Scatters always hit the primary bank: a merged extent
                // or stats report must not mix replica lag in.
                for shard in 0..shards {
                    let backend = per_shard_request(&original, map, shard);
                    self.forward(ctx, sid, shard, Pending::Part(id), |bseq, out| {
                        *out = backend.encode(bseq)
                    });
                }
            }
        }
    }

    /// Which slot a request for `shard` should ride.
    fn pick_slot(&mut self, shared: &RouterShared, shard: usize, is_read: bool) -> usize {
        if is_read
            && shared.config.replica_reads
            && !self.wrote[shard]
            && shared.membership.has_live_replica(shard)
        {
            shared.map.shard_count() + shard
        } else {
            if !is_read {
                self.wrote[shard] = true;
            }
            shard
        }
    }

    /// Queue one request on a slot's connection, dialing it first if it
    /// is down. `build` writes the backend frame payload once the
    /// backend sequence id is known. A shard that can't take the
    /// request has `pending` answered `Unavailable` at once.
    fn forward(
        &mut self,
        ctx: &mut Ctx,
        sid: usize,
        slot_idx: usize,
        pending: Pending,
        build: impl FnOnce(u64, &mut Vec<u8>),
    ) {
        let shards = ctx.shared.map.shard_count();
        if matches!(self.slots[slot_idx].link, Link::Down) {
            if let Err(msg) = self.dial(ctx, sid, slot_idx) {
                let err = Err(RemoteError::Unavailable(msg));
                self.settle(&ctx.shared.stats, slot_idx % shards, pending, err);
                return;
            }
        }
        let slot = &mut self.slots[slot_idx];
        let bseq = slot.next_bseq;
        slot.next_bseq += 1;
        slot.pending.insert(bseq, pending);
        ctx.scratch.clear();
        build(bseq, &mut ctx.scratch);
        slot.outbox()
            .expect("a dialing or live slot")
            .queue(&ctx.scratch);
        let stats = &ctx.shared.stats;
        stats.forwarded.fetch_add(1, Ordering::Relaxed);
        if slot_idx >= shards {
            stats.replica_reads.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Hand a down slot to its shard's dialer; until the socket comes
    /// back, frames for it queue in the slot.
    ///
    /// The address comes from the shard's *current* membership: primary
    /// bank slots dial the primary, read bank slots a live replica (or
    /// the primary when none is up). A read-bank connection is pinned
    /// with a `ReadFloor` at the primary's last probed epoch before
    /// anything else rides it, so the replica can never answer from
    /// state older than the primary state the router has already
    /// observed.
    fn dial(&mut self, ctx: &Ctx, sid: usize, slot_idx: usize) -> Result<(), String> {
        let shared = &*ctx.shared;
        let shards = shared.map.shard_count();
        let shard = slot_idx % shards;
        let slot = &mut self.slots[slot_idx];
        if slot.down_until.is_some_and(|until| Instant::now() < until) {
            return Err(format!("shard {shard} is in its reconnect-backoff window"));
        }
        if shared.membership.promoting(shard) {
            // The promotion window: strictly no retry, the request's
            // outcome on the dying primary is unknown.
            return Err(format!("shard {shard} is failing over"));
        }
        let read_bank = slot_idx >= shards;
        let addr = if read_bank {
            shared.membership.pick_read_addr(shard)
        } else {
            shared.membership.primary_addr(shard)
        };
        let job = Dial {
            session: sid,
            slot: slot_idx,
            addr,
        };
        if ctx.dialers[shard].send(job).is_err() {
            return Err(format!("shard {shard}: the router is shutting down"));
        }
        let mut out = Outbox::default();
        let floor = shared.membership.primary_epoch(shard);
        if read_bank && floor > 0 {
            let bseq = slot.next_bseq;
            slot.next_bseq += 1;
            slot.pending.insert(bseq, Pending::Internal);
            out.queue(&Request::ReadFloor { epoch: floor }.encode(bseq));
        }
        slot.link = Link::Dialing(out);
        Ok(())
    }

    /// Install a finished dial under poller key `key`: the queued frames
    /// start flowing, or everything that waited on the dial fails.
    fn connected(
        &mut self,
        ctx: &Ctx,
        key: usize,
        slot_idx: usize,
        result: crate::Result<TcpStream>,
    ) {
        let slot = &mut self.slots[slot_idx];
        let Link::Dialing(out) = std::mem::replace(&mut slot.link, Link::Down) else {
            return; // a dial result nothing waits for
        };
        let wire = result.and_then(|stream| Ok(Wire::open(stream, key, &ctx.poller, true, out)?));
        match wire {
            Ok(wire) => {
                slot.link = Link::Up(wire);
                slot.failures = 0;
                slot.down_until = None;
                ctx.shared
                    .stats
                    .backend_connects
                    .fetch_add(1, Ordering::Relaxed);
            }
            Err(e) => {
                let shard = slot_idx % ctx.shared.map.shard_count();
                self.fail_slot(ctx, slot_idx, format!("shard {shard} is unreachable: {e}"));
            }
        }
    }

    /// Tear down one slot's connection, start its backoff clock, and
    /// answer everything pending on it with `Unavailable(msg)`.
    fn fail_slot(&mut self, ctx: &Ctx, slot_idx: usize, msg: String) {
        let shared = &*ctx.shared;
        let slot = &mut self.slots[slot_idx];
        if let Link::Up(wire) = std::mem::replace(&mut slot.link, Link::Down) {
            wire.close(&ctx.poller);
        }
        slot.failures += 1;
        slot.down_until = Some(Instant::now() + backoff(&shared.config, slot.failures));
        shared.stats.shard_failures.fetch_add(1, Ordering::Relaxed);
        let drained: Vec<Pending> = slot.pending.drain().map(|(_, p)| p).collect();
        let shard = slot_idx % shared.map.shard_count();
        for pending in drained {
            let err = Err(RemoteError::Unavailable(msg.clone()));
            self.settle(&shared.stats, shard, pending, err);
        }
    }

    /// Answer every complete frame a slot's backend has sent. Returns
    /// why the connection must be torn down, if it must.
    fn read_responses(&mut self, ctx: &mut Ctx, slot_idx: usize) -> Option<&'static str> {
        let Link::Up(wire) = &mut self.slots[slot_idx].link else {
            return None;
        };
        let closed = wire.peer_closed;
        let mut rbuf = std::mem::take(&mut wire.rbuf);
        let fault = loop {
            match rbuf.next_frame() {
                Ok(Some(payload)) => {
                    if let Err(why) = self.response(ctx, slot_idx, payload) {
                        break Some(why);
                    }
                }
                Ok(None) => break closed.then_some("connection lost"),
                Err(_) => {
                    // A backend framing its stream wrong can't be
                    // trusted for anything in flight: kill the
                    // connection, which answers every pending request.
                    ctx.shared
                        .stats
                        .protocol_errors
                        .fetch_add(1, Ordering::Relaxed);
                    break Some(UNDECODABLE);
                }
            }
        };
        if let Link::Up(wire) = &mut self.slots[slot_idx].link {
            wire.rbuf = rbuf;
        }
        fault
    }

    /// Correlate one backend frame with its pending entry, translate
    /// ids, and answer the client. `Err` means the connection can no
    /// longer be trusted.
    fn response(
        &mut self,
        ctx: &mut Ctx,
        slot_idx: usize,
        payload: &[u8],
    ) -> Result<(), &'static str> {
        let stats = &ctx.shared.stats;
        let map = ctx.shared.map;
        let shard = slot_idx % map.shard_count();
        let Ok((bseq, bseq_len)) = varint::read_u64(payload) else {
            stats.protocol_errors.fetch_add(1, Ordering::Relaxed);
            return Err(UNDECODABLE);
        };
        let pending = match self.slots[slot_idx].pending.remove(&bseq) {
            Some(Pending::Internal) => return Ok(()), // the `ReadFloor` pin's ack
            Some(pending) => pending,
            None => {
                // A response nothing asked for; ignoring it would leave
                // the correlation state suspect, so treat as a fault.
                stats.protocol_errors.fetch_add(1, Ordering::Relaxed);
                return Err("response with unknown sequence id");
            }
        };
        // Single-id shapes re-tag in place, without a decode.
        if let Pending::Single { client_seq } = pending {
            if retag_response(payload, bseq_len, client_seq, map, shard, &mut ctx.scratch).is_some()
            {
                self.client.out.queue(&ctx.scratch);
                return Ok(());
            }
        }
        match Response::decode(payload) {
            Ok((_, response)) => {
                let response = translate_response(response, map, shard);
                self.settle(stats, shard, pending, Ok(response));
                Ok(())
            }
            Err(_) => {
                // The pending entry is already removed, so this frame
                // owns its answer: the same `Unavailable` the failure
                // path gives everything else in flight.
                stats.protocol_errors.fetch_add(1, Ordering::Relaxed);
                let msg = format!("shard {shard}: {UNDECODABLE}; request not retried");
                self.settle(stats, shard, pending, Err(RemoteError::Unavailable(msg)));
                Err(UNDECODABLE)
            }
        }
    }

    /// Deliver one backend outcome to whoever `pending` says is owed it.
    fn settle(
        &mut self,
        stats: &RouterStats,
        shard: usize,
        pending: Pending,
        outcome: Result<Response, RemoteError>,
    ) {
        match pending {
            Pending::Internal => {}
            Pending::Single { client_seq } => {
                self.reply(stats, client_seq, &outcome.unwrap_or_else(Response::Err));
            }
            Pending::Part(id) => {
                let Some(gather) = self.gathers.get_mut(&id) else {
                    return;
                };
                if let Some(merged) = gather.complete_part(shard, outcome) {
                    let seq = gather.client_seq;
                    self.gathers.remove(&id);
                    self.reply(stats, seq, &merged);
                }
            }
        }
    }

    /// Queue one response frame to the client.
    fn reply(&mut self, stats: &RouterStats, seq: u64, response: &Response) {
        if matches!(response, Response::Err(RemoteError::Unavailable(_))) {
            stats.unavailable_errors.fetch_add(1, Ordering::Relaxed);
        }
        self.client.out.queue(&response.encode(seq));
    }

    /// Close the client socket and every backend connection. Dials still
    /// in flight come back to no session and are dropped.
    fn close(self, poller: &Poller) {
        self.client.close(poller);
        for slot in self.slots {
            if let Link::Up(wire) = slot.link {
                wire.close(poller);
            }
        }
    }
}

/// Why a backend that sent garbage is dropped.
const UNDECODABLE: &str = "undecodable response from shard";

#[cfg(test)]
mod tests {
    use super::*;
    use ode::{TypeTag, Vid};

    #[test]
    fn stats_scatter_sums_counters_and_per_opcode_counts() {
        let a = StatsReport {
            active_connections: 1,
            total_connections: 2,
            bytes_in: 10,
            bytes_out: 20,
            protocol_errors: 0,
            op_errors: 1,
            snapshot_hits: 5,
            snapshot_misses: 2,
            slow_client_evictions: 1,
            materialize_hits: 4,
            materialize_misses: 2,
            requests: vec![(Opcode::Pnew, 3), (Opcode::Deref, 4)],
            storage: crate::protocol::StorageCounters {
                read_txs: 10,
                write_txs: 3,
                group_batch_max: 4,
                replica_lag_epochs: 2,
                write_conflicts: 2,
                write_retries: 1,
                ..Default::default()
            },
        };
        let b = StatsReport {
            active_connections: 2,
            total_connections: 3,
            bytes_in: 100,
            bytes_out: 200,
            protocol_errors: 1,
            op_errors: 0,
            snapshot_hits: 7,
            snapshot_misses: 1,
            slow_client_evictions: 2,
            materialize_hits: 1,
            materialize_misses: 3,
            requests: vec![(Opcode::Deref, 6), (Opcode::Ping, 1)],
            storage: crate::protocol::StorageCounters {
                read_txs: 20,
                write_txs: 5,
                group_batch_max: 2,
                replica_lag_epochs: 5,
                write_conflicts: 3,
                write_retries: 2,
                ..Default::default()
            },
        };
        let merged = merge_stats(vec![a, b]);
        assert_eq!(merged.active_connections, 3);
        assert_eq!(merged.total_connections, 5);
        assert_eq!(merged.bytes_in, 110);
        assert_eq!(merged.bytes_out, 220);
        assert_eq!(merged.protocol_errors, 1);
        assert_eq!(merged.op_errors, 1);
        assert_eq!(merged.snapshot_hits, 12);
        assert_eq!(merged.snapshot_misses, 3);
        assert_eq!(merged.slow_client_evictions, 3);
        assert_eq!(merged.materialize_hits, 5);
        assert_eq!(merged.materialize_misses, 5);
        assert_eq!(merged.storage.read_txs, 30);
        assert_eq!(merged.storage.write_txs, 8);
        assert_eq!(merged.storage.write_conflicts, 5);
        assert_eq!(merged.storage.write_retries, 3);
        // Gauges: max across shards, not a sum.
        assert_eq!(merged.storage.group_batch_max, 4);
        assert_eq!(merged.storage.replica_lag_epochs, 5);
        assert_eq!(merged.requests_for(Opcode::Deref), 10);
        assert_eq!(merged.requests_for(Opcode::Pnew), 3);
        assert_eq!(merged.requests_for(Opcode::Ping), 1);
        // Wire order (the order a single server reports) is preserved.
        assert_eq!(
            merged.requests,
            vec![(Opcode::Ping, 1), (Opcode::Pnew, 3), (Opcode::Deref, 10)]
        );
    }

    #[test]
    fn extent_scatter_merges_sorted_and_truncates_pages() {
        let parts = vec![
            vec![Oid(4), Oid(8), Oid(12)],
            vec![Oid(1), Oid(5)],
            vec![Oid(2), Oid(6), Oid(10)],
        ];
        assert_eq!(
            merge_objects(parts.clone(), None),
            vec![
                Oid(1),
                Oid(2),
                Oid(4),
                Oid(5),
                Oid(6),
                Oid(8),
                Oid(10),
                Oid(12)
            ]
        );
        assert_eq!(merge_objects(parts, Some(3)), vec![Oid(1), Oid(2), Oid(4)]);
    }

    #[test]
    fn responses_translate_every_embedded_id() {
        let map = ShardMap::new(4);
        let s = 2;
        assert_eq!(
            translate_response(
                Response::Created {
                    oid: Oid(3),
                    vid: Vid(5)
                },
                map,
                s
            ),
            Response::Created {
                oid: Oid(14),
                vid: Vid(22)
            }
        );
        assert_eq!(
            translate_response(Response::Version(Vid(1)), map, s),
            Response::Version(Vid(6))
        );
        assert_eq!(
            translate_response(
                Response::Body {
                    vid: Vid(2),
                    bytes: vec![9]
                },
                map,
                s
            ),
            Response::Body {
                vid: Vid(10),
                bytes: vec![9]
            }
        );
        assert_eq!(
            translate_response(Response::Versions(vec![Vid(1), Vid(2)]), map, s),
            Response::Versions(vec![Vid(6), Vid(10)])
        );
        assert_eq!(
            translate_response(Response::Err(RemoteError::UnknownObject(Oid(3))), map, s),
            Response::Err(RemoteError::UnknownObject(Oid(14)))
        );
        // Shapes without ids pass through untouched.
        assert_eq!(translate_response(Response::Unit, map, s), Response::Unit);
        assert_eq!(
            translate_response(Response::Count(7), map, s),
            Response::Count(7)
        );
        // A diff's endpoint vids are remapped; the delta metrics are
        // shard-agnostic and pass through.
        let d = crate::protocol::DiffSummary {
            from: Vid(1),
            to: Vid(2),
            to_len: 600,
            ops: 3,
            literal_bytes: 12,
            encoded_bytes: 30,
            stored: true,
        };
        assert_eq!(
            translate_response(Response::Diff(d), map, s),
            Response::Diff(crate::protocol::DiffSummary {
                from: Vid(6),
                to: Vid(10),
                ..d
            })
        );
    }

    #[test]
    fn history_and_diff_route_to_the_owning_shard() {
        let map = ShardMap::new(3);
        // Oid 7 lives on shard 1; client stamps [4, 22] on shard 1 are
        // {4, 7, 10, 13, 16, 19, 22} = backend stamps 1..=7.
        match route(
            Request::HistoryBetween {
                oid: Oid(7),
                from: 4,
                to: 22,
            },
            map,
        ) {
            Route::Single { shard, backend } => {
                assert_eq!(shard, 1);
                assert_eq!(
                    backend,
                    Request::HistoryBetween {
                        oid: Oid(2),
                        from: 1,
                        to: 7,
                    }
                );
            }
            _ => panic!("history must route to the object's shard"),
        }
        // A range no stamp of shard 2 can fall in answers locally.
        match route(
            Request::HistoryBetween {
                oid: Oid(2),
                from: 0,
                to: 1,
            },
            map,
        ) {
            Route::Local(Response::Versions(v)) => assert!(v.is_empty()),
            _ => panic!("empty range must answer locally"),
        }
        // Same shard: forwarded with both vids translated.
        match route(
            Request::DiffVersions {
                from: Vid(4),
                to: Vid(7),
            },
            map,
        ) {
            Route::Single { shard, backend } => {
                assert_eq!(shard, 1);
                assert_eq!(
                    backend,
                    Request::DiffVersions {
                        from: Vid(1),
                        to: Vid(2),
                    }
                );
            }
            _ => panic!("same-shard diff must forward"),
        }
        // Cross-shard endpoints are refused by the router itself.
        match route(
            Request::DiffVersions {
                from: Vid(4),
                to: Vid(8),
            },
            map,
        ) {
            Route::Local(Response::Err(RemoteError::BadRequest(_))) => {}
            _ => panic!("cross-shard diff must be refused locally"),
        }
    }

    #[test]
    fn merge_routes_like_diff_and_remaps_only_the_version() {
        let map = ShardMap::new(3);
        // Same shard: forwarded with both parent vids translated and
        // the policy untouched.
        match route(
            Request::Merge {
                a: Vid(4),
                b: Vid(7),
                policy: ode::MergePolicy::Ours,
            },
            map,
        ) {
            Route::Single { shard, backend } => {
                assert_eq!(shard, 1);
                assert_eq!(
                    backend,
                    Request::Merge {
                        a: Vid(1),
                        b: Vid(2),
                        policy: ode::MergePolicy::Ours,
                    }
                );
            }
            _ => panic!("same-shard merge must forward"),
        }
        // Cross-shard parents are refused by the router itself.
        match route(
            Request::Merge {
                a: Vid(4),
                b: Vid(8),
                policy: ode::MergePolicy::Fail,
            },
            map,
        ) {
            Route::Local(Response::Err(RemoteError::BadRequest(_))) => {}
            _ => panic!("cross-shard merge must be refused locally"),
        }
        // Translation maps the minted vid back to client space and
        // leaves the conflict byte ranges alone.
        let conflicts = vec![ode::MergeConflict {
            base_start: 3,
            base_end: 9,
            ours: vec![1],
            theirs: vec![2],
        }];
        assert_eq!(
            translate_response(
                Response::Merged {
                    vid: Some(Vid(2)),
                    conflicts: conflicts.clone(),
                },
                map,
                1,
            ),
            Response::Merged {
                vid: Some(Vid(7)),
                conflicts,
            }
        );
    }

    #[test]
    fn pnew_places_round_robin_and_keyed_requests_follow_their_id() {
        let map = ShardMap::new(3);
        let mut rr = 0;
        let pnew = Request::Pnew {
            tag: TypeTag(1),
            body: vec![],
        }
        .encode(9);
        for expect in [0usize, 1, 2, 0, 1] {
            let head = patch_head(&pnew, map, &mut rr).expect("pnew takes the patching path");
            assert_eq!(head.shard, expect);
        }
        // Oid 7 on 3 shards: shard 1, backend id 2.
        let deref = Request::Deref {
            oid: Oid(7),
            tag: TypeTag(1),
        }
        .encode(9);
        let head = patch_head(&deref, map, &mut rr).expect("deref takes the patching path");
        assert_eq!(head.shard, 1);
        let mut backend = Vec::new();
        head.write(4, &mut backend);
        assert_eq!(
            Request::decode(&backend).unwrap(),
            (
                4,
                Request::Deref {
                    oid: Oid(2),
                    tag: TypeTag(1)
                }
            )
        );
    }

    #[test]
    fn the_patching_path_rejects_only_what_decode_rejects() {
        let map = ShardMap::new(3);
        let mut rr = 0;
        let (oid, vid, tag) = (Oid(300), Vid(300), TypeTag(1));
        let patched = [
            Request::Pnew { tag, body: vec![1] },
            Request::Deref { oid, tag },
            Request::DerefVersion { vid, tag },
            Request::Update {
                oid,
                tag,
                body: vec![2],
            },
            Request::UpdateVersion {
                vid,
                tag,
                body: vec![3],
            },
            Request::NewVersion { oid },
            Request::NewVersionFrom { vid },
            Request::Pdelete { oid },
            Request::PdeleteVersion { vid },
            Request::Dprevious { vid },
            Request::Dnext { vid },
            Request::Tprevious { vid },
            Request::Tnext { vid },
            Request::VersionHistory { oid },
            Request::CurrentVersion { oid },
            Request::ObjectOf { vid },
            Request::VersionCount { oid },
            Request::Exists { oid },
            Request::VersionExists { vid },
        ];
        let covered: Vec<Opcode> = patched.iter().map(Request::opcode).collect();
        for op in Opcode::ALL {
            assert_eq!(
                op.routing() != Routing::Decoded,
                covered.contains(&op),
                "{op:?}"
            );
        }
        for request in &patched {
            let full = request.encode(300);
            assert!(patch_head(&full, map, &mut rr).is_some(), "{request:?}");
            // Every truncation the patching path refuses, decode
            // refuses too — so `route` never sees these opcodes.
            for cut in 0..full.len() {
                let part = &full[..cut];
                if patch_head(part, map, &mut rr).is_none() {
                    assert!(Request::decode(part).is_err(), "{request:?} cut at {cut}");
                }
            }
        }
        for request in [Request::Ping, Request::Stats, Request::Objects { tag }] {
            assert!(patch_head(&request.encode(1), map, &mut rr).is_none());
        }
    }

    #[test]
    fn a_gather_answers_exactly_once_even_with_failures() {
        let mut g = Gather::new(9, GatherKind::Objects, 3);
        assert!(g
            .complete_part(0, Ok(Response::Objects(vec![Oid(3)])))
            .is_none());
        assert!(g
            .complete_part(1, Err(RemoteError::Unavailable("down".into())))
            .is_none());
        let last = g.complete_part(2, Ok(Response::Objects(vec![Oid(2)])));
        assert_eq!(
            last,
            Some(Response::Err(RemoteError::Unavailable("down".into())))
        );
        // Late or duplicate parts after completion are swallowed.
        assert!(g.complete_part(0, Ok(Response::Objects(vec![]))).is_none());
    }
}
