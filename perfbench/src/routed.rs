//! `routed_batch`: the sharded, pipelined path. An `OdeRouter` over two
//! in-process shard `OdeServer`s with fsync off; two client
//! connections each send pipelined batches of 32 requests (94% latest
//! reads, 6% in-place updates of the latest version) with uniform keys
//! over more objects than both shards' snapshot caches hold.

use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

use ode::{Database, DatabaseOptions, Oid, Vid};
use ode_net::{
    ClientConfig, OdeClient, OdeRouter, OdeServer, Request, Response, RouterConfig, ServerConfig,
    ShardMap, StatsReport,
};
use ode_storage::buffer::BufferStats;
use ode_storage::{Store, StoreStats};
use ode_version::{MaterializeCache, VersionStore, VersionStoreLayout};

use crate::trace::{DirectCalls, Layers, OpKind, Probe, Tracer};
use crate::util::{self, Metrics, Rng, Samples, Tally, Until, Windowed, WorkDir};
use crate::wire::TAG;
use crate::{Config, Outcome, StageInput};

const SHARDS: usize = 2;
const OBJECTS: usize = 16384;
const BODY: usize = 2048;
const CLIENTS: usize = 2;
const BATCH: usize = 32;
const LOAD_BATCH: usize = 64;
/// Window of the gated figures: over 1000 batches, so each window's
/// p99 has at least ten samples beyond it.
const WINDOW: Duration = Duration::from_millis(2500);
/// Batches sent both through the router and straight to the shards.
const HOP_BATCHES: usize = 300;
/// Requests replayed in-process by the traced run.
const REPLAY_OPS: usize = 8000;

/// Shards run with fsync off: on a shared host the latency of an fsync
/// swings several-fold from one minute to the next, and with six updates
/// in a batch of 32 most batches would wait on one. Commits still append
/// to the WAL, and checkpoints still fsync the page file; the commit
/// fsync, and the group commit that batches fsyncs, are left out.
fn options() -> DatabaseOptions {
    DatabaseOptions::no_sync()
}

struct Tier {
    dbs: Vec<Arc<Database>>,
    servers: Vec<OdeServer>,
    router: OdeRouter,
    paths: Vec<PathBuf>,
}

impl Tier {
    fn start(paths: Vec<PathBuf>, create: bool) -> Tier {
        let dbs: Vec<Arc<Database>> = paths
            .iter()
            .map(|p| {
                let db = if create {
                    Database::create(p, options())
                } else {
                    Database::open(p, options())
                };
                Arc::new(db.expect("open shard db"))
            })
            .collect();
        let servers: Vec<OdeServer> = dbs
            .iter()
            .map(|db| {
                OdeServer::bind(Arc::clone(db), "127.0.0.1:0", ServerConfig::default())
                    .expect("bind shard server")
            })
            .collect();
        let addrs = servers.iter().map(OdeServer::local_addr).collect();
        let router =
            OdeRouter::bind("127.0.0.1:0", addrs, RouterConfig::default()).expect("bind router");
        Tier {
            dbs,
            servers,
            router,
            paths,
        }
    }

    fn stop(self) -> Vec<PathBuf> {
        self.router.shutdown();
        for s in self.servers {
            s.shutdown();
        }
        for db in self.dbs {
            db.checkpoint().expect("shard checkpoint");
        }
        self.paths
    }

    fn shard_addrs(&self) -> Vec<SocketAddr> {
        self.servers.iter().map(OdeServer::local_addr).collect()
    }

    fn counters(&self) -> (BufferStats, StoreStats) {
        let mut b = BufferStats::default();
        let mut s = StoreStats::default();
        for db in &self.dbs {
            let (x, y) = (db.buffer_stats(), db.storage_stats());
            b.hits += x.hits;
            b.misses += x.misses;
            b.evictions += x.evictions;
            b.writebacks += x.writebacks;
            s.read_txs += y.read_txs;
            s.write_txs += y.write_txs;
            s.reader_wait_nanos += y.reader_wait_nanos;
            s.writer_wait_nanos += y.writer_wait_nanos;
            s.wal_syncs += y.wal_syncs;
            s.group_batch_max = s.group_batch_max.max(y.group_batch_max);
        }
        (b, s)
    }

    fn server_stats(&self) -> Vec<StatsReport> {
        self.servers.iter().map(OdeServer::stats).collect()
    }
}

/// Load every object through the router with pipelined `Pnew`s, one
/// loader connection per client; returns the client-visible oids.
fn load(tier: &Tier, seed: u64) -> Vec<Oid> {
    let addr = tier.router.local_addr();
    let oids = Mutex::new(vec![Oid(0); OBJECTS]);
    std::thread::scope(|s| {
        for c in 0..CLIENTS {
            let oids = &oids;
            s.spawn(move || {
                let mut conn = OdeClient::connect(addr, ClientConfig::default()).expect("connect");
                let mine: Vec<usize> = (c..OBJECTS).step_by(CLIENTS).collect();
                for chunk in mine.chunks(LOAD_BATCH) {
                    let mut p = conn.pipeline();
                    for &k in chunk {
                        let body = util::payload(seed, k as u64, 0, BODY);
                        p.push(&Request::Pnew { tag: TAG, body })
                            .expect("queue pnew");
                    }
                    let responses = p.run().expect("load batch");
                    let mut out = oids.lock().expect("oid table lock");
                    for (&k, r) in chunk.iter().zip(responses) {
                        match r {
                            Response::Created { oid, .. } => out[k] = oid,
                            other => panic!("load pnew failed: {other:?}"),
                        }
                    }
                }
            });
        }
    });
    oids.into_inner().expect("oid table lock")
}

/// Load, then restart the shards (and router) on reopened databases.
fn setup(work: &WorkDir, seed: u64, round: u32) -> (Tier, Vec<Oid>, f64) {
    let paths: Vec<PathBuf> = (0..SHARDS)
        .map(|s| work.file(&format!("r{round}-shard{s}.db")))
        .collect();
    let start = Instant::now();
    let tier = Tier::start(paths, true);
    let oids = load(&tier, seed);
    let tier = Tier::start(tier.stop(), false);
    (tier, oids, start.elapsed().as_secs_f64())
}

#[derive(Clone, Copy)]
enum Op {
    Read(usize),
    Update(usize),
}

/// One client's batches: uniform keys, 94% reads and 6% updates; a
/// client only updates objects whose index has its parity.
struct OpGen {
    rng: Rng,
    client: usize,
}

impl OpGen {
    fn new(seed: u64, client: usize) -> OpGen {
        OpGen {
            rng: Rng::new(util::mix(&[seed, client as u64, 0x726f_7574])),
            client,
        }
    }

    fn next(&mut self) -> Op {
        let k = self.rng.below(OBJECTS as u64) as usize;
        if self.rng.below(100) < 94 {
            Op::Read(k)
        } else {
            Op::Update((k & !1) | self.client)
        }
    }
}

/// A batch ready to send: requests plus what the oracle needs.
struct Batch {
    ops: Vec<Op>,
    /// Per request: the lowest revision a read may return, or the
    /// revision an update writes.
    revs: Vec<u64>,
    requests: Vec<Request>,
}

fn make_batch(gen: &mut OpGen, seed: u64, oids: &[Oid], revs: &[AtomicU64]) -> Batch {
    let mut pending: HashMap<usize, u64> = HashMap::new();
    let mut b = Batch {
        ops: Vec::new(),
        revs: Vec::new(),
        requests: Vec::new(),
    };
    for _ in 0..BATCH {
        let op = gen.next();
        let (rev, req) = match op {
            Op::Read(k) => (
                revs[k].load(Ordering::Acquire),
                Request::Deref {
                    oid: oids[k],
                    tag: TAG,
                },
            ),
            Op::Update(k) => {
                let base = pending
                    .get(&k)
                    .copied()
                    .unwrap_or_else(|| revs[k].load(Ordering::Acquire));
                let rev = base + 1;
                pending.insert(k, rev);
                let body = util::payload(seed, k as u64, rev, BODY);
                (
                    rev,
                    Request::Update {
                        oid: oids[k],
                        tag: TAG,
                        body,
                    },
                )
            }
        };
        b.ops.push(op);
        b.revs.push(rev);
        b.requests.push(req);
    }
    b
}

/// Check every response; returns the failed-request count or the first
/// oracle mismatch.
fn check_batch(
    seed: u64,
    b: &Batch,
    responses: &[ode_net::Result<Response>],
) -> Result<u64, String> {
    let mut failed = 0;
    for ((op, rev), r) in b.ops.iter().zip(&b.revs).zip(responses) {
        match (op, r) {
            (_, Err(_)) | (_, Ok(Response::Err(_))) => failed += 1,
            (Op::Read(k), Ok(Response::Body { bytes, .. })) => {
                match util::check_payload(seed, bytes, BODY) {
                    Some((o, r)) if o == *k as u64 && r >= *rev => {}
                    _ => return Err(format!("routed read of object {k} returned a wrong body")),
                }
            }
            (Op::Update(_), Ok(Response::Version(_))) => {}
            (_, Ok(other)) => return Err(format!("unexpected response {}", other.kind_name())),
        }
    }
    Ok(failed)
}

fn publish(b: &Batch, responses: &[ode_net::Result<Response>], revs: &[AtomicU64]) {
    for ((op, rev), r) in b.ops.iter().zip(&b.revs).zip(responses) {
        if let (Op::Update(k), Ok(Response::Version(_))) = (op, r) {
            revs[*k].fetch_max(*rev, Ordering::AcqRel);
        }
    }
}

fn run_batch(conn: &mut OdeClient, requests: &[Request]) -> Vec<ode_net::Result<Response>> {
    let mut p = conn.pipeline();
    for r in requests {
        if let Err(e) = p.push(r) {
            return requests
                .iter()
                .map(|_| Err(ode_net::NetError::Protocol(e.to_string())))
                .collect();
        }
    }
    p.run_each()
}

struct ClientResult {
    batches: Samples,
    windows: Windowed,
    tally: Tally,
    errors: Vec<String>,
}

impl ClientResult {
    fn new(windows: Windowed) -> ClientResult {
        ClientResult {
            batches: Samples::default(),
            windows,
            tally: Tally::default(),
            errors: Vec::new(),
        }
    }
}

fn client_loop(
    addr: SocketAddr,
    seed: u64,
    client: usize,
    oids: &[Oid],
    revs: &[AtomicU64],
    windows: Windowed,
    until: &Until,
) -> ClientResult {
    let mut out = ClientResult::new(windows);
    let mut conn = OdeClient::connect(addr, ClientConfig::default()).expect("connect to router");
    let mut gen = OpGen::new(seed, client);
    while !until.done() {
        let b = make_batch(&mut gen, seed, oids, revs);
        let (responses, d) = util::timed(|| run_batch(&mut conn, &b.requests));
        out.batches.push(d);
        out.windows.push(d, BATCH as u64);
        out.tally.attempted += BATCH as u64;
        match check_batch(seed, &b, &responses) {
            Ok(failed) => out.tally.failed += failed,
            Err(e) => {
                out.errors.push(e);
                until.abort();
            }
        }
        publish(&b, &responses, revs);
    }
    out
}

/// One untraced measured phase: both connections for `phase`.
fn measure(
    tier: &Tier,
    seed: u64,
    oids: &[Oid],
    revs: &[AtomicU64],
    phase: Duration,
) -> (ClientResult, f64) {
    let stop = AtomicBool::new(false);
    let threads = Mutex::new(0.0);
    let addr = tier.router.local_addr();
    let start = Instant::now();
    let until = Until {
        deadline: start + phase,
        abort: &stop,
    };
    let windows = Windowed::new(start, phase, WINDOW);
    let results: Vec<ClientResult> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let (until, windows) = (&until, windows.clone());
                s.spawn(move || client_loop(addr, seed, c, oids, revs, windows, until))
            })
            .collect();
        std::thread::sleep(Duration::from_millis(200));
        *threads.lock().expect("thread count lock") = util::process_threads();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let mut total = ClientResult::new(windows);
    for r in results {
        total.batches.extend(&r.batches);
        total.windows.merge(&r.windows);
        total.tally.add(r.tally);
        total.errors.extend(r.errors);
    }
    let threads = *threads.lock().expect("thread count lock");
    (total, threads)
}

pub fn run(cfg: &Config) -> Outcome {
    let work = WorkDir::new("routed_batch");
    let mut m = Metrics::default();
    let (rounds, phase) = cfg.phases();
    let mut setups = Vec::new();
    let mut windows = Windowed::default();
    let mut errors = Vec::new();
    let mut tally = Tally::default();
    let mut last = None;
    for round in 0..rounds {
        let (tier, oids, secs) = setup(&work, cfg.seed, round);
        setups.push(secs);
        let revs: Vec<AtomicU64> = (0..OBJECTS).map(|_| AtomicU64::new(0)).collect();
        let (b0, s0) = tier.counters();
        let (mut res, threads) = measure(&tier, cfg.seed, &oids, &revs, phase);
        let (b1, s1) = tier.counters();
        let (misses, evictions) = (b1.misses - b0.misses, b1.evictions - b0.evictions);
        if misses == 0 || evictions == 0 {
            errors.push(format!(
                "measured phase stayed cache-resident: {misses} buffer misses, {evictions} evictions"
            ));
        }
        errors.append(&mut res.errors);
        tally.add(res.tally);
        windows.append(std::mem::take(&mut res.windows));
        if round + 1 < rounds {
            for p in tier.stop() {
                let _ = std::fs::remove_file(&p);
                let _ = std::fs::remove_file(format!("{}.wal", p.display()));
            }
        } else {
            last = Some((tier, oids, revs, res, threads, (b0, b1, s0, s1)));
        }
    }
    // Per-op-type figures and layer counters come from the last round.
    let (tier, oids, revs, total, threads, (b0, b1, s0, s1)) = last.expect("at least one round");

    m.set("setup_s", util::median(setups), "s");
    m.set("ops_per_s", windows.rate(), "1/s");
    m.set("op_p50_us", windows.quantile_us(0.5), "us");
    m.set("op_p99_us", windows.quantile_us(0.99), "us");
    crate::op_latencies(&mut m, "batch", &total.batches);
    m.set("failed_frac", tally.failed_frac(), "ratio");
    crate::storage_counters(&mut m, &b0, &b1, &s0, &s1);
    let stats = tier.server_stats();
    let sum = |f: fn(&StatsReport) -> u64| stats.iter().map(f).sum::<u64>();
    let (hits, cache_misses) = (sum(|s| s.snapshot_hits), sum(|s| s.snapshot_misses));
    m.set(
        "net.snapshot_hit_ratio",
        hits as f64 / (hits + cache_misses).max(1) as f64,
        "ratio",
    );
    m.set(
        "net.bytes_out_per_op",
        sum(|s| s.bytes_out) as f64 / sum(|s| s.total_requests()).max(1) as f64,
        "B",
    );
    m.set("net.process_threads", threads, "count");
    m.set("net.op_errors", sum(|s| s.op_errors) as f64, "count");
    let router_errors = tier.router.stats().protocol_errors;
    m.set(
        "net.protocol_errors",
        (sum(|s| s.protocol_errors) + router_errors) as f64,
        "count",
    );

    let mut hop = None;
    if cfg.trace && errors.is_empty() {
        hop = Some(router_hop(
            &tier,
            cfg.seed,
            &oids,
            &revs,
            &mut m,
            &mut errors,
            &mut tally,
        ));
    }
    let paths = tier.stop();
    let raw = (OBJECTS * BODY) as u64;
    let bytes: u64 = paths.iter().map(|p| util::store_bytes(p)).sum();
    m.set("space_amp", bytes as f64 / raw as f64, "ratio");

    if let (Some((routed, direct)), true) = (hop, errors.is_empty()) {
        let stage = replay(cfg, &paths, &oids, &revs, &mut m, &mut errors, &mut tally);
        crate::stage_report(&mut m, &stage, &[], true);
        batch_breakdown(&stage, &routed, &direct);
    }
    m.set("rss_mb", util::rss_hwm_mb(), "MB");
    Outcome {
        metrics: m,
        tally,
        errors,
    }
}

/// Send the same batches through the router and straight to the
/// shards (split by the router's shard map, one helper thread per shard
/// so the shards work in parallel, as they do behind the router).
fn router_hop(
    tier: &Tier,
    seed: u64,
    oids: &[Oid],
    revs: &[AtomicU64],
    m: &mut Metrics,
    errors: &mut Vec<String>,
    tally: &mut Tally,
) -> (Samples, Samples) {
    let map = tier.router.shard_map();
    let mut routed_conn = OdeClient::connect(tier.router.local_addr(), ClientConfig::default())
        .expect("connect to router");
    let (mut routed, mut direct) = (Samples::default(), Samples::default());
    std::thread::scope(|s| {
        let helpers: Vec<_> = tier
            .shard_addrs()
            .into_iter()
            .map(|addr| {
                let (tx, rx) = mpsc::channel::<Vec<Request>>();
                let (back_tx, back_rx) = mpsc::channel();
                s.spawn(move || {
                    let mut conn = OdeClient::connect(addr, ClientConfig::default())
                        .expect("connect to shard");
                    for reqs in rx {
                        if back_tx.send(run_batch(&mut conn, &reqs)).is_err() {
                            break;
                        }
                    }
                });
                (tx, back_rx)
            })
            .collect();
        let mut gen = OpGen::new(seed ^ 0x0068_6f70, 0);
        for i in 0..HOP_BATCHES {
            let b = make_batch(&mut gen, seed, oids, revs);
            let mut via_router = |routed: &mut Samples| {
                let (responses, d) = util::timed(|| run_batch(&mut routed_conn, &b.requests));
                routed.push(d);
                responses
            };
            let straight = |direct: &mut Samples| {
                let mut parts: Vec<Vec<(usize, Request)>> = vec![Vec::new(); SHARDS];
                for (i, r) in b.requests.iter().enumerate() {
                    let (shard, r) = match r {
                        Request::Deref { oid, tag } => (
                            map.shard_of(*oid),
                            Request::Deref {
                                oid: map.backend_oid(*oid),
                                tag: *tag,
                            },
                        ),
                        Request::Update { oid, tag, body } => (
                            map.shard_of(*oid),
                            Request::Update {
                                oid: map.backend_oid(*oid),
                                tag: *tag,
                                body: body.clone(),
                            },
                        ),
                        other => unreachable!("batches hold only reads and updates: {other:?}"),
                    };
                    parts[shard].push((i, r));
                }
                let start = Instant::now();
                for (shard, part) in parts.iter().enumerate() {
                    helpers[shard]
                        .0
                        .send(part.iter().map(|(_, r)| r.clone()).collect())
                        .expect("helper alive");
                }
                let mut responses: Vec<Option<ode_net::Result<Response>>> =
                    (0..BATCH).map(|_| None).collect();
                for (shard, part) in parts.iter().enumerate() {
                    let got = helpers[shard].1.recv().expect("helper reply");
                    for ((i, _), r) in part.iter().zip(got) {
                        responses[*i] = Some(r);
                    }
                }
                direct.push(start.elapsed());
                responses
                    .into_iter()
                    .map(|r| r.expect("every request answered"))
                    .collect::<Vec<_>>()
            };
            // Alternate which path goes first; the second sees the
            // first's effects, which the same updates leave unchanged.
            let (r1, r2) = if i % 2 == 0 {
                (via_router(&mut routed), straight(&mut direct))
            } else {
                let d = straight(&mut direct);
                (via_router(&mut routed), d)
            };
            for responses in [&r1, &r2] {
                tally.attempted += BATCH as u64;
                match check_batch(seed, &b, responses) {
                    Ok(failed) => tally.failed += failed,
                    Err(e) => errors.push(e),
                }
            }
            publish(&b, &r1, revs);
            publish(&b, &r2, revs);
        }
        drop(helpers);
    });
    let hop = routed.quantile_us(0.5) - direct.quantile_us(0.5);
    m.set("net.router_hop_us", hop, "us");
    m.set("net.routed_batch_p50_us", routed.quantile_us(0.5), "us");
    m.set("net.direct_batch_p50_us", direct.quantile_us(0.5), "us");
    (routed, direct)
}

/// Replay the seeded request stream in-process, one request at a time,
/// against each shard's store through the layers `Database` composes.
fn replay(
    cfg: &Config,
    paths: &[PathBuf],
    oids: &[Oid],
    revs: &[AtomicU64],
    m: &mut Metrics,
    errors: &mut Vec<String>,
    tally: &mut Tally,
) -> StageInput {
    let stores: Vec<Store> = paths.iter().map(|p| open_store(p)).collect();
    let versions = VersionStore::new(VersionStoreLayout::default());
    let caches: Vec<MaterializeCache> = (0..SHARDS).map(|_| MaterializeCache::new(1024)).collect();
    let layers: Vec<Layers> = stores
        .iter()
        .zip(&caches)
        .map(|(store, cache)| Layers {
            store,
            versions: &versions,
            cache,
        })
        .collect();
    let map = ShardMap::new(SHARDS);
    let tracer = RefCell::new(Tracer::default());
    let mut untraced: BTreeMap<OpKind, Samples> = BTreeMap::new();
    let mut direct = DirectCalls::default();
    let mut gens: Vec<OpGen> = (0..CLIENTS).map(|c| OpGen::new(cfg.seed, c)).collect();
    let seed = cfg.seed;
    for i in 0..REPLAY_OPS {
        // Ops alternate between the clients' streams, so trace every
        // other pair to split each client's ops between the two halves.
        let probe = if (i / CLIENTS).is_multiple_of(2) {
            Probe(Some(&tracer))
        } else {
            Probe(None)
        };
        let op = gens[i % CLIENTS].next();
        let (k, kind) = match op {
            Op::Read(k) => (k, OpKind::Read),
            Op::Update(k) => (k, OpKind::Update),
        };
        let (shard, oid) = (map.shard_of(oids[k]), map.backend_oid(oids[k]));
        let l = &layers[shard];
        tally.attempted += 1;
        let start = Instant::now();
        let bad = match op {
            Op::Read(_) => {
                let floor = revs[k].load(Ordering::Relaxed);
                let res = probe.op(kind, || l.deref_raw(probe, oid, TAG));
                let d = start.elapsed();
                res.map(|(vid, body)| {
                    if probe.0.is_none() {
                        untraced.entry(kind).or_default().push(d);
                    }
                    direct.codec(&body);
                    direct.wire(&Request::Deref { oid, tag: TAG }, &Response::Body { vid, bytes: body.clone() });
                    !matches!(util::check_payload(seed, &body, BODY), Some((o, r)) if o == k as u64 && r >= floor)
                })
            }
            Op::Update(_) => {
                let rev = revs[k].load(Ordering::Relaxed) + 1;
                let body = util::payload(seed, k as u64, rev, BODY);
                let res = probe.op(kind, || l.update(probe, oid, TAG, body.clone()));
                let d = start.elapsed();
                res.map(|vid: Vid| {
                    if probe.0.is_none() {
                        untraced.entry(kind).or_default().push(d);
                    }
                    direct.codec(&body);
                    direct.delta(&util::payload(seed, k as u64, rev - 1, BODY), &body);
                    direct.wire(
                        &Request::Update {
                            oid,
                            tag: TAG,
                            body: body.clone(),
                        },
                        &Response::Version(vid),
                    );
                    revs[k].store(rev, Ordering::Relaxed);
                    false
                })
            }
        };
        match bad {
            Ok(false) => {}
            Ok(true) => {
                errors.push(format!("replayed {} returned a wrong body", kind.name()));
                break;
            }
            Err(_) => tally.failed += 1,
        }
    }
    direct.report(m);
    m.set("storage.wal_bytes_per_checkin", 0.0, "B");
    m.set("version.chain_record_bytes_per_checkin", 0.0, "B");
    m.set("version.materialize_hit_ratio", 0.0, "ratio");
    StageInput {
        tracer: tracer.into_inner(),
        untraced,
    }
}

fn open_store(path: &Path) -> Store {
    Store::open(path, options().storage).expect("reopen shard for replay")
}

/// Where a routed batch's time goes: the in-process work of its
/// requests, the shards' serving overhead on top, and the router hop.
fn batch_breakdown(stage: &StageInput, routed: &Samples, direct: &Samples) {
    let per = |k: OpKind| stage.untraced.get(&k).map_or(0.0, Samples::mean_us);
    let work = BATCH as f64 * (0.94 * per(OpKind::Read) + 0.06 * per(OpKind::Update));
    let (r, d) = (routed.quantile_us(0.5), direct.quantile_us(0.5));
    println!("batch breakdown (us; {} batches each way)", routed.len());
    println!(
        "  {:<28} {work:>12.2}  (32 requests' in-process work, one at a time)",
        "in-process work"
    );
    println!(
        "  {:<28} {:>12.2}  (direct batch p50 - in-process work)",
        "shard serving",
        d - work
    );
    println!(
        "  {:<28} {:>12.2}  (routed batch p50 - direct batch p50)",
        "router hop",
        r - d
    );
    println!("  {:<28} {r:>12.2}", "routed batch p50");
}
