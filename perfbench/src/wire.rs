//! `wire_oltp`: the served path. Two closed-loop connections to an
//! in-process `OdeServer` over a whole-body store at default durability
//! (fsync on commit, group commit, zero window). The data set is far
//! larger than the buffer pool and the snapshot cache, so reads take
//! the storage cold path and check-ins pay WAL fsyncs.

use std::cell::RefCell;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use ode::{Database, DatabaseOptions, Oid, TypeTag, Vid};
use ode_net::{ClientConfig, OdeClient, OdeServer, Request, Response, ServerConfig};
use ode_storage::{Store, StoreOptions};
use ode_version::{MaterializeCache, VersionStore, VersionStoreLayout};

use crate::trace::{DirectCalls, Layers, OpKind, Probe, Tracer};
use crate::util::{self, Metrics, Rng, Samples, Tally, Until, Windowed, WorkDir, Zipf};
use crate::{Config, Outcome, StageInput};

pub const TAG: TypeTag = TypeTag::from_name("perfbench/Blob");
const OBJECTS: usize = 8192;
const VERSIONS: usize = 4;
const BODY: usize = 2048;
const CLIENTS: usize = 2;
const LOAD_BATCH: usize = 256;
/// Window of the gated figures: ~7k calls, so each window's p99 has
/// some 70 samples beyond it.
const WINDOW: Duration = Duration::from_secs(1);
/// Operations replayed in-process by the traced run.
const REPLAY_OPS: usize = 6000;

/// What the load created: per object, its oid and the vids of its
/// loaded versions (revisions `0..VERSIONS`). Later check-ins add
/// revisions, counted in `revs`.
struct Loaded {
    oids: Vec<Oid>,
    vids: Vec<[Vid; VERSIONS]>,
    /// Highest revision of each object known to be committed.
    revs: Vec<AtomicU64>,
}

#[derive(Clone, Copy)]
enum Op {
    Read(usize),
    Hist(usize, usize),
    Checkin(usize),
}

/// One client's op stream: 85% latest reads, 10% reads of an older
/// loaded version, 5% check-ins, keys Zipf(0.99) over a seeded
/// permutation of the objects. A client only checks in objects whose
/// index has its parity, so each object has one writer.
struct OpGen {
    rng: Rng,
    zipf: Arc<Zipf>,
    perm: (u64, u64),
    client: usize,
}

impl OpGen {
    fn new(seed: u64, client: usize, zipf: Arc<Zipf>) -> OpGen {
        let mut r = Rng::new(util::mix(&[seed, 0x7065_726d]));
        let perm = (r.next_u64() | 1, r.next_u64());
        OpGen {
            rng: Rng::new(util::mix(&[seed, client as u64, 0x6f70])),
            zipf,
            perm,
            client,
        }
    }

    fn next(&mut self) -> Op {
        let rank = self.zipf.sample(&mut self.rng) as u64;
        let k =
            (rank.wrapping_mul(self.perm.0).wrapping_add(self.perm.1) % OBJECTS as u64) as usize;
        let roll = self.rng.below(100);
        if roll < 85 {
            Op::Read(k)
        } else if roll < 95 {
            Op::Hist(k, self.rng.below(VERSIONS as u64 - 1) as usize)
        } else {
            Op::Checkin((k & !1) | self.client)
        }
    }
}

fn load(path: &Path, seed: u64) -> Loaded {
    let db = Database::create(path, DatabaseOptions::default()).expect("create wire_oltp db");
    let mut oids = Vec::with_capacity(OBJECTS);
    let mut vids = Vec::with_capacity(OBJECTS);
    for start in (0..OBJECTS).step_by(LOAD_BATCH) {
        let mut txn = db.begin();
        for k in start..(start + LOAD_BATCH).min(OBJECTS) {
            let (oid, v0) = txn
                .pnew_raw(TAG, util::payload(seed, k as u64, 0, BODY))
                .expect("load pnew");
            let mut vs = [v0; VERSIONS];
            for (r, slot) in vs.iter_mut().enumerate().skip(1) {
                let vid = txn.newversion_raw(oid).expect("load newversion");
                txn.put_version_raw(vid, TAG, util::payload(seed, k as u64, r as u64, BODY))
                    .expect("load put");
                *slot = vid;
            }
            oids.push(oid);
            vids.push(vs);
        }
        txn.commit().expect("load commit");
    }
    db.checkpoint().expect("load checkpoint");
    let revs = (0..OBJECTS)
        .map(|_| AtomicU64::new(VERSIONS as u64 - 1))
        .collect();
    Loaded { oids, vids, revs }
}

struct Served {
    db: Arc<Database>,
    server: OdeServer,
    loaded: Loaded,
}

/// Load, close, reopen and start serving; the time this takes is the
/// workload's set-up time.
fn setup(work: &WorkDir, seed: u64, name: &str) -> (Served, f64) {
    let path = work.file(name);
    let start = Instant::now();
    let loaded = load(&path, seed);
    let db = Arc::new(Database::open(&path, DatabaseOptions::default()).expect("reopen db"));
    let server = OdeServer::bind(Arc::clone(&db), "127.0.0.1:0", ServerConfig::default())
        .expect("bind server");
    let secs = start.elapsed().as_secs_f64();
    (Served { db, server, loaded }, secs)
}

struct ClientResult {
    read: Samples,
    hist: Samples,
    checkin: Samples,
    windows: Windowed,
    tally: Tally,
    checkins_ok: u64,
    errors: Vec<String>,
}

fn client_loop(
    addr: std::net::SocketAddr,
    seed: u64,
    client: usize,
    loaded: &Loaded,
    zipf: Arc<Zipf>,
    windows: Windowed,
    until: &Until,
) -> ClientResult {
    let mut out = ClientResult::new(windows);
    let mut conn = OdeClient::connect(addr, ClientConfig::default()).expect("connect");
    let mut gen = OpGen::new(seed, client, zipf);
    while !until.done() {
        let op = gen.next();
        out.tally.attempted += 1;
        let checked = match op {
            Op::Read(k) => {
                let floor = loaded.revs[k].load(Ordering::Acquire);
                let (res, d) = util::timed(|| conn.deref_raw(loaded.oids[k], TAG));
                res.map(|(_, body)| {
                    out.read.push(d);
                    out.windows.push(d, 1);
                    match util::check_payload(seed, &body, BODY) {
                        Some((obj, rev)) if obj == k as u64 && rev >= floor => None,
                        _ => Some(format!("latest read of object {k} returned a wrong body")),
                    }
                })
            }
            Op::Hist(k, r) => {
                let vid = loaded.vids[k][r];
                let (res, d) =
                    util::timed(|| call(&mut conn, &Request::DerefVersion { vid, tag: TAG }));
                res.map(|resp| {
                    out.hist.push(d);
                    out.windows.push(d, 1);
                    match resp {
                        Response::Body { bytes, .. }
                            if bytes == util::payload(seed, k as u64, r as u64, BODY) =>
                        {
                            None
                        }
                        _ => Some(format!(
                            "read of version {r} of object {k} returned a wrong body"
                        )),
                    }
                })
            }
            Op::Checkin(k) => {
                let rev = loaded.revs[k].load(Ordering::Acquire) + 1;
                let body = util::payload(seed, k as u64, rev, BODY);
                let (res, d) = util::timed(|| checkin(&mut conn, loaded.oids[k], body));
                res.map(|()| {
                    out.checkin.push(d);
                    out.windows.push(d, 2);
                    loaded.revs[k].store(rev, Ordering::Release);
                    out.checkins_ok += 1;
                    None
                })
            }
        };
        match checked {
            Ok(None) => {}
            Ok(Some(err)) => {
                out.errors.push(err);
                until.abort();
            }
            Err(_) => out.tally.failed += 1,
        }
    }
    out
}

/// One request, one response; an error frame is a failed op.
pub fn call(conn: &mut OdeClient, request: &Request) -> ode_net::Result<Response> {
    let seq = conn.send(request)?;
    match conn.recv_for(seq)? {
        Response::Err(e) => Err(ode_net::NetError::Remote(e)),
        other => Ok(other),
    }
}

fn checkin(conn: &mut OdeClient, oid: Oid, body: Vec<u8>) -> ode_net::Result<()> {
    let vid = match call(conn, &Request::NewVersion { oid })? {
        Response::Version(vid) => vid,
        other => {
            return Err(ode_net::NetError::Protocol(format!(
                "newversion: {other:?}"
            )))
        }
    };
    match call(
        conn,
        &Request::UpdateVersion {
            vid,
            tag: TAG,
            body,
        },
    )? {
        Response::Unit => Ok(()),
        other => Err(ode_net::NetError::Protocol(format!(
            "update_version: {other:?}"
        ))),
    }
}

impl ClientResult {
    fn new(windows: Windowed) -> ClientResult {
        ClientResult {
            read: Samples::default(),
            hist: Samples::default(),
            checkin: Samples::default(),
            windows,
            tally: Tally::default(),
            checkins_ok: 0,
            errors: Vec::new(),
        }
    }
}

/// One untraced measured phase: both connections for `phase`.
fn measure(served: &Served, seed: u64, phase: Duration) -> (ClientResult, f64) {
    let zipf = Arc::new(Zipf::new(OBJECTS, 0.99));
    let addr = served.server.local_addr();
    let stop = AtomicBool::new(false);
    let threads = Mutex::new(0.0);
    let start = Instant::now();
    let until = Until {
        deadline: start + phase,
        abort: &stop,
    };
    let windows = Windowed::new(start, phase, WINDOW);
    let results: Vec<ClientResult> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let (zipf, windows) = (Arc::clone(&zipf), windows.clone());
                let (loaded, until) = (&served.loaded, &until);
                s.spawn(move || client_loop(addr, seed, c, loaded, zipf, windows, until))
            })
            .collect();
        std::thread::sleep(Duration::from_millis(200));
        *threads.lock().expect("thread count lock") = util::process_threads();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let mut total = ClientResult::new(windows.clone());
    for r in results {
        total.read.extend(&r.read);
        total.hist.extend(&r.hist);
        total.checkin.extend(&r.checkin);
        total.windows.merge(&r.windows);
        total.tally.add(r.tally);
        total.checkins_ok += r.checkins_ok;
        total.errors.extend(r.errors);
    }
    let threads = *threads.lock().expect("thread count lock");
    (total, threads)
}

pub fn run(cfg: &Config) -> Outcome {
    let work = WorkDir::new("wire_oltp");
    let mut m = Metrics::default();
    let (rounds, phase) = cfg.phases();
    let mut setups = Vec::new();
    let mut windows = Windowed::default();
    let mut errors = Vec::new();
    let mut tally = Tally::default();
    let mut last = None;
    for i in 0..rounds {
        let (served, secs) = setup(&work, cfg.seed, &format!("setup{i}.db"));
        setups.push(secs);
        let (buf0, st0) = (served.db.buffer_stats(), served.db.storage_stats());
        let (mut res, threads) = measure(&served, cfg.seed, phase);
        let (buf1, st1) = (served.db.buffer_stats(), served.db.storage_stats());
        let (misses, evictions) = (buf1.misses - buf0.misses, buf1.evictions - buf0.evictions);
        if misses == 0 || evictions == 0 {
            errors.push(format!(
                "measured phase stayed cache-resident: {misses} buffer misses, {evictions} evictions"
            ));
        }
        errors.append(&mut res.errors);
        tally.add(res.tally);
        windows.append(std::mem::take(&mut res.windows));
        if i + 1 < rounds {
            // Tear each round's store down and delete it before the
            // next set-up, so rounds never share the page cache budget.
            teardown(served);
            let _ = std::fs::remove_file(work.file(&format!("setup{i}.db")));
            let _ = std::fs::remove_file(work.file(&format!("setup{i}.db.wal")));
        } else {
            last = Some((served, res, threads, (buf0, buf1, st0, st1)));
        }
    }
    // Per-op-type figures and layer counters come from the last round.
    let (served, res, threads, (buf0, buf1, st0, st1)) = last.expect("at least one round");
    let db_path = work.file(&format!("setup{}.db", rounds - 1));
    let stats = served.server.stats();

    m.set("setup_s", util::median(setups), "s");
    m.set("ops_per_s", windows.rate(), "1/s");
    m.set("op_p50_us", windows.quantile_us(0.5), "us");
    m.set("op_p99_us", windows.quantile_us(0.99), "us");
    crate::op_latencies(&mut m, "read", &res.read);
    crate::op_latencies(&mut m, "hist_read", &res.hist);
    crate::op_latencies(&mut m, "checkin", &res.checkin);
    m.set("failed_frac", tally.failed_frac(), "ratio");

    crate::storage_counters(&mut m, &buf0, &buf1, &st0, &st1);
    let reads = stats.snapshot_hits + stats.snapshot_misses;
    m.set(
        "net.snapshot_hit_ratio",
        stats.snapshot_hits as f64 / reads.max(1) as f64,
        "ratio",
    );
    m.set(
        "net.bytes_out_per_op",
        stats.bytes_out as f64 / stats.total_requests().max(1) as f64,
        "B",
    );
    m.set("net.process_threads", threads, "count");
    m.set("net.op_errors", stats.op_errors as f64, "count");
    m.set("net.protocol_errors", stats.protocol_errors as f64, "count");

    let live_versions = (OBJECTS * VERSIONS) as u64 + res.checkins_ok;
    let raw = live_versions * BODY as u64;
    let Served { db, server, loaded } = served;
    server.shutdown();
    db.checkpoint().expect("final checkpoint");
    drop(db);
    m.set(
        "space_amp",
        util::store_bytes(&db_path) as f64 / raw as f64,
        "ratio",
    );

    if cfg.trace && errors.is_empty() {
        let stage = replay(cfg, &db_path, &loaded, &mut m, &mut errors, &mut tally);
        let e2e = [
            (OpKind::Read, res.read.clone()),
            (OpKind::HistRead, res.hist.clone()),
            (OpKind::Checkin, res.checkin.clone()),
        ];
        crate::stage_report(&mut m, &stage, &e2e, true);
    }
    m.set("rss_mb", util::rss_hwm_mb(), "MB");
    Outcome {
        metrics: m,
        tally,
        errors,
    }
}

fn teardown(s: Served) {
    s.server.shutdown();
    drop(s.db);
}

/// Replay the seeded op stream in-process through the storage and
/// version layers, alternating traced and untraced ops so both see the
/// same cache state.
fn replay(
    cfg: &Config,
    db_path: &Path,
    loaded: &Loaded,
    m: &mut Metrics,
    errors: &mut Vec<String>,
    tally: &mut Tally,
) -> StageInput {
    let store = Store::open(db_path, StoreOptions::default()).expect("reopen for replay");
    let versions = VersionStore::new(VersionStoreLayout::default());
    let cache = MaterializeCache::new(1024);
    let layers = Layers {
        store: &store,
        versions: &versions,
        cache: &cache,
    };
    let tracer = RefCell::new(Tracer::default());
    let mut untraced: std::collections::BTreeMap<OpKind, Samples> = Default::default();
    let mut direct = DirectCalls::default();
    let (mut wal_bytes, mut wal_n) = (0u64, 0u64);
    let zipf = Arc::new(Zipf::new(OBJECTS, 0.99));
    let mut gens: Vec<OpGen> = (0..CLIENTS)
        .map(|c| OpGen::new(cfg.seed, c, Arc::clone(&zipf)))
        .collect();
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
        let kind = match op {
            Op::Read(_) => OpKind::Read,
            Op::Hist(..) => OpKind::HistRead,
            Op::Checkin(_) => OpKind::Checkin,
        };
        tally.attempted += 1;
        let start = Instant::now();
        let bad = match op {
            Op::Read(k) => {
                let floor = loaded.revs[k].load(Ordering::Relaxed);
                let res = probe.op(kind, || layers.deref_raw(probe, loaded.oids[k], TAG));
                let d = start.elapsed();
                res.map(|(vid, body)| {
                    record(&mut untraced, probe, kind, d);
                    direct.codec(&body);
                    direct.wire(&Request::Deref { oid: loaded.oids[k], tag: TAG }, &Response::Body { vid, bytes: body.clone() });
                    !matches!(util::check_payload(seed, &body, BODY), Some((o, r)) if o == k as u64 && r >= floor)
                })
            }
            Op::Hist(k, r) => {
                let vid = loaded.vids[k][r];
                let res = probe.op(kind, || layers.deref_version_raw(probe, vid, TAG));
                let d = start.elapsed();
                res.map(|body| {
                    record(&mut untraced, probe, kind, d);
                    direct.codec(&body);
                    direct.wire(
                        &Request::DerefVersion { vid, tag: TAG },
                        &Response::Body {
                            vid,
                            bytes: body.clone(),
                        },
                    );
                    body != util::payload(seed, k as u64, r as u64, BODY)
                })
            }
            Op::Checkin(k) => {
                let rev = loaded.revs[k].load(Ordering::Relaxed) + 1;
                let body = util::payload(seed, k as u64, rev, BODY);
                let wal0 = store.wal_len();
                let start = Instant::now();
                // As the server runs it: `NewVersion` and `UpdateVersion`
                // are two requests, each its own transaction.
                let res = probe.op(kind, || {
                    let vid = layers.newversion(probe, loaded.oids[k])?;
                    layers.put_version(probe, vid, TAG, body.clone())?;
                    Ok::<Vid, ode_version::VersionError>(vid)
                });
                let d = start.elapsed();
                let wal1 = store.wal_len();
                res.map(|vid| {
                    record(&mut untraced, probe, kind, d);
                    if wal1 > wal0 {
                        wal_bytes += wal1 - wal0;
                        wal_n += 1;
                    }
                    let old = util::payload(seed, k as u64, rev - 1, BODY);
                    direct.codec(&body);
                    direct.delta(&old, &body);
                    direct.wire(
                        &Request::NewVersion {
                            oid: loaded.oids[k],
                        },
                        &Response::Version(vid),
                    );
                    direct.wire(
                        &Request::UpdateVersion {
                            vid,
                            tag: TAG,
                            body: body.clone(),
                        },
                        &Response::Unit,
                    );
                    loaded.revs[k].store(rev, Ordering::Relaxed);
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
    m.set(
        "storage.wal_bytes_per_checkin",
        wal_bytes as f64 / wal_n.max(1) as f64,
        "B",
    );
    m.set("version.chain_record_bytes_per_checkin", 0.0, "B");
    let (hits, misses) = cache.counters();
    m.set(
        "version.materialize_hit_ratio",
        hits as f64 / (hits + misses).max(1) as f64,
        "ratio",
    );
    StageInput {
        tracer: tracer.into_inner(),
        untraced,
    }
}

fn record(
    untraced: &mut std::collections::BTreeMap<OpKind, Samples>,
    probe: Probe,
    kind: OpKind,
    d: Duration,
) {
    if probe.0.is_none() {
        untraced.entry(kind).or_default().push(d);
    }
}
