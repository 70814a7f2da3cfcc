//! `chain_history`: embedded version history over anchored delta
//! chains (interval 16), fsync off so the numbers show record layout
//! and CPU rather than the device. One client thread, so every count
//! repeats exactly for a given seed.
//!
//! Check-ins lengthen histories, so results depend on how many
//! operations ran. A run therefore repeats one fixed pass of
//! `PASS_OPS` operations, each time on a fresh copy of the loaded
//! store, until `--seconds` have passed; the first two passes must
//! agree on every count.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::path::Path;
use std::time::{Duration, Instant};

use ode::{ChainConfig, Database, DatabaseOptions, MergePolicy, Oid, TypeTag, Vid};
use ode_storage::buffer::BufferStats;
use ode_storage::{Store, StoreOptions, StoreStats};
use ode_version::{MaterializeCache, VersionStore, VersionStoreLayout};

use crate::trace::{DirectCalls, Layers, OpKind, Probe, Tracer, PAGE_READ, PAGE_WRITE};
use crate::util::{self, Metrics, Rng, Samples, Tally, Windowed, WorkDir};
use crate::{Config, Outcome, StageInput};

const TAG: TypeTag = TypeTag::from_name("perfbench/Doc");
const OBJECTS: usize = 64;
const SIZES: [usize; 3] = [512, 2048, 8192];
const LOADED_VERSIONS: usize = 64;
const INTERVAL: u64 = 16;
/// Window of the gated figures: over 1000 ops, so each window's p99 has
/// at least ten samples beyond it.
const WINDOW: Duration = Duration::from_secs(1);
/// Operations in one pass; every pass replays the same stream.
const PASS_OPS: usize = 3000;

fn options() -> DatabaseOptions {
    DatabaseOptions::no_sync().with_chain(ChainConfig::with_interval(INTERVAL))
}

fn store_options() -> StoreOptions {
    options().storage
}

/// Where a splice may land: anywhere, or in the low or high half with
/// margins, so that the two forks of a merge never touch.
#[derive(Clone, Copy)]
enum Region {
    Any,
    Low,
    High,
}

/// One version: the version it was derived from and the splices
/// applied to that version's bytes. The oracle keeps only this, never
/// the bytes.
#[derive(Clone)]
struct Entry {
    vid: Vid,
    base: Option<usize>,
    splices: Vec<(u64, Region)>,
}

#[derive(Clone)]
struct Object {
    oid: Oid,
    size: usize,
    entries: Vec<Entry>,
}

impl Object {
    fn tip(&self) -> usize {
        self.entries.len() - 1
    }
}

fn splice(buf: &mut [u8], seed: u64, region: Region) {
    let size = buf.len();
    let len = (size / 50).max(8);
    let margin = size / 16;
    let (lo, hi) = match region {
        Region::Any => (0, size - len),
        Region::Low => (margin, size / 2 - margin - len),
        Region::High => (size / 2 + margin, size - margin - len),
    };
    let mut rng = Rng::new(seed);
    let at = lo + rng.below((hi - lo + 1) as u64) as usize;
    rng.fill(&mut buf[at..at + len]);
}

/// The bytes of version `idx` of object `k`, rebuilt from the seed.
fn content(seed: u64, k: usize, obj: &Object, idx: usize) -> Vec<u8> {
    let mut lineage = vec![idx];
    while let Some(b) = obj.entries[*lineage.last().expect("non-empty")].base {
        lineage.push(b);
    }
    let mut buf = vec![0u8; obj.size];
    Rng::new(util::mix(&[seed, k as u64, 0x696e6974])).fill(&mut buf);
    for &i in lineage.iter().rev() {
        for &(s, region) in &obj.entries[i].splices {
            splice(&mut buf, s, region);
        }
    }
    buf
}

fn splice_seed(seed: u64, k: usize, idx: usize, side: u64) -> u64 {
    util::mix(&[seed, k as u64, idx as u64, side])
}

fn load(path: &Path, seed: u64) -> Vec<Object> {
    let db = Database::create(path, options()).expect("create chain_history db");
    let mut objects = Vec::with_capacity(OBJECTS);
    for k in 0..OBJECTS {
        let mut obj = Object {
            oid: Oid(0),
            size: SIZES[k % SIZES.len()],
            entries: Vec::new(),
        };
        let mut txn = db.begin();
        obj.entries.push(Entry {
            vid: Vid(0),
            base: None,
            splices: Vec::new(),
        });
        let (oid, v0) = txn
            .pnew_raw(TAG, content(seed, k, &obj, 0))
            .expect("load pnew");
        obj.oid = oid;
        obj.entries[0].vid = v0;
        for i in 1..LOADED_VERSIONS {
            obj.entries.push(Entry {
                vid: Vid(0),
                base: Some(i - 1),
                splices: vec![(splice_seed(seed, k, i, 0), Region::Any)],
            });
            let vid = txn.newversion_raw(oid).expect("load newversion");
            txn.put_version_raw(vid, TAG, content(seed, k, &obj, i))
                .expect("load put");
            obj.entries[i].vid = vid;
        }
        txn.commit().expect("load commit");
        objects.push(obj);
    }
    db.checkpoint().expect("load checkpoint");
    objects
}

#[derive(Clone, Copy)]
enum Op {
    Read(usize),
    Hist(usize, usize),
    Checkin(usize),
    Merge(usize),
}

/// The op stream: 30% latest reads, 45% reads of a uniformly chosen
/// older version, 20% check-ins, 5% fork-and-merge, over uniformly
/// chosen objects. Op types and objects are dealt from shuffled decks
/// (20 op types, all 64 objects), so every seed gets exactly the same
/// mix of op types and object sizes and seeds differ only in order,
/// versions read and splice positions.
struct OpStream {
    rng: Rng,
    kinds: Vec<u8>,
    objects: Vec<usize>,
}

impl OpStream {
    fn new(seed: u64) -> OpStream {
        OpStream {
            rng: Rng::new(util::mix(&[seed, 0x0063_6861_696e])),
            kinds: Vec::new(),
            objects: Vec::new(),
        }
    }

    fn shuffle<T>(rng: &mut Rng, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, rng.below(i as u64 + 1) as usize);
        }
    }

    fn next(&mut self, objects: &[Object]) -> Op {
        if self.kinds.is_empty() {
            self.kinds = [[0u8; 6].as_slice(), &[1; 9], &[2; 4], &[3; 1]].concat();
            Self::shuffle(&mut self.rng, &mut self.kinds);
        }
        if self.objects.is_empty() {
            self.objects = (0..OBJECTS).collect();
            Self::shuffle(&mut self.rng, &mut self.objects);
        }
        let k = self.objects.pop().expect("dealt");
        match self.kinds.pop().expect("dealt") {
            0 => Op::Read(k),
            1 => Op::Hist(k, self.rng.below(objects[k].tip() as u64) as usize),
            2 => Op::Checkin(k),
            _ => Op::Merge(k),
        }
    }
}

fn kind_of(op: Op) -> OpKind {
    match op {
        Op::Read(_) => OpKind::Read,
        Op::Hist(..) => OpKind::HistRead,
        Op::Checkin(_) => OpKind::Checkin,
        Op::Merge(_) => OpKind::Merge,
    }
}

/// Append the oracle entries a check-in or fork-and-merge creates;
/// returns their bodies.
fn plan_write(seed: u64, k: usize, obj: &mut Object, op: Op) -> Vec<Vec<u8>> {
    let tip = obj.tip();
    let n = obj.entries.len();
    let new = |splices| Entry {
        vid: Vid(0),
        base: Some(tip),
        splices,
    };
    match op {
        Op::Checkin(_) => {
            obj.entries
                .push(new(vec![(splice_seed(seed, k, n, 0), Region::Any)]));
            vec![content(seed, k, obj, n)]
        }
        _ => {
            let a = (splice_seed(seed, k, n, 1), Region::Low);
            let b = (splice_seed(seed, k, n, 2), Region::High);
            obj.entries.push(new(vec![a]));
            obj.entries.push(new(vec![b]));
            obj.entries.push(new(vec![a, b]));
            (n..n + 3).map(|i| content(seed, k, obj, i)).collect()
        }
    }
}

/// Counts one pass produced. Two passes over the same seed must agree
/// on every one of them.
#[derive(Default, PartialEq, Eq, Debug, Clone)]
struct Counts {
    page_lookups: BTreeMap<&'static str, u64>,
    wal_bytes: u64,
    chain_record_bytes: u64,
    materialize: (u64, u64),
}

#[derive(Default)]
struct PassResult {
    samples: BTreeMap<OpKind, Samples>,
    tally: Tally,
    counts: Counts,
    errors: Vec<String>,
    live_raw_bytes: u64,
    buffer: (BufferStats, BufferStats),
    storage: (StoreStats, StoreStats),
}

/// One pass through the embedded API (`ode::Database`), untraced.
fn pass(path: &Path, seed: u64, loaded: &[Object], windows: &mut Windowed) -> PassResult {
    let db = Database::open(path, options()).expect("open pass copy");
    let mut objects = loaded.to_vec();
    let mut stream = OpStream::new(seed);
    let mut out = PassResult::default();
    let mut record = |out: &mut PassResult, kind: OpKind, d: Duration| {
        out.samples.entry(kind).or_default().push(d);
        windows.push(d, 1);
    };
    let wal0 = db.wal_len();
    let (b0, s0) = (db.buffer_stats(), db.storage_stats());
    for _ in 0..PASS_OPS {
        let op = stream.next(&objects);
        let kind = kind_of(op);
        out.tally.attempted += 1;
        let lookups0 = lookups(&db);
        let result: Result<Option<String>, ode::Error> = match op {
            Op::Read(k) => {
                let obj = &objects[k];
                let (res, d) = util::timed(|| db.snapshot().deref_raw(obj.oid, TAG));
                res.map(|(vid, body)| {
                    record(&mut out, kind, d);
                    let ok = vid == obj.entries[obj.tip()].vid
                        && body == content(seed, k, obj, obj.tip());
                    (!ok).then(|| format!("latest read of object {k} returned a wrong body"))
                })
            }
            Op::Hist(k, j) => {
                let obj = &objects[k];
                let vid = obj.entries[j].vid;
                let (res, d) = util::timed(|| db.snapshot().deref_version_raw(vid, TAG));
                res.map(|body| {
                    record(&mut out, kind, d);
                    (body != content(seed, k, obj, j))
                        .then(|| format!("read of version {j} of object {k} returned a wrong body"))
                })
            }
            Op::Checkin(k) | Op::Merge(k) => {
                let mut planned = objects[k].clone();
                let tip_vid = planned.entries[planned.tip()].vid;
                let bodies = plan_write(seed, k, &mut planned, op);
                let (res, d) = util::timed(|| write_op(&db, planned.oid, tip_vid, bodies));
                res.map(|vids| {
                    record(&mut out, kind, d);
                    let n = planned.entries.len() - vids.len();
                    for (i, vid) in vids.into_iter().enumerate() {
                        planned.entries[n + i].vid = vid;
                    }
                    let chain = db.snapshot().chain_stats_raw(planned.oid);
                    out.counts.chain_record_bytes +=
                        chain.ok().flatten().map_or(0, |c| c.encoded_bytes);
                    objects[k] = planned;
                    None
                })
            }
        };
        *out.counts.page_lookups.entry(kind.name()).or_default() += lookups(&db) - lookups0;
        match result {
            Ok(None) => {}
            Ok(Some(e)) => {
                out.errors.push(e);
                break;
            }
            Err(_) => out.tally.failed += 1,
        }
    }
    out.counts.wal_bytes = db.wal_len().wrapping_sub(wal0);
    out.counts.materialize = db.materialize_cache_counters();
    out.buffer = (b0, db.buffer_stats());
    out.storage = (s0, db.storage_stats());
    out.live_raw_bytes = objects
        .iter()
        .map(|o| (o.size * o.entries.len()) as u64)
        .sum();
    out
}

fn lookups(db: &Database) -> u64 {
    let b = db.buffer_stats();
    b.hits + b.misses
}

/// A check-in (one new version) or a fork-and-merge (two forks of the
/// tip plus their merge), in one transaction, as `ode::Txn` calls.
fn write_op(db: &Database, oid: Oid, tip: Vid, bodies: Vec<Vec<u8>>) -> ode::Result<Vec<Vid>> {
    let mut txn = db.begin();
    let vids = if bodies.len() == 1 {
        let vid = txn.newversion_raw(oid)?;
        let body = bodies.into_iter().next().expect("one body");
        txn.put_version_raw(vid, TAG, body)?;
        vec![vid]
    } else {
        let mut it = bodies.into_iter();
        let a = txn.newversion_from_raw(tip)?;
        txn.put_version_raw(a, TAG, it.next().expect("ours"))?;
        let b = txn.newversion_from_raw(tip)?;
        txn.put_version_raw(b, TAG, it.next().expect("theirs"))?;
        let (merged, conflicts) = txn.merge_raw(a, b, MergePolicy::Fail)?;
        match merged {
            Some(m) if conflicts.is_empty() => vec![a, b, m],
            _ => return Err(ode::Error::MergeMismatch { a, b }),
        }
    };
    txn.commit()?;
    Ok(vids)
}

fn copy_store(from: &Path, to: &Path) {
    std::fs::copy(from, to).expect("copy loaded store");
    let wal = |p: &Path| std::path::PathBuf::from(format!("{}.wal", p.display()));
    let _ = std::fs::remove_file(wal(to));
    if wal(from).exists() {
        std::fs::copy(wal(from), wal(to)).expect("copy loaded wal");
    }
}

pub fn run(cfg: &Config) -> Outcome {
    let work = WorkDir::new("chain_history");
    let mut m = Metrics::default();
    let loaded_path = work.file("loaded.db");
    let pass_path = work.file("pass.db");
    let (rounds, phase) = cfg.phases();
    let mut setups = Vec::new();
    let mut loaded = Vec::new();
    let mut windows = Windowed::default();
    let mut samples: BTreeMap<OpKind, Samples> = BTreeMap::new();
    let mut tally = Tally::default();
    let mut live_raw_bytes = 0;
    let mut first_counts: Option<Counts> = None;
    let mut first_stats = None;
    let mut errors = Vec::new();
    let mut passes = 0;
    for round in 0..rounds {
        let start = Instant::now();
        loaded = load(&loaded_path, cfg.seed);
        drop(Database::open(&loaded_path, options()).expect("reopen loaded store"));
        setups.push(start.elapsed().as_secs_f64());

        // Measured phase: whole passes on fresh copies until the
        // phase is over, and at least two passes in the run.
        let start = Instant::now();
        let mut phase_windows = Windowed::new(start, phase, WINDOW);
        while Instant::now() < start + phase || (round + 1 == rounds && passes < 2) {
            copy_store(&loaded_path, &pass_path);
            let r = pass(&pass_path, cfg.seed, &loaded, &mut phase_windows);
            passes += 1;
            match &first_counts {
                None => {
                    first_counts = Some(r.counts.clone());
                    first_stats = Some((r.buffer, r.storage));
                }
                Some(c) if *c != r.counts => errors.push(format!(
                    "determinism: pass {passes} counts differ from pass 1: {:?} vs {c:?}",
                    r.counts
                )),
                Some(_) => {}
            }
            for (kind, s) in &r.samples {
                samples.entry(*kind).or_default().extend(s);
            }
            tally.add(r.tally);
            live_raw_bytes = r.live_raw_bytes;
            errors.extend(r.errors);
            if !errors.is_empty() {
                break;
            }
        }
        windows.append(phase_windows);
        if !errors.is_empty() {
            break;
        }
    }
    let counts = first_counts.unwrap_or_default();
    if let Some(((b0, b1), (s0, s1))) = first_stats {
        crate::storage_counters(&mut m, &b0, &b1, &s0, &s1);
    }

    m.set("setup_s", util::median(setups), "s");
    m.set("ops_per_s", windows.rate(), "1/s");
    m.set("op_p50_us", windows.quantile_us(0.5), "us");
    m.set("op_p99_us", windows.quantile_us(0.99), "us");
    let get = |k: OpKind| samples.get(&k).cloned().unwrap_or_default();
    crate::op_latencies(&mut m, "read", &get(OpKind::Read));
    crate::op_latencies(&mut m, "hist_read", &get(OpKind::HistRead));
    crate::op_latencies(&mut m, "checkin", &get(OpKind::Checkin));
    crate::op_latencies(&mut m, "merge", &get(OpKind::Merge));
    m.set("failed_frac", tally.failed_frac(), "ratio");
    m.set("passes", passes as f64, "count");
    let per_pass = |kind: OpKind| {
        let n = samples.get(&kind).map_or(0, Samples::len) as f64 / passes as f64;
        counts.page_lookups.get(kind.name()).copied().unwrap_or(0) as f64 / n.max(1.0)
    };
    for kind in [
        OpKind::Read,
        OpKind::HistRead,
        OpKind::Checkin,
        OpKind::Merge,
    ] {
        m.set(
            format!("pass.page_lookups_per_op.{}", kind.name()),
            per_pass(kind),
            "count",
        );
    }
    m.set("pass.wal_bytes", counts.wal_bytes as f64, "B");
    m.set(
        "pass.chain_record_bytes",
        counts.chain_record_bytes as f64,
        "B",
    );
    m.set(
        "pass.materialize_hits",
        counts.materialize.0 as f64,
        "count",
    );
    m.set(
        "pass.materialize_misses",
        counts.materialize.1 as f64,
        "count",
    );

    // Space: the last pass's store after a final checkpoint.
    {
        let db = Database::open(&pass_path, options()).expect("reopen for space");
        db.checkpoint().expect("final checkpoint");
    }
    m.set(
        "space_amp",
        util::store_bytes(&pass_path) as f64 / live_raw_bytes.max(1) as f64,
        "ratio",
    );

    if cfg.trace && errors.is_empty() {
        let stage = replay(
            cfg,
            &work,
            &loaded_path,
            &loaded,
            &mut m,
            &mut errors,
            &mut tally,
        );
        let e2e: Vec<(OpKind, Samples)> = [
            OpKind::Read,
            OpKind::HistRead,
            OpKind::Checkin,
            OpKind::Merge,
        ]
        .into_iter()
        .map(|k| (k, get(k)))
        .collect();
        crate::stage_report(&mut m, &stage, &e2e, false);
    }
    m.set("rss_mb", util::rss_hwm_mb(), "MB");
    Outcome {
        metrics: m,
        tally,
        errors,
    }
}

/// Span counts and layer counters of one replay pass: what two replays
/// of the same seed must agree on.
#[derive(PartialEq, Debug)]
struct ReplayCounts {
    spans: Vec<(OpKind, &'static str, u64)>,
    wal_bytes: u64,
    chain_record_bytes: u64,
    materialize: (u64, u64),
}

struct Replayed {
    stage: StageInput,
    direct: DirectCalls,
    counts: ReplayCounts,
    checkins: u64,
}

/// Replay one pass in-process through the layers `Database` composes,
/// alternating traced and untraced ops.
fn replay_pass(
    path: &Path,
    seed: u64,
    op_seed: u64,
    loaded: &[Object],
    ops: usize,
    errors: &mut Vec<String>,
    tally: &mut Tally,
) -> Replayed {
    let store = Store::open(path, store_options()).expect("open replay copy");
    let versions = VersionStore::with_chain(
        VersionStoreLayout::default(),
        ChainConfig::with_interval(INTERVAL),
    );
    let cache = MaterializeCache::new(1024);
    let layers = Layers {
        store: &store,
        versions: &versions,
        cache: &cache,
    };
    let tracer = RefCell::new(Tracer::default());
    let mut untraced: BTreeMap<OpKind, Samples> = BTreeMap::new();
    let mut direct = DirectCalls::default();
    let mut objects = loaded.to_vec();
    let mut stream = OpStream::new(op_seed);
    let (mut chain_bytes, mut checkins) = (0u64, 0u64);
    let wal0 = store.wal_len();
    for i in 0..ops {
        let probe = if i % 2 == 0 {
            Probe(Some(&tracer))
        } else {
            Probe(None)
        };
        let op = stream.next(&objects);
        let kind = kind_of(op);
        tally.attempted += 1;
        let start = Instant::now();
        let result: ode_version::Result<bool> = match op {
            Op::Read(k) => {
                let obj = &objects[k];
                let res = probe.op(kind, || layers.deref_raw(probe, obj.oid, TAG));
                let d = start.elapsed();
                res.map(|(vid, body)| {
                    if probe.0.is_none() {
                        untraced.entry(kind).or_default().push(d);
                    }
                    direct.codec(&body);
                    direct.wire(
                        &ode_net::Request::Deref {
                            oid: obj.oid,
                            tag: TAG,
                        },
                        &ode_net::Response::Body {
                            vid,
                            bytes: body.clone(),
                        },
                    );
                    vid != obj.entries[obj.tip()].vid || body != content(seed, k, obj, obj.tip())
                })
            }
            Op::Hist(k, j) => {
                let obj = &objects[k];
                let vid = obj.entries[j].vid;
                let res = probe.op(kind, || layers.deref_version_raw(probe, vid, TAG));
                let d = start.elapsed();
                res.map(|body| {
                    if probe.0.is_none() {
                        untraced.entry(kind).or_default().push(d);
                    }
                    direct.codec(&body);
                    direct.wire(
                        &ode_net::Request::DerefVersion { vid, tag: TAG },
                        &ode_net::Response::Body {
                            vid,
                            bytes: body.clone(),
                        },
                    );
                    body != content(seed, k, obj, j)
                })
            }
            Op::Checkin(k) | Op::Merge(k) => {
                let mut planned = objects[k].clone();
                let tip = planned.tip();
                let tip_vid = planned.entries[tip].vid;
                let old = content(seed, k, &planned, tip);
                let bodies = plan_write(seed, k, &mut planned, op);
                for b in &bodies {
                    direct.codec(b);
                    direct.delta(&old, b);
                }
                let start = Instant::now();
                let res = probe.op(kind, || -> ode_version::Result<Vec<Vid>> {
                    if let [body] = &bodies[..] {
                        Ok(vec![layers.checkin(
                            probe,
                            planned.oid,
                            TAG,
                            body.clone(),
                        )?])
                    } else {
                        match layers.fork_merge(
                            probe,
                            tip_vid,
                            TAG,
                            bodies[0].clone(),
                            bodies[1].clone(),
                        )? {
                            (a, b, Some(m)) => Ok(vec![a, b, m]),
                            (a, b, None) => Err(ode_version::VersionError::MergeMismatch { a, b }),
                        }
                    }
                });
                let d = start.elapsed();
                res.map(|vids| {
                    if probe.0.is_none() {
                        untraced.entry(kind).or_default().push(d);
                    }
                    let n = planned.entries.len() - vids.len();
                    for (i, vid) in vids.into_iter().enumerate() {
                        planned.entries[n + i].vid = vid;
                    }
                    let mut rtx = store.read();
                    let stats = versions.chain_stats(&mut rtx, planned.oid).ok().flatten();
                    chain_bytes += stats.map_or(0, |c| c.encoded_bytes);
                    checkins += 1;
                    objects[k] = planned;
                    false
                })
            }
        };
        match result {
            Ok(false) => {}
            Ok(true) => {
                errors.push(format!("replayed {} returned a wrong body", kind.name()));
                break;
            }
            Err(_) => tally.failed += 1,
        }
    }
    let tracer = tracer.into_inner();
    let mut spans = Vec::new();
    for kind in tracer.kinds() {
        for stage in [PAGE_READ, PAGE_WRITE] {
            let n = tracer.count_per_op(kind, stage) * tracer.op_count(kind) as f64;
            spans.push((kind, stage, n.round() as u64));
        }
    }
    let counts = ReplayCounts {
        spans,
        wal_bytes: store.wal_len().wrapping_sub(wal0),
        chain_record_bytes: chain_bytes,
        materialize: cache.counters(),
    };
    Replayed {
        stage: StageInput { tracer, untraced },
        direct,
        counts,
        checkins,
    }
}

fn replay(
    cfg: &Config,
    work: &WorkDir,
    loaded_path: &Path,
    loaded: &[Object],
    m: &mut Metrics,
    errors: &mut Vec<String>,
    tally: &mut Tally,
) -> StageInput {
    let path = work.file("replay.db");
    copy_store(loaded_path, &path);
    let first = replay_pass(&path, cfg.seed, cfg.seed, loaded, PASS_OPS, errors, tally);
    copy_store(loaded_path, &path);
    let second = replay_pass(&path, cfg.seed, cfg.seed, loaded, PASS_OPS, errors, tally);
    if first.counts != second.counts {
        errors.push(format!(
            "determinism: two replays of seed {} disagree: {:?} vs {:?}",
            cfg.seed, first.counts, second.counts
        ));
    }
    // Another seed must yield the same set of metric names.
    copy_store(loaded_path, &path);
    let other = replay_pass(
        &path,
        cfg.seed,
        cfg.seed ^ 1,
        loaded,
        PASS_OPS / 10,
        errors,
        tally,
    );
    let names = |r: &Replayed| {
        let mut mm = Metrics::default();
        r.direct.report(&mut mm);
        crate::layer_metrics(&mut mm, &r.stage.tracer);
        mm.0.into_keys().collect::<Vec<String>>()
    };
    if names(&first) != names(&other) {
        errors.push("determinism: another seed reports a different set of metrics".into());
    }

    first.direct.report(m);
    m.set(
        "storage.wal_bytes_per_checkin",
        first.counts.wal_bytes as f64 / first.checkins.max(1) as f64,
        "B",
    );
    m.set(
        "version.chain_record_bytes_per_checkin",
        first.counts.chain_record_bytes as f64 / first.checkins.max(1) as f64,
        "B",
    );
    let (hits, misses) = first.counts.materialize;
    m.set(
        "version.materialize_hit_ratio",
        hits as f64 / (hits + misses).max(1) as f64,
        "ratio",
    );
    m.set("version.materialize_hits", hits as f64, "count");
    m.set("version.materialize_misses", misses as f64, "count");

    m.set("net.process_threads", util::process_threads(), "count");
    m.set("net.snapshot_hit_ratio", 0.0, "ratio");
    m.set("net.bytes_out_per_op", 0.0, "B");
    m.set("net.op_errors", 0.0, "count");
    m.set("net.protocol_errors", 0.0, "count");
    first.stage
}
