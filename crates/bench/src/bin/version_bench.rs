//! `version_bench` — delta-chain version storage vs whole-body copies.
//!
//! ```text
//! version_bench [objects] [versions-per-object] [body-bytes] [read-rounds]
//! ```
//!
//! Builds identical version histories (evolving documents: shared
//! prefix, point edits, slight growth per revision) in three engines —
//! whole-body storage, and chain storage at anchor intervals 4 and
//! 16 — then reports, as JSON on stdout (the shape checked into
//! `BENCH_core.json` under `version_bench`):
//!
//! - **space** — bytes the store holds per engine, and the chain/whole
//!   ratio. The paper's claim is that at ≥ 20 versions per object the
//!   chain stores at most a third of the whole-copy bytes. The headline
//!   also states both against the raw document bytes: a whole copy is
//!   the encoded `Doc`, whose `text` is a user `Vec<u8>` field and so
//!   pays the generic codec's one varint per byte (~1.5× raw); the
//!   store adds nothing on top, since its own byte strings are length
//!   prefix plus raw bytes.
//! - **latest reads** — ns per `deref` of the newest version. The chain
//!   keeps the newest body whole, so this must stay within noise of the
//!   whole-body engine (the acceptance bar is 10%).
//! - **historical reads** — ns per `deref_v` of a non-latest version,
//!   cold (every vid read once: true materialization cost, at most
//!   `interval − 1` delta applications) and warm (second pass served by
//!   the materialization cache), with the cache's hit/miss counters.
//! - **history curve** — check-in p50 and cold historical-read p50 as
//!   one store's histories grow through 16, 256, 1024 and 4096 versions
//!   per object (interval 16, 2 KiB bodies, fsync off). A segmented
//!   chain keeps both flat: a check-in touches the tail segment, a read
//!   one segment. The CI gate holds the history-4096 values to at most
//!   1.5× the history-16 values.

use std::time::Instant;

use ode::{ChainConfig, Database, DatabaseOptions, ObjPtr, VersionPtr};
use ode_codec::{impl_persist_struct, impl_type_name};

#[derive(Debug, Clone, PartialEq)]
struct Doc {
    rev: u64,
    text: Vec<u8>,
}
impl_persist_struct!(Doc { rev, text });
impl_type_name!(Doc = "bench/version/Doc");

struct Scratch(std::path::PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
        let mut wal = self.0.clone().into_os_string();
        wal.push(".wal");
        let _ = std::fs::remove_file(std::path::PathBuf::from(wal));
    }
}

/// Revision `rev` of object `obj`: a mostly-stable body with a few
/// point edits and a short appended suffix per revision — the shape
/// delta compression exists for.
fn body(obj: usize, rev: usize, bytes: usize) -> Vec<u8> {
    let mut b: Vec<u8> = (0..bytes)
        .map(|j| ((j * 31 + obj * 7) % 251) as u8)
        .collect();
    for k in 0..4 {
        let at = (rev * 97 + k * 53) % bytes.max(1);
        b[at] = (rev + k) as u8;
    }
    b.extend_from_slice(format!("-o{obj}r{rev}").as_bytes());
    b
}

struct Built {
    _scratch: Scratch,
    db: Database,
    objects: Vec<ObjPtr<Doc>>,
    versions: Vec<Vec<VersionPtr<Doc>>>,
    /// Sum of encoded body bytes as written — exactly what whole-body
    /// storage holds for this history.
    whole_bytes: u64,
    /// Sum of the raw document bytes (`Doc.text`) behind those bodies.
    raw_bytes: u64,
}

fn build(
    name: &str,
    options: DatabaseOptions,
    objects: usize,
    versions: usize,
    body_bytes: usize,
) -> Built {
    let mut path = std::env::temp_dir();
    path.push(format!("ode-version-bench-{name}-{}", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let db = Database::create(&path, options).expect("create bench db");
    let mut ptrs = Vec::with_capacity(objects);
    let mut vids = Vec::with_capacity(objects);
    let mut whole_bytes = 0u64;
    let mut raw_bytes = 0u64;
    let mut txn = db.begin();
    for o in 0..objects {
        let doc = Doc {
            rev: 0,
            text: body(o, 0, body_bytes),
        };
        whole_bytes += ode_codec::to_bytes(&doc).len() as u64;
        raw_bytes += doc.text.len() as u64;
        let p = txn.pnew(&doc).expect("pnew");
        let mut history = vec![txn.current_version(&p).expect("current")];
        for r in 1..versions {
            let v = txn.newversion(&p).expect("newversion");
            let doc = Doc {
                rev: r as u64,
                text: body(o, r, body_bytes),
            };
            whole_bytes += ode_codec::to_bytes(&doc).len() as u64;
            raw_bytes += doc.text.len() as u64;
            txn.put_version(&v, &doc).expect("put_version");
            history.push(v);
        }
        ptrs.push(p);
        vids.push(history);
    }
    txn.commit().expect("commit");
    Built {
        _scratch: Scratch(path),
        db,
        objects: ptrs,
        versions: vids,
        whole_bytes,
        raw_bytes,
    }
}

/// Bytes the store actually holds for version bodies: summed chain
/// records where objects are chained, whole-body sums otherwise.
fn stored_bytes(b: &Built) -> u64 {
    let mut snap = b.db.snapshot();
    let mut total = 0u64;
    let mut chained = false;
    for p in &b.objects {
        if let Some(s) = snap.chain_stats_raw(p.oid()).expect("chain stats") {
            total += s.encoded_bytes;
            chained = true;
        }
    }
    if chained {
        total
    } else {
        b.whole_bytes
    }
}

/// ns per latest-version read: fresh snapshot + `deref` per iteration,
/// the network tier's serving pattern.
fn latest_ns(b: &Built, rounds: usize) -> f64 {
    let start = Instant::now();
    let mut reads = 0u64;
    for _ in 0..rounds {
        for p in &b.objects {
            let mut snap = b.db.snapshot();
            let doc = snap.deref(p).expect("deref");
            assert!(!doc.text.is_empty());
            reads += 1;
        }
    }
    start.elapsed().as_nanos() as f64 / reads as f64
}

/// ns per historical (non-latest) read, visiting every historical vid
/// exactly once per call — the first call after a commit is all
/// materialization-cache misses, a repeat call is all hits.
fn historical_ns(b: &Built) -> f64 {
    let start = Instant::now();
    let mut reads = 0u64;
    for history in &b.versions {
        for v in &history[..history.len() - 1] {
            let mut snap = b.db.snapshot();
            let doc = snap.deref_v(v).expect("deref_v");
            assert!(!doc.text.is_empty());
            reads += 1;
        }
    }
    start.elapsed().as_nanos() as f64 / reads as f64
}

/// Objects in each history-curve store.
const CURVE_OBJECTS: usize = 4;
/// Versions per object in the history-curve stores.
const CURVE_HISTORY: [usize; 4] = [16, 256, 1024, 4096];
/// Measurement rounds, taken across all curve stores in turn so that
/// a burst of machine noise lands on every point alike.
const CURVE_ROUNDS: usize = 16;
/// Timed check-ins, and timed cold historical reads, per object per
/// round.
const CURVE_PER_OBJECT: usize = 3;
/// Buffer-pool pages for a curve store: enough to hold the history-4096
/// store whole (about 3,100 pages), so the curve measures the chain
/// layout and not pool misses.
const CURVE_POOL_PAGES: usize = 8192;

/// One history-curve store: [`CURVE_OBJECTS`] chained objects (interval
/// 16, 2 KiB bodies, fsync off) grown to a given history length.
struct CurveStore {
    _scratch: Scratch,
    db: Database,
    objects: Vec<ObjPtr<Doc>>,
    /// Next revision number per object.
    revs: Vec<usize>,
}

impl CurveStore {
    fn build(history: usize) -> CurveStore {
        let mut path = std::env::temp_dir();
        path.push(format!(
            "ode-version-bench-curve{history}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&path);
        let scratch = Scratch(path.clone());
        let mut options = DatabaseOptions::no_sync().with_chain(ChainConfig::with_interval(16));
        options.storage.buffer_pages = CURVE_POOL_PAGES;
        let db = Database::create(&path, options).expect("create curve db");
        let mut objects = Vec::with_capacity(CURVE_OBJECTS);
        for o in 0..CURVE_OBJECTS {
            let mut txn = db.begin();
            let p = txn
                .pnew(&Doc {
                    rev: 0,
                    text: body(o, 0, 2048),
                })
                .expect("pnew");
            txn.commit().expect("commit");
            // 64 check-ins to a transaction.
            for chunk in (1..history).collect::<Vec<_>>().chunks(64) {
                let mut txn = db.begin();
                for &r in chunk {
                    let v = txn.newversion(&p).expect("newversion");
                    let doc = Doc {
                        rev: r as u64,
                        text: body(o, r, 2048),
                    };
                    txn.put_version(&v, &doc).expect("put_version");
                }
                txn.commit().expect("commit");
            }
            objects.push(p);
        }
        CurveStore {
            _scratch: scratch,
            db,
            objects,
            revs: vec![history; CURVE_OBJECTS],
        }
    }

    /// One round: cold reads of distinct historical vids spread over
    /// every object's history (the latest excluded; the last commit
    /// emptied the materialization cache, and no vid repeats before the
    /// next one), then single-version check-ins, each in its own
    /// transaction. Appends microseconds per operation.
    fn round(&mut self, round: usize, checkins: &mut Vec<f64>, reads: &mut Vec<f64>) {
        let mut snap = self.db.snapshot();
        let histories: Vec<Vec<VersionPtr<Doc>>> = self
            .objects
            .iter()
            .map(|p| snap.version_history(p).expect("history"))
            .collect();
        drop(snap);
        for h in &histories {
            let n = h.len() - 1;
            for k in 0..CURVE_PER_OBJECT {
                let v = &h[(k * n / CURVE_PER_OBJECT + round * 7) % n];
                let start = Instant::now();
                let doc = self.db.snapshot().deref_v(v).expect("deref_v");
                reads.push(start.elapsed().as_secs_f64() * 1e6);
                assert!(!doc.text.is_empty());
            }
        }
        for _ in 0..CURVE_PER_OBJECT {
            for (o, p) in self.objects.iter().enumerate() {
                let doc = Doc {
                    rev: self.revs[o] as u64,
                    text: body(o, self.revs[o], 2048),
                };
                let start = Instant::now();
                let mut txn = self.db.begin();
                let v = txn.newversion(p).expect("newversion");
                txn.put_version(&v, &doc).expect("put_version");
                txn.commit().expect("commit");
                checkins.push(start.elapsed().as_secs_f64() * 1e6);
                self.revs[o] += 1;
            }
        }
    }
}

fn p50_us(mut samples: Vec<f64>) -> f64 {
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

/// The history curve: check-in p50 and cold historical-read p50 on one
/// store per [`CURVE_HISTORY`] length. Returns the JSON section.
fn history_curve() -> String {
    let mut stores: Vec<CurveStore> = CURVE_HISTORY.into_iter().map(CurveStore::build).collect();
    let mut samples = vec![(Vec::new(), Vec::new()); stores.len()];
    for round in 0..CURVE_ROUNDS {
        for (store, (checkins, reads)) in stores.iter_mut().zip(&mut samples) {
            store.round(round, checkins, reads);
        }
    }
    let points: Vec<(usize, f64, f64)> = CURVE_HISTORY
        .into_iter()
        .zip(samples)
        .map(|(h, (c, r))| (h, p50_us(c), p50_us(r)))
        .collect();
    let (first, last) = (points[0], points[points.len() - 1]);
    let rows: Vec<String> = points
        .iter()
        .map(|(h, c, r)| {
            format!(
                "{{\"history\": {h}, \"checkin_p50_us\": {}, \"hist_read_p50_us\": {}}}",
                json_f(*c),
                json_f(*r)
            )
        })
        .collect();
    format!(
        "{{\"objects\": {CURVE_OBJECTS}, \"interval\": 16, \"body_bytes\": 2048, \
         \"samples_per_point\": {}, \"points\": [{}], \
         \"checkin_ratio_4096_vs_16\": {:.3}, \"hist_read_ratio_4096_vs_16\": {:.3}}}",
        CURVE_ROUNDS * CURVE_PER_OBJECT * CURVE_OBJECTS,
        rows.join(", "),
        last.1 / first.1,
        last.2 / first.2
    )
}

fn json_f(v: f64) -> String {
    format!("{:.1}", v)
}

fn engine_block(b: &Built, whole_bytes: u64, interval: Option<u64>, rounds: usize) -> String {
    let bytes = stored_bytes(b);
    let latest = latest_ns(b, rounds);
    let (h0, m0) = b.db.materialize_cache_counters();
    let cold = historical_ns(b);
    let warm = historical_ns(b);
    let (h1, m1) = b.db.materialize_cache_counters();
    let chain_fields = match interval {
        Some(i) => format!(
            ", \"max_delta_applies\": {}, \"materialize_hits\": {}, \"materialize_misses\": {}",
            i - 1,
            h1 - h0,
            m1 - m0
        ),
        None => String::new(),
    };
    format!(
        "{{\"stored_bytes\": {bytes}, \"space_ratio\": {:.3}, \"latest_ns_per_read\": {}, \
         \"historical_cold_ns_per_read\": {}, \"historical_warm_ns_per_read\": {}{chain_fields}}}",
        bytes as f64 / whole_bytes.max(1) as f64,
        json_f(latest),
        json_f(cold),
        json_f(warm),
    )
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let objects: usize = args.first().and_then(|s| s.parse().ok()).unwrap_or(32);
    let versions: usize = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(24);
    let body_bytes: usize = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(2048);
    let rounds: usize = args.get(3).and_then(|s| s.parse().ok()).unwrap_or(64);

    let whole = build(
        "whole",
        DatabaseOptions::no_sync(),
        objects,
        versions,
        body_bytes,
    );
    let chain4 = build(
        "chain4",
        DatabaseOptions::no_sync().with_chain(ChainConfig::with_interval(4)),
        objects,
        versions,
        body_bytes,
    );
    let chain16 = build(
        "chain16",
        DatabaseOptions::no_sync().with_chain(ChainConfig::with_interval(16)),
        objects,
        versions,
        body_bytes,
    );
    assert_eq!(whole.whole_bytes, chain4.whole_bytes);
    assert_eq!(whole.whole_bytes, chain16.whole_bytes);
    let whole_bytes = whole.whole_bytes;

    let whole_block = engine_block(&whole, whole_bytes, None, rounds);
    let c4_block = engine_block(&chain4, whole_bytes, Some(4), rounds);
    let c16_block = engine_block(&chain16, whole_bytes, Some(16), rounds);

    let whole_latest = latest_ns(&whole, rounds);
    let c16_latest = latest_ns(&chain16, rounds);
    let overhead_pct = (c16_latest - whole_latest) / whole_latest.max(1.0) * 100.0;
    let chain16_bytes = stored_bytes(&chain16) as f64;
    let ratio16 = chain16_bytes / whole_bytes.max(1) as f64;
    let raw_bytes = whole.raw_bytes.max(1) as f64;

    println!("{{");
    println!("  \"benchmark\": \"version_delta_storage\",");
    println!("  \"objects\": {objects},");
    println!("  \"versions_per_object\": {versions},");
    println!("  \"body_bytes\": {body_bytes},");
    println!("  \"read_rounds\": {rounds},");
    println!("  \"raw_body_bytes\": {},", whole.raw_bytes);
    println!("  \"whole_copy\": {whole_block},");
    println!("  \"chain_interval_4\": {c4_block},");
    println!("  \"chain_interval_16\": {c16_block},");
    println!("  \"headline\": {{");
    println!("    \"space_ratio_interval_16\": {:.3},", ratio16);
    println!(
        "    \"interval_16_vs_raw\": {:.3},",
        chain16_bytes / raw_bytes
    );
    println!(
        "    \"whole_copy_vs_raw\": {:.3},",
        whole_bytes as f64 / raw_bytes
    );
    println!("    \"latest_read_overhead_pct\": {}", json_f(overhead_pct));
    println!("  }},");
    println!("  \"history_curve\": {}", history_curve());
    println!("}}");
}
