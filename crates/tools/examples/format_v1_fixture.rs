//! Generate the format-1 store fixture that `tests/format_migration.rs`
//! migrates, plus the content listing the migrated store must match.
//!
//! ```text
//! cargo run -p ode-tools --example format_v1_fixture -- <out.odb> <out.expected>
//! ```
//!
//! The checked-in `crates/tools/tests/fixtures/format_v1.odb` and
//! `format_v1.expected` were produced by running this program on a
//! checkout of commit `dad0e45`, the last build that wrote on-disk
//! format 1. Run on a later build it writes that build's format
//! instead, so regenerate the fixture only from that commit. The
//! program uses nothing newer than that commit's public API, and the
//! migration test reuses [`dump`] to list the migrated store.
//!
//! The store holds, under one type tag:
//! * two whole-body objects (created without chain storage), one with
//!   a deleted historical version and one with a fork;
//! * chained objects (anchor interval 4) with a fork, a merge version
//!   and a deleted historical chain member, one of them a former
//!   whole-body object whose later versions chain;
//! * a single-version object and an object larger than a heap page.
//!
//! Bodies are a user type whose `Vec<u8>` field holds bytes above
//! 0x7f, so every stored byte string had to be varint-coded in format 1.
//! The WAL is checkpointed empty before the program exits.

use std::fmt::Write as _;
use std::path::Path;

use ode::{ChainConfig, Database, DatabaseOptions, MergePolicy, Oid, Vid};
use ode_codec::{impl_persist_struct, to_bytes, TypeTag};
use ode_storage::{Store, StoreOptions};
use ode_version::{VersionStore, VersionStoreLayout};

/// The fixture's one stored type.
pub const TAG: TypeTag = TypeTag::from_name("fixture/Doc");

/// The fixture's user type: a revision stamp and opaque bytes.
pub struct Doc {
    rev: u32,
    text: Vec<u8>,
}
impl_persist_struct!(Doc { rev, text });

/// Deterministic body bytes: a seeded run over the whole byte range,
/// with a revision marker spliced in so consecutive revisions differ in
/// a few places only.
pub fn body(seed: u64, rev: u32, len: usize) -> Vec<u8> {
    let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut text: Vec<u8> = (0..len)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x >> 24) as u8
        })
        .collect();
    for (i, b) in rev.to_le_bytes().iter().enumerate() {
        let at = (rev as usize * 97 + i * 13) % len.max(1);
        if at < text.len() {
            text[at] = *b ^ 0xA5;
        }
    }
    to_bytes(&Doc { rev, text })
}

/// Store options: whole-body, or chains at anchor interval 4.
pub fn options(chain: bool) -> DatabaseOptions {
    let options = DatabaseOptions::default();
    if chain {
        options.with_chain(ChainConfig::with_interval(4))
    } else {
        options
    }
}

/// Check in `count` successive revisions of `oid`, each derived from
/// the latest.
pub fn check_in(db: &Database, oid: Oid, seed: u64, first_rev: u32, count: u32, len: usize) {
    for rev in first_rev..first_rev + count {
        let mut txn = db.begin();
        let vid = txn.newversion_raw(oid).expect("newversion");
        txn.put_version_raw(vid, TAG, body(seed, rev, len))
            .expect("put_version");
        txn.commit().expect("commit");
    }
}

/// Build the fixture store at `path`.
pub fn build(path: &Path) {
    // Whole-body phase: no chain storage.
    let db = Database::create(path, options(false)).expect("create");
    let a = {
        let mut txn = db.begin();
        let (a, _) = txn.pnew_raw(TAG, body(1, 0, 300)).expect("pnew a");
        let (b, b0) = txn.pnew_raw(TAG, body(2, 0, 1500)).expect("pnew b");
        txn.commit().expect("commit");
        check_in(&db, a, 1, 1, 3, 300);
        check_in(&db, b, 2, 1, 2, 1500);
        // A fork of b's root: b's derivation tree branches.
        let mut txn = db.begin();
        let fork = txn.newversion_from_raw(b0).expect("fork b");
        txn.put_version_raw(fork, TAG, body(2, 9, 1500))
            .expect("put fork");
        txn.commit().expect("commit");
        a
    };
    // Delete a whole-body historical version of a.
    let mut snap = db.snapshot();
    let a_history = snap.version_history_raw(a).expect("history a");
    drop(snap);
    let mut txn = db.begin();
    txn.pdelete_version_raw(a_history[1])
        .expect("delete whole-body");
    txn.commit().expect("commit");
    db.checkpoint().expect("checkpoint");
    drop(db);

    // Chain phase: anchor interval 4.
    let db = Database::open(path, options(true)).expect("reopen with chains");
    // a's later versions chain after its whole-body ones.
    check_in(&db, a, 1, 4, 5, 300);
    let (c, e) = {
        let mut txn = db.begin();
        let (c, _) = txn.pnew_raw(TAG, body(3, 0, 2048)).expect("pnew c");
        txn.pnew_raw(TAG, body(4, 0, 64)).expect("pnew d");
        let (e, _) = txn.pnew_raw(TAG, body(5, 0, 9000)).expect("pnew e");
        txn.commit().expect("commit");
        (c, e)
    };
    check_in(&db, c, 3, 1, 9, 2048);
    check_in(&db, e, 5, 1, 2, 9000);

    // Two forks of c's latest that edit different regions, merged.
    let mut snap = db.snapshot();
    let c_latest = snap.latest_raw(c).expect("latest c");
    let base = snap.deref_version_raw(c_latest, TAG).expect("c body");
    drop(snap);
    let edit = |at: usize, fill: u8| {
        let mut v = base.clone();
        for byte in &mut v[at..at + 16] {
            *byte = fill;
        }
        v
    };
    let mut txn = db.begin();
    let left = txn.newversion_from_raw(c_latest).expect("left fork");
    txn.put_version_raw(left, TAG, edit(100, 0xEE))
        .expect("put left");
    let right = txn.newversion_from_raw(c_latest).expect("right fork");
    txn.put_version_raw(right, TAG, edit(1500, 0x81))
        .expect("put right");
    txn.commit().expect("commit");
    let mut txn = db.begin();
    let (merged, conflicts) = txn
        .merge_raw(left, right, MergePolicy::Fail)
        .expect("merge");
    assert!(conflicts.is_empty(), "fixture merge must be clean");
    assert!(merged.is_some(), "fixture merge must check in");
    txn.commit().expect("commit");
    check_in(&db, c, 3, 20, 2, 2048);

    // Delete a historical chain member of c.
    let mut snap = db.snapshot();
    let c_history = snap.version_history_raw(c).expect("history c");
    drop(snap);
    let mut txn = db.begin();
    txn.pdelete_version_raw(c_history[5])
        .expect("delete chained");
    txn.commit().expect("commit");

    db.checkpoint().expect("checkpoint");
    drop(db);
}

/// FNV-1a, 64-bit: a stable digest of a body for the listing.
fn fnv64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0100_0000_01b3)
    })
}

fn vid(v: Vid) -> String {
    if v.is_null() {
        "-".into()
    } else {
        v.0.to_string()
    }
}

/// List every object, version link, body digest, chain shape and the
/// fsck verdict of the store at `path`, one fact per line.
pub fn dump(path: &Path) -> String {
    let mut out = String::new();
    {
        let store = Store::open(path, StoreOptions::default()).expect("open store");
        let vs = VersionStore::new(VersionStoreLayout::default());
        let mut tx = store.read();
        for oid in vs.objects_of_type(&mut tx, TAG).expect("objects") {
            let meta = vs.object_meta(&mut tx, oid).expect("object meta");
            writeln!(
                out,
                "object {} root={} latest={} versions={}",
                oid.0,
                vid(meta.root),
                vid(meta.latest),
                meta.version_count
            )
            .unwrap();
            let history = vs.version_history(&mut tx, oid).expect("history");
            let list: Vec<String> = history.iter().map(|&v| vid(v)).collect();
            writeln!(out, "  history {}", list.join(",")).unwrap();
            for v in history {
                let m = vs.version_meta(&mut tx, v).expect("version meta");
                let body = vs.read_body(&mut tx, v, TAG).expect("body");
                let dnext: Vec<String> = m.dnext.iter().map(|&d| vid(d)).collect();
                writeln!(
                    out,
                    "  version {} dprev={} dprev2={} dnext={} tprev={} tnext={} created={} \
                     body={}B fnv={:016x}",
                    v.0,
                    vid(m.dprev),
                    vid(m.dprev2),
                    dnext.join(","),
                    vid(m.tprev),
                    vid(m.tnext),
                    m.created,
                    body.len(),
                    fnv64(&body)
                )
                .unwrap();
            }
            match vs.chain_stats(&mut tx, oid).expect("chain stats") {
                Some(s) => writeln!(
                    out,
                    "  chain versions={} anchors={} deltas={} interval={}",
                    s.versions, s.anchors, s.deltas, s.interval
                )
                .unwrap(),
                None => writeln!(out, "  chain none").unwrap(),
            }
        }
    }
    let report = ode_tools::fsck(path).expect("fsck");
    writeln!(
        out,
        "fsck objects={} versions={} problems={}",
        report.objects_checked,
        report.versions_checked,
        report.problems.len()
    )
    .unwrap();
    for p in &report.problems {
        writeln!(out, "  problem {p}").unwrap();
    }
    out
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let [db, expected] = args.as_slice() else {
        eprintln!("usage: format_v1_fixture <out.odb> <out.expected>");
        std::process::exit(2);
    };
    let db = Path::new(db);
    build(db);
    std::fs::write(expected, dump(db)).expect("write listing");
    let mut wal = db.as_os_str().to_owned();
    wal.push(".wal");
    let wal_len = std::fs::metadata(&wal).map(|m| m.len()).unwrap_or(0);
    assert_eq!(wal_len, 0, "fixture WAL must be checkpointed empty");
    println!("wrote {} and {expected}", db.display());
}
