//! Generate the format-2 store fixture that `tests/format_migration.rs`
//! migrates, plus the content listing the migrated store must match.
//!
//! ```text
//! cargo run -p ode-tools --example format_v2_fixture -- <out.odb> <out.expected>
//! ```
//!
//! The checked-in `crates/tools/tests/fixtures/format_v2.odb` and
//! `format_v2.expected` were produced by running this program on a
//! checkout of commit `6c816fc`, the last build that wrote on-disk
//! format 2 (one chain record per object). Run on a later build it
//! writes that build's format instead, so regenerate the fixture only
//! from that commit. It shares the format-1 fixture's type, body
//! generator and listing (`format_v1_fixture.rs`), and uses nothing
//! newer than that commit's public API.
//!
//! The store holds, under one type tag, with anchor interval 4:
//! * a former whole-body object whose later versions chain, over three
//!   anchor runs;
//! * a chained object over five anchor runs with a fork and a merge
//!   version, from which one mid-chain anchor and one delta member
//!   were deleted;
//! * a chained object larger than a heap page whose latest version was
//!   deleted (its predecessor is promoted back to a whole body);
//! * a single-version object.
//!
//! The WAL is checkpointed empty before the program exits.

use std::path::Path;

use ode::{ChainConfig, Database, MergePolicy};
use ode_storage::{Store, StoreOptions};
use ode_version::{ChainLink, VersionStore, VersionStoreLayout};

#[allow(dead_code)]
#[path = "format_v1_fixture.rs"]
mod v1;

use v1::{body, check_in, options};
pub use v1::{dump, TAG};

/// Build the fixture store at `path`.
pub fn build(path: &Path) {
    // Whole-body phase: the first object's first versions.
    let db = Database::create(path, options(false)).expect("create");
    let a = {
        let mut txn = db.begin();
        let (a, _) = txn.pnew_raw(TAG, body(11, 0, 400)).expect("pnew a");
        txn.commit().expect("commit");
        a
    };
    check_in(&db, a, 11, 1, 2, 400);
    db.checkpoint().expect("checkpoint");
    drop(db);

    // Chain phase.
    let db = Database::open(path, options(true)).expect("reopen with chains");
    check_in(&db, a, 11, 3, 9, 400);
    let (c, e) = {
        let mut txn = db.begin();
        let (c, _) = txn.pnew_raw(TAG, body(12, 0, 2048)).expect("pnew c");
        txn.pnew_raw(TAG, body(13, 0, 80)).expect("pnew d");
        let (e, _) = txn.pnew_raw(TAG, body(14, 0, 6000)).expect("pnew e");
        txn.commit().expect("commit");
        (c, e)
    };
    check_in(&db, c, 12, 1, 13, 2048);
    check_in(&db, e, 14, 1, 6, 6000);

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
    txn.put_version_raw(left, TAG, edit(200, 0xEE))
        .expect("put left");
    let right = txn.newversion_from_raw(c_latest).expect("right fork");
    txn.put_version_raw(right, TAG, edit(1700, 0x81))
        .expect("put right");
    txn.commit().expect("commit");
    let mut txn = db.begin();
    let (merged, conflicts) = txn
        .merge_raw(left, right, MergePolicy::Fail)
        .expect("merge");
    assert!(conflicts.is_empty(), "fixture merge must be clean");
    assert!(merged.is_some(), "fixture merge must check in");
    txn.commit().expect("commit");
    check_in(&db, c, 12, 30, 3, 2048);
    db.checkpoint().expect("checkpoint");
    drop(db);

    // Deletes, picked off the stored chains: a mid-chain anchor and a
    // delta member of c, and e's latest version.
    let store = Store::open(path, StoreOptions::default()).expect("open store");
    let vs = VersionStore::with_chain(VersionStoreLayout::default(), ChainConfig::with_interval(4));
    let mut tx = store.begin();
    let chain = vs.load_chain(&mut tx, c).expect("load").expect("c chains");
    let anchor = chain
        .entries
        .iter()
        .skip(1)
        .find(|e| matches!(e.link, ChainLink::Anchor(_)))
        .expect("c has a mid-chain anchor")
        .vid;
    vs.delete_version(&mut tx, anchor).expect("delete anchor");
    let chain = vs.load_chain(&mut tx, c).expect("load").expect("c chains");
    let member = chain.entries[chain.entries.len() - 6..]
        .iter()
        .find(|e| matches!(e.link, ChainLink::Delta(_)))
        .expect("c has a late delta member")
        .vid;
    vs.delete_version(&mut tx, member).expect("delete delta");
    let e_latest = vs.latest(&mut tx, e).expect("latest e");
    vs.delete_version(&mut tx, e_latest).expect("delete latest");
    for oid in [a, c, e] {
        vs.check_object(&mut tx, oid).expect("fixture object valid");
    }
    tx.commit().expect("commit");
    store.checkpoint().expect("checkpoint");
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let [db, expected] = args.as_slice() else {
        eprintln!("usage: format_v2_fixture <out.odb> <out.expected>");
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
