//! Delta-chain storage behaviour: byte-identical reads vs the
//! whole-body engine, chain-served history queries, migration, and a
//! differential proptest battery driving a chained store and a
//! whole-body oracle through identical histories.

use ode_codec::TypeTag;
use ode_storage::{Store, StoreOptions};
use ode_version::{ChainConfig, ChainLink, VersionStore, VersionStoreLayout, Vid};

const TAG: TypeTag = TypeTag::from_name("test/Doc");

fn temp_path(name: &str) -> std::path::PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("ode-vchain-{name}-{}", std::process::id()));
    cleanup(&p);
    p
}

fn cleanup(p: &std::path::Path) {
    let _ = std::fs::remove_file(p);
    let mut wal = p.to_path_buf().into_os_string();
    wal.push(".wal");
    let _ = std::fs::remove_file(std::path::PathBuf::from(wal));
}

fn chained(interval: u64) -> VersionStore {
    VersionStore::with_chain(
        VersionStoreLayout::default(),
        ChainConfig::with_interval(interval),
    )
}

fn body(i: usize) -> Vec<u8> {
    // Evolving document: shared prefix, small point edits, some growth.
    let mut b: Vec<u8> = (0..600).map(|j| ((j * 7) % 251) as u8).collect();
    b[i % 600] = 0xEE;
    b.extend_from_slice(format!("-rev{i}").as_bytes());
    b
}

#[test]
fn chained_reads_are_byte_identical_at_every_version() {
    for interval in [1, 2, 4, 16] {
        let path = temp_path(&format!("reads{interval}"));
        let store = Store::create(&path, StoreOptions::default()).unwrap();
        let vs = chained(interval);
        let mut tx = store.begin();
        let (oid, v0) = vs.create_object(&mut tx, TAG, body(0)).unwrap();
        let mut vids = vec![v0];
        for i in 1..24 {
            let v = vs.new_version_of(&mut tx, oid).unwrap();
            vs.write_body(&mut tx, v, TAG, body(i)).unwrap();
            vids.push(v);
        }
        for (i, &v) in vids.iter().enumerate() {
            assert_eq!(
                vs.read_body(&mut tx, v, TAG).unwrap(),
                body(i),
                "interval {interval} version {i}"
            );
        }
        vs.check_object(&mut tx, oid).unwrap();
        // The chain actually stores deltas (not 24 whole copies).
        let stats = vs.chain_stats(&mut tx, oid).unwrap().unwrap();
        assert_eq!(stats.versions, 24);
        if interval > 1 {
            assert!(stats.deltas > 0);
            assert!(stats.encoded_bytes < stats.materialized_bytes);
        }
        tx.commit().unwrap();
        drop(store);
        cleanup(&path);
    }
}

#[test]
fn single_version_objects_have_no_chain() {
    // Version orthogonality: an object with one version costs nothing
    // extra even with chain storage on.
    let path = temp_path("ortho");
    let store = Store::create(&path, StoreOptions::default()).unwrap();
    let vs = chained(4);
    let mut tx = store.begin();
    let (oid, _) = vs.create_object(&mut tx, TAG, b"only".to_vec()).unwrap();
    assert!(vs.load_chain(&mut tx, oid).unwrap().is_none());
    assert!(vs.chain_stats(&mut tx, oid).unwrap().is_none());
    tx.commit().unwrap();
    drop(store);
    cleanup(&path);
}

#[test]
fn whole_body_database_migrates_in_place() {
    let path = temp_path("migrate");
    // Phase 1: plain whole-body store.
    let (oid, old_vids) = {
        let store = Store::create(&path, StoreOptions::default()).unwrap();
        let vs = VersionStore::new(VersionStoreLayout::default());
        let mut tx = store.begin();
        let (oid, v0) = vs.create_object(&mut tx, TAG, body(0)).unwrap();
        let mut vids = vec![v0];
        for i in 1..4 {
            let v = vs.new_version_of(&mut tx, oid).unwrap();
            vs.write_body(&mut tx, v, TAG, body(i)).unwrap();
            vids.push(v);
        }
        tx.commit().unwrap();
        (oid, vids)
    };
    // Phase 2: reopen with chain storage and keep writing.
    let store = Store::open(&path, StoreOptions::default()).unwrap();
    let vs = chained(4);
    let mut tx = store.begin();
    let mut vids = old_vids.clone();
    for i in 4..12 {
        let v = vs.new_version_of(&mut tx, oid).unwrap();
        vs.write_body(&mut tx, v, TAG, body(i)).unwrap();
        vids.push(v);
    }
    // Every version — pre-chain whole bodies and chained ones — reads
    // back byte-identically.
    for (i, &v) in vids.iter().enumerate() {
        assert_eq!(vs.read_body(&mut tx, v, TAG).unwrap(), body(i), "v{i}");
    }
    vs.check_object(&mut tx, oid).unwrap();
    // The chain is a strict suffix: pre-chain versions are not members.
    let chain = vs.load_chain(&mut tx, oid).unwrap().unwrap();
    assert!(!chain.contains(old_vids[0]));
    assert!(chain.contains(*vids.last().unwrap()));
    tx.commit().unwrap();
    drop(store);
    cleanup(&path);
}

#[test]
fn chain_survives_reopen() {
    let path = temp_path("reopen");
    let (oid, vids) = {
        let store = Store::create(&path, StoreOptions::default()).unwrap();
        let vs = chained(4);
        let mut tx = store.begin();
        let (oid, v0) = vs.create_object(&mut tx, TAG, body(0)).unwrap();
        let mut vids = vec![v0];
        for i in 1..10 {
            let v = vs.new_version_of(&mut tx, oid).unwrap();
            vs.write_body(&mut tx, v, TAG, body(i)).unwrap();
            vids.push(v);
        }
        tx.commit().unwrap();
        (oid, vids)
    };
    // Reopen withOUT chain config: stored chains are still honored.
    let store = Store::open(&path, StoreOptions::default()).unwrap();
    let vs = VersionStore::new(VersionStoreLayout::default());
    let mut tx = store.begin();
    for (i, &v) in vids.iter().enumerate() {
        assert_eq!(vs.read_body(&mut tx, v, TAG).unwrap(), body(i), "v{i}");
    }
    // And maintained: a new version still appends to the chain.
    let v = vs.new_version_of(&mut tx, oid).unwrap();
    vs.write_body(&mut tx, v, TAG, body(10)).unwrap();
    assert_eq!(vs.read_body(&mut tx, v, TAG).unwrap(), body(10));
    assert_eq!(vs.read_body(&mut tx, vids[9], TAG).unwrap(), body(9));
    vs.check_object(&mut tx, oid).unwrap();
    tx.commit().unwrap();
    drop(store);
    cleanup(&path);
}

#[test]
fn history_between_matches_walk() {
    let path = temp_path("between");
    let store = Store::create(&path, StoreOptions::default()).unwrap();
    let vs = chained(4);
    let mut tx = store.begin();
    let (oid, v0) = vs.create_object(&mut tx, TAG, body(0)).unwrap();
    let mut vids = vec![v0];
    for i in 1..15 {
        let v = vs.new_version_of(&mut tx, oid).unwrap();
        vs.write_body(&mut tx, v, TAG, body(i)).unwrap();
        vids.push(v);
    }
    // Another object interleaves stamps so ranges are not contiguous.
    let (oid2, _) = vs.create_object(&mut tx, TAG, b"x".to_vec()).unwrap();
    vs.new_version_of(&mut tx, oid2).unwrap();

    let history = vs.version_history(&mut tx, oid).unwrap();
    let stamps: Vec<u64> = history.iter().map(|v| v.0).collect();
    let lo = *stamps.first().unwrap();
    let hi = *stamps.last().unwrap();
    for from in [0, lo, lo + 3, hi] {
        for to in [lo, lo + 5, hi, hi + 10] {
            let got = vs.history_between(&mut tx, oid, from, to).unwrap();
            let want: Vec<Vid> = history
                .iter()
                .copied()
                .filter(|v| v.0 >= from && v.0 <= to)
                .collect();
            assert_eq!(got, want, "range [{from}, {to}]");
        }
    }
    assert!(vs.history_between(&mut tx, oid, hi, lo).unwrap().is_empty());
    tx.commit().unwrap();
    drop(store);
    cleanup(&path);
}

#[test]
fn diff_versions_adjacent_is_served_from_the_chain() {
    let path = temp_path("diff");
    let store = Store::create(&path, StoreOptions::default()).unwrap();
    let vs = chained(8);
    let mut tx = store.begin();
    let (oid, v0) = vs.create_object(&mut tx, TAG, body(0)).unwrap();
    let mut vids = vec![v0];
    for i in 1..10 {
        let v = vs.new_version_of(&mut tx, oid).unwrap();
        vs.write_body(&mut tx, v, TAG, body(i)).unwrap();
        vids.push(v);
    }
    let chain = vs.load_chain(&mut tx, oid).unwrap().unwrap();
    // Adjacent delta-linked pair: summarized straight off the chain.
    let (a, b) = (chain.entries[1].vid, chain.entries[2].vid);
    assert!(matches!(chain.entries[2].link, ChainLink::Delta(_)));
    let d = vs.diff_versions(&mut tx, a, b).unwrap();
    assert!(d.stored);
    assert_eq!(d.from, a);
    assert_eq!(d.to, b);
    let b_idx = vids.iter().position(|&v| v == b).unwrap();
    assert_eq!(d.to_len as usize, body(b_idx).len());
    // Distant pair: computed, and consistent with the actual bodies.
    let d2 = vs.diff_versions(&mut tx, vids[0], vids[9]).unwrap();
    assert!(!d2.stored);
    assert_eq!(d2.to_len as usize, body(9).len());
    assert!(d2.literal_bytes < body(9).len() as u64, "mostly copies");
    tx.commit().unwrap();
    drop(store);
    cleanup(&path);
}

#[test]
fn deletes_repair_the_chain_everywhere() {
    // Delete latest / an anchor / a middle delta / down to one version,
    // checking every surviving body and the invariants each time.
    let path = temp_path("deletes");
    let store = Store::create(&path, StoreOptions::default()).unwrap();
    let vs = chained(3);
    let mut tx = store.begin();
    let (oid, v0) = vs.create_object(&mut tx, TAG, body(0)).unwrap();
    let mut live: Vec<(Vid, Vec<u8>)> = vec![(v0, body(0))];
    for i in 1..12 {
        let v = vs.new_version_of(&mut tx, oid).unwrap();
        vs.write_body(&mut tx, v, TAG, body(i)).unwrap();
        live.push((v, body(i)));
    }
    // Deletion order exercises: latest, first chain entry, middles.
    while live.len() > 1 {
        let pick = if live.len().is_multiple_of(3) {
            live.len() - 1 // latest
        } else if live.len() % 3 == 1 {
            0 // oldest
        } else {
            live.len() / 2 // middle
        };
        let (vid, _) = live.remove(pick);
        vs.delete_version(&mut tx, vid).unwrap();
        for (v, b) in &live {
            assert_eq!(&vs.read_body(&mut tx, *v, TAG).unwrap(), b);
        }
        vs.check_object(&mut tx, oid).unwrap();
    }
    tx.commit().unwrap();
    drop(store);
    cleanup(&path);
}

#[test]
fn historical_write_body_rewrites_the_chain_entry() {
    let path = temp_path("histwrite");
    let store = Store::create(&path, StoreOptions::default()).unwrap();
    let vs = chained(4);
    let mut tx = store.begin();
    let (oid, v0) = vs.create_object(&mut tx, TAG, body(0)).unwrap();
    let mut vids = vec![v0];
    for i in 1..9 {
        let v = vs.new_version_of(&mut tx, oid).unwrap();
        vs.write_body(&mut tx, v, TAG, body(i)).unwrap();
        vids.push(v);
    }
    // Edit every historical version in turn; neighbors must not move.
    for victim in 0..9usize {
        let mut edited = body(victim);
        edited.extend_from_slice(b"+edit");
        vs.write_body(&mut tx, vids[victim], TAG, edited.clone())
            .unwrap();
        assert_eq!(vs.read_body(&mut tx, vids[victim], TAG).unwrap(), edited);
        for (i, &v) in vids.iter().enumerate() {
            if i == victim {
                continue;
            }
            let mut want = body(i);
            if i < victim {
                want.extend_from_slice(b"+edit");
            }
            assert_eq!(vs.read_body(&mut tx, v, TAG).unwrap(), want, "v{i}");
        }
        vs.check_object(&mut tx, oid).unwrap();
        // Undo for the next round (leaves earlier victims edited —
        // covered by the `want` adjustment above).
        // (Intentionally keep edits cumulative to vary chain content.)
    }
    tx.commit().unwrap();
    drop(store);
    cleanup(&path);
}

#[test]
fn alternatives_from_historical_bases_chain_correctly() {
    // newversion(v) where v is a cleared chain member must materialize
    // the base off the chain for the new version's state.
    let path = temp_path("altbase");
    let store = Store::create(&path, StoreOptions::default()).unwrap();
    let vs = chained(4);
    let mut tx = store.begin();
    let (oid, v0) = vs.create_object(&mut tx, TAG, body(0)).unwrap();
    let v1 = vs.new_version_from(&mut tx, v0).unwrap();
    vs.write_body(&mut tx, v1, TAG, body(1)).unwrap();
    let v2 = vs.new_version_from(&mut tx, v1).unwrap();
    vs.write_body(&mut tx, v2, TAG, body(2)).unwrap();
    // Alternative derived from v0, which by now is a chain member
    // (or pre-chain whole body, depending on creation order) — its
    // state must be body(0).
    let v3 = vs.new_version_from(&mut tx, v0).unwrap();
    assert_eq!(vs.read_body(&mut tx, v3, TAG).unwrap(), body(0));
    assert_eq!(vs.dprevious(&mut tx, v3).unwrap(), Some(v0));
    assert_eq!(vs.latest(&mut tx, oid).unwrap(), v3);
    // And an alternative from v1 (definitely a cleared chain member).
    let v4 = vs.new_version_from(&mut tx, v1).unwrap();
    assert_eq!(vs.read_body(&mut tx, v4, TAG).unwrap(), body(1));
    vs.check_object(&mut tx, oid).unwrap();
    tx.commit().unwrap();
    drop(store);
    cleanup(&path);
}

// ----------------------------------------------------------------------
// Differential proptest battery: chained store vs whole-body oracle.
// ----------------------------------------------------------------------

mod differential {
    use super::*;
    use proptest::prelude::*;

    #[derive(Debug, Clone)]
    enum Op {
        /// Derive a new version from the version at this index (mod len).
        Fork(usize),
        /// Overwrite the version at this index (mod len) with new bytes.
        Edit(usize, Vec<u8>),
        /// Delete the version at this index (mod len).
        Delete(usize),
    }

    fn op_strategy() -> impl Strategy<Value = Op> {
        prop_oneof![
            3 => (0usize..64).prop_map(Op::Fork),
            3 => ((0usize..64), proptest::collection::vec(any::<u8>(), 0..200))
                .prop_map(|(i, b)| Op::Edit(i, b)),
            1 => (0usize..64).prop_map(Op::Delete),
        ]
    }

    fn run_history(
        store: &Store,
        vs: &VersionStore,
        seed_body: &[u8],
        ops: &[Op],
    ) -> (ode_version::Oid, Vec<Vid>) {
        let mut tx = store.begin();
        let (oid, v0) = vs.create_object(&mut tx, TAG, seed_body.to_vec()).unwrap();
        let mut vids = vec![v0];
        for op in ops {
            match op {
                Op::Fork(i) => {
                    let base = vids[i % vids.len()];
                    vids.push(vs.new_version_from(&mut tx, base).unwrap());
                }
                Op::Edit(i, b) => {
                    let v = vids[i % vids.len()];
                    vs.write_body(&mut tx, v, TAG, b.clone()).unwrap();
                }
                Op::Delete(i) => {
                    if vids.len() > 1 {
                        let v = vids.remove(i % vids.len());
                        vs.delete_version(&mut tx, v).unwrap();
                    }
                }
            }
        }
        vs.check_object(&mut tx, oid).unwrap();
        tx.commit().unwrap();
        (oid, vids)
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

        /// The chained engine and the whole-body engine, driven through
        /// an identical fork/edit/delete history, return byte-identical
        /// bodies for every surviving version — live, and again after a
        /// full store reopen (codec + storage round trip).
        #[test]
        fn chained_store_matches_whole_body_oracle(
            seed in proptest::collection::vec(any::<u8>(), 0..300),
            ops in proptest::collection::vec(op_strategy(), 1..40),
            interval in 1u64..9,
        ) {
            let p_chain = temp_path(&format!("dc{interval}-{}", ops.len()));
            let p_whole = temp_path(&format!("dw{interval}-{}", ops.len()));
            {
                let s_chain = Store::create(&p_chain, StoreOptions::default()).unwrap();
                let s_whole = Store::create(&p_whole, StoreOptions::default()).unwrap();
                let vs_chain = chained(interval);
                let vs_whole = VersionStore::new(VersionStoreLayout::default());
                let (oid_c, vids_c) = run_history(&s_chain, &vs_chain, &seed, &ops);
                let (oid_w, vids_w) = run_history(&s_whole, &vs_whole, &seed, &ops);
                prop_assert_eq!(vids_c.len(), vids_w.len());
                let mut tc = s_chain.begin();
                let mut tw = s_whole.begin();
                for (&vc, &vw) in vids_c.iter().zip(&vids_w) {
                    prop_assert_eq!(
                        vs_chain.read_body(&mut tc, vc, TAG).unwrap(),
                        vs_whole.read_body(&mut tw, vw, TAG).unwrap()
                    );
                }
                prop_assert_eq!(
                    vs_chain.version_history(&mut tc, oid_c).unwrap().len(),
                    vs_whole.version_history(&mut tw, oid_w).unwrap().len()
                );
                drop(tc);
                drop(tw);
            }
            // Reopen both stores cold and compare again.
            {
                let s_chain = Store::open(&p_chain, StoreOptions::default()).unwrap();
                let s_whole = Store::open(&p_whole, StoreOptions::default()).unwrap();
                let vs_chain = chained(interval);
                let vs_whole = VersionStore::new(VersionStoreLayout::default());
                let mut tc = s_chain.begin();
                let mut tw = s_whole.begin();
                // Vids were allocated identically on both sides.
                let hist_c = vs_chain.version_history(&mut tc, ode_version::Oid(1)).unwrap();
                let hist_w = vs_whole.version_history(&mut tw, ode_version::Oid(1)).unwrap();
                prop_assert_eq!(&hist_c, &hist_w);
                for &v in &hist_c {
                    prop_assert_eq!(
                        vs_chain.read_body(&mut tc, v, TAG).unwrap(),
                        vs_whole.read_body(&mut tw, v, TAG).unwrap()
                    );
                }
                vs_chain.check_object(&mut tc, ode_version::Oid(1)).unwrap();
            }
            cleanup(&p_chain);
            cleanup(&p_whole);
        }
    }
}

// ----------------------------------------------------------------------
// Segment boundaries, checked against the whole-body oracle.
// ----------------------------------------------------------------------

/// A chained store (anchor interval 4: segments of an anchor plus up to
/// three deltas) and a whole-body oracle, driven through the same
/// operations so their vids coincide.
struct Twin {
    paths: [std::path::PathBuf; 2],
    stores: [Store; 2],
    vs: [VersionStore; 2],
    oid: ode_version::Oid,
    vids: Vec<Vid>,
}

impl Twin {
    /// An object with `versions` versions, created under chain storage,
    /// so its chain starts at its first version: segment `k` holds the
    /// versions `4k..4k+4` until something is deleted.
    fn new(name: &str, versions: usize) -> Twin {
        let paths = [
            temp_path(&format!("{name}-chain")),
            temp_path(&format!("{name}-whole")),
        ];
        let stores = [
            Store::create(&paths[0], StoreOptions::default()).unwrap(),
            Store::create(&paths[1], StoreOptions::default()).unwrap(),
        ];
        let vs = [chained(4), VersionStore::new(VersionStoreLayout::default())];
        let mut twin = Twin {
            paths,
            stores,
            vs,
            oid: ode_version::Oid(0),
            vids: Vec::new(),
        };
        let created = twin.each(|vs, tx| vs.create_object(tx, TAG, body(0)).unwrap());
        (twin.oid, twin.vids) = (created.0, vec![created.1]);
        for i in 1..versions {
            let oid = twin.oid;
            let v = twin.each(|vs, tx| {
                let v = vs.new_version_of(tx, oid).unwrap();
                vs.write_body(tx, v, TAG, body(i)).unwrap();
                v
            });
            twin.vids.push(v);
        }
        twin
    }

    /// Run `op` on both stores, each in its own committed transaction,
    /// and return the chained store's result (which must equal the
    /// oracle's).
    fn each<R: PartialEq + std::fmt::Debug>(
        &self,
        op: impl Fn(&VersionStore, &mut ode_storage::Tx<'_>) -> R,
    ) -> R {
        let mut out = Vec::new();
        for (store, vs) in self.stores.iter().zip(&self.vs) {
            let mut tx = store.begin();
            out.push(op(vs, &mut tx));
            tx.commit().unwrap();
        }
        let oracle = out.pop().unwrap();
        let got = out.pop().unwrap();
        assert_eq!(got, oracle, "chained store and oracle disagree");
        got
    }

    fn delete(&mut self, vid: Vid) {
        self.each(|vs, tx| vs.delete_version(tx, vid).unwrap());
        self.vids.retain(|&v| v != vid);
    }

    /// Every live version reads the same from both stores, both pass
    /// the invariant checks, and the chain's segments start at `firsts`.
    fn check(&self, firsts: &[Vid]) {
        let (oid, vids) = (self.oid, self.vids.clone());
        self.each(|vs, tx| {
            vs.check_object(tx, oid).unwrap();
            let bodies: Vec<Vec<u8>> = vids
                .iter()
                .map(|&v| vs.read_body(tx, v, TAG).unwrap())
                .collect();
            (vs.version_history(tx, oid).unwrap(), bodies)
        });
        let mut tx = self.stores[0].begin();
        let head = self.vs[0].load_chain_head(&mut tx, oid).unwrap().unwrap();
        let got: Vec<Vid> = head.segments.iter().map(|s| s.first).collect();
        assert_eq!(got, firsts, "segment first versions");
        let stats = self.vs[0].chain_stats(&mut tx, oid).unwrap().unwrap();
        assert_eq!(stats.segments as usize, firsts.len());
        assert_eq!(stats.anchors, stats.segments, "one anchor per segment");
    }
}

impl Drop for Twin {
    fn drop(&mut self) {
        for p in &self.paths {
            cleanup(p);
        }
    }
}

#[test]
fn deletes_at_segment_boundaries_match_the_oracle() {
    let mut t = Twin::new("segdel", 20);
    let v = t.vids.clone();
    t.check(&[v[0], v[4], v[8], v[12], v[16]]);
    // A segment's anchor: its next entry is promoted to anchor and
    // becomes the segment's first version.
    t.delete(v[4]);
    t.check(&[v[0], v[5], v[8], v[12], v[16]]);
    // A segment's last entry: nothing to re-base, the next segment
    // starts at its own anchor.
    t.delete(v[11]);
    t.check(&[v[0], v[5], v[8], v[12], v[16]]);
    // Every entry of a middle segment: its record goes with the last.
    for &vid in &v[12..16] {
        t.delete(vid);
    }
    t.check(&[v[0], v[5], v[8], v[16]]);
    // The latest when it alone fills the tail segment: the segment
    // goes and its predecessor gets its whole body back.
    t.each(|vs, tx| {
        let oid = vs.object_of(tx, v[19]).unwrap();
        let v20 = vs.new_version_of(tx, oid).unwrap();
        vs.write_body(tx, v20, TAG, body(20)).unwrap();
        v20
    });
    t.vids = t.each(|vs, tx| vs.version_history(tx, t.oid).unwrap());
    let v20 = *t.vids.last().unwrap();
    t.check(&[v[0], v[5], v[8], v[16], v20]);
    t.delete(v20);
    t.check(&[v[0], v[5], v[8], v[16]]);
}

#[test]
fn write_body_at_segment_boundaries_matches_the_oracle() {
    let t = Twin::new("segwrite", 13);
    let v = t.vids.clone();
    let firsts = [v[0], v[4], v[8], v[12]];
    for (victim, tag) in [(v[4], "anchor"), (v[7], "before-boundary"), (v[0], "first")] {
        t.each(|vs, tx| {
            let mut b = vs.read_body(tx, victim, TAG).unwrap();
            b.extend_from_slice(tag.as_bytes());
            vs.write_body(tx, victim, TAG, b).unwrap();
        });
        t.check(&firsts);
    }
}

#[test]
fn diffs_and_ranges_across_segment_boundaries_match_the_oracle() {
    let t = Twin::new("segdiff", 14);
    let v = t.vids.clone();
    t.check(&[v[0], v[4], v[8], v[12]]);
    // Across a boundary: materialized from two segments, never stored
    // (the later one is an anchor). Inside a segment: the stored delta.
    for (from, to, stored) in [(v[3], v[4], false), (v[2], v[9], false), (v[5], v[6], true)] {
        let mut diffs = Vec::new();
        for (store, vs) in t.stores.iter().zip(&t.vs) {
            let mut tx = store.begin();
            diffs.push(vs.diff_versions(&mut tx, from, to).unwrap());
        }
        assert_eq!(diffs[0].stored, stored, "{from}..{to}");
        assert!(!diffs[1].stored);
        diffs[1].stored = diffs[0].stored;
        assert_eq!(diffs[0], diffs[1], "{from}..{to}");
    }
    // Ranges starting and ending in different segments, and ranges
    // falling between a segment's first vid and the next's.
    let oid = t.oid;
    for (from, to) in [
        (v[2].0, v[9].0),
        (v[3].0, v[4].0),
        (v[4].0, v[12].0),
        (v[1].0, v[13].0 + 5),
        (v[5].0, v[6].0),
        (0, v[7].0),
    ] {
        t.each(|vs, tx| vs.history_between(tx, oid, from, to).unwrap());
    }
}
