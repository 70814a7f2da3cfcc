//! The version graph engine: create, derive, update, delete, traverse.

use ode_codec::{Persist, TypeTag};
use ode_object::{Extents, IdAllocator, KvTable, ObjectHeap, Oid, Vid};
use ode_storage::heap::RecordId;
use ode_storage::{PageRead, PageWrite};

use crate::cache::MaterializeCache;
use crate::chain::{
    ChainConfig, ChainEntry, ChainHead, ChainLink, ChainStats, ObjectChain, SegmentRef, VersionDiff,
};
use crate::records::{ObjectMeta, VersionMeta};
use crate::{Result, VersionError};

/// Root-slot assignment for a [`VersionStore`]'s seven persistent
/// components. The default occupies slots 0–6, leaving 7–15 free for the
/// embedding application.
#[derive(Debug, Clone, Copy)]
pub struct VersionStoreLayout {
    /// Slot of the oid → object-record table.
    pub obj_table_slot: usize,
    /// Slot of the vid → version-record table.
    pub ver_table_slot: usize,
    /// Slot of the record heap.
    pub heap_slot: usize,
    /// Slot of the object-id counter.
    pub oid_slot: usize,
    /// Slot of the version-id counter.
    pub vid_slot: usize,
    /// Slot of the per-type extent directory.
    pub extent_slot: usize,
    /// Slot of the oid → delta-chain-head table (empty unless chain
    /// storage has ever been enabled on this store).
    pub chain_table_slot: usize,
}

impl Default for VersionStoreLayout {
    fn default() -> Self {
        VersionStoreLayout {
            obj_table_slot: 0,
            ver_table_slot: 1,
            heap_slot: 2,
            oid_slot: 3,
            vid_slot: 4,
            extent_slot: 5,
            chain_table_slot: 6,
        }
    }
}

/// The version graph over a transactional page store.
///
/// All operations take a storage transaction; the store itself is a cheap
/// `Copy` handle binding the root-slot layout.
///
/// ```
/// use ode_codec::TypeTag;
/// use ode_storage::{Store, StoreOptions};
/// use ode_version::{VersionStore, VersionStoreLayout};
///
/// # let path = std::env::temp_dir().join(format!("vs-doc-{}", std::process::id()));
/// let store = Store::create(&path, StoreOptions::default()).unwrap();
/// let vs = VersionStore::new(VersionStoreLayout::default());
/// const TAG: TypeTag = TypeTag::from_name("doc/Obj");
///
/// let mut tx = store.begin();
/// let (oid, v0) = vs.create_object(&mut tx, TAG, b"state-0".to_vec()).unwrap();
/// let v1 = vs.new_version_from(&mut tx, v0).unwrap();
/// vs.write_body(&mut tx, v1, TAG, b"state-1".to_vec()).unwrap();
/// assert_eq!(vs.latest(&mut tx, oid).unwrap(), v1);
/// assert_eq!(vs.dprevious(&mut tx, v1).unwrap(), Some(v0));
/// assert_eq!(vs.read_body(&mut tx, v0, TAG).unwrap(), b"state-0");
/// vs.check_object(&mut tx, oid).unwrap();
/// tx.commit().unwrap();
/// # drop(store);
/// # let _ = std::fs::remove_file(&path);
/// # let mut w = path.into_os_string(); w.push(".wal");
/// # let _ = std::fs::remove_file(std::path::PathBuf::from(w));
/// ```
#[derive(Debug, Clone, Copy)]
pub struct VersionStore {
    obj_table: KvTable,
    ver_table: KvTable,
    heap: ObjectHeap,
    oids: IdAllocator,
    vids: IdAllocator,
    extents: Extents,
    chain_table: KvTable,
    /// When set, *new* versions are stored delta-chained. Existing chain
    /// records are honored and maintained regardless — correctness is
    /// driven by the stored state, the config only gates new chains.
    chain: Option<ChainConfig>,
}

impl VersionStore {
    /// Bind a version store to a slot layout (whole-body storage for
    /// new versions; existing chain records still honored).
    pub fn new(layout: VersionStoreLayout) -> VersionStore {
        VersionStore {
            obj_table: KvTable::new(layout.obj_table_slot),
            ver_table: KvTable::new(layout.ver_table_slot),
            heap: ObjectHeap::new(layout.heap_slot),
            oids: IdAllocator::new(layout.oid_slot),
            vids: IdAllocator::new(layout.vid_slot),
            extents: Extents::new(layout.extent_slot),
            chain_table: KvTable::new(layout.chain_table_slot),
            chain: None,
        }
    }

    /// Bind a version store with delta-chain storage enabled: an
    /// object's second and later versions are stored as one anchored
    /// chain record instead of whole copies. Opening an existing
    /// whole-body database this way is the migration path — old
    /// versions keep their whole records, new versions chain.
    pub fn with_chain(layout: VersionStoreLayout, config: ChainConfig) -> VersionStore {
        VersionStore {
            chain: Some(config),
            ..VersionStore::new(layout)
        }
    }

    /// The chain config new versions are stored under, if any.
    pub fn chain_config(&self) -> Option<ChainConfig> {
        self.chain
    }

    // ------------------------------------------------------------------
    // Record plumbing
    // ------------------------------------------------------------------

    /// Load an object record.
    pub fn object_meta(&self, tx: &mut impl PageRead, oid: Oid) -> Result<ObjectMeta> {
        let rid = self
            .obj_table
            .get(tx, oid.0)?
            .ok_or(VersionError::UnknownObject(oid))?;
        Ok(self.heap.load(tx, RecordId::from_u64(rid))?)
    }

    /// Load a version record.
    pub fn version_meta(&self, tx: &mut impl PageRead, vid: Vid) -> Result<VersionMeta> {
        let rid = self
            .ver_table
            .get(tx, vid.0)?
            .ok_or(VersionError::UnknownVersion(vid))?;
        Ok(self.heap.load(tx, RecordId::from_u64(rid))?)
    }

    /// Store `value` as `key`'s record: replace it in place (re-pointing
    /// `table` when the heap moves it) or insert it.
    fn save_record<T: Persist>(
        &self,
        tx: &mut impl PageWrite,
        table: KvTable,
        key: u64,
        value: &T,
    ) -> Result<()> {
        #[cfg(test)]
        tests::RECORD_WRITES.with(|n| n.set(n.get() + 1));
        match table.get(tx, key)? {
            Some(rid) => {
                let new_rid = self.heap.replace(tx, RecordId::from_u64(rid), value)?;
                if new_rid.to_u64() != rid {
                    table.put(tx, key, new_rid.to_u64())?;
                }
            }
            None => {
                let rid = self.heap.store(tx, value)?;
                table.put(tx, key, rid.to_u64())?;
            }
        }
        Ok(())
    }

    fn save_object(&self, tx: &mut impl PageWrite, meta: &ObjectMeta) -> Result<()> {
        self.save_record(tx, self.obj_table, meta.oid.0, meta)
    }

    fn save_version(&self, tx: &mut impl PageWrite, meta: &VersionMeta) -> Result<()> {
        self.save_record(tx, self.ver_table, meta.vid.0, meta)
    }

    fn drop_version_record(&self, tx: &mut impl PageWrite, vid: Vid) -> Result<()> {
        if let Some(rid) = self.ver_table.remove(tx, vid.0)? {
            self.heap.delete(tx, RecordId::from_u64(rid))?;
        }
        Ok(())
    }

    /// Load an object's chain head record, if it has a chain.
    pub fn load_chain_head(&self, tx: &mut impl PageRead, oid: Oid) -> Result<Option<ChainHead>> {
        match self.chain_table.get(tx, oid.0)? {
            Some(rid) => Ok(Some(self.heap.load(tx, RecordId::from_u64(rid))?)),
            None => Ok(None),
        }
    }

    /// Load an object's whole delta chain, every segment concatenated
    /// in order, if it has one. Reads every segment record: a tool and
    /// test view, not an engine path.
    pub fn load_chain(&self, tx: &mut impl PageRead, oid: Oid) -> Result<Option<ObjectChain>> {
        let Some(head) = self.load_chain_head(tx, oid)? else {
            return Ok(None);
        };
        let mut chain = head.empty_run();
        for idx in 0..head.segments.len() {
            chain
                .entries
                .extend(self.load_segment(tx, &head, idx)?.entries);
        }
        Ok(Some(chain))
    }

    /// Load segment `idx` of `head`'s chain, carrying the chain's
    /// parameters so the [`ObjectChain`] operations apply to it.
    fn load_segment(
        &self,
        tx: &mut impl PageRead,
        head: &ChainHead,
        idx: usize,
    ) -> Result<ObjectChain> {
        let rid = RecordId::from_u64(head.segments[idx].rid);
        Ok(ObjectChain {
            entries: self.heap.load(tx, rid)?,
            ..head.empty_run()
        })
    }

    /// The segment holding `vid`, loaded, with `vid`'s index in it —
    /// `None` when the chain does not store `vid`.
    fn find_entry(
        &self,
        tx: &mut impl PageRead,
        head: &ChainHead,
        vid: Vid,
    ) -> Result<Option<(usize, ObjectChain, usize)>> {
        let Some(idx) = head.segment_for(vid) else {
            return Ok(None);
        };
        let seg = self.load_segment(tx, head, idx)?;
        Ok(seg.index_of(vid).map(|pos| (idx, seg, pos)))
    }

    /// Store `seg` as a new segment at the end of `head`'s chain.
    fn push_segment(
        &self,
        tx: &mut impl PageWrite,
        head: &mut ChainHead,
        seg: &ObjectChain,
    ) -> Result<()> {
        #[cfg(test)]
        tests::RECORD_WRITES.with(|n| n.set(n.get() + 1));
        let rid = self.heap.store(tx, &seg.entries)?;
        head.segments.push(SegmentRef {
            first: seg.entries[0].vid,
            rid: rid.to_u64(),
        });
        Ok(())
    }

    /// Write back segment `idx` after an edit: rewrite its record, or
    /// drop it (and its head entry) once it holds no entries. Returns
    /// whether `head` changed and must be saved too.
    fn save_segment(
        &self,
        tx: &mut impl PageWrite,
        head: &mut ChainHead,
        idx: usize,
        seg: &ObjectChain,
    ) -> Result<bool> {
        #[cfg(test)]
        tests::RECORD_WRITES.with(|n| n.set(n.get() + 1));
        let slot = head.segments[idx];
        let Some(first) = seg.entries.first() else {
            self.heap.delete(tx, RecordId::from_u64(slot.rid))?;
            head.segments.remove(idx);
            return Ok(true);
        };
        let rid = self
            .heap
            .replace(tx, RecordId::from_u64(slot.rid), &seg.entries)?
            .to_u64();
        let moved = SegmentRef {
            first: first.vid,
            rid,
        };
        head.segments[idx] = moved;
        Ok(moved != slot)
    }

    fn save_head(&self, tx: &mut impl PageWrite, oid: Oid, head: &ChainHead) -> Result<()> {
        if !head.segments.is_empty() {
            return self.save_record(tx, self.chain_table, oid.0, head);
        }
        // Its last segment was just dropped: the head goes too.
        if let Some(rid) = self.chain_table.remove(tx, oid.0)? {
            self.heap.delete(tx, RecordId::from_u64(rid))?;
        }
        Ok(())
    }

    /// Drop an object's chain: every segment record and the head.
    fn drop_chain(&self, tx: &mut impl PageWrite, oid: Oid) -> Result<()> {
        if let Some(rid) = self.chain_table.remove(tx, oid.0)? {
            let rid = RecordId::from_u64(rid);
            let head: ChainHead = self.heap.load(tx, rid)?;
            for seg in &head.segments {
                self.heap.delete(tx, RecordId::from_u64(seg.rid))?;
            }
            self.heap.delete(tx, rid)?;
        }
        Ok(())
    }

    /// A version's state, given its meta and (optionally) its object's
    /// chain head: whole meta bodies win, empty bodies fall back to
    /// materialization off the vid's segment, and a vid absent from
    /// both is genuinely empty.
    fn body_of(
        &self,
        tx: &mut impl PageRead,
        meta: &VersionMeta,
        head: Option<&ChainHead>,
    ) -> Result<Vec<u8>> {
        if !meta.body.is_empty() {
            return Ok(meta.body.clone());
        }
        if let Some(head) = head {
            if let Some((_, seg, pos)) = self.find_entry(tx, head, meta.vid)? {
                return seg.state_at(pos);
            }
        }
        Ok(Vec::new())
    }

    // ------------------------------------------------------------------
    // pnew / newversion / pdelete
    // ------------------------------------------------------------------

    /// `pnew`: create a persistent object with its first version.
    pub fn create_object(
        &self,
        tx: &mut impl PageWrite,
        tag: TypeTag,
        body: Vec<u8>,
    ) -> Result<(Oid, Vid)> {
        let oid = Oid(self.oids.next(tx)?);
        let vid = Vid(self.vids.next(tx)?);
        let version = VersionMeta {
            vid,
            oid,
            tag,
            dprev: Vid::NULL,
            dprev2: Vid::NULL,
            dnext: Vec::new(),
            tprev: Vid::NULL,
            tnext: Vid::NULL,
            created: vid.0,
            body,
        };
        let object = ObjectMeta {
            oid,
            tag,
            root: vid,
            latest: vid,
            version_count: 1,
        };
        self.save_version(tx, &version)?;
        self.save_object(tx, &object)?;
        self.extents.add(tx, tag, oid.0)?;
        Ok((oid, vid))
    }

    /// `newversion(o)` — derive from the object's latest version.
    pub fn new_version_of(&self, tx: &mut impl PageWrite, oid: Oid) -> Result<Vid> {
        let latest = self.object_meta(tx, oid)?.latest;
        self.new_version_from(tx, latest)
    }

    /// `newversion(v)` — derive a new version from a specific base.
    ///
    /// The new version starts as a copy of the base's state, becomes a
    /// derived-from child of the base, and is appended at the temporal
    /// tail (so it is the object's new latest version, regardless of
    /// where in the tree the base sits — exactly the paper's v2-from-v0
    /// "alternative" figure).
    pub fn new_version_from(&self, tx: &mut impl PageWrite, base: Vid) -> Result<Vid> {
        let mut base_meta = self.version_meta(tx, base)?;
        let mut object = self.object_meta(tx, base_meta.oid)?;
        let head = self.load_chain_head(tx, object.oid)?;
        let vid = Vid(self.vids.next(tx)?);

        // The base's state: its whole meta body, or — when the base is
        // a historical chain member whose body was cleared — its
        // materialization off its segment.
        let base_state = self.body_of(tx, &base_meta, head.as_ref())?;

        let version = VersionMeta {
            vid,
            oid: object.oid,
            tag: object.tag,
            dprev: base,
            dprev2: Vid::NULL,
            dnext: Vec::new(),
            tprev: object.latest,
            tnext: Vid::NULL,
            created: vid.0,
            body: base_state,
        };

        base_meta.dnext.push(vid);
        self.check_in(tx, &mut object, head, vec![base_meta], &version)?;
        Ok(vid)
    }

    /// `merge(a, b)` check-in: record `body` (the reconciled state) as
    /// a new version with **both** parents — the derived-from
    /// structure's first DAG edges. The merged version becomes the
    /// object's latest, exactly like any other check-in; the policy
    /// and conflict questions live above this layer (`ode-merge`).
    ///
    /// `a` and `b` must be distinct versions of the same object.
    pub fn new_merge_version(
        &self,
        tx: &mut impl PageWrite,
        a: Vid,
        b: Vid,
        body: Vec<u8>,
    ) -> Result<Vid> {
        let mut a_meta = self.version_meta(tx, a)?;
        let mut b_meta = self.version_meta(tx, b)?;
        if a == b || a_meta.oid != b_meta.oid {
            return Err(VersionError::MergeMismatch { a, b });
        }
        let mut object = self.object_meta(tx, a_meta.oid)?;
        let head = self.load_chain_head(tx, object.oid)?;
        let vid = Vid(self.vids.next(tx)?);

        let version = VersionMeta {
            vid,
            oid: object.oid,
            tag: object.tag,
            dprev: a,
            dprev2: b,
            dnext: Vec::new(),
            tprev: object.latest,
            tnext: Vid::NULL,
            created: vid.0,
            body,
        };

        a_meta.dnext.push(vid);
        b_meta.dnext.push(vid);
        self.check_in(tx, &mut object, head, vec![a_meta, b_meta], &version)?;
        Ok(vid)
    }

    /// Append a fully-formed new version at the object's temporal tail
    /// and make it the latest. `parents` are the new version's parent
    /// records with their `dnext` lists updated but not yet saved. When
    /// one of them is the temporal tail — every plain check-in derives
    /// from the latest — that record is updated in place and written
    /// once; otherwise the tail is loaded. `head` is the object's chain
    /// head, if it has a chain.
    fn check_in(
        &self,
        tx: &mut impl PageWrite,
        object: &mut ObjectMeta,
        head: Option<ChainHead>,
        mut parents: Vec<VersionMeta>,
        version: &VersionMeta,
    ) -> Result<()> {
        let tail = match parents.iter().position(|m| m.vid == object.latest) {
            Some(i) => i,
            None => {
                parents.push(self.version_meta(tx, object.latest)?);
                parents.len() - 1
            }
        };
        let tail = &mut parents[tail];
        tail.tnext = version.vid;
        if head.is_some() || self.chain.is_some() {
            // Chain storage: the outgoing latest surrenders its whole
            // body to the chain (as the delta base / lazy first anchor)
            // and the new version becomes the chain's last entry. The
            // new latest keeps its whole body in its meta, so latest
            // reads never touch the chain.
            let prev_state = std::mem::take(&mut tail.body);
            let (mut head, mut seg, mut head_dirty) = match head {
                Some(head) => {
                    let seg = self.load_segment(tx, &head, head.segments.len() - 1)?;
                    (head, seg, false)
                }
                None => {
                    // First chained version of this object: the chain
                    // starts at the outgoing latest, snapshotted whole.
                    // Any older versions keep their whole-body records
                    // (the migration path for pre-chain databases).
                    let config = self.chain.expect("checked above");
                    let mut head = ChainHead::new(config);
                    let seg = ObjectChain::new(config, object.latest, prev_state.clone());
                    self.push_segment(tx, &mut head, &seg)?;
                    (head, seg, true)
                }
            };
            // Only the tail segment is read and written. Where a whole
            // chain would take an anchor, a new segment opens instead.
            if seg.is_full() {
                let fresh = ObjectChain::new(seg.config(), version.vid, version.body.clone());
                self.push_segment(tx, &mut head, &fresh)?;
                head_dirty = true;
            } else {
                seg.append(version.vid, &prev_state, &version.body);
                let idx = head.segments.len() - 1;
                head_dirty |= self.save_segment(tx, &mut head, idx, &seg)?;
            }
            if head_dirty {
                self.save_head(tx, object.oid, &head)?;
            }
        }
        for meta in &parents {
            self.save_version(tx, meta)?;
        }
        self.save_version(tx, version)?;
        object.latest = version.vid;
        object.version_count += 1;
        self.save_object(tx, object)?;
        Ok(())
    }

    /// `pdelete` on an object id: the object and *all* its versions go.
    pub fn delete_object(&self, tx: &mut impl PageWrite, oid: Oid) -> Result<()> {
        let object = self.object_meta(tx, oid)?;
        // Walk the temporal chain backwards from the latest version.
        let mut cur = object.latest;
        while !cur.is_null() {
            let meta = self.version_meta(tx, cur)?;
            self.drop_version_record(tx, cur)?;
            cur = meta.tprev;
        }
        if let Some(rid) = self.obj_table.remove(tx, oid.0)? {
            self.heap.delete(tx, RecordId::from_u64(rid))?;
        }
        self.drop_chain(tx, oid)?;
        self.extents.remove(tx, object.tag, oid.0)?;
        Ok(())
    }

    /// `pdelete` on a version id: remove one version, splicing the
    /// temporal chain and the derived-from tree around it (children are
    /// re-parented to the deleted version's own parent).
    ///
    /// Deleting the last remaining version is refused — use
    /// [`VersionStore::delete_object`].
    pub fn delete_version(&self, tx: &mut impl PageWrite, vid: Vid) -> Result<()> {
        let meta = self.version_meta(tx, vid)?;
        let mut object = self.object_meta(tx, meta.oid)?;
        if object.version_count <= 1 {
            return Err(VersionError::LastVersion(vid));
        }

        // Chain repair, computed before the graph splices so replayed
        // states come from the untouched segments. Deleting the latest
        // promotes its temporal predecessor back to a whole meta body
        // (so the new latest stays O(1) to read); deleting a historical
        // member re-bases or re-anchors its successor inside its
        // segment. Every segment starts with an anchor, so no repair
        // crosses a segment boundary; a segment left empty is dropped
        // (and the chain with its last segment: the object falls back
        // to pre-chain whole-body versions).
        let mut promoted_body: Option<Vec<u8>> = None;
        if let Some(mut head) = self.load_chain_head(tx, object.oid)? {
            if let Some((idx, mut seg, pos)) = self.find_entry(tx, &head, vid)? {
                if vid == object.latest {
                    promoted_body = match (pos, idx) {
                        (0, 0) => None,
                        (0, _) => {
                            let prev = self.load_segment(tx, &head, idx - 1)?;
                            Some(prev.state_at(prev.entries.len() - 1)?)
                        }
                        _ => Some(seg.state_at(pos - 1)?),
                    };
                }
                seg.remove_at(pos)?;
                if self.save_segment(tx, &mut head, idx, &seg)? {
                    self.save_head(tx, object.oid, &head)?;
                }
            }
        }

        // Temporal splice.
        if !meta.tprev.is_null() {
            let mut prev = self.version_meta(tx, meta.tprev)?;
            prev.tnext = meta.tnext;
            if object.latest == vid {
                if let Some(body) = promoted_body.take() {
                    prev.body = body;
                }
            }
            self.save_version(tx, &prev)?;
        }
        if !meta.tnext.is_null() {
            let mut next = self.version_meta(tx, meta.tnext)?;
            next.tprev = meta.tprev;
            self.save_version(tx, &next)?;
        }
        if object.latest == vid {
            // vid was the tail, so its tprev exists (count > 1).
            object.latest = meta.tprev;
        }

        // Derivation splice: children adopt the deleted version's
        // primary parent in place of the lost edge. A merge child may
        // lose only one of its two parent edges; if the adoption would
        // duplicate its surviving edge, the duplicate collapses and no
        // new edge is created.
        let fallback = meta.dprev;
        let mut adopted: Vec<Vid> = Vec::new();
        for &child in &meta.dnext {
            let mut c = self.version_meta(tx, child)?;
            // The child's parent slot not being re-pointed.
            let other = if c.dprev == vid { c.dprev2 } else { c.dprev };
            if !fallback.is_null() && other != fallback {
                // The child gains a genuinely new edge to the fallback
                // parent and takes over the deleted version's dnext
                // position there.
                adopted.push(child);
            }
            if c.dprev == vid {
                c.dprev = fallback;
            } else {
                c.dprev2 = fallback;
            }
            // Normalize: collapse a duplicated edge, keep the primary
            // slot occupied first.
            if !c.dprev2.is_null() {
                if c.dprev2 == c.dprev {
                    c.dprev2 = Vid::NULL;
                } else if c.dprev.is_null() {
                    c.dprev = c.dprev2;
                    c.dprev2 = Vid::NULL;
                }
            }
            self.save_version(tx, &c)?;
        }
        if !meta.dprev.is_null() {
            let mut parent = self.version_meta(tx, meta.dprev)?;
            let pos = parent
                .dnext
                .iter()
                .position(|&v| v == vid)
                .expect("parent lists child");
            // Adopted children take the deleted version's position,
            // preserving derivation order.
            parent.dnext.splice(pos..=pos, adopted.iter().copied());
            self.save_version(tx, &parent)?;
        }
        if !meta.dprev2.is_null() {
            // The deleted version was itself a merge: its second parent
            // simply loses the edge (children were spliced under the
            // primary parent above).
            let mut parent = self.version_meta(tx, meta.dprev2)?;
            parent.dnext.retain(|&v| v != vid);
            self.save_version(tx, &parent)?;
        }
        if object.root == vid {
            // The root moves to the first re-parented child, or — when
            // the deleted root was childless — to the oldest live
            // version (the temporal splices above already bypass `vid`).
            object.root = match meta.dnext.first() {
                Some(&child) => child,
                None => {
                    let mut head = object.latest;
                    loop {
                        let m = self.version_meta(tx, head)?;
                        if m.tprev.is_null() {
                            break head;
                        }
                        head = m.tprev;
                    }
                }
            };
        }

        object.version_count -= 1;
        self.save_object(tx, &object)?;
        self.drop_version_record(tx, vid)?;
        Ok(())
    }

    // ------------------------------------------------------------------
    // Reads and updates
    // ------------------------------------------------------------------

    /// The latest version id of an object (what a generic reference
    /// binds to *at access time*).
    pub fn latest(&self, tx: &mut impl PageRead, oid: Oid) -> Result<Vid> {
        Ok(self.object_meta(tx, oid)?.latest)
    }

    /// The object a version belongs to.
    pub fn object_of(&self, tx: &mut impl PageRead, vid: Vid) -> Result<Oid> {
        Ok(self.version_meta(tx, vid)?.oid)
    }

    /// Read a version's body, type-checked against `expected`.
    pub fn read_body(
        &self,
        tx: &mut impl PageRead,
        vid: Vid,
        expected: TypeTag,
    ) -> Result<Vec<u8>> {
        self.read_body_cached(tx, vid, expected, None)
    }

    /// [`read_body`](VersionStore::read_body) with an optional
    /// materialization cache keyed by commit epoch. Only chain
    /// materializations are cached (whole meta bodies are already one
    /// record load); pass `None` from write transactions — their own
    /// uncommitted edits don't move the epoch, so cached bodies could
    /// mask them.
    pub fn read_body_cached(
        &self,
        tx: &mut impl PageRead,
        vid: Vid,
        expected: TypeTag,
        cache: Option<(&MaterializeCache, u64)>,
    ) -> Result<Vec<u8>> {
        let meta = self.version_meta(tx, vid)?;
        if meta.tag != expected {
            return Err(VersionError::TypeMismatch {
                expected,
                found: meta.tag,
            });
        }
        // The latest version (and every pre-chain version) stores its
        // body whole: zero chain overhead on the hot path.
        if !meta.body.is_empty() {
            return Ok(meta.body);
        }
        if let Some((cache, epoch)) = cache {
            if let Some(body) = cache.get(epoch, vid.0) {
                return Ok(body);
            }
        }
        // Empty meta body: either a cleared chain member or a genuinely
        // empty version — chain membership disambiguates. Only the
        // head (scanned in place, not decoded) and the one segment
        // holding `vid` are read.
        let Some(head_rid) = self.chain_table.get(tx, meta.oid.0)? else {
            return Ok(Vec::new());
        };
        let head = self.heap.load_bytes(tx, RecordId::from_u64(head_rid))?;
        let (mut seg, Some(at)) = ChainHead::locate(&head, vid)? else {
            return Ok(Vec::new());
        };
        seg.entries = self.heap.load(tx, RecordId::from_u64(at.rid))?;
        let Some(pos) = seg.index_of(vid) else {
            return Ok(Vec::new());
        };
        let state = seg.state_at(pos)?;
        if let Some((cache, epoch)) = cache {
            cache.put(epoch, vid.0, state.clone());
        }
        Ok(state)
    }

    /// Overwrite a version's body in place (no new version is created —
    /// this is ordinary mutation through a pointer in O++).
    ///
    /// For a chained version the chain entry is re-diffed (and the
    /// successor's delta re-based) inside its segment — a segment's
    /// successor segment starts with an anchor, so nothing beyond it
    /// changes; the latest version's whole meta body is kept in step.
    pub fn write_body(
        &self,
        tx: &mut impl PageWrite,
        vid: Vid,
        expected: TypeTag,
        body: Vec<u8>,
    ) -> Result<()> {
        let mut meta = self.version_meta(tx, vid)?;
        if meta.tag != expected {
            return Err(VersionError::TypeMismatch {
                expected,
                found: meta.tag,
            });
        }
        let Some(mut head) = self.load_chain_head(tx, meta.oid)? else {
            meta.body = body;
            return self.save_version(tx, &meta);
        };
        let Some((idx, mut seg, pos)) = self.find_entry(tx, &head, vid)? else {
            meta.body = body;
            return self.save_version(tx, &meta);
        };
        seg.set_state_at(pos, &body)?;
        if meta.tnext.is_null() {
            // vid is the latest: keep its whole meta body.
            meta.body = body;
            self.save_version(tx, &meta)?;
        }
        if self.save_segment(tx, &mut head, idx, &seg)? {
            self.save_head(tx, meta.oid, &head)?;
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Traversal (Dprevious / Tprevious and friends)
    // ------------------------------------------------------------------

    /// `Dprevious`: the version this one was derived from.
    pub fn dprevious(&self, tx: &mut impl PageRead, vid: Vid) -> Result<Option<Vid>> {
        let v = self.version_meta(tx, vid)?.dprev;
        Ok(if v.is_null() { None } else { Some(v) })
    }

    /// `Dnext`: versions derived from this one, in creation order.
    pub fn dnext(&self, tx: &mut impl PageRead, vid: Vid) -> Result<Vec<Vid>> {
        Ok(self.version_meta(tx, vid)?.dnext)
    }

    /// `Tprevious`: the version created immediately before this one.
    pub fn tprevious(&self, tx: &mut impl PageRead, vid: Vid) -> Result<Option<Vid>> {
        let v = self.version_meta(tx, vid)?.tprev;
        Ok(if v.is_null() { None } else { Some(v) })
    }

    /// `Tnext`: the version created immediately after this one.
    pub fn tnext(&self, tx: &mut impl PageRead, vid: Vid) -> Result<Option<Vid>> {
        let v = self.version_meta(tx, vid)?.tnext;
        Ok(if v.is_null() { None } else { Some(v) })
    }

    /// All versions of an object in temporal order (oldest first).
    pub fn version_history(&self, tx: &mut impl PageRead, oid: Oid) -> Result<Vec<Vid>> {
        let object = self.object_meta(tx, oid)?;
        let mut out = Vec::with_capacity(object.version_count as usize);
        let mut cur = object.latest;
        while !cur.is_null() {
            out.push(cur);
            cur = self.version_meta(tx, cur)?.tprev;
        }
        out.reverse();
        Ok(out)
    }

    /// The derivation path from `vid` back to a root (vid first).
    pub fn derivation_path(&self, tx: &mut impl PageRead, vid: Vid) -> Result<Vec<Vid>> {
        let mut out = vec![vid];
        let mut cur = vid;
        loop {
            let prev = self.version_meta(tx, cur)?.dprev;
            if prev.is_null() {
                return Ok(out);
            }
            out.push(prev);
            cur = prev;
        }
    }

    /// All ancestors of `vid` in the derived-from graph — `vid` itself
    /// first, then strictly descending creation order — following
    /// *both* parents of merge versions.
    ///
    /// Reads only version records (graph links); no body is ever
    /// materialized, so the walk is cheap even on chain-backed stores.
    pub fn ancestors(&self, tx: &mut impl PageRead, vid: Vid) -> Result<Vec<Vid>> {
        use std::collections::{BinaryHeap, HashSet};
        // Validate the starting vid eagerly so callers get
        // UnknownVersion rather than an empty walk.
        self.version_meta(tx, vid)?;
        let mut seen: HashSet<Vid> = HashSet::new();
        let mut heap: BinaryHeap<Vid> = BinaryHeap::new();
        seen.insert(vid);
        heap.push(vid);
        let mut out = Vec::new();
        // Max-heap by vid == by creation stamp (`created` is `vid.0`),
        // and parents are always older than children, so popping the
        // max yields strictly descending creation order.
        while let Some(v) = heap.pop() {
            out.push(v);
            let meta = self.version_meta(tx, v)?;
            for p in meta.parents() {
                if seen.insert(p) {
                    heap.push(p);
                }
            }
        }
        Ok(out)
    }

    /// The lowest common ancestor of two versions: of all versions
    /// reachable from both `a` and `b` along derived-from edges
    /// (inclusive), the one with the greatest creation stamp. `None`
    /// when the two share no ancestry (possible after version
    /// deletions split the derivation forest, or across objects).
    ///
    /// This is the merge base: the newest state both sides have seen.
    pub fn common_ancestor(&self, tx: &mut impl PageRead, a: Vid, b: Vid) -> Result<Option<Vid>> {
        use std::collections::{BinaryHeap, HashSet};
        let a_set: HashSet<Vid> = self.ancestors(tx, a)?.into_iter().collect();
        // Walk b's ancestry newest-first; the first member of a's set
        // encountered is the greatest common stamp.
        self.version_meta(tx, b)?;
        let mut seen: HashSet<Vid> = HashSet::new();
        let mut heap: BinaryHeap<Vid> = BinaryHeap::new();
        seen.insert(b);
        heap.push(b);
        while let Some(v) = heap.pop() {
            if a_set.contains(&v) {
                return Ok(Some(v));
            }
            let meta = self.version_meta(tx, v)?;
            for p in meta.parents() {
                if seen.insert(p) {
                    heap.push(p);
                }
            }
        }
        Ok(None)
    }

    /// Leaves of the derived-from tree: "each leaf represents the most
    /// up-to-date version of an alternative design".
    pub fn derivation_leaves(&self, tx: &mut impl PageRead, oid: Oid) -> Result<Vec<Vid>> {
        let mut leaves = Vec::new();
        for vid in self.version_history(tx, oid)? {
            if self.version_meta(tx, vid)?.is_derivation_leaf() {
                leaves.push(vid);
            }
        }
        Ok(leaves)
    }

    /// Number of live versions of an object.
    pub fn version_count(&self, tx: &mut impl PageRead, oid: Oid) -> Result<u64> {
        Ok(self.object_meta(tx, oid)?.version_count)
    }

    /// A version's global creation stamp (monotone across the whole
    /// database — the basis for temporal "as-of" queries in historical
    /// databases, §2).
    pub fn created_stamp(&self, tx: &mut impl PageRead, vid: Vid) -> Result<u64> {
        Ok(self.version_meta(tx, vid)?.created)
    }

    /// The newest version of `oid` created at or before `stamp`
    /// (`None` when the object's oldest surviving version is newer).
    ///
    /// Walks the temporal chain backwards from the latest version, so
    /// recent as-of points are cheap.
    pub fn version_as_of(
        &self,
        tx: &mut impl PageRead,
        oid: Oid,
        stamp: u64,
    ) -> Result<Option<Vid>> {
        let mut cur = self.object_meta(tx, oid)?.latest;
        while !cur.is_null() {
            let meta = self.version_meta(tx, cur)?;
            if meta.created <= stamp {
                return Ok(Some(cur));
            }
            cur = meta.tprev;
        }
        Ok(None)
    }

    /// The current global creation stamp (the stamp the *next* version
    /// will exceed). Capture this to name a database-wide moment.
    pub fn now_stamp(&self, tx: &mut impl PageRead) -> Result<u64> {
        Ok(self.vids.last(tx)?)
    }

    /// All versions of `oid` created in the stamp range `[from, to]`
    /// (inclusive), oldest first — "all versions of X between epochs".
    ///
    /// Chained history is answered straight off the chain's segments
    /// with **no per-version record loads** — the head's first vids
    /// skip every segment outside the range; only versions older than
    /// the chain (or of a chain-less object) fall back to the temporal
    /// walk, which early-terminates below `from`.
    pub fn history_between(
        &self,
        tx: &mut impl PageRead,
        oid: Oid,
        from: u64,
        to: u64,
    ) -> Result<Vec<Vid>> {
        let object = self.object_meta(tx, oid)?;
        if from > to {
            return Ok(Vec::new());
        }
        // Backward temporal walk from `start`, collecting stamps in
        // range (stamps strictly ascend temporally, so the walk stops
        // at the first stamp below `from`).
        let walk = |vs: &Self, tx: &mut _, start: Vid| -> Result<Vec<Vid>> {
            let mut out = Vec::new();
            let mut cur = start;
            while !cur.is_null() {
                let meta = vs.version_meta(tx, cur)?;
                if meta.created < from {
                    break;
                }
                if meta.created <= to {
                    out.push(cur);
                }
                cur = meta.tprev;
            }
            out.reverse();
            Ok(out)
        };
        match self.load_chain_head(tx, oid)? {
            Some(head) => {
                let first = head.segments[0].first;
                let mut out = if from < first.0 {
                    let pre_tail = self.version_meta(tx, first)?.tprev;
                    walk(self, tx, pre_tail)?
                } else {
                    Vec::new()
                };
                // Segment `i` holds vids in [first_i, first_{i+1}).
                for (idx, s) in head.segments.iter().enumerate() {
                    if s.first.0 > to {
                        break;
                    }
                    if head
                        .segments
                        .get(idx + 1)
                        .is_some_and(|n| n.first.0 <= from)
                    {
                        continue;
                    }
                    let seg = self.load_segment(tx, &head, idx)?;
                    out.extend(
                        seg.entries
                            .iter()
                            .map(|e| e.vid)
                            .filter(|v| v.0 >= from && v.0 <= to),
                    );
                }
                Ok(out)
            }
            None => walk(self, tx, object.latest),
        }
    }

    /// Summarize the difference between two versions' states —
    /// "diff v_a..v_b".
    ///
    /// When the two are adjacent members of the same object's chain
    /// (`to` a delta entry, so `from` sits just before it in the same
    /// segment), the stored delta is summarized directly
    /// (`stored = true`) with **no state materialized at all**;
    /// otherwise only the two endpoint states are materialized and
    /// diffed — never the intermediate versions between them.
    pub fn diff_versions(&self, tx: &mut impl PageRead, from: Vid, to: Vid) -> Result<VersionDiff> {
        let meta_a = self.version_meta(tx, from)?;
        let meta_b = self.version_meta(tx, to)?;
        let head_a = self.load_chain_head(tx, meta_a.oid)?;
        if meta_a.oid == meta_b.oid {
            if let Some(head) = &head_a {
                if let Some((_, seg, pos)) = self.find_entry(tx, head, to)? {
                    if pos > 0 && seg.entries[pos - 1].vid == from {
                        if let ChainLink::Delta(d) = &seg.entries[pos].link {
                            return Ok(VersionDiff::from_delta(from, to, d, true));
                        }
                    }
                }
            }
        }
        let head_b_owned;
        let head_b = if meta_b.oid == meta_a.oid {
            head_a.as_ref()
        } else {
            head_b_owned = self.load_chain_head(tx, meta_b.oid)?;
            head_b_owned.as_ref()
        };
        let base = self.body_of(tx, &meta_a, head_a.as_ref())?;
        let target = self.body_of(tx, &meta_b, head_b)?;
        let block = head_a
            .as_ref()
            .map(|h| h.block as usize)
            .unwrap_or(ode_delta::DEFAULT_BLOCK);
        let delta = ode_delta::diff_with_block(&base, &target, block);
        Ok(VersionDiff::from_delta(from, to, &delta, false))
    }

    /// Space/shape statistics of an object's chain (`None` for objects
    /// without one). Decodes every segment record but replays nothing:
    /// each delta records its target length. Whether the deltas really
    /// apply is [`check_object`](VersionStore::check_object)'s job.
    pub fn chain_stats(&self, tx: &mut impl PageRead, oid: Oid) -> Result<Option<ChainStats>> {
        let Some(head) = self.load_chain_head(tx, oid)? else {
            return Ok(None);
        };
        let mut stats = ChainStats {
            versions: 0,
            segments: head.segments.len() as u64,
            anchors: 0,
            deltas: 0,
            interval: head.interval,
            encoded_bytes: 0,
            materialized_bytes: 0,
        };
        for seg in &head.segments {
            let bytes = self.heap.load_bytes(tx, RecordId::from_u64(seg.rid))?;
            let entries: Vec<ChainEntry> = ode_codec::from_bytes(&bytes)?;
            stats.encoded_bytes += bytes.len() as u64;
            stats.versions += entries.len() as u64;
            for e in &entries {
                stats.materialized_bytes += match &e.link {
                    ChainLink::Anchor(state) => {
                        stats.anchors += 1;
                        state.len() as u64
                    }
                    ChainLink::Delta(d) => {
                        stats.deltas += 1;
                        d.target_len
                    }
                };
            }
        }
        Ok(Some(stats))
    }

    /// All live objects of a type, in oid order (the O++ extent query).
    pub fn objects_of_type(&self, tx: &mut impl PageRead, tag: TypeTag) -> Result<Vec<Oid>> {
        Ok(self
            .extents
            .members(tx, tag)?
            .into_iter()
            .map(Oid)
            .collect())
    }

    /// A page of the type's extent: up to `limit` oids `>= from`, in
    /// oid order (cursor-style iteration for extents too large to
    /// materialize).
    pub fn objects_of_type_from(
        &self,
        tx: &mut impl PageRead,
        tag: TypeTag,
        from: Oid,
        limit: usize,
    ) -> Result<Vec<Oid>> {
        Ok(self
            .extents
            .members_from(tx, tag, from.0, limit)?
            .into_iter()
            .map(Oid)
            .collect())
    }

    /// Whether an object id is live.
    pub fn object_exists(&self, tx: &mut impl PageRead, oid: Oid) -> Result<bool> {
        Ok(self.obj_table.get(tx, oid.0)?.is_some())
    }

    /// Whether a version id is live.
    pub fn version_exists(&self, tx: &mut impl PageRead, vid: Vid) -> Result<bool> {
        Ok(self.ver_table.get(tx, vid.0)?.is_some())
    }

    // ------------------------------------------------------------------
    // Invariant checking (tests, fsck)
    // ------------------------------------------------------------------

    /// Verify the structural invariants of one object's version graph:
    /// temporal chain doubly linked with `latest` at the tail and
    /// `version_count` entries, creation stamps strictly ascending along
    /// it, derived-from links forming a forest consistent with `dnext`
    /// lists.
    pub fn check_object(&self, tx: &mut impl PageRead, oid: Oid) -> Result<()> {
        use std::collections::HashSet;
        let object = self.object_meta(tx, oid)?;
        let history = self.version_history(tx, oid)?;
        let corrupt = |msg: &'static str| -> VersionError {
            VersionError::Storage(ode_storage::StorageError::TreeCorrupt(msg))
        };
        if history.len() as u64 != object.version_count {
            return Err(corrupt("version_count mismatch"));
        }
        if *history.last().expect("non-empty history") != object.latest {
            return Err(corrupt("latest is not the temporal tail"));
        }
        let live: HashSet<Vid> = history.iter().copied().collect();
        let mut last_created = 0;
        let mut prev = Vid::NULL;
        for &vid in &history {
            let meta = self.version_meta(tx, vid)?;
            if meta.oid != oid {
                return Err(corrupt("version belongs to another object"));
            }
            if meta.tprev != prev {
                return Err(corrupt("temporal chain back-link broken"));
            }
            if meta.created <= last_created {
                return Err(corrupt("creation stamps not ascending"));
            }
            last_created = meta.created;
            if !meta.dprev2.is_null() {
                if meta.dprev.is_null() {
                    return Err(corrupt("dprev2 set while dprev is null"));
                }
                if meta.dprev2 == meta.dprev {
                    return Err(corrupt("merge parents are not distinct"));
                }
            }
            for parent_vid in meta.parents() {
                if !live.contains(&parent_vid) {
                    return Err(corrupt("dprev points at a dead version"));
                }
                let parent = self.version_meta(tx, parent_vid)?;
                if !parent.dnext.contains(&vid) {
                    return Err(corrupt("parent does not list child"));
                }
                if parent.created >= meta.created {
                    return Err(corrupt("parent not older than child"));
                }
            }
            for &child in &meta.dnext {
                if !live.contains(&child) {
                    return Err(corrupt("dnext lists a dead version"));
                }
                let c = self.version_meta(tx, child)?;
                if c.dprev != vid && c.dprev2 != vid {
                    return Err(corrupt("child does not point at parent"));
                }
            }
            prev = vid;
        }
        if !live.contains(&object.root) {
            return Err(corrupt("root is not a live version"));
        }
        if let Some(head) = self.load_chain_head(tx, oid)? {
            self.check_chain(tx, &object, &history, &head)?;
        }
        Ok(())
    }

    /// Chain-specific invariants, segment by segment: the head lists at
    /// least one segment and each segment record is non-empty, starts
    /// with the anchor the head names, holds no other anchor and no
    /// more than `interval` entries (so no run of deltas reaches
    /// `interval`); the segments, concatenated in head order, are the
    /// contiguous temporal suffix ending at `latest` (so they are in
    /// vid order with no gap or overlap); the replay reproduces
    /// exactly the latest meta body; and every non-last member's meta
    /// body is cleared.
    fn check_chain(
        &self,
        tx: &mut impl PageRead,
        object: &ObjectMeta,
        history: &[Vid],
        head: &ChainHead,
    ) -> Result<()> {
        let corrupt = VersionError::ChainCorrupt;
        if head.segments.is_empty() {
            return Err(corrupt("chain head lists no segments"));
        }
        let interval = head.interval.max(1);
        let mut entries: Vec<ChainEntry> = Vec::new();
        for idx in 0..head.segments.len() {
            let seg = self.load_segment(tx, head, idx)?;
            let Some(first) = seg.entries.first() else {
                return Err(corrupt("chain segment has no entries"));
            };
            if first.vid != head.segments[idx].first {
                return Err(corrupt("chain head misnames a segment's first version"));
            }
            if !matches!(first.link, ChainLink::Anchor(_)) {
                return Err(corrupt("chain segment does not start at an anchor"));
            }
            if seg.anchors() != 1 {
                return Err(corrupt("chain segment holds a second anchor"));
            }
            if seg.entries.len() as u64 > interval {
                return Err(corrupt("anchor interval exceeded"));
            }
            entries.extend(seg.entries);
        }
        if entries.len() > history.len() {
            return Err(corrupt("chain longer than the temporal history"));
        }
        let suffix = &history[history.len() - entries.len()..];
        for (e, &vid) in entries.iter().zip(suffix) {
            if e.vid != vid {
                return Err(corrupt("chain segments are not the temporal suffix"));
            }
        }
        if entries.last().expect("non-empty").vid != object.latest {
            return Err(corrupt("chain does not end at the latest version"));
        }
        let mut state: Vec<u8> = Vec::new();
        for (i, e) in entries.iter().enumerate() {
            state = match &e.link {
                ChainLink::Anchor(s) => s.clone(),
                ChainLink::Delta(d) => ode_delta::apply(&state, d)
                    .map_err(|_| corrupt("chain entry failed to apply"))?,
            };
            let meta = self.version_meta(tx, e.vid)?;
            if i + 1 == entries.len() {
                if meta.body != state {
                    return Err(corrupt("latest meta body disagrees with chain replay"));
                }
            } else if !meta.body.is_empty() {
                return Err(corrupt("historical chain member still stores a whole body"));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use std::cell::Cell;

    use ode_storage::{Store, StoreOptions};

    use super::*;

    thread_local! {
        /// Heap record writes (`save_record` calls) on this thread.
        pub(super) static RECORD_WRITES: Cell<u64> = const { Cell::new(0) };
    }

    const TAG: TypeTag = TypeTag::from_name("graph-test/Doc");

    fn record_writes(f: impl FnOnce()) -> u64 {
        let before = RECORD_WRITES.with(Cell::get);
        f();
        RECORD_WRITES.with(Cell::get) - before
    }

    /// A check-in writes each record it changes once: the outgoing
    /// tail (here also the base), the new version, the object and —
    /// when chained — the chain. A fork from an older version adds only
    /// the base's own record.
    #[test]
    fn a_check_in_writes_each_changed_record_once() {
        for (chained, extra) in [(false, 0), (true, 1)] {
            let path = std::env::temp_dir()
                .join(format!("ode-graph-writes-{chained}-{}", std::process::id()));
            let store = Store::create(&path, StoreOptions::default()).unwrap();
            let vs = if chained {
                VersionStore::with_chain(VersionStoreLayout::default(), ChainConfig::default())
            } else {
                VersionStore::new(VersionStoreLayout::default())
            };
            let mut tx = store.begin();
            let (oid, v0) = vs.create_object(&mut tx, TAG, b"state-0".to_vec()).unwrap();
            vs.new_version_of(&mut tx, oid).unwrap();
            let plain = record_writes(|| {
                vs.new_version_of(&mut tx, oid).unwrap();
            });
            assert_eq!(plain, 3 + extra, "plain check-in (chained: {chained})");
            let fork = record_writes(|| {
                vs.new_version_from(&mut tx, v0).unwrap();
            });
            assert_eq!(fork, 4 + extra, "fork check-in (chained: {chained})");
            vs.check_object(&mut tx, oid).unwrap();
            tx.commit().unwrap();
            drop(store);
            let _ = std::fs::remove_file(&path);
            let mut wal = path.into_os_string();
            wal.push(".wal");
            let _ = std::fs::remove_file(wal);
        }
    }
}
