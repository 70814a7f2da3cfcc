//! Offline upgrade of an `ode::Database` store to the current on-disk
//! format (`odedump migrate <db>`).
//!
//! Format 3 stores each object's delta chain as one heap record per
//! anchor segment (an anchor and the deltas up to the next one, coded
//! as a `Vec<ChainEntry>`) behind a per-object `ChainHead` record in
//! the chain table, which lists every segment's first vid and record
//! id. Format 2 kept the whole chain in the one `ObjectChain` record
//! the chain table pointed at. Format 1 also coded three byte strings —
//! `VersionMeta.body`, `ChainLink::Anchor` and `DeltaOp::Insert` — with
//! the generic `Vec<u8>` codec, one varint per byte, where format 2 on
//! writes one length prefix plus raw bytes. Every other record, every
//! page and the WAL are unchanged, and so are the object bodies
//! themselves: a body is the user type's encoding, opaque to the
//! store, and is copied across verbatim.
//!
//! The older formats' decoding lives here only, as private mirror
//! types derived with the codec macros, so the engine's own decode
//! path has no format branch. The rewrite of every version record (from
//! format 1), the split of every chain record and the header stamp
//! commit as one storage transaction: a crash leaves either the old
//! file or the upgraded one.

use std::path::Path;

use ode_codec::{from_bytes, to_bytes, Persist};
use ode_object::{KvTable, ObjectHeap};
use ode_storage::heap::RecordId;
use ode_storage::store::FORMAT_VERSION;
use ode_storage::{Store, StoreOptions, Tx};
use ode_version::{
    ChainEntry, ChainHead, ChainLink, ObjectChain, SegmentRef, VersionMeta, VersionStoreLayout,
};

use crate::Result;

/// Format-1 mirrors of the records whose encoding changed: field for
/// field the current types, with byte strings as plain `Vec<u8>`
/// (one varint per byte through the generic codec).
mod v1 {
    use ode_codec::{impl_persist_enum, impl_persist_struct, TypeTag};
    use ode_object::{Oid, Vid};

    pub struct VersionMeta {
        pub vid: Vid,
        pub oid: Oid,
        pub tag: TypeTag,
        pub dprev: Vid,
        pub dprev2: Vid,
        pub dnext: Vec<Vid>,
        pub tprev: Vid,
        pub tnext: Vid,
        pub created: u64,
        pub body: Vec<u8>,
    }
    impl_persist_struct!(VersionMeta {
        vid,
        oid,
        tag,
        dprev,
        dprev2,
        dnext,
        tprev,
        tnext,
        created,
        body,
    });

    pub enum DeltaOp {
        Copy { offset: u64, len: u64 },
        Insert(Vec<u8>),
    }
    impl_persist_enum!(DeltaOp {
        Copy { offset, len },
        Insert(bytes),
    });

    pub struct Delta {
        pub target_len: u64,
        pub ops: Vec<DeltaOp>,
    }
    impl_persist_struct!(Delta { target_len, ops });

    pub enum ChainLink {
        Anchor(Vec<u8>),
        Delta(Delta),
    }
    impl_persist_enum!(ChainLink { Anchor(a0), Delta(d0) });

    pub struct ChainEntry {
        pub vid: Vid,
        pub link: ChainLink,
    }
    impl_persist_struct!(ChainEntry { vid, link });

    pub struct ObjectChain {
        pub interval: u64,
        pub block: u64,
        pub entries: Vec<ChainEntry>,
    }
    impl_persist_struct!(ObjectChain {
        interval,
        block,
        entries
    });
}

/// The format-2 mirror of the chain record: the whole chain in one
/// record. Its entries code exactly as format 3's segment entries do.
mod v2 {
    use ode_codec::impl_persist_struct;
    use ode_version::ChainEntry;

    pub struct ObjectChain {
        pub interval: u64,
        pub block: u64,
        pub entries: Vec<ChainEntry>,
    }
    impl_persist_struct!(ObjectChain {
        interval,
        block,
        entries
    });
}

impl From<v2::ObjectChain> for ObjectChain {
    fn from(c: v2::ObjectChain) -> Self {
        ObjectChain {
            interval: c.interval,
            block: c.block,
            entries: c.entries,
        }
    }
}

impl From<v1::VersionMeta> for VersionMeta {
    fn from(m: v1::VersionMeta) -> Self {
        VersionMeta {
            vid: m.vid,
            oid: m.oid,
            tag: m.tag,
            dprev: m.dprev,
            dprev2: m.dprev2,
            dnext: m.dnext,
            tprev: m.tprev,
            tnext: m.tnext,
            created: m.created,
            body: m.body,
        }
    }
}

impl From<v1::ObjectChain> for ObjectChain {
    fn from(c: v1::ObjectChain) -> Self {
        let link = |link| match link {
            v1::ChainLink::Anchor(state) => ChainLink::Anchor(state),
            v1::ChainLink::Delta(d) => ChainLink::Delta(ode_delta::Delta {
                target_len: d.target_len,
                ops: d
                    .ops
                    .into_iter()
                    .map(|op| match op {
                        v1::DeltaOp::Copy { offset, len } => {
                            ode_delta::DeltaOp::Copy { offset, len }
                        }
                        v1::DeltaOp::Insert(bytes) => ode_delta::DeltaOp::Insert(bytes),
                    })
                    .collect(),
            }),
        };
        ObjectChain {
            interval: c.interval,
            block: c.block,
            entries: c
                .entries
                .into_iter()
                .map(|e| ChainEntry {
                    vid: e.vid,
                    link: link(e.link),
                })
                .collect(),
        }
    }
}

/// What one migration did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MigrationReport {
    /// Format the store was in when opened.
    pub from_format: u32,
    /// Format the store is in now ([`FORMAT_VERSION`]).
    pub to_format: u32,
    /// Version records rewritten (format 1 only: format 2 codes them
    /// as format 3 does).
    pub version_records: u64,
    /// Chain records split into segments.
    pub chain_records: u64,
    /// Segment records the chains were split into.
    pub segment_records: u64,
    /// Encoded bytes of the rewritten records before the rewrite.
    pub bytes_before: u64,
    /// Encoded bytes of the rewritten records after the rewrite.
    pub bytes_after: u64,
}

impl MigrationReport {
    /// Whether the store was already current (nothing was written).
    pub fn was_current(&self) -> bool {
        self.from_format == self.to_format
    }
}

/// Upgrade the store at `path` to [`FORMAT_VERSION`] and checkpoint it.
/// A store already in the current format is left untouched.
pub fn migrate(path: &Path) -> Result<MigrationReport> {
    let store = Store::open_for_upgrade(path, StoreOptions::default())?;
    let report = migrate_store(&store)?;
    if !report.was_current() {
        store.checkpoint()?;
    }
    Ok(report)
}

/// Rewrite the records of an open store (see
/// [`Store::open_for_upgrade`]) whose coding changed since its format,
/// and stamp the header, committed as one transaction. The commit is
/// durable in the WAL; the caller decides when to checkpoint.
pub fn migrate_store(store: &Store) -> Result<MigrationReport> {
    let from_format = store.format_version()?;
    let mut report = MigrationReport {
        from_format,
        to_format: FORMAT_VERSION,
        version_records: 0,
        chain_records: 0,
        segment_records: 0,
        bytes_before: 0,
        bytes_after: 0,
    };
    if from_format == FORMAT_VERSION {
        return Ok(report);
    }
    let layout = VersionStoreLayout::default();
    let heap = ObjectHeap::new(layout.heap_slot);
    let mut tx = store.begin();
    let chains = KvTable::new(layout.chain_table_slot);
    if from_format == 1 {
        report.version_records = rewrite::<v1::VersionMeta, VersionMeta>(
            &mut tx,
            heap,
            KvTable::new(layout.ver_table_slot),
            &mut report,
        )?;
        split_chains::<v1::ObjectChain>(&mut tx, heap, chains, &mut report)?;
    } else {
        split_chains::<v2::ObjectChain>(&mut tx, heap, chains, &mut report)?;
    }
    tx.stamp_format_version()?;
    tx.commit()?;
    Ok(report)
}

/// Re-encode every record `table` points at from `Old` to `New`,
/// re-pointing entries whose record moved. Returns the record count.
fn rewrite<Old: Persist, New: Persist + From<Old>>(
    tx: &mut Tx<'_>,
    heap: ObjectHeap,
    table: KvTable,
    report: &mut MigrationReport,
) -> Result<u64> {
    let entries = table.scan_all(tx)?;
    for &(key, rid) in &entries {
        let old = heap.load_bytes(tx, RecordId::from_u64(rid))?;
        let new = to_bytes(&New::from(from_bytes::<Old>(&old)?));
        report.bytes_before += old.len() as u64;
        report.bytes_after += new.len() as u64;
        let new_rid = heap.replace_raw(tx, RecordId::from_u64(rid), &new)?;
        if new_rid.to_u64() != rid {
            table.put(tx, key, new_rid.to_u64())?;
        }
    }
    Ok(entries.len() as u64)
}

/// Replace every whole-chain record `table` points at (decoded as
/// `Old`) by its format-3 form: one new record per anchor segment, and
/// the head listing them in the old record's place, re-pointing the
/// entry when the head moved.
fn split_chains<Old: Persist + Into<ObjectChain>>(
    tx: &mut Tx<'_>,
    heap: ObjectHeap,
    table: KvTable,
    report: &mut MigrationReport,
) -> Result<()> {
    for (oid, rid) in table.scan_all(tx)? {
        let old = heap.load_bytes(tx, RecordId::from_u64(rid))?;
        report.bytes_before += old.len() as u64;
        let chain: ObjectChain = from_bytes::<Old>(&old)?.into();
        let mut head = ChainHead::new(chain.config());
        for seg in chain.into_segments() {
            let bytes = to_bytes(&seg.entries);
            report.bytes_after += bytes.len() as u64;
            head.segments.push(SegmentRef {
                first: seg.entries[0].vid,
                rid: heap.insert_raw(tx, &bytes)?.to_u64(),
            });
        }
        let bytes = to_bytes(&head);
        report.bytes_after += bytes.len() as u64;
        report.segment_records += head.segments.len() as u64;
        report.chain_records += 1;
        let new_rid = heap.replace_raw(tx, RecordId::from_u64(rid), &bytes)?;
        if new_rid.to_u64() != rid {
            table.put(tx, oid, new_rid.to_u64())?;
        }
    }
    Ok(())
}
