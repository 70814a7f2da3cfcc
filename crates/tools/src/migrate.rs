//! Offline upgrade of an `ode::Database` store to the current on-disk
//! format (`odedump migrate <db>`).
//!
//! Format 2 changed how the version layer codes three byte strings:
//! `VersionMeta.body`, `ChainLink::Anchor` and `DeltaOp::Insert` are one
//! length prefix plus raw bytes, where format 1 ran them through the
//! generic `Vec<u8>` codec and spent one varint per byte. Every other
//! record, every page and the WAL are unchanged, and so are the
//! object bodies themselves: a body is the user type's encoding, opaque
//! to the store, and is copied across verbatim.
//!
//! The format-1 decoding lives here only, as private mirror types
//! derived with the codec macros, so the engine's own decode path has
//! no format branch. The rewrite of every version record and every
//! chain record and the header stamp commit as one storage
//! transaction: a crash leaves either the old file or the upgraded one.

use std::path::Path;

use ode_codec::{from_bytes, to_bytes, Persist};
use ode_object::{KvTable, ObjectHeap};
use ode_storage::heap::RecordId;
use ode_storage::store::FORMAT_VERSION;
use ode_storage::{Store, StoreOptions, Tx};
use ode_version::{ChainEntry, ChainLink, ObjectChain, VersionMeta, VersionStoreLayout};

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
    /// Version records rewritten.
    pub version_records: u64,
    /// Chain records rewritten.
    pub chain_records: u64,
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

/// Rewrite every version and chain record of an open store (see
/// [`Store::open_for_upgrade`]) and stamp the header, committed as one
/// transaction. The commit is durable in the WAL; the caller decides
/// when to checkpoint.
pub fn migrate_store(store: &Store) -> Result<MigrationReport> {
    let from_format = store.format_version()?;
    let mut report = MigrationReport {
        from_format,
        to_format: FORMAT_VERSION,
        version_records: 0,
        chain_records: 0,
        bytes_before: 0,
        bytes_after: 0,
    };
    if from_format == FORMAT_VERSION {
        return Ok(report);
    }
    let layout = VersionStoreLayout::default();
    let heap = ObjectHeap::new(layout.heap_slot);
    let mut tx = store.begin();
    report.version_records = rewrite::<v1::VersionMeta, VersionMeta>(
        &mut tx,
        heap,
        KvTable::new(layout.ver_table_slot),
        &mut report,
    )?;
    report.chain_records = rewrite::<v1::ObjectChain, ObjectChain>(
        &mut tx,
        heap,
        KvTable::new(layout.chain_table_slot),
        &mut report,
    )?;
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
