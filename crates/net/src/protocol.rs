//! The Ode wire protocol.
//!
//! A connection starts with a 4-byte handshake: the client sends
//! [`MAGIC`] (`"ODE"` plus a protocol-version byte) and the server
//! echoes it back. After that the stream is a sequence of
//! **length-prefixed frames** in each direction: a LEB128 varint byte
//! count followed by that many payload bytes. Requests and responses
//! use the same framing; every request frame is answered by exactly one
//! response frame, **matched by sequence id, not by order**.
//!
//! Protocol version 2 (the `\x02` in [`MAGIC`]) made the connection a
//! *pipeline*: every request payload starts with a client-assigned
//! varint sequence id, echoed back as the first field of its response
//! payload. A client may keep any number of requests in flight, and the
//! server may answer them out of order (it answers `Ping`, `Stats`, and
//! snapshot-cache hits ahead of queued work); the sequence id is the
//! only correlation between the two streams.
//!
//! After the sequence id, a request payload is an opcode byte followed
//! by the operation's fields; a response payload is a response-kind
//! byte followed by the result fields. All integers (ids, tags, counts,
//! lengths) are LEB128 varints via [`ode_codec`]'s writer/reader;
//! object bodies travel as length-prefixed byte strings holding their
//! normal [`ode_codec`] `Persist` encoding — the server never decodes
//! bodies, it stores and serves the client's bytes and only checks the
//! type tag.
//!
//! The full opcode table lives in the README ("Running Ode as a
//! server"); [`Opcode`] is the authoritative enumeration.

use std::io::{self, Read, Write};

use ode::{MergeConflict, MergePolicy, Oid, TypeTag, Vid};
use ode_codec::{varint, Reader, Writer};

use crate::error::{NetError, RemoteError, Result};

/// Connection handshake: `"ODE"` + protocol version byte. Version 2
/// added pipelining (sequence-id-prefixed payloads); a v1 peer fails
/// the handshake rather than misparsing frames.
pub const MAGIC: [u8; 4] = *b"ODE\x02";

/// Upper bound on a single frame's payload, guarding both sides
/// against allocating unbounded memory on a corrupt length prefix.
pub const MAX_FRAME_LEN: usize = 16 << 20;

// ---------------------------------------------------------------------------
// Opcodes
// ---------------------------------------------------------------------------

/// Request opcodes — the first byte of every request payload.
///
/// The numeric values are the wire encoding and also index the server's
/// per-opcode request counters; they are append-only.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
pub enum Opcode {
    /// Liveness probe.
    Ping = 0,
    /// Server statistics snapshot.
    Stats = 1,
    /// `pnew`: create an object from a tag + encoded body.
    Pnew = 2,
    /// Dereference a generic reference (latest version).
    Deref = 3,
    /// Dereference a specific version.
    DerefVersion = 4,
    /// Replace the latest version's body.
    Update = 5,
    /// Replace a specific version's body.
    UpdateVersion = 6,
    /// Derive a new version from the object's latest.
    NewVersion = 7,
    /// Derive a new version from a specific base version.
    NewVersionFrom = 8,
    /// Delete an object and all its versions.
    Pdelete = 9,
    /// Delete one specific version.
    PdeleteVersion = 10,
    /// Derived-from predecessor.
    Dprevious = 11,
    /// Derived-from successors.
    Dnext = 12,
    /// Temporal predecessor.
    Tprevious = 13,
    /// Temporal successor.
    Tnext = 14,
    /// All versions of an object in temporal order.
    VersionHistory = 15,
    /// Pin the current latest version.
    CurrentVersion = 16,
    /// Extent scan: all live objects of a type.
    Objects = 17,
    /// Extent page: objects of a type from a cursor.
    ObjectsPage = 18,
    /// The object a version belongs to.
    ObjectOf = 19,
    /// Number of live versions of an object.
    VersionCount = 20,
    /// Whether an object exists.
    Exists = 21,
    /// Whether a version exists.
    VersionExists = 22,
    /// The node's applied commit epoch (answered inline, like `Ping`).
    Epoch = 23,
    /// Set this connection's read floor: subsequent reads wait until
    /// the node has applied at least this epoch (replica read gate).
    ReadFloor = 24,
    /// Promote a replica node to primary (driven failover).
    Promote = 25,
    /// All versions of an object created in a global-stamp range
    /// (served from the object's delta chain when it has one).
    HistoryBetween = 26,
    /// Summary of the difference between two versions' states.
    DiffVersions = 27,
    /// Three-way merge of two versions into a new two-parent version.
    Merge = 28,
}

/// Number of opcodes (size of the server's per-opcode counter array).
pub const OPCODE_COUNT: usize = 29;

/// What a request's shard is decided by, read off its wire bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Routing {
    /// A new object: the router places it.
    Placed,
    /// The object id that leads the operands.
    Oid,
    /// The version id that leads the operands.
    Vid,
    /// Needs the fully decoded request: answered locally, fanned out,
    /// or routed by more than one operand.
    Decoded,
}

impl Opcode {
    /// Every opcode, in wire order.
    pub const ALL: [Opcode; OPCODE_COUNT] = [
        Opcode::Ping,
        Opcode::Stats,
        Opcode::Pnew,
        Opcode::Deref,
        Opcode::DerefVersion,
        Opcode::Update,
        Opcode::UpdateVersion,
        Opcode::NewVersion,
        Opcode::NewVersionFrom,
        Opcode::Pdelete,
        Opcode::PdeleteVersion,
        Opcode::Dprevious,
        Opcode::Dnext,
        Opcode::Tprevious,
        Opcode::Tnext,
        Opcode::VersionHistory,
        Opcode::CurrentVersion,
        Opcode::Objects,
        Opcode::ObjectsPage,
        Opcode::ObjectOf,
        Opcode::VersionCount,
        Opcode::Exists,
        Opcode::VersionExists,
        Opcode::Epoch,
        Opcode::ReadFloor,
        Opcode::Promote,
        Opcode::HistoryBetween,
        Opcode::DiffVersions,
        Opcode::Merge,
    ];

    /// Decode a wire byte.
    pub fn from_u8(b: u8) -> Option<Opcode> {
        Opcode::ALL.get(b as usize).copied()
    }

    /// Whether requests with this opcode only read — readable from a
    /// snapshot, and safe for the client to retry once over a fresh
    /// connection.
    pub fn is_read(self) -> bool {
        self.class().0
    }

    /// How the router finds a request's shard from its wire bytes.
    pub(crate) fn routing(self) -> Routing {
        self.class().1
    }

    /// The one classification table: per opcode, whether it only reads
    /// and what its request routes by.
    fn class(self) -> (bool, Routing) {
        use Opcode as O;
        use Routing as R;
        match self {
            O::Pnew => (false, R::Placed),
            O::Deref | O::VersionHistory | O::CurrentVersion | O::VersionCount | O::Exists => {
                (true, R::Oid)
            }
            O::Update | O::NewVersion | O::Pdelete => (false, R::Oid),
            O::DerefVersion
            | O::Dprevious
            | O::Dnext
            | O::Tprevious
            | O::Tnext
            | O::ObjectOf
            | O::VersionExists => (true, R::Vid),
            O::UpdateVersion | O::NewVersionFrom | O::PdeleteVersion => (false, R::Vid),
            O::Ping
            | O::Stats
            | O::Objects
            | O::ObjectsPage
            | O::Epoch
            | O::ReadFloor
            | O::HistoryBetween
            | O::DiffVersions => (true, R::Decoded),
            O::Promote | O::Merge => (false, R::Decoded),
        }
    }

    /// Human-readable name (stats displays, CLI output).
    pub fn name(self) -> &'static str {
        match self {
            Opcode::Ping => "ping",
            Opcode::Stats => "stats",
            Opcode::Pnew => "pnew",
            Opcode::Deref => "deref",
            Opcode::DerefVersion => "deref_version",
            Opcode::Update => "update",
            Opcode::UpdateVersion => "update_version",
            Opcode::NewVersion => "newversion",
            Opcode::NewVersionFrom => "newversion_from",
            Opcode::Pdelete => "pdelete",
            Opcode::PdeleteVersion => "pdelete_version",
            Opcode::Dprevious => "dprevious",
            Opcode::Dnext => "dnext",
            Opcode::Tprevious => "tprevious",
            Opcode::Tnext => "tnext",
            Opcode::VersionHistory => "version_history",
            Opcode::CurrentVersion => "current_version",
            Opcode::Objects => "objects",
            Opcode::ObjectsPage => "objects_page",
            Opcode::ObjectOf => "object_of",
            Opcode::VersionCount => "version_count",
            Opcode::Exists => "exists",
            Opcode::VersionExists => "version_exists",
            Opcode::Epoch => "epoch",
            Opcode::ReadFloor => "read_floor",
            Opcode::Promote => "promote",
            Opcode::HistoryBetween => "history_between",
            Opcode::DiffVersions => "diff_versions",
            Opcode::Merge => "merge",
        }
    }
}

// ---------------------------------------------------------------------------
// Requests
// ---------------------------------------------------------------------------

/// One request frame's decoded payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Liveness probe.
    Ping,
    /// Server statistics snapshot.
    Stats,
    /// Create an object: first version holds `body` (already
    /// `Persist`-encoded by the client).
    Pnew {
        /// Stored type tag of the object's type.
        tag: TypeTag,
        /// Encoded first-version body.
        body: Vec<u8>,
    },
    /// Latest version's body of `oid`, type-checked against `tag`.
    Deref {
        /// Object to dereference.
        oid: Oid,
        /// Expected type tag.
        tag: TypeTag,
    },
    /// A specific version's body, type-checked against `tag`.
    DerefVersion {
        /// Version to dereference.
        vid: Vid,
        /// Expected type tag.
        tag: TypeTag,
    },
    /// Replace the latest version's body.
    Update {
        /// Object whose latest version to overwrite.
        oid: Oid,
        /// Expected type tag.
        tag: TypeTag,
        /// New encoded body.
        body: Vec<u8>,
    },
    /// Replace a specific version's body.
    UpdateVersion {
        /// Version to overwrite.
        vid: Vid,
        /// Expected type tag.
        tag: TypeTag,
        /// New encoded body.
        body: Vec<u8>,
    },
    /// Derive a new version from the object's latest.
    NewVersion {
        /// Object to version.
        oid: Oid,
    },
    /// Derive a new version from a specific base.
    NewVersionFrom {
        /// Base version.
        vid: Vid,
    },
    /// Delete an object and all its versions.
    Pdelete {
        /// Object to delete.
        oid: Oid,
    },
    /// Delete one specific version.
    PdeleteVersion {
        /// Version to delete.
        vid: Vid,
    },
    /// Derived-from predecessor of `vid`.
    Dprevious {
        /// Version to traverse from.
        vid: Vid,
    },
    /// Derived-from successors of `vid`.
    Dnext {
        /// Version to traverse from.
        vid: Vid,
    },
    /// Temporal predecessor of `vid`.
    Tprevious {
        /// Version to traverse from.
        vid: Vid,
    },
    /// Temporal successor of `vid`.
    Tnext {
        /// Version to traverse from.
        vid: Vid,
    },
    /// All versions of `oid` in temporal order.
    VersionHistory {
        /// Object to list.
        oid: Oid,
    },
    /// Pin `oid`'s current latest version.
    CurrentVersion {
        /// Object to pin.
        oid: Oid,
    },
    /// Extent scan: all live objects tagged `tag`.
    Objects {
        /// Type tag of the extent.
        tag: TypeTag,
    },
    /// Extent page: up to `limit` objects tagged `tag` with ids `>=
    /// after`.
    ObjectsPage {
        /// Type tag of the extent.
        tag: TypeTag,
        /// Cursor: smallest id to return.
        after: Oid,
        /// Maximum number of objects.
        limit: u64,
    },
    /// The object `vid` belongs to.
    ObjectOf {
        /// Version to resolve.
        vid: Vid,
    },
    /// Number of live versions of `oid`.
    VersionCount {
        /// Object to count.
        oid: Oid,
    },
    /// Whether `oid` exists.
    Exists {
        /// Object to probe.
        oid: Oid,
    },
    /// Whether `vid` exists.
    VersionExists {
        /// Version to probe.
        vid: Vid,
    },
    /// The node's applied commit epoch (the router's health probe).
    Epoch,
    /// Read-your-writes gate for replica reads: pin this connection's
    /// reads at `epoch` — they wait until the node has applied it.
    ReadFloor {
        /// Minimum applied epoch subsequent reads require (0 clears).
        epoch: u64,
    },
    /// Promote this node from replica to primary (driven failover;
    /// idempotent).
    Promote,
    /// All versions of `oid` whose global stamp lies in `from..=to`,
    /// oldest first — served from the object's delta chain when it has
    /// one, without materializing any bodies.
    HistoryBetween {
        /// Object whose history to slice.
        oid: Oid,
        /// Smallest global stamp to include.
        from: u64,
        /// Largest global stamp to include.
        to: u64,
    },
    /// Summary of the byte difference between two versions' states.
    DiffVersions {
        /// Base version.
        from: Vid,
        /// Target version.
        to: Vid,
    },
    /// Three-way merge `a` and `b` (two versions of one object) against
    /// their common ancestor, checking the result in as a new version
    /// with both parents recorded.
    Merge {
        /// First parent ("ours").
        a: Vid,
        /// Second parent ("theirs").
        b: Vid,
        /// Conflict policy.
        policy: MergePolicy,
    },
}

impl Request {
    /// This request's opcode.
    pub fn opcode(&self) -> Opcode {
        match self {
            Request::Ping => Opcode::Ping,
            Request::Stats => Opcode::Stats,
            Request::Pnew { .. } => Opcode::Pnew,
            Request::Deref { .. } => Opcode::Deref,
            Request::DerefVersion { .. } => Opcode::DerefVersion,
            Request::Update { .. } => Opcode::Update,
            Request::UpdateVersion { .. } => Opcode::UpdateVersion,
            Request::NewVersion { .. } => Opcode::NewVersion,
            Request::NewVersionFrom { .. } => Opcode::NewVersionFrom,
            Request::Pdelete { .. } => Opcode::Pdelete,
            Request::PdeleteVersion { .. } => Opcode::PdeleteVersion,
            Request::Dprevious { .. } => Opcode::Dprevious,
            Request::Dnext { .. } => Opcode::Dnext,
            Request::Tprevious { .. } => Opcode::Tprevious,
            Request::Tnext { .. } => Opcode::Tnext,
            Request::VersionHistory { .. } => Opcode::VersionHistory,
            Request::CurrentVersion { .. } => Opcode::CurrentVersion,
            Request::Objects { .. } => Opcode::Objects,
            Request::ObjectsPage { .. } => Opcode::ObjectsPage,
            Request::ObjectOf { .. } => Opcode::ObjectOf,
            Request::VersionCount { .. } => Opcode::VersionCount,
            Request::Exists { .. } => Opcode::Exists,
            Request::VersionExists { .. } => Opcode::VersionExists,
            Request::Epoch => Opcode::Epoch,
            Request::ReadFloor { .. } => Opcode::ReadFloor,
            Request::Promote => Opcode::Promote,
            Request::HistoryBetween { .. } => Opcode::HistoryBetween,
            Request::DiffVersions { .. } => Opcode::DiffVersions,
            Request::Merge { .. } => Opcode::Merge,
        }
    }

    /// Whether this request only reads — readable from a snapshot, and
    /// safe for the client to retry once over a fresh connection.
    pub fn is_read(&self) -> bool {
        self.opcode().is_read()
    }

    /// Encode into a frame payload (no length prefix), stamped with the
    /// client-assigned sequence id the response will echo.
    pub fn encode(&self, seq: u64) -> Vec<u8> {
        let mut w = Writer::new();
        w.put_varint(seq);
        w.put_u8(self.opcode() as u8);
        match self {
            Request::Ping | Request::Stats | Request::Epoch | Request::Promote => {}
            Request::ReadFloor { epoch } => {
                w.put_varint(*epoch);
            }
            Request::Pnew { tag, body } => {
                w.put_varint(tag.0);
                w.put_bytes(body);
            }
            Request::Deref { oid, tag } => {
                w.put_varint(oid.0);
                w.put_varint(tag.0);
            }
            Request::DerefVersion { vid, tag } => {
                w.put_varint(vid.0);
                w.put_varint(tag.0);
            }
            Request::Update { oid, tag, body } => {
                w.put_varint(oid.0);
                w.put_varint(tag.0);
                w.put_bytes(body);
            }
            Request::UpdateVersion { vid, tag, body } => {
                w.put_varint(vid.0);
                w.put_varint(tag.0);
                w.put_bytes(body);
            }
            Request::NewVersion { oid }
            | Request::Pdelete { oid }
            | Request::VersionHistory { oid }
            | Request::CurrentVersion { oid }
            | Request::VersionCount { oid }
            | Request::Exists { oid } => {
                w.put_varint(oid.0);
            }
            Request::NewVersionFrom { vid }
            | Request::PdeleteVersion { vid }
            | Request::Dprevious { vid }
            | Request::Dnext { vid }
            | Request::Tprevious { vid }
            | Request::Tnext { vid }
            | Request::ObjectOf { vid }
            | Request::VersionExists { vid } => {
                w.put_varint(vid.0);
            }
            Request::Objects { tag } => {
                w.put_varint(tag.0);
            }
            Request::ObjectsPage { tag, after, limit } => {
                w.put_varint(tag.0);
                w.put_varint(after.0);
                w.put_varint(*limit);
            }
            Request::HistoryBetween { oid, from, to } => {
                w.put_varint(oid.0);
                w.put_varint(*from);
                w.put_varint(*to);
            }
            Request::DiffVersions { from, to } => {
                w.put_varint(from.0);
                w.put_varint(to.0);
            }
            Request::Merge { a, b, policy } => {
                w.put_varint(a.0);
                w.put_varint(b.0);
                w.put_u8(policy.as_u8());
            }
        }
        w.into_bytes()
    }

    /// Decode just the sequence id from a request payload — the part a
    /// server can still echo in an error frame when the rest of the
    /// payload is garbage.
    pub fn decode_seq(payload: &[u8]) -> Result<u64> {
        Ok(Reader::new(payload).get_varint()?)
    }

    /// Decode a frame payload into its sequence id and request. Strict:
    /// unknown opcodes and trailing bytes are protocol errors.
    pub fn decode(payload: &[u8]) -> Result<(u64, Request)> {
        let mut r = Reader::new(payload);
        let seq = r.get_varint()?;
        let op = r.get_u8()?;
        let op = Opcode::from_u8(op)
            .ok_or_else(|| NetError::Protocol(format!("unknown request opcode {op}")))?;
        let req = match op {
            Opcode::Ping => Request::Ping,
            Opcode::Stats => Request::Stats,
            Opcode::Pnew => Request::Pnew {
                tag: TypeTag(r.get_varint()?),
                body: r.get_bytes()?.to_vec(),
            },
            Opcode::Deref => Request::Deref {
                oid: Oid(r.get_varint()?),
                tag: TypeTag(r.get_varint()?),
            },
            Opcode::DerefVersion => Request::DerefVersion {
                vid: Vid(r.get_varint()?),
                tag: TypeTag(r.get_varint()?),
            },
            Opcode::Update => Request::Update {
                oid: Oid(r.get_varint()?),
                tag: TypeTag(r.get_varint()?),
                body: r.get_bytes()?.to_vec(),
            },
            Opcode::UpdateVersion => Request::UpdateVersion {
                vid: Vid(r.get_varint()?),
                tag: TypeTag(r.get_varint()?),
                body: r.get_bytes()?.to_vec(),
            },
            Opcode::NewVersion => Request::NewVersion {
                oid: Oid(r.get_varint()?),
            },
            Opcode::NewVersionFrom => Request::NewVersionFrom {
                vid: Vid(r.get_varint()?),
            },
            Opcode::Pdelete => Request::Pdelete {
                oid: Oid(r.get_varint()?),
            },
            Opcode::PdeleteVersion => Request::PdeleteVersion {
                vid: Vid(r.get_varint()?),
            },
            Opcode::Dprevious => Request::Dprevious {
                vid: Vid(r.get_varint()?),
            },
            Opcode::Dnext => Request::Dnext {
                vid: Vid(r.get_varint()?),
            },
            Opcode::Tprevious => Request::Tprevious {
                vid: Vid(r.get_varint()?),
            },
            Opcode::Tnext => Request::Tnext {
                vid: Vid(r.get_varint()?),
            },
            Opcode::VersionHistory => Request::VersionHistory {
                oid: Oid(r.get_varint()?),
            },
            Opcode::CurrentVersion => Request::CurrentVersion {
                oid: Oid(r.get_varint()?),
            },
            Opcode::Objects => Request::Objects {
                tag: TypeTag(r.get_varint()?),
            },
            Opcode::ObjectsPage => Request::ObjectsPage {
                tag: TypeTag(r.get_varint()?),
                after: Oid(r.get_varint()?),
                limit: r.get_varint()?,
            },
            Opcode::ObjectOf => Request::ObjectOf {
                vid: Vid(r.get_varint()?),
            },
            Opcode::VersionCount => Request::VersionCount {
                oid: Oid(r.get_varint()?),
            },
            Opcode::Exists => Request::Exists {
                oid: Oid(r.get_varint()?),
            },
            Opcode::VersionExists => Request::VersionExists {
                vid: Vid(r.get_varint()?),
            },
            Opcode::Epoch => Request::Epoch,
            Opcode::ReadFloor => Request::ReadFloor {
                epoch: r.get_varint()?,
            },
            Opcode::Promote => Request::Promote,
            Opcode::HistoryBetween => Request::HistoryBetween {
                oid: Oid(r.get_varint()?),
                from: r.get_varint()?,
                to: r.get_varint()?,
            },
            Opcode::DiffVersions => Request::DiffVersions {
                from: Vid(r.get_varint()?),
                to: Vid(r.get_varint()?),
            },
            Opcode::Merge => Request::Merge {
                a: Vid(r.get_varint()?),
                b: Vid(r.get_varint()?),
                policy: {
                    let p = r.get_u8()?;
                    MergePolicy::from_u8(p).ok_or_else(|| {
                        NetError::Protocol(format!("unknown merge policy byte {p}"))
                    })?
                },
            },
        };
        if r.remaining() != 0 {
            return Err(NetError::Protocol(format!(
                "{} trailing bytes after {} request",
                r.remaining(),
                op.name()
            )));
        }
        Ok((seq, req))
    }
}

// ---------------------------------------------------------------------------
// Responses
// ---------------------------------------------------------------------------

/// Response-kind byte values (first byte of every response payload
/// after the sequence id varint). `pub(crate)` so the router can
/// recognize re-taggable response shapes without a full decode.
pub(crate) mod kind {
    pub const PONG: u8 = 0;
    pub const STATS: u8 = 1;
    pub const CREATED: u8 = 2;
    pub const VERSION: u8 = 3;
    pub const BODY: u8 = 4;
    pub const UNIT: u8 = 5;
    pub const MAYBE_VERSION: u8 = 6;
    pub const VERSIONS: u8 = 7;
    pub const OBJECTS: u8 = 8;
    pub const OBJECT: u8 = 9;
    pub const COUNT: u8 = 10;
    pub const FLAG: u8 = 11;
    pub const DIFF: u8 = 12;
    pub const MERGED: u8 = 13;
    pub const ERR: u8 = 255;
}

/// A version-to-version difference summary, the reply to
/// `DiffVersions` — the wire view of the core's `VersionDiff`, flat
/// varint fields so the router can remap the vids without decoding the
/// rest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DiffSummary {
    /// Base version.
    pub from: Vid,
    /// Target version.
    pub to: Vid,
    /// Length of the target state in bytes.
    pub to_len: u64,
    /// Number of copy/insert ops in the delta.
    pub ops: u64,
    /// Bytes the delta carries literally (not copied from the base).
    pub literal_bytes: u64,
    /// Encoded size of the delta in bytes.
    pub encoded_bytes: u64,
    /// Whether this delta was served straight from the object's stored
    /// chain (adjacent versions) rather than computed on demand.
    pub stored: bool,
}

/// Storage-engine contention and commit counters, nested inside
/// [`StatsReport`] — the server-side view of
/// `ode_storage::StoreStats`, so operators can watch reader/writer
/// lock waits and group-commit batching over the wire.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StorageCounters {
    /// Read transactions (snapshots) begun.
    pub read_txs: u64,
    /// Write transactions committed with a non-empty write set.
    pub write_txs: u64,
    /// Snapshot acquisitions that blocked at the snapshot gate.
    pub reader_waits: u64,
    /// Total nanoseconds readers spent blocked.
    pub reader_wait_nanos: u64,
    /// Writer acquisitions (write mutex or publish gate) that blocked.
    pub writer_waits: u64,
    /// Total nanoseconds writers spent blocked.
    pub writer_wait_nanos: u64,
    /// WAL fsyncs issued (inline and group-leader).
    pub wal_syncs: u64,
    /// fsyncs performed by a group-commit leader.
    pub group_syncs: u64,
    /// Commits made durable by a group-leader fsync.
    pub group_commit_txns: u64,
    /// Largest commit cohort one group fsync covered.
    pub group_batch_max: u64,
    /// WAL + snapshot bytes shipped to replicas.
    pub bytes_shipped: u64,
    /// Worst replica lag behind the primary, in commit epochs (gauge).
    pub replica_lag_epochs: u64,
    /// Replica-to-primary promotions this node has performed.
    pub failovers: u64,
    /// Optimistic transactions aborted by first-committer-wins
    /// validation (each one re-executed by the retry loop or surfaced
    /// to the client).
    pub write_conflicts: u64,
    /// Re-executions of conflicted transactions.
    pub write_retries: u64,
}

impl StorageCounters {
    fn encode_into(&self, w: &mut Writer) {
        w.put_varint(self.read_txs);
        w.put_varint(self.write_txs);
        w.put_varint(self.reader_waits);
        w.put_varint(self.reader_wait_nanos);
        w.put_varint(self.writer_waits);
        w.put_varint(self.writer_wait_nanos);
        w.put_varint(self.wal_syncs);
        w.put_varint(self.group_syncs);
        w.put_varint(self.group_commit_txns);
        w.put_varint(self.group_batch_max);
        w.put_varint(self.bytes_shipped);
        w.put_varint(self.replica_lag_epochs);
        w.put_varint(self.failovers);
        w.put_varint(self.write_conflicts);
        w.put_varint(self.write_retries);
    }

    fn decode_from(r: &mut Reader<'_>) -> Result<StorageCounters> {
        Ok(StorageCounters {
            read_txs: r.get_varint()?,
            write_txs: r.get_varint()?,
            reader_waits: r.get_varint()?,
            reader_wait_nanos: r.get_varint()?,
            writer_waits: r.get_varint()?,
            writer_wait_nanos: r.get_varint()?,
            wal_syncs: r.get_varint()?,
            group_syncs: r.get_varint()?,
            group_commit_txns: r.get_varint()?,
            group_batch_max: r.get_varint()?,
            bytes_shipped: r.get_varint()?,
            replica_lag_epochs: r.get_varint()?,
            failovers: r.get_varint()?,
            write_conflicts: r.get_varint()?,
            write_retries: r.get_varint()?,
        })
    }
}

/// Server statistics, shipped by the `Stats` opcode.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StatsReport {
    /// Connections currently in a session (post-handshake).
    pub active_connections: u64,
    /// Connections accepted over the server's lifetime.
    pub total_connections: u64,
    /// Frame payload bytes received (length prefixes included).
    pub bytes_in: u64,
    /// Frame payload bytes sent (length prefixes included).
    pub bytes_out: u64,
    /// Frames that violated the protocol (bad opcode, bad payload).
    pub protocol_errors: u64,
    /// Requests that executed and failed (error frames sent).
    pub op_errors: u64,
    /// Read requests answered from the server's snapshot cache without
    /// touching the store.
    pub snapshot_hits: u64,
    /// Read requests that had to open a fresh database snapshot.
    pub snapshot_misses: u64,
    /// Connections evicted because their response backlog exceeded the
    /// server's write-buffer cap (a slow or stalled reader).
    pub slow_client_evictions: u64,
    /// Historical reads answered from the materialization cache
    /// (delta-chain states rebuilt earlier this commit epoch).
    pub materialize_hits: u64,
    /// Historical reads that had to replay the delta chain.
    pub materialize_misses: u64,
    /// Per-opcode request counts; only non-zero entries are listed.
    pub requests: Vec<(Opcode, u64)>,
    /// Storage-engine contention and commit counters.
    pub storage: StorageCounters,
}

impl StatsReport {
    /// The count recorded for one opcode.
    pub fn requests_for(&self, op: Opcode) -> u64 {
        self.requests
            .iter()
            .find(|(o, _)| *o == op)
            .map_or(0, |(_, n)| *n)
    }

    /// Total requests across every opcode.
    pub fn total_requests(&self) -> u64 {
        self.requests.iter().map(|(_, n)| *n).sum()
    }

    fn encode_into(&self, w: &mut Writer) {
        w.put_varint(self.active_connections);
        w.put_varint(self.total_connections);
        w.put_varint(self.bytes_in);
        w.put_varint(self.bytes_out);
        w.put_varint(self.protocol_errors);
        w.put_varint(self.op_errors);
        w.put_varint(self.snapshot_hits);
        w.put_varint(self.snapshot_misses);
        w.put_varint(self.slow_client_evictions);
        w.put_varint(self.materialize_hits);
        w.put_varint(self.materialize_misses);
        w.put_varint(self.requests.len() as u64);
        for (op, n) in &self.requests {
            w.put_u8(*op as u8);
            w.put_varint(*n);
        }
        self.storage.encode_into(w);
    }

    fn decode_from(r: &mut Reader<'_>) -> Result<StatsReport> {
        let active_connections = r.get_varint()?;
        let total_connections = r.get_varint()?;
        let bytes_in = r.get_varint()?;
        let bytes_out = r.get_varint()?;
        let protocol_errors = r.get_varint()?;
        let op_errors = r.get_varint()?;
        let snapshot_hits = r.get_varint()?;
        let snapshot_misses = r.get_varint()?;
        let slow_client_evictions = r.get_varint()?;
        let materialize_hits = r.get_varint()?;
        let materialize_misses = r.get_varint()?;
        let n = r.get_count()?;
        let mut requests = Vec::with_capacity(n.min(OPCODE_COUNT));
        for _ in 0..n {
            let op = r.get_u8()?;
            let op = Opcode::from_u8(op)
                .ok_or_else(|| NetError::Protocol(format!("unknown stats opcode {op}")))?;
            requests.push((op, r.get_varint()?));
        }
        let storage = StorageCounters::decode_from(r)?;
        Ok(StatsReport {
            active_connections,
            total_connections,
            bytes_in,
            bytes_out,
            protocol_errors,
            op_errors,
            snapshot_hits,
            snapshot_misses,
            slow_client_evictions,
            materialize_hits,
            materialize_misses,
            requests,
            storage,
        })
    }
}

/// One response frame's decoded payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// Reply to `Ping`.
    Pong,
    /// Reply to `Stats`.
    Stats(StatsReport),
    /// Reply to `Pnew`: the new object and its first version.
    Created {
        /// New object id.
        oid: Oid,
        /// Its first version.
        vid: Vid,
    },
    /// A single version id (`NewVersion`, `NewVersionFrom`, `Update`,
    /// `CurrentVersion`).
    Version(Vid),
    /// An encoded body plus the version it came from (`Deref`,
    /// `DerefVersion`).
    Body {
        /// The version the body belongs to (for `Deref`, the resolved
        /// latest).
        vid: Vid,
        /// `Persist`-encoded object state.
        bytes: Vec<u8>,
    },
    /// Success with nothing to return (`UpdateVersion`, `Pdelete`,
    /// `PdeleteVersion`).
    Unit,
    /// An optional version id (the four traversals).
    MaybeVersion(Option<Vid>),
    /// A list of version ids (`Dnext`, `VersionHistory`).
    Versions(Vec<Vid>),
    /// A list of object ids (`Objects`, `ObjectsPage`).
    Objects(Vec<Oid>),
    /// A single object id (`ObjectOf`).
    Object(Oid),
    /// A count (`VersionCount`).
    Count(u64),
    /// A boolean (`Exists`, `VersionExists`).
    Flag(bool),
    /// A version-difference summary (`DiffVersions`).
    Diff(DiffSummary),
    /// The outcome of a `Merge`: the checked-in two-parent version
    /// (`None` when the `Fail` policy met conflicts) and every
    /// conflicting byte range. Conflict offsets are positions in the
    /// merge base's body — shard-agnostic, so a router passes them
    /// through untouched.
    Merged {
        /// The new merge version, when one was checked in.
        vid: Option<Vid>,
        /// Overlapping edits between the two sides.
        conflicts: Vec<MergeConflict>,
    },
    /// The operation failed on the server.
    Err(RemoteError),
}

impl Response {
    /// Short name of this response's shape (protocol-error messages).
    pub fn kind_name(&self) -> &'static str {
        match self {
            Response::Pong => "pong",
            Response::Stats(_) => "stats",
            Response::Created { .. } => "created",
            Response::Version(_) => "version",
            Response::Body { .. } => "body",
            Response::Unit => "unit",
            Response::MaybeVersion(_) => "maybe_version",
            Response::Versions(_) => "versions",
            Response::Objects(_) => "objects",
            Response::Object(_) => "object",
            Response::Count(_) => "count",
            Response::Flag(_) => "flag",
            Response::Diff(_) => "diff",
            Response::Merged { .. } => "merged",
            Response::Err(_) => "err",
        }
    }

    /// Decode just the echoed sequence id from a response payload — the
    /// part a client can still correlate when the rest of the payload
    /// is garbage (see [`crate::OdeClient::recv`] on per-request decode
    /// errors).
    pub fn decode_seq(payload: &[u8]) -> Result<u64> {
        Ok(Reader::new(payload).get_varint()?)
    }

    /// Encode into a frame payload (no length prefix), echoing the
    /// sequence id of the request this response answers.
    pub fn encode(&self, seq: u64) -> Vec<u8> {
        let mut w = Writer::new();
        w.put_varint(seq);
        match self {
            Response::Pong => w.put_u8(kind::PONG),
            Response::Stats(report) => {
                w.put_u8(kind::STATS);
                report.encode_into(&mut w);
            }
            Response::Created { oid, vid } => {
                w.put_u8(kind::CREATED);
                w.put_varint(oid.0);
                w.put_varint(vid.0);
            }
            Response::Version(vid) => {
                w.put_u8(kind::VERSION);
                w.put_varint(vid.0);
            }
            Response::Body { vid, bytes } => {
                w.put_u8(kind::BODY);
                w.put_varint(vid.0);
                w.put_bytes(bytes);
            }
            Response::Unit => w.put_u8(kind::UNIT),
            Response::MaybeVersion(vid) => {
                w.put_u8(kind::MAYBE_VERSION);
                match vid {
                    None => w.put_u8(0),
                    Some(vid) => {
                        w.put_u8(1);
                        w.put_varint(vid.0);
                    }
                }
            }
            Response::Versions(vids) => {
                w.put_u8(kind::VERSIONS);
                w.put_varint(vids.len() as u64);
                for vid in vids {
                    w.put_varint(vid.0);
                }
            }
            Response::Objects(oids) => {
                w.put_u8(kind::OBJECTS);
                w.put_varint(oids.len() as u64);
                for oid in oids {
                    w.put_varint(oid.0);
                }
            }
            Response::Object(oid) => {
                w.put_u8(kind::OBJECT);
                w.put_varint(oid.0);
            }
            Response::Count(n) => {
                w.put_u8(kind::COUNT);
                w.put_varint(*n);
            }
            Response::Flag(b) => {
                w.put_u8(kind::FLAG);
                w.put_u8(*b as u8);
            }
            Response::Diff(d) => {
                w.put_u8(kind::DIFF);
                w.put_varint(d.from.0);
                w.put_varint(d.to.0);
                w.put_varint(d.to_len);
                w.put_varint(d.ops);
                w.put_varint(d.literal_bytes);
                w.put_varint(d.encoded_bytes);
                w.put_u8(d.stored as u8);
            }
            Response::Merged { vid, conflicts } => {
                w.put_u8(kind::MERGED);
                match vid {
                    None => w.put_u8(0),
                    Some(vid) => {
                        w.put_u8(1);
                        w.put_varint(vid.0);
                    }
                }
                w.put_varint(conflicts.len() as u64);
                for c in conflicts {
                    w.put_varint(c.base_start);
                    w.put_varint(c.base_end);
                    w.put_bytes(&c.ours);
                    w.put_bytes(&c.theirs);
                }
            }
            Response::Err(e) => {
                w.put_u8(kind::ERR);
                w.put_u8(e.code());
                match e {
                    RemoteError::UnknownObject(oid) => {
                        w.put_varint(oid.0);
                        w.put_varint(0);
                        w.put_bytes(&[]);
                    }
                    RemoteError::UnknownVersion(vid) | RemoteError::LastVersion(vid) => {
                        w.put_varint(vid.0);
                        w.put_varint(0);
                        w.put_bytes(&[]);
                    }
                    RemoteError::TypeMismatch { expected, found } => {
                        w.put_varint(expected.0);
                        w.put_varint(found.0);
                        w.put_bytes(&[]);
                    }
                    RemoteError::Storage(msg)
                    | RemoteError::BadRequest(msg)
                    | RemoteError::Unavailable(msg) => {
                        w.put_varint(0);
                        w.put_varint(0);
                        w.put_bytes(msg.as_bytes());
                    }
                }
            }
        }
        w.into_bytes()
    }

    /// Decode a frame payload into the echoed sequence id and the
    /// response. Strict: unknown kinds, unknown error codes, and
    /// trailing bytes are protocol errors.
    pub fn decode(payload: &[u8]) -> Result<(u64, Response)> {
        let mut r = Reader::new(payload);
        let seq = r.get_varint()?;
        let k = r.get_u8()?;
        let resp = match k {
            kind::PONG => Response::Pong,
            kind::STATS => Response::Stats(StatsReport::decode_from(&mut r)?),
            kind::CREATED => Response::Created {
                oid: Oid(r.get_varint()?),
                vid: Vid(r.get_varint()?),
            },
            kind::VERSION => Response::Version(Vid(r.get_varint()?)),
            kind::BODY => Response::Body {
                vid: Vid(r.get_varint()?),
                bytes: r.get_bytes()?.to_vec(),
            },
            kind::UNIT => Response::Unit,
            kind::MAYBE_VERSION => match r.get_u8()? {
                0 => Response::MaybeVersion(None),
                1 => Response::MaybeVersion(Some(Vid(r.get_varint()?))),
                b => {
                    return Err(NetError::Protocol(format!(
                        "bad option discriminant {b} in maybe_version response"
                    )))
                }
            },
            kind::VERSIONS => {
                let n = r.get_count()?;
                let mut vids = Vec::with_capacity(n.min(1 << 16));
                for _ in 0..n {
                    vids.push(Vid(r.get_varint()?));
                }
                Response::Versions(vids)
            }
            kind::OBJECTS => {
                let n = r.get_count()?;
                let mut oids = Vec::with_capacity(n.min(1 << 16));
                for _ in 0..n {
                    oids.push(Oid(r.get_varint()?));
                }
                Response::Objects(oids)
            }
            kind::OBJECT => Response::Object(Oid(r.get_varint()?)),
            kind::COUNT => Response::Count(r.get_varint()?),
            kind::FLAG => Response::Flag(r.get_u8()? != 0),
            kind::DIFF => Response::Diff(DiffSummary {
                from: Vid(r.get_varint()?),
                to: Vid(r.get_varint()?),
                to_len: r.get_varint()?,
                ops: r.get_varint()?,
                literal_bytes: r.get_varint()?,
                encoded_bytes: r.get_varint()?,
                stored: r.get_u8()? != 0,
            }),
            kind::MERGED => {
                let vid = match r.get_u8()? {
                    0 => None,
                    1 => Some(Vid(r.get_varint()?)),
                    b => {
                        return Err(NetError::Protocol(format!(
                            "bad option discriminant {b} in merged response"
                        )))
                    }
                };
                let n = r.get_count()?;
                let mut conflicts = Vec::with_capacity(n.min(1 << 12));
                for _ in 0..n {
                    conflicts.push(MergeConflict {
                        base_start: r.get_varint()?,
                        base_end: r.get_varint()?,
                        ours: r.get_bytes()?.to_vec(),
                        theirs: r.get_bytes()?.to_vec(),
                    });
                }
                Response::Merged { vid, conflicts }
            }
            kind::ERR => {
                let code = r.get_u8()?;
                let a = r.get_varint()?;
                let b = r.get_varint()?;
                let msg = String::from_utf8_lossy(r.get_bytes()?).into_owned();
                let err = match code {
                    1 => RemoteError::UnknownObject(Oid(a)),
                    2 => RemoteError::UnknownVersion(Vid(a)),
                    3 => RemoteError::TypeMismatch {
                        expected: TypeTag(a),
                        found: TypeTag(b),
                    },
                    4 => RemoteError::LastVersion(Vid(a)),
                    5 => RemoteError::Storage(msg),
                    6 => RemoteError::BadRequest(msg),
                    7 => RemoteError::Unavailable(msg),
                    c => return Err(NetError::Protocol(format!("unknown remote error code {c}"))),
                };
                Response::Err(err)
            }
            k => {
                return Err(NetError::Protocol(format!(
                    "unknown response kind byte {k}"
                )))
            }
        };
        if r.remaining() != 0 {
            return Err(NetError::Protocol(format!(
                "{} trailing bytes after {} response",
                r.remaining(),
                resp.kind_name()
            )));
        }
        Ok((seq, resp))
    }
}

// ---------------------------------------------------------------------------
// Frame I/O
// ---------------------------------------------------------------------------

/// Write one length-prefixed frame. Returns the total bytes written
/// (prefix + payload). The caller flushes.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<u64> {
    let mut prefix = Vec::with_capacity(varint::MAX_VARINT_LEN);
    varint::write_u64(&mut prefix, payload.len() as u64);
    w.write_all(&prefix)?;
    w.write_all(payload)?;
    Ok((prefix.len() + payload.len()) as u64)
}

/// Read one length-prefixed frame. Returns `Ok(None)` on a clean EOF
/// *at a frame boundary* (the peer hung up between frames); EOF inside
/// a frame is an error.
pub fn read_frame(r: &mut impl Read) -> Result<Option<Vec<u8>>> {
    let mut payload = Vec::new();
    Ok(read_frame_into(r, &mut payload)?.then_some(payload))
}

/// Like [`read_frame`], but reads the payload into `buf` (cleared
/// first), so a hot receive loop can reuse one allocation across
/// frames. Returns `Ok(false)` on clean EOF before the first length
/// byte.
pub fn read_frame_into(r: &mut impl Read, buf: &mut Vec<u8>) -> Result<bool> {
    // Varint length prefix, byte by byte off the stream.
    let mut len: u64 = 0;
    let mut shift: u32 = 0;
    let mut first = true;
    loop {
        let mut byte = [0u8; 1];
        match r.read_exact(&mut byte) {
            Ok(()) => {}
            Err(e) if e.kind() == io::ErrorKind::UnexpectedEof && first => return Ok(false),
            Err(e) => return Err(NetError::Io(e)),
        }
        first = false;
        if shift >= 63 && byte[0] > 1 {
            return Err(NetError::Protocol("frame length varint overflow".into()));
        }
        len |= u64::from(byte[0] & 0x7F) << shift;
        if byte[0] & 0x80 == 0 {
            break;
        }
        shift += 7;
        if shift > 63 {
            return Err(NetError::Protocol("frame length varint overflow".into()));
        }
    }
    if len as usize > MAX_FRAME_LEN {
        return Err(NetError::Protocol(format!(
            "frame of {len} bytes exceeds the {MAX_FRAME_LEN}-byte limit"
        )));
    }
    buf.clear();
    buf.resize(len as usize, 0);
    r.read_exact(buf)?;
    Ok(true)
}

/// Incremental frame decoder for nonblocking sockets.
///
/// Bytes arrive in arbitrary splits (a readiness loop reads whatever
/// the kernel has); [`FrameBuffer::extend`] accumulates them and
/// [`FrameBuffer::next_frame`] yields each complete payload without
/// ever blocking. Frame-level corruption — a varint length prefix
/// that overflows or exceeds [`MAX_FRAME_LEN`] — is an error exactly
/// where [`read_frame_into`] would fail, and poisons the buffer (the
/// stream has no recoverable framing past that point).
#[derive(Debug, Default)]
pub struct FrameBuffer {
    buf: Vec<u8>,
    /// Bytes before `start` belong to already-yielded frames.
    start: usize,
    poisoned: bool,
}

impl FrameBuffer {
    /// An empty accumulator.
    pub fn new() -> FrameBuffer {
        FrameBuffer::default()
    }

    /// Appends bytes read off the socket.
    pub fn extend(&mut self, bytes: &[u8]) {
        // Compact lazily: only once the dead prefix dominates, so a
        // busy connection isn't memmoving on every frame.
        if self.start > 4096 && self.start * 2 > self.buf.len() {
            self.buf.drain(..self.start);
            self.start = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes buffered but not yet yielded as frames.
    pub fn pending(&self) -> usize {
        self.buf.len() - self.start
    }

    /// The next complete frame payload, or `Ok(None)` if more bytes
    /// are needed.
    pub fn next_frame(&mut self) -> Result<Option<&[u8]>> {
        if self.poisoned {
            return Err(NetError::Protocol("frame stream already corrupt".into()));
        }
        let avail = &self.buf[self.start..];
        // Parse the varint length prefix.
        let mut len: u64 = 0;
        let mut shift: u32 = 0;
        let mut prefix = 0usize;
        loop {
            let Some(&byte) = avail.get(prefix) else {
                return Ok(None);
            };
            prefix += 1;
            if shift >= 63 && byte > 1 {
                self.poisoned = true;
                return Err(NetError::Protocol("frame length varint overflow".into()));
            }
            len |= u64::from(byte & 0x7F) << shift;
            if byte & 0x80 == 0 {
                break;
            }
            shift += 7;
            if shift > 63 {
                self.poisoned = true;
                return Err(NetError::Protocol("frame length varint overflow".into()));
            }
        }
        if len as usize > MAX_FRAME_LEN {
            self.poisoned = true;
            return Err(NetError::Protocol(format!(
                "frame of {len} bytes exceeds the {MAX_FRAME_LEN}-byte limit"
            )));
        }
        let total = prefix + len as usize;
        if avail.len() < total {
            return Ok(None);
        }
        let payload_start = self.start + prefix;
        self.start += total;
        Ok(Some(&self.buf[payload_start..payload_start + len as usize]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip_request(req: Request) {
        for seq in [0, 1, 300, u64::MAX] {
            let bytes = req.encode(seq);
            assert_eq!(Request::decode_seq(&bytes).unwrap(), seq);
            assert_eq!(Request::decode(&bytes).unwrap(), (seq, req.clone()));
        }
    }

    fn round_trip_response(resp: Response) {
        for seq in [0, 1, 300, u64::MAX] {
            let bytes = resp.encode(seq);
            assert_eq!(Response::decode(&bytes).unwrap(), (seq, resp.clone()));
        }
    }

    #[test]
    fn requests_round_trip() {
        round_trip_request(Request::Ping);
        round_trip_request(Request::Stats);
        round_trip_request(Request::Pnew {
            tag: TypeTag(0xDEAD_BEEF),
            body: vec![1, 2, 3],
        });
        round_trip_request(Request::Deref {
            oid: Oid(7),
            tag: TypeTag(u64::MAX),
        });
        round_trip_request(Request::DerefVersion {
            vid: Vid(9),
            tag: TypeTag(1),
        });
        round_trip_request(Request::Update {
            oid: Oid(1),
            tag: TypeTag(2),
            body: vec![],
        });
        round_trip_request(Request::UpdateVersion {
            vid: Vid(3),
            tag: TypeTag(4),
            body: vec![255; 300],
        });
        round_trip_request(Request::NewVersion { oid: Oid(1) });
        round_trip_request(Request::NewVersionFrom { vid: Vid(2) });
        round_trip_request(Request::Pdelete { oid: Oid(3) });
        round_trip_request(Request::PdeleteVersion { vid: Vid(4) });
        round_trip_request(Request::Dprevious { vid: Vid(5) });
        round_trip_request(Request::Dnext { vid: Vid(6) });
        round_trip_request(Request::Tprevious { vid: Vid(7) });
        round_trip_request(Request::Tnext { vid: Vid(8) });
        round_trip_request(Request::VersionHistory { oid: Oid(9) });
        round_trip_request(Request::CurrentVersion { oid: Oid(10) });
        round_trip_request(Request::Objects { tag: TypeTag(11) });
        round_trip_request(Request::ObjectsPage {
            tag: TypeTag(12),
            after: Oid(13),
            limit: 14,
        });
        round_trip_request(Request::ObjectOf { vid: Vid(15) });
        round_trip_request(Request::VersionCount { oid: Oid(16) });
        round_trip_request(Request::Exists { oid: Oid(17) });
        round_trip_request(Request::VersionExists { vid: Vid(18) });
        round_trip_request(Request::Epoch);
        round_trip_request(Request::ReadFloor { epoch: 19 });
        round_trip_request(Request::ReadFloor { epoch: 0 });
        round_trip_request(Request::Promote);
        round_trip_request(Request::HistoryBetween {
            oid: Oid(20),
            from: 3,
            to: u64::MAX,
        });
        round_trip_request(Request::DiffVersions {
            from: Vid(21),
            to: Vid(22),
        });
        for policy in [MergePolicy::Fail, MergePolicy::Ours, MergePolicy::Theirs] {
            round_trip_request(Request::Merge {
                a: Vid(23),
                b: Vid(24),
                policy,
            });
        }
    }

    #[test]
    fn merge_is_a_write() {
        assert!(!Request::Merge {
            a: Vid(1),
            b: Vid(2),
            policy: MergePolicy::Fail
        }
        .is_read());
    }

    #[test]
    fn unknown_merge_policy_is_a_protocol_error() {
        let mut bytes = Request::Merge {
            a: Vid(1),
            b: Vid(2),
            policy: MergePolicy::Fail,
        }
        .encode(0);
        *bytes.last_mut().unwrap() = 9;
        assert!(matches!(
            Request::decode(&bytes),
            Err(NetError::Protocol(_))
        ));
    }

    #[test]
    fn history_and_diff_are_reads() {
        assert!(Request::HistoryBetween {
            oid: Oid(1),
            from: 0,
            to: 10
        }
        .is_read());
        assert!(Request::DiffVersions {
            from: Vid(1),
            to: Vid(2)
        }
        .is_read());
    }

    #[test]
    fn responses_round_trip() {
        round_trip_response(Response::Pong);
        round_trip_response(Response::Stats(StatsReport {
            active_connections: 1,
            total_connections: 9,
            bytes_in: 1000,
            bytes_out: 2000,
            protocol_errors: 1,
            op_errors: 2,
            snapshot_hits: 41,
            snapshot_misses: 12,
            slow_client_evictions: 3,
            materialize_hits: 17,
            materialize_misses: 5,
            requests: vec![(Opcode::Ping, 3), (Opcode::Pnew, 4)],
            storage: StorageCounters {
                read_txs: 100,
                write_txs: 20,
                reader_waits: 3,
                reader_wait_nanos: 4500,
                writer_waits: 2,
                writer_wait_nanos: 800,
                wal_syncs: 12,
                group_syncs: 5,
                group_commit_txns: 18,
                group_batch_max: 6,
                bytes_shipped: 4096,
                replica_lag_epochs: 2,
                failovers: 1,
                write_conflicts: 7,
                write_retries: 6,
            },
        }));
        round_trip_response(Response::Created {
            oid: Oid(1),
            vid: Vid(2),
        });
        round_trip_response(Response::Version(Vid(3)));
        round_trip_response(Response::Body {
            vid: Vid(4),
            bytes: vec![9; 17],
        });
        round_trip_response(Response::Unit);
        round_trip_response(Response::MaybeVersion(None));
        round_trip_response(Response::MaybeVersion(Some(Vid(5))));
        round_trip_response(Response::Versions(vec![Vid(1), Vid(2), Vid(3)]));
        round_trip_response(Response::Objects(vec![Oid(4), Oid(5)]));
        round_trip_response(Response::Object(Oid(6)));
        round_trip_response(Response::Count(7));
        round_trip_response(Response::Flag(true));
        round_trip_response(Response::Flag(false));
        round_trip_response(Response::Diff(DiffSummary {
            from: Vid(8),
            to: Vid(9),
            to_len: 600,
            ops: 5,
            literal_bytes: 48,
            encoded_bytes: 70,
            stored: true,
        }));
        round_trip_response(Response::Diff(DiffSummary {
            from: Vid(0),
            to: Vid(0),
            to_len: 0,
            ops: 0,
            literal_bytes: 0,
            encoded_bytes: 0,
            stored: false,
        }));
        round_trip_response(Response::Merged {
            vid: Some(Vid(10)),
            conflicts: vec![],
        });
        round_trip_response(Response::Merged {
            vid: None,
            conflicts: vec![
                MergeConflict {
                    base_start: 5,
                    base_end: 9,
                    ours: vec![1, 2, 3],
                    theirs: vec![],
                },
                MergeConflict {
                    base_start: 40,
                    base_end: 40,
                    ours: vec![7],
                    theirs: vec![8; 300],
                },
            ],
        });
        for err in [
            RemoteError::UnknownObject(Oid(1)),
            RemoteError::UnknownVersion(Vid(2)),
            RemoteError::TypeMismatch {
                expected: TypeTag(3),
                found: TypeTag(4),
            },
            RemoteError::LastVersion(Vid(5)),
            RemoteError::Storage("disk on fire".into()),
            RemoteError::BadRequest("garbage".into()),
            RemoteError::Unavailable("shard 2 is reconnecting".into()),
        ] {
            round_trip_response(Response::Err(err));
        }
    }

    #[test]
    fn response_seq_is_recoverable_from_an_undecodable_payload() {
        // Valid seq varint followed by an unknown kind byte: the full
        // decode fails, the seq alone still comes back.
        let mut bytes = Writer::new();
        bytes.put_varint(300);
        bytes.put_u8(200);
        let bytes = bytes.into_bytes();
        assert!(Response::decode(&bytes).is_err());
        assert_eq!(Response::decode_seq(&bytes).unwrap(), 300);
    }

    #[test]
    fn every_opcode_survives_the_byte_round_trip() {
        for op in Opcode::ALL {
            assert_eq!(Opcode::from_u8(op as u8), Some(op));
        }
        assert_eq!(Opcode::from_u8(OPCODE_COUNT as u8), None);
    }

    #[test]
    fn unknown_opcode_is_a_protocol_error() {
        // Seq 0, then an out-of-range opcode byte.
        let err = Request::decode(&[0, 200]).unwrap_err();
        assert!(matches!(err, NetError::Protocol(_)));
    }

    #[test]
    fn trailing_bytes_are_a_protocol_error() {
        let mut bytes = Request::Ping.encode(7);
        bytes.push(0);
        assert!(matches!(
            Request::decode(&bytes),
            Err(NetError::Protocol(_))
        ));
        let mut bytes = Response::Unit.encode(7);
        bytes.push(0);
        assert!(matches!(
            Response::decode(&bytes),
            Err(NetError::Protocol(_))
        ));
    }

    #[test]
    fn frames_round_trip_over_a_buffer() {
        let mut buf = Vec::new();
        let n1 = write_frame(&mut buf, b"hello").unwrap();
        let n2 = write_frame(&mut buf, &[]).unwrap();
        assert_eq!(n1, 6);
        assert_eq!(n2, 1);
        let mut cursor = io::Cursor::new(buf);
        assert_eq!(read_frame(&mut cursor).unwrap().unwrap(), b"hello");
        assert_eq!(read_frame(&mut cursor).unwrap().unwrap(), Vec::<u8>::new());
        assert_eq!(read_frame(&mut cursor).unwrap(), None);
    }

    #[test]
    fn eof_inside_a_frame_is_an_error() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        buf.truncate(3); // length prefix + partial payload
        let mut cursor = io::Cursor::new(buf);
        assert!(matches!(read_frame(&mut cursor), Err(NetError::Io(_))));
    }

    #[test]
    fn oversized_frame_is_rejected_without_allocating() {
        let mut buf = Vec::new();
        varint::write_u64(&mut buf, (MAX_FRAME_LEN as u64) + 1);
        let mut cursor = io::Cursor::new(buf);
        assert!(matches!(
            read_frame(&mut cursor),
            Err(NetError::Protocol(_))
        ));
    }

    #[test]
    fn frame_buffer_reassembles_byte_split_frames() {
        let mut wire = Vec::new();
        let payloads: Vec<Vec<u8>> = vec![vec![], vec![7], vec![1; 300], b"tail".to_vec()];
        for p in &payloads {
            write_frame(&mut wire, p).unwrap();
        }
        // Feed one byte at a time: every frame still comes out whole,
        // in order, and never early.
        let mut fb = FrameBuffer::new();
        let mut got: Vec<Vec<u8>> = Vec::new();
        for &b in &wire {
            fb.extend(&[b]);
            while let Some(frame) = fb.next_frame().unwrap() {
                got.push(frame.to_vec());
            }
        }
        assert_eq!(got, payloads);
        assert_eq!(fb.pending(), 0);
        // And coalesced in one blob: identical result.
        let mut fb = FrameBuffer::new();
        fb.extend(&wire);
        let mut got: Vec<Vec<u8>> = Vec::new();
        while let Some(frame) = fb.next_frame().unwrap() {
            got.push(frame.to_vec());
        }
        assert_eq!(got, payloads);
    }

    #[test]
    fn frame_buffer_rejects_hostile_length_prefixes() {
        // Over the cap.
        let mut wire = Vec::new();
        varint::write_u64(&mut wire, (MAX_FRAME_LEN as u64) + 1);
        let mut fb = FrameBuffer::new();
        fb.extend(&wire);
        assert!(fb.next_frame().is_err());
        // Poisoned: stays an error even after more bytes arrive.
        fb.extend(&[0; 16]);
        assert!(fb.next_frame().is_err());

        // Varint overflow (ten 0xFF continuation bytes).
        let mut fb = FrameBuffer::new();
        fb.extend(&[0xFF; 10]);
        assert!(fb.next_frame().is_err());

        // An incomplete prefix is just "need more bytes".
        let mut fb = FrameBuffer::new();
        fb.extend(&[0x80]);
        assert!(fb.next_frame().unwrap().is_none());
        fb.extend(&[0x01]); // length 128, no payload yet
        assert!(fb.next_frame().unwrap().is_none());
        fb.extend(&[0xAB; 128]);
        assert_eq!(fb.next_frame().unwrap().unwrap(), &[0xAB; 128][..]);
    }
}
