//! On-disk records of the version graph.

use ode_codec::{impl_persist_struct, DecodeError, Persist, Reader, TypeTag, Writer};
use ode_object::{Oid, Vid};

/// Per-object record: identity, type, and the ends of the temporal chain.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ObjectMeta {
    /// The object's identity.
    pub oid: Oid,
    /// Stable type tag of the object's Rust type.
    pub tag: TypeTag,
    /// The first version ever created (root of the derived-from tree).
    pub root: Vid,
    /// The temporal head — what the object id resolves to (the paper:
    /// "an object id ... logically refers to the latest version").
    pub latest: Vid,
    /// Number of live versions.
    pub version_count: u64,
}

impl_persist_struct!(ObjectMeta {
    oid,
    tag,
    root,
    latest,
    version_count,
});

/// Per-version record: graph links plus the encoded object state.
///
/// `dprev` records the **derived-from** relationship (solid arrows in the
/// paper's figures); `tprev`/`tnext` record the **temporal** relationship
/// (dotted arrows).  `dnext` lists derived children so `Dnext` traversal
/// and leaf enumeration need no scans.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VersionMeta {
    /// This version's identity.
    pub vid: Vid,
    /// Owning object.
    pub oid: Oid,
    /// Type tag, duplicated from [`ObjectMeta`] so specific-version reads
    /// can type-check with a single record fetch.
    pub tag: TypeTag,
    /// Version this one was derived from (`NULL` for the first version).
    pub dprev: Vid,
    /// Second derived-from parent. `NULL` for ordinary versions; merge
    /// versions record both merged parents here, giving the
    /// derived-from structure its DAG edges. Never set while `dprev`
    /// is `NULL`.
    pub dprev2: Vid,
    /// Versions derived from this one, in creation order.
    pub dnext: Vec<Vid>,
    /// Temporal predecessor within the object (`NULL` for the oldest).
    pub tprev: Vid,
    /// Temporal successor within the object (`NULL` for the latest).
    pub tnext: Vid,
    /// Monotone creation stamp (global sequence; preserved across
    /// deletions, unlike chain position).
    pub created: u64,
    /// The object state, encoded with `ode_codec`.
    pub body: Vec<u8>,
}

// Written out rather than derived so `body` is one length prefix plus
// raw bytes (format 2) instead of one varint per byte; every other
// field encodes exactly as the derive would.
impl Persist for VersionMeta {
    fn encode(&self, w: &mut Writer) {
        self.vid.encode(w);
        self.oid.encode(w);
        self.tag.encode(w);
        self.dprev.encode(w);
        self.dprev2.encode(w);
        self.dnext.encode(w);
        self.tprev.encode(w);
        self.tnext.encode(w);
        self.created.encode(w);
        w.put_bytes(&self.body);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(VersionMeta {
            vid: Persist::decode(r)?,
            oid: Persist::decode(r)?,
            tag: Persist::decode(r)?,
            dprev: Persist::decode(r)?,
            dprev2: Persist::decode(r)?,
            dnext: Persist::decode(r)?,
            tprev: Persist::decode(r)?,
            tnext: Persist::decode(r)?,
            created: Persist::decode(r)?,
            body: r.get_bytes()?.to_vec(),
        })
    }
}

impl VersionMeta {
    /// Whether this version is a leaf of the derived-from tree (an
    /// "alternative's most up-to-date version" in the paper's terms).
    pub fn is_derivation_leaf(&self) -> bool {
        self.dnext.is_empty()
    }

    /// Whether this version is a merge (records two derived-from
    /// parents).
    pub fn is_merge(&self) -> bool {
        !self.dprev2.is_null()
    }

    /// The derived-from parents, primary first, `NULL` slots skipped.
    pub fn parents(&self) -> impl Iterator<Item = Vid> {
        [self.dprev, self.dprev2]
            .into_iter()
            .filter(|v| !v.is_null())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ode_codec::{from_bytes, to_bytes};

    #[test]
    fn object_meta_round_trips() {
        let m = ObjectMeta {
            oid: Oid(7),
            tag: TypeTag::from_name("x/Y"),
            root: Vid(1),
            latest: Vid(9),
            version_count: 4,
        };
        assert_eq!(from_bytes::<ObjectMeta>(&to_bytes(&m)).unwrap(), m);
    }

    #[test]
    fn version_meta_round_trips() {
        let m = VersionMeta {
            vid: Vid(9),
            oid: Oid(7),
            tag: TypeTag::from_name("x/Y"),
            dprev: Vid(3),
            dprev2: Vid::NULL,
            dnext: vec![Vid(11), Vid(12)],
            tprev: Vid(8),
            tnext: Vid::NULL,
            created: 42,
            body: vec![1, 2, 3],
        };
        assert_eq!(from_bytes::<VersionMeta>(&to_bytes(&m)).unwrap(), m);
        assert!(!m.is_derivation_leaf());
        assert!(!m.is_merge());
        assert_eq!(m.parents().collect::<Vec<_>>(), vec![Vid(3)]);
        let leaf = VersionMeta { dnext: vec![], ..m };
        assert!(leaf.is_derivation_leaf());
    }

    #[test]
    fn merge_version_meta_round_trips() {
        let m = VersionMeta {
            vid: Vid(20),
            oid: Oid(7),
            tag: TypeTag::from_name("x/Y"),
            dprev: Vid(5),
            dprev2: Vid(9),
            dnext: vec![],
            tprev: Vid(19),
            tnext: Vid::NULL,
            created: 20,
            body: vec![4, 5, 6],
        };
        assert_eq!(from_bytes::<VersionMeta>(&to_bytes(&m)).unwrap(), m);
        assert!(m.is_merge());
        assert_eq!(m.parents().collect::<Vec<_>>(), vec![Vid(5), Vid(9)]);
    }
}
