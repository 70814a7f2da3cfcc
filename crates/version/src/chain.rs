//! Delta-chain body storage: an object's chain, stored as one heap
//! record per anchor segment.
//!
//! The paper's §2 observation — versions can be stored as *differences*
//! along the derived-from relationship — applied to the production
//! engine.  When chain storage is enabled (see
//! [`ChainConfig`]), an object's version bodies live in its chain
//! instead of one whole copy per [`VersionMeta`](crate::VersionMeta):
//!
//! * entries run in **temporal order** and always cover a suffix of the
//!   object's temporal history ending at the latest version (objects
//!   that predate chain storage keep their old whole-body records — the
//!   migration story for existing databases);
//! * the chain is cut into **segments**: each segment is one anchor
//!   ([`ChainLink::Anchor`], a full snapshot) followed by at most
//!   `interval - 1` forward deltas, so materializing **any** version
//!   applies at most `interval - 1` deltas and reads one segment;
//! * each segment is its own heap record (its encoded
//!   `Vec<ChainEntry>`), and a small per-object [`ChainHead`] record in
//!   the chain table lists the segments — first vid and record id — in
//!   vid order. A check-in rewrites only the tail segment (and the
//!   head, when a segment opens or the tail record moves); a
//!   historical read loads the head and the one segment holding its
//!   vid;
//! * the **latest** version additionally keeps its whole body in its
//!   `VersionMeta.body` (the chain can reproduce it too — the meta copy
//!   is a read-path cache), so `latest()` reads cost exactly what
//!   whole-body storage costs; every *older* chain member's meta body is
//!   cleared.
//!
//! Version ids are allocated monotonically and entries are appended in
//! allocation order, so entries are sorted by vid across the whole
//! chain: the head locates a vid's segment by binary search on first
//! vids, and the segment locates its entry the same way.

use ode_codec::{impl_persist_struct, DecodeError, Persist, Reader, Writer};
use ode_delta::{apply, diff_with_block, Delta, DEFAULT_BLOCK};
use ode_object::Vid;

use crate::{Result, VersionError};

/// Per-store configuration for delta-chain body storage.
///
/// Chain storage is **opt-in**: a store without a config never creates
/// chain records (and an old database keeps decoding exactly as
/// before), while existing chain records are always honored and
/// maintained regardless of configuration — correctness is driven by
/// the stored state, the config only gates *new* chains.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChainConfig {
    /// Maximum spacing between anchors: any version materializes in at
    /// most `anchor_interval - 1` delta applications. Minimum 1 (every
    /// version a full snapshot).
    pub anchor_interval: u64,
    /// Block size for the binary diff (see `ode_delta::diff_with_block`).
    pub block: u64,
}

impl Default for ChainConfig {
    fn default() -> Self {
        ChainConfig {
            anchor_interval: 8,
            block: DEFAULT_BLOCK as u64,
        }
    }
}

impl ChainConfig {
    /// A config with the given anchor interval and the default block.
    pub fn with_interval(anchor_interval: u64) -> ChainConfig {
        ChainConfig {
            anchor_interval: anchor_interval.max(1),
            ..ChainConfig::default()
        }
    }
}

/// How one chain entry stores its version's state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ChainLink {
    /// A full snapshot of the version's state.
    Anchor(Vec<u8>),
    /// A forward delta from the previous entry's state.
    Delta(Delta),
}

// Written out rather than derived so an anchor is one length prefix
// plus raw bytes (format 2), not one varint per byte.
impl Persist for ChainLink {
    fn encode(&self, w: &mut Writer) {
        match self {
            ChainLink::Anchor(state) => {
                w.put_varint(0);
                w.put_bytes(state);
            }
            ChainLink::Delta(delta) => {
                w.put_varint(1);
                delta.encode(w);
            }
        }
    }
    fn decode(r: &mut Reader<'_>) -> std::result::Result<Self, DecodeError> {
        match r.get_varint()? {
            0 => Ok(ChainLink::Anchor(r.get_bytes()?.to_vec())),
            1 => Ok(ChainLink::Delta(Delta::decode(r)?)),
            discriminant => Err(DecodeError::InvalidDiscriminant {
                type_name: "ChainLink",
                discriminant,
            }),
        }
    }
}

/// One version's slot in an [`ObjectChain`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChainEntry {
    /// The version this entry stores.
    pub vid: Vid,
    /// Snapshot or delta.
    pub link: ChainLink,
}

impl_persist_struct!(ChainEntry { vid, link });

/// A run of chain entries with the chain's parameters: a whole
/// object's chain (as [`VersionStore::load_chain`] assembles it, and
/// as format 2 stored it in one record) or one stored segment of it.
/// The operations below work on either.
///
/// [`VersionStore::load_chain`]: crate::VersionStore::load_chain
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ObjectChain {
    /// Anchor spacing this chain was built with.
    pub interval: u64,
    /// Diff block size.
    pub block: u64,
    /// Entries in temporal order (vids ascending).
    pub entries: Vec<ChainEntry>,
}

impl_persist_struct!(ObjectChain {
    interval,
    block,
    entries
});

pub(crate) fn chain_corrupt(msg: &'static str) -> VersionError {
    VersionError::ChainCorrupt(msg)
}

impl ObjectChain {
    /// Start a chain whose first entry snapshots `vid`'s state.
    pub fn new(config: ChainConfig, vid: Vid, state: Vec<u8>) -> ObjectChain {
        ObjectChain {
            interval: config.anchor_interval.max(1),
            block: config.block,
            entries: vec![ChainEntry {
                vid,
                link: ChainLink::Anchor(state),
            }],
        }
    }

    /// Index of `vid`'s entry, if this chain stores it.
    pub fn index_of(&self, vid: Vid) -> Option<usize> {
        self.entries.binary_search_by_key(&vid.0, |e| e.vid.0).ok()
    }

    /// Whether `vid`'s body is stored in this chain.
    pub fn contains(&self, vid: Vid) -> bool {
        self.index_of(vid).is_some()
    }

    /// The config this chain was built with.
    pub fn config(&self) -> ChainConfig {
        ChainConfig {
            anchor_interval: self.interval,
            block: self.block,
        }
    }

    /// Whether this run, as a segment, holds its anchor plus
    /// `interval - 1` deltas: the next version starts a new segment,
    /// exactly where [`ObjectChain::append`] would write an anchor.
    pub fn is_full(&self) -> bool {
        self.deltas_since_anchor() as u64 + 1 >= self.interval
    }

    /// Number of trailing delta entries since the last anchor.
    fn deltas_since_anchor(&self) -> usize {
        self.entries
            .iter()
            .rev()
            .take_while(|e| matches!(e.link, ChainLink::Delta(_)))
            .count()
    }

    /// Append a new version: an anchor on the interval boundary,
    /// otherwise a delta from `prev_state` (the current last entry's
    /// state, which the caller has whole — one diff, no replay).
    pub fn append(&mut self, vid: Vid, prev_state: &[u8], state: &[u8]) {
        let link = if self.is_full() {
            ChainLink::Anchor(state.to_vec())
        } else {
            ChainLink::Delta(diff_with_block(prev_state, state, self.block as usize))
        };
        self.entries.push(ChainEntry { vid, link });
    }

    /// Materialize entry `index`'s state: walk back to the nearest
    /// anchor (≤ `interval - 1` steps by construction) and apply
    /// forward.
    pub fn state_at(&self, index: usize) -> Result<Vec<u8>> {
        let anchor_idx = (0..=index)
            .rev()
            .find(|&i| matches!(self.entries[i].link, ChainLink::Anchor(_)))
            .ok_or_else(|| chain_corrupt("delta chain has no anchor before entry"))?;
        let mut state = match &self.entries[anchor_idx].link {
            ChainLink::Anchor(s) => s.clone(),
            ChainLink::Delta(_) => unreachable!("found as anchor"),
        };
        for entry in &self.entries[anchor_idx + 1..=index] {
            match &entry.link {
                ChainLink::Anchor(_) => unreachable!("scan stopped at nearest anchor"),
                ChainLink::Delta(d) => {
                    state = apply(&state, d)
                        .map_err(|_| chain_corrupt("delta chain entry failed to apply"))?;
                }
            }
        }
        Ok(state)
    }

    /// Materialize `vid`'s state, if stored here.
    pub fn state_of(&self, vid: Vid) -> Result<Option<Vec<u8>>> {
        match self.index_of(vid) {
            Some(idx) => Ok(Some(self.state_at(idx)?)),
            None => Ok(None),
        }
    }

    /// Replace entry `index`'s state with `state`, re-diffing its own
    /// link and (when `index` is not last) its successor's delta, which
    /// was based on the old state. Neighbors further away are
    /// unaffected: entry `index + 1` is re-based onto the new state and
    /// everything after it chains from there unchanged.
    pub fn set_state_at(&mut self, index: usize, state: &[u8]) -> Result<()> {
        let block = self.block as usize;
        // Old successor delta must be re-based before `index` changes.
        let rebased_next = match self.entries.get(index + 1) {
            Some(ChainEntry {
                link: ChainLink::Delta(_),
                ..
            }) => {
                let next_state = self.state_at(index + 1)?;
                Some(ChainLink::Delta(diff_with_block(state, &next_state, block)))
            }
            _ => None,
        };
        self.entries[index].link = match &self.entries[index].link {
            ChainLink::Anchor(_) => ChainLink::Anchor(state.to_vec()),
            ChainLink::Delta(_) => {
                let prev = self.state_at(index - 1)?;
                ChainLink::Delta(diff_with_block(&prev, state, block))
            }
        };
        if let Some(link) = rebased_next {
            self.entries[index + 1].link = link;
        }
        Ok(())
    }

    /// Remove entry `index`, repairing the neighborhood: a delta
    /// successor is re-based onto the previous surviving state, and a
    /// successor losing its anchor is promoted to an anchor itself
    /// (anchor spacing only ever shrinks, so the `interval - 1` bound
    /// survives any delete sequence).
    pub fn remove_at(&mut self, index: usize) -> Result<()> {
        let block = self.block as usize;
        let repaired = match (self.entries.get(index), self.entries.get(index + 1)) {
            (_, None) => None,
            (Some(removed), Some(next)) => match (&removed.link, &next.link) {
                (_, ChainLink::Anchor(_)) => None,
                (ChainLink::Anchor(_), ChainLink::Delta(_)) => {
                    // The successor's base anchor is going away: promote.
                    Some(ChainLink::Anchor(self.state_at(index + 1)?))
                }
                (ChainLink::Delta(_), ChainLink::Delta(_)) => {
                    let prev = self.state_at(index - 1)?;
                    let next_state = self.state_at(index + 1)?;
                    Some(ChainLink::Delta(diff_with_block(&prev, &next_state, block)))
                }
            },
            (None, _) => return Err(chain_corrupt("chain entry index out of range")),
        };
        if let Some(link) = repaired {
            self.entries[index + 1].link = link;
        }
        self.entries.remove(index);
        Ok(())
    }

    /// Number of anchor entries.
    pub fn anchors(&self) -> usize {
        self.entries
            .iter()
            .filter(|e| matches!(e.link, ChainLink::Anchor(_)))
            .count()
    }

    /// Cut this chain into segments: one per anchor, each holding its
    /// anchor and the deltas up to the next one (format 3's layout).
    pub fn into_segments(self) -> Vec<ObjectChain> {
        let mut out: Vec<ObjectChain> = Vec::new();
        for entry in self.entries {
            match (&entry.link, out.last_mut()) {
                (ChainLink::Delta(_), Some(seg)) => seg.entries.push(entry),
                _ => out.push(ObjectChain {
                    interval: self.interval,
                    block: self.block,
                    entries: vec![entry],
                }),
            }
        }
        out
    }
}

/// Where one segment of an object's chain is stored.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SegmentRef {
    /// Vid of the segment's first entry (its anchor).
    pub first: Vid,
    /// Heap record id of the segment record.
    pub rid: u64,
}

impl_persist_struct!(SegmentRef { first, rid });

/// The per-object chain head record (format 3): the chain's
/// parameters and its segments in vid order. It changes only when a
/// segment opens, empties, loses its first entry or moves in the heap.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChainHead {
    /// Anchor spacing: a segment holds at most this many entries.
    pub interval: u64,
    /// Diff block size.
    pub block: u64,
    /// The segments, oldest first.
    pub segments: Vec<SegmentRef>,
}

impl_persist_struct!(ChainHead {
    interval,
    block,
    segments
});

impl ChainHead {
    /// A head with no segments yet.
    pub fn new(config: ChainConfig) -> ChainHead {
        ChainHead {
            interval: config.anchor_interval.max(1),
            block: config.block,
            segments: Vec::new(),
        }
    }

    /// Index of the segment that holds `vid` if the chain stores it:
    /// the last segment whose first vid is at most `vid`.
    pub(crate) fn segment_for(&self, vid: Vid) -> Option<usize> {
        self.segments
            .partition_point(|s| s.first.0 <= vid.0)
            .checked_sub(1)
    }

    /// What a read of `vid` needs from an encoded head record, without
    /// building its segment list: an empty run with the chain's
    /// parameters, and the ref of the segment that would hold `vid`.
    /// The scan stops at the first segment past `vid`, so a lookup
    /// costs a few varint reads per segment and no allocation.
    pub fn locate(
        bytes: &[u8],
        vid: Vid,
    ) -> std::result::Result<(ObjectChain, Option<SegmentRef>), DecodeError> {
        let mut r = Reader::new(bytes);
        let run = ObjectChain {
            interval: r.get_varint()?,
            block: r.get_varint()?,
            entries: Vec::new(),
        };
        let mut found = None;
        for _ in 0..r.get_count()? {
            let seg = SegmentRef::decode(&mut r)?;
            if seg.first.0 > vid.0 {
                break;
            }
            found = Some(seg);
        }
        Ok((run, found))
    }

    /// An empty run with this chain's parameters.
    pub(crate) fn empty_run(&self) -> ObjectChain {
        ObjectChain {
            interval: self.interval,
            block: self.block,
            entries: Vec::new(),
        }
    }
}

/// Space and shape statistics for one object's chain.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChainStats {
    /// Versions stored in the chain.
    pub versions: u64,
    /// Segment records the chain is stored in.
    pub segments: u64,
    /// Full-snapshot entries.
    pub anchors: u64,
    /// Delta entries.
    pub deltas: u64,
    /// Anchor spacing the chain was built with.
    pub interval: u64,
    /// Encoded size of the chain's segment records summed (what the
    /// heap stores for the bodies; the small head record is not
    /// counted), in bytes.
    pub encoded_bytes: u64,
    /// Sum of every stored version's materialized state length — what
    /// whole-body storage would hold for the same versions.
    pub materialized_bytes: u64,
}

impl ChainStats {
    /// Chain bytes as a fraction of whole-copy bytes (lower is better;
    /// 1.0 when the chain stores nothing smaller than full copies).
    pub fn compression_ratio(&self) -> f64 {
        if self.materialized_bytes == 0 {
            1.0
        } else {
            self.encoded_bytes as f64 / self.materialized_bytes as f64
        }
    }
}

/// Summary of the difference between two versions' states — the wire-
/// and CLI-facing result of `diff v_a..v_b`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VersionDiff {
    /// Base version.
    pub from: Vid,
    /// Target version.
    pub to: Vid,
    /// Length of the target state in bytes.
    pub to_len: u64,
    /// Number of copy/insert instructions.
    pub ops: u64,
    /// Bytes of literal (inserted) data — the part that does not dedupe
    /// against the base.
    pub literal_bytes: u64,
    /// Encoded size of the delta in bytes.
    pub encoded_bytes: u64,
    /// `true` when the delta came straight off the stored chain
    /// (adjacent versions) with no state materialized at all.
    pub stored: bool,
}

impl_persist_struct!(VersionDiff {
    from,
    to,
    to_len,
    ops,
    literal_bytes,
    encoded_bytes,
    stored,
});

impl VersionDiff {
    /// Build a summary from a computed (or stored) delta.
    pub fn from_delta(from: Vid, to: Vid, delta: &Delta, stored: bool) -> VersionDiff {
        VersionDiff {
            from,
            to,
            to_len: delta.target_len,
            ops: delta.ops.len() as u64,
            literal_bytes: delta.literal_bytes() as u64,
            encoded_bytes: delta.encoded_size() as u64,
            stored,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn evolution(n: usize, size: usize) -> Vec<Vec<u8>> {
        let mut state: Vec<u8> = (0..size).map(|i| (i % 249) as u8).collect();
        let mut out = vec![state.clone()];
        for step in 1..n {
            let idx = (step * 113) % size;
            state[idx] = state[idx].wrapping_add(step as u8);
            out.push(state.clone());
        }
        out
    }

    fn build(states: &[Vec<u8>], interval: u64) -> ObjectChain {
        let mut chain = ObjectChain::new(
            ChainConfig::with_interval(interval),
            Vid(1),
            states[0].clone(),
        );
        for (i, pair) in states.windows(2).enumerate() {
            chain.append(Vid(i as u64 + 2), &pair[0], &pair[1]);
        }
        chain
    }

    #[test]
    fn append_and_materialize_every_entry() {
        let states = evolution(17, 900);
        for interval in [1, 2, 4, 8, 64] {
            let chain = build(&states, interval);
            assert_eq!(chain.entries.len(), 17);
            for (i, s) in states.iter().enumerate() {
                assert_eq!(&chain.state_at(i).unwrap(), s, "interval {interval} v{i}");
                assert_eq!(
                    chain.state_of(Vid(i as u64 + 1)).unwrap().unwrap(),
                    s.clone()
                );
            }
            // Anchor spacing bound: never `interval` deltas in a row.
            let mut run = 0u64;
            for e in &chain.entries {
                match e.link {
                    ChainLink::Anchor(_) => run = 0,
                    ChainLink::Delta(_) => {
                        run += 1;
                        assert!(run < interval.max(1), "interval {interval}");
                    }
                }
            }
        }
    }

    #[test]
    fn set_state_preserves_neighbors() {
        let states = evolution(10, 700);
        for victim in 0..10usize {
            let mut chain = build(&states, 4);
            let mut edited = states[victim].clone();
            edited[3] ^= 0x5A;
            edited.extend_from_slice(b"tail");
            chain.set_state_at(victim, &edited).unwrap();
            for (i, s) in states.iter().enumerate() {
                let want = if i == victim { &edited } else { s };
                assert_eq!(&chain.state_at(i).unwrap(), want, "victim {victim} v{i}");
            }
        }
    }

    #[test]
    fn remove_repairs_every_position() {
        let states = evolution(12, 500);
        for victim in 0..12usize {
            let mut chain = build(&states, 4);
            chain.remove_at(victim).unwrap();
            assert_eq!(chain.entries.len(), 11);
            let mut idx = 0;
            for (i, s) in states.iter().enumerate() {
                if i == victim {
                    continue;
                }
                assert_eq!(&chain.state_at(idx).unwrap(), s, "victim {victim} v{i}");
                idx += 1;
            }
            // First surviving entry is still an anchor.
            assert!(matches!(chain.entries[0].link, ChainLink::Anchor(_)));
        }
    }

    #[test]
    fn repeated_removals_keep_the_anchor_bound() {
        let states = evolution(20, 400);
        let mut chain = build(&states, 5);
        // Delete every other entry from the front.
        let mut live: Vec<usize> = (0..20).collect();
        for _ in 0..8 {
            chain.remove_at(1).unwrap();
            live.remove(1);
            let mut run = 0;
            for e in &chain.entries {
                match e.link {
                    ChainLink::Anchor(_) => run = 0,
                    ChainLink::Delta(_) => {
                        run += 1;
                        assert!(run < 5);
                    }
                }
            }
            for (idx, &orig) in live.iter().enumerate() {
                assert_eq!(chain.state_at(idx).unwrap(), states[orig]);
            }
        }
    }

    #[test]
    fn into_segments_cuts_at_every_anchor() {
        let states = evolution(10, 400);
        let chain = build(&states, 4);
        let segments = chain.clone().into_segments();
        let lens: Vec<usize> = segments.iter().map(|s| s.entries.len()).collect();
        assert_eq!(lens, vec![4, 4, 2]);
        let mut idx = 0;
        for seg in &segments {
            assert_eq!(seg.anchors(), 1);
            assert!(matches!(seg.entries[0].link, ChainLink::Anchor(_)));
            for pos in 0..seg.entries.len() {
                assert_eq!(seg.state_at(pos).unwrap(), states[idx]);
                idx += 1;
            }
        }
        let joined: Vec<ChainEntry> = segments.into_iter().flat_map(|s| s.entries).collect();
        assert_eq!(joined, chain.entries);
    }

    #[test]
    fn head_lookup_finds_the_segment_in_place() {
        let head = ChainHead {
            interval: 4,
            block: 32,
            segments: [3u64, 9, 20]
                .iter()
                .map(|&first| SegmentRef {
                    first: Vid(first),
                    rid: first * 100,
                })
                .collect(),
        };
        let bytes = ode_codec::to_bytes(&head);
        for vid in 0..30 {
            let want = head.segment_for(Vid(vid)).map(|i| head.segments[i]);
            let (run, got) = ChainHead::locate(&bytes, Vid(vid)).unwrap();
            assert_eq!(got, want, "vid {vid}");
            assert_eq!((run.interval, run.block), (4, 32));
        }
        assert_eq!(head.segment_for(Vid(2)), None);
        assert_eq!(head.segment_for(Vid(9)), Some(1));
        assert_eq!(head.segment_for(Vid(99)), Some(2));
    }

    #[test]
    fn round_trips_codec() {
        let states = evolution(9, 300);
        let chain = build(&states, 3);
        let back: ObjectChain = ode_codec::from_bytes(&ode_codec::to_bytes(&chain)).unwrap();
        assert_eq!(back, chain);
        assert_eq!(back.state_at(8).unwrap(), states[8]);
    }

    #[test]
    fn version_diff_round_trips() {
        let d = ode_delta::diff(b"hello world", b"hello brave world");
        let vd = VersionDiff::from_delta(Vid(3), Vid(7), &d, true);
        let back: VersionDiff = ode_codec::from_bytes(&ode_codec::to_bytes(&vd)).unwrap();
        assert_eq!(back, vd);
        assert!(back.stored);
        assert_eq!(back.to_len, 17);
    }
}
