//! Delta-chain body storage: one anchored chain record per object.
//!
//! The paper's §2 observation — versions can be stored as *differences*
//! along the derived-from relationship — applied to the production
//! engine.  When chain storage is enabled (see
//! [`ChainConfig`]), an object's version bodies live in a single
//! [`ObjectChain`] record instead of one whole copy per
//! [`VersionMeta`](crate::VersionMeta):
//!
//! * entries run in **temporal order** and always cover a suffix of the
//!   object's temporal history ending at the latest version (objects
//!   that predate chain storage keep their old whole-body records — the
//!   migration story for existing databases);
//! * `entries[0]` is always an [`ChainLink::Anchor`] (a full snapshot),
//!   and an anchor recurs at least every `interval` entries, so
//!   materializing **any** version applies at most `interval - 1`
//!   deltas;
//! * the **latest** version additionally keeps its whole body in its
//!   `VersionMeta.body` (the chain can reproduce it too — the meta copy
//!   is a read-path cache), so `latest()` reads cost exactly what
//!   whole-body storage costs; every *older* chain member's meta body is
//!   cleared.
//!
//! Version ids are allocated monotonically and entries are appended in
//! allocation order, so `entries` is sorted by vid and membership is a
//! binary search.

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

/// The per-object chain record: every chained version's body, as
/// periodic anchors plus forward deltas.
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
        let link = if self.deltas_since_anchor() as u64 + 1 >= self.interval {
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

    /// Number of delta entries.
    pub fn deltas(&self) -> usize {
        self.entries.len() - self.anchors()
    }

    /// Encoded size of the whole chain record in bytes.
    pub fn encoded_size(&self) -> usize {
        ode_codec::to_bytes(self).len()
    }
}

/// Space and shape statistics for one object's chain record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChainStats {
    /// Versions stored in the chain.
    pub versions: u64,
    /// Full-snapshot entries.
    pub anchors: u64,
    /// Delta entries.
    pub deltas: u64,
    /// Anchor spacing the chain was built with.
    pub interval: u64,
    /// Encoded size of the chain record (what the heap actually
    /// stores), in bytes.
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
