//! Binary diff: block-hash matching with greedy extension.
//!
//! The base is indexed in fixed-size blocks by hash; the target is
//! scanned left to right, and whenever the next block of target bytes
//! matches a base block the match is extended greedily in both
//! directions.  Unmatched bytes become inserts.  This is the same
//! family of algorithm as rsync's delta encoding — O(n) in practice,
//! and effective on the "small change to a large object" workloads the
//! paper's CAD setting implies.

use std::collections::HashMap;
use std::fmt;

use ode_codec::{impl_persist_struct, DecodeError, Persist, Reader, Writer};

/// Default block size for base indexing.
pub const DEFAULT_BLOCK: usize = 32;

/// One instruction of a [`Delta`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DeltaOp {
    /// Copy `len` bytes from `offset` in the base.
    Copy {
        /// Byte offset into the base.
        offset: u64,
        /// Number of bytes to copy.
        len: u64,
    },
    /// Emit literal bytes.
    Insert(Vec<u8>),
}

// Written out rather than derived: the literal bytes are one length
// prefix plus raw bytes (`put_bytes`), not the generic `Vec<T>` codec's
// one varint per byte. Discriminants keep the listing order.
impl Persist for DeltaOp {
    fn encode(&self, w: &mut Writer) {
        match self {
            DeltaOp::Copy { offset, len } => {
                w.put_varint(0);
                w.put_varint(*offset);
                w.put_varint(*len);
            }
            DeltaOp::Insert(bytes) => {
                w.put_varint(1);
                w.put_bytes(bytes);
            }
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        match r.get_varint()? {
            0 => Ok(DeltaOp::Copy {
                offset: r.get_varint()?,
                len: r.get_varint()?,
            }),
            1 => Ok(DeltaOp::Insert(r.get_bytes()?.to_vec())),
            discriminant => Err(DecodeError::InvalidDiscriminant {
                type_name: "DeltaOp",
                discriminant,
            }),
        }
    }
}

/// A delta transforming one byte string into another.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Delta {
    /// Length of the target the delta reconstructs (integrity check).
    pub target_len: u64,
    /// The instruction stream.
    pub ops: Vec<DeltaOp>,
}

impl_persist_struct!(Delta { target_len, ops });

impl Delta {
    /// Approximate stored size in bytes (codec-encoded length).
    pub fn encoded_size(&self) -> usize {
        ode_codec::to_bytes(self).len()
    }

    /// Total bytes of literal (insert) data — the part that does not
    /// dedupe against the base.
    pub fn literal_bytes(&self) -> usize {
        self.ops
            .iter()
            .map(|op| match op {
                DeltaOp::Insert(b) => b.len(),
                DeltaOp::Copy { .. } => 0,
            })
            .sum()
    }
}

/// Error applying a delta to a base it was not produced from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ApplyError {
    /// A copy op referenced past the end of the base.
    CopyOutOfRange {
        /// Offset requested.
        offset: u64,
        /// Length requested.
        len: u64,
        /// Base length available.
        base_len: usize,
    },
    /// The reconstructed length disagreed with `target_len`.
    LengthMismatch {
        /// Declared target length.
        expected: u64,
        /// Actually produced length.
        produced: usize,
    },
}

impl fmt::Display for ApplyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ApplyError::CopyOutOfRange {
                offset,
                len,
                base_len,
            } => write!(
                f,
                "copy [{offset}, +{len}) out of range for base of {base_len} bytes"
            ),
            ApplyError::LengthMismatch { expected, produced } => {
                write!(f, "delta produced {produced} bytes, expected {expected}")
            }
        }
    }
}

impl std::error::Error for ApplyError {}

fn block_hash(block: &[u8]) -> u64 {
    // FNV-1a over the block.
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in block {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Compute a delta that rewrites `base` into `target`, using `block`-byte
/// granularity for match discovery (see [`DEFAULT_BLOCK`]).
pub fn diff_with_block(base: &[u8], target: &[u8], block: usize) -> Delta {
    let block = block.max(4);
    let mut ops: Vec<DeltaOp> = Vec::new();
    let mut pending: Vec<u8> = Vec::new();

    // Index base blocks by hash (last occurrence wins; collisions are
    // verified byte-wise below).
    let mut index: HashMap<u64, usize> = HashMap::new();
    if base.len() >= block {
        for start in (0..=base.len() - block).step_by(block) {
            index.insert(block_hash(&base[start..start + block]), start);
        }
    }

    let flush = |pending: &mut Vec<u8>, ops: &mut Vec<DeltaOp>| {
        if !pending.is_empty() {
            ops.push(DeltaOp::Insert(std::mem::take(pending)));
        }
    };

    let mut pos = 0usize;
    while pos < target.len() {
        if pos + block <= target.len() {
            let h = block_hash(&target[pos..pos + block]);
            if let Some(&base_start) = index.get(&h) {
                if base[base_start..base_start + block] == target[pos..pos + block] {
                    // Extend the match forward.
                    let mut len = block;
                    while base_start + len < base.len()
                        && pos + len < target.len()
                        && base[base_start + len] == target[pos + len]
                    {
                        len += 1;
                    }
                    // Extend backward into pending literals.
                    let mut back = 0usize;
                    while back < pending.len()
                        && back < base_start
                        && base[base_start - back - 1] == pending[pending.len() - back - 1]
                    {
                        back += 1;
                    }
                    pending.truncate(pending.len() - back);
                    flush(&mut pending, &mut ops);
                    let offset = (base_start - back) as u64;
                    let total = (len + back) as u64;
                    // Merge with a preceding contiguous copy.
                    if let Some(DeltaOp::Copy {
                        offset: po,
                        len: pl,
                    }) = ops.last_mut()
                    {
                        if *po + *pl == offset {
                            *pl += total;
                            pos += len;
                            continue;
                        }
                    }
                    ops.push(DeltaOp::Copy { offset, len: total });
                    pos += len;
                    continue;
                }
            }
        }
        pending.push(target[pos]);
        pos += 1;
    }
    flush(&mut pending, &mut ops);

    Delta {
        target_len: target.len() as u64,
        ops,
    }
}

/// Compute a delta with the default block size.
pub fn diff(base: &[u8], target: &[u8]) -> Delta {
    diff_with_block(base, target, DEFAULT_BLOCK)
}

/// Apply a delta to its base, reconstructing the target.
pub fn apply(base: &[u8], delta: &Delta) -> Result<Vec<u8>, ApplyError> {
    let mut out = Vec::with_capacity(delta.target_len as usize);
    for op in &delta.ops {
        match op {
            DeltaOp::Copy { offset, len } => {
                let end = offset.checked_add(*len);
                match end {
                    Some(end) if end <= base.len() as u64 => {
                        out.extend_from_slice(&base[*offset as usize..end as usize]);
                    }
                    _ => {
                        return Err(ApplyError::CopyOutOfRange {
                            offset: *offset,
                            len: *len,
                            base_len: base.len(),
                        })
                    }
                }
            }
            DeltaOp::Insert(bytes) => out.extend_from_slice(bytes),
        }
    }
    if out.len() as u64 != delta.target_len {
        return Err(ApplyError::LengthMismatch {
            expected: delta.target_len,
            produced: out.len(),
        });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rt(base: &[u8], target: &[u8]) -> Delta {
        let d = diff(base, target);
        assert_eq!(apply(base, &d).unwrap(), target, "round trip");
        d
    }

    #[test]
    fn identical_inputs_are_one_copy() {
        let data: Vec<u8> = (0..1000).map(|i| (i % 251) as u8).collect();
        let d = rt(&data, &data);
        assert_eq!(d.ops.len(), 1);
        assert!(matches!(
            d.ops[0],
            DeltaOp::Copy {
                offset: 0,
                len: 1000
            }
        ));
        assert_eq!(d.literal_bytes(), 0);
    }

    #[test]
    fn small_edit_in_large_object_is_small_delta() {
        let base: Vec<u8> = (0..10_000).map(|i| (i % 251) as u8).collect();
        let mut target = base.clone();
        target[5000] ^= 0xFF; // one byte changed
        let d = rt(&base, &target);
        assert!(
            d.encoded_size() < base.len() / 10,
            "delta {} vs base {}",
            d.encoded_size(),
            base.len()
        );
        assert!(d.literal_bytes() <= 2 * DEFAULT_BLOCK);
    }

    #[test]
    fn insertion_and_deletion() {
        let base =
            b"the quick brown fox jumps over the lazy dog, repeatedly and verbosely".to_vec();
        let mut target = base.clone();
        target.splice(10..10, b"extremely ".iter().copied());
        rt(&base, &target);
        let mut target2 = base.clone();
        target2.drain(4..15);
        rt(&base, &target2);
    }

    #[test]
    fn disjoint_inputs_are_pure_insert() {
        let base = vec![0u8; 500];
        let target: Vec<u8> = (0..500).map(|i| (i % 250 + 1) as u8).collect();
        let d = rt(&base, &target);
        assert_eq!(d.literal_bytes(), 500);
    }

    #[test]
    fn empty_edge_cases() {
        rt(b"", b"");
        rt(b"", b"nonempty");
        rt(b"nonempty", b"");
        rt(b"short", b"sh");
    }

    #[test]
    fn reordered_blocks_still_copy() {
        let a: Vec<u8> = (0..500).map(|i| (i % 251) as u8).collect();
        let b: Vec<u8> = (0..500).map(|i| ((i * 7) % 251) as u8).collect();
        let mut base = a.clone();
        base.extend_from_slice(&b);
        let mut target = b;
        target.extend_from_slice(&a);
        let d = rt(&base, &target);
        // Both halves should be found as copies.
        assert!(d.literal_bytes() < 100, "literals: {}", d.literal_bytes());
    }

    #[test]
    fn corrupt_delta_rejected() {
        let d = Delta {
            target_len: 4,
            ops: vec![DeltaOp::Copy { offset: 10, len: 4 }],
        };
        assert!(matches!(
            apply(b"short", &d),
            Err(ApplyError::CopyOutOfRange { .. })
        ));
        let d2 = Delta {
            target_len: 99,
            ops: vec![DeltaOp::Insert(vec![1, 2, 3])],
        };
        assert!(matches!(
            apply(b"", &d2),
            Err(ApplyError::LengthMismatch { .. })
        ));
    }

    #[test]
    fn copy_overflow_guarded() {
        let d = Delta {
            target_len: 1,
            ops: vec![DeltaOp::Copy {
                offset: u64::MAX,
                len: 2,
            }],
        };
        assert!(matches!(
            apply(b"xy", &d),
            Err(ApplyError::CopyOutOfRange { .. })
        ));
    }

    #[test]
    fn delta_round_trips_codec() {
        let base: Vec<u8> = (0..256).map(|i| i as u8).collect();
        let mut target = base.clone();
        target.extend_from_slice(&base);
        target[7] = 99;
        let d = diff(&base, &target);
        let bytes = ode_codec::to_bytes(&d);
        let back: Delta = ode_codec::from_bytes(&bytes).unwrap();
        assert_eq!(d, back);
        assert_eq!(apply(&base, &back).unwrap(), target);
    }

    #[test]
    fn block_size_trade_off() {
        let base: Vec<u8> = (0..4096).map(|i| (i % 251) as u8).collect();
        let mut target = base.clone();
        target[100] ^= 1;
        target[3000] ^= 1;
        let fine = diff_with_block(&base, &target, 8);
        let coarse = diff_with_block(&base, &target, 256);
        assert_eq!(apply(&base, &fine).unwrap(), target);
        assert_eq!(apply(&base, &coarse).unwrap(), target);
        // Finer blocks find tighter matches around point edits.
        assert!(fine.literal_bytes() <= coarse.literal_bytes());
    }
}
