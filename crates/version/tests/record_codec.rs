//! Decode hardening for the version layer's records (on-disk format 2).
//!
//! For random `VersionMeta` and `ObjectChain` values: the encoding
//! round-trips; every truncation of it is a `DecodeError`; and every
//! length prefix rewritten to declare more than the bytes that follow
//! it is a `DecodeError` too — without a panic and without allocating
//! anything near the declared length. A counting global allocator
//! records the largest single allocation each decode makes.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use ode_codec::{from_bytes, to_bytes, varint, Persist, TypeTag, Writer};
use ode_delta::{Delta, DeltaOp};
use ode_version::{ChainEntry, ChainLink, ObjectChain, Oid, VersionMeta, Vid};
use proptest::prelude::*;

/// Tracks the largest allocation request made on the current thread.
struct PeakAlloc;

thread_local! {
    static PEAK: Cell<usize> = const { Cell::new(0) };
}

fn note(size: usize) {
    let _ = PEAK.try_with(|p| p.set(p.get().max(size)));
}

// SAFETY: every call forwards to `System` unchanged; the only addition
// is a thread-local high-water mark, which never allocates.
unsafe impl GlobalAlloc for PeakAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: PeakAlloc = PeakAlloc;

/// Decode `bytes` as `T`, returning the result and the largest single
/// allocation the decode made.
fn decode_peak<T: Persist>(bytes: &[u8]) -> (Result<T, ode_codec::DecodeError>, usize) {
    PEAK.with(|p| p.set(0));
    let out = from_bytes::<T>(bytes);
    (out, PEAK.with(Cell::get))
}

fn arb_bytes() -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(any::<u8>(), 0..300)
}

fn arb_meta() -> impl Strategy<Value = VersionMeta> {
    (
        (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()),
        (any::<u64>(), proptest::collection::vec(any::<u64>(), 0..6)),
        (any::<u64>(), any::<u64>(), any::<u64>()),
        arb_bytes(),
    )
        .prop_map(
            |((vid, oid, tag, dprev), (dprev2, dnext), (tprev, tnext, created), body)| {
                VersionMeta {
                    vid: Vid(vid),
                    oid: Oid(oid),
                    tag: TypeTag(tag),
                    dprev: Vid(dprev),
                    dprev2: Vid(dprev2),
                    dnext: dnext.into_iter().map(Vid).collect(),
                    tprev: Vid(tprev),
                    tnext: Vid(tnext),
                    created,
                    body,
                }
            },
        )
}

fn arb_op() -> impl Strategy<Value = DeltaOp> {
    prop_oneof![
        (any::<u64>(), any::<u64>()).prop_map(|(offset, len)| DeltaOp::Copy { offset, len }),
        arb_bytes().prop_map(DeltaOp::Insert),
    ]
}

fn arb_link() -> impl Strategy<Value = ChainLink> {
    prop_oneof![
        arb_bytes().prop_map(ChainLink::Anchor),
        (any::<u64>(), proptest::collection::vec(arb_op(), 0..5))
            .prop_map(|(target_len, ops)| ChainLink::Delta(Delta { target_len, ops })),
    ]
}

fn arb_chain() -> impl Strategy<Value = ObjectChain> {
    (
        any::<u64>(),
        any::<u64>(),
        proptest::collection::vec((any::<u64>(), arb_link()), 0..6),
    )
        .prop_map(|(interval, block, entries)| ObjectChain {
            interval,
            block,
            entries: entries
                .into_iter()
                .map(|(vid, link)| ChainEntry {
                    vid: Vid(vid),
                    link,
                })
                .collect(),
        })
}

/// Re-encode `meta` field by field, noting the offset of every length
/// prefix (the `dnext` count and the body length).
fn meta_layout(meta: &VersionMeta) -> (Vec<u8>, Vec<usize>) {
    let mut w = Writer::new();
    let mut prefixes = Vec::new();
    meta.vid.encode(&mut w);
    meta.oid.encode(&mut w);
    meta.tag.encode(&mut w);
    meta.dprev.encode(&mut w);
    meta.dprev2.encode(&mut w);
    prefixes.push(w.len());
    meta.dnext.encode(&mut w);
    meta.tprev.encode(&mut w);
    meta.tnext.encode(&mut w);
    meta.created.encode(&mut w);
    prefixes.push(w.len());
    w.put_bytes(&meta.body);
    (w.into_bytes(), prefixes)
}

/// As [`meta_layout`] for a chain: the entry count, every anchor
/// length, every delta's op count and every insert length.
fn chain_layout(chain: &ObjectChain) -> (Vec<u8>, Vec<usize>) {
    let mut w = Writer::new();
    let mut prefixes = Vec::new();
    w.put_varint(chain.interval);
    w.put_varint(chain.block);
    prefixes.push(w.len());
    w.put_varint(chain.entries.len() as u64);
    for e in &chain.entries {
        e.vid.encode(&mut w);
        match &e.link {
            ChainLink::Anchor(state) => {
                w.put_varint(0);
                prefixes.push(w.len());
                w.put_bytes(state);
            }
            ChainLink::Delta(d) => {
                w.put_varint(1);
                w.put_varint(d.target_len);
                prefixes.push(w.len());
                w.put_varint(d.ops.len() as u64);
                for op in &d.ops {
                    match op {
                        DeltaOp::Copy { offset, len } => {
                            w.put_varint(0);
                            w.put_varint(*offset);
                            w.put_varint(*len);
                        }
                        DeltaOp::Insert(bytes) => {
                            w.put_varint(1);
                            prefixes.push(w.len());
                            w.put_bytes(bytes);
                        }
                    }
                }
            }
        }
    }
    (w.into_bytes(), prefixes)
}

/// Every strict prefix of `bytes` fails to decode, without panicking
/// and without allocating more than the input could describe.
fn check_truncations<T: Persist>(bytes: &[u8]) {
    for n in 0..bytes.len() {
        let (out, peak) = decode_peak::<T>(&bytes[..n]);
        assert!(
            out.is_err(),
            "a {n}-byte truncation of {} decoded",
            bytes.len()
        );
        assert!(
            peak <= 64 * (n + 1),
            "truncation to {n} allocated {peak} bytes"
        );
    }
}

/// Every listed length prefix, rewritten to declare more bytes (or
/// elements) than follow it, fails to decode without allocating the
/// declared length.
fn check_overlong_prefixes<T: Persist>(bytes: &[u8], prefixes: &[usize]) {
    for &at in prefixes {
        let (_, width) = varint::read_u64(&bytes[at..]).expect("prefix varint");
        let rest = &bytes[at + width..];
        for declared in [rest.len() as u64 + 1, 1 << 40, u64::MAX] {
            let mut bad = bytes[..at].to_vec();
            varint::write_u64(&mut bad, declared);
            bad.extend_from_slice(rest);
            let (out, peak) = decode_peak::<T>(&bad);
            assert!(
                out.is_err(),
                "prefix at {at} declaring {declared} (of {}) decoded",
                rest.len()
            );
            assert!(
                peak <= 64 * (bad.len() + 1),
                "prefix at {at} declaring {declared}: allocated {peak} bytes"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 128, ..ProptestConfig::default() })]

    #[test]
    fn version_meta_decoding_is_total(meta in arb_meta()) {
        let bytes = to_bytes(&meta);
        prop_assert_eq!(from_bytes::<VersionMeta>(&bytes).unwrap(), meta.clone());
        let (layout, prefixes) = meta_layout(&meta);
        prop_assert_eq!(&layout, &bytes);
        // The body costs its length prefix plus the raw bytes.
        let (body_len, width) = varint::read_u64(&bytes[prefixes[1]..]).unwrap();
        prop_assert_eq!(body_len, meta.body.len() as u64);
        prop_assert_eq!(bytes.len() - prefixes[1], width + meta.body.len());
        check_truncations::<VersionMeta>(&bytes);
        check_overlong_prefixes::<VersionMeta>(&bytes, &prefixes);
    }

    #[test]
    fn object_chain_decoding_is_total(chain in arb_chain()) {
        let bytes = to_bytes(&chain);
        prop_assert_eq!(from_bytes::<ObjectChain>(&bytes).unwrap(), chain.clone());
        let (layout, prefixes) = chain_layout(&chain);
        prop_assert_eq!(&layout, &bytes);
        check_truncations::<ObjectChain>(&bytes);
        check_overlong_prefixes::<ObjectChain>(&bytes, &prefixes);
    }
}
