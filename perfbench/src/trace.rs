//! Bench-side tracing: spans around calls into each layer's public API,
//! recorded in memory and folded into per-operation stage tables.
//!
//! Nothing here instruments the program. [`Layers`] replays operations
//! the way `ode::Txn` composes them (snapshot, version lookup, body
//! read, check-in, commit) with a span around each call, and
//! [`TracedPages`] wraps the transaction's `PageRead`/`PageWrite` so
//! every page fetch and page write is a child span. A layer's self time
//! is its span's duration minus the time its child spans cover.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Instant;

use ode_codec::TypeTag;
use ode_merge::MergePolicy;
use ode_object::{Oid, Vid};
use ode_storage::page::PageKind;
use ode_storage::{PageBuf, PageId, PageRead, PageWrite, Store};
use ode_version::{MaterializeCache, VersionMeta, VersionStore};

use crate::util::Samples;

/// Operation types the stage tables are kept for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum OpKind {
    Read,
    HistRead,
    Checkin,
    Merge,
    Update,
}

impl OpKind {
    pub fn name(self) -> &'static str {
        match self {
            OpKind::Read => "read",
            OpKind::HistRead => "hist_read",
            OpKind::Checkin => "checkin",
            OpKind::Merge => "merge",
            OpKind::Update => "update",
        }
    }
}

pub const PAGE_READ: &str = "storage.page_read";
pub const PAGE_WRITE: &str = "storage.page_write";
const ROOT: &str = "bench.unattributed";

struct Span {
    name: &'static str,
    start: Instant,
    end: Instant,
    parent: Option<usize>,
}

/// Everything one traced op's spans add up to.
#[derive(Default)]
struct OpRecord {
    total_ns: u64,
    self_ns: BTreeMap<&'static str, u64>,
    counts: BTreeMap<&'static str, u64>,
}

/// In-memory span recorder. Spans of one operation share the op id
/// implied by the root span; each operation is folded into the
/// per-kind tables as soon as its root span closes.
#[derive(Default)]
pub struct Tracer {
    spans: Vec<Span>,
    stack: Vec<usize>,
    ops: BTreeMap<OpKind, Vec<OpRecord>>,
}

impl Tracer {
    fn enter(&mut self, name: &'static str) -> usize {
        let now = Instant::now();
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            start: now,
            end: now,
            parent: self.stack.last().copied(),
        });
        self.stack.push(idx);
        idx
    }

    fn exit(&mut self, idx: usize) {
        self.spans[idx].end = Instant::now();
        let top = self.stack.pop();
        debug_assert_eq!(top, Some(idx), "spans close in order");
    }

    /// Fold the finished operation's spans into self times.
    fn finish_op(&mut self, kind: OpKind) {
        let dur = |s: &Span| s.end.duration_since(s.start).as_nanos() as u64;
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += dur(s);
            }
        }
        let mut rec = OpRecord {
            total_ns: self.spans.first().map_or(0, dur),
            ..OpRecord::default()
        };
        for (i, s) in self.spans.iter().enumerate() {
            *rec.self_ns.entry(s.name).or_default() += dur(s).saturating_sub(child_ns[i]);
            *rec.counts.entry(s.name).or_default() += 1;
        }
        self.ops.entry(kind).or_default().push(rec);
        self.spans.clear();
    }

    pub fn kinds(&self) -> Vec<OpKind> {
        self.ops.keys().copied().collect()
    }

    pub fn op_count(&self, kind: OpKind) -> usize {
        self.ops.get(&kind).map_or(0, Vec::len)
    }

    /// Every stage name seen for `kind`, root last.
    pub fn stages(&self, kind: OpKind) -> Vec<&'static str> {
        let mut names: Vec<&'static str> = self
            .ops
            .get(&kind)
            .into_iter()
            .flatten()
            .flat_map(|r| r.self_ns.keys().copied())
            .filter(|n| *n != ROOT)
            .collect();
        names.sort_unstable();
        names.dedup();
        names.push(ROOT);
        names
    }

    /// Mean self time of `stage` per `kind` op, in microseconds.
    pub fn self_us(&self, kind: OpKind, stage: &str) -> f64 {
        let recs = match self.ops.get(&kind) {
            Some(r) if !r.is_empty() => r,
            _ => return 0.0,
        };
        let sum: u64 = recs
            .iter()
            .map(|r| r.self_ns.get(stage).copied().unwrap_or(0))
            .sum();
        sum as f64 / recs.len() as f64 / 1e3
    }

    /// Mean self time of `stage` (µs) over the `kind` ops whose traced
    /// totals fall in the middle fifth (p40 to p60): a breakdown of the
    /// median op. Medians of stages do not add up; this does, to about
    /// the traced median.
    pub fn median_band_us(&self, kind: OpKind, stage: &str) -> f64 {
        let mut recs: Vec<&OpRecord> = self.ops.get(&kind).into_iter().flatten().collect();
        if recs.is_empty() {
            return 0.0;
        }
        recs.sort_by_key(|r| r.total_ns);
        let n = recs.len();
        let (lo, hi) = (n * 2 / 5, (n * 3 / 5).max(n * 2 / 5 + 1).min(n));
        let band = &recs[lo..hi];
        let sum: u64 = band
            .iter()
            .map(|r| r.self_ns.get(stage).copied().unwrap_or(0))
            .sum();
        sum as f64 / band.len() as f64 / 1e3
    }

    /// Mean number of `stage` spans per `kind` op.
    pub fn count_per_op(&self, kind: OpKind, stage: &str) -> f64 {
        let recs = match self.ops.get(&kind) {
            Some(r) if !r.is_empty() => r,
            _ => return 0.0,
        };
        let sum: u64 = recs
            .iter()
            .map(|r| r.counts.get(stage).copied().unwrap_or(0))
            .sum();
        sum as f64 / recs.len() as f64
    }

    /// Traced end-to-end latency of `kind` ops (root span durations).
    pub fn totals(&self, kind: OpKind) -> Samples {
        Samples(
            self.ops
                .get(&kind)
                .into_iter()
                .flatten()
                .map(|r| r.total_ns)
                .collect(),
        )
    }

    /// Mean self time per call of `stage`, over every op kind, in µs.
    pub fn per_call_us(&self, stage: &str) -> f64 {
        let (mut ns, mut calls) = (0u64, 0u64);
        for r in self.ops.values().flatten() {
            ns += r.self_ns.get(stage).copied().unwrap_or(0);
            calls += r.counts.get(stage).copied().unwrap_or(0);
        }
        if calls == 0 {
            0.0
        } else {
            ns as f64 / calls as f64 / 1e3
        }
    }
}

/// Optional tracer handle: `None` runs the very same calls untraced.
#[derive(Clone, Copy)]
pub struct Probe<'t>(pub Option<&'t RefCell<Tracer>>);

impl<'t> Probe<'t> {
    pub fn span<R>(self, name: &'static str, f: impl FnOnce() -> R) -> R {
        match self.0 {
            None => f(),
            Some(t) => {
                let idx = t.borrow_mut().enter(name);
                let r = f();
                t.borrow_mut().exit(idx);
                r
            }
        }
    }

    /// Run one whole operation under a root span.
    pub fn op<R>(self, kind: OpKind, f: impl FnOnce() -> R) -> R {
        match self.0 {
            None => f(),
            Some(t) => {
                let idx = t.borrow_mut().enter(ROOT);
                let r = f();
                let mut tracer = t.borrow_mut();
                tracer.exit(idx);
                tracer.finish_op(kind);
                r
            }
        }
    }

    pub fn pages<'a, T>(self, inner: &'a mut T) -> TracedPages<'a, 't, T> {
        TracedPages { inner, probe: self }
    }
}

/// A `PageRead`/`PageWrite` wrapper that records each page fetch and
/// each page write as a child span of whatever layer call is open.
pub struct TracedPages<'a, 't, T> {
    inner: &'a mut T,
    probe: Probe<'t>,
}

impl<T: PageRead> PageRead for TracedPages<'_, '_, T> {
    fn page(&mut self, id: PageId) -> ode_storage::Result<&PageBuf> {
        let probe = self.probe;
        let inner = &mut *self.inner;
        probe.span(PAGE_READ, move || inner.page(id))
    }

    fn root(&mut self, slot: usize) -> ode_storage::Result<u64> {
        self.inner.root(slot)
    }

    fn page_count(&mut self) -> ode_storage::Result<u64> {
        self.inner.page_count()
    }
}

impl<T: PageWrite> PageWrite for TracedPages<'_, '_, T> {
    fn page_mut(&mut self, id: PageId) -> ode_storage::Result<&mut PageBuf> {
        let probe = self.probe;
        let inner = &mut *self.inner;
        probe.span(PAGE_WRITE, move || inner.page_mut(id))
    }

    fn allocate(&mut self, kind: PageKind) -> ode_storage::Result<PageId> {
        let probe = self.probe;
        let inner = &mut *self.inner;
        probe.span(PAGE_WRITE, move || inner.allocate(kind))
    }

    fn free_page(&mut self, id: PageId) -> ode_storage::Result<()> {
        self.inner.free_page(id)
    }

    fn set_root(&mut self, slot: usize, value: u64) -> ode_storage::Result<()> {
        self.inner.set_root(slot, value)
    }
}

type VResult<T> = ode_version::Result<T>;

/// The layers `ode::Database` composes, driven directly so each call
/// can be timed. Every method issues the same sequence of calls as the
/// `ode::Txn`/`ode::Snapshot` method of the same name.
pub struct Layers<'a> {
    pub store: &'a Store,
    pub versions: &'a VersionStore,
    pub cache: &'a MaterializeCache,
}

impl Layers<'_> {
    /// `Snapshot::deref_raw`.
    pub fn deref_raw(&self, p: Probe, oid: Oid, tag: TypeTag) -> VResult<(Vid, Vec<u8>)> {
        let mut rtx = p.span("core.snapshot", || self.store.read());
        let epoch = rtx.epoch();
        let mut tx = p.pages(&mut rtx);
        let vid = p.span("version.latest", || self.versions.latest(&mut tx, oid))?;
        let body = p.span("version.read_body", || {
            self.versions
                .read_body_cached(&mut tx, vid, tag, Some((self.cache, epoch)))
        })?;
        Ok((vid, body))
    }

    /// `Snapshot::deref_version_raw`.
    pub fn deref_version_raw(&self, p: Probe, vid: Vid, tag: TypeTag) -> VResult<Vec<u8>> {
        let mut rtx = p.span("core.snapshot", || self.store.read());
        let epoch = rtx.epoch();
        let mut tx = p.pages(&mut rtx);
        p.span("version.read_body", || {
            self.versions
                .read_body_cached(&mut tx, vid, tag, Some((self.cache, epoch)))
        })
    }

    /// `Txn::newversion_raw` + `Txn::put_version_raw` + `Txn::commit`.
    pub fn checkin(&self, p: Probe, oid: Oid, tag: TypeTag, body: Vec<u8>) -> VResult<Vid> {
        let mut wtx = p.span("core.begin", || self.store.begin());
        let vid = {
            let mut tx = p.pages(&mut wtx);
            let meta = p.span("version.lookup", || self.versions.object_meta(&mut tx, oid))?;
            let vid = p.span("version.new_version", || {
                self.versions.new_version_from(&mut tx, meta.latest)
            })?;
            p.span("version.lookup", || self.versions.object_of(&mut tx, vid))?;
            p.span("version.write_body", || {
                self.versions.write_body(&mut tx, vid, tag, body)
            })?;
            vid
        };
        p.span("storage.commit", || wtx.commit())?;
        Ok(vid)
    }

    /// `Txn::newversion_raw` + `Txn::commit`: the server's `NewVersion`.
    pub fn newversion(&self, p: Probe, oid: Oid) -> VResult<Vid> {
        let mut wtx = p.span("core.begin", || self.store.begin());
        let vid = {
            let mut tx = p.pages(&mut wtx);
            let meta = p.span("version.lookup", || self.versions.object_meta(&mut tx, oid))?;
            p.span("version.new_version", || {
                self.versions.new_version_from(&mut tx, meta.latest)
            })?
        };
        p.span("storage.commit", || wtx.commit())?;
        Ok(vid)
    }

    /// `Txn::put_version_raw` + `Txn::commit`: the server's
    /// `UpdateVersion`.
    pub fn put_version(&self, p: Probe, vid: Vid, tag: TypeTag, body: Vec<u8>) -> VResult<()> {
        let mut wtx = p.span("core.begin", || self.store.begin());
        {
            let mut tx = p.pages(&mut wtx);
            p.span("version.lookup", || self.versions.object_of(&mut tx, vid))?;
            p.span("version.write_body", || {
                self.versions.write_body(&mut tx, vid, tag, body)
            })?;
        }
        p.span("storage.commit", || wtx.commit())?;
        Ok(())
    }

    /// `Txn::put_raw` + `Txn::commit`: overwrite the latest version.
    pub fn update(&self, p: Probe, oid: Oid, tag: TypeTag, body: Vec<u8>) -> VResult<Vid> {
        let mut wtx = p.span("core.begin", || self.store.begin());
        let vid = {
            let mut tx = p.pages(&mut wtx);
            let vid = p.span("version.latest", || self.versions.latest(&mut tx, oid))?;
            p.span("version.write_body", || {
                self.versions.write_body(&mut tx, vid, tag, body)
            })?;
            vid
        };
        p.span("storage.commit", || wtx.commit())?;
        Ok(vid)
    }

    /// Two `Txn::newversion_from_raw` + `put_version_raw` forks of
    /// `tip`, then `Txn::merge_raw`, in one commit. Returns the two
    /// forks and the merge version.
    pub fn fork_merge(
        &self,
        p: Probe,
        tip: Vid,
        tag: TypeTag,
        ours: Vec<u8>,
        theirs: Vec<u8>,
    ) -> VResult<(Vid, Vid, Option<Vid>)> {
        let mut wtx = p.span("core.begin", || self.store.begin());
        let out = {
            let mut tx = p.pages(&mut wtx);
            let mut fork = |body: Vec<u8>| -> VResult<Vid> {
                let oid = p.span("version.lookup", || self.versions.object_of(&mut tx, tip))?;
                p.span("version.lookup", || self.versions.object_meta(&mut tx, oid))?;
                let vid = p.span("version.new_version", || {
                    self.versions.new_version_from(&mut tx, tip)
                })?;
                p.span("version.lookup", || self.versions.object_of(&mut tx, vid))?;
                p.span("version.write_body", || {
                    self.versions.write_body(&mut tx, vid, tag, body)
                })?;
                Ok(vid)
            };
            let a = fork(ours)?;
            let b = fork(theirs)?;
            let oid = p.span("version.lookup", || self.versions.object_of(&mut tx, a))?;
            p.span("version.lookup", || self.versions.object_of(&mut tx, b))?;
            p.span("version.lookup", || self.versions.object_meta(&mut tx, oid))?;
            let base = p.span("merge.lca", || self.versions.common_ancestor(&mut tx, a, b))?;
            let base_body = match base {
                Some(v) => p.span("version.read_body", || {
                    self.versions.read_body(&mut tx, v, tag)
                })?,
                None => Vec::new(),
            };
            let ours = p.span("version.read_body", || {
                self.versions.read_body(&mut tx, a, tag)
            })?;
            let theirs = p.span("version.read_body", || {
                self.versions.read_body(&mut tx, b, tag)
            })?;
            let outcome = p.span("merge.merge3", || {
                ode_merge::merge(&base_body, &ours, &theirs, MergePolicy::Fail)
            });
            let merged = match outcome.merged {
                Some(body) => Some(p.span("version.new_version", || {
                    self.versions.new_merge_version(&mut tx, a, b, body)
                })?),
                None => None,
            };
            (a, b, merged)
        };
        p.span("storage.commit", || wtx.commit())?;
        Ok(out)
    }
}

/// Cost of the codec, delta and wire-protocol functions on the bodies
/// an operation stream reads and writes, timed by direct calls. These
/// run inside the version and net layers' spans in the program, so
/// they are reported beside the stage tables, not added into them.
#[derive(Default)]
pub struct DirectCalls {
    raw_bytes: u64,
    encoded_bytes: u64,
    encode_ns: u64,
    decode_ns: u64,
    delta_bytes: u64,
    diff_ns: u64,
    apply_ns: u64,
    net_msgs: u64,
    net_encode_ns: u64,
    net_decode_ns: u64,
}

impl DirectCalls {
    /// Encode and decode the version record that carries `body`.
    pub fn codec(&mut self, body: &[u8]) {
        let meta = VersionMeta {
            vid: Vid(1 << 20),
            oid: Oid(1 << 14),
            tag: TypeTag(0),
            dprev: Vid((1 << 20) - 1),
            dprev2: Vid::NULL,
            dnext: Vec::new(),
            tprev: Vid((1 << 20) - 1),
            tnext: Vid::NULL,
            created: 1 << 20,
            body: body.to_vec(),
        };
        let start = Instant::now();
        let bytes = ode_codec::to_bytes(&meta);
        let mid = Instant::now();
        let back: VersionMeta = ode_codec::from_bytes(&bytes).expect("record round-trips");
        let end = Instant::now();
        assert_eq!(back.body.len(), body.len(), "codec round trip");
        self.raw_bytes += body.len() as u64;
        self.encoded_bytes += bytes.len() as u64;
        self.encode_ns += mid.duration_since(start).as_nanos() as u64;
        self.decode_ns += end.duration_since(mid).as_nanos() as u64;
    }

    /// Diff `old` against `new` and apply the delta back.
    pub fn delta(&mut self, old: &[u8], new: &[u8]) {
        let start = Instant::now();
        let delta = ode_delta::diff(old, new);
        let mid = Instant::now();
        let back = ode_delta::apply(old, &delta).expect("delta applies");
        let end = Instant::now();
        assert!(back == new, "delta round trip");
        self.delta_bytes += new.len() as u64;
        self.diff_ns += mid.duration_since(start).as_nanos() as u64;
        self.apply_ns += end.duration_since(mid).as_nanos() as u64;
    }

    /// Encode and decode one request and its response as the wire
    /// protocol frames them.
    pub fn wire(&mut self, request: &ode_net::Request, response: &ode_net::Response) {
        let start = Instant::now();
        let req = request.encode(7);
        let resp = response.encode(7);
        let mid = Instant::now();
        let r1 = ode_net::Request::decode(&req).is_ok();
        let r2 = ode_net::Response::decode(&resp).is_ok();
        let end = Instant::now();
        assert!(r1 && r2, "protocol round trip");
        self.net_msgs += 1;
        self.net_encode_ns += mid.duration_since(start).as_nanos() as u64;
        self.net_decode_ns += end.duration_since(mid).as_nanos() as u64;
    }

    pub fn report(&self, m: &mut crate::util::Metrics) {
        let per = |ns: u64, n: u64| if n == 0 { 0.0 } else { ns as f64 / n as f64 };
        m.set(
            "codec.encode_ns_per_byte",
            per(self.encode_ns, self.raw_bytes),
            "ns/B",
        );
        m.set(
            "codec.decode_ns_per_byte",
            per(self.decode_ns, self.raw_bytes),
            "ns/B",
        );
        m.set(
            "codec.encoded_per_raw_byte",
            per(self.encoded_bytes, self.raw_bytes),
            "ratio",
        );
        m.set(
            "delta.diff_ns_per_byte",
            per(self.diff_ns, self.delta_bytes),
            "ns/B",
        );
        m.set(
            "delta.apply_ns_per_byte",
            per(self.apply_ns, self.delta_bytes),
            "ns/B",
        );
        m.set(
            "net.encode_us",
            per(self.net_encode_ns, self.net_msgs) / 1e3,
            "us",
        );
        m.set(
            "net.decode_us",
            per(self.net_decode_ns, self.net_msgs) / 1e3,
            "us",
        );
    }
}
