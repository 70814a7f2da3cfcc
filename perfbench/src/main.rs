//! ode-rs benchmark: three workloads over the served, version-history
//! and sharded paths, each checked against a seeded oracle.
//!
//! ```text
//! perfbench --workload <wire_oltp|chain_history|routed_batch>
//!           --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! With `--trace 0` a run sets up its store three times (reporting the
//! median set-up time), measures the untraced workload for a third of
//! `--seconds` after each set-up, and ends with one JSON line of the
//! end-to-end metrics.
//! With `--trace 1` it sets up once, measures the untraced workload,
//! then replays the same seeded op stream in-process through the
//! storage and version layers with bench-side spans, prints a stage
//! table per op type and ends with the per-layer metrics. See
//! `README.md` beside this package for the workloads and metrics.

mod chain;
mod routed;
mod trace;
mod util;
mod wire;

use std::collections::BTreeMap;
use std::time::Duration;

use ode_storage::buffer::BufferStats;
use ode_storage::StoreStats;

use trace::{OpKind, Tracer, PAGE_READ, PAGE_WRITE};
use util::{Metrics, Samples, Tally};

/// Set-ups per untraced run; `setup_s` is their median. Each set-up is
/// followed by its own third of the measured time, so that one run
/// samples the shared machine at three moments rather than one.
const SETUP_ROUNDS: u32 = 3;

/// Largest share of the untraced end-to-end median that the stage sum
/// may miss by before the reconciliation is reported as failed.
const RECONCILE_TOLERANCE: f64 = 0.35;

/// The metrics `--trace 0` reports (BENCHMARK.json `end_to_end`). Tail
/// latencies are printed but not gated: on a shared 2-CPU host the p99
/// of a call that waits on fsync moves by 2x between runs minutes
/// apart, and a p90 of a mixed op stream sits on a boundary between op
/// types.
const END_TO_END: &[&str] = &["setup_s", "ops_per_s", "op_p50_us", "space_amp", "rss_mb"];

/// The metrics `--trace 1` reports (BENCHMARK.json `per_layer`).
const PER_LAYER: &[&str] = &[
    "codec.encode_ns_per_byte",
    "codec.decode_ns_per_byte",
    "codec.encoded_per_raw_byte",
    "storage.pages_read_per_op.read",
    "storage.pages_read_per_op.hist_read",
    "storage.pages_read_per_op.checkin",
    "storage.page_fetch_us",
    "storage.buffer_hit_ratio",
    "storage.buffer_evictions",
    "storage.buffer_writebacks",
    "storage.commit_us",
    "storage.wal_syncs",
    "storage.commits_per_sync",
    "storage.group_batch_max",
    "storage.wal_bytes_per_checkin",
    "storage.pages_written_per_checkin",
    "version.latest_us",
    "version.read_body_us",
    "version.write_body_us",
    "version.materialize_hit_ratio",
    "version.chain_record_bytes_per_checkin",
    "delta.diff_ns_per_byte",
    "delta.apply_ns_per_byte",
    "core.snapshot_us",
    "core.txn_commit_us",
    "net.snapshot_hit_ratio",
    "net.bytes_out_per_op",
    "net.encode_us",
    "net.decode_us",
    "net.process_threads",
    "net.op_errors",
    "net.protocol_errors",
];

pub struct Config {
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

impl Config {
    /// Set-up rounds, and the measured time that follows each.
    pub fn phases(&self) -> (u32, Duration) {
        let rounds = if self.trace { 1 } else { SETUP_ROUNDS };
        (rounds, Duration::from_secs(self.seconds) / rounds)
    }
}

pub struct Outcome {
    pub metrics: Metrics,
    pub tally: Tally,
    /// Oracle mismatches and failed assertions; any one fails the run.
    pub errors: Vec<String>,
}

/// What a traced replay hands to [`stage_report`].
pub struct StageInput {
    pub tracer: Tracer,
    /// In-process latency of the untraced half of the replayed ops.
    pub untraced: BTreeMap<OpKind, Samples>,
}

fn usage() -> ! {
    eprintln!(
        "usage: perfbench --workload <wire_oltp|chain_history|routed_batch> \
         --seed <n> --seconds <n> --trace <0|1>"
    );
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1u64, 10u64, false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse().unwrap_or_else(|_| usage()),
            "--seconds" => seconds = value.parse().unwrap_or_else(|_| usage()),
            "--trace" => trace = value == "1",
            _ => usage(),
        }
    }
    let cfg = Config {
        seed,
        seconds: seconds.max(1),
        trace,
    };
    let outcome = match workload.as_deref() {
        Some("wire_oltp") => wire::run(&cfg),
        Some("chain_history") => chain::run(&cfg),
        Some("routed_batch") => routed::run(&cfg),
        _ => usage(),
    };
    let name = workload.unwrap_or_default();
    outcome.metrics.print_table(&format!(
        "{name} seed={seed} seconds={seconds} trace={}",
        trace as u8
    ));
    let names = if trace { PER_LAYER } else { END_TO_END };
    let mut errors = outcome.errors;
    if !trace {
        for name in END_TO_END {
            if outcome.metrics.get(name) <= 0.0 {
                errors.push(format!("end-to-end metric {name} was not measured"));
            }
        }
    }
    let metrics = outcome.metrics.json(names).unwrap_or_else(|e| {
        errors.push(e);
        String::new()
    });
    if !errors.is_empty() {
        for e in &errors {
            eprintln!("error: {e}");
        }
        std::process::exit(1);
    }
    println!(
        "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {metrics}}}",
        outcome.tally.attempted.max(1),
        outcome.tally.failed,
    );
}

/// Median, p99 and sample count of one op type's latency.
pub fn op_latencies(m: &mut Metrics, op: &str, s: &Samples) {
    m.set(format!("{op}_p50_us"), s.quantile_us(0.5), "us");
    m.set(format!("{op}_p99_us"), s.quantile_us(0.99), "us");
    m.set(format!("{op}_samples"), s.len() as f64, "count");
}

/// Buffer-pool and commit counters over the measured phase.
pub fn storage_counters(
    m: &mut Metrics,
    b0: &BufferStats,
    b1: &BufferStats,
    s0: &StoreStats,
    s1: &StoreStats,
) {
    let (hits, misses) = (b1.hits - b0.hits, b1.misses - b0.misses);
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    m.set(
        "storage.buffer_hit_ratio",
        ratio(hits, hits + misses),
        "ratio",
    );
    m.set("storage.buffer_misses", misses as f64, "count");
    m.set(
        "storage.buffer_evictions",
        (b1.evictions - b0.evictions) as f64,
        "count",
    );
    m.set(
        "storage.buffer_writebacks",
        (b1.writebacks - b0.writebacks) as f64,
        "count",
    );
    let (syncs, commits) = (s1.wal_syncs - s0.wal_syncs, s1.write_txs - s0.write_txs);
    m.set("storage.wal_syncs", syncs as f64, "count");
    m.set("storage.commits_per_sync", ratio(commits, syncs), "ratio");
    m.set(
        "storage.group_batch_max",
        s1.group_batch_max as f64,
        "count",
    );
    let reads = s1.read_txs - s0.read_txs;
    let rw = ratio(s1.reader_wait_nanos - s0.reader_wait_nanos, reads) / 1e3;
    let ww = ratio(s1.writer_wait_nanos - s0.writer_wait_nanos, commits) / 1e3;
    m.set("storage.reader_wait_us_per_read", rw, "us");
    m.set("storage.writer_wait_us_per_commit", ww, "us");
}

/// Per-layer metrics from the traced replay, then per op type a stage
/// table whose self times are reconciled against the untraced
/// end-to-end median. `served` adds the net layer's share: the wire
/// median minus the in-process median of the same op type.
pub fn stage_report(m: &mut Metrics, st: &StageInput, e2e: &[(OpKind, Samples)], served: bool) {
    layer_metrics(m, &st.tracer);
    stage_tables(m, st, e2e, served);
}

/// The per-layer metrics a traced replay yields.
pub fn layer_metrics(m: &mut Metrics, t: &Tracer) {
    for kind in [OpKind::Read, OpKind::HistRead, OpKind::Checkin] {
        m.set(
            format!("storage.pages_read_per_op.{}", kind.name()),
            t.count_per_op(kind, PAGE_READ),
            "count",
        );
    }
    m.set(
        "storage.pages_written_per_checkin",
        t.count_per_op(OpKind::Checkin, PAGE_WRITE),
        "count",
    );
    m.set("storage.page_fetch_us", t.per_call_us(PAGE_READ), "us");
    m.set("storage.commit_us", t.per_call_us("storage.commit"), "us");
    m.set("version.latest_us", t.per_call_us("version.latest"), "us");
    m.set(
        "version.read_body_us",
        t.per_call_us("version.read_body"),
        "us",
    );
    m.set(
        "version.new_version_us",
        t.per_call_us("version.new_version"),
        "us",
    );
    m.set(
        "version.write_body_us",
        t.per_call_us("version.write_body"),
        "us",
    );
    m.set("merge.lca_us", t.per_call_us("merge.lca"), "us");
    m.set("merge.merge3_us", t.per_call_us("merge.merge3"), "us");
    m.set("core.snapshot_us", t.per_call_us("core.snapshot"), "us");
    m.set(
        "core.txn_commit_us",
        t.per_call_us("core.begin") + t.per_call_us("storage.commit"),
        "us",
    );
}

/// Print a stage table per traced op type. Where the workload has an
/// untraced end-to-end sample of that op type (`e2e`), reconcile the
/// stage sum against its median; `served` adds the net layer's share,
/// the wire median minus the in-process median.
fn stage_tables(m: &mut Metrics, st: &StageInput, e2e: &[(OpKind, Samples)], served: bool) {
    let t = &st.tracer;
    let mut failures = 0;
    for kind in t.kinds() {
        let untraced = st.untraced.get(&kind).cloned().unwrap_or_default();
        let inproc_p50 = untraced.quantile_us(0.5);
        let traced_p50 = t.totals(kind).quantile_us(0.5);
        println!(
            "stage table: {} ({} traced ops; self time in us: median-band ops, all ops; calls per op)",
            kind.name(),
            t.op_count(kind)
        );
        let mut sum = 0.0;
        for stage in t.stages(kind) {
            let band = t.median_band_us(kind, stage);
            sum += band;
            println!(
                "  {stage:<28} {band:>12.2} {:>12.2} {:>9.2}",
                t.self_us(kind, stage),
                t.count_per_op(kind, stage)
            );
        }
        let overhead = traced_p50 - inproc_p50;
        m.set(format!("trace.overhead_us.{}", kind.name()), overhead, "us");
        println!(
            "  {:<28} {overhead:>12.2}  (traced in-process p50 {traced_p50:.2} - untraced {inproc_p50:.2})",
            "tracing overhead"
        );
        let Some((_, wire)) = e2e.iter().find(|(k, s)| *k == kind && s.len() > 0) else {
            println!(
                "  {:<28} {sum:>12.2}  (no untraced end-to-end sample of this op alone)",
                "sum of stages"
            );
            continue;
        };
        let e2e_p50 = wire.quantile_us(0.5);
        if served {
            let net = e2e_p50 - inproc_p50;
            m.set(format!("net.server_self_us.{}", kind.name()), net, "us");
            sum += net;
            println!(
                "  {:<28} {net:>12.2}  (wire p50 - in-process p50)",
                "net.server_self"
            );
        }
        let remainder = e2e_p50 - sum;
        let frac = remainder / e2e_p50.max(f64::MIN_POSITIVE);
        let ok = frac.abs() <= RECONCILE_TOLERANCE;
        failures += u64::from(!ok);
        println!("  {:<28} {sum:>12.2}", "sum of stages");
        println!("  {:<28} {e2e_p50:>12.2}  (untraced)", "end-to-end p50");
        println!(
            "  {:<28} {remainder:>12.2}  ({:+.1}% of end-to-end; tolerance ±{:.0}%: {})",
            "unattributed",
            frac * 100.0,
            RECONCILE_TOLERANCE * 100.0,
            if ok { "ok" } else { "OUTSIDE" }
        );
        m.set(
            format!("trace.unattributed_frac.{}", kind.name()),
            frac,
            "ratio",
        );
    }
    m.set("trace.reconcile_failures", failures as f64, "count");
}
