//! `router_bench` — aggregate read throughput of the sharded tier.
//!
//! ```text
//! router_bench [clients] [reads_per_client] [batch] [objects] [repeats]
//! ```
//!
//! Three topologies over the same pipelined-read workload, each on
//! fresh in-process databases:
//!
//! - **direct** — clients on a single `OdeServer` (the PR 2 ceiling);
//! - **router_1shard** — the same single server behind an `OdeRouter`,
//!   pricing the extra hop by itself;
//! - **router_4shard** — four shard servers behind the router, the
//!   scale-out case.
//!
//! The working set (`objects`, default 8192) deliberately exceeds one
//! server's snapshot-cache capacity (4096 entries): a single server
//! keeps missing, while four shards hold a quarter of the set each and
//! stay hot — cache capacity, decode work, and commit-epoch checks all
//! scale with the shard count. Each topology is measured `repeats`
//! times on the same warm instance and the fastest phase is reported:
//! on a small machine the scheduler noise across ~sub-second phases
//! dwarfs the topology differences, and the repeat maximum is the
//! stable estimator of what each topology can sustain (the phases are
//! read-only, so hit rates are identical across repeats). The report
//! (JSON on stdout, shape checked into BENCH_net.json) ends with
//! `router4_over_direct`, the tier's aggregate speedup over the
//! single-server ceiling.

use std::net::SocketAddr;
use std::sync::{Arc, Barrier};
use std::thread;
use std::time::Instant;

use ode::{Database, DatabaseOptions, Oid, TypeTag};
use ode_net::{
    ClientConfig, OdeClient, OdeRouter, OdeServer, Request, Response, RouterConfig, ServerConfig,
};

const TAG: TypeTag = TypeTag(0x726f75746572625f); // "routerb_"

struct Scratch(std::path::PathBuf);

impl Scratch {
    fn new(label: &str) -> Scratch {
        let path =
            std::env::temp_dir().join(format!("ode-router-bench-{}-{label}", std::process::id()));
        let _ = std::fs::remove_file(&path);
        Scratch(path)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
        let mut wal = self.0.clone().into_os_string();
        wal.push(".wal");
        let _ = std::fs::remove_file(std::path::PathBuf::from(wal));
    }
}

struct PhaseResult {
    elapsed_secs: f64,
    ops_per_sec: f64,
    snapshot_hits: u64,
    snapshot_misses: u64,
}

/// Seed `objects` objects through `addr` and return their ids — minted
/// by whatever is listening there, so router phases get
/// shard-qualified ids and direct phases get raw ones.
fn seed(addr: SocketAddr, objects: usize) -> Vec<Oid> {
    let mut seeder = OdeClient::connect(addr, ClientConfig::default()).expect("connect seeder");
    let body = vec![0xABu8; 128];
    let oids: Vec<Oid> = (0..objects)
        .map(|_| seeder.pnew_raw(TAG, body.clone()).expect("seed").0)
        .collect();
    for &oid in &oids {
        seeder.deref_raw(oid, TAG).expect("warm");
    }
    oids
}

/// Every thread performs `reads` pipelined Derefs over `oids`,
/// round-robin from a per-thread offset.
fn run_phase(
    addr: SocketAddr,
    clients: usize,
    reads: usize,
    batch: usize,
    oids: &[Oid],
) -> PhaseResult {
    let mut stats_client = OdeClient::connect(addr, ClientConfig::default()).expect("connect");
    let before = stats_client.stats().expect("stats");
    let barrier = Arc::new(Barrier::new(clients + 1));
    let start = Instant::now();
    thread::scope(|scope| {
        for t in 0..clients {
            let barrier = Arc::clone(&barrier);
            scope.spawn(move || {
                let mut c = OdeClient::connect(addr, ClientConfig::default()).expect("connect");
                barrier.wait();
                let mut i = t * (oids.len() / clients.max(1)); // spread offsets
                let mut done = 0usize;
                while done < reads {
                    let n = batch.min(reads - done);
                    let mut pipe = c.pipeline();
                    for _ in 0..n {
                        let oid = oids[i % oids.len()];
                        i += 1;
                        pipe.push(&Request::Deref { oid, tag: TAG }).expect("push");
                    }
                    for r in pipe.run().expect("pipeline") {
                        assert!(matches!(r, Response::Body { .. }));
                    }
                    done += n;
                }
            });
        }
        barrier.wait();
    });
    let elapsed = start.elapsed().as_secs_f64();
    let after = stats_client.stats().expect("stats");
    PhaseResult {
        elapsed_secs: elapsed,
        ops_per_sec: (clients * reads) as f64 / elapsed,
        snapshot_hits: after.snapshot_hits - before.snapshot_hits,
        snapshot_misses: after.snapshot_misses - before.snapshot_misses,
    }
}

/// One shard server on a fresh database.
fn start_shard(scratch: &Scratch, workers: usize) -> (Arc<Database>, OdeServer) {
    let db = Arc::new(Database::create(&scratch.0, DatabaseOptions::no_sync()).expect("create db"));
    let config = ServerConfig {
        workers,
        ..ServerConfig::default()
    };
    let server = OdeServer::bind(Arc::clone(&db), "127.0.0.1:0", config).expect("bind shard");
    (db, server)
}

/// The fastest of `repeats` phases — all identical, so this selects
/// the run least disturbed by the scheduler.
fn best_phase(
    addr: SocketAddr,
    clients: usize,
    reads: usize,
    batch: usize,
    oids: &[Oid],
    repeats: usize,
) -> PhaseResult {
    (0..repeats.max(1))
        .map(|_| run_phase(addr, clients, reads, batch, oids))
        .max_by(|a, b| a.ops_per_sec.total_cmp(&b.ops_per_sec))
        .expect("at least one phase")
}

/// Run one topology end to end: build it, seed it, measure it, tear it
/// down. `shards == 0` means no router — clients straight on a server.
fn run_topology(
    label: &str,
    shards: usize,
    clients: usize,
    reads: usize,
    batch: usize,
    objects: usize,
    repeats: usize,
) -> PhaseResult {
    // Every client connection gets a live worker on each shard.
    let workers = clients + 2;
    let scratches: Vec<Scratch> = (0..shards.max(1))
        .map(|i| Scratch::new(&format!("{label}-{i}")))
        .collect();
    let nodes: Vec<(Arc<Database>, OdeServer)> =
        scratches.iter().map(|s| start_shard(s, workers)).collect();

    let result = if shards == 0 {
        let addr = nodes[0].1.local_addr();
        let oids = seed(addr, objects);
        best_phase(addr, clients, reads, batch, &oids, repeats)
    } else {
        let backends: Vec<SocketAddr> = nodes.iter().map(|(_, s)| s.local_addr()).collect();
        let router =
            OdeRouter::bind("127.0.0.1:0", backends, RouterConfig::default()).expect("bind router");
        let addr = router.local_addr();
        let oids = seed(addr, objects);
        let result = best_phase(addr, clients, reads, batch, &oids, repeats);
        router.shutdown();
        result
    };
    for (_, server) in nodes {
        server.shutdown();
    }
    result
}

fn main() {
    let args: Vec<usize> = std::env::args()
        .skip(1)
        .map(|a| a.parse().expect("numeric argument"))
        .collect();
    let clients = args.first().copied().unwrap_or(8);
    let reads = args.get(1).copied().unwrap_or(20_000);
    let batch = args.get(2).copied().unwrap_or(128);
    let objects = args.get(3).copied().unwrap_or(16_384);
    let repeats = args.get(4).copied().unwrap_or(5);

    let direct = run_topology("direct", 0, clients, reads, batch, objects, repeats);
    let one = run_topology("r1", 1, clients, reads, batch, objects, repeats);
    let four = run_topology("r4", 4, clients, reads, batch, objects, repeats);
    let speedup = four.ops_per_sec / direct.ops_per_sec;

    println!("{{");
    println!("  \"benchmark\": \"router_sharded_reads\",");
    println!("  \"clients\": {clients},");
    println!("  \"reads_per_client\": {reads},");
    println!("  \"batch\": {batch},");
    println!("  \"objects\": {objects},");
    println!("  \"repeats\": {repeats},");
    for (name, phase, comma) in [
        ("direct", &direct, ","),
        ("router_1shard", &one, ","),
        ("router_4shard", &four, ","),
    ] {
        println!("  \"{name}\": {{");
        println!("    \"ops_per_sec\": {:.0},", phase.ops_per_sec);
        println!("    \"elapsed_secs\": {:.3},", phase.elapsed_secs);
        println!("    \"snapshot_hits\": {},", phase.snapshot_hits);
        println!("    \"snapshot_misses\": {}", phase.snapshot_misses);
        println!("  }}{comma}");
    }
    println!("  \"router4_over_direct\": {speedup:.2}");
    println!("}}");
}
