//! Router scaling: the router serves every connected client at once
//! on a **fixed thread count** — its event loop, its health prober and
//! one dialer per shard — however many sessions are open, and a client
//! that stops reading does not hold up anyone else.
//!
//! Run alone in its binary: one test counts the process's threads, so
//! sibling tests would pollute it. The tests also serialize on a lock
//! for the same reason.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::{mpsc, Arc, Condvar, Mutex, MutexGuard};
use std::thread;
use std::time::{Duration, Instant};

use ode::{Database, DatabaseOptions, TypeTag};
use ode_net::protocol::{read_frame_into, write_frame, Response, MAGIC};
use ode_net::{
    ClientConfig, OdeClient, OdeRouter, OdeServer, Opcode, RemoteError, Request, RouterConfig,
    ServerConfig,
};

struct TempPath(PathBuf);

impl TempPath {
    fn new() -> TempPath {
        TempPath(ode::testutil::fresh_path())
    }
}

impl Drop for TempPath {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
        let mut wal = self.0.clone().into_os_string();
        wal.push(".wal");
        let _ = std::fs::remove_file(PathBuf::from(wal));
    }
}

/// Shard servers behind one router.
struct Tier {
    router: OdeRouter,
    servers: Vec<OdeServer>,
    _paths: Vec<TempPath>,
}

impl Tier {
    fn start(shards: usize) -> Tier {
        let paths: Vec<TempPath> = (0..shards).map(|_| TempPath::new()).collect();
        let servers: Vec<OdeServer> = paths
            .iter()
            .map(|p| {
                let db = Arc::new(Database::create(&p.0, DatabaseOptions::no_sync()).expect("db"));
                let config = ServerConfig {
                    workers: 2,
                    ..ServerConfig::default()
                };
                OdeServer::bind(db, "127.0.0.1:0", config).expect("server")
            })
            .collect();
        let backends = servers.iter().map(OdeServer::local_addr).collect();
        let router =
            OdeRouter::bind("127.0.0.1:0", backends, RouterConfig::default()).expect("router");
        Tier {
            router,
            servers,
            _paths: paths,
        }
    }

    fn addr(&self) -> SocketAddr {
        self.router.local_addr()
    }

    fn shutdown(self) {
        self.router.shutdown();
        for server in self.servers {
            server.shutdown();
        }
    }
}

/// Holds clients connected until dropped — including by a failing
/// assertion, so a failed run never leaves sessions parked.
struct Release(Arc<(Mutex<bool>, Condvar)>);

impl Release {
    fn new() -> Release {
        Release(Arc::new((Mutex::new(false), Condvar::new())))
    }

    fn wait(gate: &(Mutex<bool>, Condvar)) {
        let mut open = gate.0.lock().unwrap();
        while !*open {
            open = gate.1.wait(open).unwrap();
        }
    }
}

impl Drop for Release {
    fn drop(&mut self) {
        *self.0 .0.lock().unwrap() = true;
        self.0 .1.notify_all();
    }
}

/// The tests count threads; never run them side by side.
fn serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// This process's live thread count, from `/proc/self/status`.
fn thread_count() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status");
    status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .expect("Threads: line")
        .trim()
        .parse()
        .expect("thread count")
}

/// A raw handshaken router session that sends nothing until poked.
struct IdleConn(TcpStream);

impl IdleConn {
    fn open(addr: SocketAddr) -> IdleConn {
        let mut stream = TcpStream::connect(addr).expect("connect idle");
        // A ping is two small writes; without this, Nagle holds the
        // second until the router's delayed ACK.
        stream.set_nodelay(true).expect("nodelay");
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .expect("timeout");
        stream.write_all(&MAGIC).expect("magic");
        let mut echo = [0u8; 4];
        stream.read_exact(&mut echo).expect("handshake echo");
        assert_eq!(echo, MAGIC);
        IdleConn(stream)
    }

    /// One raw Ping round trip, proving the session is still served.
    fn ping(&mut self, seq: u64) {
        write_frame(&mut self.0, &Request::Ping.encode(seq)).expect("ping frame");
        let mut response = Vec::new();
        assert!(
            read_frame_into(&mut self.0, &mut response).expect("pong frame"),
            "idle session was closed by the router"
        );
        let (got_seq, resp) = Response::decode(&response).expect("pong");
        assert_eq!(got_seq, seq);
        assert!(
            matches!(resp, Response::Pong),
            "expected Pong, got {resp:?}"
        );
    }
}

#[test]
fn sixty_four_clients_are_served_at_once() {
    let _serial = serial();
    let tier = Tier::start(2);
    let addr = tier.addr();

    const CLIENTS: usize = 64;
    let tag = TypeTag(0x5CA1E);
    let (done_tx, done_rx) = mpsc::channel::<Result<(), String>>();
    // Every client keeps its session open until all have been served,
    // so all 64 are connected at the same time.
    let release = Release::new();
    let clients: Vec<_> = (0..CLIENTS)
        .map(|who| {
            let done = done_tx.clone();
            let gate = Arc::clone(&release.0);
            thread::spawn(move || {
                let served = (|| {
                    let mut c = OdeClient::connect(addr, ClientConfig::default())?;
                    let body = format!("client-{who}").into_bytes();
                    let (oid, vid) = c.pnew_raw(tag, body.clone())?;
                    let (got, bytes) = c.deref_raw(oid, tag)?;
                    assert_eq!((got, bytes), (vid, body), "client {who}: deref");
                    Ok::<_, ode_net::NetError>(c)
                })();
                let session = served.map_err(|e| format!("client {who}: {e}"));
                let _ = done.send(session.as_ref().map(|_| ()).map_err(Clone::clone));
                Release::wait(&gate);
                drop(session);
            })
        })
        .collect();

    let deadline = Instant::now() + Duration::from_secs(20);
    for served in 0..CLIENTS {
        let left = deadline.saturating_duration_since(Instant::now());
        match done_rx.recv_timeout(left) {
            Ok(Ok(())) => {}
            Ok(Err(e)) => panic!("{e}"),
            Err(_) => panic!("only {served} of {CLIENTS} concurrent clients were served in time"),
        }
    }
    drop(release);
    for c in clients {
        c.join().expect("client thread");
    }
    assert_eq!(tier.router.stats().client_connections, CLIENTS as u64);
    tier.shutdown();
}

#[test]
fn a_thousand_idle_sessions_cost_the_router_no_threads() {
    let _serial = serial();
    // 1000 sessions need 2000 fds in this process (client and router
    // end of each), above the common default of 1024.
    polling::raise_nofile_limit().expect("raise RLIMIT_NOFILE");
    let tier = Tier::start(2);
    let addr = tier.addr();

    let baseline = thread_count();
    const IDLE: usize = 1000;
    let mut idles: Vec<IdleConn> = (0..IDLE).map(|_| IdleConn::open(addr)).collect();
    assert_eq!(
        thread_count(),
        baseline,
        "idle router sessions must not cost threads"
    );

    // Eight active clients pipeline batches across both shards through
    // the same loop the idle thousand are parked on.
    const ACTIVE: usize = 8;
    const BATCHES: usize = 20;
    const BATCH: usize = 32;
    let tag = TypeTag(0xBEEF);
    let active: Vec<_> = (0..ACTIVE)
        .map(|who| {
            thread::spawn(move || {
                let mut c = OdeClient::connect(addr, ClientConfig::default()).expect("active");
                let oids: Vec<_> = (0..2)
                    .map(|i| {
                        let body = format!("active-{who}-{i}").into_bytes();
                        c.pnew_raw(tag, body).expect("pnew").0
                    })
                    .collect();
                for _ in 0..BATCHES {
                    let mut pipe = c.pipeline();
                    for i in 0..BATCH {
                        let oid = oids[i % oids.len()];
                        pipe.push(&Request::Deref { oid, tag }).expect("push");
                    }
                    for r in pipe.run().expect("batch") {
                        assert!(matches!(r, Response::Body { .. }), "got {r:?}");
                    }
                }
            })
        })
        .collect();
    for w in active {
        w.join().expect("active client");
    }
    let derefs: u64 = tier
        .servers
        .iter()
        .map(|s| s.stats().requests_for(Opcode::Deref))
        .sum();
    assert_eq!(
        derefs,
        (ACTIVE * BATCHES * BATCH) as u64,
        "every pipelined read must have reached a shard"
    );
    assert_eq!(
        thread_count(),
        baseline,
        "the active burst must not leave threads behind"
    );

    // Every idle session is still live.
    for (i, idle) in idles.iter_mut().enumerate() {
        idle.ping(i as u64);
    }
    assert_eq!(
        tier.router.stats().client_connections,
        (IDLE + ACTIVE) as u64
    );
    drop(idles);
    tier.shutdown();
}

#[test]
fn a_client_that_stops_reading_is_answered_exactly_once_later() {
    let _serial = serial();
    let tier = Tier::start(1);
    let tag = TypeTag(0xB16);
    let mut other = OdeClient::connect(tier.addr(), ClientConfig::default()).expect("other");
    let (oid, _) = other.pnew_raw(tag, vec![7; 64 << 10]).expect("pnew");

    // 2000 pipelined reads owe 128 MiB of responses; the client sends
    // them all and reads nothing.
    const READS: u64 = 2000;
    let mut stalled = IdleConn::open(tier.addr());
    for seq in 0..READS {
        write_frame(&mut stalled.0, &Request::Deref { oid, tag }.encode(seq)).expect("send");
    }
    // The router stops reading its backend connection once the client
    // is a fixed backlog behind, so the shard's slow-reader cap
    // (64 MiB) gives way and evicts that connection.
    let deadline = Instant::now() + Duration::from_secs(30);
    while tier.servers[0].stats().slow_client_evictions == 0 {
        assert!(Instant::now() < deadline, "the shard never evicted");
        thread::sleep(Duration::from_millis(10));
    }
    // Other sessions are served meanwhile.
    other.ping().expect("another session is still served");

    // Once the client reads, every request is answered exactly once:
    // a body, or `Unavailable` for what the evicted connection lost.
    let mut answered = vec![false; READS as usize];
    let mut response = Vec::new();
    for _ in 0..READS {
        assert!(read_frame_into(&mut stalled.0, &mut response).expect("response frame"));
        let (seq, resp) = Response::decode(&response).expect("response");
        assert!(
            matches!(
                resp,
                Response::Body { .. } | Response::Err(RemoteError::Unavailable(_))
            ),
            "seq {seq}: {resp:?}"
        );
        assert!(!answered[seq as usize], "seq {seq} answered twice");
        answered[seq as usize] = true;
    }
    drop(stalled);
    tier.shutdown();
}
