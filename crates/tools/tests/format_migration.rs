//! On-disk formats 1 and 2 → 3. An older store is refused with a typed
//! error that names the fix and is left untouched; `odedump migrate`
//! upgrades it to content identical to what the build that wrote it
//! saw; a second migrate is a no-op; and a SIGKILL mid-migration leaves
//! a store that reopens as a clean old-format or a clean format-3
//! store.
//!
//! Each fixture and its content listing were written by the build of
//! its format; `examples/format_v1_fixture.rs` and
//! `examples/format_v2_fixture.rs` document how, and the shared `dump`
//! lists the migrated store here.

use std::path::{Path, PathBuf};
use std::process::{Command, Output, Stdio};
use std::time::{Duration, Instant};

use ode::{ChainConfig, Database, DatabaseOptions, Error};
use ode_storage::store::FORMAT_VERSION;
use ode_storage::{StorageError, Store, StoreOptions};

#[allow(dead_code)]
#[path = "../examples/format_v1_fixture.rs"]
mod fixture;

/// A checked-in older-format store and what its migration must show.
struct Fixture {
    /// The format the store was written in.
    format: u32,
    odb: &'static str,
    expected: &'static str,
    /// `odedump migrate`'s report line for it.
    report: &'static str,
}

const V1: Fixture = Fixture {
    format: 1,
    odb: concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/format_v1.odb"),
    expected: concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/fixtures/format_v1.expected"
    ),
    report: "migrated format 1 -> 3: 30 version and 3 chain records (7 segments)",
};

const V2: Fixture = Fixture {
    format: 2,
    odb: concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/format_v2.odb"),
    expected: concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/fixtures/format_v2.expected"
    ),
    report: "migrated format 2 -> 3: 0 version and 3 chain records (10 segments)",
};

const ODEDUMP: &str = env!("CARGO_BIN_EXE_odedump");
const FIX_HINT: &str = "run `odedump migrate <db>`";

fn wal_of(path: &Path) -> PathBuf {
    let mut wal = path.to_path_buf().into_os_string();
    wal.push(".wal");
    PathBuf::from(wal)
}

fn cleanup(path: &Path) {
    let _ = std::fs::remove_file(path);
    let _ = std::fs::remove_file(wal_of(path));
}

/// A private copy of the fixture (its WAL is empty, so none is copied).
fn fixture_copy(fixture: &Fixture, name: &str) -> PathBuf {
    let mut path = std::env::temp_dir();
    path.push(format!(
        "ode-format{}-{name}-{}.odb",
        fixture.format,
        std::process::id()
    ));
    cleanup(&path);
    std::fs::copy(fixture.odb, &path).expect("copy fixture");
    path
}

fn expected(fixture: &Fixture) -> String {
    std::fs::read_to_string(fixture.expected).expect("read expected listing")
}

/// The format version in a database file's header page, read from the
/// raw bytes (magic at byte 16, version at byte 20).
fn header_format(path: &Path) -> u32 {
    let bytes = std::fs::read(path).expect("read db file");
    assert_eq!(&bytes[16..20], &0x4F44_4531u32.to_le_bytes(), "magic");
    u32::from_le_bytes(bytes[20..24].try_into().unwrap())
}

fn odedump(args: &[&str]) -> Output {
    Command::new(ODEDUMP)
        .args(args)
        .output()
        .expect("run odedump")
}

fn text(bytes: &[u8]) -> String {
    String::from_utf8_lossy(bytes).into_owned()
}

fn assert_is_fixture_with_an_empty_wal(fixture: &Fixture) {
    assert_eq!(header_format(Path::new(fixture.odb)), fixture.format);
    let wal = wal_of(Path::new(fixture.odb));
    assert!(
        !wal.exists() || std::fs::metadata(&wal).unwrap().len() == 0,
        "the fixture must not depend on WAL replay"
    );
}

#[test]
fn the_fixture_is_a_format_1_store_with_an_empty_wal() {
    assert_is_fixture_with_an_empty_wal(&V1);
}

#[test]
fn the_v2_fixture_is_a_format_2_store_with_an_empty_wal() {
    assert_is_fixture_with_an_empty_wal(&V2);
}

#[test]
fn opening_a_format_1_store_fails_typed_and_leaves_it_byte_identical() {
    assert_refused_untouched(&V1);
}

#[test]
fn opening_a_format_2_store_fails_typed_and_leaves_it_byte_identical() {
    assert_refused_untouched(&V2);
}

/// Every opener refuses a copy of `fixture` with the typed error and
/// the migrate hint, and the copy stays byte-identical.
fn assert_refused_untouched(fixture: &Fixture) {
    let path = fixture_copy(fixture, "refuse");
    let before = std::fs::read(&path).unwrap();
    let old = fixture.format;

    match Store::open(&path, StoreOptions::default()) {
        Err(StorageError::FormatTooOld { found }) if found == old => {}
        Err(e) => panic!("expected FormatTooOld, got {e}"),
        Ok(_) => panic!("a format-{old} store opened"),
    }
    match Database::open(&path, DatabaseOptions::default()) {
        Err(e @ Error::Storage(StorageError::FormatTooOld { found })) if found == old => {
            assert!(e.to_string().contains(FIX_HINT), "{e}");
        }
        Err(e) => panic!("expected FormatTooOld, got {e}"),
        Ok(_) => panic!("a format-{old} database opened"),
    }

    let db = path.to_str().unwrap();
    for command in ["info", "objects", "chains", "fsck"] {
        let out = odedump(&[command, db]);
        assert!(!out.status.success(), "odedump {command} succeeded");
        let err = text(&out.stderr);
        assert!(err.contains(FIX_HINT), "odedump {command}: {err}");
    }
    let served = Command::new(env!("CARGO_BIN_EXE_ode-served"))
        .args([db, "127.0.0.1:0"])
        .stdin(Stdio::null())
        .output()
        .expect("run ode-served");
    assert!(
        !served.status.success(),
        "ode-served served a format-{old} store"
    );
    let err = text(&served.stderr);
    assert!(err.contains(FIX_HINT), "ode-served: {err}");

    assert_eq!(
        std::fs::read(&path).unwrap(),
        before,
        "refusal changed the file"
    );
    let wal = wal_of(&path);
    assert!(!wal.exists() || std::fs::metadata(&wal).unwrap().len() == 0);
    cleanup(&path);
}

#[test]
fn migrate_reproduces_the_format_1_content_and_runs_once() {
    assert_migrates_once(&V1);
}

#[test]
fn migrate_reproduces_the_format_2_content_and_runs_once() {
    assert_migrates_once(&V2);
}

/// `odedump migrate` on a copy of `fixture` upgrades it to format 3
/// with the listing its own build saw, then finds nothing to do, and
/// the upgraded store keeps working.
fn assert_migrates_once(fixture: &Fixture) {
    let path = fixture_copy(fixture, "migrate");
    let db = path.to_str().unwrap();

    let out = odedump(&["migrate", db]);
    assert!(
        out.status.success(),
        "migrate failed: {}",
        text(&out.stderr)
    );
    assert!(
        text(&out.stdout).contains(fixture.report),
        "{}",
        text(&out.stdout)
    );
    assert_eq!(header_format(&path), FORMAT_VERSION);
    assert_eq!(std::fs::metadata(wal_of(&path)).unwrap().len(), 0);
    assert_eq!(fixture::dump(&path), expected(fixture));

    // A second migrate finds nothing to do and writes nothing.
    let before = std::fs::read(&path).unwrap();
    let out = odedump(&["migrate", db]);
    assert!(out.status.success());
    assert!(text(&out.stdout).contains("already format 3"));
    assert_eq!(
        std::fs::read(&path).unwrap(),
        before,
        "second migrate wrote"
    );
    assert_eq!(std::fs::metadata(wal_of(&path)).unwrap().len(), 0);

    let info = odedump(&["info", db]);
    assert!(info.status.success());
    assert!(text(&info.stdout).starts_with("format     : 3\n"));

    // The migrated store keeps working: a chained check-in on every
    // object validates and reads back.
    let options = DatabaseOptions::default().with_chain(ChainConfig::with_interval(4));
    let database = Database::open(&path, options).expect("open migrated store");
    let mut txn = database.begin();
    for oid in txn.objects_raw(fixture::TAG).unwrap() {
        let vid = txn.newversion_raw(oid).unwrap();
        txn.put_version_raw(vid, fixture::TAG, vec![0xFF; 700])
            .unwrap();
    }
    txn.commit().unwrap();
    let mut snap = database.snapshot();
    for oid in snap.objects_raw(fixture::TAG).unwrap() {
        let (_, body) = snap.deref_raw(oid, fixture::TAG).unwrap();
        assert_eq!(body, vec![0xFF; 700]);
    }
    drop(snap);
    drop(database);
    assert!(ode_tools::fsck(&path).unwrap().is_healthy());
    cleanup(&path);
}

/// Re-exec helper: migrate the store named by the env var and commit,
/// then report and wait to be killed before any checkpoint, so the
/// upgrade exists only in the WAL. No-op without the env var.
#[test]
fn child_migrate_then_hang() {
    let Ok(db_path) = std::env::var("ODE_MIGRATE_CHILD") else {
        return;
    };
    let ack = std::env::var("ODE_MIGRATE_ACK").expect("ack path env var");
    let store = Store::open_for_upgrade(&db_path, StoreOptions::default()).expect("open");
    let report = ode_tools::migrate_store(&store).expect("migrate");
    assert_eq!(report.to_format, FORMAT_VERSION);
    assert!(report.from_format < FORMAT_VERSION);
    std::fs::write(&ack, "committed").expect("write ack");
    std::thread::sleep(Duration::from_secs(120));
}

/// A reopened store after a kill: either untouched in the fixture's
/// format (then a migrate finishes the job) or fully format 3 — and
/// either way the migrated content equals the fixture's listing.
fn assert_clean_after_kill(fixture: &Fixture, path: &Path) -> u32 {
    let found = match Store::open(path, StoreOptions::default()) {
        Ok(store) => {
            assert_eq!(store.format_version().unwrap(), FORMAT_VERSION);
            FORMAT_VERSION
        }
        Err(StorageError::FormatTooOld { found }) if found == fixture.format => {
            let report = ode_tools::migrate(path).expect("migrate after kill");
            assert_eq!(
                (report.from_format, report.to_format),
                (fixture.format, FORMAT_VERSION)
            );
            found
        }
        Err(e) => panic!(
            "store neither format {} nor {FORMAT_VERSION} after kill: {e}",
            fixture.format
        ),
    };
    assert_eq!(fixture::dump(path), expected(fixture));
    found
}

#[test]
fn sigkill_after_the_migration_commit_reopens_as_format_3() {
    for fixture in [&V1, &V2] {
        kill_after_the_migration_commit(fixture);
    }
}

fn kill_after_the_migration_commit(fixture: &Fixture) {
    let path = fixture_copy(fixture, "kill-committed");
    let ack = path.with_extension("ack");
    let _ = std::fs::remove_file(&ack);
    let mut child = Command::new(std::env::current_exe().unwrap())
        .args(["child_migrate_then_hang", "--exact", "--nocapture"])
        .env("ODE_MIGRATE_CHILD", &path)
        .env("ODE_MIGRATE_ACK", &ack)
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn child");
    let deadline = Instant::now() + Duration::from_secs(60);
    while !ack.exists() {
        if let Some(status) = child.try_wait().unwrap() {
            panic!("child exited before committing: {status}");
        }
        assert!(Instant::now() < deadline, "child never committed");
        std::thread::sleep(Duration::from_millis(5));
    }
    child.kill().expect("SIGKILL child");
    child.wait().unwrap();

    // The upgrade lives only in the WAL: the file still says the old
    // format.
    assert_eq!(header_format(&path), fixture.format);
    assert!(std::fs::metadata(wal_of(&path)).unwrap().len() > 0);
    assert_eq!(assert_clean_after_kill(fixture, &path), FORMAT_VERSION);
    let _ = std::fs::remove_file(&ack);
    cleanup(&path);
}

#[test]
fn sigkill_at_any_point_of_odedump_migrate_leaves_the_old_format_or_3() {
    for fixture in [&V1, &V2] {
        kill_odedump_migrate_anywhere(fixture);
    }
}

fn kill_odedump_migrate_anywhere(fixture: &Fixture) {
    let mut outcomes = [0u32; 4];
    for delay_us in [0u64, 500, 1_000, 2_000, 3_000, 5_000, 8_000, 13_000, 21_000] {
        let path = fixture_copy(fixture, &format!("kill-{delay_us}"));
        let mut child = Command::new(ODEDUMP)
            .args(["migrate", path.to_str().unwrap()])
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn odedump");
        std::thread::sleep(Duration::from_micros(delay_us));
        let _ = child.kill();
        child.wait().unwrap();
        outcomes[assert_clean_after_kill(fixture, &path) as usize] += 1;
        cleanup(&path);
    }
    eprintln!(
        "kills that left format {}: {}, format 3: {}",
        fixture.format, outcomes[fixture.format as usize], outcomes[3]
    );
}
