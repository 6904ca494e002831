//! Kill-crash chaos harness: the real `skyup serve` binary, running
//! with `--wal --fsync always`, is SIGKILLed at arbitrary points —
//! right after acked mutations and in the middle of pipelined bursts —
//! then restarted with the same arguments. After every crash the
//! harness asserts the durability contract:
//!
//! * **acked ⊆ applied ⊆ sent** — every acknowledged mutation survives,
//!   and whatever survived is a prefix of the send order (one
//!   connection, so the server applied the lines in order);
//! * the recovered state is **bit-identical** to a cold in-process
//!   oracle built from the base set plus that applied prefix: the same
//!   queries produce byte-for-byte the same response lines (epochs
//!   included — the engine publishes exactly one epoch per applied
//!   mutation, so oracle and server agree on the epoch too);
//! * a torn tail never aborts recovery, and a clean shutdown leaves
//!   nothing to truncate (`torn_truncated == 0` on the next start).

use skyup_serve::proto::render_query_response;
use skyup_serve::{execute_query, CostSpec, Engine, EngineConfig, Mutation, QueryRequest};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

mod common;
use common::ChildGuard;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_skyup"))
}

fn base_rows() -> Vec<Vec<f64>> {
    let mut rng = skyup::data::Rng::seed_from_u64(0xBA5E);
    (0..12)
        .map(|_| vec![rng.range_f64(0.1, 0.9), rng.range_f64(0.1, 0.9)])
        .collect()
}

fn fixture() -> (PathBuf, PathBuf) {
    let dir = std::env::temp_dir().join("skyup-crash-recovery");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let mut csv = String::new();
    for row in base_rows() {
        csv.push_str(&format!("{},{}\n", row[0], row[1]));
    }
    let comp = dir.join("competitors.csv");
    std::fs::write(&comp, csv).unwrap();
    (comp, dir.join("wal"))
}

/// Starts the server with identical arguments every time — the durable
/// state in `wal` wins over the seed file on restart.
fn spawn_server(comp: &Path, wal: &Path) -> (ChildGuard, String) {
    let mut child = ChildGuard::new(
        bin()
            .arg("serve")
            .args(["--competitors", comp.to_str().unwrap()])
            .args(["--wal", wal.to_str().unwrap()])
            .args(["--fsync", "always", "--checkpoint-every", "7"])
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("failed to spawn skyup serve"),
    );
    let stdout = child.stdout.as_mut().expect("stdout piped");
    let mut line = String::new();
    BufReader::new(stdout)
        .read_line(&mut line)
        .expect("read the listen line");
    let addr = line
        .trim()
        .strip_prefix("listening on ")
        .unwrap_or_else(|| panic!("unexpected listen line: {line:?}"))
        .to_string();
    (child, addr)
}

fn round_trip(stream: &mut TcpStream, request: &str) -> String {
    stream
        .write_all(format!("{request}\n").as_bytes())
        .expect("send request");
    stream.flush().unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut line = String::new();
    reader.read_line(&mut line).expect("read response");
    line.trim_end().to_string()
}

fn mutation_line(m: &Mutation) -> String {
    match m {
        Mutation::AddCompetitor(coords) => {
            format!("{{\"op\":\"add\",\"point\":[{},{}]}}", coords[0], coords[1])
        }
        Mutation::RemoveCompetitor(cid) => format!("{{\"op\":\"remove\",\"cid\":{cid}}}"),
        Mutation::AddCompetitorWithCid(..) => {
            unreachable!("the driver only sends client-facing mutations")
        }
    }
}

struct Health {
    epoch: u64,
    wal_seq: u64,
    torn_truncated: u64,
    replayed: u64,
}

fn read_health(addr: &str) -> Health {
    let mut stream = TcpStream::connect(addr).expect("connect for health");
    let line = round_trip(&mut stream, "{\"op\":\"health\"}");
    let doc = skyup::obs::json::parse(&line).expect("health is JSON");
    let u = |v: &skyup::obs::json::Json, key: &str| {
        v.get(key)
            .and_then(|v| v.as_u64())
            .unwrap_or_else(|| panic!("health lacks {key}: {line}"))
    };
    let recovery = doc.get("recovery").expect("recovery object");
    Health {
        epoch: u(&doc, "epoch"),
        wal_seq: u(&doc, "wal_seq"),
        torn_truncated: u(recovery, "torn_truncated"),
        replayed: u(recovery, "replayed"),
    }
}

/// The probe grid compared line-by-line between server and oracle.
fn probe_requests() -> Vec<(String, QueryRequest)> {
    [
        (0.85, 0.85),
        (0.95, 0.6),
        (0.6, 0.95),
        (0.99, 0.99),
        (0.7, 0.7),
    ]
    .iter()
    .map(|&(x, y)| {
        (
            format!("{{\"op\":\"query\",\"products\":[[{x},{y}]],\"k\":2}}"),
            QueryRequest {
                products: vec![vec![x, y]],
                k: 2,
                cost: CostSpec::default(),
                max_products: None,
                deadline: None,
            },
        )
    })
    .collect()
}

/// Asserts the restarted server answers every probe byte-identically to
/// a cold oracle holding the base set plus `history`.
fn assert_matches_oracle(addr: &str, history: &[Mutation]) {
    let oracle = Engine::with_competitors(
        skyup::geom::PointStore::from_rows(2, base_rows()),
        EngineConfig::default(),
    );
    for m in history {
        let out = oracle.apply(m.clone()).expect("oracle mutation");
        assert!(
            out.cid.is_some() || out.removed,
            "an applied mutation must not replay as a no-op: {m:?}"
        );
    }
    let mut stream = TcpStream::connect(addr).expect("connect for probes");
    for (line, req) in probe_requests() {
        let server = round_trip(&mut stream, &line);
        let expect = render_query_response(&execute_query(&oracle, &req).expect("oracle query"));
        assert_eq!(
            server,
            expect,
            "recovered server diverges from the {}-mutation oracle",
            history.len()
        );
    }
}

/// Send-order bookkeeping across crashes.
struct Driver {
    /// Mutations the current server lineage may have applied, in send
    /// order. Truncated to the applied prefix after each recovery.
    history: Vec<Mutation>,
    /// 1-based index in `history` of the last *acknowledged* mutation:
    /// the floor recovery must reach.
    min_applied: usize,
    /// Cids acked live: the base set plus acked adds, minus acked
    /// removals. Removals are only ever sent against these.
    live: Vec<u64>,
    rng: skyup::data::Rng,
}

impl Driver {
    fn new() -> Driver {
        Driver {
            history: Vec::new(),
            min_applied: 0,
            live: (0..base_rows().len() as u64).collect(),
            rng: skyup::data::Rng::seed_from_u64(0xC4A5_4E57),
        }
    }

    /// The cid the next applied add will be assigned: base size plus
    /// adds already in the (truncated) history.
    fn next_cid(&self) -> u64 {
        let adds = self
            .history
            .iter()
            .filter(|m| matches!(m, Mutation::AddCompetitor(_)))
            .count();
        (base_rows().len() + adds) as u64
    }

    fn random_add(&mut self) -> Mutation {
        Mutation::AddCompetitor(vec![
            self.rng.range_f64(0.05, 0.95),
            self.rng.range_f64(0.05, 0.95),
        ])
    }

    /// One serially-acked mutation: send, read the ack, record it as
    /// durable (the server fsynced before answering).
    fn acked(&mut self, stream: &mut TcpStream) {
        let m = if self.live.len() > 4 && self.rng.range_usize(4) == 0 {
            let cid = self.live.remove(self.rng.range_usize(self.live.len()));
            Mutation::RemoveCompetitor(cid)
        } else {
            let cid = self.next_cid();
            self.live.push(cid);
            self.random_add()
        };
        let expect_cid = match &m {
            Mutation::AddCompetitor(_) => Some(self.next_cid()),
            Mutation::RemoveCompetitor(_) => None,
            Mutation::AddCompetitorWithCid(..) => {
                unreachable!("the driver only sends client-facing mutations")
            }
        };
        let resp = round_trip(stream, &mutation_line(&m));
        assert!(resp.contains("\"ok\":true"), "{resp}");
        if let Some(cid) = expect_cid {
            assert!(
                resp.contains(&format!("\"cid\":{cid}")),
                "cid assignment must be deterministic in send order: {resp}"
            );
        } else {
            assert!(resp.contains("\"removed\":true"), "{resp}");
        }
        self.history.push(m);
        self.min_applied = self.history.len();
    }

    /// A pipelined burst: adds written back-to-back with no acks read.
    /// Any suffix may be lost to the crash.
    fn burst(&mut self, stream: &mut TcpStream, n: usize) {
        for _ in 0..n {
            let m = self.random_add();
            stream
                .write_all(format!("{}\n", mutation_line(&m)).as_bytes())
                .expect("send burst line");
            self.history.push(m);
        }
        stream.flush().unwrap();
    }

    /// Reconciles the books after a restart: recovery reported `applied`
    /// mutations total, which must cover every ack and no more than was
    /// sent. Unacked adds that did not survive are rolled back from the
    /// live set (they were never acked, so they were never in it).
    fn reconcile(&mut self, applied: u64) {
        let applied = applied as usize;
        assert!(
            applied >= self.min_applied,
            "acked mutation lost: recovery applied {applied}, but {} were acked",
            self.min_applied
        );
        assert!(
            applied <= self.history.len(),
            "recovery applied {applied} mutations but only {} were sent",
            self.history.len()
        );
        self.history.truncate(applied);
        self.min_applied = applied;
    }
}

#[test]
fn killed_server_recovers_every_acked_mutation_bit_identically() {
    let (comp, wal) = fixture();
    let (mut child, mut addr) = spawn_server(&comp, &wal);
    let mut driver = Driver::new();

    // Three crash rounds: serial acked mutations (some interleaved
    // queries), then a pipelined burst, then SIGKILL mid-flight.
    for round in 0..3 {
        let mut stream = TcpStream::connect(&addr).expect("connect driver");
        for i in 0..10 {
            driver.acked(&mut stream);
            if i % 4 == 1 {
                let resp = round_trip(
                    &mut stream,
                    "{\"op\":\"query\",\"products\":[[0.9,0.9]],\"k\":1}",
                );
                assert!(resp.contains("\"ok\":true"), "{resp}");
            }
        }
        driver.burst(&mut stream, 4 + round * 3);
        // Give the server a moment to get into the middle of the burst,
        // then kill it dead. No shutdown handshake, no flush.
        std::thread::sleep(std::time::Duration::from_millis(5));
        child.kill().expect("SIGKILL");
        child.wait().expect("reap killed server");

        (child, addr) = spawn_server(&comp, &wal);
        let health = read_health(&addr);
        assert_eq!(
            health.epoch, health.wal_seq,
            "one epoch per applied mutation, one sequence number per epoch"
        );
        driver.reconcile(health.epoch);
        assert_matches_oracle(&addr, &driver.history);

        // The recovered server keeps serving and keeps logging: one
        // more acked mutation before the next crash round.
        let mut stream = TcpStream::connect(&addr).expect("connect post-recovery");
        driver.acked(&mut stream);
        let health = read_health(&addr);
        assert_eq!(health.epoch as usize, driver.history.len());
    }

    // Final round: a clean shutdown instead of a kill. Everything sent
    // was acked, so the next start replays a fully-covered log with
    // nothing torn — and nothing to roll back.
    let mut stream = TcpStream::connect(&addr).expect("connect final round");
    for _ in 0..5 {
        driver.acked(&mut stream);
    }
    let ack = round_trip(&mut stream, "{\"op\":\"shutdown\"}");
    assert!(ack.contains("\"ok\":true"), "{ack}");
    assert_eq!(child.wait().expect("server exit").code(), Some(0));

    (child, addr) = spawn_server(&comp, &wal);
    let health = read_health(&addr);
    assert_eq!(
        health.torn_truncated, 0,
        "a clean shutdown must leave no torn tail"
    );
    assert_eq!(health.epoch as usize, driver.history.len());
    assert!(
        health.replayed <= 7,
        "checkpoints every 7 appends must bound replay: {} replayed",
        health.replayed
    );
    assert_matches_oracle(&addr, &driver.history);

    let mut stream = TcpStream::connect(&addr).expect("connect for shutdown");
    let ack = round_trip(&mut stream, "{\"op\":\"shutdown\"}");
    assert!(ack.contains("\"ok\":true"), "{ack}");
    assert_eq!(child.wait().expect("server exit").code(), Some(0));
}
