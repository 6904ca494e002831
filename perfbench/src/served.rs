//! The served phase: `skyup serve` (or `skyup coordinate` over two
//! shards) driven by a closed loop of two connections, then checked
//! against an in-process oracle and restarted on its WAL.

use crate::client::Conn;
use crate::gen::{self, Op, OpStream, Reads};
use crate::procs::{fresh_dir, Server};
use skyup_geom::PointStore;
use skyup_obs::json::{parse, Json};
use skyup_serve::proto::{parse_request, render_query_response, Request};
use skyup_serve::{execute_query, Engine, EngineConfig, Mutation, Partition};
use std::collections::{BTreeMap, HashMap};
use std::path::Path;
use std::time::{Duration, Instant};

/// Load connections (and threads) of the closed loop.
const CONNS: usize = 2;
/// The WAL policy every served workload runs with.
pub const FSYNC: &str = "interval:64";
pub const CHECKPOINT_EVERY: &str = "1024";
/// The engine's default result-cache capacity (`EngineConfig`).
pub const CACHE_CAPACITY: f64 = 65_536.0;
/// Queries re-asked of the restarted server.
const RESTART_SAMPLE: usize = 16;
/// Restarts on the final WAL; `recovery_s` is their median.
const RESTARTS: usize = 15;
const SHARDS: u32 = 2;
/// Queries sent straight to each shard after a sharded run.
const SHARD_LOCAL_QUERIES: usize = 12;

/// One closed-loop stretch with a fixed operation mix.
#[derive(Clone, Debug)]
pub struct Segment {
    pub reads: Reads,
    pub write_share: f64,
    pub seconds: f64,
    /// Distinguishes the op streams of a phase's segments.
    pub tag: u64,
}

pub struct ServedSpec<'a> {
    pub skyup: &'a Path,
    pub work: &'a Path,
    pub seed: u64,
    pub competitors: &'a [Vec<f64>],
    pub sharded: bool,
    /// The first segment is the measured loop (`qps`); later ones only
    /// add latency samples of the kinds the first lacks.
    pub segments: Vec<Segment>,
    pub setup_repeats: usize,
}

#[derive(Clone, Debug)]
pub struct Record {
    pub op: Op,
    pub line: String,
    pub resp: String,
    pub lat_ms: f64,
    /// Why this operation failed, if it did.
    pub failure: Option<String>,
    /// Acknowledged epoch (queries and mutations).
    pub epoch: Option<u64>,
    pub cid: Option<u64>,
    pub rebuilt: bool,
}

#[derive(Default)]
pub struct ServedResult {
    pub setup_s: Vec<f64>,
    pub qps: f64,
    pub query_lat_ms: Vec<f64>,
    pub mutation_lat_ms: Vec<f64>,
    /// Spawn-to-listening time of each restart on the final WAL.
    pub recovery_samples: Vec<f64>,
    pub peak_rss_mb: f64,
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
    pub records: Vec<Record>,
    /// `stats` of the server, or of every shard.
    pub stats: Vec<Json>,
    /// `(queue_ns, exec_ns)` of the query traces in the flight recorder.
    pub query_traces: Vec<(f64, f64)>,
    pub acked_mutations: u64,
    pub rebuilds: u64,
}

fn serve_args(csv: &Path, wal: &Path, shard: Option<u32>) -> Vec<String> {
    let mut a: Vec<String> = [
        "serve",
        "--competitors",
        &csv.display().to_string(),
        "--wal",
        &wal.display().to_string(),
        "--fsync",
        FSYNC,
        "--checkpoint-every",
        CHECKPOINT_EVERY,
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    if let Some(i) = shard {
        a.extend([
            "--shard-id".into(),
            i.to_string(),
            "--shards".into(),
            SHARDS.to_string(),
        ]);
    }
    a
}

/// The processes of one deployment: a single server, or two shards
/// behind a coordinator (the coordinator first in `procs`).
struct Deployment {
    front: String,
    procs: Vec<Server>,
    shard_addrs: Vec<String>,
    ready_s: f64,
}

impl Deployment {
    fn start(
        skyup: &Path,
        csv: &Path,
        wal_root: &Path,
        sharded: bool,
    ) -> Result<Deployment, String> {
        let t0 = Instant::now();
        if !sharded {
            let s = Server::start(skyup, &serve_args(csv, &wal_root.join("wal"), None))?;
            return Ok(Deployment {
                front: s.addr.clone(),
                procs: vec![s],
                shard_addrs: Vec::new(),
                ready_s: t0.elapsed().as_secs_f64(),
            });
        }
        let shards = start_shards(skyup, csv, wal_root)?;
        let shard_addrs: Vec<String> = shards.iter().map(|s| s.addr.clone()).collect();
        let mut args: Vec<String> = vec!["coordinate".into()];
        for a in &shard_addrs {
            args.extend(["--shard".into(), a.clone()]);
        }
        args.extend(["--competitors".into(), csv.display().to_string()]);
        // On error the shards drop, which stops them.
        let coord = Server::start(skyup, &args)?;
        let mut procs = vec![coord];
        procs.extend(shards);
        Ok(Deployment {
            front: procs[0].addr.clone(),
            procs,
            shard_addrs,
            ready_s: t0.elapsed().as_secs_f64(),
        })
    }

    /// Shuts the front end down first (a coordinator leaves its shards
    /// running), then the shards.
    fn shutdown(self) -> bool {
        self.procs
            .into_iter()
            .map(|p| p.shutdown(Duration::from_secs(10)))
            .fold(true, |a, b| a & b)
    }
}

/// Starts both shards concurrently; their WALs live under `wal_root`.
fn start_shards(skyup: &Path, csv: &Path, wal_root: &Path) -> Result<Vec<Server>, String> {
    let started: Vec<Result<Server, String>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..SHARDS)
            .map(|i| {
                let args = serve_args(csv, &wal_root.join(format!("wal{i}")), Some(i));
                s.spawn(move || Server::start(skyup, &args))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("shard start thread panicked"))
            .collect()
    });
    let mut ok = Vec::new();
    let mut err = None;
    for r in started {
        match r {
            Ok(s) => ok.push(s),
            Err(e) => err = Some(e),
        }
    }
    match err {
        None => Ok(ok),
        Some(e) => Err(e),
    }
}

fn admin(addr: &str, line: &str) -> Result<Json, String> {
    let resp = Conn::connect(addr)
        .and_then(|mut c| c.request(line))
        .map_err(|e| format!("{addr}: {line}: {e}"))?;
    parse(&resp).map_err(|e| format!("{addr}: bad response to {line}: {e}"))
}

/// Reads a response line: the failure, if any, and the acked epoch,
/// competitor id and rebuild flag.
fn classify(op: &Op, resp: &str) -> (Option<String>, Option<u64>, Option<u64>, bool) {
    let Ok(doc) = parse(resp) else {
        return (Some("unparseable response".into()), None, None, false);
    };
    if doc.get("ok") != Some(&Json::Bool(true)) {
        let msg = doc
            .get("error")
            .and_then(Json::as_str)
            .unwrap_or("error line");
        return (Some(format!("error: {msg}")), None, None, false);
    }
    let epoch = doc.get("epoch").and_then(Json::as_u64);
    let cid = doc.get("cid").and_then(Json::as_u64);
    let rebuilt = doc.get("rebuilt") == Some(&Json::Bool(true));
    let failure = match op {
        Op::Query(_) if doc.get("completion").and_then(Json::as_str) != Some("exact") => {
            Some("partial completion".to_string())
        }
        Op::Add(_) if cid.is_none() => Some("add ack without a cid".into()),
        Op::Remove(_) if doc.get("removed") != Some(&Json::Bool(true)) => {
            Some("remove did not remove".into())
        }
        _ if epoch.is_none() => Some("ack without an epoch".into()),
        _ => None,
    };
    (failure, epoch, cid, rebuilt)
}

/// Runs one segment's closed loop; returns its records and duration.
fn run_segment(addr: &str, seg: &Segment, seed: u64, seed_len: usize) -> (Vec<Record>, f64) {
    let t0 = Instant::now();
    let deadline = t0 + Duration::from_secs_f64(seg.seconds);
    let per_conn: Vec<Vec<Record>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CONNS)
            .map(|c| {
                let reads = seg.reads.clone();
                s.spawn(move || {
                    let mut stream =
                        OpStream::new(seed, seg.tag, c, CONNS, seed_len, reads, seg.write_share);
                    let mut recs = Vec::new();
                    let mut conn = match Conn::connect(addr) {
                        Ok(c) => c,
                        Err(e) => {
                            let op = stream.next_op();
                            recs.push(dropped(op, format!("connect: {e}")));
                            return recs;
                        }
                    };
                    while Instant::now() < deadline {
                        let op = stream.next_op();
                        let line = gen::render(&op);
                        let sent = Instant::now();
                        match conn.request(&line) {
                            Ok(resp) => {
                                let lat_ms = sent.elapsed().as_secs_f64() * 1e3;
                                let (failure, epoch, cid, rebuilt) = classify(&op, &resp);
                                if let (Op::Add(_), Some(cid), None) = (&op, cid, &failure) {
                                    stream.on_add_ack(cid);
                                }
                                recs.push(Record {
                                    op,
                                    line,
                                    resp,
                                    lat_ms,
                                    failure,
                                    epoch,
                                    cid,
                                    rebuilt,
                                });
                            }
                            Err(e) => {
                                recs.push(dropped(op, format!("dropped connection: {e}")));
                                break;
                            }
                        }
                    }
                    recs
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load thread panicked"))
            .collect()
    });
    let elapsed = t0.elapsed().as_secs_f64();
    (per_conn.into_iter().flatten().collect(), elapsed)
}

fn dropped(op: Op, why: String) -> Record {
    Record {
        line: gen::render(&op),
        op,
        resp: String::new(),
        lat_ms: 0.0,
        failure: Some(why),
        epoch: None,
        cid: None,
        rebuilt: false,
    }
}

pub fn store_of(points: &[Vec<f64>]) -> PointStore {
    let mut store = PointStore::with_capacity(gen::DIMS, points.len());
    for p in points {
        store.push(p);
    }
    store
}

/// Replays the acknowledged mutations in epoch order into an oracle
/// engine and checks every query response against the oracle's answer
/// at the response's epoch, byte for byte. Marks failing records and
/// returns the oracle at the last acked epoch with each cid's
/// coordinates.
fn check_against_oracle(
    records: &mut [Record],
    competitors: &[Vec<f64>],
    problems: &mut Vec<String>,
) -> (Engine, HashMap<u64, Vec<f64>>, u64) {
    let oracle = Engine::with_competitors(store_of(competitors), EngineConfig::default());
    let mut coords: HashMap<u64, Vec<f64>> = competitors
        .iter()
        .enumerate()
        .map(|(i, p)| (i as u64, p.clone()))
        .collect();
    let mut muts: Vec<usize> = Vec::new();
    let mut queries: BTreeMap<u64, Vec<usize>> = BTreeMap::new();
    for (i, r) in records.iter().enumerate() {
        if r.failure.is_some() {
            continue;
        }
        match r.op {
            Op::Query(_) => queries.entry(r.epoch.unwrap_or(0)).or_default().push(i),
            _ => muts.push(i),
        }
    }
    muts.sort_by_key(|&i| records[i].epoch);
    let last = muts.len() as u64;
    let fail = |r: &mut Record, why: String, problems: &mut Vec<String>| {
        if problems.len() < 8 {
            problems.push(format!("{why}: {} -> {}", r.line, r.resp));
        }
        r.failure = Some(why);
    };
    let mut next_query_epoch = queries.keys().next().copied();
    let mut e = 0u64;
    loop {
        if next_query_epoch == Some(e) {
            for &i in &queries[&e] {
                let Ok(Request::Query(req)) = parse_request(&records[i].line) else {
                    fail(
                        &mut records[i],
                        "oracle cannot parse request".into(),
                        problems,
                    );
                    continue;
                };
                let expect = match execute_query(&oracle, &req) {
                    Ok(resp) => render_query_response(&resp),
                    Err(err) => format!("oracle error: {err}"),
                };
                if expect != records[i].resp {
                    fail(
                        &mut records[i],
                        format!("differs from oracle ({expect})"),
                        problems,
                    );
                }
            }
            next_query_epoch = queries.range(e + 1..).next().map(|(k, _)| *k);
        }
        if e == last {
            break;
        }
        let i = muts[e as usize];
        let r = &mut records[i];
        let m = match &r.op {
            Op::Add(p) => Mutation::AddCompetitor(p.clone()),
            Op::Remove(cid) => Mutation::RemoveCompetitor(*cid),
            Op::Query(_) => unreachable!("queries are not in the mutation list"),
        };
        e += 1;
        match oracle.apply(m) {
            Ok(out) if r.epoch != Some(e) => {
                let why = format!(
                    "acked epoch {:?}, expected {e} (oracle {})",
                    r.epoch, out.epoch
                );
                fail(r, why, problems);
            }
            Ok(out) if out.cid != r.cid => {
                let why = format!("acked cid {:?}, oracle assigned {:?}", r.cid, out.cid);
                fail(r, why, problems);
            }
            Ok(out) => {
                if let (Op::Add(p), Some(cid)) = (&r.op, out.cid) {
                    coords.insert(cid, p.clone());
                }
            }
            Err(err) => fail(r, format!("oracle rejected mutation: {err}"), problems),
        }
    }
    if let Some((&e, list)) = queries.range(last + 1..).next() {
        for &i in list {
            fail(
                &mut records[i],
                format!("query at epoch {e} beyond last acked {last}"),
                problems,
            );
        }
    }
    (oracle, coords, last)
}

/// Runs the served phase end to end.
pub fn run(spec: &ServedSpec) -> Result<ServedResult, String> {
    let csv = spec.work.join("competitors.csv");
    std::fs::write(&csv, gen::csv(spec.competitors)).map_err(|e| format!("{e}"))?;
    let mut out = ServedResult::default();

    // Set-up: every deployment but the last is dropped, which stops it.
    let mut deployment = None;
    for i in 0..spec.setup_repeats.max(1) {
        drop(deployment.take());
        let wal_root = fresh_dir(spec.work, &format!("deploy{i}"))?;
        let d = Deployment::start(spec.skyup, &csv, &wal_root, spec.sharded)?;
        out.setup_s.push(d.ready_s);
        deployment = Some((d, wal_root));
    }
    let (deployment, wal_root) = deployment.expect("at least one set-up");

    for (i, seg) in spec.segments.iter().enumerate() {
        let (recs, elapsed) =
            run_segment(&deployment.front, seg, spec.seed, spec.competitors.len());
        if i == 0 {
            out.qps = recs.iter().filter(|r| r.failure.is_none()).count() as f64 / elapsed;
        }
        out.records.extend(recs);
    }

    // Server-side counters and traces, read before shutdown.
    let reads = (|| -> Result<(), String> {
        let addrs: Vec<&String> = if spec.sharded {
            deployment.shard_addrs.iter().collect()
        } else {
            vec![&deployment.front]
        };
        for addr in &addrs {
            out.stats.push(admin(addr, "{\"op\":\"stats\"}")?);
        }
        out.peak_rss_mb = deployment.procs.iter().map(Server::peak_rss_mb).sum();
        if spec.sharded {
            // Shards trace no scatter probes, only their own queries: a
            // few shard-local queries give their queue and execution
            // times a sample.
            for addr in &addrs {
                let reads = spec.segments[0].reads.clone();
                let mut stream = OpStream::new(spec.seed, 0x5A4D, 0, 1, 0, reads, 0.0);
                let mut conn = Conn::connect(addr).map_err(|e| format!("{addr}: {e}"))?;
                for _ in 0..SHARD_LOCAL_QUERIES {
                    let op = stream.next_op();
                    let resp = conn
                        .request(&gen::render(&op))
                        .map_err(|e| format!("{addr}: {e}"))?;
                    out.attempted += 1;
                    if let (Some(why), ..) = classify(&op, &resp) {
                        out.failed += 1;
                        out.problems
                            .push(format!("shard-local query on {addr}: {why}"));
                    }
                }
            }
        }
        for addr in &addrs {
            let traces = admin(addr, "{\"op\":\"trace\",\"n\":256}")?;
            if let Some(Json::Arr(ts)) = traces.get("traces") {
                for t in ts {
                    let class = t.get("class").and_then(Json::as_str).unwrap_or("");
                    if class.starts_with("query") {
                        let q = t.get("queue_ns").and_then(Json::as_f64).unwrap_or(0.0);
                        let x = t.get("exec_ns").and_then(Json::as_f64).unwrap_or(0.0);
                        out.query_traces.push((q, x));
                    }
                }
            }
        }
        Ok(())
    })();
    let clean = deployment.shutdown();
    reads?;
    if !clean {
        out.problems
            .push("a server did not shut down cleanly".into());
        out.failed += 1;
    }

    let mut records = std::mem::take(&mut out.records);
    let (oracle, coords, last) =
        check_against_oracle(&mut records, spec.competitors, &mut out.problems);
    if let Some(why) = records.iter().find_map(|r| r.failure.as_ref()) {
        out.problems.push(format!("first failed operation: {why}"));
    }
    for r in &records {
        out.attempted += 1;
        if r.failure.is_some() {
            out.failed += 1;
            continue;
        }
        match r.op {
            Op::Query(_) => out.query_lat_ms.push(r.lat_ms),
            _ => {
                out.mutation_lat_ms.push(r.lat_ms);
                out.acked_mutations += 1;
                out.rebuilds += u64::from(r.rebuilt);
            }
        }
    }
    out.records = records;

    // Restart on the same WAL directory.
    if spec.sharded {
        restart_shards(spec, &csv, &wal_root, &coords, &mut out)?;
    } else {
        restart_single(spec, &csv, &wal_root, &oracle, last, &mut out)?;
    }
    if !out.problems.is_empty() && out.failed == 0 {
        out.failed += 1;
    }
    Ok(out)
}

fn restart_single(
    spec: &ServedSpec,
    csv: &Path,
    wal_root: &Path,
    oracle: &Engine,
    last: u64,
    out: &mut ServedResult,
) -> Result<(), String> {
    let args = serve_args(csv, &wal_root.join("wal"), None);
    let mut ready = Vec::new();
    for _ in 1..RESTARTS {
        let server = Server::start(spec.skyup, &args)?;
        ready.push(server.ready_s);
        clean_stop(server, out);
    }
    let server = Server::start(spec.skyup, &args)?;
    ready.push(server.ready_s);
    out.recovery_samples = ready;
    let result = (|| -> Result<(), String> {
        let health = admin(&server.addr, "{\"op\":\"health\"}")?;
        out.attempted += 1;
        if health.get("epoch").and_then(Json::as_u64) != Some(last) {
            out.failed += 1;
            out.problems.push(format!(
                "recovered epoch {:?}, last acked {last}",
                health.get("epoch").and_then(Json::as_u64)
            ));
        }
        let reads = spec.segments[0].reads.clone();
        let mut stream = OpStream::new(spec.seed, 0xFEED, 0, 1, 0, reads, 0.0);
        let mut conn = Conn::connect(&server.addr).map_err(|e| e.to_string())?;
        for _ in 0..RESTART_SAMPLE {
            let line = gen::render(&stream.next_op());
            let resp = conn.request(&line).map_err(|e| e.to_string())?;
            let Ok(Request::Query(req)) = parse_request(&line) else {
                return Err("sample query does not parse".into());
            };
            let expect = execute_query(oracle, &req)
                .map(|r| render_query_response(&r))
                .map_err(|e| e.to_string())?;
            out.attempted += 1;
            if expect != resp {
                out.failed += 1;
                out.problems.push(format!(
                    "recovered answer differs: {line} -> {resp} (oracle {expect})"
                ));
            }
        }
        Ok(())
    })();
    clean_stop(server, out);
    result
}

fn clean_stop(server: Server, out: &mut ServedResult) {
    if !server.shutdown(Duration::from_secs(10)) {
        out.failed += 1;
        out.problems
            .push("a restarted server did not shut down cleanly".into());
    }
}

/// Restarts both shards on their WALs. The coordinator keeps no
/// durable state (it would reseed from `--competitors`), so the check
/// is per shard: each must have replayed exactly the mutations it owns.
fn restart_shards(
    spec: &ServedSpec,
    csv: &Path,
    wal_root: &Path,
    coords: &HashMap<u64, Vec<f64>>,
    out: &mut ServedResult,
) -> Result<(), String> {
    let partition = Partition::new(SHARDS).map_err(|e| e.to_string())?;
    let mut owned = vec![0u64; SHARDS as usize];
    for r in out.records.iter().filter(|r| r.failure.is_none()) {
        let point = match &r.op {
            Op::Add(p) => p,
            Op::Remove(cid) => match coords.get(cid) {
                Some(p) => p,
                None => continue,
            },
            Op::Query(_) => continue,
        };
        owned[partition.shard_of(point) as usize] += 1;
    }
    let mut ready = Vec::new();
    let shards = loop {
        let t0 = Instant::now();
        let shards = start_shards(spec.skyup, csv, wal_root)?;
        ready.push(t0.elapsed().as_secs_f64());
        if ready.len() == RESTARTS {
            break shards;
        }
        shards.into_iter().for_each(|s| clean_stop(s, out));
    };
    out.recovery_samples = ready;
    let mut result = Ok(());
    for (i, s) in shards.iter().enumerate() {
        match admin(&s.addr, "{\"op\":\"health\"}") {
            Ok(h) => {
                out.attempted += 1;
                let seq = h.get("wal_seq").and_then(Json::as_u64);
                if seq != Some(owned[i]) {
                    out.failed += 1;
                    out.problems.push(format!(
                        "shard {i} recovered wal_seq {seq:?}, owns {} acked mutations",
                        owned[i]
                    ));
                }
            }
            Err(e) => result = Err(e),
        }
    }
    shards.into_iter().for_each(|s| clean_stop(s, out));
    result
}
