//! Multi-shard smoke: two real `skyup serve --shard-id` processes and a
//! real `skyup coordinate` process in front of them, driven over TCP
//! with mixed mutations and queries. Every gathered answer must be
//! byte-for-byte what a cold in-process oracle holding the full
//! competitor set produces at the same epoch, the topology must
//! describe itself over `health`, shards must refuse direct mutations,
//! and the scatter/gather counter invariants must hold on `stats`.

use skyup_serve::proto::render_query_response;
use skyup_serve::{execute_query, CostSpec, Engine, EngineConfig, Mutation, QueryRequest};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_skyup"))
}

fn base_rows() -> Vec<Vec<f64>> {
    let mut rng = skyup::data::Rng::seed_from_u64(0x54a2d);
    (0..24)
        .map(|_| vec![rng.range_f64(0.1, 0.9), rng.range_f64(0.1, 0.9)])
        .collect()
}

fn fixture() -> PathBuf {
    let dir = std::env::temp_dir().join("skyup-shard-smoke");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let mut csv = String::new();
    for row in base_rows() {
        csv.push_str(&format!("{},{}\n", row[0], row[1]));
    }
    let comp = dir.join("competitors.csv");
    std::fs::write(&comp, csv).unwrap();
    comp
}

/// Spawns one `skyup` server subcommand and reads its listen line.
fn spawn_listening(mut cmd: Command) -> (Child, String) {
    let mut child = cmd
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("failed to spawn skyup");
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

fn spawn_shard(comp: &Path, id: u32, shards: u32) -> (Child, String) {
    let mut cmd = bin();
    cmd.arg("serve")
        .args(["--competitors", comp.to_str().unwrap()])
        .args(["--shard-id", &id.to_string()])
        .args(["--shards", &shards.to_string()]);
    spawn_listening(cmd)
}

fn spawn_coordinator(comp: &Path, shard_addrs: &[String]) -> (Child, String) {
    let mut cmd = bin();
    cmd.arg("coordinate")
        .args(["--competitors", comp.to_str().unwrap()]);
    for addr in shard_addrs {
        cmd.args(["--shard", addr]);
    }
    spawn_listening(cmd)
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

fn query_line(products: &[Vec<f64>], k: usize) -> String {
    let prods: Vec<String> = products
        .iter()
        .map(|p| format!("[{},{}]", p[0], p[1]))
        .collect();
    format!(
        "{{\"op\":\"query\",\"products\":[{}],\"k\":{k},\"cost\":\"reciprocal:0.001\"}}",
        prods.join(",")
    )
}

fn get_u64(doc: &skyup::obs::json::Json, key: &str) -> u64 {
    doc.get(key)
        .and_then(|v| v.as_u64())
        .unwrap_or_else(|| panic!("response lacks {key}"))
}

#[test]
fn two_shards_and_a_coordinator_match_the_single_engine_oracle() {
    let comp = fixture();
    let (mut shard0, addr0) = spawn_shard(&comp, 0, 2);
    let (mut shard1, addr1) = spawn_shard(&comp, 1, 2);
    let (mut coord, coord_addr) = spawn_coordinator(&comp, &[addr0.clone(), addr1.clone()]);

    // The oracle: a single cold engine over the same seed rows.
    let mut store = skyup::geom::PointStore::new(2);
    for row in base_rows() {
        store.push(&row);
    }
    let oracle = Engine::with_competitors(store, EngineConfig::default());

    let mut conn = TcpStream::connect(&coord_addr).expect("connect to coordinator");
    let mut rng = skyup::data::Rng::seed_from_u64(0x0b5e55);
    let mut live: Vec<u64> = (0..24).collect();
    let mut queries = 0u64;
    for _ in 0..60 {
        match rng.range_usize(4) {
            0 => {
                let p = vec![rng.range_f64(0.1, 0.9), rng.range_f64(0.1, 0.9)];
                let line = round_trip(
                    &mut conn,
                    &format!("{{\"op\":\"add\",\"point\":[{},{}]}}", p[0], p[1]),
                );
                let want = oracle.apply(Mutation::AddCompetitor(p)).unwrap();
                let doc = skyup::obs::json::parse(&line).expect("add ack is JSON");
                assert_eq!(get_u64(&doc, "epoch"), want.epoch, "add epoch: {line}");
                assert_eq!(get_u64(&doc, "cid"), want.cid.unwrap(), "add cid: {line}");
                live.push(want.cid.unwrap());
            }
            1 if !live.is_empty() => {
                let cid = live.swap_remove(rng.range_usize(live.len()));
                let line = round_trip(&mut conn, &format!("{{\"op\":\"remove\",\"cid\":{cid}}}"));
                let want = oracle.apply(Mutation::RemoveCompetitor(cid)).unwrap();
                let doc = skyup::obs::json::parse(&line).expect("remove ack is JSON");
                assert_eq!(get_u64(&doc, "epoch"), want.epoch, "remove epoch: {line}");
                assert_eq!(
                    doc.get("removed"),
                    Some(&skyup::obs::json::Json::Bool(want.removed)),
                    "removed flag: {line}"
                );
            }
            _ => {
                let n = 1 + rng.range_usize(2);
                let products: Vec<Vec<f64>> = (0..n)
                    .map(|_| vec![rng.range_f64(0.2, 1.1), rng.range_f64(0.2, 1.1)])
                    .collect();
                let k = 1 + rng.range_usize(3);
                let got = round_trip(&mut conn, &query_line(&products, k));
                let req = QueryRequest {
                    products,
                    k,
                    cost: CostSpec::Reciprocal(1e-3),
                    max_products: None,
                    deadline: None,
                };
                let want = execute_query(&oracle, &req).unwrap();
                assert_eq!(got, render_query_response(&want), "gathered response");
                queries += 1;
            }
        }
    }

    // Deadlined queries over real shard links, pipelined so the
    // coordinator probes again right after each shard reply; that keeps
    // its shard connections in delayed-ACK mode, where a shard's reply
    // newline stalls. A 5 ms deadline is far shorter than that stall,
    // and healthy shards must still answer: never the degraded
    // `overloaded` partial, and byte-identical to the oracle whenever
    // the shards finished in time.
    let batch: Vec<Vec<Vec<f64>>> = (0..6)
        .map(|_| vec![vec![rng.range_f64(0.2, 1.1), rng.range_f64(0.2, 1.1)]])
        .collect();
    let mut pipelined = String::new();
    for products in &batch {
        let line = query_line(products, 1);
        let line = line.strip_suffix('}').unwrap();
        pipelined.push_str(&format!("{line},\"deadline_ms\":5}}\n"));
    }
    conn.write_all(pipelined.as_bytes())
        .expect("send deadlined queries");
    let mut reader = BufReader::new(conn.try_clone().unwrap());
    for products in batch {
        let mut got = String::new();
        reader.read_line(&mut got).expect("read deadlined response");
        let got = got.trim_end();
        assert!(
            !got.contains("overloaded"),
            "healthy shards degraded: {got}"
        );
        if !got.contains("\"partial\"") {
            let req = QueryRequest {
                products,
                k: 1,
                cost: CostSpec::Reciprocal(1e-3),
                max_products: None,
                deadline: None,
            };
            let want = execute_query(&oracle, &req).unwrap();
            assert_eq!(got, render_query_response(&want), "deadlined response");
        }
        queries += 1;
    }
    drop(reader);

    // Topology self-description.
    let health = round_trip(&mut conn, "{\"op\":\"health\"}");
    let doc = skyup::obs::json::parse(&health).expect("health is JSON");
    assert_eq!(
        doc.get("role").and_then(|v| v.as_str()),
        Some("coordinator"),
        "{health}"
    );
    assert_eq!(get_u64(&doc, "shards"), 2, "{health}");
    let status = match doc.get("shard_status") {
        Some(skyup::obs::json::Json::Arr(items)) => items.clone(),
        other => panic!("shard_status missing: {other:?}"),
    };
    assert_eq!(status.len(), 2);
    for entry in &status {
        assert_eq!(
            entry.get("reachable"),
            Some(&skyup::obs::json::Json::Bool(true)),
            "{health}"
        );
    }

    let mut shard_conn = TcpStream::connect(&addr0).expect("connect to shard 0");
    let shard_health = round_trip(&mut shard_conn, "{\"op\":\"health\"}");
    let doc = skyup::obs::json::parse(&shard_health).expect("shard health is JSON");
    assert_eq!(
        doc.get("role").and_then(|v| v.as_str()),
        Some("shard"),
        "{shard_health}"
    );
    assert_eq!(get_u64(&doc, "shard_id"), 0, "{shard_health}");

    // Shards refuse mutations that bypass the two-phase publish.
    let refused = round_trip(&mut shard_conn, "{\"op\":\"add\",\"point\":[0.5,0.5]}");
    assert!(
        refused.contains("coordinator"),
        "direct shard mutation must be refused: {refused}"
    );

    // Counter invariants on the coordinator's stats line.
    let stats = round_trip(&mut conn, "{\"op\":\"stats\"}");
    let doc = skyup::obs::json::parse(&stats).expect("stats is JSON");
    let counters = doc.get("counters").expect("counters object").clone();
    let flips = get_u64(&counters, "epoch_flips");
    assert_eq!(
        get_u64(&counters, "stage_acks"),
        flips * 2,
        "two stage acks per publish: {stats}"
    );
    assert_eq!(
        get_u64(&counters, "scatter_probes"),
        queries * 2,
        "two probes per gathered query: {stats}"
    );
    assert!(
        get_u64(&counters, "gather_points") >= get_u64(&counters, "merge_dropped"),
        "{stats}"
    );
    assert_eq!(get_u64(&doc, "epoch"), flips, "every publish flipped once");

    // The live metrics verb attributes each shard's round trips by verb.
    let metrics = round_trip(&mut conn, "{\"op\":\"metrics\"}");
    let doc = skyup::obs::json::parse(&metrics).expect("metrics is JSON");
    let Some(skyup::obs::json::Json::Arr(shards)) = doc.get("shards") else {
        panic!("metrics lacks per-shard latencies: {metrics}");
    };
    assert_eq!(shards.len(), 2, "{metrics}");
    for shard in shards {
        for (verb, want) in [
            ("probe_latency_ns", queries),
            ("stage_latency_ns", flips),
            ("flip_latency_ns", flips),
        ] {
            let hist = shard.get(verb).and_then(|h| h.get("cumulative"));
            let hist = hist.unwrap_or_else(|| panic!("{verb} missing: {metrics}"));
            assert_eq!(get_u64(hist, "count"), want, "{verb}: {metrics}");
            // The coordinator acknowledges each reply at once, so a
            // shard's two-write reply framing never waits out a delayed
            // ACK (40–44 ms on Linux).
            if cfg!(target_os = "linux") {
                let p50 = get_u64(hist, "p50");
                assert!(
                    p50 < 40_000_000,
                    "{verb} p50 {p50} ns waits for a delayed ACK: {metrics}"
                );
            }
        }
    }

    // Clean shutdown: coordinator first, then the shards.
    let bye = round_trip(&mut conn, "{\"op\":\"shutdown\"}");
    assert!(bye.contains("ok"), "{bye}");
    assert!(coord.wait().expect("coordinator exit").success());
    for (child, addr) in [(&mut shard0, &addr0), (&mut shard1, &addr1)] {
        let mut c = TcpStream::connect(addr).expect("connect for shutdown");
        round_trip(&mut c, "{\"op\":\"shutdown\"}");
        assert!(child.wait().expect("shard exit").success());
    }
}
