//! `perfbench --skyup <bin> --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints, with `--trace 1`, the per-layer table first; then one `meta`
//! line (host fingerprint, seed, sample counts, flush policy); and as
//! the last line the result object with the end-to-end metrics
//! (`--trace 0`) or the per-layer metrics (`--trace 1`).

use perfbench::gen::{self, hot_reads, Reads, Rng, Shape};
use perfbench::offline::{self, Algo, OfflineResult, OfflineSpec};
use perfbench::procs::fresh_dir;
use perfbench::served::{self, Segment, ServedResult, ServedSpec, CACHE_CAPACITY, FSYNC};
use perfbench::stats::{beyond, mean, median, quantile, ratio};
use perfbench::trace::{replay_coordinator, replay_engine, replay_ops, replay_rebuild, Tracer};
use skyup_obs::json::Json;
use std::path::{Path, PathBuf};

const SETUP_REPEATS: usize = 9;
/// Operations per segment in the traced replay.
const REPLAY_OPS: usize = 300;

struct Args {
    skyup: PathBuf,
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut skyup = None;
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut i = 0;
    while i < argv.len() {
        let v = argv
            .get(i + 1)
            .ok_or(format!("{} needs a value", argv[i]))?;
        match argv[i].as_str() {
            "--skyup" => skyup = Some(PathBuf::from(v)),
            "--workload" => workload = Some(v.clone()),
            "--seed" => seed = v.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = v.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => trace = v == "1",
            other => return Err(format!("unknown argument {other}")),
        }
        i += 2;
    }
    Ok(Args {
        skyup: skyup.ok_or("--skyup missing")?,
        workload: workload.ok_or("--workload missing")?,
        seed,
        seconds,
        trace,
    })
}

/// What one workload runs: a served phase and, for `offline_seconds`,
/// the offline loop.
struct Plan {
    competitors: Vec<Vec<f64>>,
    sharded: bool,
    segments: Vec<Segment>,
    offline_seconds: f64,
}

fn plan(a: &Args) -> Result<Plan, String> {
    let mut rng = Rng::new(a.seed, 1);
    let seg = |reads: Reads, write_share: f64, seconds: f64, tag: u64| Segment {
        reads,
        write_share,
        seconds,
        tag,
    };
    // Untraced runs give the end-to-end metrics, all of which come from
    // the served loop. Traced runs also need the offline CLI (the
    // per-layer table covers its layers) and split `--seconds` between
    // the two. `offline_topk` always runs both: its offline loop is the
    // paper's query, checked on every run, and its served stretch gives
    // the served metrics over the paper-sized competitor set.
    let r = a.seconds;
    let served = if a.trace { 0.6 * r } else { r };
    Ok(match a.workload.as_str() {
        "serve_cold" => Plan {
            competitors: gen::anti_correlated(&mut rng, 4_000),
            sharded: false,
            segments: vec![
                seg(Reads::Cold, 0.0, 0.9 * served, 0),
                seg(Reads::Cold, 1.0, 0.1 * served, 1),
            ],
            offline_seconds: r - served,
        },
        "serve_mixed" | "sharded_mixed" => Plan {
            competitors: gen::anti_correlated(&mut rng, 2_000),
            sharded: a.workload == "sharded_mixed",
            segments: vec![seg(hot_reads(a.seed), 0.1, served, 0)],
            offline_seconds: r - served,
        },
        "offline_topk" => Plan {
            competitors: gen::anti_correlated(&mut rng, 20_000),
            sharded: false,
            segments: vec![seg(hot_reads(a.seed), 0.25, 0.5 * r, 0)],
            offline_seconds: 0.5 * r,
        },
        other => return Err(format!("unknown workload {other}")),
    })
}

fn metric(name: &str, value: f64, unit: &str) -> (String, Json) {
    let v = if value.is_finite() { value } else { 0.0 };
    (
        name.to_string(),
        Json::Obj(vec![
            ("value".to_string(), Json::Num(v)),
            ("unit".to_string(), Json::Str(unit.to_string())),
        ]),
    )
}

fn counter(stats: &[Json], name: &str) -> f64 {
    stats
        .iter()
        .filter_map(|s| s.get("counters")?.get(name)?.as_f64())
        .sum()
}

fn field(stats: &[Json], name: &str) -> f64 {
    stats.iter().filter_map(|s| s.get(name)?.as_f64()).sum()
}

fn end_to_end(workload: &str, s: &ServedResult, o: &OfflineResult) -> Vec<(String, Json)> {
    let rss = if workload == "offline_topk" {
        o.peak_rss_mb
    } else {
        s.peak_rss_mb
    };
    vec![
        metric("setup_s", median(&s.setup_s), "s"),
        metric("qps", s.qps, "ops/s"),
        metric("query_p50_ms", median(&s.query_lat_ms), "ms"),
        metric("query_p99_ms", quantile(&s.query_lat_ms, 0.99), "ms"),
        metric("mutation_p50_ms", median(&s.mutation_lat_ms), "ms"),
        metric("mutation_p90_ms", quantile(&s.mutation_lat_ms, 0.9), "ms"),
        metric("peak_rss_mb", rss, "MiB"),
    ]
}

/// A phase time (ms) or counter from each `--stats=json` document of
/// the given shape and algorithm (`None` = any).
fn cli_stat(
    o: &OfflineResult,
    shape: Option<Shape>,
    algo: Option<Algo>,
    f: impl Fn(&Json) -> Option<f64>,
) -> Vec<f64> {
    o.profiles
        .iter()
        .filter(|p| shape.is_none_or(|s| s == p.shape) && algo.is_none_or(|a| a == p.algo))
        .filter_map(|p| f(&p.stats))
        .collect()
}

fn phase_ms(doc: &Json, phase: &str) -> Option<f64> {
    Some(doc.get("phases")?.get(phase)?.get("nanos")?.as_f64()? / 1e6)
}

fn cli_counter(doc: &Json, name: &str) -> Option<f64> {
    doc.get("counters")?.get(name)?.as_f64()
}

struct Traced {
    engine_spans: Tracer,
    coord_spans: Tracer,
    metrics: Vec<(String, Json)>,
    problems: Vec<String>,
}

fn traced(
    a: &Args,
    p: &Plan,
    work: &Path,
    s: &ServedResult,
    o: &OfflineResult,
) -> Result<Traced, String> {
    let ops = replay_ops(a.seed, &p.segments, p.competitors.len(), REPLAY_OPS);

    // A warm-up replay, then untraced and traced replays alternating:
    // the overhead ratio compares their mean wall times.
    let (mut plain, mut spanned) = (Vec::new(), Vec::new());
    let mut engine_spans = Tracer::new(true);
    let mut er = None;
    for (i, on) in [false, false, true, false, true].into_iter().enumerate() {
        let dir = fresh_dir(work, &format!("replay{i}"))?;
        let mut tr = Tracer::new(on);
        let r = replay_engine(&mut tr, &p.competitors, &ops, &dir)?;
        match (i, on) {
            (0, _) => {}
            (_, false) => plain.push(r.wall_s),
            (_, true) => {
                spanned.push(r.wall_s);
                engine_spans = tr;
                er = Some(r);
            }
        }
    }
    let er = er.expect("the traced replay ran");
    let mut coord_spans = Tracer::new(true);
    let cr = replay_coordinator(&mut coord_spans, &p.competitors, &ops)?;

    let mut problems = Vec::new();
    let (mut bad, unattributed, total) = engine_spans.conservation();
    let (bad2, un2, tot2) = coord_spans.conservation();
    bad.extend(bad2);
    if !bad.is_empty() {
        problems.push(format!(
            "conservation violated on {} spans: {}",
            bad.len(),
            bad[0]
        ));
    }

    let us = |tr: &Tracer, name: &str| median(&tr.durations_us(name));
    let exec_us = if p.sharded {
        us(&coord_spans, "coordinator.query")
    } else {
        us(&engine_spans, "engine.execute_query")
    };
    let queries = s.query_lat_ms.len() as f64;
    let shed = counter(&s.stats, "requests_shed");
    let cached = field(&s.stats, "cached");
    let hits = counter(&s.stats, "cache_hit");
    let misses = counter(&s.stats, "cache_miss");
    let muts = s.acked_mutations as f64;
    let apply = engine_spans.durations_us("engine.apply");
    let mut rebuild_spans = Tracer::new(true);
    replay_rebuild(&mut rebuild_spans, &p.competitors)?;
    let rebuild = rebuild_spans.durations_us("engine.rebuild");
    let join_all =
        |f: &dyn Fn(&Json) -> Option<f64>| median(&cli_stat(o, None, Some(Algo::Join), f));
    let probe_overlap = |f: &dyn Fn(&Json) -> Option<f64>| {
        median(&cli_stat(o, Some(Shape::Overlap), Some(Algo::Probe), f))
    };
    // The join runs on one thread, so its wall time minus its phases is
    // the unattributed rest: process start, CSV load, output.
    let load_ms: Vec<f64> = o
        .profiles
        .iter()
        .filter(|p| p.algo == Algo::Join)
        .filter_map(|p| Some(p.wall_ms - p.stats.get("total_phase_nanos")?.as_f64()? / 1e6))
        .collect();
    let queue: Vec<f64> = s.query_traces.iter().map(|t| t.0 / 1e3).collect();
    let exec: Vec<f64> = s.query_traces.iter().map(|t| t.1 / 1e3).collect();
    let k = offline::K as f64;

    let metrics = vec![
        // End-to-end timings too noisy on a shared host to bound.
        metric("recovery_s", median(&s.recovery_samples), "s"),
        metric(
            "paper_join_ms",
            median(&o.walls(Shape::Paper, Algo::Join)),
            "ms",
        ),
        metric(
            "paper_probe_ms",
            median(&o.walls(Shape::Paper, Algo::Probe)),
            "ms",
        ),
        metric(
            "overlap_join_ms",
            median(&o.walls(Shape::Overlap, Algo::Join)),
            "ms",
        ),
        metric(
            "overlap_probe_ms",
            median(&o.walls(Shape::Overlap, Algo::Probe)),
            "ms",
        ),
        metric("net.wire_ms", median(&s.query_lat_ms) - exec_us / 1e3, "ms"),
        metric("proto.parse_us", us(&engine_spans, "proto.parse"), "us"),
        metric("proto.render_us", us(&engine_spans, "proto.render"), "us"),
        metric("proto.resp_bytes", mean(&er.resp_bytes), "bytes"),
        metric("server.queue_us", median(&queue), "us"),
        metric("server.exec_us", median(&exec), "us"),
        metric("server.shed_ratio", ratio(shed, queries), "ratio"),
        metric("cache.hit_ratio", ratio(hits, hits + misses), "ratio"),
        metric(
            "cache.evictions_per_mutation",
            ratio(counter(&s.stats, "cache_evictions"), muts),
            "count",
        ),
        metric(
            "cache.fill_ratio",
            cached / (CACHE_CAPACITY * s.stats.len().max(1) as f64),
            "ratio",
        ),
        metric(
            "engine.execute_query_us",
            us(&engine_spans, "engine.execute_query"),
            "us",
        ),
        metric(
            "engine.answer_hit_us",
            us(&engine_spans, "engine.answer_hit"),
            "us",
        ),
        metric(
            "core.dominators_us",
            us(&engine_spans, "core.dominators"),
            "us",
        ),
        metric(
            "core.dominators_per_product",
            mean(&er.dominators_per_product),
            "count",
        ),
        metric(
            "geom.kernel_skip_ratio",
            ratio(
                er.kernel_skipped as f64,
                (er.kernel_scans + er.kernel_skipped) as f64,
            ),
            "ratio",
        ),
        metric("core.upgrade_us", us(&engine_spans, "core.upgrade"), "us"),
        metric("snapshot.skyline_len", er.skyline_len as f64, "count"),
        metric("engine.apply_us", median(&apply), "us"),
        metric("engine.rebuild_ms", median(&rebuild) / 1e3, "ms"),
        metric("engine.rebuilds", s.rebuilds as f64, "count"),
        metric(
            "wal.bytes_per_mutation",
            ratio(counter(&s.stats, "wal_bytes"), muts),
            "bytes",
        ),
        metric(
            "wal.fsyncs_per_mutation",
            ratio(counter(&s.stats, "wal_fsyncs"), muts),
            "ratio",
        ),
        metric(
            "wal.checkpoints",
            counter(&s.stats, "checkpoints_written"),
            "count",
        ),
        metric(
            "wal.replay_per_s",
            ratio(er.replayed as f64, er.recover_s),
            "1/s",
        ),
        metric(
            "coordinator.query_us",
            us(&coord_spans, "coordinator.query"),
            "us",
        ),
        metric("shard.probe_us", us(&coord_spans, "shard.probe"), "us"),
        metric(
            "coordinator.merge_drop_ratio",
            ratio(cr.merge_dropped as f64, cr.gather_points as f64),
            "ratio",
        ),
        metric(
            "coordinator.mutate_us",
            us(&coord_spans, "coordinator.mutate"),
            "us",
        ),
        metric(
            "rtree.index_build_ms",
            median(&cli_stat(o, None, None, |d| phase_ms(d, "index_build"))),
            "ms",
        ),
        metric(
            "skyline.dominating_sky_ms",
            median(&cli_stat(o, None, Some(Algo::Probe), |d| {
                phase_ms(d, "dominating_sky")
            })),
            "ms",
        ),
        metric(
            "core.upgrade_ms",
            median(&cli_stat(o, None, Some(Algo::Probe), |d| {
                phase_ms(d, "upgrade")
            })),
            "ms",
        ),
        metric(
            "join.expansion_ms",
            join_all(&|d| phase_ms(d, "join_expansion")),
            "ms",
        ),
        metric(
            "probe.bound_sort_ms",
            median(&cli_stat(o, None, Some(Algo::Probe), |d| {
                phase_ms(d, "bound_sort")
            })),
            "ms",
        ),
        metric("data.load_ms", median(&load_ms), "ms"),
        metric(
            "join.useful_ratio",
            median(&cli_stat(o, Some(Shape::Overlap), Some(Algo::Join), |d| {
                Some(ratio(k, cli_counter(d, "exact_upgrades")?))
            })),
            "ratio",
        ),
        metric(
            "join.p_nodes_expanded",
            join_all(&|d| cli_counter(d, "p_nodes_expanded")),
            "count",
        ),
        metric(
            "probe.evaluated_ratio",
            o.evaluated_ratio(Shape::Overlap).unwrap_or(0.0),
            "ratio",
        ),
        metric(
            "rtree.node_accesses_per_product",
            probe_overlap(&|d| {
                Some(ratio(
                    cli_counter(d, "rtree_node_accesses")?,
                    cli_counter(d, "products_evaluated")?,
                ))
            }),
            "count",
        ),
        metric(
            "trace.overhead_ratio",
            ratio(mean(&spanned), mean(&plain)),
            "ratio",
        ),
        metric(
            "trace.unattributed_ratio",
            ratio((unattributed + un2) as f64, (total + tot2) as f64),
            "ratio",
        ),
    ];
    Ok(Traced {
        engine_spans,
        coord_spans,
        metrics,
        problems,
    })
}

fn host_fingerprint() -> Json {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|t| {
            t.lines().find_map(|l| {
                l.strip_prefix("model name")
                    .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
            })
        })
        .unwrap_or_else(|| "unknown".into());
    let rustc = std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into());
    let mut features = Vec::new();
    macro_rules! feature {
        ($($f:literal),*) => {$( if cfg!(target_feature = $f) { features.push(Json::Str($f.into())); } )*};
    }
    feature!("sse2", "sse4.2", "avx", "avx2", "fma", "avx512f", "neon");
    Json::obj(vec![
        (
            "available_parallelism",
            Json::Uint(std::thread::available_parallelism().map_or(0, |n| n.get() as u64)),
        ),
        ("cpu", Json::Str(cpu)),
        ("rustc", Json::Str(rustc)),
        ("target_features", Json::Arr(features)),
    ])
}

fn nums(xs: &[f64]) -> Json {
    Json::Arr(xs.iter().map(|&x| Json::Num(x)).collect())
}

fn samples(xs: &[f64], q: f64) -> Json {
    Json::obj(vec![
        ("n", Json::Uint(xs.len() as u64)),
        ("beyond", Json::Uint(beyond(xs.len(), q) as u64)),
    ])
}

fn run() -> Result<i32, String> {
    let a = parse_args()?;
    let p = plan(&a)?;
    let root = std::env::current_dir().map_err(|e| e.to_string())?;
    let work = fresh_dir(
        &root.join("perfbench").join("work"),
        &format!("{}-{}", a.workload, a.seed),
    )?;
    let out_dir = root.join("perfbench").join("out");
    std::fs::create_dir_all(&out_dir).map_err(|e| e.to_string())?;

    let served_dir = fresh_dir(&work, "served")?;
    let s = served::run(&ServedSpec {
        skyup: &a.skyup,
        work: &served_dir,
        seed: a.seed,
        competitors: &p.competitors,
        sharded: p.sharded,
        segments: p.segments.clone(),
        setup_repeats: SETUP_REPEATS,
    })?;
    let o = if p.offline_seconds > 0.0 {
        offline::run(&OfflineSpec {
            skyup: &a.skyup,
            work: &fresh_dir(&work, "offline")?,
            seed: a.seed,
            p: &p.competitors,
            seconds: p.offline_seconds,
        })?
    } else {
        OfflineResult::default()
    };

    let mut problems: Vec<String> = s.problems.iter().chain(&o.problems).cloned().collect();
    let attempted = s.attempted + o.attempted;
    let mut failed = s.failed + o.failed;
    let metrics = if a.trace {
        let t = traced(&a, &p, &work, &s, &o)?;
        println!(
            "per-layer spans, workload {} seed {}: engine replay",
            a.workload, a.seed
        );
        print!("{}", t.engine_spans.table());
        println!("coordinator replay (2 in-process shards)");
        print!("{}", t.coord_spans.table());
        let spans = format!("{}{}", t.engine_spans.tsv(), t.coord_spans.tsv());
        std::fs::write(
            out_dir.join(format!("{}-{}.spans.tsv", a.workload, a.seed)),
            spans,
        )
        .map_err(|e| e.to_string())?;
        if !t.problems.is_empty() {
            failed += 1;
            problems.extend(t.problems);
        }
        let mut m = t.metrics;
        m.push(metric(
            "fail_ratio",
            ratio(failed as f64, attempted as f64),
            "ratio",
        ));
        for (name, v) in &m {
            println!(
                "{name:<32} {}",
                v.get("value").and_then(Json::as_f64).unwrap_or(0.0)
            );
        }
        m
    } else {
        end_to_end(&a.workload, &s, &o)
    };

    let paper_eval = o.evaluated_ratio(Shape::Paper);
    let overlap_eval = o.evaluated_ratio(Shape::Overlap);
    let meta = Json::obj(vec![
        ("workload", Json::Str(a.workload.clone())),
        ("seed", Json::Uint(a.seed)),
        ("seconds", Json::Num(a.seconds)),
        ("host", host_fingerprint()),
        ("fsync", Json::Str(FSYNC.into())),
        (
            "checkpoint_every",
            Json::Str(served::CHECKPOINT_EVERY.into()),
        ),
        (
            "samples",
            Json::obj(vec![
                ("query_p50_ms", samples(&s.query_lat_ms, 0.5)),
                ("query_p99_ms", samples(&s.query_lat_ms, 0.99)),
                ("mutation_p50_ms", samples(&s.mutation_lat_ms, 0.5)),
                ("mutation_p90_ms", samples(&s.mutation_lat_ms, 0.9)),
                ("offline_invocations", Json::Uint(o.runs.len() as u64)),
                ("setup_s", Json::Uint(s.setup_s.len() as u64)),
                ("recovery_s", Json::Uint(s.recovery_samples.len() as u64)),
            ]),
        ),
        (
            "shapes",
            Json::obj(vec![
                (
                    "paper_evaluated_ratio",
                    paper_eval.map_or(Json::Null, Json::Num),
                ),
                (
                    "overlap_evaluated_ratio",
                    overlap_eval.map_or(Json::Null, Json::Num),
                ),
                ("paper_does_not_prune", Json::Bool(paper_eval == Some(1.0))),
                (
                    "overlap_prunes",
                    Json::Bool(overlap_eval.is_some_and(|r| r < 1.0)),
                ),
            ]),
        ),
        (
            "problems",
            Json::Arr(problems.iter().map(|p| Json::Str(p.clone())).collect()),
        ),
    ]);
    let meta_text = meta.render();
    // The file also keeps the raw samples behind every statistic.
    let mut record = meta;
    if let Json::Obj(fields) = &mut record {
        fields.push((
            "raw".to_string(),
            Json::obj(vec![
                ("served_setup_s", nums(&s.setup_s)),
                ("query_lat_ms", nums(&s.query_lat_ms)),
                ("mutation_lat_ms", nums(&s.mutation_lat_ms)),
                ("recovery_s", nums(&s.recovery_samples)),
                (
                    "offline_ms",
                    Json::Obj(
                        Shape::ALL
                            .iter()
                            .flat_map(|&sh| Algo::ALL.map(move |al| (sh, al)))
                            .map(|(sh, al)| {
                                (
                                    format!("{}_{}", sh.name(), al.name()),
                                    nums(&o.walls(sh, al)),
                                )
                            })
                            .collect(),
                    ),
                ),
            ]),
        ));
    }
    std::fs::write(
        out_dir.join(format!("{}-{}.meta.json", a.workload, a.seed)),
        record.render(),
    )
    .map_err(|e| e.to_string())?;
    println!("meta {meta_text}");
    for p in &problems {
        eprintln!("perfbench: {p}");
    }

    let correct = failed == 0 && problems.is_empty();
    let result = Json::obj(vec![
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Uint(attempted)),
        ("failed", Json::Uint(failed)),
        (
            "metrics",
            if correct {
                Json::Obj(metrics)
            } else {
                Json::Obj(Vec::new())
            },
        ),
    ]);
    println!("{}", result.render());
    let _ = std::fs::remove_dir_all(&work);
    Ok(if correct { 0 } else { 1 })
}

fn main() {
    match run() {
        Ok(code) => std::process::exit(code),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    }
}
