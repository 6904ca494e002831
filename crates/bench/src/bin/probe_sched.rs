//! Probe-executor bench: `probe_topk` at 1/2/4/8 threads on two
//! workloads, against sequential improved probing, as JSON.
//!
//! * `interleaved_linear` — anti-correlated `P` on the unit cube and
//!   uncompetitive `T` shifted to `[0.3, 1.3]` under a linear
//!   per-attribute cost: the layout where an admissible lower-bound
//!   screen could prune most of `T`.
//! * `paper_reciprocal` — the paper's setup: the same `P`, `T` in
//!   `(1, 2]^3`, reciprocal cost. No bound screen prunes anything here.
//!
//! The executor evaluates every product on both, so each row's counter
//! snapshot is a pure function of the workload: `products_evaluated ==
//! |T|`, and the kernel's block accounting is exact (the skyline pass's
//! blocks plus, per full dominator scan, the skyline's block count).
//! Every row is checked bit-for-bit against `improved_probing_topk`
//! before its timing is trusted. Each timing sample repeats the call
//! until it has run for at least [`MIN_SAMPLE`]; samples are taken in
//! rounds, one per configuration per round, so a slow stretch of a
//! shared host lands on every configuration alike, and the median
//! sample is reported per call. The header records the host's available
//! parallelism and CPU model, so thread scaling reads against the
//! cores that were actually there. Set `SKYUP_BENCH_OUT` to redirect
//! the report.

use std::time::Duration;

use skyup_bench::{fmt_duration, parse_args, time};
use skyup_core::cost::{AttributeCost, LinearCost, SumCost};
use skyup_core::{improved_probing_topk, probe_topk, ProbeOptions, UpgradeConfig, UpgradeResult};
use skyup_data::synthetic::{generate, paper_products, Distribution, SyntheticConfig};
use skyup_geom::{PointStore, DOM_BLOCK};
use skyup_obs::json::Json;
use skyup_obs::{Counter, NullRecorder, QueryMetrics};
use skyup_rtree::{RTree, RTreeParams};
use skyup_skyline::skyline_sfs_rec;

/// Timing samples per configuration; the median is reported.
const SAMPLES: usize = 11;
/// Each sample repeats the timed call until at least this much time
/// has passed, so millisecond-scale rows are not single-shot.
const MIN_SAMPLE: Duration = Duration::from_millis(20);
const K: usize = 10;
const DIMS: usize = 3;
const THREADS: [usize; 4] = [1, 2, 4, 8];

fn linear_cost(dims: usize) -> SumCost {
    SumCost::new(
        (0..dims)
            .map(|_| Box::new(LinearCost::new(2.0, 1.0)) as Box<dyn AttributeCost>)
            .collect(),
    )
}

fn counters_json(m: &QueryMetrics) -> Json {
    Json::obj(
        Counter::ALL
            .iter()
            .map(|&c| (c.name(), Json::Num(m.get(c) as f64)))
            .collect(),
    )
}

/// Bit-level equality: same products in the same order with identical
/// cost and coordinate bits.
fn bit_identical(a: &[UpgradeResult], b: &[UpgradeResult]) -> bool {
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.product == y.product
                && x.cost.to_bits() == y.cost.to_bits()
                && bits(&x.original) == bits(&y.original)
                && bits(&x.upgraded) == bits(&y.upgraded)
        })
}

/// Per-call wall-clock of one sample: `f` repeated until at least
/// [`MIN_SAMPLE`] has passed.
fn sample(f: &mut dyn FnMut()) -> Duration {
    let mut calls = 0u32;
    let (elapsed, ()) = time(|| {
        let start = std::time::Instant::now();
        while calls == 0 || start.elapsed() < MIN_SAMPLE {
            f();
            calls += 1;
        }
    });
    elapsed / calls
}

/// Median per-call wall-clock of each configuration over [`SAMPLES`]
/// interleaved rounds.
fn median_walls(configs: &mut [Box<dyn FnMut() + '_>]) -> Vec<Duration> {
    let mut samples = vec![Vec::with_capacity(SAMPLES); configs.len()];
    for _ in 0..SAMPLES {
        for (f, s) in configs.iter_mut().zip(&mut samples) {
            s.push(sample(f.as_mut()));
        }
    }
    samples
        .into_iter()
        .map(|mut s| {
            s.sort_unstable();
            s[s.len() / 2]
        })
        .collect()
}

/// `available_parallelism` and the first `model name` of
/// `/proc/cpuinfo` (`"unknown"` where that file does not exist).
fn host_json() -> Json {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    Json::obj(vec![
        ("available_parallelism", Json::Num(cores as f64)),
        ("cpu_model", Json::Str(model)),
    ])
}

struct Workload {
    name: &'static str,
    t: PointStore,
    t_domain: &'static str,
    cost: SumCost,
    cost_name: &'static str,
}

/// Times sequential improved probing and the executor at every width
/// on one workload; returns its JSON record and whether every row was
/// bit-identical to the sequential answer.
fn run_workload(
    p: &PointStore,
    rp: &RTree,
    w: &Workload,
    p_size: usize,
    seed: u64,
) -> (Json, bool) {
    let cfg = UpgradeConfig::default();
    let t = &w.t;
    println!(
        "  workload {} (T in {}, {})",
        w.name, w.t_domain, w.cost_name
    );

    let reference = improved_probing_topk(p, rp, t, K, &w.cost, &cfg);

    // The skyline pass is deterministic; record its kernel blocks and
    // size so the gate can check the executor's block law exactly.
    let ids: Vec<_> = p.ids().collect();
    let mut sky_metrics = QueryMetrics::new();
    let skyline_len = skyline_sfs_rec(p, &ids, &mut sky_metrics).len();
    let sfs_blocks =
        sky_metrics.get(Counter::KernelBlockScans) + sky_metrics.get(Counter::KernelBlocksSkipped);

    // One checked, instrumented run per width before any timing.
    let options: Vec<ProbeOptions> = THREADS
        .iter()
        .map(|&threads| ProbeOptions {
            threads,
            ..ProbeOptions::default()
        })
        .collect();
    let mut all_identical = true;
    let checked: Vec<(usize, bool, QueryMetrics)> = options
        .iter()
        .map(|opts| {
            let mut metrics = QueryMetrics::new();
            let out = probe_topk(p, t, K, &w.cost, &cfg, opts, &mut metrics)
                .expect("unlimited executor run");
            let identical = bit_identical(&out.results, &reference);
            all_identical &= identical;
            (out.evaluated, identical, metrics)
        })
        .collect();

    let mut configs: Vec<Box<dyn FnMut() + '_>> = vec![Box::new(|| {
        std::hint::black_box(improved_probing_topk(p, rp, t, K, &w.cost, &cfg));
    })];
    for opts in &options {
        let cfg = &cfg;
        configs.push(Box::new(move || {
            std::hint::black_box(
                probe_topk(p, t, K, &w.cost, cfg, opts, &mut NullRecorder)
                    .expect("unlimited executor run"),
            );
        }));
    }
    let walls = median_walls(&mut configs);
    drop(configs);
    let seq_wall = walls[0];
    println!(
        "    sequential improved probing: {}",
        fmt_duration(seq_wall)
    );

    let mut runs = Vec::new();
    for ((threads, wall), (evaluated, identical, metrics)) in
        THREADS.iter().zip(&walls[1..]).zip(&checked)
    {
        println!(
            "    executor threads={threads}: {}  evaluated={evaluated}{}",
            fmt_duration(*wall),
            if *identical { "" } else { "  MISMATCH" },
        );
        runs.push(Json::obj(vec![
            ("threads", Json::Num(*threads as f64)),
            ("wall_us", Json::Num(wall.as_micros() as f64)),
            (
                "speedup_vs_sequential",
                Json::Num(seq_wall.as_secs_f64() / wall.as_secs_f64()),
            ),
            ("bit_identical_to_sequential", Json::Bool(*identical)),
            ("evaluated", Json::Num(*evaluated as f64)),
            ("counters", counters_json(metrics)),
        ]));
    }

    let doc = Json::obj(vec![
        ("name", Json::Str(w.name.into())),
        (
            "workload",
            Json::obj(vec![
                ("p_size", Json::Num(p_size as f64)),
                ("t_size", Json::Num(t.len() as f64)),
                ("dims", Json::Num(DIMS as f64)),
                ("k", Json::Num(K as f64)),
                ("seed", Json::Num(seed as f64)),
                ("p_distribution", Json::Str("anti_correlated_unit".into())),
                ("t_domain", Json::Str(w.t_domain.into())),
                ("cost", Json::Str(w.cost_name.into())),
            ]),
        ),
        ("skyline_len", Json::Num(skyline_len as f64)),
        (
            "skyline_blocks",
            Json::Num(skyline_len.div_ceil(DOM_BLOCK) as f64),
        ),
        ("sfs_kernel_blocks", Json::Num(sfs_blocks as f64)),
        ("sequential_wall_us", Json::Num(seq_wall.as_micros() as f64)),
        ("runs", Json::Arr(runs)),
    ]);
    (doc, all_identical)
}

fn main() {
    let args = parse_args(0.02);
    let p_size = args.scaled(100_000);
    let t_size = args.scaled(20_000);

    let p = generate(
        p_size,
        &SyntheticConfig::unit(DIMS, Distribution::AntiCorrelated, args.seed),
    );
    let rp = RTree::bulk_load(&p, RTreeParams::default());
    let workloads = [
        Workload {
            name: "interleaved_linear",
            t: generate(
                t_size,
                &SyntheticConfig {
                    dims: DIMS,
                    distribution: Distribution::Independent,
                    lo: 0.3,
                    hi: 1.3,
                    seed: args.seed ^ 0x5eed,
                },
            ),
            t_domain: "independent [0.3, 1.3]",
            cost: linear_cost(DIMS),
            cost_name: "sum of linear(2.0, 1.0) per dim",
        },
        Workload {
            name: "paper_reciprocal",
            t: paper_products(t_size, DIMS, Distribution::Independent, args.seed ^ 0x5eed),
            t_domain: "independent (1, 2]",
            cost: SumCost::reciprocal(DIMS, 1e-3),
            cost_name: "sum of reciprocal(1e-3) per dim",
        },
    ];

    println!(
        "probe executor bench: |P|={p_size} |T|={t_size} d={DIMS} k={K} seed={}",
        args.seed
    );
    let mut records = Vec::new();
    let mut all_identical = true;
    for w in &workloads {
        let (doc, identical) = run_workload(&p, &rp, w, p_size, args.seed);
        records.push(doc);
        all_identical &= identical;
    }

    let doc = Json::obj(vec![
        ("schema", Json::Str("skyup-bench-probing/2".into())),
        ("host", host_json()),
        ("samples_per_config", Json::Num(SAMPLES as f64)),
        ("min_sample_us", Json::Num(MIN_SAMPLE.as_micros() as f64)),
        ("workloads", Json::Arr(records)),
        ("all_runs_bit_identical", Json::Bool(all_identical)),
    ]);

    let path = std::env::var("SKYUP_BENCH_OUT")
        .unwrap_or_else(|_| "bench_results/BENCH_probing.json".into());
    if let Some(dir) = std::path::Path::new(&path).parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir).expect("create output directory");
        }
    }
    std::fs::write(&path, format!("{}\n", doc.render_pretty()))
        .unwrap_or_else(|e| panic!("write {path}: {e}"));
    println!("wrote {path}");

    assert!(
        all_identical,
        "the probe executor diverged from sequential improved probing"
    );
}
