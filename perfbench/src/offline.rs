//! The offline phase: the paper's one-shot top-k through the `skyup`
//! CLI, one process per query, checked against a tree-free oracle.

use crate::gen::{self, Shape};
use crate::procs::invoke;
use crate::served::store_of;
use skyup_core::{dominators_from_skyline, upgrade_single, UpgradeConfig};
use skyup_geom::{PointId, PointStore};
use skyup_obs::json::{parse, Json};
use skyup_obs::NullRecorder;
use skyup_serve::proto::parse_cost;
use skyup_skyline::skyline_sfs;
use std::path::Path;
use std::time::Instant;

pub const K: usize = 10;
const PROBE_THREADS: usize = 2;
const MIN_ROUNDS: u64 = 2;
/// The CLI prints costs with six decimals.
const COST_TOL: f64 = 1e-6;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Algo {
    Join,
    Probe,
}

impl Algo {
    pub const ALL: [Algo; 2] = [Algo::Join, Algo::Probe];

    /// Invocations of this executor per round and shape. A round's
    /// time goes mostly to the slow executor of each shape, so the fast
    /// one (whose samples are the noisiest) runs three times on the same
    /// T, and the overlap join twice, to even out the medians' noise.
    pub fn repeats(self, shape: Shape) -> usize {
        match (shape, self) {
            (Shape::Paper, Algo::Join) | (Shape::Overlap, Algo::Probe) => 3,
            (Shape::Overlap, Algo::Join) => 2,
            (Shape::Paper, Algo::Probe) => 1,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Algo::Join => "join",
            Algo::Probe => "probe",
        }
    }
}

pub struct OfflineSpec<'a> {
    pub skyup: &'a Path,
    pub work: &'a Path,
    pub seed: u64,
    pub p: &'a [Vec<f64>],
    /// Keep starting rounds until this much time has passed (at least
    /// `MIN_ROUNDS` run).
    pub seconds: f64,
}

pub struct Run {
    pub shape: Shape,
    pub algo: Algo,
    /// The round, which fixes the products.
    pub query: u64,
    pub wall_ms: f64,
    stdout: String,
}

/// One untimed `--stats=json` invocation.
pub struct Profile {
    pub shape: Shape,
    pub algo: Algo,
    pub wall_ms: f64,
    pub stats: Json,
}

#[derive(Default)]
pub struct OfflineResult {
    pub runs: Vec<Run>,
    pub peak_rss_mb: f64,
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
    /// One `--stats=json` invocation per shape and executor, on the
    /// first round's T, after the timed loop.
    pub profiles: Vec<Profile>,
}

impl OfflineResult {
    /// `products_evaluated / |T|` of the probing profile of `shape`.
    pub fn evaluated_ratio(&self, shape: Shape) -> Option<f64> {
        let p = self
            .profiles
            .iter()
            .find(|p| p.shape == shape && p.algo == Algo::Probe)?;
        let n = p
            .stats
            .get("counters")?
            .get("products_evaluated")?
            .as_f64()?;
        Some(n / shape.size() as f64)
    }

    pub fn walls(&self, shape: Shape, algo: Algo) -> Vec<f64> {
        self.runs
            .iter()
            .filter(|r| r.shape == shape && r.algo == algo)
            .map(|r| r.wall_ms)
            .collect()
    }
}

fn args(p: &Path, t: &Path, shape: Shape, algo: Algo, stats: bool) -> Vec<String> {
    let mut a: Vec<String> = vec![
        "--competitors".into(),
        p.display().to_string(),
        "--products".into(),
        t.display().to_string(),
        "-k".into(),
        K.to_string(),
        "--cost".into(),
        shape.cost().into(),
    ];
    if algo == Algo::Probe {
        a.extend([
            "--algorithm".into(),
            "probing".into(),
            "--threads".into(),
            PROBE_THREADS.to_string(),
        ]);
    }
    if stats {
        a.push("--stats=json".into());
    }
    a
}

/// `(product index, printed cost)` for each result line
/// (`#r product p<i> cost <c>`).
fn parse_results(stdout: &str) -> Vec<(usize, f64)> {
    stdout
        .lines()
        .filter(|l| l.starts_with('#'))
        .filter_map(|l| {
            let mut w = l.split_whitespace();
            let _rank = w.next()?;
            (w.next()? == "product").then_some(())?;
            let idx = w.next()?.strip_prefix('p')?.parse().ok()?;
            (w.next()? == "cost").then_some(())?;
            Some((idx, w.next()?.parse().ok()?))
        })
        .collect()
}

/// The `--stats=json` document: everything from the first line that is
/// exactly `{`.
fn stats_doc(stdout: &str) -> Option<Json> {
    let start = stdout.find("\n{\n")? + 1;
    parse(&stdout[start..]).ok()
}

/// Exact upgrade costs without the R-tree: the skyline of P by SFS,
/// then each product's dominators filtered from it and Algorithm 1.
struct Oracle {
    store: PointStore,
    skyline: Vec<PointId>,
}

impl Oracle {
    fn new(p: &[Vec<f64>]) -> Oracle {
        let store = store_of(p);
        let ids: Vec<PointId> = store.ids().collect();
        let skyline = skyline_sfs(&store, &ids);
        Oracle { store, skyline }
    }

    fn costs(&self, t: &[Vec<f64>], cost: &str) -> Vec<f64> {
        let cost_fn = parse_cost(cost)
            .expect("shape costs parse")
            .cost_fn(gen::DIMS);
        let cfg = UpgradeConfig::default();
        t.iter()
            .map(|p| {
                let doms =
                    dominators_from_skyline(&self.store, &self.skyline, p, &mut NullRecorder);
                upgrade_single(&self.store, &doms, p, &cost_fn, &cfg).0
            })
            .collect()
    }
}

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= COST_TOL * (1.0 + b.abs())
}

/// Checks one invocation's printed results against the oracle's costs.
/// Probing must print the exact top-k; the join's results must each
/// carry the oracle's cost (paper-mode LBC may reorder them).
fn check(algo: Algo, printed: &[(usize, f64)], costs: &[f64]) -> Result<(), String> {
    let want = K.min(costs.len());
    if printed.len() != want {
        return Err(format!(
            "printed {} results, expected {want}",
            printed.len()
        ));
    }
    for &(idx, c) in printed {
        let Some(&exact) = costs.get(idx) else {
            return Err(format!("product p{idx} does not exist"));
        };
        if !close(c, exact) {
            return Err(format!("product p{idx}: printed cost {c}, oracle {exact}"));
        }
    }
    if algo == Algo::Probe {
        let mut best = costs.to_vec();
        best.sort_by(f64::total_cmp);
        let mut got: Vec<f64> = printed.iter().map(|&(_, c)| c).collect();
        got.sort_by(f64::total_cmp);
        if let Some((g, b)) = got.iter().zip(&best).find(|(g, b)| !close(**g, **b)) {
            return Err(format!("top-k cost {g} where the oracle's top-k has {b}"));
        }
    }
    Ok(())
}

/// Runs the offline phase end to end.
pub fn run(spec: &OfflineSpec) -> Result<OfflineResult, String> {
    let p_csv = spec.work.join("p.csv");
    std::fs::write(&p_csv, gen::csv(spec.p)).map_err(|e| format!("{e}"))?;
    let mut out = OfflineResult::default();

    let t0 = Instant::now();
    let mut round = 0u64;
    while round < MIN_ROUNDS || t0.elapsed().as_secs_f64() < spec.seconds {
        for shape in Shape::ALL {
            let t_csv = spec.work.join(format!("t_{}.csv", shape.name()));
            let t = shape.products(spec.seed, round);
            std::fs::write(&t_csv, gen::csv(&t)).map_err(|e| format!("{e}"))?;
            for algo in Algo::ALL {
                for _ in 0..algo.repeats(shape) {
                    let inv = invoke(spec.skyup, &args(&p_csv, &t_csv, shape, algo, false))?;
                    out.attempted += 1;
                    out.peak_rss_mb = out.peak_rss_mb.max(inv.max_rss_mb);
                    if !inv.success {
                        out.failed += 1;
                        out.problems.push(format!(
                            "{} {} exited non-zero",
                            shape.name(),
                            algo.name()
                        ));
                        continue;
                    }
                    out.runs.push(Run {
                        shape,
                        algo,
                        query: round,
                        wall_ms: inv.wall_s * 1e3,
                        stdout: inv.stdout,
                    });
                }
            }
        }
        round += 1;
    }

    // Phase times and counters, untimed since `--stats` adds recording.
    // They also show whether the shapes do their job: the bound prunes
    // `overlap` and cannot prune `paper`.
    for shape in Shape::ALL {
        let t_csv = spec.work.join(format!("t_{}.csv", shape.name()));
        std::fs::write(&t_csv, gen::csv(&shape.products(spec.seed, 0)))
            .map_err(|e| format!("{e}"))?;
        for algo in Algo::ALL {
            let inv = invoke(spec.skyup, &args(&p_csv, &t_csv, shape, algo, true))?;
            out.attempted += 1;
            if let Some(stats) = stats_doc(&inv.stdout).filter(|_| inv.success) {
                out.profiles.push(Profile {
                    shape,
                    algo,
                    wall_ms: inv.wall_s * 1e3,
                    stats,
                });
            } else {
                out.failed += 1;
                out.problems.push(format!(
                    "{} {} --stats=json run failed",
                    shape.name(),
                    algo.name()
                ));
            }
        }
    }

    // Correctness, after the clock stops.
    let oracle = Oracle::new(spec.p);
    let mut wrong = Vec::new();
    for shape in Shape::ALL {
        for q in 0..round {
            let costs = oracle.costs(&shape.products(spec.seed, q), shape.cost());
            for run in out.runs.iter().filter(|x| x.shape == shape && x.query == q) {
                if let Err(why) = check(run.algo, &parse_results(&run.stdout), &costs) {
                    wrong.push(format!(
                        "{} {} query {q}: {why}",
                        shape.name(),
                        run.algo.name()
                    ));
                }
            }
        }
    }
    out.failed += wrong.len() as u64;
    out.problems.extend(wrong);
    Ok(out)
}
