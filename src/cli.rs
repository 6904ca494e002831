//! Implementation of the `skyup` command-line tool.
//!
//! The binary (`cargo run --bin skyup -- …`) loads competitor and
//! product sets from delimited text files and prints the top-k upgrade
//! plan. All logic lives here so the argument parsing and the run can
//! be unit-tested without spawning processes.

use skyup_core::cost::{AttributeCost, LinearCost, SumCost};
use skyup_core::join::{BoundMode, LowerBound};
use skyup_core::{
    basic_probing_topk_rec, probe_topk, try_basic_probing_topk, Completion, ExecutionLimits,
    JoinUpgrader, ProbeOptions, UpgradeConfig, UpgradeResult,
};
use skyup_data::{negate_dimensions, normalize_unit, read_delimited};
use skyup_geom::PointStore;
use skyup_obs::{timed, Phase, QueryMetrics, Recorder};
use skyup_rtree::{RTree, RTreeParams};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Duration;

/// Which algorithm the CLI runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Algorithm {
    /// Algorithm 2 (baseline).
    Basic,
    /// Improved probing (Algorithm 2 + `getDominatingSky`).
    Probing,
    /// The progressive R-tree join (Algorithm 4).
    Join,
}

/// Parsed CLI configuration.
#[derive(Clone, Debug)]
pub struct Config {
    /// Path to the competitor file.
    pub competitors: PathBuf,
    /// Path to the own-product file.
    pub products: PathBuf,
    /// Number of products to upgrade.
    pub k: usize,
    /// Cell delimiter.
    pub delimiter: char,
    /// Whether the files start with a header line to skip.
    pub header: bool,
    /// 0-based columns to read (same for both files).
    pub columns: Vec<usize>,
    /// Dimensions (indices into `columns`) where larger is better.
    pub negate: Vec<usize>,
    /// Normalize both sets jointly into the unit space.
    pub normalize: bool,
    /// Algorithm selection.
    pub algorithm: Algorithm,
    /// Join lower bound.
    pub bound: LowerBound,
    /// Join bound mode.
    pub mode: BoundMode,
    /// Algorithm 1's ε.
    pub epsilon: f64,
    /// Cost model: `("reciprocal", eps)` or `("linear", slope)`.
    pub cost: CostSpec,
    /// Instrumentation report appended to the output, if requested.
    pub stats: Option<StatsFormat>,
    /// Wall-clock budget for the query phase, in milliseconds. When it
    /// runs out the query degrades to a best-so-far partial answer
    /// (exit code 2 from the binary).
    pub timeout_ms: Option<u64>,
    /// R-tree node-visit budget for the query phase; same degradation.
    /// The probe executor charges one visit per product.
    pub max_node_visits: Option<u64>,
    /// Worker threads of the probe executor for `--algorithm probing`
    /// (capped at the host's available parallelism). Results are
    /// identical at every width.
    pub threads: usize,
}

impl Config {
    /// The execution limits implied by `--timeout-ms` /
    /// `--max-node-visits` (unlimited when neither is given).
    pub fn limits(&self) -> ExecutionLimits {
        let mut limits = ExecutionLimits::none();
        if let Some(ms) = self.timeout_ms {
            limits = limits.with_deadline(Duration::from_millis(ms));
        }
        if let Some(n) = self.max_node_visits {
            limits = limits.with_max_node_visits(n);
        }
        limits
    }
}

/// How `--stats` renders the collected query metrics.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StatsFormat {
    /// Aligned-text phase/counter report.
    Text,
    /// Pretty-printed JSON (schema `skyup-obs/1`; first line is `{`).
    Json,
}

/// The CLI's cost-model choice.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum CostSpec {
    /// `1/(v + eps)` per dimension.
    Reciprocal(f64),
    /// `base − slope·v` per dimension (base fixed at 1000·slope·scale).
    Linear(f64),
}

/// Usage text printed on `--help` or errors.
pub const USAGE: &str = "\
usage: skyup --competitors <file> --products <file> [options]

required:
  --competitors <file>   delimited text file with the competitor set P
  --products <file>      delimited text file with the upgrade candidates T

options:
  -k <n>                 number of products to upgrade (default 3)
  --delimiter <c>        cell delimiter (default ',')
  --header               skip the first line of each file
  --columns a,b,...      0-based columns to use (default: all of line 1)
  --negate i,j,...       dimensions (after column selection) where larger
                         is better; they are negated on load
  --normalize            min-max normalize P and T jointly to [0,1]^c
  --algorithm <a>        basic | probing | join (default join)
  --bound <b>            nlb | clb | alb (default clb)
  --admissible           use the admissible bound mode (exact top-k order)
  --epsilon <f>          strict-improvement margin (default 1e-6)
  --cost reciprocal:<eps> | linear:<slope>   (default reciprocal:0.001)
  --stats[=json]         append a per-phase timing and counter report
                         (text by default, pretty JSON with =json)
  --timeout-ms <n>       wall-clock budget for the query; on expiry the
                         best-so-far partial answer is printed and the
                         binary exits with code 2
  --max-node-visits <n>  R-tree node-visit budget; same degradation
                         (for --algorithm probing it counts products:
                         one visit per product evaluated)
  --threads <n>          width of the probe executor for --algorithm
                         probing (default 1; identical results at any
                         width)

exit codes: 0 = exact answer, 2 = partial answer (a limit fired),
1 = error (bad arguments, unreadable input, invalid data)
";

impl Config {
    /// Parses the argument list (without the program name).
    pub fn parse(args: &[String]) -> Result<Config, String> {
        let mut competitors = None;
        let mut products = None;
        let mut k = 3usize;
        let mut delimiter = ',';
        let mut header = false;
        let mut columns: Vec<usize> = Vec::new();
        let mut negate: Vec<usize> = Vec::new();
        let mut normalize = false;
        let mut algorithm = Algorithm::Join;
        let mut bound = LowerBound::Conservative;
        let mut mode = BoundMode::Paper;
        let mut epsilon = 1e-6;
        let mut cost = CostSpec::Reciprocal(1e-3);
        let mut stats = None;
        let mut timeout_ms = None;
        let mut max_node_visits = None;
        let mut threads = 1usize;

        let mut i = 0;
        let value = |args: &[String], i: usize, flag: &str| -> Result<String, String> {
            args.get(i + 1)
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        while i < args.len() {
            match args[i].as_str() {
                "--competitors" => {
                    competitors = Some(PathBuf::from(value(args, i, "--competitors")?));
                    i += 2;
                }
                "--products" => {
                    products = Some(PathBuf::from(value(args, i, "--products")?));
                    i += 2;
                }
                "-k" => {
                    k = value(args, i, "-k")?
                        .parse()
                        .map_err(|e| format!("-k: {e}"))?;
                    if k == 0 {
                        return Err("-k must be at least 1".into());
                    }
                    i += 2;
                }
                "--delimiter" => {
                    let v = value(args, i, "--delimiter")?;
                    let mut chars = v.chars();
                    delimiter = chars
                        .next()
                        .filter(|_| chars.next().is_none())
                        .ok_or("--delimiter takes a single character")?;
                    i += 2;
                }
                "--header" => {
                    header = true;
                    i += 1;
                }
                "--columns" => {
                    columns = parse_usize_list(&value(args, i, "--columns")?)?;
                    i += 2;
                }
                "--negate" => {
                    negate = parse_usize_list(&value(args, i, "--negate")?)?;
                    i += 2;
                }
                "--normalize" => {
                    normalize = true;
                    i += 1;
                }
                "--algorithm" => {
                    algorithm = match value(args, i, "--algorithm")?.as_str() {
                        "basic" => Algorithm::Basic,
                        "probing" => Algorithm::Probing,
                        "join" => Algorithm::Join,
                        other => return Err(format!("unknown algorithm {other}")),
                    };
                    i += 2;
                }
                "--bound" => {
                    bound = match value(args, i, "--bound")?.as_str() {
                        "nlb" => LowerBound::Naive,
                        "clb" => LowerBound::Conservative,
                        "alb" => LowerBound::Aggressive,
                        other => return Err(format!("unknown bound {other}")),
                    };
                    i += 2;
                }
                "--admissible" => {
                    mode = BoundMode::Admissible;
                    i += 1;
                }
                "--epsilon" => {
                    epsilon = value(args, i, "--epsilon")?
                        .parse()
                        .map_err(|e| format!("--epsilon: {e}"))?;
                    i += 2;
                }
                "--cost" => {
                    let v = value(args, i, "--cost")?;
                    cost = parse_cost(&v)?;
                    i += 2;
                }
                "--stats" => {
                    stats = Some(StatsFormat::Text);
                    i += 1;
                }
                "--timeout-ms" => {
                    timeout_ms = Some(
                        value(args, i, "--timeout-ms")?
                            .parse()
                            .map_err(|e| format!("--timeout-ms: {e}"))?,
                    );
                    i += 2;
                }
                "--max-node-visits" => {
                    let n: u64 = value(args, i, "--max-node-visits")?
                        .parse()
                        .map_err(|e| format!("--max-node-visits: {e}"))?;
                    if n == 0 {
                        return Err("--max-node-visits must be at least 1".into());
                    }
                    max_node_visits = Some(n);
                    i += 2;
                }
                "--threads" => {
                    threads = value(args, i, "--threads")?
                        .parse()
                        .map_err(|e| format!("--threads: {e}"))?;
                    if threads == 0 {
                        return Err("--threads must be at least 1".into());
                    }
                    i += 2;
                }
                "--help" | "-h" => return Err(USAGE.to_string()),
                other => {
                    if let Some(fmt) = other.strip_prefix("--stats=") {
                        stats = Some(match fmt {
                            "text" => StatsFormat::Text,
                            "json" => StatsFormat::Json,
                            bad => return Err(format!("--stats takes text or json, not {bad}")),
                        });
                        i += 1;
                        continue;
                    }
                    return Err(format!("unknown argument {other}\n{USAGE}"));
                }
            }
        }

        if threads > 1 && algorithm != Algorithm::Probing {
            return Err("--threads applies to --algorithm probing only".into());
        }

        Ok(Config {
            competitors: competitors.ok_or_else(|| format!("--competitors missing\n{USAGE}"))?,
            products: products.ok_or_else(|| format!("--products missing\n{USAGE}"))?,
            k,
            delimiter,
            header,
            columns,
            negate,
            normalize,
            algorithm,
            bound,
            mode,
            epsilon,
            cost,
            stats,
            timeout_ms,
            max_node_visits,
            threads,
        })
    }

    fn cost_fn(&self, dims: usize) -> SumCost {
        match self.cost {
            CostSpec::Reciprocal(eps) => SumCost::reciprocal(dims, eps),
            CostSpec::Linear(slope) => SumCost::new(
                (0..dims)
                    .map(|_| {
                        Box::new(LinearCost::new(1000.0 * slope, slope)) as Box<dyn AttributeCost>
                    })
                    .collect(),
            ),
        }
    }
}

fn parse_usize_list(v: &str) -> Result<Vec<usize>, String> {
    v.split(',')
        .map(|c| c.trim().parse::<usize>().map_err(|e| format!("{c}: {e}")))
        .collect()
}

fn parse_cost(v: &str) -> Result<CostSpec, String> {
    let (kind, param) = v
        .split_once(':')
        .ok_or("cost format: reciprocal:<eps> or linear:<slope>")?;
    let value: f64 = param.parse().map_err(|e| format!("cost parameter: {e}"))?;
    match kind {
        "reciprocal" => {
            if value <= 0.0 {
                return Err("reciprocal eps must be positive".into());
            }
            Ok(CostSpec::Reciprocal(value))
        }
        "linear" => {
            if value < 0.0 {
                return Err("linear slope must be non-negative".into());
            }
            Ok(CostSpec::Linear(value))
        }
        other => Err(format!("unknown cost kind {other}")),
    }
}

/// Loads one file per the config.
fn load(cfg: &Config, path: &std::path::Path) -> Result<PointStore, String> {
    let columns = if cfg.columns.is_empty() {
        // Default: every column of the first data line.
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        let mut lines = text.lines();
        if cfg.header {
            lines.next();
        }
        let first = lines
            .next()
            .ok_or_else(|| format!("{}: empty file", path.display()))?;
        (0..first.split(cfg.delimiter).count()).collect()
    } else {
        cfg.columns.clone()
    };
    read_delimited(path, cfg.delimiter, cfg.header, &columns)
        .map_err(|e| format!("{}: {e}", path.display()))
}

/// Runs the CLI end to end, returning the report text and how the
/// query completed ([`Completion::Partial`] when a `--timeout-ms` /
/// `--max-node-visits` budget fired; the results are then a valid
/// best-so-far answer). When `cfg.stats` is set, the instrumentation
/// report is appended in the requested format (for JSON, everything
/// from the first `{`-only line on is the document).
pub fn run(cfg: &Config) -> Result<(String, Completion), String> {
    let (mut out, metrics, completion) = run_with_metrics(cfg)?;
    if let Some(m) = &metrics {
        out.push('\n');
        match cfg.stats {
            Some(StatsFormat::Json) => {
                out.push_str(&m.to_json());
                out.push('\n');
            }
            _ => out.push_str(&m.render_text()),
        }
    }
    Ok((out, completion))
}

/// [`run`] without the report formatting: returns the top-k result
/// text, the raw [`QueryMetrics`] when `cfg.stats` is set (index
/// build, query phases, and every counter the chosen algorithm
/// touches), and the completion state.
pub fn run_with_metrics(
    cfg: &Config,
) -> Result<(String, Option<QueryMetrics>, Completion), String> {
    let mut p = load(cfg, &cfg.competitors)?;
    let mut t = load(cfg, &cfg.products)?;
    if p.dims() != t.dims() {
        return Err(format!(
            "dimensionality mismatch: P has {}, T has {}",
            p.dims(),
            t.dims()
        ));
    }
    if !cfg.negate.is_empty() {
        p = negate_dimensions(&p, &cfg.negate);
        t = negate_dimensions(&t, &cfg.negate);
    }
    if cfg.normalize {
        // Normalize jointly so P and T stay comparable.
        let dims = p.dims();
        let mut joint = PointStore::with_capacity(dims, p.len() + t.len());
        for (_, c) in p.iter().chain(t.iter()) {
            joint.push(c);
        }
        let normalized = normalize_unit(&joint);
        let mut np = PointStore::with_capacity(dims, p.len());
        let mut nt = PointStore::with_capacity(dims, t.len());
        for (i, (_, c)) in normalized.iter().enumerate() {
            if i < p.len() {
                np.push(c);
            } else {
                nt.push(c);
            }
        }
        p = np;
        t = nt;
    }

    let cost_fn = cfg.cost_fn(p.dims());
    let upgrade_cfg = UpgradeConfig::with_epsilon(cfg.epsilon);
    let mut metrics = cfg.stats.map(|_| QueryMetrics::new());
    let mut null = skyup_obs::NullRecorder;
    let rec: &mut dyn Recorder = match &mut metrics {
        Some(m) => m,
        None => &mut null,
    };

    // Basic probing and the join search an R-tree over P; the probe
    // executor needs only P's skyline.
    let index_p = |rec: &mut dyn Recorder| {
        timed(rec, Phase::IndexBuild, |_| {
            RTree::bulk_load(&p, RTreeParams::default())
        })
    };

    let limits = cfg.limits();
    let guarded = !limits.is_unlimited();
    let mut completion = Completion::Exact;
    // Basic probing and the join run their historical infallible entry
    // points without limits — output (and permissiveness, e.g. toward
    // an empty P) preserved bit for bit — and their fallible guarded
    // twins with limits. Probing always runs the probe executor.
    let results: Vec<UpgradeResult> = match cfg.algorithm {
        Algorithm::Basic if guarded => {
            let rp = index_p(rec);
            let out =
                try_basic_probing_topk(&p, &rp, &t, cfg.k, &cost_fn, &upgrade_cfg, &limits, rec)
                    .map_err(|e| e.to_string())?;
            completion = out.completion;
            out.results
        }
        Algorithm::Basic => {
            let rp = index_p(rec);
            basic_probing_topk_rec(&p, &rp, &t, cfg.k, &cost_fn, &upgrade_cfg, rec)
        }
        Algorithm::Probing => {
            let opts = ProbeOptions {
                threads: cfg.threads,
                limits,
            };
            let out = probe_topk(&p, &t, cfg.k, &cost_fn, &upgrade_cfg, &opts, rec)
                .map_err(|e| e.to_string())?;
            completion = out.completion;
            out.results
        }
        Algorithm::Join => {
            let rp = index_p(rec);
            let rt = timed(rec, Phase::IndexBuild, |_| {
                RTree::bulk_load(&t, RTreeParams::default())
            });
            if guarded {
                let mut join =
                    JoinUpgrader::try_new(&p, &rp, &t, &rt, &cost_fn, upgrade_cfg, cfg.bound)
                        .map_err(|e| e.to_string())?;
                if cfg.mode == BoundMode::Admissible {
                    join = join.with_bound_mode(BoundMode::Admissible);
                }
                let mut join = join.with_limits(&limits);
                let out = join.collect_topk(cfg.k);
                rec.absorb(join.metrics());
                completion = out.completion;
                out.results
            } else {
                let mut join =
                    JoinUpgrader::new(&p, &rp, &t, &rt, &cost_fn, upgrade_cfg, cfg.bound);
                if cfg.mode == BoundMode::Admissible {
                    join = join.with_bound_mode(BoundMode::Admissible);
                }
                let results: Vec<UpgradeResult> = join.by_ref().take(cfg.k).collect();
                rec.absorb(join.metrics());
                results
            }
        }
    };

    let mut out = String::new();
    let _ = writeln!(
        out,
        "|P| = {}, |T| = {}, d = {}, algorithm = {:?}, k = {}",
        p.len(),
        t.len(),
        p.dims(),
        cfg.algorithm,
        cfg.k
    );
    if results.is_empty() {
        let _ = writeln!(out, "no products to upgrade");
    }
    for (rank, r) in results.iter().enumerate() {
        let _ = writeln!(
            out,
            "#{} product {} cost {:.6}\n    from {:?}\n    to   {:?}",
            rank + 1,
            r.product,
            r.cost,
            r.original,
            r.upgraded
        );
    }
    if guarded {
        let _ = writeln!(out, "completion: {completion}");
    }
    Ok((out, metrics, completion))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(|w| w.to_string()).collect()
    }

    #[test]
    fn parse_minimal() {
        let cfg = Config::parse(&args("--competitors p.csv --products t.csv")).unwrap();
        assert_eq!(cfg.k, 3);
        assert_eq!(cfg.algorithm, Algorithm::Join);
        assert_eq!(cfg.bound, LowerBound::Conservative);
        assert_eq!(cfg.mode, BoundMode::Paper);
        assert_eq!(cfg.cost, CostSpec::Reciprocal(1e-3));
        assert_eq!(cfg.timeout_ms, None);
        assert_eq!(cfg.max_node_visits, None);
        assert!(cfg.limits().is_unlimited());
    }

    #[test]
    fn parse_limit_flags() {
        let cfg = Config::parse(&args(
            "--competitors p.csv --products t.csv --timeout-ms 250 --max-node-visits 1000",
        ))
        .unwrap();
        assert_eq!(cfg.timeout_ms, Some(250));
        assert_eq!(cfg.max_node_visits, Some(1000));
        assert!(!cfg.limits().is_unlimited());
        assert!(Config::parse(&args("--competitors p --products t --max-node-visits 0")).is_err());
        assert!(Config::parse(&args("--competitors p --products t --timeout-ms abc")).is_err());
    }

    #[test]
    fn parse_full() {
        let cfg = Config::parse(&args(
            "--competitors p.csv --products t.csv -k 7 --delimiter ; --header \
             --columns 0,2,3 --negate 1 --normalize --algorithm probing \
             --bound alb --admissible --epsilon 0.5 --cost linear:2.5",
        ))
        .unwrap();
        assert_eq!(cfg.k, 7);
        assert_eq!(cfg.delimiter, ';');
        assert!(cfg.header);
        assert_eq!(cfg.columns, vec![0, 2, 3]);
        assert_eq!(cfg.negate, vec![1]);
        assert!(cfg.normalize);
        assert_eq!(cfg.algorithm, Algorithm::Probing);
        assert_eq!(cfg.bound, LowerBound::Aggressive);
        assert_eq!(cfg.mode, BoundMode::Admissible);
        assert_eq!(cfg.epsilon, 0.5);
        assert_eq!(cfg.cost, CostSpec::Linear(2.5));
    }

    #[test]
    fn parse_stats_flag() {
        let base = "--competitors p.csv --products t.csv";
        assert_eq!(Config::parse(&args(base)).unwrap().stats, None);
        assert_eq!(
            Config::parse(&args(&format!("{base} --stats")))
                .unwrap()
                .stats,
            Some(StatsFormat::Text)
        );
        assert_eq!(
            Config::parse(&args(&format!("{base} --stats=text")))
                .unwrap()
                .stats,
            Some(StatsFormat::Text)
        );
        assert_eq!(
            Config::parse(&args(&format!("{base} --stats=json")))
                .unwrap()
                .stats,
            Some(StatsFormat::Json)
        );
        assert!(Config::parse(&args(&format!("{base} --stats=yaml"))).is_err());
    }

    #[test]
    fn parse_threads_flag() {
        let base = "--competitors p.csv --products t.csv";
        assert_eq!(Config::parse(&args(base)).unwrap().threads, 1);
        let cfg = Config::parse(&args(&format!("{base} --algorithm probing --threads 4"))).unwrap();
        assert_eq!(cfg.threads, 4);
        assert!(Config::parse(&args(&format!("{base} --threads 0"))).is_err());
        // The scheduler is a probing extension; other algorithms are
        // single-threaded.
        assert!(Config::parse(&args(&format!("{base} --algorithm join --threads 4"))).is_err());
        assert!(Config::parse(&args(&format!("{base} --threads 4"))).is_err());
    }

    #[test]
    fn threaded_probing_matches_sequential_output() {
        let dir = std::env::temp_dir().join("skyup-cli-threads");
        std::fs::create_dir_all(&dir).unwrap();
        let p_path = dir.join("p.csv");
        let t_path = dir.join("t.csv");
        let mut state = 0x7177_u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        let mut p_text = String::new();
        for _ in 0..300 {
            p_text.push_str(&format!("{},{}\n", next(), next()));
        }
        let mut t_text = String::new();
        for _ in 0..40 {
            t_text.push_str(&format!("{},{}\n", 0.3 + next(), 0.3 + next()));
        }
        std::fs::write(&p_path, p_text).unwrap();
        std::fs::write(&t_path, t_text).unwrap();
        let base = format!(
            "--competitors {} --products {} -k 5 --algorithm probing --cost linear:1.0",
            p_path.display(),
            t_path.display()
        );
        let seq = run(&Config::parse(&args(&base)).unwrap()).unwrap().0;
        for threads in [2, 4] {
            let par = run(&Config::parse(&args(&format!("{base} --threads {threads}"))).unwrap())
                .unwrap()
                .0;
            assert_eq!(seq, par, "threads={threads}");
        }
        // Guarded + threaded: a generous budget completes exactly.
        let (report, completion) = run(&Config::parse(&args(&format!(
            "{base} --threads 4 --max-node-visits 1000000"
        )))
        .unwrap())
        .unwrap();
        assert!(completion.is_exact());
        assert!(report.contains("completion: exact"));
        std::fs::remove_file(&p_path).ok();
        std::fs::remove_file(&t_path).ok();
    }

    #[test]
    fn parse_errors() {
        assert!(Config::parse(&args("--products t.csv")).is_err());
        assert!(Config::parse(&args("--competitors p --products t -k 0")).is_err());
        assert!(Config::parse(&args("--competitors p --products t --bound zzz")).is_err());
        assert!(Config::parse(&args("--competitors p --products t --cost bogus")).is_err());
        assert!(Config::parse(&args("--competitors p --products t --what")).is_err());
    }

    #[test]
    fn end_to_end_run() {
        let dir = std::env::temp_dir().join("skyup-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let p_path = dir.join("p.csv");
        let t_path = dir.join("t.csv");
        std::fs::write(&p_path, "0.2,0.8\n0.5,0.5\n0.8,0.2\n").unwrap();
        std::fs::write(&t_path, "0.9,0.9\n0.6,0.7\n").unwrap();
        let cfg = Config::parse(&args(&format!(
            "--competitors {} --products {} -k 2 --admissible",
            p_path.display(),
            t_path.display()
        )))
        .unwrap();
        let (report, completion) = run(&cfg).unwrap();
        assert!(report.contains("|P| = 3, |T| = 2"));
        assert!(report.contains("#1 product"));
        assert!(report.contains("#2 product"));
        // Unlimited runs are exact and keep their historical output:
        // no completion line.
        assert!(completion.is_exact());
        assert!(!report.contains("completion:"));
        std::fs::remove_file(&p_path).ok();
        std::fs::remove_file(&t_path).ok();
    }

    #[test]
    fn guarded_run_reports_completion() {
        let dir = std::env::temp_dir().join("skyup-cli-guarded");
        std::fs::create_dir_all(&dir).unwrap();
        let p_path = dir.join("p.csv");
        let t_path = dir.join("t.csv");
        std::fs::write(&p_path, "0.2,0.8\n0.5,0.5\n0.8,0.2\n").unwrap();
        std::fs::write(&t_path, "0.9,0.9\n0.6,0.7\n").unwrap();
        let base = format!(
            "--competitors {} --products {} -k 2",
            p_path.display(),
            t_path.display()
        );

        for algo in ["basic", "probing", "join"] {
            // Generous budget: the guarded twin completes exactly and
            // says so.
            let cfg = Config::parse(&args(&format!(
                "{base} --algorithm {algo} --max-node-visits 100000"
            )))
            .unwrap();
            let (report, completion) = run(&cfg).unwrap();
            assert!(completion.is_exact(), "{algo}");
            assert!(report.contains("completion: exact"), "{algo}: {report}");

            // One node visit: the query degrades to a partial answer
            // instead of failing.
            let cfg = Config::parse(&args(&format!(
                "{base} --algorithm {algo} --max-node-visits 1"
            )))
            .unwrap();
            let (report, completion) = run(&cfg).unwrap();
            assert!(!completion.is_exact(), "{algo}");
            assert!(
                report.contains("completion: partial (node visit budget exhausted)"),
                "{algo}: {report}"
            );
        }
        std::fs::remove_file(&p_path).ok();
        std::fs::remove_file(&t_path).ok();
    }

    #[test]
    fn stats_report_appended_and_json_round_trips() {
        let dir = std::env::temp_dir().join("skyup-cli-stats");
        std::fs::create_dir_all(&dir).unwrap();
        let p_path = dir.join("p.csv");
        let t_path = dir.join("t.csv");
        std::fs::write(&p_path, "0.2,0.8\n0.5,0.5\n0.8,0.2\n").unwrap();
        std::fs::write(&t_path, "0.9,0.9\n0.6,0.7\n").unwrap();
        let base = format!(
            "--competitors {} --products {} -k 2",
            p_path.display(),
            t_path.display()
        );

        for algo in ["basic", "probing", "join"] {
            // Text report: phase table plus non-zero counters.
            let text =
                run(&Config::parse(&args(&format!("{base} --algorithm {algo} --stats"))).unwrap())
                    .unwrap()
                    .0;
            assert!(text.contains("phase"), "{algo}: {text}");
            // The probe executor builds no R-tree; its one-off structure
            // is P's skyline, timed as `dominating_sky`.
            let setup_phase = if algo == "probing" {
                "dominating_sky"
            } else {
                "index_build"
            };
            assert!(text.contains(setup_phase), "{algo}: {text}");
            assert!(text.contains("results_emitted"), "{algo}: {text}");

            // JSON report: everything from the first `{` line on parses
            // back and carries the schema marker and counters.
            let out = run(&Config::parse(&args(&format!(
                "{base} --algorithm {algo} --stats=json"
            )))
            .unwrap())
            .unwrap()
            .0;
            let start = out.find("\n{\n").expect("JSON document present") + 1;
            let doc = skyup_obs::json::parse(&out[start..]).expect("valid JSON");
            assert_eq!(
                doc.get("schema").and_then(|s| s.as_str()),
                Some(skyup_obs::report::SCHEMA),
                "{algo}"
            );
            let counters = doc.get("counters").expect("counters object");
            assert_eq!(
                counters.get("results_emitted").and_then(|v| v.as_u64()),
                Some(2),
                "{algo}"
            );
            assert!(
                doc.get("phases")
                    .and_then(|p| p.get("index_build"))
                    .is_some(),
                "{algo}"
            );
        }
        std::fs::remove_file(&p_path).ok();
        std::fs::remove_file(&t_path).ok();
    }

    #[test]
    fn algorithms_agree_through_cli() {
        let dir = std::env::temp_dir().join("skyup-cli-agree");
        std::fs::create_dir_all(&dir).unwrap();
        let p_path = dir.join("p.csv");
        let t_path = dir.join("t.csv");
        let mut p_text = String::new();
        let mut state = 0x5eed_u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        for _ in 0..200 {
            p_text.push_str(&format!("{},{}\n", next(), next()));
        }
        let mut t_text = String::new();
        for _ in 0..30 {
            t_text.push_str(&format!("{},{}\n", 1.0 + next(), 1.0 + next()));
        }
        std::fs::write(&p_path, p_text).unwrap();
        std::fs::write(&t_path, t_text).unwrap();

        let base = format!(
            "--competitors {} --products {} -k 3",
            p_path.display(),
            t_path.display()
        );
        let join =
            run(&Config::parse(&args(&format!("{base} --algorithm join --admissible"))).unwrap())
                .unwrap()
                .0;
        let probing = run(&Config::parse(&args(&format!("{base} --algorithm probing"))).unwrap())
            .unwrap()
            .0;
        let basic = run(&Config::parse(&args(&format!("{base} --algorithm basic"))).unwrap())
            .unwrap()
            .0;
        // Reports list identical products in identical order (cost lines
        // include the algorithm-independent exact costs).
        let pick = |s: &str| -> Vec<String> {
            s.lines()
                .filter(|l| l.starts_with('#'))
                .map(|l| l.to_string())
                .collect()
        };
        assert_eq!(pick(&join), pick(&probing));
        assert_eq!(pick(&probing), pick(&basic));
        std::fs::remove_file(&p_path).ok();
        std::fs::remove_file(&t_path).ok();
    }
}
