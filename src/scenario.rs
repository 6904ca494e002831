//! The `skyup test --suite <dir>` scenario harness: declarative
//! regression scenarios as small TOML or JSON files.
//!
//! Each scenario declares a competitor dataset (inline rows or a
//! CSV/NDJSON file reference loaded through
//! [`skyup_data::ingest`](fn@skyup_data::ingest)), an optional mutation
//! script (add / remove / remove_range ops against the serving engine),
//! a query (products, `k`, cost, budgets), and the expected outcome (an
//! error substring, completion kind, evaluated count, and the top-k
//! answers with per-entry cost tolerances).
//!
//! The harness runs every scenario through the library
//! ([`skyup_serve::Engine`] + [`skyup_serve::execute_query`] — the same
//! code path `skyup serve` executes); with `--serve` each scenario is
//! additionally replayed against a real `skyup serve` child process
//! over the NDJSON wire protocol, so the wire encode/decode path is
//! covered too.
//!
//! Exit codes: `0` — every scenario passed; `1` — any scenario failed
//! (or the suite itself is broken: unreadable dir, malformed scenario
//! file); `2` — every executed scenario passed but at least one was
//! skipped (a `serve_only` scenario without `--serve`).

use skyup_data::ingest::{Format, Frame, IngestOptions, NullPolicy};
use skyup_geom::PointStore;
use skyup_obs::json::Json;
use skyup_obs::{Counter, QueryMetrics, Recorder};
use skyup_serve::proto::parse_cost;
use skyup_serve::server::CostSpec;
use skyup_serve::{execute_query, Engine, EngineConfig, Mutation, QueryRequest, QueryResponse};
use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::time::Duration;

use crate::toml_lite::parse_toml;

/// Usage text for `skyup test`, appended to the main help.
pub const TEST_USAGE: &str = "\
test subcommand:
  skyup test --suite <dir> [--serve]
    --suite <dir>          directory of *.toml / *.json scenario files
                           (walked in name order; other extensions and
                           subdirectories are data, not scenarios)
    --serve                additionally replay each scenario against a
                           real `skyup serve` child process over the
                           wire protocol; scenarios marked
                           `serve_only = true` run instead of skipping
    prints one PASS/FAIL/SKIP line per scenario and a summary line
    exit codes: 0 = all passed, 2 = all passed but some skipped,
    1 = any failure (or a broken suite/scenario file)
";

/// A mutation step of a scenario's `[[ops]]` script.
#[derive(Clone, Debug, PartialEq)]
pub enum OpKind {
    /// Add a competitor at these coordinates.
    Add(Vec<f64>),
    /// Remove one competitor id.
    Remove(u64),
    /// Remove the half-open id range `[start, end)`.
    RemoveRange(u64, u64),
}

/// One op plus its optional assertion.
#[derive(Clone, Debug, PartialEq)]
pub struct Op {
    /// What to mutate.
    pub kind: OpKind,
    /// When set, whether applying this op must (or must not) have
    /// triggered an STR rebuild. For `remove_range`, "any removal in
    /// the range rebuilt".
    pub expect_rebuilt: Option<bool>,
}

/// Where a scenario's competitor set comes from.
#[derive(Clone, Debug)]
pub enum Dataset {
    /// Rows written directly in the scenario file.
    Inline(Vec<Vec<f64>>),
    /// A CSV/NDJSON file loaded through the ingest pipeline, relative
    /// to the scenario file.
    File {
        /// The referenced path as written in the scenario.
        path: PathBuf,
        /// Loader options (format pin, delimiter, header, columns,
        /// negate, null policy).
        opts: IngestOptions,
        /// Optional normalization frame applied after loading.
        frame: Option<Frame>,
    },
}

/// The scenario's query, mirroring the wire protocol's `query` op.
#[derive(Clone, Debug)]
pub struct Query {
    /// Products to evaluate.
    pub products: Vec<Vec<f64>>,
    /// Top-k size.
    pub k: usize,
    /// Cost function (the CLI's `reciprocal:<eps>` / `linear:<slope>`).
    pub cost: CostSpec,
    /// Optional product-count budget.
    pub max_products: Option<u64>,
    /// Optional wall-clock deadline in milliseconds.
    pub deadline_ms: Option<u64>,
}

/// One expected top-k entry.
#[derive(Clone, Debug)]
pub struct ExpectedAnswer {
    /// Index into `query.products`.
    pub index: usize,
    /// Expected minimal upgrade cost.
    pub cost: f64,
    /// Absolute tolerance on the cost (default `1e-6`).
    pub tol: f64,
    /// Expected upgraded coordinates, compared under `tol` per axis.
    pub upgraded: Option<Vec<f64>>,
}

/// The `[expect]` section.
#[derive(Clone, Debug, Default)]
pub struct Expect {
    /// The scenario must fail with an error whose message contains this
    /// substring (dataset load or query execution).
    pub error: Option<String>,
    /// `"exact"` or `"partial"`.
    pub completion: Option<String>,
    /// Exact number of products fully processed.
    pub evaluated: Option<u64>,
    /// The full expected result list, in rank order. When present the
    /// response must have exactly this many results.
    pub top: Option<Vec<ExpectedAnswer>>,
}

/// A parsed scenario file.
#[derive(Clone, Debug)]
pub struct Scenario {
    /// Display name (the `name` key, defaulting to the file stem).
    pub name: String,
    /// Only meaningful under `--serve`; skipped (exit 2) otherwise.
    pub serve_only: bool,
    /// The competitor set.
    pub dataset: Dataset,
    /// Mutation script, applied in order before the query.
    pub ops: Vec<Op>,
    /// The query, if any (ops-only scenarios are legal).
    pub query: Option<Query>,
    /// Expected outcome.
    pub expect: Expect,
}

// ---------------------------------------------------------------------
// Decoding (shared by TOML and JSON scenario files)
// ---------------------------------------------------------------------

fn num(v: &Json, what: &str) -> Result<f64, String> {
    v.as_f64().ok_or_else(|| format!("{what} must be a number"))
}

fn uint(v: &Json, what: &str) -> Result<u64, String> {
    v.as_u64()
        .ok_or_else(|| format!("{what} must be a non-negative integer"))
}

fn point(v: &Json, what: &str) -> Result<Vec<f64>, String> {
    match v {
        Json::Arr(items) => items.iter().map(|x| num(x, what)).collect(),
        _ => Err(format!("{what} must be an array of numbers")),
    }
}

fn rows(v: &Json, what: &str) -> Result<Vec<Vec<f64>>, String> {
    match v {
        Json::Arr(items) => items.iter().map(|r| point(r, what)).collect(),
        _ => Err(format!("{what} must be an array of rows")),
    }
}

fn usize_list(v: &Json, what: &str) -> Result<Vec<usize>, String> {
    match v {
        Json::Arr(items) => items
            .iter()
            .map(|x| uint(x, what).map(|n| n as usize))
            .collect(),
        _ => Err(format!("{what} must be an array of column indexes")),
    }
}

fn bool_key(doc: &Json, key: &str) -> Result<Option<bool>, String> {
    match doc.get(key) {
        None => Ok(None),
        Some(Json::Bool(b)) => Ok(Some(*b)),
        Some(_) => Err(format!("`{key}` must be a boolean")),
    }
}

/// Decodes a scenario from its parsed document. `stem` is the file
/// stem used as the default name.
pub fn decode_scenario(doc: &Json, stem: &str) -> Result<Scenario, String> {
    let name = doc
        .get("name")
        .map(|v| {
            v.as_str()
                .map(str::to_string)
                .ok_or("`name` must be a string")
        })
        .transpose()?
        .unwrap_or_else(|| stem.to_string());
    let serve_only = bool_key(doc, "serve_only")?.unwrap_or(false);

    let dataset_doc = doc.get("dataset").ok_or("missing [dataset] section")?;
    let dataset = decode_dataset(dataset_doc)?;

    let mut ops = Vec::new();
    if let Some(v) = doc.get("ops") {
        let Json::Arr(items) = v else {
            return Err("`ops` must be an array of tables".into());
        };
        for (i, item) in items.iter().enumerate() {
            ops.push(decode_op(item).map_err(|e| format!("ops[{i}]: {e}"))?);
        }
    }

    let query = doc.get("query").map(decode_query).transpose()?;
    let expect = doc
        .get("expect")
        .map(decode_expect)
        .transpose()?
        .unwrap_or_default();

    if query.is_none() && expect.error.is_none() && ops.iter().all(|o| o.expect_rebuilt.is_none()) {
        return Err("scenario asserts nothing: add [query]/[expect] or an op assertion".into());
    }
    Ok(Scenario {
        name,
        serve_only,
        dataset,
        ops,
        query,
        expect,
    })
}

fn decode_dataset(doc: &Json) -> Result<Dataset, String> {
    match (doc.get("competitors"), doc.get("file")) {
        (Some(_), Some(_)) => Err("dataset has both `competitors` and `file`".into()),
        (Some(inline), None) => {
            let rows = rows(inline, "dataset.competitors")?;
            if rows.is_empty() {
                return Err("dataset.competitors must not be empty".into());
            }
            Ok(Dataset::Inline(rows))
        }
        (None, Some(file)) => {
            let path = PathBuf::from(file.as_str().ok_or("dataset.file must be a string")?);
            let mut opts = IngestOptions::default();
            if let Some(v) = doc.get("format") {
                opts.format = Some(match v.as_str() {
                    Some("csv") => Format::Csv,
                    Some("ndjson") | Some("jsonl") => Format::Ndjson,
                    _ => return Err("dataset.format must be \"csv\" or \"ndjson\"".into()),
                });
            }
            if let Some(v) = doc.get("delimiter") {
                let s = v.as_str().unwrap_or_default();
                let mut chars = s.chars();
                opts.delimiter = Some(
                    chars
                        .next()
                        .filter(|_| chars.next().is_none())
                        .ok_or("dataset.delimiter must be a single character")?,
                );
            }
            opts.header = bool_key(doc, "header")?;
            if let Some(v) = doc.get("columns") {
                opts.columns = usize_list(v, "dataset.columns")?;
            }
            if let Some(v) = doc.get("negate") {
                opts.negate = usize_list(v, "dataset.negate")?;
            }
            if bool_key(doc, "lenient")?.unwrap_or(false) {
                opts.null_policy = NullPolicy::CountAndSkipRow;
            }
            let frame = match doc.get("frame") {
                None => None,
                Some(v) => Some(match v.as_str() {
                    Some("unit") => Frame::Unit,
                    Some("products") => Frame::Products,
                    _ => return Err("dataset.frame must be \"unit\" or \"products\"".into()),
                }),
            };
            Ok(Dataset::File { path, opts, frame })
        }
        (None, None) => Err("dataset needs `competitors` (inline rows) or `file`".into()),
    }
}

fn decode_op(doc: &Json) -> Result<Op, String> {
    let kind = match (doc.get("add"), doc.get("remove"), doc.get("remove_range")) {
        (Some(p), None, None) => OpKind::Add(point(p, "add")?),
        (None, Some(cid), None) => OpKind::Remove(uint(cid, "remove")?),
        (None, None, Some(range)) => {
            let Json::Arr(bounds) = range else {
                return Err("remove_range must be [start, end)".into());
            };
            let [start, end] = bounds.as_slice() else {
                return Err("remove_range must be [start, end)".into());
            };
            let (start, end) = (uint(start, "remove_range")?, uint(end, "remove_range")?);
            if start >= end {
                return Err("remove_range needs start < end".into());
            }
            OpKind::RemoveRange(start, end)
        }
        _ => return Err("op needs exactly one of `add`, `remove`, `remove_range`".into()),
    };
    Ok(Op {
        kind,
        expect_rebuilt: bool_key(doc, "expect_rebuilt")?,
    })
}

fn decode_query(doc: &Json) -> Result<Query, String> {
    let products = rows(
        doc.get("products").ok_or("query needs `products`")?,
        "query.products",
    )?;
    let k = doc
        .get("k")
        .map(|v| uint(v, "query.k"))
        .transpose()?
        .unwrap_or(1) as usize;
    if k == 0 {
        return Err("query.k must be at least 1".into());
    }
    let cost = match doc.get("cost") {
        None => CostSpec::default(),
        Some(v) => parse_cost(v.as_str().ok_or("query.cost must be a string")?)?,
    };
    let max_products = doc
        .get("max_products")
        .map(|v| uint(v, "query.max_products"))
        .transpose()?;
    let deadline_ms = doc
        .get("deadline_ms")
        .map(|v| uint(v, "query.deadline_ms"))
        .transpose()?;
    Ok(Query {
        products,
        k,
        cost,
        max_products,
        deadline_ms,
    })
}

fn decode_expect(doc: &Json) -> Result<Expect, String> {
    let error = doc
        .get("error")
        .map(|v| {
            v.as_str()
                .map(str::to_string)
                .ok_or("expect.error must be a string")
        })
        .transpose()?;
    let completion = match doc.get("completion") {
        None => None,
        Some(v) => match v.as_str() {
            Some(c @ ("exact" | "partial")) => Some(c.to_string()),
            _ => return Err("expect.completion must be \"exact\" or \"partial\"".into()),
        },
    };
    let evaluated = doc
        .get("evaluated")
        .map(|v| uint(v, "expect.evaluated"))
        .transpose()?;
    let top = match doc.get("top") {
        None => None,
        Some(Json::Arr(items)) => {
            let mut out = Vec::with_capacity(items.len());
            for item in items {
                let index = uint(
                    item.get("index").ok_or("expect.top entries need `index`")?,
                    "expect.top.index",
                )? as usize;
                let cost = num(
                    item.get("cost").ok_or("expect.top entries need `cost`")?,
                    "expect.top.cost",
                )?;
                let tol = item
                    .get("tol")
                    .map(|v| num(v, "expect.top.tol"))
                    .transpose()?
                    .unwrap_or(1e-6);
                let upgraded = item
                    .get("upgraded")
                    .map(|v| point(v, "expect.top.upgraded"))
                    .transpose()?;
                out.push(ExpectedAnswer {
                    index,
                    cost,
                    tol,
                    upgraded,
                });
            }
            Some(out)
        }
        Some(_) => return Err("expect.top must be an array of tables".into()),
    };
    Ok(Expect {
        error,
        completion,
        evaluated,
        top,
    })
}

/// Parses a scenario file (`.toml` or `.json`, by extension).
pub fn load_scenario(path: &Path) -> Result<Scenario, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let stem = path
        .file_stem()
        .and_then(|s| s.to_str())
        .unwrap_or("scenario");
    let doc = match path.extension().and_then(|e| e.to_str()) {
        Some("json") => {
            skyup_obs::json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?
        }
        _ => parse_toml(&text).map_err(|e| format!("{}: {e}", path.display()))?,
    };
    decode_scenario(&doc, stem).map_err(|e| format!("{}: {e}", path.display()))
}

// ---------------------------------------------------------------------
// Execution
// ---------------------------------------------------------------------

/// How one scenario ended.
#[derive(Clone, Debug, PartialEq)]
pub enum RunStatus {
    /// Passed; the string is a short description for the PASS line.
    Pass(String),
    /// Failed; each string is one mismatch.
    Fail(Vec<String>),
    /// Not executed (serve_only without `--serve`).
    Skip(String),
}

/// Resolves the scenario's competitor set (inline or ingested file).
/// `base` is the scenario file's directory for relative references.
fn load_dataset(
    scenario: &Scenario,
    base: &Path,
    rec: &mut dyn Recorder,
) -> Result<PointStore, String> {
    match &scenario.dataset {
        Dataset::Inline(rows) => {
            let dims = rows[0].len();
            for (i, r) in rows.iter().enumerate() {
                if r.len() != dims {
                    return Err(format!(
                        "dataset.competitors[{i}] has {} coordinates, expected {dims}",
                        r.len()
                    ));
                }
            }
            Ok(PointStore::from_rows(dims, rows.clone()))
        }
        Dataset::File { path, opts, frame } => {
            let resolved = if path.is_absolute() {
                path.clone()
            } else {
                base.join(path)
            };
            let ingested = skyup_data::ingest(&resolved, opts, rec).map_err(|e| e.to_string())?;
            Ok(match frame {
                Some(f) => skyup_data::normalize_frame(&ingested.store, *f),
                None => ingested.store,
            })
        }
    }
}

/// The answer shape both execution modes reduce to before comparison.
struct Observed {
    completion: String,
    evaluated: u64,
    results: Vec<(usize, f64, Vec<f64>)>,
}

impl Observed {
    fn from_response(resp: &QueryResponse) -> Observed {
        Observed {
            completion: if resp.completion.is_exact() {
                "exact".into()
            } else {
                "partial".into()
            },
            evaluated: resp.evaluated as u64,
            results: resp
                .results
                .iter()
                .map(|r| (r.index, r.cost, r.upgraded.clone()))
                .collect(),
        }
    }
}

fn check_expect(expect: &Expect, obs: &Observed, mode: &str, failures: &mut Vec<String>) {
    if let Some(want) = &expect.completion {
        if *want != obs.completion {
            failures.push(format!(
                "{mode}: expected completion {want}, got {}",
                obs.completion
            ));
        }
    }
    if let Some(want) = expect.evaluated {
        if want != obs.evaluated {
            failures.push(format!(
                "{mode}: expected evaluated {want}, got {}",
                obs.evaluated
            ));
        }
    }
    if let Some(top) = &expect.top {
        if top.len() != obs.results.len() {
            failures.push(format!(
                "{mode}: expected {} results, got {}",
                top.len(),
                obs.results.len()
            ));
        }
        for (rank, (want, got)) in top.iter().zip(&obs.results).enumerate() {
            let (index, cost, upgraded) = got;
            if want.index != *index {
                failures.push(format!(
                    "{mode}: rank {rank}: expected product {}, got {}",
                    want.index, index
                ));
            }
            if (want.cost - cost).abs() > want.tol {
                failures.push(format!(
                    "{mode}: rank {rank}: expected cost {} (tol {}), got {}",
                    want.cost, want.tol, cost
                ));
            }
            if let Some(coords) = &want.upgraded {
                let close = coords.len() == upgraded.len()
                    && coords
                        .iter()
                        .zip(upgraded)
                        .all(|(a, b)| (a - b).abs() <= want.tol);
                if !close {
                    failures.push(format!(
                        "{mode}: rank {rank}: expected upgraded {coords:?}, got {upgraded:?}"
                    ));
                }
            }
        }
    }
}

/// Expands `remove_range` and yields the scripted mutations with their
/// owning op index.
fn expanded_ops(ops: &[Op]) -> Vec<(usize, Mutation)> {
    let mut out = Vec::new();
    for (i, op) in ops.iter().enumerate() {
        match &op.kind {
            OpKind::Add(p) => out.push((i, Mutation::AddCompetitor(p.clone()))),
            OpKind::Remove(cid) => out.push((i, Mutation::RemoveCompetitor(*cid))),
            OpKind::RemoveRange(start, end) => {
                out.extend((*start..*end).map(|cid| (i, Mutation::RemoveCompetitor(cid))));
            }
        }
    }
    out
}

fn check_rebuilds(ops: &[Op], rebuilt_by_op: &[bool], mode: &str, failures: &mut Vec<String>) {
    for (i, op) in ops.iter().enumerate() {
        if let Some(want) = op.expect_rebuilt {
            if rebuilt_by_op[i] != want {
                failures.push(format!(
                    "{mode}: ops[{i}]: expected rebuilt={want}, got {}",
                    rebuilt_by_op[i]
                ));
            }
        }
    }
}

/// Runs one scenario through the in-process engine. `base` resolves
/// relative dataset files.
pub fn run_library(scenario: &Scenario, base: &Path, rec: &mut dyn Recorder) -> RunStatus {
    let mut failures = Vec::new();
    let store = match load_dataset(scenario, base, rec) {
        Ok(store) => {
            if let Some(want) = &scenario.expect.error {
                return RunStatus::Fail(vec![format!(
                    "expected an error containing {want:?}, but the dataset loaded"
                )]);
            }
            store
        }
        Err(msg) => {
            return match &scenario.expect.error {
                Some(want) if msg.contains(want.as_str()) => {
                    RunStatus::Pass(format!("rejected: {msg}"))
                }
                Some(want) => RunStatus::Fail(vec![format!(
                    "expected an error containing {want:?}, got: {msg}"
                )]),
                None => RunStatus::Fail(vec![msg]),
            };
        }
    };

    let competitors = store.len();
    let engine = Engine::with_competitors(store, EngineConfig::default());
    let mut rebuilt_by_op = vec![false; scenario.ops.len()];
    for (op_idx, mutation) in expanded_ops(&scenario.ops) {
        match engine.apply(mutation) {
            Ok(outcome) => rebuilt_by_op[op_idx] |= outcome.rebuilt,
            Err(e) => {
                return RunStatus::Fail(vec![format!("library: ops[{op_idx}]: {e}")]);
            }
        }
    }
    check_rebuilds(&scenario.ops, &rebuilt_by_op, "library", &mut failures);

    let mut summary = format!("{competitors} competitors");
    if let Some(query) = &scenario.query {
        let req = QueryRequest {
            products: query.products.clone(),
            k: query.k,
            cost: query.cost,
            max_products: query.max_products,
            deadline: query.deadline_ms.map(Duration::from_millis),
        };
        match execute_query(&engine, &req) {
            Ok(resp) => {
                let obs = Observed::from_response(&resp);
                summary = format!(
                    "{competitors} competitors, {} products, {}",
                    query.products.len(),
                    obs.completion
                );
                check_expect(&scenario.expect, &obs, "library", &mut failures);
            }
            Err(e) => failures.push(format!("library: query failed: {e}")),
        }
    }

    if failures.is_empty() {
        RunStatus::Pass(summary)
    } else {
        RunStatus::Fail(failures)
    }
}

// ---------------------------------------------------------------------
// Serve mode: replay against a real `skyup serve` child process
// ---------------------------------------------------------------------

/// A `skyup serve` child with its client connection; shut down on drop.
struct ServeChild {
    child: std::process::Child,
    client: skyup_serve::Client,
    seed_file: PathBuf,
}

impl ServeChild {
    /// Spawns the current executable as `skyup serve` over `store`.
    fn spawn(store: &PointStore, tag: &str) -> Result<ServeChild, String> {
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let seed_file =
            std::env::temp_dir().join(format!("skyup-scenario-{}-{tag}.csv", std::process::id()));
        skyup_data::write_delimited(&seed_file, store, ',')
            .map_err(|e| format!("{}: {e}", seed_file.display()))?;
        let mut child = std::process::Command::new(exe)
            .args([
                "serve",
                "--competitors",
                &seed_file.display().to_string(),
                "--port",
                "0",
            ])
            .stdout(std::process::Stdio::piped())
            .stderr(std::process::Stdio::null())
            .stdin(std::process::Stdio::null())
            .spawn()
            .map_err(|e| format!("spawning skyup serve: {e}"))?;
        let stdout = child.stdout.take().expect("piped stdout");
        let mut lines = BufReader::new(stdout).lines();
        let addr = loop {
            match lines.next() {
                Some(Ok(line)) => {
                    if let Some(addr) = line.strip_prefix("listening on ") {
                        break addr.trim().to_string();
                    }
                }
                Some(Err(e)) => {
                    let _ = child.kill();
                    return Err(format!("reading skyup serve stdout: {e}"));
                }
                None => {
                    let _ = child.kill();
                    return Err("skyup serve exited before listening".into());
                }
            }
        };
        let client = skyup_serve::Client::connect(&addr)?;
        Ok(ServeChild {
            child,
            client,
            seed_file,
        })
    }

    fn request(&mut self, line: &str) -> Result<Json, String> {
        let reply = self.client.request(line)?;
        let doc = skyup_obs::json::parse(&reply).map_err(|e| format!("bad reply: {e}"))?;
        if doc.get("ok") != Some(&Json::Bool(true)) {
            let err = doc
                .get("error")
                .and_then(|v| v.as_str())
                .unwrap_or("request rejected");
            return Err(err.to_string());
        }
        Ok(doc)
    }
}

impl Drop for ServeChild {
    fn drop(&mut self) {
        let _ = self.client.request("{\"op\":\"shutdown\"}");
        let _ = self.child.wait();
        let _ = std::fs::remove_file(&self.seed_file);
    }
}

fn render_point(p: &[f64]) -> Json {
    Json::Arr(p.iter().map(|v| Json::Num(*v)).collect())
}

fn query_request_json(q: &Query) -> String {
    let mut fields = vec![
        ("op", Json::Str("query".into())),
        (
            "products",
            Json::Arr(q.products.iter().map(|p| render_point(p)).collect()),
        ),
        ("k", Json::Uint(q.k as u64)),
        (
            "cost",
            Json::Str(match q.cost {
                CostSpec::Reciprocal(eps) => format!("reciprocal:{eps}"),
                CostSpec::Linear(slope) => format!("linear:{slope}"),
            }),
        ),
    ];
    if let Some(n) = q.max_products {
        fields.push(("max_products", Json::Uint(n)));
    }
    if let Some(ms) = q.deadline_ms {
        fields.push(("deadline_ms", Json::Uint(ms)));
    }
    Json::obj(fields).render()
}

fn observed_from_wire(doc: &Json) -> Result<Observed, String> {
    let completion = doc
        .get("completion")
        .and_then(|v| v.as_str())
        .ok_or("reply missing completion")?
        .to_string();
    let evaluated = doc
        .get("evaluated")
        .and_then(|v| v.as_u64())
        .ok_or("reply missing evaluated")?;
    let Some(Json::Arr(items)) = doc.get("results") else {
        return Err("reply missing results".into());
    };
    let mut results = Vec::with_capacity(items.len());
    for item in items {
        let index = item
            .get("index")
            .and_then(|v| v.as_u64())
            .ok_or("result missing index")? as usize;
        let cost = item
            .get("cost")
            .and_then(|v| v.as_f64())
            .ok_or("result missing cost")?;
        let upgraded = match item.get("upgraded") {
            Some(Json::Arr(coords)) => coords
                .iter()
                .map(|v| v.as_f64().ok_or("bad upgraded coordinate"))
                .collect::<Result<Vec<_>, _>>()?,
            _ => Vec::new(),
        };
        results.push((index, cost, upgraded));
    }
    Ok(Observed {
        completion,
        evaluated,
        results,
    })
}

/// Replays one scenario against a real `skyup serve` process. Error
/// scenarios have nothing to serve and pass through untouched.
pub fn run_serve_mode(scenario: &Scenario, base: &Path, rec: &mut dyn Recorder) -> RunStatus {
    if scenario.expect.error.is_some() {
        return RunStatus::Pass("error scenario: library mode covers it".into());
    }
    let store = match load_dataset(scenario, base, rec) {
        Ok(store) => store,
        Err(msg) => return RunStatus::Fail(vec![msg]),
    };
    let competitors = store.len();
    let tag: String = scenario
        .name
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '-' })
        .collect();
    let mut server = match ServeChild::spawn(&store, &tag) {
        Ok(s) => s,
        Err(msg) => return RunStatus::Fail(vec![format!("serve: {msg}")]),
    };

    let mut failures = Vec::new();
    let mut rebuilt_by_op = vec![false; scenario.ops.len()];
    for (op_idx, mutation) in expanded_ops(&scenario.ops) {
        let line = match &mutation {
            Mutation::AddCompetitor(p) => Json::obj(vec![
                ("op", Json::Str("add".into())),
                ("point", render_point(p)),
            ])
            .render(),
            Mutation::RemoveCompetitor(cid) => Json::obj(vec![
                ("op", Json::Str("remove".into())),
                ("cid", Json::Uint(*cid)),
            ])
            .render(),
            Mutation::AddCompetitorWithCid(..) => unreachable!("not scriptable"),
        };
        match server.request(&line) {
            Ok(doc) => {
                if doc.get("rebuilt") == Some(&Json::Bool(true)) {
                    rebuilt_by_op[op_idx] = true;
                }
            }
            Err(e) => return RunStatus::Fail(vec![format!("serve: ops[{op_idx}]: {e}")]),
        }
    }
    check_rebuilds(&scenario.ops, &rebuilt_by_op, "serve", &mut failures);

    let mut summary = format!("{competitors} competitors");
    if let Some(query) = &scenario.query {
        match server
            .request(&query_request_json(query))
            .and_then(|doc| observed_from_wire(&doc))
        {
            Ok(obs) => {
                summary = format!(
                    "{competitors} competitors, {} products, {}",
                    query.products.len(),
                    obs.completion
                );
                check_expect(&scenario.expect, &obs, "serve", &mut failures);
            }
            Err(e) => failures.push(format!("serve: query failed: {e}")),
        }
    }

    if failures.is_empty() {
        RunStatus::Pass(summary)
    } else {
        RunStatus::Fail(failures)
    }
}

// ---------------------------------------------------------------------
// The suite driver
// ---------------------------------------------------------------------

/// Collects `*.toml` / `*.json` scenario files of `dir`, name-sorted.
pub fn scenario_files(dir: &Path) -> Result<Vec<PathBuf>, String> {
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut files: Vec<PathBuf> = entries
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| {
            p.is_file()
                && matches!(
                    p.extension().and_then(|e| e.to_str()),
                    Some("toml") | Some("json")
                )
        })
        .collect();
    files.sort();
    if files.is_empty() {
        return Err(format!(
            "{}: no *.toml or *.json scenario files",
            dir.display()
        ));
    }
    Ok(files)
}

/// Runs `skyup test`. Returns the process exit code (0/1/2).
pub fn run_test(args: &[String]) -> Result<i32, String> {
    let mut suite: Option<PathBuf> = None;
    let mut serve = false;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--suite" => {
                suite = Some(PathBuf::from(
                    args.get(i + 1).ok_or("--suite needs a value")?,
                ));
                i += 2;
            }
            "--serve" => {
                serve = true;
                i += 1;
            }
            "--help" | "-h" => return Err(TEST_USAGE.to_string()),
            other => return Err(format!("unknown argument {other}\n{TEST_USAGE}")),
        }
    }
    let suite = suite.ok_or_else(|| format!("--suite missing\n{TEST_USAGE}"))?;
    let mut out = std::io::stdout().lock();
    let code = run_suite(&suite, serve, &mut out).map_err(|e| e.to_string())?;
    Ok(code)
}

/// Runs every scenario of `dir`, writing one line per scenario plus a
/// summary to `out`. Returns the exit code per the 0/1/2 contract.
pub fn run_suite(dir: &Path, serve: bool, out: &mut dyn Write) -> std::io::Result<i32> {
    let files = match scenario_files(dir) {
        Ok(files) => files,
        Err(msg) => {
            writeln!(out, "error: {msg}")?;
            return Ok(1);
        }
    };
    let base = dir;
    let mut metrics = QueryMetrics::new();
    let (mut passed, mut failed, mut skipped) = (0u64, 0u64, 0u64);
    for path in &files {
        let display = path
            .file_name()
            .and_then(|n| n.to_str())
            .unwrap_or("scenario");
        let scenario = match load_scenario(path) {
            Ok(s) => s,
            Err(msg) => {
                failed += 1;
                writeln!(out, "FAIL {display}")?;
                writeln!(out, "     {msg}")?;
                continue;
            }
        };
        if scenario.serve_only && !serve {
            skipped += 1;
            writeln!(out, "SKIP {display} (needs --serve)")?;
            continue;
        }
        metrics.bump(Counter::ScenariosRun);
        let mut status = run_library(&scenario, base, &mut metrics);
        if serve {
            if let RunStatus::Pass(_) = &status {
                status = run_serve_mode(&scenario, base, &mut metrics);
            }
        }
        match status {
            RunStatus::Pass(summary) => {
                passed += 1;
                writeln!(out, "PASS {display} ({summary})")?;
            }
            RunStatus::Fail(reasons) => {
                failed += 1;
                writeln!(out, "FAIL {display}")?;
                for reason in reasons {
                    writeln!(out, "     {reason}")?;
                }
            }
            RunStatus::Skip(reason) => {
                skipped += 1;
                writeln!(out, "SKIP {display} ({reason})")?;
            }
        }
    }
    writeln!(
        out,
        "\nsuite: {passed} passed, {failed} failed, {skipped} skipped ({} scenarios run)",
        metrics.get(Counter::ScenariosRun)
    )?;
    Ok(if failed > 0 {
        1
    } else if skipped > 0 {
        2
    } else {
        0
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use skyup_obs::NullRecorder;

    const TOML_SCENARIO: &str = "\
name = \"inline demo\"

[dataset]
competitors = [[0.2, 0.8], [0.8, 0.2], [0.5, 0.5]]

[[ops]]
add = [0.4, 0.4]

[[ops]]
remove = 2

[query]
products = [[1.5, 1.5], [1.2, 1.9]]
k = 2
cost = \"reciprocal:0.001\"

[expect]
completion = \"exact\"
evaluated = 2
";

    #[test]
    fn decodes_toml_scenarios() {
        let doc = parse_toml(TOML_SCENARIO).unwrap();
        let s = decode_scenario(&doc, "stem").unwrap();
        assert_eq!(s.name, "inline demo");
        assert!(!s.serve_only);
        assert!(matches!(&s.dataset, Dataset::Inline(rows) if rows.len() == 3));
        assert_eq!(s.ops.len(), 2);
        assert_eq!(s.ops[0].kind, OpKind::Add(vec![0.4, 0.4]));
        assert_eq!(s.ops[1].kind, OpKind::Remove(2));
        let q = s.query.unwrap();
        assert_eq!(q.k, 2);
        assert_eq!(q.cost, CostSpec::Reciprocal(0.001));
        assert_eq!(s.expect.completion.as_deref(), Some("exact"));
        assert_eq!(s.expect.evaluated, Some(2));
    }

    #[test]
    fn decodes_json_scenarios() {
        let doc = skyup_obs::json::parse(
            r#"{"dataset":{"competitors":[[0.1,0.9]]},
                "query":{"products":[[1.5,1.5]],"k":1},
                "expect":{"completion":"exact",
                          "top":[{"index":0,"cost":2.0,"tol":0.5}]}}"#,
        )
        .unwrap();
        let s = decode_scenario(&doc, "wire").unwrap();
        assert_eq!(s.name, "wire");
        let top = s.expect.top.unwrap();
        assert_eq!(top.len(), 1);
        assert_eq!(top[0].index, 0);
        assert_eq!(top[0].tol, 0.5);
    }

    #[test]
    fn decode_rejects_assertion_free_scenarios() {
        let doc = parse_toml("[dataset]\ncompetitors = [[0.1, 0.2]]\n").unwrap();
        let err = decode_scenario(&doc, "x").unwrap_err();
        assert!(err.contains("asserts nothing"), "{err}");
    }

    #[test]
    fn decode_rejects_ambiguous_ops_and_datasets() {
        let doc = parse_toml(
            "[dataset]\ncompetitors = [[0.1]]\nfile = \"x.csv\"\n[query]\nproducts = [[1.5]]\n",
        )
        .unwrap();
        assert!(decode_scenario(&doc, "x")
            .unwrap_err()
            .contains("both `competitors` and `file`"));

        let doc = parse_toml(
            "[dataset]\ncompetitors = [[0.1]]\n[[ops]]\nadd = [0.2]\nremove = 1\n[query]\nproducts = [[1.5]]\n",
        )
        .unwrap();
        assert!(decode_scenario(&doc, "x")
            .unwrap_err()
            .contains("exactly one of"));
    }

    #[test]
    fn library_mode_runs_an_exact_scenario() {
        let doc = parse_toml(TOML_SCENARIO).unwrap();
        let s = decode_scenario(&doc, "stem").unwrap();
        let status = run_library(&s, Path::new("."), &mut NullRecorder);
        assert!(
            matches!(&status, RunStatus::Pass(d) if d.contains("exact")),
            "{status:?}"
        );
    }

    #[test]
    fn library_mode_reports_mismatches() {
        let doc = parse_toml(
            "[dataset]\ncompetitors = [[0.5, 0.5]]\n\
             [query]\nproducts = [[1.5, 1.5]]\n\
             [expect]\ncompletion = \"partial\"\nevaluated = 7\n",
        )
        .unwrap();
        let s = decode_scenario(&doc, "broken").unwrap();
        let RunStatus::Fail(reasons) = run_library(&s, Path::new("."), &mut NullRecorder) else {
            panic!("expected failure");
        };
        assert_eq!(reasons.len(), 2, "{reasons:?}");
        assert!(reasons[0].contains("expected completion partial"));
        assert!(reasons[1].contains("expected evaluated 7"));
    }

    #[test]
    fn library_mode_matches_error_scenarios() {
        let dir = std::env::temp_dir().join(format!("skyup-scen-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("bad.csv"), "1.0,2.0\nnan,3.0\n").unwrap();
        let doc =
            parse_toml("[dataset]\nfile = \"bad.csv\"\n[expect]\nerror = \"line 2\"\n").unwrap();
        let s = decode_scenario(&doc, "nan").unwrap();
        let status = run_library(&s, &dir, &mut NullRecorder);
        assert!(matches!(&status, RunStatus::Pass(_)), "{status:?}");

        // Wrong substring -> failure.
        let doc =
            parse_toml("[dataset]\nfile = \"bad.csv\"\n[expect]\nerror = \"line 99\"\n").unwrap();
        let s = decode_scenario(&doc, "nan").unwrap();
        assert!(matches!(
            run_library(&s, &dir, &mut NullRecorder),
            RunStatus::Fail(_)
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn budget_scenarios_complete_partially() {
        let doc = parse_toml(
            "[dataset]\ncompetitors = [[0.2, 0.8], [0.8, 0.2]]\n\
             [query]\nproducts = [[1.5, 1.5], [1.2, 1.9], [1.9, 1.2]]\nk = 3\nmax_products = 1\n\
             [expect]\ncompletion = \"partial\"\nevaluated = 1\n\
             top = [{ index = 0, cost = 0.0, tol = 1e9 }]\n",
        )
        .unwrap();
        let s = decode_scenario(&doc, "budget").unwrap();
        let status = run_library(&s, Path::new("."), &mut NullRecorder);
        assert!(matches!(&status, RunStatus::Pass(_)), "{status:?}");
    }
}
