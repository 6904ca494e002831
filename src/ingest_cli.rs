//! The `skyup ingest` subcommand: real-data loading and profiling.
//!
//! Reads a CSV or NDJSON file through [`skyup_data::ingest`](fn@skyup_data::ingest), printing
//! either a one-line summary, a per-column profile (`--profile` as an
//! aligned table, `--profile=json` as a `skyup-ingest/1` document), or
//! a normalized copy of the data (`--out`, optionally mapped into the
//! paper's `P ⊂ [0,1]^c` / `T ⊂ (1,2]^c` frames with `--frame`).
//!
//! Exit codes: `0` — loaded; `1` — error (the message names the
//! offending line, e.g. `data.csv: line 7: non-finite value inf ...`).

use skyup_data::ingest::{Format, Frame, IngestOptions, Ingested, NullPolicy};
use skyup_obs::json::Json;
use skyup_obs::{Counter, QueryMetrics};
use std::path::PathBuf;

/// Usage text for `skyup ingest`, appended to the main help.
pub const INGEST_USAGE: &str = "\
ingest subcommand:
  skyup ingest <file> [options]
    --format csv|ndjson    pin the format (default: sniff extension,
                           then first data byte)
    --delimiter <c>        CSV cell delimiter (default: sniff , ; tab |)
    --header / --no-header pin whether line 1 is a header (default:
                           sniff — any non-numeric cell means header)
    --columns a,b,...      0-based columns to keep (default: all)
    --negate i,j,...       dimensions (after column selection) where
                           larger is better; they are negated on load
                           so smaller is uniformly better
    --lenient              skip rows with null/empty cells instead of
                           rejecting the file (skipped rows count as
                           rejected)
    --profile[=json]       print per-column min/max/cardinality/null
                           statistics as a table (or as a
                           `skyup-ingest/1` JSON document)
    --frame unit|products  min-max normalize into [0,1]^c (competitors)
                           or (1,2]^c (uncompetitive products)
    --out <file>           write the loaded (negated, optionally
                           normalized) rows as delimited text
    exit codes: 0 = loaded, 1 = error (messages carry the 1-based line
    of the offending row)
";

/// How `--profile` renders.
#[derive(Clone, Copy, Debug, PartialEq)]
enum ProfileFormat {
    Table,
    Json,
}

/// Parsed `skyup ingest` arguments.
#[derive(Debug)]
struct IngestCli {
    path: PathBuf,
    opts: IngestOptions,
    profile: Option<ProfileFormat>,
    frame: Option<Frame>,
    out: Option<PathBuf>,
}

fn value(args: &[String], i: usize, flag: &str) -> Result<String, String> {
    args.get(i + 1)
        .cloned()
        .ok_or_else(|| format!("{flag} needs a value"))
}

fn parse_usize_list(spec: &str) -> Result<Vec<usize>, String> {
    spec.split(',')
        .map(|s| {
            s.trim()
                .parse::<usize>()
                .map_err(|_| format!("`{s}` is not a column index"))
        })
        .collect()
}

fn parse_args(args: &[String]) -> Result<IngestCli, String> {
    let mut path: Option<PathBuf> = None;
    let mut opts = IngestOptions::default();
    let mut profile = None;
    let mut frame = None;
    let mut out = None;

    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--format" => {
                opts.format = Some(match value(args, i, "--format")?.as_str() {
                    "csv" => Format::Csv,
                    "ndjson" | "jsonl" => Format::Ndjson,
                    other => return Err(format!("unknown format `{other}`")),
                });
                i += 2;
            }
            "--delimiter" => {
                let v = value(args, i, "--delimiter")?;
                let mut chars = v.chars();
                opts.delimiter = Some(
                    chars
                        .next()
                        .filter(|_| chars.next().is_none())
                        .ok_or("--delimiter takes a single character")?,
                );
                i += 2;
            }
            "--header" => {
                opts.header = Some(true);
                i += 1;
            }
            "--no-header" => {
                opts.header = Some(false);
                i += 1;
            }
            "--columns" => {
                opts.columns = parse_usize_list(&value(args, i, "--columns")?)?;
                i += 2;
            }
            "--negate" => {
                opts.negate = parse_usize_list(&value(args, i, "--negate")?)?;
                i += 2;
            }
            "--lenient" => {
                opts.null_policy = NullPolicy::CountAndSkipRow;
                i += 1;
            }
            "--profile" => {
                profile = Some(ProfileFormat::Table);
                i += 1;
            }
            "--profile=json" => {
                profile = Some(ProfileFormat::Json);
                i += 1;
            }
            "--profile=table" => {
                profile = Some(ProfileFormat::Table);
                i += 1;
            }
            "--frame" => {
                frame = Some(match value(args, i, "--frame")?.as_str() {
                    "unit" => Frame::Unit,
                    "products" => Frame::Products,
                    other => return Err(format!("--frame takes unit or products, not {other}")),
                });
                i += 2;
            }
            "--out" => {
                out = Some(PathBuf::from(value(args, i, "--out")?));
                i += 2;
            }
            "--help" | "-h" => return Err(INGEST_USAGE.to_string()),
            other if other.starts_with('-') => {
                return Err(format!("unknown argument {other}\n{INGEST_USAGE}"));
            }
            _ => {
                if path.is_some() {
                    return Err("ingest takes exactly one input file".into());
                }
                path = Some(PathBuf::from(&args[i]));
                i += 1;
            }
        }
    }

    Ok(IngestCli {
        path: path.ok_or_else(|| format!("ingest needs an input file\n{INGEST_USAGE}"))?,
        opts,
        profile,
        frame,
        out,
    })
}

/// Runs `skyup ingest`. Returns the process exit code.
pub fn run_ingest(args: &[String]) -> Result<i32, String> {
    let cli = parse_args(args)?;
    let mut metrics = QueryMetrics::new();
    let ingested =
        skyup_data::ingest(&cli.path, &cli.opts, &mut metrics).map_err(|e| e.to_string())?;

    match cli.profile {
        Some(ProfileFormat::Table) => print!("{}", profile_table(&ingested)),
        Some(ProfileFormat::Json) => println!("{}", profile_json(&ingested).render_pretty()),
        None => print!("{}", summary_line(&ingested)),
    }

    let store = match cli.frame {
        Some(frame) => skyup_data::normalize_frame(&ingested.store, frame),
        None => ingested.store.clone(),
    };
    if let Some(out) = &cli.out {
        skyup_data::write_delimited(out, &store, ',')
            .map_err(|e| format!("{}: {e}", out.display()))?;
        println!(
            "wrote {} rows x {} columns to {}",
            store.len(),
            store.dims(),
            out.display()
        );
    }

    debug_assert_eq!(metrics.get(Counter::RowsIngested), ingested.rows_ingested);
    Ok(0)
}

fn summary_line(ing: &Ingested) -> String {
    let s = &ing.schema;
    format!(
        "ingested {} rows x {} columns ({}, delimiter {:?}, {}; {} rejected)\n",
        ing.rows_ingested,
        s.columns.len(),
        s.format.name(),
        s.delimiter,
        if s.header { "header" } else { "no header" },
        ing.rows_rejected,
    )
}

/// The `--profile` table: one aligned row per selected column.
fn profile_table(ing: &Ingested) -> String {
    let mut rows: Vec<[String; 7]> = vec![[
        "column".into(),
        "index".into(),
        "min".into(),
        "max".into(),
        "distinct".into(),
        "nulls".into(),
        "direction".into(),
    ]];
    for (schema, prof) in ing.schema.columns.iter().zip(&ing.profiles) {
        rows.push([
            prof.name.clone(),
            schema.index.to_string(),
            trim_float(prof.min),
            trim_float(prof.max),
            prof.cardinality.to_string(),
            prof.nulls.to_string(),
            if schema.negated {
                "max (negated)".into()
            } else {
                "min".into()
            },
        ]);
    }
    let mut widths = [0usize; 7];
    for row in &rows {
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    let mut out = summary_line(ing);
    for row in &rows {
        let mut line = String::new();
        for (w, cell) in widths.iter().zip(row) {
            line.push_str(&format!("{cell:<w$}  ", w = w));
        }
        out.push_str(line.trim_end());
        out.push('\n');
    }
    out
}

fn trim_float(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{v:.1}")
    } else {
        format!("{v}")
    }
}

/// The `--profile=json` document (schema `skyup-ingest/1`).
fn profile_json(ing: &Ingested) -> Json {
    let s = &ing.schema;
    let columns = s
        .columns
        .iter()
        .zip(&ing.profiles)
        .map(|(schema, prof)| {
            Json::obj(vec![
                ("name", Json::Str(prof.name.clone())),
                ("index", Json::Uint(schema.index as u64)),
                ("negated", Json::Bool(schema.negated)),
                ("min", Json::Num(prof.min)),
                ("max", Json::Num(prof.max)),
                ("cardinality", Json::Uint(prof.cardinality)),
                ("nulls", Json::Uint(prof.nulls)),
                ("values", Json::Uint(prof.values)),
            ])
        })
        .collect();
    Json::obj(vec![
        ("schema", Json::Str("skyup-ingest/1".into())),
        ("format", Json::Str(s.format.name().into())),
        ("delimiter", Json::Str(s.delimiter.to_string())),
        ("header", Json::Bool(s.header)),
        ("total_columns", Json::Uint(s.total_columns as u64)),
        ("rows_ingested", Json::Uint(ing.rows_ingested)),
        ("rows_rejected", Json::Uint(ing.rows_rejected)),
        ("columns", Json::Arr(columns)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_the_full_flag_set() {
        let cli = parse_args(&argv(&[
            "data.csv",
            "--format",
            "csv",
            "--delimiter",
            ";",
            "--header",
            "--columns",
            "0,2",
            "--negate",
            "2",
            "--lenient",
            "--profile=json",
            "--frame",
            "products",
            "--out",
            "norm.csv",
        ]))
        .unwrap();
        assert_eq!(cli.path, PathBuf::from("data.csv"));
        assert_eq!(cli.opts.format, Some(Format::Csv));
        assert_eq!(cli.opts.delimiter, Some(';'));
        assert_eq!(cli.opts.header, Some(true));
        assert_eq!(cli.opts.columns, vec![0, 2]);
        assert_eq!(cli.opts.negate, vec![2]);
        assert_eq!(cli.opts.null_policy, NullPolicy::CountAndSkipRow);
        assert_eq!(cli.profile, Some(ProfileFormat::Json));
        assert_eq!(cli.frame, Some(Frame::Products));
        assert_eq!(cli.out, Some(PathBuf::from("norm.csv")));
    }

    #[test]
    fn rejects_bad_flags() {
        assert!(parse_args(&argv(&[])).unwrap_err().contains("input file"));
        assert!(parse_args(&argv(&["a.csv", "b.csv"]))
            .unwrap_err()
            .contains("exactly one"));
        assert!(parse_args(&argv(&["a.csv", "--frame", "sideways"]))
            .unwrap_err()
            .contains("unit or products"));
        assert!(parse_args(&argv(&["a.csv", "--wat"]))
            .unwrap_err()
            .contains("unknown argument"));
    }

    #[test]
    fn profile_table_aligns_and_reports_direction() {
        let mut metrics = QueryMetrics::new();
        let ing = skyup_data::ingest_text(
            "mem",
            "price,rating\n10,4\n20,5\n",
            Format::Csv,
            &IngestOptions {
                negate: vec![1],
                ..IngestOptions::default()
            },
            &mut metrics,
        )
        .unwrap();
        let table = profile_table(&ing);
        assert!(table.contains("ingested 2 rows x 2 columns"));
        assert!(table.contains("price"));
        assert!(table.contains("max (negated)"));
        let json = profile_json(&ing).render();
        assert!(json.contains("\"schema\":\"skyup-ingest/1\""));
        assert!(json.contains("\"rows_ingested\":2"));
    }
}
