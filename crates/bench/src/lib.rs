//! Benchmark-harness utilities shared by the figure/table binaries.
//!
//! Each binary under `src/bin/` regenerates one table or figure of the
//! paper (see DESIGN.md §4 for the experiment index):
//!
//! | binary     | reproduces                                            |
//! |------------|-------------------------------------------------------|
//! | `fig3`     | Fig. 3 — serial AtA vs `dsyrk` (time, eff. GFLOPs)    |
//! | `fig4`     | Fig. 4 — FastStrassen vs `dgemm` + prealloc ablation  |
//! | `fig5`     | Fig. 5 — AtA-S vs parallel `ssyrk`, P = 1..16         |
//! | `fig6`     | Fig. 6 — AtA-D vs pdsyrk/CAPS/COSMA, P = 8..64        |
//! | `table1`   | Table 1 — shared vs distributed on large matrices     |
//! | `flops`    | Eq. 3 — multiplication-count table (incl. measured)   |
//! | `levels`   | Eq. 5/6 — `l(P)` formulas vs constructed tree depths  |
//! | `prop31`   | Prop. 3.1 — ideal-cache miss counts, measured         |
//! | `accuracy` | extension — forward error vs Higham bound factors     |
//! | `ablation` | extension — leaf kernels, grids, task count, alpha, Strassen variants |
//!
//! Every binary accepts `--scale <f>` to shrink/grow the default sizes,
//! `--paper-scale` for the paper's original sizes (hours of runtime —
//! meant for big machines), `--reps <k>` for the least number of timed
//! rounds, and `--csv <dir>` to also dump machine-readable CSV.
//!
//! Every timing goes through `ata_kernels::timing::time_rounds`, and
//! every binary that compares two calls also times one A/A row, checked
//! by [`aa_gate`]. The record benches under `benches/` write their
//! `BENCH_*.json` through [`write_record`].

#![forbid(unsafe_code)]

use std::collections::HashMap;

pub use ata_core::analysis::effective_gflops;
use ata_kernels::timing::{time_rounds, Quartiles, Rounds};

/// Minimal `--key value` / `--flag` command-line parser (no external
/// dependencies, which keeps the offline build lean).
#[derive(Debug, Clone, Default)]
pub struct Cli {
    kv: HashMap<String, String>,
    flags: Vec<String>,
}

impl Cli {
    /// Parse the process arguments.
    pub fn from_env() -> Self {
        Self::from_args(std::env::args().skip(1))
    }

    /// Parse an explicit argument list (testable).
    pub(crate) fn from_args(args: impl IntoIterator<Item = String>) -> Self {
        let mut cli = Cli::default();
        let mut args = args.into_iter().peekable();
        while let Some(arg) = args.next() {
            if let Some(key) = arg.strip_prefix("--") {
                match args.peek() {
                    Some(v) if !v.starts_with("--") => {
                        let v = args.next().expect("peeked");
                        cli.kv.insert(key.to_string(), v);
                    }
                    _ => cli.flags.push(key.to_string()),
                }
            }
        }
        cli
    }

    /// True if `--flag` was passed.
    pub fn has(&self, flag: &str) -> bool {
        self.flags.iter().any(|f| f == flag)
    }

    /// `--key <usize>` with default.
    pub fn usize(&self, key: &str, default: usize) -> usize {
        self.kv
            .get(key)
            .map(|v| {
                v.parse()
                    .unwrap_or_else(|_| panic!("--{key} expects an integer, got '{v}'"))
            })
            .unwrap_or(default)
    }

    /// `--key <f64>` with default.
    pub fn f64(&self, key: &str, default: f64) -> f64 {
        self.kv
            .get(key)
            .map(|v| {
                v.parse()
                    .unwrap_or_else(|_| panic!("--{key} expects a number, got '{v}'"))
            })
            .unwrap_or(default)
    }

    /// `--key a,b,c` as a usize list, with default.
    pub fn usize_list(&self, key: &str, default: &[usize]) -> Vec<usize> {
        match self.kv.get(key) {
            None => default.to_vec(),
            Some(v) => v
                .split(',')
                .map(|t| {
                    t.trim()
                        .parse()
                        .unwrap_or_else(|_| panic!("--{key} expects integers, got '{t}'"))
                })
                .collect(),
        }
    }

    /// `--key <string>`.
    pub fn string(&self, key: &str) -> Option<&str> {
        self.kv.get(key).map(String::as_str)
    }
}

/// True when `ATA_BENCH_SMOKE` is set to anything but `0`: a CI smoke
/// run, which times too few rounds for its numbers to mean anything.
pub fn smoke() -> bool {
    std::env::var_os("ATA_BENCH_SMOKE").is_some_and(|v| v != "0")
}

/// Time `calls` calls of a record bench in interleaved rounds
/// ([`time_rounds`]): in a full run at least 7 rounds and 0.5 s per
/// call, in a smoke run one round.
pub fn record_rounds(calls: usize, f: impl FnMut(usize)) -> Rounds {
    if smoke() {
        time_rounds(calls, 1, 0.0, f)
    } else {
        time_rounds(calls, 7, 0.5 * calls as f64, f)
    }
}

/// Whether an A/A median ratio lies in the band [0.97, 1.03].
fn aa_holds(median: f64) -> bool {
    (0.97..=1.03).contains(&median)
}

/// Check a harness's A/A row: the same call timed on both sides of a
/// ratio (see `ata_kernels::timing`), whose median should read 1. In
/// rounds of more than two calls the repeat must sit between the same
/// two neighbours as the original (anywhere among three calls, opposite
/// it among four), or time the A/A pair on its own.
///
/// Prints the row. Outside [0.97, 1.03] a full run exits with status 1
/// before it writes any record or CSV, since its other ratios are then
/// no better than host drift; a smoke run only warns.
pub fn aa_gate(label: &str, aa: Quartiles) {
    let row = format!(
        "A/A {label}: ratio {:.3} ({:.3}-{:.3})",
        aa.median, aa.q1, aa.q3
    );
    if aa_holds(aa.median) {
        println!("{row}");
    } else if smoke() {
        eprintln!("{row} is outside [0.97, 1.03] (smoke run: report only)");
    } else {
        eprintln!("{row} is outside [0.97, 1.03]: writing no record or CSV");
        std::process::exit(1);
    }
}

/// The record field of an A/A row: `"aa_ratio"` with its quartiles.
pub fn aa_field(aa: Quartiles) -> (&'static str, String) {
    let value = format!(
        "{{\"q1\": {:.4}, \"median\": {:.4}, \"q3\": {:.4}}}",
        aa.q1, aa.median, aa.q3
    );
    ("aa_ratio", value)
}

/// Write the record `BENCH_<file>.json`: the `bench`, `schema` and
/// `smoke` header, then `fields` (name and rendered JSON value, in
/// order), then `results` (one rendered JSON object per entry).
///
/// It goes to `ATA_BENCH_OUT` when that is set; otherwise a full run
/// refreshes the committed record at the workspace root and a smoke run
/// writes under `target/`, so smoke numbers never clobber the committed
/// record.
pub fn write_record(
    file: &str,
    bench: &str,
    schema: u32,
    fields: &[(&str, String)],
    results: &[String],
) {
    let path = std::env::var("ATA_BENCH_OUT").unwrap_or_else(|_| {
        let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
        let dir = if smoke() { "/target" } else { "" };
        format!("{root}{dir}/BENCH_{file}.json")
    });
    match std::fs::write(&path, render_record(bench, schema, fields, results)) {
        Ok(()) => println!("{bench} record: wrote {path}"),
        Err(e) => eprintln!("{bench} record: could not write {path}: {e}"),
    }
}

fn render_record(
    bench: &str,
    schema: u32,
    fields: &[(&str, String)],
    results: &[String],
) -> String {
    let mut json = format!(
        "{{\n  \"bench\": \"{bench}\",\n  \"schema\": {schema},\n  \"smoke\": {},\n",
        smoke()
    );
    for (name, value) in fields {
        json.push_str(&format!("  \"{name}\": {value},\n"));
    }
    json.push_str("  \"results\": [\n");
    for (i, r) in results.iter().enumerate() {
        let sep = if i + 1 == results.len() { "" } else { "," };
        json.push_str(&format!("    {r}{sep}\n"));
    }
    json.push_str("  ]\n}\n");
    json
}

/// A result table that prints aligned text and optionally CSV.
#[derive(Debug, Clone)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// New table with the given column headers.
    pub fn new(title: &str, headers: &[&str]) -> Self {
        Self {
            title: title.to_string(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (must match the header count).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "row width mismatch");
        self.rows.push(cells);
    }

    /// Render aligned text to stdout.
    pub fn print(&self) {
        println!("\n== {} ==", self.title);
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let line = |cells: &[String]| {
            let joined: Vec<String> = cells
                .iter()
                .zip(&widths)
                .map(|(c, w)| format!("{c:>w$}", w = w))
                .collect();
            println!("  {}", joined.join("  "));
        };
        line(&self.headers);
        line(&widths.iter().map(|w| "-".repeat(*w)).collect::<Vec<_>>());
        for row in &self.rows {
            line(row);
        }
    }

    /// Write CSV into `dir/<slug>.csv` (slug derived from the title).
    fn write_csv(&self, dir: &str) -> std::io::Result<()> {
        std::fs::create_dir_all(dir)?;
        let slug: String = self
            .title
            .to_lowercase()
            .chars()
            .map(|c| if c.is_alphanumeric() { c } else { '_' })
            .collect();
        let path = format!("{dir}/{slug}.csv");
        let mut out = String::new();
        out.push_str(&self.headers.join(","));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.join(","));
            out.push('\n');
        }
        std::fs::write(&path, out)?;
        println!("  [csv written to {path}]");
        Ok(())
    }

    /// Print, and also dump CSV when the CLI asked for it.
    pub fn emit(&self, cli: &Cli) {
        self.emit_gated(cli, None);
    }

    /// [`Table::emit`] for a table timed with an A/A row, given as its
    /// label and ratio: print every row first, then check the row with
    /// [`aa_gate`], and only then write the CSV. A full run whose A/A
    /// row fails thus still shows its rows, but writes no CSV.
    pub fn emit_gated(&self, cli: &Cli, aa: Option<(String, Quartiles)>) {
        self.print();
        if let Some((label, q)) = aa {
            aa_gate(&label, q);
        }
        if let Some(dir) = cli.string("csv") {
            self.write_csv(dir).expect("CSV write failed");
        }
    }
}

/// Modeled flop load of an AtA-S run: `(total, max_per_thread)` over the
/// shared task plan, counting 2 flops per multiplication of the
/// recursion (`ata-core::analysis` counts). The ratio
/// `total / max_per_thread` is the plan's ideal speedup — what a machine
/// with enough cores would observe, and what the `fig5`/`table1`
/// binaries report as *modeled* time next to the (single-core-hostage)
/// wall clock.
pub fn ata_s_modeled_flops(
    m: usize,
    n: usize,
    threads: usize,
    cache: &ata_kernels::CacheConfig,
) -> (f64, f64) {
    use ata_core::tasktree::{ComputeKind, SharedPlan};
    let plan = SharedPlan::build(n, threads);
    let mut per_proc = vec![0.0f64; threads];
    for t in &plan.tasks {
        let flops = match t.kind {
            ComputeKind::AtA => {
                2.0 * ata_core::analysis::ata_mults(m, t.a_cols.1 - t.a_cols.0, cache) as f64
            }
            ComputeKind::AtB => {
                2.0 * ata_strassen::CLASSIC.mults(
                    m,
                    t.a_cols.1 - t.a_cols.0,
                    t.b_cols.1 - t.b_cols.0,
                    cache,
                ) as f64
            }
        };
        per_proc[t.proc_id] += flops;
    }
    let total: f64 = per_proc.iter().sum();
    let max = per_proc.iter().cloned().fold(0.0, f64::max);
    (total, max)
}

/// Format seconds with sensible precision.
pub fn fmt_secs(s: f64) -> String {
    if s < 1e-3 {
        format!("{:.1}us", s * 1e6)
    } else if s < 1.0 {
        format!("{:.2}ms", s * 1e3)
    } else {
        format!("{s:.3}s")
    }
}

/// Scale a base size by `--scale` (or `--paper-scale`), rounding to a
/// multiple of 16 with a floor of 32.
pub fn scaled(cli: &Cli, base: usize, paper: usize) -> usize {
    if cli.has("paper-scale") {
        return paper;
    }
    let s = cli.f64("scale", 1.0);
    (((base as f64 * s) as usize) / 16 * 16).max(32)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cli(args: &[&str]) -> Cli {
        Cli::from_args(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn cli_parses_kv_flags_and_lists() {
        let c = cli(&["--reps", "5", "--paper-scale", "--sizes", "128,256, 512"]);
        assert_eq!(c.usize("reps", 3), 5);
        assert!(c.has("paper-scale"));
        assert!(!c.has("csv"));
        assert_eq!(c.usize_list("sizes", &[64]), vec![128, 256, 512]);
        assert_eq!(c.usize_list("procs", &[1, 2]), vec![1, 2]);
    }

    #[test]
    fn cli_defaults() {
        let c = cli(&[]);
        assert_eq!(c.usize("reps", 3), 3);
        assert_eq!(c.f64("scale", 1.0), 1.0);
        assert!(c.string("csv").is_none());
    }

    #[test]
    fn aa_band_includes_its_edges_only() {
        for (median, holds) in [
            (0.97, true),
            (1.0, true),
            (1.03, true),
            (0.9699, false),
            (1.0301, false),
            (f64::NAN, false),
        ] {
            assert_eq!(aa_holds(median), holds, "median {median}");
        }
    }

    #[test]
    fn records_render_header_fields_then_one_line_per_result() {
        let fields = [
            ("isa", "\"avx512\"".to_string()),
            ("ratio", "1.2500".into()),
        ];
        let results = ["{\"n\": 1}".to_string(), "{\"n\": 2}".into()];
        let json = render_record("demo", 3, &fields, &results);
        let want = format!(
            "{{\n  \"bench\": \"demo\",\n  \"schema\": 3,\n  \"smoke\": {},\n  \
             \"isa\": \"avx512\",\n  \"ratio\": 1.2500,\n  \"results\": [\n    \
             {{\"n\": 1}},\n    {{\"n\": 2}}\n  ]\n}}\n",
            smoke()
        );
        assert_eq!(json, want);
    }

    #[test]
    fn table_roundtrip() {
        let mut t = Table::new("Demo", &["a", "b"]);
        t.row(vec!["1".into(), "2".into()]);
        t.print();
        let dir = std::env::temp_dir().join("ata_bench_test");
        t.write_csv(dir.to_str().expect("utf8")).expect("csv");
        let csv = std::fs::read_to_string(dir.join("demo.csv")).expect("read");
        assert_eq!(csv, "a,b\n1,2\n");
    }

    #[test]
    fn scaled_sizes() {
        let c = cli(&["--scale", "0.5"]);
        assert_eq!(scaled(&c, 1024, 30000), 512);
        let p = cli(&["--paper-scale"]);
        assert_eq!(scaled(&p, 1024, 30000), 30000);
        assert_eq!(scaled(&cli(&[]), 1024, 0), 1024);
    }

    #[test]
    fn fmt_secs_ranges() {
        assert!(fmt_secs(12e-6).ends_with("us"));
        assert!(fmt_secs(0.02).ends_with("ms"));
        assert!(fmt_secs(3.5).ends_with('s'));
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn table_rejects_ragged_rows() {
        let mut t = Table::new("x", &["a", "b"]);
        t.row(vec!["1".into()]);
    }
}
