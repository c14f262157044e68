//! End-to-end benchmark of the `ata` crate.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <gram_square|serve_flood|factor_window> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Closed-loop workloads run through the public API, each in its own
//! process, from inputs generated from `--seed`. Every op is checked
//! outside its timed call; a failed check counts as a failed op.
//! `BENCHMARK.json` lists `gram_square` and `serve_flood`; `factor_window`
//! runs here too, but its run-to-run spread on a 2-vCPU VM is too wide to
//! bound its end-to-end metrics, so it serves the traced pass only.
//!
//! With `--trace 0` the last stdout line carries the end-to-end metrics
//! of the named workload, timed over `--seconds` of the loop's
//! least-stolen one-second windows (see [`Recorder`]); the loop may run
//! up to twice as long to find them. With `--trace 1` every other op of
//! each workload runs under spans around the benchmark's calls into the
//! library, probes replay those calls one layer down, and the last line
//! carries the per-layer metrics: the named workload runs for
//! `--seconds`, the other two for a short companion pass each, so that
//! every layer is measured on the workload that exercises it. The spans
//! and a self-time summary per layer go to `.perfbench/`.
//!
//! Exact counters are printed on every run and kept per build, workload
//! and seed under `.perfbench/counters/`; a later run of the same build
//! and seed that disagrees is reported as incorrect, since the workload
//! changed. Another build's differing counters are only reported.

mod factor;
mod gram;
mod host;
mod report;
mod serve;
mod trace;

use std::collections::hash_map::DefaultHasher;
use std::fs;
use std::hash::{Hash, Hasher};
use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use report::{median, Json};
use trace::Tracer;

const OUT_DIR: &str = ".perfbench";
/// Measuring time of each companion workload in a traced run.
const COMPANION_SECONDS: f64 = 3.0;

const END_TO_END: [(&str, &str); 6] = [
    ("p50_ms", "ms"),
    ("tail_ms", "ms"),
    ("goodput_1_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("ok_frac", "ratio"),
];

const PER_LAYER: [(&str, &str); 37] = [
    ("kernels.gemm_leaf_gflops", "GF/s"),
    ("kernels.syrk_leaf_gflops", "GF/s"),
    ("kernels.syrk_full_ms", "ms"),
    ("kernels.blocked_jobs_frac", "ratio"),
    ("strassen.offdiag_ms", "ms"),
    ("strassen.offdiag_classical_ms", "ms"),
    ("strassen.sums_ms", "ms"),
    ("strassen.workspace_elems", "elems"),
    ("core.serial_ms", "ms"),
    ("core.ata_over_syrk", "ratio"),
    ("core.atas_ms", "ms"),
    ("core.busy_ms.p0", "ms"),
    ("core.busy_ms.p1", "ms"),
    ("core.imbalance", "ratio"),
    ("core.wait_ms", "ms"),
    ("core.mults", "count"),
    ("context.execute_ms", "ms"),
    ("context.overhead_ms", "ms"),
    ("context.plan_ms", "ms"),
    ("context.plan_misses", "count"),
    ("shard.submit_ms", "ms"),
    ("shard.wait_ms", "ms"),
    ("shard.mean_batch", "jobs"),
    ("batch.execute_ms", "ms"),
    ("shard.overhead_frac", "ratio"),
    ("shard.whole_jobs", "count"),
    ("shard.split_jobs", "count"),
    ("shard.failed_jobs", "count"),
    ("stream.fold_ms", "ms"),
    ("linalg.sweep_ms", "ms"),
    ("linalg.solve_ms", "ms"),
    ("factor.ridge_ms", "ms"),
    ("factor.overhead_ms", "ms"),
    ("factor.updates_per_op", "count"),
    ("factor.refactors", "count"),
    ("trace.overhead_frac", "ratio"),
    ("trace.unattributed_frac", "ratio"),
];

/// Length of the windows a loop is cut into.
const WINDOW_S: f64 = 1.0;
/// Share of CPU time the hypervisor may steal in a window that counts
/// towards the measuring time.
const QUIET_STEAL: f64 = 0.05;
/// How many times `--seconds` an untraced loop may run to find that much
/// time in windows under [`QUIET_STEAL`].
const MAX_STRETCH: f64 = 2.0;

/// How one workload is run.
pub struct Opts {
    pub seed: u64,
    /// Measuring time, and the wall time the loop may take to find it.
    pub seconds: f64,
    pub max_seconds: f64,
    /// Set-ups to take `setup_s`'s median of. The first precedes the
    /// loop; the rest follow it, so that the peak resident set sees one
    /// set-up, as a user's process would.
    pub setups: usize,
}

struct Workload {
    name: &'static str,
    setups: usize,
    run: fn(&Opts, &mut Tracer) -> Run,
}

/// A gram set-up includes a 0.35 s warm-up product, so it repeats less.
const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "gram_square",
        setups: 7,
        run: gram::run,
    },
    Workload {
        name: "serve_flood",
        setups: 11,
        run: serve::run,
    },
    Workload {
        name: "factor_window",
        setups: 7,
        run: factor::run,
    },
];

/// What one workload run measured.
#[derive(Debug, Default)]
pub struct Run {
    /// Latency in ms of every untraced and every traced op that ended in
    /// a counted window (see [`Recorder`]), and how many of the untraced
    /// ones verified.
    pub lat_ms: Vec<f64>,
    pub traced_ms: Vec<f64>,
    pub lat_ok: u64,
    /// Ops of the whole loop, and how many of them failed verification.
    pub attempted: u64,
    pub failed: u64,
    /// Checks outside the timed ops (warm-up, audit, probes) that failed.
    pub faults: u64,
    pub wall_s: f64,
    /// Length of the counted windows, their number and the loop's.
    pub counted_s: f64,
    pub windows: (usize, usize),
    /// Whether the loop keeps one op in flight. Its goodput then counts
    /// verified ops over the sum of their latencies, which leaves out the
    /// checks between ops; otherwise over the counted windows' time.
    pub one_in_flight: bool,
    pub setup_s: Vec<f64>,
    /// Peak resident set at the end of the loop, before any more set-ups.
    pub peak_rss_mib: f64,
    pub steal_frac: f64,
    pub working_set_mib: f64,
    /// Exact counters: they depend on the workload and seed only.
    pub counters: Vec<(&'static str, f64)>,
    /// Per-layer metrics of the traced pass.
    pub layers: Vec<(&'static str, f64)>,
}

impl Run {
    pub fn layer(&self, name: &str) -> f64 {
        self.layers
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(f64::NAN, |(_, v)| *v)
    }
}

/// An op of a loop: when it ended (seconds into the loop), its latency
/// in ms, whether it verified and whether it was traced.
struct Op {
    at_s: f64,
    ms: f64,
    ok: bool,
    traced: bool,
}

/// A stretch of a loop, from `begin_s` to `end_s` seconds into it, and
/// the share of all CPU time the hypervisor stole in it.
struct Window {
    begin_s: f64,
    end_s: f64,
    steal: f64,
}

/// Times the ops of a closed loop that measures for `seconds`.
///
/// On a shared 2-vCPU VM the hypervisor steals CPU time in bursts that
/// can last minutes, and a 2-thread workload slows by two to three times
/// the stolen share. The loop is cut into one-second windows with the
/// steal read from `/proc/stat` over each, runs until `seconds` of them
/// stayed under [`QUIET_STEAL`] (or until `max_seconds`), and its timings
/// come from the least-stolen windows that add up to `seconds`. Windows
/// are ranked by the host's steal only, never by the program's speed, so
/// a slower program, or one that stalls now and then, is as slow in the
/// windows that count. Set-up is not windowed.
pub struct Recorder {
    start: Instant,
    seconds: f64,
    max_seconds: f64,
    cpu0: Option<host::CpuTimes>,
    ops: Vec<Op>,
    windows: Vec<Window>,
    /// Where the open window begins and the reading taken there.
    open_s: f64,
    open_cpu: Option<host::CpuTimes>,
    quiet_s: f64,
}

impl Recorder {
    pub fn new(opts: &Opts) -> Self {
        let cpu0 = host::cpu_times();
        Recorder {
            start: Instant::now(),
            seconds: opts.seconds,
            max_seconds: opts.max_seconds,
            cpu0,
            ops: Vec::new(),
            windows: Vec::new(),
            open_s: 0.0,
            open_cpu: cpu0,
            quiet_s: 0.0,
        }
    }

    fn close_window(&mut self, now: f64) {
        let cpu = host::cpu_times();
        let steal = host::steal_frac(self.open_cpu, cpu);
        // Steal that cannot be read counts as none.
        if steal.is_nan() || steal <= QUIET_STEAL {
            self.quiet_s += now - self.open_s;
        }
        self.windows.push(Window {
            begin_s: self.open_s,
            end_s: now,
            steal,
        });
        self.open_s = now;
        self.open_cpu = cpu;
    }

    /// Whether the loop should start another op.
    pub fn running(&mut self) -> bool {
        let now = self.start.elapsed().as_secs_f64();
        if now - self.open_s >= WINDOW_S {
            self.close_window(now);
        }
        self.quiet_s < self.seconds && now < self.max_seconds
    }

    /// Ops recorded so far.
    pub fn ops(&self) -> u64 {
        self.ops.len() as u64
    }

    pub fn record(&mut self, traced: bool, ms: f64, ok: bool) {
        self.ops.push(Op {
            at_s: self.start.elapsed().as_secs_f64(),
            ms,
            ok,
            traced,
        });
    }

    pub fn finish(mut self) -> Run {
        let wall_s = self.start.elapsed().as_secs_f64();
        if self.windows.is_empty() {
            // A loop shorter than one window is one window.
            self.close_window(wall_s);
        }
        let mut run = Run {
            attempted: self.ops.len() as u64,
            failed: self.ops.iter().filter(|op| !op.ok).count() as u64,
            wall_s,
            steal_frac: host::steal_frac(self.cpu0, host::cpu_times()),
            peak_rss_mib: host::peak_rss_mib(),
            ..Run::default()
        };
        let counted = least_stolen(&self.windows, self.seconds);
        run.counted_s = counted.iter().map(|w| w.end_s - w.begin_s).sum();
        run.windows = (counted.len(), self.windows.len());
        // Ops that end in the open window (the drain) count for none.
        for op in &self.ops {
            if !counted
                .iter()
                .any(|w| w.begin_s < op.at_s && op.at_s <= w.end_s)
            {
                continue;
            }
            if op.traced {
                run.traced_ms.push(op.ms);
            } else {
                run.lat_ms.push(op.ms);
                run.lat_ok += u64::from(op.ok);
            }
        }
        run
    }
}

/// The least-stolen windows that add up to `seconds`, or all of them.
fn least_stolen(windows: &[Window], seconds: f64) -> Vec<&Window> {
    let mut ranked: Vec<&Window> = windows.iter().collect();
    ranked.sort_by(|a, b| a.steal.total_cmp(&b.steal));
    let mut total = 0.0;
    ranked
        .into_iter()
        .take_while(|w| {
            let more = total < seconds;
            total += w.end_s - w.begin_s;
            more
        })
        .collect()
}

/// Random stream `tag` of a run seeded with `seed`: each input family
/// of a workload draws from its own stream.
pub fn stream(seed: u64, tag: u64) -> StdRng {
    StdRng::seed_from_u64(seed ^ (tag << 32))
}

/// `n` random signs, for probe vectors and right-hand sides.
pub fn signs(rng: &mut StdRng, n: usize) -> Vec<f64> {
    (0..n)
        .map(|_| [1.0, -1.0][rng.random_range(0..2usize)])
        .collect()
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |key: &str| -> Result<&str, String> {
        argv.iter()
            .position(|a| a == key)
            .and_then(|i| argv.get(i + 1))
            .map(String::as_str)
            .ok_or_else(|| format!("missing {key}"))
    };
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    Ok(Args {
        workload: get("--workload")?.to_string(),
        seed: get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
        seconds,
        trace: match get("--trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, got {other}")),
        },
    })
}

/// Identity of this build: a hash of the running executable's bytes.
fn build_id() -> String {
    let bytes = std::env::current_exe()
        .and_then(fs::read)
        .unwrap_or_default();
    let mut h = DefaultHasher::new();
    bytes.hash(&mut h);
    format!("{:016x}", h.finish())
}

/// Compare a run's counters with those an earlier run of the same build,
/// workload and seed stored, or store them. False on a mismatch: the
/// same code on the same inputs did different work. Counters that differ
/// from another build's are reported, since a change may move them.
fn counters_repeat(build: &str, workload: &str, seed: u64, counters: &[(&str, f64)]) -> bool {
    let dir = Path::new(OUT_DIR).join("counters");
    let stem = format!("{workload}-{seed}-");
    let path = dir.join(format!("{stem}{build}.txt"));
    let mine: String = counters.iter().map(|(k, v)| format!("{k} {v}\n")).collect();
    if let Ok(stored) = fs::read_to_string(&path) {
        if stored != mine {
            eprintln!("perfbench: {workload} seed {seed}: counters changed within one build\nstored:\n{stored}now:\n{mine}");
        }
        return stored == mine;
    }
    for entry in fs::read_dir(&dir).into_iter().flatten().flatten() {
        let name = entry.file_name().to_string_lossy().into_owned();
        if name.starts_with(&stem) && fs::read_to_string(entry.path()).is_ok_and(|s| s != mine) {
            eprintln!("perfbench: {workload} seed {seed}: counters differ from {name}");
        }
    }
    if let Err(e) = fs::create_dir_all(&dir).and_then(|_| fs::write(&path, &mine)) {
        eprintln!("perfbench: cannot store counters: {e}");
    }
    true
}

fn diagnostics(name: &str, run: &Run) -> Json {
    Json::obj([
        ("workload", Json::str(name)),
        ("ops", Json::Num(run.attempted as f64)),
        ("tail", Json::str(report::tail(&run.lat_ms).1)),
        ("wall_s", Json::Num(run.wall_s)),
        (
            "counted",
            Json::str(format!(
                "{:.2} s in the {} least-stolen of {} windows",
                run.counted_s, run.windows.0, run.windows.1
            )),
        ),
        (
            "setup_s",
            Json::Arr(run.setup_s.iter().map(|&s| Json::Num(s)).collect()),
        ),
        ("steal_frac", Json::Num(run.steal_frac)),
        ("working_set_mib", Json::Num(run.working_set_mib)),
        ("faults", Json::Num(run.faults as f64)),
        (
            "counters",
            Json::obj(run.counters.iter().map(|&(k, v)| (k, Json::Num(v)))),
        ),
    ])
}

/// The metrics object of the result line: every metric `spec` names,
/// with its unit, in `spec` order. False if one is missing or not finite.
fn metrics(spec: &[(&'static str, &str)], values: &[(&str, f64)]) -> (Json, bool) {
    let mut complete = true;
    let fields = spec.iter().map(|&(name, unit)| {
        let v = values
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(f64::NAN, |(_, v)| *v);
        if !v.is_finite() {
            eprintln!("perfbench: metric {name} has no finite value");
            complete = false;
        }
        let metric = Json::obj([("value", Json::Num(v)), ("unit", Json::str(unit))]);
        (name, metric)
    });
    let json = Json::obj(fields.collect::<Vec<_>>());
    (json, complete)
}

fn end_to_end(run: &Run) -> Vec<(&'static str, f64)> {
    let timed_s = if run.one_in_flight {
        run.lat_ms.iter().sum::<f64>() / 1e3
    } else {
        run.counted_s
    };
    vec![
        ("p50_ms", median(&run.lat_ms)),
        ("tail_ms", report::tail(&run.lat_ms).0),
        ("goodput_1_s", run.lat_ok as f64 / timed_s),
        ("setup_s", median(&run.setup_s)),
        ("peak_rss_mib", run.peak_rss_mib),
        (
            "ok_frac",
            (run.attempted - run.failed) as f64 / run.attempted as f64,
        ),
    ]
}

/// Run the traced pass of `primary` and the companion passes, write the
/// spans and the per-layer summary, and return the runs in that order.
fn traced(primary: &Workload, seed: u64, seconds: f64) -> Vec<(&'static str, Run, Tracer)> {
    let order = std::iter::once(primary).chain(WORKLOADS.iter().filter(|w| w.name != primary.name));
    order
        .map(|w| {
            let seconds = if w.name == primary.name {
                seconds
            } else {
                COMPANION_SECONDS
            };
            let mut tr = Tracer::new(true);
            let run = (w.run)(
                &Opts {
                    seed,
                    seconds,
                    max_seconds: seconds,
                    setups: w.setups,
                },
                &mut tr,
            );
            (w.name, run, tr)
        })
        .collect()
}

fn trace_metrics(run: &Run, tr: &Tracer) -> [(&'static str, f64); 2] {
    [
        (
            "trace.overhead_frac",
            median(&run.traced_ms) / median(&run.lat_ms) - 1.0,
        ),
        ("trace.unattributed_frac", tr.unattributed_frac()),
    ]
}

fn write_trace(
    primary: &str,
    seed: u64,
    runs: &[(&'static str, Run, Tracer)],
) -> std::io::Result<()> {
    fs::create_dir_all(OUT_DIR)?;
    let stem = Path::new(OUT_DIR).join(format!("trace-{primary}-{seed}"));
    let spans: String = runs
        .iter()
        .map(|(name, _, tr)| tr.span_lines(name))
        .collect();
    fs::write(stem.with_extension("spans.jsonl"), spans)?;
    let summary = Json::obj(runs.iter().map(|(name, run, tr)| {
        let mut fields = vec![("self_time_by_layer".to_string(), tr.self_time_by_layer())];
        fields.extend(trace_metrics(run, tr).map(|(k, v)| (k.to_string(), Json::Num(v))));
        (*name, Json::Obj(fields))
    }));
    fs::write(stem.with_extension("summary.json"), summary.render() + "\n")
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\nusage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    let Some(workload) = WORKLOADS.iter().find(|w| w.name == args.workload) else {
        let names: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
        eprintln!(
            "perfbench: unknown workload {:?}; expected one of {names:?}",
            args.workload
        );
        return ExitCode::from(2);
    };
    println!("host {}", host::facts().render());

    let mut correct = true;
    let (runs, spec, values) = if args.trace {
        let runs = traced(workload, args.seed, args.seconds);
        let (_, primary, tr) = &runs[0];
        let mut values: Vec<(&str, f64)> = trace_metrics(primary, tr).to_vec();
        // The named workload's values come first and win.
        for (_, run, _) in &runs {
            for &(k, v) in run.counters.iter().chain(&run.layers) {
                if !values.iter().any(|(n, _)| *n == k) {
                    values.push((k, v));
                }
            }
        }
        if let Err(e) = write_trace(workload.name, args.seed, &runs) {
            eprintln!("perfbench: cannot write trace: {e}");
            correct = false;
        }
        (runs, &PER_LAYER[..], values)
    } else {
        let opts = Opts {
            seed: args.seed,
            seconds: args.seconds,
            max_seconds: MAX_STRETCH * args.seconds,
            setups: workload.setups,
        };
        let mut tr = Tracer::new(false);
        let run = (workload.run)(&opts, &mut tr);
        let values = end_to_end(&run);
        (vec![(workload.name, run, tr)], &END_TO_END[..], values)
    };
    let build = build_id();
    for (name, run, _) in &runs {
        println!("run {}", diagnostics(name, run).render());
        correct &= run.failed == 0 && run.faults == 0;
        correct &= counters_repeat(&build, name, args.seed, &run.counters);
    }
    let (metrics, complete) = metrics(spec, &values);
    correct &= complete;
    let attempted: u64 = runs.iter().map(|(_, r, _)| r.attempted).sum();
    let failed: u64 = runs.iter().map(|(_, r, _)| r.failed).sum();
    let result = Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(attempted as f64)),
        ("failed", Json::Num(failed as f64)),
        ("metrics", metrics),
    ]);
    println!("{}", result.render());
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_least_stolen_windows_fill_the_measuring_time() {
        let w = |begin_s: f64, steal: f64| Window {
            begin_s,
            end_s: begin_s + 1.0,
            steal,
        };
        let windows = [w(0.0, 0.2), w(1.0, 0.0), w(2.0, 0.1), w(3.0, 0.01)];
        let begins = |seconds| -> Vec<f64> {
            least_stolen(&windows, seconds)
                .iter()
                .map(|w| w.begin_s)
                .collect()
        };
        assert_eq!(begins(2.0), [1.0, 3.0]);
        assert_eq!(begins(2.5), [1.0, 3.0, 2.0]);
        assert_eq!(begins(9.0), [1.0, 3.0, 2.0, 0.0]);
    }
}
