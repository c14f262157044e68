//! `ata` — command-line front end for the AtA library.
//!
//! ```text
//! ata gen    --rows M --cols N [--seed S] --out FILE        generate a random matrix
//! ata gram   --input FILE --out FILE [--repeat K]           C = A^T A (full symmetric)
//!            [--algo ata|ata-s|ata-d|syrk|naive] [--threads T]
//!            [--cache-words W] [--strassen classic|winograd]
//!            [--ranks R] [--wire packed|dense]
//! ata stream --input FILE --out FILE [--chunk R]            streaming Gram over row chunks
//!            [--decay B] [--threads T] [--cache-words W]
//! ata solve  --input FILE --out FILE [--rhs FILE]           online normal-equations solve
//!            [--lambda L] [--chunk R] [--threads T]         (streamed rank-k factor updates)
//! ata batch  --inputs F1,F2,... --out-dir DIR [--threads T] batched small-gram serving
//! ata shard  [--shards P] [--jobs J] [--rows M] [--cols N]  sharded serving flood demo
//!            [--split-words W] [--poison 1] [--seed S]
//! ata chaos  [--seeds N] [--jobs J] [--shards P]            chaos drill: seeded fault sweep
//!            [--rows M] [--cols N] [--budget R] [--seed S0]
//! ata verify --input FILE [--algo ...] [--threads T]        --algo's Gram vs naive oracle
//!            [--cache-words W] [--strassen classic|winograd]
//!            [--ranks R] [--wire packed|dense]
//! ata info   --input FILE                                   shape and norms
//! ata calibrate [--quick 1]                                 measure kernel tuning table and
//!                                                           the Strassen cutoff
//! ```
//!
//! `gram` and `verify` share one `--algo` list. `ata` and `ata-s` run
//! through an [`AtaContext`], where `--threads` > 1 selects AtA-S.
//! `ata-d` builds one [`DistPlan`] for AtA-D on `--ranks R` simulated
//! ranks (default 4); `--wire packed|dense` picks the §4.3.1 retrieval
//! encoding (packed is the default). `--cache-words` sizes the
//! recursions of both. A flag the chosen algorithm or command does not
//! read is an error naming it, never a silent no-op. `--repeat K`
//! executes the plan `K` times (a serving loop) and reports per-call
//! time, demonstrating the plan-reuse amortization.
//!
//! `ata stream` replays a file as a row-chunk stream through a
//! [`GramAccumulator`] (never holding more than one chunk plus the
//! `n x n` accumulator); `ata solve` streams the same way through a
//! [`ata::FactoredGram`] and answers `(AᵀA + λI) x = Aᵀb` from the
//! live factor; `ata batch` executes many independent gram problems as
//! one [`ata::BatchPlan`] dispatch across the worker pool.
//!
//! Files are CSV (`.csv`) or the compact binary `.atm` format, chosen by
//! extension. All computation is `f64`.

#![forbid(unsafe_code)]

use ata::dist::{AtaDConfig, DistPlan, WireFormat};
use ata::shard::{JobError, RetryPolicy, ShardedServiceBuilder, SplitChaos};
use ata::strassen::calibrate as strassen_calibrate;
use ata::{AtaContext, GramAccumulator, ManualClock, Output};
use ata_kernels::calibrate::{self, Tuned};
use ata_kernels::{syrk_ln, CacheConfig};
use ata_mat::{gen, io, reference, Matrix, Scalar};
use ata_mpisim::{run, CostModel};
use std::collections::HashMap;
use std::num::NonZeroUsize;
use std::process::ExitCode;

struct Args {
    kv: HashMap<String, String>,
}

impl Args {
    fn parse(rest: &[String]) -> Result<Self, String> {
        let mut kv = HashMap::new();
        let mut it = rest.iter();
        while let Some(k) = it.next() {
            let key = k
                .strip_prefix("--")
                .ok_or_else(|| format!("expected --key, got '{k}'"))?;
            let v = it.next().ok_or_else(|| format!("--{key} needs a value"))?;
            kv.insert(key.to_string(), v.clone());
        }
        Ok(Self { kv })
    }

    fn required(&self, key: &str) -> Result<&str, String> {
        self.kv
            .get(key)
            .map(String::as_str)
            .ok_or_else(|| format!("missing required --{key}"))
    }

    fn usize(&self, key: &str, default: usize) -> Result<usize, String> {
        match self.kv.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{key} expects an integer, got '{v}'")),
        }
    }

    /// Positive integer argument: the zero case is rejected in parsing,
    /// so the invariant reaches the API as a [`NonZeroUsize`].
    fn nonzero(&self, key: &str, default: NonZeroUsize) -> Result<NonZeroUsize, String> {
        match self.kv.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse::<NonZeroUsize>()
                .map_err(|_| format!("--{key} expects a positive integer, got '{v}'")),
        }
    }

    fn required_usize(&self, key: &str) -> Result<usize, String> {
        self.required(key)?
            .parse()
            .map_err(|_| format!("--{key} expects an integer"))
    }

    fn str_or(&self, key: &str, default: &'static str) -> String {
        self.kv
            .get(key)
            .cloned()
            .unwrap_or_else(|| default.to_string())
    }

    /// Reject any flag outside `known` (space-separated lists), so a
    /// misspelt or inapplicable flag is an error naming it instead of a
    /// silent no-op.
    fn only(&self, cmd: &str, known: &[&str]) -> Result<(), String> {
        let mut keys: Vec<&str> = self.kv.keys().map(String::as_str).collect();
        keys.sort_unstable();
        let is_known = |key| known.iter().any(|list| list.split(' ').any(|k| k == key));
        match keys.into_iter().find(|&key| !is_known(key)) {
            Some(key) => Err(format!("ata {cmd} takes no --{key}")),
            None => Ok(()),
        }
    }
}

const ONE: NonZeroUsize = NonZeroUsize::MIN;

/// The flags [`context`] reads.
const CONTEXT: &str = "threads cache-words strassen";

/// The flags `--algo ata-d` reads.
const ATA_D: &str = "ranks wire cache-words";

/// The Gram algorithms `gram` and `verify` run, each with the flags it
/// reads beyond the command's own.
const ALGOS: [(&str, &str); 5] = [
    ("ata", CONTEXT),
    ("ata-s", CONTEXT),
    ("ata-d", ATA_D),
    ("syrk", ""),
    ("naive", ""),
];

/// The `--algo` name, after checking that it is one of [`ALGOS`] and
/// that every algorithm-specific flag given is one it reads.
fn algo(args: &Args) -> Result<&'static str, String> {
    let given = args.str_or("algo", "ata");
    let Some(&(name, reads)) = ALGOS.iter().find(|&&(name, _)| name == given) else {
        let names: Vec<&str> = ALGOS.iter().map(|&(name, _)| name).collect();
        return Err(format!("unknown --algo '{given}' ({})", names.join(" | ")));
    };
    let reads_flag = |reads: &str, flag| reads.split(' ').any(|r| r == flag);
    for flag in CONTEXT.split(' ').chain(ATA_D.split(' ')) {
        if args.kv.contains_key(flag) && !reads_flag(reads, flag) {
            let takers: Vec<&str> = ALGOS
                .iter()
                .filter(|(_, reads)| reads_flag(reads, flag))
                .map(|&(name, _)| name)
                .collect();
            return Err(format!(
                "--{flag} applies only to --algo {}",
                takers.join(" | ")
            ));
        }
    }
    Ok(name)
}

/// The cache model `--cache-words W` asks for, if given.
fn cache(args: &Args) -> Result<Option<CacheConfig>, String> {
    match args.kv.get("cache-words") {
        None => Ok(None),
        Some(_) => Ok(Some(CacheConfig::with_words(
            args.nonzero("cache-words", ONE)?.get(),
        ))),
    }
}

/// Build the execution context from the common flags: `--threads` > 1
/// selects the shared-memory backend.
fn context(args: &Args) -> Result<AtaContext, String> {
    let mut b = AtaContext::builder();
    let threads = args.nonzero("threads", ONE)?;
    if threads.get() > 1 {
        b = b.threads(threads);
    }
    if let Some(cache) = cache(args)? {
        b = b.cache(cache);
    }
    match args.str_or("strassen", "classic").as_str() {
        "classic" => {}
        "winograd" => b = b.winograd(),
        other => return Err(format!("unknown --strassen '{other}' (classic | winograd)")),
    }
    Ok(b.build())
}

/// The AtA-D configuration of `--algo ata-d`: `--wire` (packed by
/// default) and the cache model a context would resolve for `f64`.
fn dist_config(args: &Args) -> Result<AtaDConfig, String> {
    let wire = match args.str_or("wire", "packed").as_str() {
        "packed" => WireFormat::SymPacked,
        "dense" => WireFormat::Dense,
        other => return Err(format!("unknown --wire '{other}' (packed | dense)")),
    };
    Ok(AtaDConfig {
        cache: cache(args)?.unwrap_or_else(CacheConfig::for_scalar::<f64>),
        wire,
        ..AtaDConfig::default()
    })
}

/// `C = A^T A`, both triangles, by the checked `--algo` name, computed
/// `repeat` times into one output. The AtA variants plan once and
/// execute `repeat` times — the serving-loop shape; AtA-D runs its plan
/// on a fresh simulated cluster each time and mirrors the root's lower
/// triangle.
fn gram(args: &Args, algo: &str, a: &Matrix<f64>, repeat: usize) -> Result<Matrix<f64>, String> {
    let (m, n) = a.shape();
    let mut c = Matrix::<f64>::zeros(n, n);
    match algo {
        "ata" | "ata-s" => {
            let plan = context(args)?.plan_with::<f64>(m, n, Output::Gram);
            for _ in 0..repeat {
                plan.execute_into(a.as_ref(), &mut c.as_mut());
            }
        }
        "ata-d" => {
            let ranks = args
                .nonzero("ranks", NonZeroUsize::new(4).expect("4 > 0"))?
                .get();
            let plan = DistPlan::build(m, n, ranks, &dist_config(args)?);
            for _ in 0..repeat {
                let mut results = run(ranks, CostModel::terastat(), |comm| {
                    plan.execute((comm.rank() == 0).then_some(a), comm)
                })
                .results;
                c = results
                    .swap_remove(0)
                    .map_err(|e| e.to_string())?
                    .ok_or("AtA-D: rank 0 returned no Gram")?;
            }
            c.mirror_lower_to_upper();
        }
        "syrk" => {
            for _ in 0..repeat {
                c.as_mut().fill_zero();
                syrk_ln(1.0, a.as_ref(), &mut c.as_mut());
            }
            c.mirror_lower_to_upper();
        }
        // `naive`: the only other name `algo` returns.
        _ => {
            for _ in 0..repeat {
                c = reference::gram(a.as_ref());
            }
        }
    }
    Ok(c)
}

fn cmd_gen(args: &Args) -> Result<(), String> {
    args.only("gen", &["rows cols seed out"])?;
    let rows = args.required_usize("rows")?;
    let cols = args.required_usize("cols")?;
    let seed = args.usize("seed", 42)? as u64;
    let out = args.required("out")?;
    let m = gen::standard::<f64>(seed, rows, cols);
    io::save(&m, out).map_err(|e| e.to_string())?;
    println!("wrote {rows}x{cols} matrix (seed {seed}) to {out}");
    Ok(())
}

fn cmd_gram(args: &Args) -> Result<(), String> {
    args.only("gram", &["input out algo repeat", CONTEXT, ATA_D])?;
    let input = args.required("input")?;
    let out = args.required("out")?;
    let algo = algo(args)?;
    let repeat = args.nonzero("repeat", ONE)?.get();
    let a: Matrix<f64> = io::load(input).map_err(|e| e.to_string())?;
    let (m, n) = a.shape();

    let t0 = std::time::Instant::now();
    let g = gram(args, algo, &a, repeat)?;
    let dt = t0.elapsed().as_secs_f64() / repeat as f64;
    io::save(&g, out).map_err(|e| e.to_string())?;
    println!("A: {m}x{n}; C = A^T A ({n}x{n}) via {algo} in {dt:.3}s/call (x{repeat}) -> {out}");
    Ok(())
}

fn cmd_verify(args: &Args) -> Result<(), String> {
    args.only("verify", &["input algo", CONTEXT, ATA_D])?;
    let input = args.required("input")?;
    let algo = algo(args)?;
    let a: Matrix<f64> = io::load(input).map_err(|e| e.to_string())?;
    let (m, n) = a.shape();
    let fast = gram(args, algo, &a, 1)?;
    let slow = reference::gram(a.as_ref());
    let diff = fast.max_abs_diff(&slow);
    let tol = ata_mat::ops::product_tol::<f64>(m.max(n), n, m as f64);
    println!("max |{algo} - naive| = {diff:.3e} (tolerance {tol:.3e})");
    if diff <= tol {
        println!("VERIFIED");
        Ok(())
    } else {
        Err("verification FAILED".to_string())
    }
}

/// Replay a matrix file as a stream of row chunks through a
/// [`GramAccumulator`], as a long-running ingest pipeline would; only
/// one chunk plus the `n x n` accumulator is ever in play.
fn cmd_stream(args: &Args) -> Result<(), String> {
    args.only("stream", &["input out chunk decay", CONTEXT])?;
    let input = args.required("input")?;
    let out = args.required("out")?;
    let a: Matrix<f64> = io::load(input).map_err(|e| e.to_string())?;
    let (m, n) = a.shape();
    let chunk = args
        .nonzero("chunk", NonZeroUsize::new(256).expect("256 > 0"))?
        .get();
    let decay = match args.kv.get("decay") {
        None => None,
        Some(v) => Some(
            v.parse::<f64>()
                .map_err(|_| format!("--decay expects a number, got '{v}'"))?,
        ),
    };
    let ctx = context(args)?;
    let t0 = std::time::Instant::now();
    let mut acc: GramAccumulator<f64> = ctx.gram_accumulator(n);
    let mut r0 = 0usize;
    while r0 < m {
        let r1 = (r0 + chunk).min(m);
        if let Some(beta) = decay {
            acc.decay(beta);
        }
        acc.push(a.as_ref().block(r0, r1, 0, n));
        r0 = r1;
    }
    let dt = t0.elapsed().as_secs_f64();
    println!(
        "streamed {m}x{n} in {} chunks of <= {chunk} rows ({} syrk-direct, {} strassen) in {dt:.3}s",
        acc.pushes(),
        acc.thin_pushes(),
        acc.tall_pushes()
    );
    let g = acc.finish().into_dense();
    io::save(&g, out).map_err(|e| e.to_string())?;
    println!("C = A^T A ({n}x{n}) -> {out}");
    Ok(())
}

/// Stream `A` through the factored tier ([`ata::FactoredGram`]) and
/// solve the normal equations `(AᵀA + λI) x = Aᵀ b` online: row chunks
/// fold into the Gram mass *and* its live `L D Lᵀ` factor by rank-k
/// sweeps, so the final solve is an `O(n²)` substitution, not a
/// refactorization.
fn cmd_solve(args: &Args) -> Result<(), String> {
    args.only("solve", &["input out rhs lambda chunk", CONTEXT])?;
    let input = args.required("input")?;
    let out = args.required("out")?;
    let a: Matrix<f64> = io::load(input).map_err(|e| e.to_string())?;
    let (m, n) = a.shape();
    let chunk = args
        .nonzero("chunk", NonZeroUsize::new(64).expect("64 > 0"))?
        .get();
    let lambda = match args.kv.get("lambda") {
        None => 0.0,
        Some(v) => {
            let l: f64 = v
                .parse()
                .map_err(|_| format!("--lambda expects a number, got '{v}'"))?;
            if l < 0.0 {
                return Err(format!("--lambda must be non-negative, got {l}"));
            }
            l
        }
    };
    let b: Vec<f64> = match args.kv.get("rhs") {
        Some(path) => {
            let rhs: Matrix<f64> = io::load(path).map_err(|e| e.to_string())?;
            if rhs.rows() * rhs.cols() != m || rhs.rows().min(rhs.cols()) != 1 {
                return Err(format!(
                    "--rhs must be a length-{m} vector to match {input}, got {}x{}",
                    rhs.rows(),
                    rhs.cols()
                ));
            }
            (0..m)
                .map(|i| {
                    if rhs.cols() == 1 {
                        rhs[(i, 0)]
                    } else {
                        rhs[(0, i)]
                    }
                })
                .collect()
        }
        None => vec![1.0; m],
    };
    let ctx = context(args)?;
    let t0 = std::time::Instant::now();
    let mut fg = ctx.factored_gram::<f64>(n);
    let mut atb = vec![0.0f64; n];
    let mut r0 = 0usize;
    while r0 < m {
        let r1 = (r0 + chunk).min(m);
        let block = a.as_ref().block(r0, r1, 0, n);
        fg.push(block);
        for (r, &bv) in (r0..r1).zip(&b[r0..r1]) {
            for (j, s) in atb.iter_mut().enumerate() {
                *s += a[(r, j)] * bv;
            }
        }
        r0 = r1;
    }
    let x = if lambda > 0.0 {
        fg.ridge(lambda, &atb)
    } else {
        fg.solve(&atb)
    }
    .map_err(|e| e.to_string())?;
    let dt = t0.elapsed().as_secs_f64();
    println!(
        "solved {m}x{n} normal equations (lambda={lambda}) in {dt:.3}s: \
         {} rank-k factor sweeps, {} refactor(s)",
        fg.factor_updates(),
        fg.factor_refactors()
    );
    let mut xm = Matrix::<f64>::zeros(n, 1);
    for (i, v) in x.iter().enumerate() {
        xm[(i, 0)] = *v;
    }
    io::save(&xm, out).map_err(|e| e.to_string())?;
    println!("x ({n}x1) -> {out}");
    Ok(())
}

/// Execute many independent gram problems as one batched dispatch
/// across the context's worker pool (one problem per worker).
fn cmd_batch(args: &Args) -> Result<(), String> {
    args.only("batch", &["inputs out-dir", CONTEXT])?;
    let inputs_arg = args.required("inputs")?;
    let out_dir = args.required("out-dir")?;
    let paths: Vec<&str> = inputs_arg.split(',').filter(|s| !s.is_empty()).collect();
    if paths.is_empty() {
        return Err("--inputs needs at least one file".to_string());
    }
    let mats: Vec<Matrix<f64>> = paths
        .iter()
        .map(|p| io::load(p).map_err(|e| format!("{p}: {e}")))
        .collect::<Result<_, _>>()?;
    let ctx = context(args)?;
    let shapes: Vec<(usize, usize)> = mats.iter().map(|a| a.shape()).collect();
    let t0 = std::time::Instant::now();
    let batch = ctx.batch_plan::<f64>(&shapes, Output::Gram);
    let refs: Vec<_> = mats.iter().map(|a| a.as_ref()).collect();
    let outs = batch.execute_batch(&refs);
    let dt = t0.elapsed().as_secs_f64();
    std::fs::create_dir_all(out_dir).map_err(|e| e.to_string())?;
    for (i, (path, out)) in paths.iter().zip(outs).enumerate() {
        let stem = std::path::Path::new(path)
            .file_stem()
            .and_then(|s| s.to_str())
            .unwrap_or("input");
        let dest = format!("{out_dir}/{stem}_gram_{i}.csv");
        io::save(&out.into_dense(), &dest).map_err(|e| e.to_string())?;
    }
    println!(
        "batched {} grams in {dt:.3}s ({:.1} problems/s, plan cache: {} hits / {} misses) -> {out_dir}",
        paths.len(),
        paths.len() as f64 / dt.max(1e-12),
        ctx.plan_cache_hits(),
        ctx.plan_cache_misses()
    );
    Ok(())
}

/// Flood the sharded serving front door (`ata::shard`) with a mixed
/// workload: problem heights cycle through 1x..4x `--rows`, so with a
/// suitable `--split-words` threshold some problems run whole on one
/// rank-shard and some split across all ranks via AtA-D. Every answer
/// is verified against the naive oracle, and the summary reconciles the
/// traffic predictor's quoted words against the simulator's counters
/// (bit-exact by construction). `--poison 1` injects a shard failure
/// mid-flood to demonstrate requeue: the flood must still verify.
fn cmd_shard(args: &Args) -> Result<(), String> {
    args.only(
        "shard",
        &["shards jobs rows cols split-words poison seed", CONTEXT],
    )?;
    let shards = args
        .nonzero("shards", NonZeroUsize::new(4).expect("4 > 0"))?
        .get();
    let jobs = args
        .nonzero("jobs", NonZeroUsize::new(16).expect("16 > 0"))?
        .get();
    let rows = args
        .nonzero("rows", NonZeroUsize::new(64).expect("64 > 0"))?
        .get();
    let cols = args
        .nonzero("cols", NonZeroUsize::new(32).expect("32 > 0"))?
        .get();
    let split_words = args.usize("split-words", 8 * 1024)?;
    let poison = args.usize("poison", 0)? != 0;
    let seed = args.usize("seed", 42)? as u64;
    if poison && shards < 3 {
        return Err("--poison needs --shards >= 3 (a poison can kill two shards)".to_string());
    }
    let ctx = context(args)?;
    let svc = ShardedServiceBuilder::new(&ctx)
        .shards(shards)
        .split_words(split_words)
        .build::<f64>();
    // Pre-flight the flood's largest shape, as an admission controller
    // would: quote() prices the AtA-D dispatch without running it.
    if let Some(q) = svc.quote(4 * rows, cols) {
        println!(
            "quote: {}x{cols} split over {shards} ranks moves {} words ({} into the root)",
            4 * rows,
            q.total_words,
            q.root_recv_words
        );
    }
    let inputs: Vec<Matrix<f64>> = (0..jobs)
        .map(|i| gen::standard::<f64>(seed + i as u64, rows * (1 + i % 4), cols))
        .collect();
    let t0 = std::time::Instant::now();
    let mut poison_handle = None;
    let mut handles = Vec::with_capacity(jobs);
    for (i, a) in inputs.iter().enumerate() {
        if poison && i == jobs / 2 {
            poison_handle = Some(svc.submit_poison());
        }
        handles.push(
            svc.submit(a.clone())
                .map_err(|e| format!("submit failed: {e:?}"))?,
        );
    }
    for (h, a) in handles.into_iter().zip(&inputs) {
        let (m, n) = a.shape();
        let g = h
            .wait()
            .map_err(|e| format!("job lost to shard failure: {e:?}"))?
            .into_dense();
        let tol = ata_mat::ops::product_tol::<f64>(m.max(n), n, m as f64);
        if g.max_abs_diff(&reference::gram(a.as_ref())) > tol {
            return Err(format!("{m}x{n} result diverged from the oracle"));
        }
    }
    let dt = t0.elapsed().as_secs_f64();
    if let Some(h) = poison_handle {
        match h.wait() {
            Err(JobError::Requeued { attempts }) => {
                println!("poison convicted after {attempts} panicked dispatches");
            }
            other => return Err(format!("poison must be convicted, got {other:?}")),
        }
    }
    let stats = svc.shutdown();
    println!(
        "served {jobs} problems in {dt:.3}s: {} whole-per-shard, {} split via AtA-D, all verified",
        stats.whole_jobs, stats.split_jobs
    );
    for (i, s) in stats.per_shard.iter().enumerate() {
        println!(
            "  shard {i}: {} jobs in {} batches, {} requeued{}",
            s.jobs,
            s.batches,
            s.requeues,
            if s.dead { ", DEAD" } else { "" }
        );
    }
    println!(
        "split traffic: predicted {} words ({} root-recv), simulated {} ({}) — {}",
        stats.predicted_split_words,
        stats.predicted_root_recv_words,
        stats.simulated_split_words,
        stats.simulated_root_recv_words,
        if stats.predicted_split_words == stats.simulated_split_words
            && stats.predicted_root_recv_words == stats.simulated_root_recv_words
        {
            "bit-exact"
        } else {
            "MISMATCH"
        }
    );
    Ok(())
}

/// Chaos drill over the sharded serving tier: sweep deterministic
/// seeded fault schedules (message drops, delays, rank crashes) through
/// the AtA-D split lane and check the chaos contract on every one —
/// every accepted job completes with a bit-correct result (split,
/// degraded to shared memory, or whole on an unaffected shard) or a
/// typed error; the service never hangs and never answers wrong.
/// Retry backoff runs on a manual clock, so seconds of modeled backoff
/// cost no wall time and the sweep replays identically. Exits nonzero
/// on the first violated invariant.
fn cmd_chaos(args: &Args) -> Result<(), String> {
    args.only(
        "chaos",
        &["seeds jobs shards rows cols budget seed", CONTEXT],
    )?;
    let seeds = args
        .nonzero("seeds", NonZeroUsize::new(8).expect("8 > 0"))?
        .get();
    let jobs = args
        .nonzero("jobs", NonZeroUsize::new(8).expect("8 > 0"))?
        .get();
    let rows = args
        .nonzero("rows", NonZeroUsize::new(128).expect("128 > 0"))?
        .get();
    let cols = args
        .nonzero("cols", NonZeroUsize::new(32).expect("32 > 0"))?
        .get();
    let budget = args.usize("budget", 1)?;
    let seed0 = args.usize("seed", 0)? as u64;
    // Without --shards the sweep cycles P through {2, 4, 8}, the
    // paper's distributed experiment sizes.
    let fixed_shards = match args.kv.get("shards") {
        None => None,
        Some(_) => Some(args.nonzero("shards", NonZeroUsize::MIN)?.get()),
    };
    let ctx = context(args)?;
    let (mut split, mut degraded, mut retries, mut whole) = (0usize, 0usize, 0usize, 0usize);
    for s in 0..seeds {
        let shards = fixed_shards.unwrap_or([2usize, 4, 8][s % 3]);
        let seed = seed0 + s as u64;
        let svc = ShardedServiceBuilder::new(&ctx)
            .shards(shards)
            .split_words(rows * cols)
            .clock(std::sync::Arc::new(ManualClock::new()))
            .split_retry(RetryPolicy {
                budget,
                ..RetryPolicy::default()
            })
            .split_chaos(SplitChaos::new(seed).recv_deadline(0.5))
            .build::<f64>();
        // Mixed flood: even jobs are large (split lane, the fault
        // path), odd jobs small (whole lane, must stay unaffected).
        let inputs: Vec<Matrix<f64>> = (0..jobs)
            .map(|i| {
                let m = if i % 2 == 0 { rows } else { rows / 2 };
                gen::standard::<f64>(seed.wrapping_mul(1000) + i as u64, m.max(1), cols)
            })
            .collect();
        let large = inputs.iter().filter(|a| a.rows() == rows).count();
        let handles: Vec<_> = inputs
            .iter()
            .map(|a| {
                svc.submit(a.clone())
                    .map_err(|e| format!("seed {seed}: submit failed: {e:?}"))
            })
            .collect::<Result<_, _>>()?;
        for (h, a) in handles.into_iter().zip(&inputs) {
            let (m, n) = a.shape();
            let g = h
                .wait()
                .map_err(|e| format!("seed {seed}: accepted job failed: {e}"))?
                .into_dense();
            let tol = ata_mat::ops::product_tol::<f64>(m.max(n), n, m as f64);
            if g.max_abs_diff(&reference::gram(a.as_ref())) > tol {
                return Err(format!(
                    "seed {seed}: {m}x{n} result diverged from the oracle under faults"
                ));
            }
        }
        let stats = svc.shutdown();
        if stats.completed_jobs() != jobs || stats.failed_jobs != 0 {
            return Err(format!(
                "seed {seed}: accounting broke: {} completed + {} failed of {jobs} accepted",
                stats.completed_jobs(),
                stats.failed_jobs
            ));
        }
        if stats.split_jobs + stats.degraded_jobs != large {
            return Err(format!(
                "seed {seed}: split lane leaked jobs: {} split + {} degraded != {large}",
                stats.split_jobs, stats.degraded_jobs
            ));
        }
        if stats.predicted_split_words != stats.simulated_split_words {
            return Err(format!(
                "seed {seed}: clean-dispatch traffic not bit-exact: predicted {} simulated {}",
                stats.predicted_split_words, stats.simulated_split_words
            ));
        }
        println!(
            "seed {seed} (P={shards}): {} split, {} degraded, {} faulted attempts, {} whole — verified",
            stats.split_jobs, stats.degraded_jobs, stats.split_retries, stats.whole_jobs
        );
        split += stats.split_jobs;
        degraded += stats.degraded_jobs;
        retries += stats.split_retries;
        whole += stats.whole_jobs;
    }
    println!(
        "chaos: {seeds} seeded schedules x {jobs} jobs: {split} split, {degraded} degraded, \
         {whole} whole, {retries} faulted attempts retried or degraded, 0 wrong answers, 0 hangs"
    );
    Ok(())
}

/// Run the calibration sweeps and print the measured table in the shape
/// of `ata_kernels::calibrate`'s baked records, so new hardware can be
/// re-tuned by pasting the output over the constants (or exporting
/// `ATA_KERNEL_PARAMS`). The kernel half of a row comes from
/// `ata_kernels::calibrate`, its `base_words` from the Strassen cutoff
/// sweep in `ata_strassen::calibrate`.
fn cmd_calibrate(args: &Args) -> Result<(), String> {
    args.only("calibrate", &["quick"])?;
    let quick = args.usize("quick", 0)? != 0;
    println!(
        "calibrating kernel parameters and the Strassen cutoff ({} sweep, single thread)...",
        if quick { "quick" } else { "full" }
    );
    println!(
        "detected isa: {} (force a path with ATA_MICRO=intrinsic|portable|scalar)",
        ata_kernels::simd::detected().name()
    );
    let f64_t = calibrate_row::<f64>(quick);
    calibrate_row::<f32>(quick);
    println!(
        "override per run with ATA_KERNEL_PARAMS=\"mr={},nr={},kc={},mc={},nc={},words={}\"",
        f64_t.kernel.mr,
        f64_t.kernel.nr,
        f64_t.kernel.kc,
        f64_t.kernel.mc,
        f64_t.kernel.nc,
        f64_t.base_words
    );
    Ok(())
}

/// Measure and print one scalar type's row: the tile and blocking
/// sweep, and the Strassen cutoff with its per-order level / `gemm_tn`
/// time ratios.
fn calibrate_row<T: Scalar>(quick: bool) -> Tuned {
    let kernel = calibrate::measure_kernel::<T>(quick);
    let sweep = strassen_calibrate::measure_cutoff::<T>(quick);
    let ratios: Vec<String> = sweep
        .iter()
        .map(|(g, q)| format!("{g}: {:.3} ({:.3}-{:.3})", q.median, q.q1, q.q3))
        .collect();
    println!(
        "{} cutoff sweep, Strassen level / gemm_tn time per round, median (quartiles) \
         (wins at <= {}): {}",
        T::NAME,
        strassen_calibrate::LEVEL_WIN,
        ratios.join(", ")
    );
    let medians: Vec<(usize, f64)> = sweep.iter().map(|&(g, q)| (g, q.median)).collect();
    let t = Tuned {
        kernel,
        base_words: strassen_calibrate::cutoff_words(&medians),
    };
    println!(
        "{} ({} path, {}-tile menu): mr={} nr={} kc={} mc={} nc={} base_words={}",
        T::NAME,
        ata_kernels::micro::micro_path_for::<T>().name(),
        calibrate::menu_for::<T>().len(),
        kernel.mr,
        kernel.nr,
        kernel.kc,
        kernel.mc,
        kernel.nc,
        t.base_words
    );
    t
}

fn cmd_info(args: &Args) -> Result<(), String> {
    args.only("info", &["input"])?;
    let input = args.required("input")?;
    let a: Matrix<f64> = io::load(input).map_err(|e| e.to_string())?;
    let (m, n) = a.shape();
    println!("{input}: {m} x {n} (f64)");
    println!("  frobenius norm: {:.6e}", a.as_ref().frobenius());
    println!("  max |entry|:    {:.6e}", a.as_ref().max_abs());
    Ok(())
}

fn usage() -> String {
    "usage: ata <gen|gram|stream|solve|batch|shard|chaos|verify|info|calibrate> [--key value ...]\n\
     \n  ata gen    --rows M --cols N [--seed S] --out FILE\
     \n  ata gram   --input FILE --out FILE [--repeat K]\
     \n             [--algo ata|ata-s|ata-d|syrk|naive] [--threads T]\
     \n             [--cache-words W] [--strassen classic|winograd]\
     \n             [--ranks R] [--wire packed|dense]\
     \n  ata stream --input FILE --out FILE [--chunk R] [--decay B]\
     \n             [--threads T] [--cache-words W]\
     \n  ata solve  --input FILE --out FILE [--rhs FILE] [--lambda L]\
     \n             [--chunk R] [--threads T] [--cache-words W]\
     \n  ata batch  --inputs F1,F2,... --out-dir DIR [--threads T]\
     \n  ata shard  [--shards P] [--jobs J] [--rows M] [--cols N]\
     \n             [--split-words W] [--poison 1] [--seed S]\
     \n  ata chaos  [--seeds N] [--jobs J] [--shards P] [--rows M]\
     \n             [--cols N] [--budget R] [--seed S0]\
     \n  ata verify --input FILE [--algo ata|ata-s|ata-d|syrk|naive]\
     \n             [--threads T] [--cache-words W]\
     \n             [--strassen classic|winograd]\
     \n             [--ranks R] [--wire packed|dense]\
     \n  ata info   --input FILE\
     \n  ata calibrate [--quick 1]"
        .to_string()
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let result = match argv.first().map(String::as_str) {
        Some(
            cmd @ ("gen" | "gram" | "stream" | "solve" | "batch" | "shard" | "chaos" | "verify"
            | "info" | "calibrate"),
        ) => Args::parse(&argv[1..]).and_then(|args| match cmd {
            "gen" => cmd_gen(&args),
            "gram" => cmd_gram(&args),
            "stream" => cmd_stream(&args),
            "solve" => cmd_solve(&args),
            "batch" => cmd_batch(&args),
            "shard" => cmd_shard(&args),
            "chaos" => cmd_chaos(&args),
            "verify" => cmd_verify(&args),
            "calibrate" => cmd_calibrate(&args),
            _ => cmd_info(&args),
        }),
        _ => Err(usage()),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Args {
        Args::parse(&list.iter().map(|s| s.to_string()).collect::<Vec<_>>()).expect("parse")
    }

    #[test]
    fn arg_parsing() {
        let a = args(&["--rows", "8", "--out", "x.csv"]);
        assert_eq!(a.required_usize("rows").expect("rows"), 8);
        assert_eq!(a.required("out").expect("out"), "x.csv");
        assert!(a.required("cols").is_err());
        assert_eq!(a.usize("seed", 42).expect("default"), 42);
    }

    #[test]
    fn missing_value_is_an_error() {
        let r = Args::parse(&["--rows".to_string()]);
        assert!(r.is_err());
    }

    #[test]
    fn zero_threads_is_a_parse_error_not_a_panic() {
        let a = args(&["--threads", "0"]);
        let err = a.nonzero("threads", ONE).expect_err("0 must be rejected");
        assert!(err.contains("positive integer"), "got: {err}");
        // And the context builder reports it as a clean Err.
        assert!(context(&a).is_err());
    }

    #[test]
    fn negative_and_garbage_threads_rejected() {
        for bad in ["-1", "1.5", "lots"] {
            let a = args(&["--threads", bad]);
            assert!(a.nonzero("threads", ONE).is_err(), "--threads {bad}");
        }
        // Valid values still parse.
        assert_eq!(
            args(&["--threads", "8"]).nonzero("threads", ONE).unwrap(),
            NonZeroUsize::new(8).unwrap()
        );
    }

    #[test]
    fn end_to_end_gen_gram_verify() {
        let dir = std::env::temp_dir().join("ata_cli_test");
        std::fs::create_dir_all(&dir).expect("mkdir");
        let a_path = dir.join("a.atm").to_string_lossy().to_string();
        let g_path = dir.join("g.csv").to_string_lossy().to_string();

        cmd_gen(&args(&["--rows", "20", "--cols", "10", "--out", &a_path])).expect("gen");
        cmd_gram(&args(&[
            "--input",
            &a_path,
            "--out",
            &g_path,
            "--threads",
            "2",
        ]))
        .expect("gram");
        cmd_verify(&args(&["--input", &a_path])).expect("verify");
        cmd_info(&args(&["--input", &a_path])).expect("info");

        let g: Matrix<f64> = io::load(&g_path).expect("load gram");
        assert_eq!(g.shape(), (10, 10));
        assert!(g.is_symmetric(0.0));
    }

    #[test]
    fn solve_matches_direct_normal_equations() {
        let dir = std::env::temp_dir().join("ata_cli_test_solve");
        std::fs::create_dir_all(&dir).expect("mkdir");
        let a_path = dir.join("a.csv").to_string_lossy().to_string();
        let b_path = dir.join("b.csv").to_string_lossy().to_string();
        let x_path = dir.join("x.csv").to_string_lossy().to_string();
        let (m, n) = (60usize, 12usize);
        cmd_gen(&args(&[
            "--rows",
            &m.to_string(),
            "--cols",
            &n.to_string(),
            "--out",
            &a_path,
            "--seed",
            "11",
        ]))
        .expect("gen");
        let a: Matrix<f64> = io::load(&a_path).expect("load a");
        let b = gen::standard::<f64>(12, m, 1);
        io::save(&b, &b_path).expect("save rhs");

        // Thin chunks so the factored tier actually sweeps.
        cmd_solve(&args(&[
            "--input", &a_path, "--rhs", &b_path, "--out", &x_path, "--chunk", "2", "--lambda",
            "0.5",
        ]))
        .expect("solve");
        let x: Matrix<f64> = io::load(&x_path).expect("load x");
        assert_eq!(x.shape(), (n, 1));

        // Reference: dense normal equations with the same shift.
        let mut g = reference::gram(a.as_ref());
        for i in 0..n {
            g[(i, i)] += 0.5;
        }
        let atb: Vec<f64> = (0..n)
            .map(|j| (0..m).map(|r| a[(r, j)] * b[(r, 0)]).sum())
            .collect();
        ata::linalg::cholesky_factor(&mut g).expect("SPD");
        let xr = ata::linalg::cholesky_solve(&g, &atb).expect("shape");
        for i in 0..n {
            assert!(
                (x[(i, 0)] - xr[i]).abs() <= 1e-8 * (1.0 + xr[i].abs()),
                "x[{i}] = {} vs reference {}",
                x[(i, 0)],
                xr[i]
            );
        }

        // A negative lambda is a clean CLI error, not a panic.
        assert!(cmd_solve(&args(&[
            "--input", &a_path, "--out", &x_path, "--lambda", "-1",
        ]))
        .is_err());
        // A wrong-length rhs is rejected with the shapes in the message.
        let short = gen::standard::<f64>(1, m - 1, 1);
        let short_path = dir.join("short.csv").to_string_lossy().to_string();
        io::save(&short, &short_path).expect("save short");
        let err = cmd_solve(&args(&[
            "--input",
            &a_path,
            "--rhs",
            &short_path,
            "--out",
            &x_path,
        ]))
        .expect_err("short rhs must be rejected");
        assert!(err.contains("length-60"), "got: {err}");
    }

    #[test]
    fn gram_algo_variants_agree() {
        let dir = std::env::temp_dir().join("ata_cli_test2");
        std::fs::create_dir_all(&dir).expect("mkdir");
        let a_path = dir.join("a.csv").to_string_lossy().to_string();
        cmd_gen(&args(&[
            "--rows", "16", "--cols", "8", "--out", &a_path, "--seed", "7",
        ]))
        .expect("gen");

        let mut results = Vec::new();
        for algo in ["ata", "ata-d", "syrk", "naive"] {
            let out = dir
                .join(format!("g_{algo}.csv"))
                .to_string_lossy()
                .to_string();
            cmd_gram(&args(&["--input", &a_path, "--out", &out, "--algo", algo])).expect("gram");
            results.push(io::load::<f64>(&out).expect("load"));
        }
        for (i, r) in results.iter().enumerate().skip(1) {
            assert!(results[0].max_abs_diff(r) < 1e-10, "variant {i} disagrees");
        }
    }

    #[test]
    fn wire_flag_selects_format_and_agrees() {
        let dir = std::env::temp_dir().join("ata_cli_test6");
        std::fs::create_dir_all(&dir).expect("mkdir");
        let a_path = dir.join("a.csv").to_string_lossy().to_string();
        cmd_gen(&args(&[
            "--rows", "24", "--cols", "16", "--out", &a_path, "--seed", "5",
        ]))
        .expect("gen");
        let mut results = Vec::new();
        for wire in ["packed", "dense"] {
            let out = dir
                .join(format!("g_{wire}.csv"))
                .to_string_lossy()
                .to_string();
            cmd_gram(&args(&[
                "--input", &a_path, "--out", &out, "--algo", "ata-d", "--ranks", "3", "--wire",
                wire,
            ]))
            .expect("gram");
            results.push(io::load::<f64>(&out).expect("load"));
        }
        assert_eq!(
            results[0].max_abs_diff(&results[1]),
            0.0,
            "wire formats must agree bit-for-bit"
        );
        // The AtA-D configuration carries the selection.
        let dist = |list: &[&str]| dist_config(&args(list));
        assert_eq!(
            dist(&["--wire", "dense"]).expect("config").wire,
            WireFormat::Dense
        );
        assert_eq!(dist(&[]).expect("config").wire, WireFormat::SymPacked);
        assert!(dist(&["--wire", "zip"]).is_err());
        // No silent no-ops: --wire outside ata-d is an error, not a
        // quietly ignored flag.
        let err = algo(&args(&["--wire", "packed"])).expect_err("must reject");
        assert!(err.contains("ata-d"), "got: {err}");
        assert!(algo(&args(&["--wire", "zip"])).is_err());
    }

    #[test]
    fn repeated_gram_reuses_plan() {
        let dir = std::env::temp_dir().join("ata_cli_test5");
        std::fs::create_dir_all(&dir).expect("mkdir");
        let a_path = dir.join("a.csv").to_string_lossy().to_string();
        let g_path = dir.join("g.csv").to_string_lossy().to_string();
        cmd_gen(&args(&["--rows", "24", "--cols", "12", "--out", &a_path])).expect("gen");
        cmd_gram(&args(&[
            "--input",
            &a_path,
            "--out",
            &g_path,
            "--repeat",
            "5",
            "--threads",
            "2",
        ]))
        .expect("gram x5");
        let g: Matrix<f64> = io::load(&g_path).expect("load");
        assert!(g.is_symmetric(0.0));
    }

    #[test]
    fn winograd_strassen_flag_agrees_with_classic() {
        let dir = std::env::temp_dir().join("ata_cli_test4");
        std::fs::create_dir_all(&dir).expect("mkdir");
        let a_path = dir.join("a.csv").to_string_lossy().to_string();
        cmd_gen(&args(&[
            "--rows", "40", "--cols", "24", "--out", &a_path, "--seed", "3",
        ]))
        .expect("gen");
        let g1 = dir.join("g1.csv").to_string_lossy().to_string();
        let g2 = dir.join("g2.csv").to_string_lossy().to_string();
        cmd_gram(&args(&[
            "--input",
            &a_path,
            "--out",
            &g1,
            "--cache-words",
            "64",
        ]))
        .expect("classic");
        cmd_gram(&args(&[
            "--input",
            &a_path,
            "--out",
            &g2,
            "--cache-words",
            "64",
            "--strassen",
            "winograd",
        ]))
        .expect("winograd");
        let ga: Matrix<f64> = io::load(&g1).expect("g1");
        let gb: Matrix<f64> = io::load(&g2).expect("g2");
        assert!(ga.max_abs_diff(&gb) < 1e-10);
        let bad = cmd_gram(&args(&[
            "--input",
            &a_path,
            "--out",
            &g2,
            "--strassen",
            "x",
        ]));
        assert!(bad.is_err());
    }

    #[test]
    fn stream_matches_one_shot_gram() {
        let dir = std::env::temp_dir().join("ata_cli_stream");
        std::fs::create_dir_all(&dir).expect("mkdir");
        let a_path = dir.join("a.csv").to_string_lossy().to_string();
        let g1 = dir.join("g_oneshot.csv").to_string_lossy().to_string();
        let g2 = dir.join("g_stream.csv").to_string_lossy().to_string();
        cmd_gen(&args(&[
            "--rows", "90", "--cols", "16", "--out", &a_path, "--seed", "9",
        ]))
        .expect("gen");
        cmd_gram(&args(&["--input", &a_path, "--out", &g1])).expect("gram");
        // Ragged tail on purpose: 90 rows in chunks of 32 -> 32+32+26.
        cmd_stream(&args(&["--input", &a_path, "--out", &g2, "--chunk", "32"])).expect("stream");
        let one: Matrix<f64> = io::load(&g1).expect("g1");
        let st: Matrix<f64> = io::load(&g2).expect("g2");
        assert!(one.max_abs_diff(&st) < 1e-10);
        assert!(st.is_symmetric(0.0));
        // Bad decay value is a clean error.
        assert!(cmd_stream(&args(&["--input", &a_path, "--out", &g2, "--decay", "x",])).is_err());
    }

    #[test]
    fn batch_writes_one_gram_per_input() {
        let dir = std::env::temp_dir().join("ata_cli_batch");
        std::fs::create_dir_all(&dir).expect("mkdir");
        let mut paths = Vec::new();
        for i in 0..3 {
            let p = dir.join(format!("in{i}.csv")).to_string_lossy().to_string();
            cmd_gen(&args(&[
                "--rows",
                "24",
                "--cols",
                "12",
                "--seed",
                &i.to_string(),
                "--out",
                &p,
            ]))
            .expect("gen");
            paths.push(p);
        }
        let out_dir = dir.join("out").to_string_lossy().to_string();
        cmd_batch(&args(&[
            "--inputs",
            &paths.join(","),
            "--out-dir",
            &out_dir,
            "--threads",
            "2",
        ]))
        .expect("batch");
        for (i, p) in paths.iter().enumerate() {
            let a: Matrix<f64> = io::load(p).expect("in");
            let g: Matrix<f64> =
                io::load(format!("{out_dir}/in{i}_gram_{i}.csv")).expect("gram out");
            assert_eq!(g.shape(), (12, 12));
            assert!(g.max_abs_diff(&reference::gram(a.as_ref())) < 1e-10);
        }
        // Empty input list is a clean error.
        assert!(cmd_batch(&args(&["--inputs", "", "--out-dir", &out_dir])).is_err());
    }

    #[test]
    fn shard_flood_verifies_and_reconciles() {
        // Mixed flood: heights 24..96 at cols 16, threshold 1024 words,
        // so 24x16 = 384 runs whole and 96x16 = 1536 splits.
        cmd_shard(&args(&[
            "--shards",
            "4",
            "--jobs",
            "8",
            "--rows",
            "24",
            "--cols",
            "16",
            "--split-words",
            "1024",
        ]))
        .expect("shard flood");
    }

    #[test]
    fn shard_survives_an_injected_failure() {
        cmd_shard(&args(&[
            "--shards", "4", "--jobs", "6", "--rows", "16", "--cols", "8", "--poison", "1",
        ]))
        .expect("poisoned flood still verifies");
        // Too few shards to contain a poison is a clean error.
        assert!(cmd_shard(&args(&["--shards", "2", "--poison", "1"])).is_err());
    }

    #[test]
    fn flags_a_command_or_algo_does_not_read_are_rejected_by_name() {
        let dir = std::env::temp_dir().join("ata_cli_flags");
        std::fs::create_dir_all(&dir).expect("mkdir");
        let a = dir.join("a.atm").to_string_lossy().to_string();
        let g = dir.join("g.atm").to_string_lossy().to_string();
        cmd_gen(&args(&["--rows", "33", "--cols", "9", "--out", &a])).expect("gen");
        // `--input A`, then `--out G` where the command writes one.
        let argv = |out: bool, extra: &'static str| {
            let mut list = vec!["--input", a.as_str()];
            if out {
                list.extend(["--out", g.as_str()]);
            }
            list.extend(extra.split_whitespace());
            args(&list)
        };
        type Cmd = fn(&Args) -> Result<(), String>;
        // (command, writes --out, extra flags, the flag its error names)
        let refused: [(Cmd, bool, &str, &str); 11] = [
            (cmd_gram, true, "--algo magic", "--algo 'magic'"),
            (cmd_verify, false, "--algo magic", "--algo 'magic'"),
            (cmd_gram, true, "--algo ata-d --threads 4", "--threads"),
            (
                cmd_gram,
                true,
                "--algo ata-d --strassen winograd",
                "--strassen",
            ),
            (cmd_verify, false, "--algo ata-d --threads 2", "--threads"),
            (cmd_gram, true, "--ranks 8", "--ranks"),
            (cmd_gram, true, "--algo syrk --wire dense", "--wire"),
            (cmd_verify, false, "--ranks 3", "--ranks"),
            (cmd_stream, true, "--algo ata-d --ranks 4", "--algo"),
            (cmd_stream, true, "--ranks 4", "--ranks"),
            (cmd_info, false, "--algo ata", "--algo"),
        ];
        for (cmd, out, extra, flag) in refused {
            let err = cmd(&argv(out, extra)).expect_err(extra);
            assert!(err.contains(flag), "{extra}: {err:?} must name {flag}");
        }
        // Every listed algorithm verifies, with the flags it reads.
        for extra in [
            "--algo ata-s --threads 2 --strassen winograd",
            "--algo ata-d --ranks 5 --wire dense --cache-words 64",
            "--algo syrk",
            "--algo naive",
        ] {
            cmd_verify(&argv(false, extra)).expect(extra);
        }
    }

    #[test]
    fn unknown_algo_rejected() {
        let dir = std::env::temp_dir().join("ata_cli_test3");
        std::fs::create_dir_all(&dir).expect("mkdir");
        let a_path = dir.join("a.csv").to_string_lossy().to_string();
        cmd_gen(&args(&["--rows", "4", "--cols", "4", "--out", &a_path])).expect("gen");
        let r = cmd_gram(&args(&[
            "--input", &a_path, "--out", &a_path, "--algo", "magic",
        ]));
        assert!(r.is_err());
    }
}
