//! The three workloads. Each one sets up (several times, for `setup_s`),
//! measures its own operation mix for `--seconds`, and reports the same
//! end-to-end metrics over its own operations; `--trace 1` replaces them
//! with the per-layer sweeps of [`crate::layers`].

use crate::fixture::{
    canonical_forms, compile_lcc, compress_passes, outcome, raw_total_ms, reference_run, total_s,
    train_lcc, Lang, Outcome, Passes,
};
use crate::layers::{self, Runnable};
use crate::serve::{self, Catalog, LoopOutcome, Req, Server, ServerStats};
use crate::util::{
    geomean, median, ms, peak_rss_mib, quantile, span, timed, trace_enable, HostClock, Report, Rng,
    Took,
};
use crate::Args;
use pgr_bytecode::Program;
use pgr_corpus::synth::{self, Flavor, SynthConfig};
use pgr_corpus::{compile_sample, corpus, Corpus, CorpusName, SAMPLES};
use pgr_vm::VmConfig;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Set-ups per run; `setup_s` and `train_s` are their medians.
const SETUPS: usize = 5;
/// `serve` makes two library compression passes over its pool (about
/// 5 s each), one before the served loop and one after it, and trains
/// this many more times after each, so that the medians of those
/// figures see the host at both ends of the run.
const SERVE_RETRAINS: usize = 3;
/// `exec` runs its VM rounds in blocks of this many, with a compression
/// pass and a training after each block, so those medians see the host
/// over the whole run. The first round of each block follows a pass, is
/// checked and counted, and is left out of the timings.
const EXEC_BLOCK: usize = 6;
/// Whole rounds every measured run makes, however short `--seconds`.
const MIN_ROUNDS: usize = 3;
/// Repetitions of each VM variant in the traced run.
const VM_REPS: usize = 3;

/// Host CPUs: the cap on load threads, connections, and server workers
/// times compressor threads.
fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

pub fn run(args: &Args) -> Result<Report, String> {
    if args.trace {
        trace_enable();
    }
    type Workload = fn(&Args, &Path, &mut HostClock, &mut Report);
    let workload: Workload = match args.workload.as_str() {
        "offline" => offline,
        "exec" => exec,
        "serve" => serve_workload,
        other => return Err(format!("unknown workload {other:?} (offline, exec, serve)")),
    };
    let root = PathBuf::from(".bench_work");
    let dir = root.join(format!("{}-{}", args.workload, std::process::id()));
    std::fs::create_dir_all(&dir).map_err(|e| format!("work directory: {e}"))?;
    let mut report = Report::default();
    let mut clock = HostClock::new();
    workload(args, &dir, &mut clock, &mut report);
    let _ = std::fs::remove_dir_all(&dir);
    // Only succeeds once no other run is using it.
    let _ = std::fs::remove_dir(&root);
    eprintln!(
        "host reference: median {:.4} ms over {} passes",
        median(&clock.refs_ms),
        clock.refs_ms.len()
    );
    if args.trace {
        report.metric("host.ref_ms", median(&clock.refs_ms), "ms");
    }
    Ok(report)
}

/// The end-to-end figures every workload reports. Times are
/// host-corrected (see [`HostClock`]), except `setup_s`.
#[derive(Default)]
struct EndToEnd {
    setup_s: Vec<f64>,
    train: Vec<Took>,
    grammar_bytes: usize,
    compress_ratio: f64,
    cold_s: Vec<f64>,
    warm_s: Vec<f64>,
    decompress_s: Vec<f64>,
    /// The times `op_ms.p50` and `op_ms.p90` are taken over: on offline
    /// and exec each distinct operation's median (a fixed set of
    /// programs, where a quantile of all the times would fall in the gap
    /// between two programs and follow one extreme sample), on serve
    /// every request.
    op_ms: Vec<f64>,
    /// The geometric mean over the workload's distinct operations of
    /// each one's median time.
    op_ms_geomean: f64,
    ops_per_s: f64,
    peak_rss_mib: f64,
}

impl EndToEnd {
    fn add_passes(&mut self, passes: &Passes) {
        self.cold_s.push(total_s(&passes.cold));
        self.warm_s.push(total_s(&passes.warm));
        self.decompress_s.extend(&passes.decompress_totals_s);
        self.compress_ratio = passes.stats.ratio();
        eprintln!(
            "pass: cold {:.3} ms ({:.3} corrected), warm {:.3} ms ({:.3}), decompress {:.3} ms ({:.3})",
            raw_total_ms(&passes.cold),
            total_s(&passes.cold) * 1e3,
            raw_total_ms(&passes.warm),
            total_s(&passes.warm) * 1e3,
            raw_total_ms(&passes.decompress),
            total_s(&passes.decompress) * 1e3
        );
    }

    fn emit(&self, report: &mut Report) {
        let train_s: Vec<f64> = self.train.iter().map(|t| t.ms / 1e3).collect();
        report.metric("setup_s", median(&self.setup_s), "s");
        report.metric("peak_rss_mib", self.peak_rss_mib, "MiB");
        report.metric("train_s", median(&train_s), "s");
        report.metric("grammar_bytes", self.grammar_bytes as f64, "bytes");
        report.metric("compress_ratio", self.compress_ratio, "ratio");
        report.metric("compress_cold_s", median(&self.cold_s), "s");
        report.metric("compress_warm_s", median(&self.warm_s), "s");
        report.metric("decompress_s", median(&self.decompress_s), "s");
        report.metric("op_per_s", self.ops_per_s, "1/s");
        report.metric("op_ms.p50", median(&self.op_ms), "ms");
        report.metric("op_ms.p90", quantile(&self.op_ms, 0.9), "ms");
        report.metric("op_ms.geomean", self.op_ms_geomean, "ms");
    }
}

/// Operations per second of operation time, over every timed operation.
fn ops_per_s(per_op: &[Vec<f64>]) -> f64 {
    let n: usize = per_op.iter().map(Vec::len).sum();
    let total_ms: f64 = per_op.iter().flatten().sum();
    1e3 * n as f64 / total_ms
}

/// Whether a measured loop that started at `t0` runs round `done + 1`:
/// at least `MIN_ROUNDS`, then until `--seconds` have passed; a traced
/// run makes one round.
fn another_round(t0: Instant, done: usize, args: &Args) -> bool {
    if args.trace {
        return done == 0;
    }
    done < MIN_ROUNDS || t0.elapsed().as_secs_f64() < args.seconds
}

/// Compile inputs, train the grammar and check that training is
/// deterministic; `SETUPS` times. `compile` builds the workload's own
/// inputs; `extra` brings up anything else (the server) and is timed as
/// set-up too. Returns the last set-up's products.
struct SetUp<T, E> {
    lcc: Corpus,
    inputs: T,
    trained: pgr_core::Trained,
    lang: Lang,
    pgrg: Vec<u8>,
    extra: E,
    compile_ms: Vec<f64>,
}

fn set_up<T, E>(
    e2e: &mut EndToEnd,
    clock: &mut HostClock,
    report: &mut Report,
    compile: impl Fn() -> T,
    extra: impl Fn(usize, &[u8]) -> E,
    retire: impl Fn(E) -> bool,
) -> SetUp<T, E> {
    let mut compile_ms = Vec::new();
    let mut last: Option<SetUp<T, E>> = None;
    for k in 0..SETUPS {
        let t0 = Instant::now();
        let lcc = compile_lcc();
        let inputs = span("corpus.compile", &compile);
        compile_ms.push(ms(t0.elapsed()));
        let (trained, took) = train_lcc(&lcc, clock, report);
        let (lang, pgrg) = Lang::of(&trained);
        let extra = extra(k, &pgrg);
        e2e.setup_s.push(t0.elapsed().as_secs_f64());
        e2e.train.push(took);
        e2e.grammar_bytes = trained.grammar_size();
        if let Some(prev) = last.take() {
            report.check(prev.pgrg == pgrg, || "training is not deterministic".into());
            let retired = retire(prev.extra);
            report.check(retired, || "set-up did not shut down cleanly".into());
        }
        last = Some(SetUp {
            lcc,
            inputs,
            trained,
            lang,
            pgrg,
            extra,
            compile_ms: Vec::new(),
        });
    }
    let mut out = last.expect("set up at least once");
    out.compile_ms = compile_ms;
    out
}

/// Train once more inside a measured loop, for `train_s`, and check
/// that the grammar is the set-up's.
fn retrain<T, E>(
    setup: &SetUp<T, E>,
    e2e: &mut EndToEnd,
    clock: &mut HostClock,
    report: &mut Report,
) {
    let (trained, took) = train_lcc(&setup.lcc, clock, report);
    e2e.train.push(took);
    report.check(Lang::of(&trained).1 == setup.pgrg, || {
        "training is not deterministic".into()
    });
}

/// The traced run's per-layer sweeps over a workload's inputs:
/// `programs` are what it compresses, `runs` what it runs. With
/// `serve_pass`, a fresh server also handles each input once.
#[allow(clippy::too_many_arguments)]
fn sweeps(
    dir: &Path,
    setup: &SetUp<impl Sized, impl Sized>,
    programs: &[&Program],
    canonical: &[Program],
    runs: &[(&str, &Program)],
    serve_pass: bool,
    clock: &mut HostClock,
    report: &mut Report,
) {
    let lang = &setup.lang;
    report.metric("setup.compile_ms", median(&setup.compile_ms), "ms");
    layers::training(&setup.lcc, &setup.trained, report);
    let passes = compress_passes(lang, programs, canonical, true, clock, report);
    layers::engine(&passes, report);
    layers::earley(lang, canonical, report);
    let images: Vec<&Program> = passes.images.iter().map(|c| &c.program).collect();
    layers::bytecode(programs, &images, report);
    layers::proto(&images, report);
    layers::registry(dir, &setup.pgrg, report);

    let comp = lang.compressor();
    let run_images: Vec<Program> = runs
        .iter()
        .map(|(_, p)| comp.compress(p).expect("samples compress").0.program)
        .collect();
    let expected: Vec<Outcome> = runs
        .iter()
        .map(|(name, p)| reference_run(name, p, report))
        .collect();
    let runnables: Vec<Runnable<'_>> = runs
        .iter()
        .zip(&run_images)
        .zip(&expected)
        .map(|(((name, plain), image), expected)| Runnable {
            name,
            plain,
            image,
            expected,
        })
        .collect();
    layers::vm(lang, &runnables, VM_REPS, report);
    if serve_pass {
        // A served `run` answers with the compressed run's step count.
        let outcomes: Vec<Outcome> = run_images
            .iter()
            .map(|image| outcome(&lang.load(image, VmConfig::default()).run().expect("runs")))
            .collect();
        let runs: Vec<(&Program, &Outcome)> = run_images.iter().zip(&outcomes).collect();
        let server = Server::start(&dir.join("served"), &setup.pgrg, nproc(), 1);
        let catalog = Catalog::build(&server.id, programs, canonical, &passes, &runs);
        let mut round: Vec<Req> = catalog.compress.clone();
        round.extend(catalog.decompress.iter().cloned());
        round.extend(catalog.run.iter().cloned());
        let outcome = serve::closed_loop(&server.socket, 1, 1, 1, 0.0, &|_| round.clone());
        finish_served(server, &outcome, true, report);
    }
    layers::dump_spans(report);
}

/// Read the server's `stats` and peak RSS, stop it, and account the
/// loop's operations. Returns the server's peak RSS in MiB.
fn finish_served(server: Server, outcome: &LoopOutcome, traced: bool, report: &mut Report) -> f64 {
    let doc = server.stats();
    report.check(doc.is_some(), || "pgr serve did not answer stats".into());
    let stats = ServerStats::of(&doc.unwrap_or(pgr_telemetry::json::Value::Null));
    eprintln!(
        "server derivation cache: {} hits, {} misses",
        stats.cache_hits, stats.cache_misses
    );
    let rss = peak_rss_mib(Some(server.pid())).unwrap_or(0.0);
    let stopped = server.stop();
    report.check(stopped, || "pgr serve did not shut down cleanly".into());
    outcome.account(report);
    if traced {
        layers::served(outcome, &stats, report);
    }
    report.check(stats.rejected == 0, || {
        format!("{} request(s) rejected as overloaded", stats.rejected)
    });
    rss
}

/// `offline`: with the lcc grammar trained in set-up, compress gcc and
/// gzip cold then warm and decompress everything, in whole rounds.
fn offline(args: &Args, dir: &Path, clock: &mut HostClock, report: &mut Report) {
    let mut e2e = EndToEnd::default();
    let setup = set_up(
        &mut e2e,
        clock,
        report,
        || (corpus(CorpusName::Gcc), corpus(CorpusName::Gzip)),
        |_, _| (),
        |_| true,
    );
    let (gcc, gzip) = &setup.inputs;
    // gcc is four samples and two synthetic programs; gzip three samples.
    let member_names = [
        "sieve",
        "life",
        "matmul",
        "mixed",
        "gcc-synth",
        "gcc-numeric",
    ]
    .into_iter()
    .chain(["lzss", "crc32", "fmt"]);
    let mut members: Vec<(&str, &Program)> = member_names
        .zip(gcc.programs.iter().chain(&gzip.programs))
        .collect();
    Rng::new(args.seed).shuffle(&mut members);
    let programs: Vec<&Program> = members.iter().map(|(_, p)| *p).collect();
    let canonical = canonical_forms(&programs);

    let mut per_op: Vec<Vec<f64>> = vec![Vec::new(); 3 * programs.len()];
    let mut first: Option<Passes> = None;
    let t0 = Instant::now();
    let mut rounds = 0;
    while another_round(t0, rounds, args) {
        retrain(&setup, &mut e2e, clock, report);
        let passes = span("offline.round", || {
            compress_passes(&setup.lang, &programs, &canonical, false, clock, report)
        });
        e2e.add_passes(&passes);
        for (i, ((c, w), d)) in passes
            .cold
            .iter()
            .zip(&passes.warm)
            .zip(&passes.decompress)
            .enumerate()
        {
            per_op[3 * i].push(c.ms);
            per_op[3 * i + 1].push(w.ms);
            per_op[3 * i + 2].push(d.ms);
        }
        match &first {
            None => first = Some(passes),
            Some(f) => report.check(f.images == passes.images, || {
                "compression is not deterministic across rounds".into()
            }),
        }
        rounds += 1;
    }
    let elapsed = t0.elapsed().as_secs_f64();
    let passes = first.expect("at least one round");
    for ((name, _), cache) in members.iter().zip(&passes.per_program_cache) {
        eprintln!(
            "cache {name}: cold {} hits / {} misses, warm {} hits / {} misses",
            cache.0 .0, cache.0 .1, cache.1 .0, cache.1 .1
        );
    }
    e2e.op_ms = per_op.iter().map(|v| median(v)).collect();
    e2e.op_ms_geomean = geomean(&e2e.op_ms);
    e2e.ops_per_s = ops_per_s(&per_op);
    e2e.peak_rss_mib = peak_rss_mib(None).unwrap_or(0.0);
    if !args.trace {
        e2e.emit(report);
        return;
    }
    report.metric("trace.round_ms", elapsed * 1e3, "ms");
    let runs: Vec<(&str, &Program)> = members
        .iter()
        .filter(|(name, _)| SAMPLES.iter().any(|(s, _)| s == name))
        .copied()
        .collect();
    sweeps(
        dir, &setup, &programs, &canonical, &runs, true, clock, report,
    );
}

/// `exec`: load and run the ten samples, compressed under the lcc
/// grammar, at the default tier, in a seeded order each round.
fn exec(args: &Args, dir: &Path, clock: &mut HostClock, report: &mut Report) {
    let mut e2e = EndToEnd::default();
    let setup = set_up(
        &mut e2e,
        clock,
        report,
        || -> Vec<Program> { SAMPLES.iter().map(|(n, _)| compile_sample(n)).collect() },
        |_, _| (),
        |_| true,
    );
    let samples: Vec<&Program> = setup.inputs.iter().collect();
    let canonical = canonical_forms(&samples);
    let passes = compress_passes(&setup.lang, &samples, &canonical, false, clock, report);
    e2e.add_passes(&passes);
    let expected: Vec<Outcome> = SAMPLES
        .iter()
        .zip(&samples)
        .map(|((n, _), p)| reference_run(n, p, report))
        .collect();

    let mut rng = Rng::new(args.seed);
    let mut order: Vec<usize> = (0..samples.len()).collect();
    let mut per_program: Vec<Vec<f64>> = vec![Vec::new(); samples.len()];
    // Measured round times: the first of each block, and the others.
    let (mut first_ms, mut round_ms) = (Vec::new(), Vec::new());
    // A traced run makes one round and keeps it.
    let block = if args.trace { 1 } else { EXEC_BLOCK };
    let t0 = Instant::now();
    let mut blocks = 0;
    let mut rounds = 0;
    while another_round(t0, blocks, args) {
        for k in 0..block {
            rng.shuffle(&mut order);
            // The round is timed between two host references as a
            // whole; each run's time is corrected by the round's factor.
            let (times, round) = clock.time(|| {
                span("exec.round", || {
                    let mut times = Vec::with_capacity(order.len());
                    for &i in &order {
                        let image = &passes.images[i].program;
                        let (result, took) = timed(|| {
                            let mut vm = setup.lang.load(image, VmConfig::default());
                            span("vm.run", || vm.run())
                        });
                        let ok = matches!(&result, Ok(r)
                            if r.output == expected[i].output
                                && r.exit_code.unwrap_or_else(|| r.ret.i()) == expected[i].exit);
                        report.op("exec", result.is_err());
                        report.check(ok, || {
                            format!("compressed {} differs from interp1", SAMPLES[i].0)
                        });
                        times.push((i, ms(took)));
                    }
                    times
                })
            });
            rounds += 1;
            if k == 0 && block > 1 {
                first_ms.push(round.raw_ms);
                continue;
            }
            for (i, raw) in times {
                per_program[i].push(round.scale(raw).ms);
            }
            round_ms.push(round.raw_ms);
        }
        if !args.trace {
            let again = compress_passes(&setup.lang, &samples, &canonical, false, clock, report);
            report.check(again.images == passes.images, || {
                "compression is not deterministic across passes".into()
            });
            e2e.add_passes(&again);
            retrain(&setup, &mut e2e, clock, report);
        }
        blocks += 1;
    }
    let elapsed = t0.elapsed().as_secs_f64();
    eprintln!(
        "exec: {blocks} blocks of {block} rounds, median round {:.3} ms measured; first round of a block {:.3} ms",
        median(&round_ms),
        if first_ms.is_empty() { 0.0 } else { median(&first_ms) }
    );
    e2e.op_ms = per_program.iter().map(|v| median(v)).collect();
    e2e.op_ms_geomean = geomean(&e2e.op_ms);
    e2e.ops_per_s = ops_per_s(&per_program);
    e2e.peak_rss_mib = peak_rss_mib(None).unwrap_or(0.0);
    if !args.trace {
        e2e.emit(report);
        return;
    }
    report.metric("trace.round_ms", elapsed * 1e3 / rounds as f64, "ms");
    let runs: Vec<(&str, &Program)> = SAMPLES
        .iter()
        .map(|(n, _)| *n)
        .zip(samples.iter().copied())
        .collect();
    sweeps(
        dir, &setup, &samples, &canonical, &runs, true, clock, report,
    );
}

/// Programs in the `serve` pool.
const POOL: usize = 256;
/// Functions in each pool program: equal sizes keep the pool's cost
/// alike from seed to seed.
const POOL_FUNCTIONS: usize = 6;
/// Zipf exponent of the pool's popularity.
const ZIPF_S: f64 = 0.5;
/// Samples served by `run` requests, short to loop-heavy.
const RUN_SAMPLES: [&str; 5] = ["calc", "crc32", "8q", "sieve", "sort"];
/// Requests per round, by kind (plus one `stats`).
const ROUND_COMPRESS: usize = 12;
const ROUND_DECOMPRESS: usize = 6;
/// Requests each connection keeps in flight.
const DEPTH: usize = 2;
/// Rounds per epoch of the served loop, between two host references.
const EPOCH_ROUNDS: u64 = 8;

/// The seeded `serve` pool: distinct synthetic programs, three in four
/// compiler-flavoured and one in four numeric.
fn pool(seed: u64) -> Vec<Program> {
    let mut rng = Rng::new(seed ^ 0x9001);
    (0..POOL)
        .map(|i| {
            let config = SynthConfig {
                seed: rng.next_u64(),
                functions: POOL_FUNCTIONS,
                flavor: if i % 4 == 3 {
                    Flavor::Numeric
                } else {
                    Flavor::Compiler
                },
            };
            synth::generate(&config)
        })
        .collect()
}

/// `serve`: a closed loop against `pgr serve` over `nproc` connections
/// with a seeded mix of compress, decompress, run and stats requests.
fn serve_workload(args: &Args, dir: &Path, clock: &mut HostClock, report: &mut Report) {
    let mut e2e = EndToEnd::default();
    let seed = args.seed;
    let mut setup = set_up(
        &mut e2e,
        clock,
        report,
        || -> (Vec<Program>, Vec<Program>) {
            let runs = RUN_SAMPLES.iter().map(|n| compile_sample(n)).collect();
            (pool(seed), runs)
        },
        |k, pgrg| {
            Some(Server::start(
                &dir.join(format!("setup{k}")),
                pgrg,
                nproc(),
                1,
            ))
        },
        |server: Option<Server>| server.is_some_and(Server::stop),
    );
    let server = setup.extra.take().expect("server started");
    let (programs, runs) = &setup.inputs;
    let lang = &setup.lang;
    let refs: Vec<&Program> = programs.iter().collect();
    let canonical = canonical_forms(&refs);
    let passes = compress_passes(lang, &refs, &canonical, false, clock, report);
    e2e.add_passes(&passes);
    for _ in 0..SERVE_RETRAINS {
        retrain(&setup, &mut e2e, clock, report);
    }
    let comp = lang.compressor();
    let run_images: Vec<Program> = runs
        .iter()
        .map(|p| comp.compress(p).expect("samples compress").0.program)
        .collect();
    let run_expected: Vec<Outcome> = RUN_SAMPLES
        .iter()
        .zip(runs)
        .zip(&run_images)
        .map(|((name, plain), image)| {
            let reference = reference_run(name, plain, report);
            let result = lang.load(image, VmConfig::default()).run();
            let out = outcome(&result.expect("compressed sample runs"));
            report.check(
                out.output == reference.output && out.exit == reference.exit,
                || format!("compressed {name} differs from interp1"),
            );
            out
        })
        .collect();
    let run_pairs: Vec<(&Program, &Outcome)> = run_images.iter().zip(&run_expected).collect();
    let catalog = Catalog::build(&server.id, &refs, &canonical, &passes, &run_pairs);

    let cumulative: Vec<f64> = (0..POOL)
        .scan(0.0, |acc, i| {
            *acc += 1.0 / ((i + 1) as f64).powf(ZIPF_S);
            Some(*acc)
        })
        .collect();
    let make_round = |r: u64| -> Vec<Req> {
        let mut rng = Rng::new(seed ^ r.wrapping_mul(0x2545_f491_4f6c_dd1d));
        let mut round: Vec<Req> = Vec::with_capacity(ROUND_COMPRESS + ROUND_DECOMPRESS + 6);
        for _ in 0..ROUND_COMPRESS {
            round.push(catalog.compress[rng.weighted(&cumulative)].clone());
        }
        for _ in 0..ROUND_DECOMPRESS {
            round.push(catalog.decompress[rng.weighted(&cumulative)].clone());
        }
        round.extend(catalog.run.iter().cloned());
        round.push(serve::stats_req());
        rng.shuffle(&mut round);
        round
    };
    let outcome = span("serve.loop", || {
        serve::closed_loop(
            &server.socket,
            nproc(),
            DEPTH,
            EPOCH_ROUNDS,
            args.seconds,
            &make_round,
        )
    });
    e2e.peak_rss_mib = finish_served(server, &outcome, args.trace, report);
    if !args.trace {
        let again = compress_passes(lang, &refs, &canonical, false, clock, report);
        report.check(again.images == passes.images, || {
            "compression is not deterministic across passes".into()
        });
        e2e.add_passes(&again);
        for _ in 0..SERVE_RETRAINS {
            retrain(&setup, &mut e2e, clock, report);
        }
    }
    for kind in ["compress", "decompress", "run"] {
        eprintln!(
            "served {kind}: median {:.4} ms corrected, {:.4} ms measured",
            median(&outcome.latency_ms[kind]),
            median(&outcome.raw_latency_ms[kind])
        );
    }
    e2e.op_ms = outcome.all_latencies();
    e2e.op_ms_geomean = geomean(
        &["compress", "decompress", "run"]
            .iter()
            .map(|k| median(&outcome.latency_ms[k]))
            .collect::<Vec<_>>(),
    );
    e2e.ops_per_s = outcome.requests() as f64 / outcome.corrected_s;
    eprintln!(
        "serve: {} rounds, {} requests in {:.3} s ({:.3} s corrected); host reference {:.4} ms",
        outcome.rounds,
        outcome.requests(),
        outcome.elapsed.as_secs_f64(),
        outcome.corrected_s,
        median(&outcome.refs_ms)
    );
    if !args.trace {
        e2e.emit(report);
        return;
    }
    report.metric(
        "trace.round_ms",
        outcome.elapsed.as_secs_f64() * 1e3 / outcome.rounds as f64,
        "ms",
    );
    let runs: Vec<(&str, &Program)> = RUN_SAMPLES.iter().copied().zip(runs).collect();
    sweeps(dir, &setup, &refs, &canonical, &runs, false, clock, report);
}
