//! What every workload shares: the `lcc`-trained grammar, the library
//! compression passes with their round-trip checks, and reference runs
//! of programs on the plain interpreter.

use crate::checks;
use crate::util::{ms, span, timed, HostClock, Report, Took};
use pgr_bytecode::Program;
use pgr_core::{
    canonicalize_program, train, CacheStats, CompressedProgram, CompressionStats, Compressor,
    CompressorConfig, TrainConfig, Trained,
};
use pgr_corpus::{corpus, Corpus, CorpusName};
use pgr_grammar::{Grammar, GrammarFile, Nt};
use pgr_vm::{Vm, VmConfig};

/// Compile the training corpus.
pub fn compile_lcc() -> Corpus {
    span("corpus.compile", || corpus(CorpusName::Lcc))
}

/// Train the grammar every workload uses, and check the one-byte rule
/// budget. Returns the grammar and the training time.
pub fn train_lcc(lcc: &Corpus, clock: &mut HostClock, report: &mut Report) -> (Trained, Took) {
    let (trained, took) = clock.time(|| {
        span("core.train", || {
            train(&lcc.refs(), &TrainConfig::default()).expect("lcc trains")
        })
    });
    let over = checks::over_rule_budget(trained.expanded());
    report.check(over.is_none(), || {
        format!("non-terminal over the 256-rule budget: {over:?}")
    });
    (trained, took)
}

/// The grammar, start and `<byte>` handles a compressed image runs with.
pub struct Lang {
    pub grammar: Grammar,
    pub start: Nt,
    pub byte_nt: Nt,
}

impl Lang {
    /// The trained grammar as `pgr train` writes it and `pgr serve`
    /// loads it: through its `.pgrg` bytes, which are returned too.
    pub fn of(trained: &Trained) -> (Lang, Vec<u8>) {
        let file = GrammarFile::new(
            trained.expanded().clone(),
            trained.start(),
            trained.initial().nt_byte,
        );
        let pgrg = file.to_bytes();
        let file = GrammarFile::from_bytes(&pgrg).expect("a trained grammar decodes");
        let lang = Lang {
            grammar: file.grammar,
            start: file.start,
            byte_nt: file.byte_nt,
        };
        (lang, pgrg)
    }

    /// A compressor with one encoding thread: deterministic cache
    /// behaviour, no oversubscription on a small host.
    pub fn compressor(&self) -> Compressor<'_> {
        Compressor::with_config(
            &self.grammar,
            self.start,
            CompressorConfig::default().threads(1),
        )
    }

    pub fn compressor_timed(&self) -> Compressor<'_> {
        Compressor::with_config(
            &self.grammar,
            self.start,
            CompressorConfig::default().threads(1).collect_timings(true),
        )
    }

    pub fn load<'a>(&'a self, image: &'a Program, config: VmConfig) -> Vm<'a> {
        span("vm.new_compressed", || {
            Vm::new_compressed(image, &self.grammar, self.start, self.byte_nt, config)
                .expect("compressed image loads")
        })
    }
}

/// A cold pass (fresh compressor), a warm pass (the same compressor
/// again) and decompressions of every image, with per-program times.
pub struct Passes {
    pub cold: Vec<Took>,
    pub warm: Vec<Took>,
    /// Per-program times of the last decompression pass.
    pub decompress: Vec<Took>,
    /// Host-corrected seconds of every decompression pass.
    pub decompress_totals_s: Vec<f64>,
    pub images: Vec<CompressedProgram>,
    /// Sizes and phase timings of the cold pass.
    pub stats: CompressionStats,
    pub per_program_stats: Vec<CompressionStats>,
    pub cache_cold: CacheStats,
    /// Hits and misses of the warm pass alone.
    pub cache_warm: CacheStats,
    /// Per-program `(hits, misses)` of the cold and the warm pass.
    pub per_program_cache: Vec<((u64, u64), (u64, u64))>,
}

/// Decompression passes per [`compress_passes`] call.
const DECOMPRESS_REPS: usize = 10;
/// Programs per separately corrected chunk of a compression pass, so
/// that a long pass (the 256-program `serve` pool) follows the host
/// piece by piece.
const CHUNK: usize = 16;

/// Host-corrected total of a pass, in seconds.
pub fn total_s(pass: &[Took]) -> f64 {
    pass.iter().map(|t| t.ms).sum::<f64>() / 1e3
}

/// Measured total of a pass, in ms.
pub fn raw_total_ms(pass: &[Took]) -> f64 {
    pass.iter().map(|t| t.raw_ms).sum()
}

fn delta(after: CacheStats, before: CacheStats) -> (u64, u64) {
    (after.hits - before.hits, after.misses - before.misses)
}

/// Run the three passes over `programs`, counting each call as one
/// operation of kind `compress_cold`/`compress_warm`/`decompress`, and
/// check that the warm pass reproduces the cold one byte for byte and
/// that every image decompresses to its canonical program.
pub fn compress_passes(
    lang: &Lang,
    programs: &[&Program],
    canonical: &[Program],
    timings: bool,
    clock: &mut HostClock,
    report: &mut Report,
) -> Passes {
    let comp = if timings {
        lang.compressor_timed()
    } else {
        lang.compressor()
    };
    // Each pass is timed in chunks of CHUNK programs, each chunk between
    // two host references, and its per-program times are corrected by
    // the chunk's factor.
    let mut images = Vec::new();
    let mut stats = CompressionStats::default();
    let mut per_program_stats = Vec::new();
    let mut per_program = Vec::new();
    let mut cold = Vec::new();
    for chunk in programs.chunks(CHUNK) {
        let (times, took) = clock.time(|| {
            let mut times = Vec::new();
            for p in chunk {
                let i = images.len();
                let before = comp.cache_stats();
                let (out, took) = timed(|| span("core.compress", || comp.compress(p)));
                per_program.push((delta(comp.cache_stats(), before), (0, 0)));
                times.push(ms(took));
                report.op("compress_cold", out.is_err());
                match out {
                    Ok((cp, s)) => {
                        stats = stats.merge(s);
                        per_program_stats.push(s);
                        images.push(cp);
                    }
                    Err(e) => {
                        report.check(false, || format!("compress of program {i} failed: {e}"));
                        per_program_stats.push(CompressionStats::default());
                        images.push(CompressedProgram {
                            program: Program::default(),
                        });
                    }
                }
            }
            times
        });
        cold.extend(times.into_iter().map(|t| took.scale(t)));
    }
    let cache_cold = comp.cache_stats();
    let mut warm = Vec::new();
    for (c, chunk) in programs.chunks(CHUNK).enumerate() {
        let (times, took) = clock.time(|| {
            let mut times = Vec::new();
            for (j, p) in chunk.iter().enumerate() {
                let i = c * CHUNK + j;
                let before = comp.cache_stats();
                let (out, took) = timed(|| span("core.compress", || comp.compress(p)));
                per_program[i].1 = delta(comp.cache_stats(), before);
                times.push(ms(took));
                report.op("compress_warm", out.is_err());
                let same = matches!(&out, Ok((cp, _)) if *cp == images[i]);
                report.check(same, || {
                    format!("warm compress of program {i} differs from the cold pass")
                });
            }
            times
        });
        warm.extend(times.into_iter().map(|t| took.scale(t)));
    }
    let after = comp.cache_stats();
    let cache_warm = CacheStats {
        hits: after.hits - cache_cold.hits,
        misses: after.misses - cache_cold.misses,
        ..after
    };
    // Decompression is cheap next to compression, so its pass runs
    // DECOMPRESS_REPS times to give its median as many samples.
    let mut decompress = Vec::new();
    let mut decompress_totals_s = Vec::new();
    for _ in 0..DECOMPRESS_REPS {
        let (decompress_ms, pass) = clock.time(|| {
            let mut times = Vec::new();
            for (i, cp) in images.iter().enumerate() {
                let (back, took) = timed(|| {
                    span("core.decompress_program", || {
                        pgr_core::compress::decompress_program(&lang.grammar, lang.start, cp)
                    })
                });
                times.push(ms(took));
                report.op("decompress", back.is_err());
                let ok = matches!(&back, Ok(b) if *b == canonical[i]);
                report.check(ok, || {
                    format!("program {i}: decompress(compress(p)) != canonicalize(p)")
                });
            }
            times
        });
        decompress = decompress_ms.into_iter().map(|t| pass.scale(t)).collect();
        decompress_totals_s.push(total_s(&decompress));
    }
    report.check(stats.fallback_segments == 0, || {
        format!(
            "{} segment(s) fell back to verbatim escapes",
            stats.fallback_segments
        )
    });
    Passes {
        cold,
        warm,
        decompress,
        decompress_totals_s,
        images,
        stats,
        per_program_stats,
        cache_cold,
        cache_warm,
        per_program_cache: per_program,
    }
}

/// Canonical forms, the round-trip reference.
pub fn canonical_forms(programs: &[&Program]) -> Vec<Program> {
    programs
        .iter()
        .map(|p| canonicalize_program(p).expect("corpus programs canonicalize"))
        .collect()
}

/// What a program must produce: interp1 on the uncompressed program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Outcome {
    pub output: Vec<u8>,
    pub exit: i32,
    pub steps: u64,
}

pub fn outcome(result: &pgr_vm::RunResult) -> Outcome {
    Outcome {
        output: result.output.clone(),
        exit: result.exit_code.unwrap_or_else(|| result.ret.i()),
        steps: result.steps,
    }
}

/// Run an uncompressed program on interp1 and check it against the
/// sample's known answer, if it has one.
pub fn reference_run(name: &str, program: &Program, report: &mut Report) -> Outcome {
    let result = span("vm.interp1", || {
        Vm::new(program, VmConfig::default())
            .and_then(|mut vm| vm.run())
            .unwrap_or_else(|e| panic!("{name} fails on interp1: {e}"))
    });
    let out = outcome(&result);
    report.check(checks::matches_known(name, &out.output, out.exit), || {
        format!(
            "{name} on interp1: output {:?} exit {} differs from the known answer",
            String::from_utf8_lossy(&out.output),
            out.exit
        )
    });
    out
}
