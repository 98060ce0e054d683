//! The traced run's per-layer attribution (`--trace 1`).
//!
//! Every workload runs the same sweeps over its own inputs: each layer's
//! public entry points are called separately, inside spans, so a layer's
//! figure is its own self time rather than a share of an end-to-end
//! number. Counters come from the program's own telemetry (an enabled
//! `Recorder`, `Vm::tier2_stats`, the server's `stats` op). VM timings
//! always come from recorder-off runs, because an enabled recorder
//! deoptimizes tier 2; the recorder-on run is its own row.

use crate::fixture::{raw_total_ms, Lang, Outcome, Passes};
use crate::serve::{LoopOutcome, ServerStats};
use crate::util::{geomean, median, ms, span, timed, trace_summary, Report};
use pgr_bytecode::{
    read_program_tagged, validate_program, write_program_tagged, ImageKind, Program,
};
use pgr_core::{canonicalize_program, expand_with, ExpanderConfig, Trained};
use pgr_corpus::Corpus;
use pgr_earley::{ChartArena, ShortestParser};
use pgr_grammar::encode::encode_grammar;
use pgr_grammar::initial::tokenize_segment;
use pgr_grammar::{Forest, InitialGrammar};
use pgr_registry::{base64_decode, base64_encode, Registry};
use pgr_telemetry::{json, names, Recorder};
use pgr_vm::{Vm, VmConfig};
use std::path::Path;

/// A program the VM sweep runs: its name, the plain program, its
/// compressed image, and what it must produce.
pub struct Runnable<'a> {
    pub name: &'a str,
    pub plain: &'a Program,
    pub image: &'a Program,
    pub expected: &'a Outcome,
}

/// Training, split into its public steps: validate, canonicalize,
/// tokenize and `Forest::add_segment` (the ingest), then `expand_with`.
/// The result must be the grammar `train` produced.
pub fn training(lcc: &Corpus, trained: &Trained, report: &mut Report) {
    let initial = InitialGrammar::build();
    let mut grammar = initial.grammar.clone();
    let mut forest = Forest::new();
    span("train.ingest", || {
        for program in &lcc.programs {
            let valid = span("train.validate", || validate_program(program));
            report.check(valid.is_ok(), || "an lcc program fails validation".into());
            let canon = span("train.canonicalize", || canonicalize_program(program))
                .expect("lcc canonicalizes");
            for proc in &canon.procs {
                for range in proc.segments().expect("canonical code decodes") {
                    let tokens = span("train.tokenize", || tokenize_segment(&proc.code[range]))
                        .expect("canonical segments tokenize");
                    span("train.add_segment", || {
                        forest.add_segment(&initial, &tokens)
                    })
                    .expect("canonical segments parse");
                }
            }
        }
    });
    let config = ExpanderConfig {
        escape_reserve: Some(initial.nt_start),
        ..ExpanderConfig::default()
    };
    let stats = span("train.expand", || {
        expand_with(&mut grammar, &mut forest, &config, &Recorder::disabled())
    });
    report.check(
        encode_grammar(&grammar) == encode_grammar(trained.expanded()),
        || "training step by step differs from train()".into(),
    );
    let spans = trace_summary();
    report.metric("train.ingest_ms", spans["train.ingest"].total_ms, "ms");
    report.metric("train.expand_ms", spans["train.expand"].total_ms, "ms");
    report.metric(
        "train.inlines",
        (stats.rules_added + stats.rules_reused) as f64,
        "count",
    );
}

/// The engine's own phase timings and derivation-cache behaviour on the
/// workload's compressed inputs (from a pass run with timings on).
pub fn engine(passes: &Passes, report: &mut Report) {
    let t = passes.stats.timings;
    report.metric("engine.canonicalize_ms", ms(t.canonicalize), "ms");
    report.metric("engine.tokenize_ms", ms(t.tokenize), "ms");
    report.metric("engine.parse_ms", ms(t.parse), "ms");
    report.metric("engine.emit_ms", ms(t.emit), "ms");
    let warm = passes.cache_warm;
    let cold = passes.cache_cold;
    report.metric("engine.cache.hits_warm", warm.hits as f64, "count");
    report.metric("engine.cache.misses_warm", warm.misses as f64, "count");
    report.metric(
        "engine.cache.hit_ratio_warm",
        warm.hits as f64 / (warm.hits + warm.misses).max(1) as f64,
        "ratio",
    );
    report.metric(
        "engine.cache.hit_ratio",
        cold.hits as f64 / (cold.hits + cold.misses).max(1) as f64,
        "ratio",
    );
    report.metric(
        "engine.fallback_segments",
        passes.stats.fallback_segments as f64,
        "count",
    );
    report.metric("decompress.ms", raw_total_ms(&passes.decompress), "ms");
}

/// `ShortestParser::parse_into`, timed per segment over the canonical
/// segments of the workload's compressed inputs.
pub fn earley(lang: &Lang, canonical: &[Program], report: &mut Report) {
    let recorder = Recorder::new();
    let parser = ShortestParser::with_recorder(&lang.grammar, recorder.clone());
    let mut arena = ChartArena::new();
    let mut parse_ms = 0.0;
    let mut failed = 0u64;
    for program in canonical {
        for proc in &program.procs {
            for range in proc.segments().expect("canonical code decodes") {
                let tokens = tokenize_segment(&proc.code[range]).expect("segments tokenize");
                let (out, took) = timed(|| {
                    span("earley.parse_into", || {
                        parser.parse_into(&mut arena, lang.start, &tokens)
                    })
                });
                parse_ms += ms(took);
                failed += u64::from(out.is_err());
            }
        }
    }
    report.check(failed == 0, || {
        format!("{failed} segment(s) have no derivation")
    });
    let m = recorder.snapshot();
    let items = m.counter(names::EARLEY_ITEMS_PREDICTED)
        + m.counter(names::EARLEY_ITEMS_SCANNED)
        + m.counter(names::EARLEY_ITEMS_COMPLETED);
    report.metric("earley.parse_ms", parse_ms, "ms");
    report.metric("earley.items", items as f64, "count");
    report.metric(
        "earley.segments",
        m.counter(names::EARLEY_SEGMENTS_PARSED) as f64,
        "count",
    );
}

/// Image framing and validation: write and read every compressed image
/// and every plain program, and validate the plain programs.
pub fn bytecode(plain: &[&Program], images: &[&Program], report: &mut Report) {
    let (mut write_ms, mut read_ms, mut validate_ms) = (0.0, 0.0, 0.0);
    let all = images
        .iter()
        .map(|p| (*p, ImageKind::Compressed))
        .chain(plain.iter().map(|p| (*p, ImageKind::Uncompressed)));
    for (program, kind) in all {
        let (bytes, took) = timed(|| {
            span("bytecode.write_program_tagged", || {
                write_program_tagged(program, kind, None)
            })
        });
        write_ms += ms(took);
        let (back, took) = timed(|| {
            span("bytecode.read_program_tagged", || {
                read_program_tagged(&bytes)
            })
        });
        read_ms += ms(took);
        report.check(
            matches!(&back, Ok((p, k, None)) if p == program && *k == kind),
            || "an image does not read back as written".into(),
        );
    }
    for program in plain {
        let (ok, took) = timed(|| span("bytecode.validate_program", || validate_program(program)));
        validate_ms += ms(took);
        report.check(ok.is_ok(), || "a workload program fails validation".into());
    }
    report.metric("bytecode.image_write_ms", write_ms, "ms");
    report.metric("bytecode.image_read_ms", read_ms, "ms");
    report.metric("bytecode.validate_ms", validate_ms, "ms");
}

/// Wire-format costs on the workload's own payloads: base64 of every
/// image both ways, and parsing a request line that carries it.
pub fn proto(images: &[&Program], report: &mut Report) {
    let (mut b64_us, mut json_us) = (Vec::new(), Vec::new());
    for program in images {
        let bytes = write_program_tagged(program, ImageKind::Compressed, None);
        let ((text, back), took) = timed(|| {
            span("proto.base64", || {
                let text = base64_encode(&bytes);
                let back = base64_decode(&text);
                (text, back)
            })
        });
        b64_us.push(took.as_secs_f64() * 1e6);
        report.check(back.as_deref() == Some(&bytes[..]), || {
            "base64 does not round-trip an image".into()
        });
        let line = format!(r#"{{"op":"run","image":"{text}"}}"#);
        let (doc, took) = timed(|| span("telemetry.json_parse", || json::parse(&line)));
        json_us.push(took.as_secs_f64() * 1e6);
        let image = doc
            .ok()
            .and_then(|d| d.get("image").and_then(|v| v.as_str().map(String::from)));
        report.check(image.as_deref() == Some(text.as_str()), || {
            "a request line does not parse back".into()
        });
    }
    report.metric(
        "proto.base64_us",
        b64_us.iter().sum::<f64>() / b64_us.len() as f64,
        "us",
    );
    report.metric(
        "telemetry.json_parse_us",
        json_us.iter().sum::<f64>() / json_us.len() as f64,
        "us",
    );
}

/// `Registry::load` (read plus re-hash) of the workload's grammar,
/// median of five.
pub fn registry(dir: &Path, pgrg: &[u8], report: &mut Report) {
    let reg = Registry::open(dir.join("registry-probe")).expect("open registry");
    let id = reg.store_bytes(pgrg, "lcc").expect("store grammar").id;
    let times: Vec<f64> = (0..5)
        .map(|_| {
            let (file, took) = timed(|| span("registry.load", || reg.load(&id)));
            report.check(file.is_ok(), || "registry load failed".into());
            ms(took)
        })
        .collect();
    report.metric("registry.load_ms", median(&times), "ms");
    let _ = std::fs::remove_dir_all(dir.join("registry-probe"));
}

/// The tier ladder on the workload's runnable programs: each variant's
/// run time is the median of `reps` runs, and each row is the geometric
/// mean over programs. Every run's output is checked.
pub fn vm(lang: &Lang, runnables: &[Runnable<'_>], reps: usize, report: &mut Report) {
    type Variant = (&'static str, fn() -> VmConfig);
    let variants: [Variant; 5] = [
        ("run", VmConfig::default),
        ("recorder_on", || VmConfig {
            recorder: Recorder::new(),
            ..VmConfig::default()
        }),
        ("tier0", || VmConfig {
            tier: 0,
            ..VmConfig::default()
        }),
        ("tier1", || VmConfig {
            tier: 1,
            ..VmConfig::default()
        }),
        ("reference", || VmConfig {
            reference_walker: true,
            ..VmConfig::default()
        }),
    ];
    let mut rows: Vec<Vec<f64>> = vec![Vec::new(); variants.len() + 2];
    let (mut steps, mut compiled, mut hits, mut deopts, mut fused) = (0u64, 0u64, 0u64, 0u64, 0u64);
    for r in runnables {
        let mut samples: Vec<Vec<f64>> = vec![Vec::new(); variants.len() + 2];
        for rep in 0..reps {
            // Interleave the variants so slow host phases hit them alike.
            for (v, (label, config)) in variants.iter().enumerate() {
                let (mut machine, load) = timed(|| lang.load(r.image, config()));
                let (result, took) = timed(|| span("vm.run", || machine.run()));
                let ok = matches!(&result, Ok(res)
                    if res.output == r.expected.output
                        && res.exit_code.unwrap_or_else(|| res.ret.i()) == r.expected.exit);
                report.check(ok, || {
                    format!("{} under {label} differs from interp1", r.name)
                });
                samples[v].push(ms(took));
                if v == 0 {
                    samples[variants.len()].push(ms(load));
                    if rep == 0 {
                        let t = machine.tier2_stats();
                        steps += result.as_ref().map_or(0, |res| res.steps);
                        compiled += t.compiled;
                        hits += t.hits;
                        fused += t.fused_ops;
                        deopts += t.deopts;
                    }
                }
            }
            let (result, took) = timed(|| {
                span("vm.interp1", || {
                    Vm::new(r.plain, VmConfig::default()).and_then(|mut m| m.run())
                })
            });
            let ok = matches!(&result, Ok(res) if res.output == r.expected.output);
            report.check(ok, || format!("{} on interp1 is not repeatable", r.name));
            samples[variants.len() + 1].push(ms(took));
        }
        for (row, s) in rows.iter_mut().zip(&samples) {
            row.push(median(s));
        }
        let medians: Vec<String> = variants
            .iter()
            .map(|(label, _)| *label)
            .chain(["load", "interp1"])
            .zip(&samples)
            .map(|(label, s)| format!("{label} {:.3}", median(s)))
            .collect();
        eprintln!("vm {} (ms): {}", r.name, medians.join(", "));
    }
    for ((label, _), row) in variants.iter().zip(&rows) {
        report.metric(&format!("vm.{label}_ms.geomean"), geomean(row), "ms");
    }
    report.metric("vm.load_ms.geomean", geomean(&rows[variants.len()]), "ms");
    report.metric(
        "vm.interp1_ms.geomean",
        geomean(&rows[variants.len() + 1]),
        "ms",
    );
    report.metric("vm.steps", steps as f64, "count");
    report.metric("vm.tier2.compiled", compiled as f64, "count");
    report.metric("vm.tier2.hits", hits as f64, "count");
    report.metric("vm.tier2.deopts", deopts as f64, "count");
    report.metric("vm.tier2.fused_ops", fused as f64, "count");
}

/// Served figures: client latency per op, the server's own latency from
/// its `stats` histograms, and what lies between them (socket, framing,
/// reactor); batching; the served VM's tier-2 deopts.
pub fn served(outcome: &LoopOutcome, server: &ServerStats, report: &mut Report) {
    let mut client_mean = Vec::new();
    let mut server_mean = Vec::new();
    for op in ["compress", "decompress", "run"] {
        let lat = outcome
            .raw_latency_ms
            .get(op)
            .map(Vec::as_slice)
            .unwrap_or(&[]);
        let p50 = if lat.is_empty() { 0.0 } else { median(lat) };
        report.metric(&format!("serve.req_ms.{op}.p50"), p50, "ms");
        let s = server.mean_ms[op];
        report.metric(&format!("serve.server_ms.{op}.mean"), s, "ms");
        if !lat.is_empty() {
            client_mean.push((lat.iter().sum::<f64>() / lat.len() as f64, lat.len()));
            server_mean.push((s, lat.len()));
        }
    }
    let weighted = |v: &[(f64, usize)]| {
        let n: usize = v.iter().map(|(_, n)| n).sum();
        v.iter().map(|(m, n)| m * *n as f64).sum::<f64>() / n.max(1) as f64
    };
    report.metric(
        "serve.outside_ms.mean",
        weighted(&client_mean) - weighted(&server_mean),
        "ms",
    );
    report.metric("serve.batch.size.mean", server.batch_size_mean, "count");
    report.metric("serve.batch.wait_us.mean", server.batch_wait_us_mean, "us");
    report.metric("serve.tier2.deopts", server.tier2_deopts as f64, "count");
    report.metric(
        "serve.cache.hit_ratio",
        server.cache_hits as f64 / (server.cache_hits + server.cache_misses).max(1) as f64,
        "ratio",
    );
}

/// Print the span tree's per-name totals (standard error), and report
/// how many spans the traced run kept.
pub fn dump_spans(report: &mut Report) {
    let summary = trace_summary();
    eprintln!(
        "{:<36} {:>8} {:>12} {:>12}",
        "span", "count", "total ms", "self ms"
    );
    for (name, t) in &summary {
        eprintln!(
            "{name:<36} {:>8} {:>12.3} {:>12.3}",
            t.count, t.total_ms, t.self_ms
        );
    }
    report.metric(
        "trace.spans",
        summary.values().map(|t| t.count).sum::<u64>() as f64,
        "count",
    );
}
