//! The `lodo_study` workload: the paper's leave-one-dataset-out protocol,
//! `em_core::evaluate_all` over a slice of the generated benchmark suite
//! with the roster {StringSim, ZeroER, Ditto, AnyMatch [LLaMA3.2],
//! MatchGPT [GPT-4] with hand-picked demonstrations}.
//!
//! The serving layers sit idle. A sweep's time goes to the matcher
//! factories (Ditto and AnyMatch pretrain their backbones, as the study
//! harness builds them), `em-nn` fine-tuning in `fit`, prefix-cached zoo
//! scoring in MatchGPT's `predict`, and the `em_core::workqueue` that
//! schedules (matcher × target) items over the thread budget.

use crate::stats::{summarize, Counts};
use crate::trace::{captured, clock, export, timed, Overhead};
use crate::{Args, Report};
use em_core::{
    build_batch, evaluate_all, f1_percent, lodo_split, Benchmark, EvalConfig, EvalReport, Matcher,
};
use em_cost::pricing::openai;
use em_lm::{pretrain_tier, LlmTier, PretrainCorpus, PretrainedLlm};
use em_matchers::{AnyMatch, AnyMatchBackbone, DemoStrategy, Ditto, MatchGpt, StringSim, ZeroEr};
use em_obs::trace::{RecordKind, TraceRecord};
use std::sync::Arc;

/// Roster labels, in factory order (the per-layer metric suffixes).
const MATCHERS: [&str; 5] = ["strsim", "zeroer", "ditto", "anymatch", "matchgpt"];
const MATCHGPT: usize = 4;

/// The suite is generated once with a fixed seed, as the paper's benchmark
/// files are fixed; the workload seed is the LODO repetition seed, which
/// permutes the serialization's column order and drives every stochastic
/// choice of the matchers.
const SUITE_SEED: u64 = 0;
/// Pretraining corpus of the matcher backbones (the study's size).
const CORPUS_SIZE: usize = 14_000;
/// Pretraining corpus of the GPT-4 tier: `pretrain_tier` draws four
/// examples per pair, so this keeps a setup to a few seconds.
const TIER_CORPUS_SIZE: usize = 500;
const SETUPS: usize = 3;
/// Untraced/traced sweep pairs of a traced run.
const TRACED_PAIRS: usize = 2;

/// Datasets in the suite slice (each is a LODO target whose transfer
/// data are the others) and the test cap per target.
fn slice(smoke: bool) -> (usize, usize) {
    if smoke {
        (3, 300)
    } else {
        (4, em_core::TEST_CAP)
    }
}

struct Fixture {
    suite: Vec<Benchmark>,
    corpus: Arc<PretrainCorpus>,
    tier: Arc<PretrainedLlm>,
    cfg: EvalConfig,
}

/// Seconds one setup spent per layer.
#[derive(Default)]
struct SetupTimes {
    datagen: f64,
    tier_pretrain: f64,
}

fn setup(args: &Args) -> (Fixture, SetupTimes) {
    let (datasets, test_cap) = slice(args.smoke);
    let mut t = SetupTimes::default();
    let (suite, corpus, tier_corpus) = timed(&mut t.datagen, "setup.datagen", || {
        let mut suite = em_datagen::generate_suite(SUITE_SEED);
        suite.truncate(datasets);
        (
            suite,
            PretrainCorpus {
                pairs: em_datagen::pretrain_corpus(CORPUS_SIZE, 0),
            },
            PretrainCorpus {
                pairs: em_datagen::pretrain_corpus(TIER_CORPUS_SIZE, 0),
            },
        )
    });
    let tier = timed(&mut t.tier_pretrain, "setup.tier_pretrain", || {
        Arc::new(pretrain_tier(LlmTier::Gpt4, &tier_corpus, 0))
    });
    let fx = Fixture {
        suite,
        corpus: Arc::new(corpus),
        tier,
        cfg: EvalConfig {
            seeds: vec![args.seed],
            test_cap,
        },
    };
    (fx, t)
}

/// Builds roster entry `i` the way the study harness does.
fn matcher(corpus: &PretrainCorpus, tier: &Arc<PretrainedLlm>, i: usize) -> Box<dyn Matcher> {
    match i {
        0 => Box::new(StringSim::new()),
        1 => Box::new(ZeroEr::new()),
        2 => Box::new(Ditto::pretrained(corpus)),
        3 => Box::new(AnyMatch::pretrained(AnyMatchBackbone::Llama32, corpus)),
        MATCHGPT => Box::new(MatchGpt::with_llm(tier.clone(), DemoStrategy::HandPicked)),
        _ => unreachable!("the roster has {} matchers", MATCHERS.len()),
    }
}

type Factory = Box<dyn Fn() -> Box<dyn Matcher> + Send + Sync>;

fn roster(fx: &Fixture) -> Vec<(String, Factory)> {
    (0..MATCHERS.len())
        .map(|i| {
            let (corpus, tier) = (fx.corpus.clone(), fx.tier.clone());
            let factory: Factory = Box::new(move || matcher(&corpus, &tier, i));
            (MATCHERS[i].to_string(), factory)
        })
        .collect()
}

/// The sweep evaluated item by item from outside `evaluate_all`: one
/// instance per matcher (as a worker keeps one), `fit` and `predict`
/// timed per matcher.
struct Replay {
    factory: [f64; 5],
    fit: [f64; 5],
    predict: [f64; 5],
    /// Per matcher, per target, per seed.
    f1: Vec<Vec<Vec<f64>>>,
    /// Prompt tokens MatchGPT sends per sweep, counted by the zoo.
    hosted_tokens: u64,
}

fn replay(fx: &Fixture) -> Result<Replay, String> {
    let err = |e: em_core::EmError| e.to_string();
    let mut r = Replay {
        factory: [0.0; 5],
        fit: [0.0; 5],
        predict: [0.0; 5],
        f1: Vec::new(),
        hosted_tokens: 0,
    };
    for i in 0..MATCHERS.len() {
        let mut m = timed(&mut r.factory[i], "replay.lodo.factory", || {
            matcher(&fx.corpus, &fx.tier, i)
        });
        let mut per_target = Vec::new();
        for bench in &fx.suite {
            let split = lodo_split(&fx.suite, bench.id).map_err(err)?;
            let mut per_seed = Vec::new();
            for &seed in &fx.cfg.seeds {
                timed(&mut r.fit[i], "replay.lodo.fit", || m.fit(&split, seed)).map_err(err)?;
                let (batch, labels) = build_batch(split.target, fx.cfg.test_cap, seed);
                // The zoo counts prompt tokens only under capture.
                let (preds, counts) = captured(|| {
                    Counts::around(|| {
                        timed(&mut r.predict[i], "replay.lodo.predict", || {
                            m.predict(&batch)
                        })
                    })
                });
                r.hosted_tokens += counts.get("lm.prompt_tokens");
                per_seed.push(f1_percent(&preds.map_err(err)?, &labels).map_err(err)?);
            }
            per_target.push(per_seed);
        }
        r.f1.push(per_target);
    }
    Ok(r)
}

/// Runs one sweep and checks it against the replay bitwise.
fn sweep(
    fx: &Fixture,
    oracle: &Replay,
    report: &mut Report,
) -> Result<(Vec<EvalReport>, f64), String> {
    let (reports, seconds) = clock(|| evaluate_all(roster(fx), &fx.suite, &fx.cfg));
    let reports = reports.map_err(|e| format!("LODO sweep: {e}"))?;
    for (r, want) in reports.iter().zip(&oracle.f1) {
        for (score, seeds) in r.scores.iter().zip(want) {
            let same = score.per_seed_f1.len() == seeds.len()
                && score
                    .per_seed_f1
                    .iter()
                    .zip(seeds)
                    .all(|(a, b)| a.to_bits() == b.to_bits());
            if !same {
                return Err(format!(
                    "{} on {}: sweep F1 {:?} differs from the replay's {seeds:?}",
                    r.matcher, score.dataset, score.per_seed_f1
                ));
            }
        }
    }
    let items: Vec<_> = reports.iter().flat_map(|r| &r.scores).collect();
    report.attempted += items.len() as u64;
    report.failed += items.iter().filter(|s| s.degraded).count() as u64;
    Ok((reports, seconds))
}

pub fn run(args: &Args, report: &mut Report) -> Result<(), String> {
    if args.trace {
        return traced(args, report);
    }
    let mut times = Vec::with_capacity(SETUPS);
    let mut fx = None;
    for _ in 0..SETUPS {
        drop(fx.take());
        let (f, t) = setup(args);
        times.push(t.datagen + t.tier_pretrain);
        fx = Some(f);
    }
    let fx = fx.expect("at least one setup");
    report.samples("setup_s", &times);

    // The replay is the warm-up and the oracle every sweep must match.
    let oracle = replay(&fx)?;
    let _ = em_obs::trace::drain();
    report.peak_rss();
    let mut seconds: Vec<f64> = Vec::new();
    let mut last = Vec::new();
    while seconds.iter().sum::<f64>() < args.seconds {
        let (reports, s) = sweep(&fx, &oracle, report)?;
        seconds.push(s);
        last = reports;
    }
    let s = summarize(&seconds);
    eprintln!(
        "lodo sweep: median {:.4}s (n={}, q1 {:.4}s, q3 {:.4}s)",
        s.median, s.n, s.q1, s.q3
    );
    report.samples("run_s", &seconds);
    report.set("f1", mean_f1(&last) / 100.0);
    report.set(
        "usd_per_run",
        oracle.hosted_tokens as f64 / 1000.0 * openai::GPT4_PER_1K,
    );
    Ok(())
}

/// The roster's mean of per-matcher macro F1 (percent).
fn mean_f1(reports: &[EvalReport]) -> f64 {
    reports.iter().map(|r| r.mean_column().mean).sum::<f64>() / reports.len() as f64
}

fn traced(args: &Args, report: &mut Report) -> Result<(), String> {
    let ((fx, setup_t), setup_counts) = captured(|| Counts::around(|| setup(args)));
    let whole = setup_t.datagen + setup_t.tier_pretrain;
    report.share("setup.datagen_share", setup_t.datagen, whole);
    report.share("setup.tier_pretrain_share", setup_t.tier_pretrain, whole);
    report.set(
        "finetune.tokens_per_s",
        setup_counts.get("finetune.tokens") as f64 / setup_t.tier_pretrain,
    );

    let oracle = captured(|| replay(&fx))?;
    let mut records = em_obs::trace::drain();
    let mut overhead = Overhead::default();
    let mut last = None;
    for i in 0..2 * TRACED_PAIRS {
        let seconds = if Overhead::traced(i) {
            let (swept, counts) = captured(|| Counts::around(|| sweep(&fx, &oracle, report)));
            let (_, seconds) = swept?;
            let sweep_records = em_obs::trace::drain();
            last = Some((seconds, counts, busy_seconds(&sweep_records)));
            records.extend(sweep_records);
            seconds
        } else {
            sweep(&fx, &oracle, report)?.1
        };
        overhead.record(i, seconds);
    }
    export(args.workload.name(), args.seed, &records)?;

    let (wall, counts, busy) = last.ok_or("no traced sweep ran")?;
    let budget = em_nn::threadpool::max_threads() as f64;
    report.set("trace.wall_s", wall);
    if let Some(frac) = overhead.frac() {
        report.set("trace.overhead_frac", frac);
    }
    let attributed: f64 = oracle
        .factory
        .iter()
        .chain(&oracle.fit)
        .chain(&oracle.predict)
        .sum();
    report.share("trace.unattributed_share", wall - attributed, wall);
    const FACTORY: [&str; 5] = [
        "lodo.factory_share.strsim",
        "lodo.factory_share.zeroer",
        "lodo.factory_share.ditto",
        "lodo.factory_share.anymatch",
        "lodo.factory_share.matchgpt",
    ];
    const FIT: [&str; 5] = [
        "lodo.fit_share.strsim",
        "lodo.fit_share.zeroer",
        "lodo.fit_share.ditto",
        "lodo.fit_share.anymatch",
        "lodo.fit_share.matchgpt",
    ];
    const PREDICT: [&str; 5] = [
        "lodo.predict_share.strsim",
        "lodo.predict_share.zeroer",
        "lodo.predict_share.ditto",
        "lodo.predict_share.anymatch",
        "lodo.predict_share.matchgpt",
    ];
    for i in 0..MATCHERS.len() {
        report.share(FACTORY[i], oracle.factory[i], wall);
        report.share(FIT[i], oracle.fit[i], wall);
        report.share(PREDICT[i], oracle.predict[i], wall);
    }
    report.set("lodo.worker_busy_frac", busy / (wall * budget));
    report.set("workqueue.steals", counts.get("workqueue.steals") as f64);
    report.set("lm.prefix_hits", counts.get("lm.prefix_hits") as f64);
    report.set(
        "lm.prefix_tokens_saved",
        counts.get("lm.prefix_tokens_saved") as f64,
    );
    report.set(
        "hosted.prompt_tokens",
        counts.get("lm.prompt_tokens") as f64,
    );
    report.set("nn.gemm_gflop", counts.get("gemm.flops") as f64 / 1e9);
    report.set("nn.qgemm_gflop", counts.get("qgemm.flops") as f64 / 1e9);
    report.set("nn.attn_gflop", counts.get("attn.flops") as f64 / 1e9);
    Ok(())
}

/// Seconds the sweep's workers spent inside (matcher × target) items:
/// the durations of the `eval.item` spans `em_core` records.
fn busy_seconds(records: &[TraceRecord]) -> f64 {
    records
        .iter()
        .filter(|r| r.kind == RecordKind::Span && r.name == "eval.item")
        .map(|r| r.dur_ns as f64 / 1e9)
        .sum()
}
