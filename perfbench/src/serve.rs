//! The serving workloads: `serve_cold`, `serve_append` and `hosted_faults`.
//!
//! Each serves `em_datagen::serve_relations` through an `em_serve`
//! pipeline: token blocking, then a confidence-gated cascade. `serve_cold`
//! and `serve_append` run StringSim → int8 fine-tuned SLM → GPT-4 tier;
//! `hosted_faults` runs StringSim → GPT-4 tier behind injected API faults.
//! The replay at the bottom re-runs a unit's layers from outside the
//! pipeline through their public functions: it is the correctness oracle
//! for the pipeline's scores and, in a traced run, the per-layer clock.

use crate::stats::{summarize, tail, Counts};
use crate::trace::{captured, clock, export, timed, Overhead};
use crate::{Args, Report, Workload};
use em_bench::robustness::{hard_labeled_pairs, prf, serve_blocker, train_serving_slm, SlmScale};
use em_blocking::{Blocker, CandidatePair, RelationIndex};
use em_core::{run_chunks, EvalBatch, Matcher, SerializedPair};
use em_cost::estimate::self_host_cost_per_1k;
use em_cost::pricing::openai;
use em_datagen::{serve_relations, ServeRelations};
use em_faults::{FaultKind, FaultPlan};
use em_lm::{
    encode_pair, pretrain_tier, Batch, Encoded, EncoderClassifier, HashTokenizer,
    InferencePrecision, LlmTier, PretrainCorpus, PretrainedLlm,
};
use em_matchers::{DemoStrategy, MatchGpt, StringSim};
use em_serve::{FrozenSlm, RecordStore, ServeConfig, ServePipeline, ServeReport, Stage};
use std::collections::HashSet;
use std::sync::Arc;

/// Stage models train on fixed seeds, never on the workload seed, so the
/// served relations stay unseen (the seeds `em_bench::robustness` uses).
const SLM_SEED: u64 = 17;
const TRAIN_RELATIONS_SEED: u64 = 1_007;
const TIER_CORPUS_SEED: u64 = 23;
const TIER_SEED: u64 = 5;

/// Training sizes: every setup trains the stage models again, three times
/// per run, so they are kept to a few seconds while the SLM still clears
/// its holdout gate and the tier answers `hosted_faults` at F1 ≈ 0.98.
const SLM_SCALE: SlmScale = SlmScale {
    relation_size: 2_000,
    train_pairs: 400,
    epochs: 2,
    accuracy_gate: 0.75,
};
const TIER_RELATION_SIZE: usize = 2_000;
/// Positives, and as many blocker-mined hard negatives, the tier
/// pretrains on (`pretrain_tier` draws four examples per corpus pair).
const TIER_CORPUS_PAIRS: usize = 250;

const MATCH_FRACTION: f64 = 0.3;
const STRSIM_MARGIN: f64 = 0.6;
const SLM_MARGIN: f64 = 0.25;
/// `hosted_faults`: StringSim keeps only near-certain answers, so almost
/// every candidate reaches the hosted tier.
const HOSTED_STRSIM_MARGIN: f64 = 0.95;
const FAULT_RATE: f64 = 0.1;
/// Throughput at which the SLM is priced by the paper's self-hosting
/// formula (as in `bench_serve`).
const SLM_TOKENS_PER_S: f64 = 2_000.0;

/// `FrozenSlm`'s tokenization chunk and length-bucket width, mirrored by
/// the replay.
const ENCODE_CHUNK: usize = 256;
const SLM_BUCKET: usize = 64;

/// Unchanged re-runs after each `serve_append` round's append.
const WARM_RUNS: usize = 20;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Untraced/traced unit pairs of a traced run; odd, so the last unit
/// run is a traced one and the replay sees the stores it served.
const TRACED_PAIRS: usize = 3;

/// Workload sizes: records per side, of which `hold` per side are held
/// back as append batches of `append` records.
struct Shape {
    n: usize,
    hold: usize,
    append: usize,
}

fn shape(workload: Workload, smoke: bool) -> Shape {
    let (n, hold, append) = match (workload, smoke) {
        (Workload::ServeAppend, false) => (100_000, 20_000, 1_000),
        (Workload::ServeAppend, true) => (2_000, 700, 100),
        (Workload::HostedFaults, false) => (25_000, 0, 0),
        (_, false) => (100_000, 0, 0),
        (_, true) => (2_000, 0, 0),
    };
    Shape { n, hold, append }
}

/// Trained stage models.
struct Models {
    slm: Option<(EncoderClassifier, HashTokenizer)>,
    tier: Arc<PretrainedLlm>,
}

/// Everything a serving run works on.
struct Fixture {
    rels: ServeRelations,
    /// Records per side the stores start from (all but the held-back).
    base: usize,
    append: usize,
    left: RecordStore,
    right: RecordStore,
    models: Models,
    plan: Option<FaultPlan>,
    pipeline: ServePipeline,
}

/// Seconds one setup spent per layer.
#[derive(Default)]
struct SetupTimes {
    datagen: f64,
    slm_train: f64,
    tier_pretrain: f64,
    store_build: f64,
}

impl SetupTimes {
    fn total(&self) -> f64 {
        self.datagen + self.slm_train + self.tier_pretrain + self.store_build
    }
}

fn setup(args: &Args) -> (Fixture, SetupTimes) {
    let shape = shape(args.workload, args.smoke);
    let mut t = SetupTimes::default();
    let rels = timed(&mut t.datagen, "setup.datagen", || {
        serve_relations(shape.n, shape.n, MATCH_FRACTION, args.seed)
    });
    let corpus = timed(&mut t.datagen, "setup.datagen", || {
        let r = serve_relations(
            TIER_RELATION_SIZE,
            TIER_RELATION_SIZE,
            0.6,
            TRAIN_RELATIONS_SEED,
        );
        PretrainCorpus {
            pairs: hard_labeled_pairs(&r, TIER_CORPUS_PAIRS, TIER_CORPUS_PAIRS, TIER_CORPUS_SEED),
        }
    });
    let slm = (args.workload != Workload::HostedFaults).then(|| {
        timed(&mut t.slm_train, "setup.slm_train", || {
            train_serving_slm(SLM_SCALE, SLM_SEED)
        })
    });
    let tier = timed(&mut t.tier_pretrain, "setup.tier_pretrain", || {
        Arc::new(pretrain_tier(LlmTier::Gpt4, &corpus, TIER_SEED))
    });
    let models = Models { slm, tier };
    let plan = (args.workload == Workload::HostedFaults).then(|| {
        FaultPlan::new(args.seed, FAULT_RATE, FaultKind::ALL.to_vec()).expect("valid fault plan")
    });
    let base = shape.n - shape.hold;
    let (left, right, pipeline) = timed(&mut t.store_build, "setup.store_build", || {
        (
            RecordStore::new(rels.left[..base].to_vec()),
            RecordStore::new(rels.right[..base].to_vec()),
            pipeline(&models, plan.clone()),
        )
    });
    let fx = Fixture {
        rels,
        base,
        append: shape.append,
        left,
        right,
        models,
        plan,
        pipeline,
    };
    (fx, t)
}

fn hosted_matcher(models: &Models, plan: Option<FaultPlan>) -> MatchGpt {
    MatchGpt::with_resilience(
        models.tier.clone(),
        DemoStrategy::None,
        plan,
        Box::new(StringSim::new()),
    )
}

/// The cascade: StringSim → int8 SLM → GPT-4 tier when the models include
/// an SLM, else StringSim (wide margin) → GPT-4 tier.
fn pipeline(models: &Models, plan: Option<FaultPlan>) -> ServePipeline {
    let hosted =
        Stage::new("gpt4", Box::new(hosted_matcher(models, plan))).priced(openai::GPT4_PER_1K);
    let stages = match &models.slm {
        Some((model, tokenizer)) => vec![
            Stage::new("strsim", Box::new(StringSim::new())).with_margin(STRSIM_MARGIN),
            Stage::new(
                "slm",
                Box::new(
                    FrozenSlm::new("slm", model.clone(), tokenizer.clone())
                        .with_precision(InferencePrecision::Int8),
                ),
            )
            .with_margin(SLM_MARGIN)
            .priced(self_host_cost_per_1k(SLM_TOKENS_PER_S)),
            hosted,
        ],
        None => vec![
            Stage::new("strsim", Box::new(StringSim::new())).with_margin(HOSTED_STRSIM_MARGIN),
            hosted,
        ],
    };
    ServePipeline::new(Box::new(serve_blocker()), stages).expect("the cascade has stages")
}

/// Known matches among the records the stores hold, as record ids.
fn truth(fx: &Fixture) -> HashSet<(usize, usize)> {
    let ids = |store: &RecordStore| {
        store
            .records()
            .iter()
            .map(|r| r.id)
            .collect::<HashSet<u64>>()
    };
    let (left, right) = (ids(&fx.left), ids(&fx.right));
    fx.rels
        .matches
        .iter()
        .map(|&(i, j)| (fx.rels.left[i].id, fx.rels.right[j].id))
        .filter(|(l, r)| left.contains(l) && right.contains(r))
        .map(|(l, r)| (l as usize, r as usize))
        .collect()
}

/// Candidate pairs (store positions) as record ids.
fn ids(fx: &Fixture, pairs: &[CandidatePair]) -> Vec<(usize, usize)> {
    pairs
        .iter()
        .map(|&(i, j)| (fx.left.id(i) as usize, fx.right.id(j) as usize))
        .collect()
}

/// F1 of predicted matches against the known ones; blocker misses count
/// as false negatives.
fn f1(fx: &Fixture, matches: &[CandidatePair]) -> f64 {
    prf(&ids(fx, matches), &truth(fx)).2
}

/// Pairs answered by a stage that errored or degraded.
fn failed_pairs(r: &ServeReport) -> u64 {
    r.stages
        .iter()
        .filter(|s| s.errored || s.degraded)
        .map(|s| s.pairs_in as u64)
        .sum()
}

fn same_scores(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

fn check(ok: bool, what: &str) -> Result<(), String> {
    if ok {
        Ok(())
    } else {
        Err(what.to_string())
    }
}

/// Whether two score vectors agree at `positions`. Where `fallback` is
/// given (a hosted stage degraded), a position may also disagree when
/// one side holds the StringSim fallback's score for it.
fn agree(a: &[f32], b: &[f32], positions: &[usize], fallback: Option<&[f32]>) -> bool {
    positions.iter().all(|&p| {
        a[p].to_bits() == b[p].to_bits()
            || fallback.is_some_and(|f| {
                a[p].to_bits() == f[p].to_bits() || b[p].to_bits() == f[p].to_bits()
            })
    })
}

/// The stores' serialized views of `pairs`.
fn serialized(fx: &Fixture, pairs: &[CandidatePair]) -> Vec<SerializedPair> {
    pairs
        .iter()
        .map(|&(i, j)| SerializedPair {
            left: fx.left.shared_text(i),
            right: fx.right.shared_text(j),
        })
        .collect()
}

fn eval_batch(serialized: &[SerializedPair], positions: &[usize]) -> EvalBatch {
    EvalBatch {
        serialized: positions.iter().map(|&p| serialized[p].clone()).collect(),
        raw: Vec::new(),
        attr_types: Vec::new(),
    }
}

/// The StringSim fallback's score for every candidate — what a degraded
/// hosted stage answers with.
fn fallback_scores(fx: &Fixture, pairs: &[CandidatePair]) -> Result<Vec<f32>, String> {
    let ser = serialized(fx, pairs);
    let all: Vec<usize> = (0..ser.len()).collect();
    StringSim::new()
        .predict_scores(&eval_batch(&ser, &all))
        .map_err(|e| format!("fallback scores: {e}"))
}

/// One unit of work: a cold run, or a `serve_append` round.
enum Unit {
    Cold(ServeReport, f64),
    Round(Round),
}

impl Unit {
    fn report(&self) -> &ServeReport {
        match self {
            Unit::Cold(r, _) => r,
            Unit::Round(r) => &r.report,
        }
    }

    fn seconds(&self) -> f64 {
        match self {
            Unit::Cold(_, s) => *s,
            Unit::Round(r) => r.append_s + r.run_s + r.warm_s.iter().sum::<f64>(),
        }
    }

    /// Pairs answered, and pairs answered by an errored or degraded
    /// stage, over every run of the unit.
    fn ops(&self) -> (u64, u64) {
        let runs = match self {
            Unit::Cold(..) => 1,
            Unit::Round(_) => 1 + WARM_RUNS as u64,
        };
        let r = self.report();
        (r.candidates as u64 * runs, failed_pairs(r) * runs)
    }
}

/// One cold run: scores and blocking state are dropped first, so every
/// candidate is blocked and scored again.
fn cold_run(fx: &mut Fixture) -> Result<(ServeReport, f64), String> {
    fx.pipeline.clear_cache();
    fx.pipeline.invalidate_blocking();
    let (r, s) = clock(|| fx.pipeline.run(&fx.left, &fx.right));
    Ok((r.map_err(|e| format!("cold run: {e}"))?, s))
}

/// A `serve_append` round: append a batch to one side, serve, then serve
/// the unchanged stores `WARM_RUNS` more times.
struct Round {
    side: usize,
    append_s: f64,
    run_s: f64,
    warm_s: Vec<f64>,
    report: ServeReport,
}

/// Held-back batches per side.
fn batches(fx: &Fixture) -> usize {
    (fx.rels.left.len() - fx.base)
        .checked_div(fx.append)
        .unwrap_or(0)
}

/// Puts both stores back to their base records and serves them once,
/// untimed: the re-run rebuilds both indexes while every score is still
/// cached. Every append round starts from this state, so the timed work
/// does not drift with the number of rounds run. Returns the candidates.
fn reset(fx: &mut Fixture) -> Result<Vec<CandidatePair>, String> {
    fx.left = RecordStore::new(fx.rels.left[..fx.base].to_vec());
    fx.right = RecordStore::new(fx.rels.right[..fx.base].to_vec());
    let r = fx
        .pipeline
        .run(&fx.left, &fx.right)
        .map_err(|e| format!("reset run: {e}"))?;
    check(
        r.stages[0].scored == 0,
        "the base stores' scores must all be cached",
    )?;
    Ok(r.pairs)
}

/// A discarded `serve_append` cycle on held-back batch 0: the unchanged
/// re-runs of the first cycles after set-up run about twice as long as
/// later ones.
fn warm_up_cycle(fx: &mut Fixture) -> Result<(), String> {
    append_round(fx, 0, 0)?;
    append_round(fx, 1, 0)?;
    Ok(())
}

/// Appends held-back batch `batch` to `side` (0 left, 1 right).
fn append_round(fx: &mut Fixture, side: usize, batch: usize) -> Result<Round, String> {
    let (source, store) = if side == 0 {
        (&fx.rels.left, &mut fx.left)
    } else {
        (&fx.rels.right, &mut fx.right)
    };
    let start = fx.base + batch * fx.append;
    let records = source[start..start + fx.append].to_vec();
    let ((), append_s) = clock(|| store.append(records));
    let (report, run_s) = clock(|| fx.pipeline.run(&fx.left, &fx.right));
    let report = report.map_err(|e| format!("append run: {e}"))?;
    let mut warm_s = Vec::with_capacity(WARM_RUNS);
    for _ in 0..WARM_RUNS {
        let (warm, s) = clock(|| fx.pipeline.run(&fx.left, &fx.right));
        let warm = warm.map_err(|e| format!("warm run: {e}"))?;
        check(
            warm.blocking_reused
                && warm.stages.iter().all(|s| s.scored == 0)
                && same_scores(&warm.scores, &report.scores),
            "an unchanged re-run must reuse blocking and replay every score from the cache bitwise",
        )?;
        warm_s.push(s);
    }
    Ok(Round {
        side,
        append_s,
        run_s,
        warm_s,
        report,
    })
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
        times.push(t.total());
        fx = Some(f);
    }
    let mut fx = fx.expect("at least one setup");
    report.samples("setup_s", &times);

    // Warm-up: serve cold once. Cold units must reproduce it bitwise;
    // first it is checked against an outside replay (`serve_cold`) or a
    // fault-free pipeline (`hosted_faults`). `serve_append` also runs a
    // discarded cycle, over which its unchanged re-runs settle.
    let (reference, _) = cold_run(&mut fx)?;
    report.peak_rss();
    if fx.plan.is_some() {
        check_fault_free(&fx, &reference)?;
    } else if fx.append == 0 {
        replay_unit(&fx, &reference, None, &mut Layers::default())?;
    } else {
        warm_up_cycle(&mut fx)?;
    }

    // Units run until their own time adds up to `--seconds`; set-up work
    // between them (append resets) is not counted.
    let mut units: Vec<Unit> = Vec::new();
    let mut samples: Vec<f64> = Vec::new();
    let mut usd = Vec::new();
    while samples.iter().sum::<f64>() < args.seconds {
        if fx.append == 0 {
            let (r, s) = cold_run(&mut fx)?;
            check(
                same_scores(&r.scores, &reference.scores),
                "cold runs disagree bitwise",
            )?;
            samples.push(s);
            usd.push(r.total_usd());
            units.push(Unit::Cold(r, s));
        } else {
            // A cycle appends one batch to each side; the sides cost
            // differently, so the cycle is the timed unit.
            let batch = 1 + units.len() / 2;
            if batch == batches(&fx) {
                break;
            }
            reset(&mut fx)?;
            let left = append_round(&mut fx, 0, batch)?;
            let right = append_round(&mut fx, 1, batch)?;
            let (left, right) = (Unit::Round(left), Unit::Round(right));
            samples.push(left.seconds() + right.seconds());
            usd.push(left.report().total_usd() + right.report().total_usd());
            units.extend([left, right]);
        }
    }
    for unit in &units {
        let (attempted, failed) = unit.ops();
        report.attempted += attempted;
        report.failed += failed;
    }
    let last = units.last().ok_or("no unit ran")?.report();
    if fx.append > 0 {
        // The state the rounds built must be what a fresh pipeline
        // computes anew over the same stores.
        let fresh = pipeline(&fx.models, fx.plan.clone())
            .run(&fx.left, &fx.right)
            .map_err(|e| format!("fresh pipeline: {e}"))?;
        check(
            fresh.pairs == last.pairs && same_scores(&fresh.scores, &last.scores),
            "the last append round disagrees with a fresh pipeline over the same stores",
        )?;
        let rounds = || {
            units.iter().filter_map(|u| match u {
                Unit::Round(r) => Some(r),
                Unit::Cold(..) => None,
            })
        };
        log_samples(
            "append + run",
            &rounds().map(|r| r.append_s + r.run_s).collect::<Vec<_>>(),
        );
        log_samples(
            "warm run",
            &rounds().flat_map(|r| r.warm_s.clone()).collect::<Vec<_>>(),
        );
    }
    log_samples(args.workload.name(), &samples);
    report.samples("run_s", &samples);
    report.samples("usd_per_run", &usd);
    report.set("f1", f1(&fx, &last.matches));
    Ok(())
}

/// `hosted_faults` gate: with faults injected, every pair scores exactly
/// as in a fault-free pipeline, except pairs a degraded stage answered
/// with its StringSim fallback.
fn check_fault_free(fx: &Fixture, faulted: &ServeReport) -> Result<(), String> {
    let clean = pipeline(&fx.models, None)
        .run(&fx.left, &fx.right)
        .map_err(|e| format!("fault-free run: {e}"))?;
    check(clean.pairs == faulted.pairs, "fault-free candidates differ")?;
    let fallback = if faulted.any_degraded() || faulted.any_errored() {
        Some(fallback_scores(fx, &faulted.pairs)?)
    } else {
        None
    };
    let all: Vec<usize> = (0..clean.scores.len()).collect();
    check(
        agree(&faulted.scores, &clean.scores, &all, fallback.as_deref()),
        "injected faults changed scores",
    )
}

fn log_samples(what: &str, samples: &[f64]) {
    let s = summarize(samples);
    let tail = tail(samples).map_or(String::new(), |(p, v)| format!(", p{} {v:.4}s", p * 100.0));
    eprintln!(
        "{what}: median {:.4}s (n={}, q1 {:.4}s, q3 {:.4}s{tail})",
        s.median, s.n, s.q1, s.q3
    );
}

/// A traced run: set up once with capture on, alternate untraced and
/// traced units, then replay the last traced unit's layers from outside
/// and attribute its wall clock to them. In `serve_append` a unit is one
/// round, run from the base stores.
fn traced(args: &Args, report: &mut Report) -> Result<(), String> {
    let ((mut fx, setup_t), setup_counts) = captured(|| Counts::around(|| setup(args)));
    let whole = setup_t.total();
    report.share("setup.datagen_share", setup_t.datagen, whole);
    report.share("setup.slm_train_share", setup_t.slm_train, whole);
    report.share("setup.tier_pretrain_share", setup_t.tier_pretrain, whole);
    report.share("setup.store_build_share", setup_t.store_build, whole);
    report.set(
        "finetune.tokens_per_s",
        setup_counts.get("finetune.tokens") as f64 / (setup_t.slm_train + setup_t.tier_pretrain),
    );

    cold_run(&mut fx)?;
    let mut units = 2 * TRACED_PAIRS;
    if fx.append > 0 {
        warm_up_cycle(&mut fx)?;
        units = units.min(batches(&fx) - 1);
    }
    let mut overhead = Overhead::default();
    let mut last = None;
    for i in 0..units {
        // Both units of a pair grow the same side.
        let side = (i / 2) % 2;
        let trace_now = Overhead::traced(i);
        let before = if fx.append > 0 {
            reset(&mut fx)?
        } else {
            Vec::new()
        };
        let unit = |fx: &mut Fixture| -> Result<Unit, String> {
            if fx.append > 0 {
                append_round(fx, side, i + 1).map(Unit::Round)
            } else {
                cold_run(fx).map(|(r, s)| Unit::Cold(r, s))
            }
        };
        let (unit, counts) = if trace_now {
            captured(|| Counts::around(|| unit(&mut fx)))
        } else {
            Counts::around(|| unit(&mut fx))
        };
        let unit = unit?;
        let (attempted, failed) = unit.ops();
        report.attempted += attempted;
        report.failed += failed;
        overhead.record(i, unit.seconds());
        if trace_now {
            last = Some((unit, counts, before));
        }
    }
    let (unit, counts, before) = last.ok_or("no traced unit ran")?;
    let r = unit.report();
    let prev = match &unit {
        Unit::Round(round) => Some((round.side, before.into_iter().collect::<HashSet<_>>())),
        Unit::Cold(..) => None,
    };
    let mut layers = Layers::default();
    captured(|| replay_unit(&fx, r, prev.as_ref(), &mut layers))?;
    export(args.workload.name(), args.seed, &em_obs::trace::drain())?;

    let wall = unit.seconds();
    let mut attributed = layers.total();
    if let Unit::Round(round) = &unit {
        let warm: f64 = round.warm_s.iter().sum();
        report.share("store.append_share", round.append_s, wall);
        report.share("cache.warm_run_share", warm, wall);
        report.set(
            "append.scored_pairs",
            r.stages.iter().map(|s| s.scored).sum::<usize>() as f64,
        );
        attributed += round.append_s + warm;
    }
    if let Some(frac) = overhead.frac() {
        report.set("trace.overhead_frac", frac);
    }
    report.set("trace.wall_s", wall);
    report.share("trace.unattributed_share", wall - attributed, wall);
    layers.report(report, wall);

    let truth = truth(&fx);
    let candidates: HashSet<(usize, usize)> = ids(&fx, &r.pairs).into_iter().collect();
    report.set("blocking.candidates", r.candidates as f64);
    report.set("blocking.postings", counts.get("block.postings") as f64);
    report.set(
        "blocking.recall",
        truth.iter().filter(|m| candidates.contains(m)).count() as f64 / truth.len().max(1) as f64,
    );
    let (hits, pairs_in) = r
        .stages
        .iter()
        .fold((0, 0), |(h, n), s| (h + s.cache_hits, n + s.pairs_in));
    report.set("cache.hit_rate", hits as f64 / pairs_in.max(1) as f64);
    report.set(
        "serve.escalation_frac.strsim",
        r.stages[0].escalation_fraction(),
    );
    if let Some(slm) = r.stages.iter().find(|s| s.name == "slm") {
        report.set("serve.escalation_frac.slm", slm.escalation_fraction());
    }
    report.set("nn.gemm_gflop", counts.get("gemm.flops") as f64 / 1e9);
    report.set("nn.qgemm_gflop", counts.get("qgemm.flops") as f64 / 1e9);
    report.set("nn.attn_gflop", counts.get("attn.flops") as f64 / 1e9);
    Ok(())
}

/// Outside-timed seconds and work counts of one unit's layers.
#[derive(Default)]
struct Layers {
    index_build: f64,
    probe: f64,
    strsim: f64,
    slm_tokenize: f64,
    slm_forward: f64,
    hosted: f64,
    strsim_pairs: usize,
    slm_pairs: usize,
    hosted_pairs: usize,
    slm_tokens: u64,
    slm_pad_saved: u64,
    slm_counts: Counts,
    hosted_tokens: u64,
    hosted_counts: Counts,
    virtual_backoff_ns: u64,
}

impl Layers {
    fn total(&self) -> f64 {
        self.index_build
            + self.probe
            + self.strsim
            + self.slm_tokenize
            + self.slm_forward
            + self.hosted
    }

    fn report(&self, report: &mut Report, wall: f64) {
        let rate = |n: usize, s: f64| if s > 0.0 { n as f64 / s } else { 0.0 };
        report.share("blocking.index_build_share", self.index_build, wall);
        report.share("blocking.probe_share", self.probe, wall);
        report.share("strsim.score_share", self.strsim, wall);
        report.set("strsim.pairs_per_s", rate(self.strsim_pairs, self.strsim));
        report.share("slm.tokenize_share", self.slm_tokenize, wall);
        report.share("slm.forward_share", self.slm_forward, wall);
        report.set(
            "slm.pairs_per_s",
            rate(self.slm_pairs, self.slm_tokenize + self.slm_forward),
        );
        report.set("slm.tokens", self.slm_tokens as f64);
        report.set("slm.pad_saved_tokens", self.slm_pad_saved as f64);
        let qgemm = self.slm_counts.get("qgemm.flops") as f64 / 1e9;
        report.set(
            "nn.qgemm_gflops_per_s",
            if self.slm_forward > 0.0 {
                qgemm / self.slm_forward
            } else {
                0.0
            },
        );
        report.share("hosted.score_share", self.hosted, wall);
        report.set("hosted.pairs_per_s", rate(self.hosted_pairs, self.hosted));
        report.set("hosted.prompt_tokens", self.hosted_tokens as f64);
        let retried = self.hosted_counts.get("faults.retried_tokens");
        report.set(
            "faults.injected",
            self.hosted_counts.get("faults.injected") as f64,
        );
        report.set(
            "faults.retries",
            self.hosted_counts.get("faults.retries") as f64,
        );
        report.set("faults.retried_tokens", retried as f64);
        report.set(
            "faults.degraded",
            self.hosted_counts.get("faults.degraded") as f64,
        );
        report.set(
            "faults.useful_token_frac",
            self.hosted_tokens as f64 / (self.hosted_tokens + retried).max(1) as f64,
        );
        report.set(
            "faults.virtual_backoff_ms",
            self.virtual_backoff_ns as f64 / 1e6,
        );
    }
}

/// Replays a unit from outside the pipeline over the stores as the unit
/// left them, and checks the pipeline's scores against it bitwise. A cold
/// unit replays everything. An append round (`prev` = the grown side and
/// the candidates before the append) rebuilds only the grown side's index
/// and scores only the new candidates: the work the round's run did.
fn replay_unit(
    fx: &Fixture,
    unit: &ServeReport,
    prev: Option<&(usize, HashSet<CandidatePair>)>,
    layers: &mut Layers,
) -> Result<(), String> {
    let blocker = serve_blocker();
    let needed = blocker.required_features();
    let index = |store: &RecordStore, rebuilt: bool, acc: &mut f64| {
        if rebuilt {
            timed(acc, "replay.blocking.index_build", || {
                RelationIndex::build(store.records(), &needed)
            })
        } else {
            RelationIndex::build(store.records(), &needed)
        }
    };
    let grown = prev.map(|(side, _)| *side);
    let li = index(&fx.left, grown != Some(1), &mut layers.index_build);
    let ri = index(&fx.right, grown != Some(0), &mut layers.index_build);
    let pairs = timed(&mut layers.probe, "replay.blocking.probe", || {
        blocker.candidates_indexed(&li, &ri)
    });
    check(
        pairs == unit.pairs,
        "replayed blocking disagrees with the pipeline's candidates",
    )?;

    let ser = serialized(fx, &pairs);
    let todo: Vec<usize> = match prev {
        None => (0..pairs.len()).collect(),
        Some((_, before)) => (0..pairs.len())
            .filter(|&p| !before.contains(&pairs[p]))
            .collect(),
    };
    check(
        unit.stages[0].scored == todo.len(),
        "the pipeline scored other pairs than the new candidates",
    )?;
    let mut replay = Replay::new(&fx.models, fx.plan.clone());
    let (scores, stage0) = replay.score(&ser, &todo, layers)?;
    let degraded = unit.any_degraded() || unit.any_errored() || replay.hosted.was_degraded();
    check(
        agree(
            &unit.scores,
            &scores,
            &todo,
            degraded.then_some(&stage0[..]),
        ),
        "the outside cascade replay disagrees with the pipeline's scores",
    )
}

/// The cascade's stages, called directly.
struct Replay {
    strsim_margin: f64,
    /// The SLM with int8 inference, as `FrozenSlm` serves it.
    slm: Option<(EncoderClassifier, HashTokenizer)>,
    hosted: MatchGpt,
    tier: Arc<PretrainedLlm>,
}

impl Replay {
    fn new(models: &Models, plan: Option<FaultPlan>) -> Replay {
        let slm = models.slm.as_ref().map(|(model, tokenizer)| {
            let mut model = model.clone();
            model.set_inference_precision(InferencePrecision::Int8);
            (model, tokenizer.clone())
        });
        Replay {
            strsim_margin: if slm.is_some() {
                STRSIM_MARGIN
            } else {
                HOSTED_STRSIM_MARGIN
            },
            slm,
            hosted: hosted_matcher(models, plan),
            tier: models.tier.clone(),
        }
    }

    /// Scores `todo` (positions into `ser`) through the cascade in the
    /// pipeline's batch size. Returns the final scores and the StringSim
    /// scores, both indexed by position (NaN elsewhere).
    fn score(
        &mut self,
        ser: &[SerializedPair],
        todo: &[usize],
        layers: &mut Layers,
    ) -> Result<(Vec<f32>, Vec<f32>), String> {
        let batch_size = ServeConfig::default().batch_size;
        let err = |e: em_core::EmError| e.to_string();
        let mut scores = vec![f32::NAN; ser.len()];
        let mut strsim = StringSim::new();
        layers.strsim_pairs += todo.len();
        for chunk in todo.chunks(batch_size) {
            let batch = eval_batch(ser, chunk);
            let s = timed(&mut layers.strsim, "replay.strsim.score", || {
                strsim.predict_scores(&batch)
            });
            for (&p, v) in chunk.iter().zip(s.map_err(err)?) {
                scores[p] = v;
            }
        }
        let stage0 = scores.clone();
        let mut active = escalate(todo, &scores, self.strsim_margin);

        if let Some((model, tokenizer)) = &self.slm {
            layers.slm_pairs += active.len();
            let (res, counts) = Counts::around(|| -> Result<(), String> {
                for chunk in active.chunks(batch_size) {
                    slm_scores(model, tokenizer, ser, chunk, &mut scores, layers)?;
                }
                Ok(())
            });
            res?;
            layers.slm_counts = counts;
            active = escalate(&active, &scores, SLM_MARGIN);
        }

        layers.hosted_pairs += active.len();
        let clock_before = self.clock_ns();
        let (res, counts) = Counts::around(|| -> Result<(), String> {
            for chunk in active.chunks(batch_size) {
                let batch = eval_batch(ser, chunk);
                let s = timed(&mut layers.hosted, "replay.hosted.score", || {
                    self.hosted.predict_scores(&batch)
                });
                for (&p, v) in chunk.iter().zip(s.map_err(err)?) {
                    scores[p] = v;
                }
            }
            Ok(())
        });
        res?;
        layers.hosted_counts = counts;
        layers.virtual_backoff_ns += self.clock_ns() - clock_before;
        layers.hosted_tokens += active
            .iter()
            .map(|&p| self.tier.prompt_token_count(&ser[p], &[]) as u64)
            .sum::<u64>();
        Ok((scores, stage0))
    }

    fn clock_ns(&self) -> u64 {
        self.hosted.resilient().map_or(0, |c| c.clock().now_ns())
    }
}

/// Positions whose confidence `|2s − 1|` stays under `margin` — the
/// pipeline's escalation rule.
fn escalate(positions: &[usize], scores: &[f32], margin: f64) -> Vec<usize> {
    positions
        .iter()
        .copied()
        .filter(|&p| (2.0 * scores[p] as f64 - 1.0).abs() < margin)
        .collect()
}

/// `FrozenSlm`'s scoring of one batch, one layer at a time: parallel
/// tokenization (`encode_pair`), then length-bucketed collation and the
/// encoder forward pass.
fn slm_scores(
    model: &EncoderClassifier,
    tokenizer: &HashTokenizer,
    ser: &[SerializedPair],
    chunk: &[usize],
    scores: &mut [f32],
    layers: &mut Layers,
) -> Result<(), String> {
    let max_seq = model.config.max_seq;
    let pairs: Vec<&SerializedPair> = chunk.iter().map(|&p| &ser[p]).collect();
    let parts: Vec<&[&SerializedPair]> = pairs.chunks(ENCODE_CHUNK).collect();
    let encoded: Vec<Encoded> = timed(&mut layers.slm_tokenize, "replay.slm.tokenize", || {
        run_chunks(&parts, |part| {
            part.iter()
                .map(|p| encode_pair(tokenizer, p, max_seq))
                .collect::<Vec<_>>()
        })
    })
    .map_err(|e| e.to_string())?
    .into_iter()
    .flatten()
    .collect();
    let valid: Vec<usize> = encoded
        .iter()
        .map(|e| e.mask.iter().rposition(|&m| m).map_or(1, |p| p + 1))
        .collect();
    layers.slm_tokens += valid.iter().sum::<usize>() as u64;
    let mut order: Vec<usize> = (0..encoded.len()).collect();
    order.sort_by_key(|&i| valid[i]);
    let mut pad_saved = 0;
    timed(&mut layers.slm_forward, "replay.slm.forward", || {
        let mut batch = Batch::empty();
        for bucket in order.chunks(SLM_BUCKET) {
            batch.collate_indices_into(&encoded, bucket);
            pad_saved += batch.padded_tokens_saved(max_seq) as u64;
            for (&i, logit) in bucket.iter().zip(model.forward(&batch)) {
                scores[chunk[i]] = em_nn::sigmoid_f32(logit);
            }
        }
    });
    layers.slm_pad_saved += pad_saved;
    Ok(())
}
