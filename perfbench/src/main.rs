//! The repository benchmark: four workloads over `em-datagen` inputs, each
//! checked for correctness before it is timed.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <serve_cold|serve_append|hosted_faults|lodo_study> \
//!     --seed <n> --seconds <s> --trace <0|1> [--smoke]
//! ```
//!
//! `--trace 0` times the workload untraced and prints the end-to-end
//! metrics; `--trace 1` repeats one unit of work with `em_obs` capture on,
//! times every layer from outside by calling its public functions, writes
//! the spans to `target/perfbench-trace/` and prints the per-layer metrics.
//! All load comes from this process, one unit of work at a time (a closed
//! loop with a single client); the thread pool runs at its default budget.
//! The last stdout line is the result object; the line before it carries
//! the same metrics with sample counts and quartiles plus the `host` block.
//! See `README.md` for the workloads, the metrics and how to compare runs.

mod host;
mod lodo;
mod serve;
mod stats;
mod trace;

use stats::{summarize, Summary};
use std::collections::BTreeMap;

/// End-to-end metrics, printed by `--trace 0`: `(name, unit)`.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("run_s", "s"),
    ("f1", "ratio"),
    ("usd_per_run", "usd"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, printed by `--trace 1`. A layer the workload does
/// not run reads 0. Layer times are shares of the traced unit's wall
/// clock (setup layers: of one setup), so the shares of one unit plus
/// `trace.unattributed_share` sum to 1.
const PER_LAYER: &[(&str, &str)] = &[
    ("trace.wall_s", "s"),
    ("trace.overhead_frac", "frac"),
    ("trace.unattributed_share", "frac"),
    ("setup.datagen_share", "frac"),
    ("setup.slm_train_share", "frac"),
    ("setup.tier_pretrain_share", "frac"),
    ("setup.store_build_share", "frac"),
    ("finetune.tokens_per_s", "tokens/s"),
    ("blocking.index_build_share", "frac"),
    ("blocking.probe_share", "frac"),
    ("blocking.candidates", "count"),
    ("blocking.postings", "count"),
    ("blocking.recall", "frac"),
    ("store.append_share", "frac"),
    ("cache.warm_run_share", "frac"),
    ("cache.hit_rate", "frac"),
    ("append.scored_pairs", "count"),
    ("serve.escalation_frac.strsim", "frac"),
    ("serve.escalation_frac.slm", "frac"),
    ("strsim.score_share", "frac"),
    ("strsim.pairs_per_s", "pairs/s"),
    ("slm.tokenize_share", "frac"),
    ("slm.forward_share", "frac"),
    ("slm.pairs_per_s", "pairs/s"),
    ("slm.tokens", "count"),
    ("slm.pad_saved_tokens", "count"),
    ("hosted.score_share", "frac"),
    ("hosted.pairs_per_s", "pairs/s"),
    ("hosted.prompt_tokens", "count"),
    ("faults.injected", "count"),
    ("faults.retries", "count"),
    ("faults.retried_tokens", "count"),
    ("faults.degraded", "count"),
    ("faults.useful_token_frac", "frac"),
    ("faults.virtual_backoff_ms", "virtual_ms"),
    ("nn.gemm_gflop", "GFLOP"),
    ("nn.qgemm_gflop", "GFLOP"),
    ("nn.attn_gflop", "GFLOP"),
    ("nn.qgemm_gflops_per_s", "GFLOP/s"),
    ("lodo.factory_share.strsim", "frac"),
    ("lodo.factory_share.zeroer", "frac"),
    ("lodo.factory_share.ditto", "frac"),
    ("lodo.factory_share.anymatch", "frac"),
    ("lodo.factory_share.matchgpt", "frac"),
    ("lodo.fit_share.strsim", "frac"),
    ("lodo.fit_share.zeroer", "frac"),
    ("lodo.fit_share.ditto", "frac"),
    ("lodo.fit_share.anymatch", "frac"),
    ("lodo.fit_share.matchgpt", "frac"),
    ("lodo.predict_share.strsim", "frac"),
    ("lodo.predict_share.zeroer", "frac"),
    ("lodo.predict_share.ditto", "frac"),
    ("lodo.predict_share.anymatch", "frac"),
    ("lodo.predict_share.matchgpt", "frac"),
    ("lodo.worker_busy_frac", "frac"),
    ("workqueue.steals", "count"),
    ("lm.prefix_hits", "count"),
    ("lm.prefix_tokens_saved", "count"),
];

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ServeCold,
    ServeAppend,
    HostedFaults,
    LodoStudy,
}

impl Workload {
    fn parse(s: &str) -> Option<Workload> {
        Some(match s {
            "serve_cold" => Workload::ServeCold,
            "serve_append" => Workload::ServeAppend,
            "hosted_faults" => Workload::HostedFaults,
            "lodo_study" => Workload::LodoStudy,
            _ => return None,
        })
    }

    fn name(self) -> &'static str {
        match self {
            Workload::ServeCold => "serve_cold",
            Workload::ServeAppend => "serve_append",
            Workload::HostedFaults => "hosted_faults",
            Workload::LodoStudy => "lodo_study",
        }
    }
}

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    /// How long the timed phase runs; it always completes at least one
    /// unit of work.
    pub seconds: f64,
    pub trace: bool,
    /// Small inputs for a quick end-to-end check of the harness.
    pub smoke: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut smoke = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload =
                    Some(Workload::parse(v).ok_or_else(|| format!("unknown workload `{v}`"))?);
            }
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, got `{v}`")),
                }
            }
            "--smoke" => smoke = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
        smoke,
    })
}

/// One reported metric.
#[derive(Debug)]
struct Metric {
    unit: &'static str,
    value: f64,
    summary: Option<Summary>,
}

/// The metrics of one run plus its operation counts.
#[derive(Debug)]
pub struct Report {
    trace: bool,
    metrics: BTreeMap<&'static str, Metric>,
    /// Operations attempted: pairs answered (serving) or
    /// (matcher × target) items evaluated (LODO).
    pub attempted: u64,
    /// Attempted operations answered by an errored or degraded stage.
    pub failed: u64,
}

impl Report {
    fn new(trace: bool) -> Report {
        let mut report = Report {
            trace,
            metrics: BTreeMap::new(),
            attempted: 0,
            failed: 0,
        };
        if trace {
            for &(name, _) in PER_LAYER {
                report.set(name, 0.0);
            }
        }
        report
    }

    fn table(&self) -> &'static [(&'static str, &'static str)] {
        if self.trace {
            PER_LAYER
        } else {
            END_TO_END
        }
    }

    /// Sets a metric of this run's table. Panics on a name the table does
    /// not declare (a benchmark bug) or a non-finite value.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.insert(name, value, None);
    }

    /// Sets a metric to the median of `samples`, keeping the quartiles.
    pub fn samples(&mut self, name: &'static str, samples: &[f64]) {
        let s = summarize(samples);
        self.insert(name, s.median, Some(s));
    }

    fn insert(&mut self, name: &'static str, value: f64, summary: Option<Summary>) {
        let unit = self
            .table()
            .iter()
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("metric `{name}` is not declared for this mode"))
            .1;
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        self.metrics.insert(
            name,
            Metric {
                unit,
                value,
                summary,
            },
        );
    }

    /// Sets `peak_rss_mb` from the process's peak resident set size. The
    /// workloads call it after set-up and one unit of work (the warm-up
    /// cold run; LODO: the replay): later units only add allocator
    /// fragmentation, which moves the peak by tens of MB between identical
    /// runs.
    pub fn peak_rss(&mut self) {
        self.set("peak_rss_mb", host::peak_rss_mb());
    }

    /// Sets a layer's time as a share of `whole` seconds.
    pub fn share(&mut self, name: &'static str, seconds: f64, whole: f64) {
        self.set(name, if whole > 0.0 { seconds / whole } else { 0.0 });
    }

    /// The detail line (sample counts, quartiles, host) and the result
    /// line, in print order.
    fn render(&self, args: &Args) -> (String, String) {
        let declared: Vec<&str> = self.table().iter().map(|(n, _)| *n).collect();
        let emitted: Vec<&str> = self.metrics.keys().copied().collect();
        let mut declared_sorted = declared.clone();
        declared_sorted.sort_unstable();
        assert_eq!(
            declared_sorted, emitted,
            "every declared metric must be emitted exactly once"
        );
        let mut detail = Vec::new();
        let mut result = Vec::new();
        for name in declared {
            let m = &self.metrics[name];
            result.push(format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.value, m.unit
            ));
            let s = m.summary.unwrap_or(Summary {
                n: 1,
                q1: m.value,
                median: m.value,
                q3: m.value,
            });
            detail.push(format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{}\", \"n\": {}, \"q1\": {}, \"q3\": {}}}",
                m.value, m.unit, s.n, s.q1, s.q3
            ));
        }
        (
            format!(
                "{{\"workload\": \"{}\", \"seed\": {}, \"trace\": {}, \"smoke\": {}, \"host\": {}, \"ops\": {{\"attempted\": {}, \"failed\": {}}}, \"metrics\": {{{}}}}}",
                args.workload.name(),
                args.seed,
                args.trace,
                args.smoke,
                host::json(),
                self.attempted,
                self.failed,
                detail.join(", ")
            ),
            format!(
                "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
                self.attempted,
                self.failed,
                result.join(", ")
            ),
        )
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <serve_cold|serve_append|hosted_faults|lodo_study> --seed <n> [--seconds <s>] [--trace <0|1>] [--smoke]"
            );
            std::process::exit(2);
        }
    };
    let mut report = Report::new(args.trace);
    let outcome = match args.workload {
        Workload::LodoStudy => lodo::run(&args, &mut report),
        _ => serve::run(&args, &mut report),
    };
    if let Err(e) = outcome {
        eprintln!("perfbench: correctness gate failed: {e}");
        println!(
            "{{\"correct\": false, \"attempted\": {}, \"failed\": {}, \"metrics\": {{}}}}",
            report.attempted.max(1),
            report.failed
        );
        std::process::exit(1);
    }
    let (detail, result) = report.render(&args);
    println!("{detail}");
    println!("{result}");
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` at the repository root and the tables above must
    /// declare the same metrics with the same units.
    #[test]
    fn tables_match_benchmark_json() {
        let json = include_str!("../../BENCHMARK.json");
        let declared: Vec<(&str, &str)> = json
            .lines()
            .filter_map(|l| {
                let name = l.split("\"name\": \"").nth(1)?.split('"').next()?;
                let unit = l.split("\"unit\": \"").nth(1)?.split('"').next()?;
                Some((name, unit))
            })
            .collect();
        let mut ours: Vec<(&str, &str)> = END_TO_END.iter().chain(PER_LAYER).copied().collect();
        let mut theirs = declared.clone();
        ours.sort_unstable();
        theirs.sort_unstable();
        assert_eq!(ours, theirs);
    }

    #[test]
    fn arguments_parse_and_reject_garbage() {
        let argv = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let a = parse_args(&argv(
            "--workload lodo_study --seed 3 --seconds 7 --trace 1",
        ))
        .unwrap();
        assert_eq!(a.workload, Workload::LodoStudy);
        assert_eq!((a.seed, a.seconds, a.trace, a.smoke), (3, 7.0, true, false));
        assert!(parse_args(&argv("--workload nope --seed 1")).is_err());
        assert!(parse_args(&argv("--workload serve_cold")).is_err());
        assert!(parse_args(&argv("--workload serve_cold --seed 1 --trace 2")).is_err());
        assert!(parse_args(&argv("--workload serve_cold --seed 1 --seconds -1")).is_err());
    }
}
