//! Outside timing of layer calls, and the traced run's span export.

use em_obs::trace::{RecordKind, TraceRecord};
use std::collections::{BTreeMap, HashMap};
use std::time::Instant;

/// Runs `f` inside an `em_obs` span named `name` and adds its wall time
/// to `acc`. The span records only while capture is on; the time always
/// accumulates.
pub fn timed<R>(acc: &mut f64, name: &'static str, f: impl FnOnce() -> R) -> R {
    let _span = em_obs::span!(name);
    let t0 = Instant::now();
    let r = f();
    *acc += t0.elapsed().as_secs_f64();
    r
}

/// Runs `f` and returns its result with its wall time in seconds.
pub fn clock<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t0 = Instant::now();
    let r = f();
    (r, t0.elapsed().as_secs_f64())
}

/// Runs `f` with trace capture on, then restores the previous setting.
pub fn captured<R>(f: impl FnOnce() -> R) -> R {
    let was = em_obs::capture_enabled();
    em_obs::trace::set_capture(true);
    let r = f();
    em_obs::trace::set_capture(was);
    r
}

/// Tracing overhead from pairs of units: the two units of a pair run
/// one untraced and one traced, and pairs alternate which runs first.
#[derive(Default)]
pub struct Overhead {
    first: f64,
    ratios: Vec<f64>,
}

impl Overhead {
    /// Whether unit `i` of a traced run is the traced one of its pair.
    pub fn traced(i: usize) -> bool {
        i.is_multiple_of(2) != (i / 2).is_multiple_of(2)
    }

    /// Records the time of unit `i`.
    pub fn record(&mut self, i: usize, seconds: f64) {
        if i.is_multiple_of(2) {
            self.first = seconds;
        } else if Self::traced(i) {
            self.ratios.push(seconds / self.first);
        } else {
            self.ratios.push(self.first / seconds);
        }
    }

    /// The median over complete pairs of traced / untraced time, minus 1.
    pub fn frac(&self) -> Option<f64> {
        (!self.ratios.is_empty()).then(|| crate::stats::summarize(&self.ratios).median - 1.0)
    }
}

/// Writes `records` as JSON lines to
/// `target/perfbench-trace/<workload>-seed<seed>.jsonl` and prints the
/// per-span self-time table to stderr.
pub fn export(workload: &str, seed: u64, records: &[TraceRecord]) -> Result<(), String> {
    let path = format!("target/perfbench-trace/{workload}-seed{seed}.jsonl");
    em_obs::trace::write_jsonl(&path, records).map_err(|e| format!("writing {path}: {e}"))?;
    eprintln!(
        "trace: {} records ({} dropped) -> {path}",
        records.len(),
        em_obs::trace::dropped_records()
    );
    eprintln!(
        "{:<32} {:>8} {:>12} {:>12}",
        "span", "count", "total_s", "self_s"
    );
    for (name, (count, total, own)) in self_times(records).into_iter().take(20) {
        eprintln!("{name:<32} {count:>8} {total:>12.4} {own:>12.4}");
    }
    Ok(())
}

/// Per span name: `(count, total seconds, self seconds)`, by descending
/// self time. A span's self time is its duration minus the durations of
/// its direct children (spans on the same thread whose parent it is).
fn self_times(records: &[TraceRecord]) -> Vec<(&'static str, (u64, f64, f64))> {
    let mut child_ns: HashMap<(u64, u64), u64> = HashMap::new();
    for r in records
        .iter()
        .filter(|r| r.kind == RecordKind::Span && r.parent != 0)
    {
        *child_ns.entry((r.thread, r.parent)).or_default() += r.dur_ns;
    }
    let mut by_name: BTreeMap<&'static str, (u64, f64, f64)> = BTreeMap::new();
    for r in records.iter().filter(|r| r.kind == RecordKind::Span) {
        let children = child_ns.get(&(r.thread, r.id)).copied().unwrap_or(0);
        let e = by_name.entry(r.name).or_default();
        e.0 += 1;
        e.1 += r.dur_ns as f64 / 1e9;
        e.2 += r.dur_ns.saturating_sub(children) as f64 / 1e9;
    }
    let mut rows: Vec<_> = by_name.into_iter().collect();
    rows.sort_by(|a, b| b.1 .2.total_cmp(&a.1 .2).then(a.0.cmp(b.0)));
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use em_obs::trace::Level;

    fn span(id: u64, parent: u64, name: &'static str, dur_ns: u64) -> TraceRecord {
        TraceRecord {
            kind: RecordKind::Span,
            level: Level::Info,
            name,
            thread: 0,
            id,
            parent,
            start_ns: 0,
            dur_ns,
            fields: Vec::new(),
        }
    }

    #[test]
    fn overhead_pairs_alternate_which_unit_is_traced() {
        let order: Vec<bool> = (0..6).map(Overhead::traced).collect();
        assert_eq!(order, [false, true, true, false, false, true]);
        let mut o = Overhead::default();
        for (i, s) in [1.0, 1.1, 2.2, 2.0, 1.0, 1.2].into_iter().enumerate() {
            o.record(i, s);
        }
        let frac = o.frac().expect("three complete pairs");
        assert!((frac - 0.1).abs() < 1e-12, "{frac}");
        assert_eq!(Overhead::default().frac(), None);
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let records = vec![
            span(3, 2, "leaf", 100),
            span(2, 1, "mid", 300),
            span(1, 0, "root", 1_000),
        ];
        let rows: BTreeMap<_, _> = self_times(&records).into_iter().collect();
        assert_eq!(rows["root"], (1, 1e-6, 7e-7));
        assert_eq!(rows["mid"], (1, 3e-7, 2e-7));
        assert_eq!(rows["leaf"], (1, 1e-7, 1e-7));
    }
}
