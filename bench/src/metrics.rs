//! Metric names, units and the output format.
//!
//! `BENCHMARK.json` at the repository root lists the same metrics; a
//! test keeps the two in step.

/// End-to-end metrics of the untraced run: `(name, unit)`. Lower is better.
pub const END_TO_END: [(&str, &str); 3] =
    [("setup_s", "s"), ("wall_s", "s"), ("peak_heap_mb", "MiB")];

/// Fig. 4 lineup labels as they appear in metric names.
pub const FIG_DESIGNS: [&str; 6] = ["sa4", "sa16", "sa32", "z4-4", "z4-16", "z4-52"];

/// Metric-name form of a design label: `SA-4` → `sa4`, `Z4/52` → `z4-52`,
/// `SA-4+VC` → `sa4-vc`.
pub fn slug(label: &str) -> String {
    label
        .to_lowercase()
        .replace("sa-", "sa")
        .replace(['/', '+'], "-")
}

/// Every per-layer metric of the traced run: `(name, unit, better)`.
pub fn per_layer() -> Vec<(String, &'static str, &'static str)> {
    let mut m: Vec<(String, &'static str, &'static str)> = Vec::new();
    let mut add = |name: String, unit, better| m.push((name, unit, better));
    add("zworkloads.gen_ns_per_ref".into(), "ns", "lower");
    for name in ["array.miss_ns_p50", "array.miss_ns_p99"] {
        add(name.into(), "ns", "lower");
    }
    add("array.miss_time_frac".into(), "ratio", "lower");
    for name in [
        "array.cands_per_miss",
        "array.walk_levels_per_miss",
        "array.tag_reads_per_miss",
        "array.relocs_per_miss",
    ] {
        add(name.into(), "count", "lower");
    }
    for name in ["array.hit_ns_p50", "array.hit_ns_p99"] {
        add(name.into(), "ns", "lower");
    }
    add("array.hit_frac".into(), "ratio", "higher");
    add("array.writebacks_per_kacc".into(), "count", "lower");
    for p in ["p50", "p99"] {
        for mode in ["part", "shared", "solo"] {
            add(format!("partition.access_ns_{p}.{mode}"), "ns", "lower");
        }
    }
    for mode in ["part", "shared"] {
        add(format!("partition.miss_frac.{mode}"), "ratio", "lower");
    }
    for d in ["fully"].into_iter().chain(FIG_DESIGNS).chain(["sa4-vc"]) {
        add(format!("array.drive_s.{d}"), "s", "lower");
    }
    add("array.fully_misses".into(), "count", "lower");
    add("zsim.record_s".into(), "s", "lower");
    add("zsim.record_ns_per_l1_ref".into(), "ns", "lower");
    add("zsim.oracle_s".into(), "s", "lower");
    for d in FIG_DESIGNS {
        for p in ["opt", "lru"] {
            add(format!("zsim.replay_s.{d}.{p}"), "s", "lower");
        }
    }
    for p in ["opt", "lru"] {
        add(format!("zsim.replay_ns_per_l2_ref.{p}"), "ns", "lower");
    }
    for name in ["zsim.l1_refs", "zsim.l2_refs"] {
        add(name.into(), "count", "lower");
    }
    for p in ["opt", "lru"] {
        add(format!("zsim.l2_misses.z4-52.{p}"), "count", "lower");
    }
    add("zsim.exec_s".into(), "s", "lower");
    add("zsim.exec_ns_per_l1_ref".into(), "ns", "lower");
    for name in [
        "l1_refs",
        "l2_refs",
        "invalidation_rounds",
        "back_invalidations",
        "mem_accesses",
    ] {
        add(format!("zsim.exec.{name}"), "count", "lower");
    }
    for name in ["tag_contention_cycles", "walk_delay_cycles"] {
        add(format!("zsim.exec.{name}"), "cycles", "lower");
    }
    for name in [
        "serve.host_ns_per_op",
        "serve.shard_step_ns_per_op",
        "serve.loop_ns_per_op",
    ] {
        add(name.into(), "ns", "lower");
    }
    add("serve.ticks".into(), "count", "lower");
    add("serve.hit_frac".into(), "ratio", "higher");
    for name in [
        "serve.budget_reductions",
        "serve.queue_rejections",
        "serve.retries",
    ] {
        add(name.into(), "count", "lower");
    }
    add("trace.overhead_frac".into(), "ratio", "lower");
    add("trace.attributed_frac".into(), "ratio", "higher");
    m
}

/// Per-layer values a traced drive measured, by metric name.
#[derive(Debug, Default)]
pub struct Layers(pub Vec<(String, f64)>);

impl Layers {
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        self.0.push((name.into(), value));
    }
}

/// `a / b`, or 0 when nothing was counted.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// One printed metric; `spread` is `(min, max, samples)` over reps.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: String,
    pub spread: Option<(f64, f64, usize)>,
}

impl Metric {
    /// The `name value unit` line, plus the spread over reps if any.
    pub fn line(&self) -> String {
        match self.spread {
            Some((min, max, n)) => format!(
                "{} {} {} min={min} max={max} reps={n}",
                self.name, self.value, self.unit
            ),
            None => format!("{} {} {}", self.name, self.value, self.unit),
        }
    }
}

/// The result line: one JSON object, every value with all its digits.
pub fn json_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// Median of `v` (mean of the middle pair for an even count).
pub fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    assert!(n > 0, "median of no samples");
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || b"_.-".contains(&b))
            && name.as_bytes()[0].is_ascii_alphanumeric()
    }

    #[test]
    fn names_are_valid_and_unique() {
        let layers = per_layer();
        assert_eq!(layers.len(), 69);
        let mut names: Vec<&str> = layers.iter().map(|(n, _, _)| n.as_str()).collect();
        names.extend(END_TO_END.iter().map(|(n, _)| *n));
        for n in &names {
            assert!(valid_name(n), "bad metric name {n:?}");
        }
        let count = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), count, "duplicate metric name");
    }

    #[test]
    fn benchmark_json_lists_the_same_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside bench/");
        let entries = json.matches("\"better\"").count();
        assert_eq!(entries, per_layer().len() + END_TO_END.len());
        for (name, unit, better) in per_layer() {
            let entry =
                format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\"}}");
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        for (name, unit) in END_TO_END {
            let entry = format!(
                "{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"lower\", \"bound\": "
            );
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
    }

    #[test]
    fn slugs_match_metric_names() {
        assert_eq!(slug("SA-4"), "sa4");
        assert_eq!(slug("SA-32"), "sa32");
        assert_eq!(slug("Z4/52"), "z4-52");
        assert_eq!(slug("SA-4+VC"), "sa4-vc");
    }

    #[test]
    fn json_line_shape() {
        let m = Metric {
            name: "wall_s".into(),
            value: 1.25,
            unit: "s".into(),
            spread: Some((1.0, 2.0, 3)),
        };
        assert_eq!(
            json_line(true, 4, 0, std::slice::from_ref(&m)),
            "{\"correct\": true, \"attempted\": 4, \"failed\": 0, \"metrics\": {\"wall_s\": {\"value\": 1.25, \"unit\": \"s\"}}}"
        );
        assert_eq!(m.line(), "wall_s 1.25 s min=1 max=2 reps=3");
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
