//! What the benchmark measures: its workloads, its metrics and their
//! regression bounds. `BENCHMARK.json` at the repository root carries the
//! same definitions; a unit test keeps the two in step.

/// Seconds one run measures, unless `--seconds` says otherwise.
pub const RUN_SECONDS: u64 = 15;

/// Absolute floor of the `setup_s` regression bound in `--compare`: a
/// set-up that is a few milliseconds slower is not a regression, whatever
/// its share.
pub const SETUP_FLOOR_S: f64 = 0.05;

/// Which direction of a metric is an improvement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Smaller values are better (times, memory).
    Lower,
    /// Larger values are better (throughput, accuracy).
    Higher,
}

/// One metric: its name, unit, direction and, for end-to-end metrics, the
/// share of the baseline median by which it may worsen before a change
/// counts as a regression.
#[derive(Clone, Copy, Debug)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: None,
    }
}

/// The workloads, in the order a run without `--workload` executes them.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    ServeSmall,
    ServeS1,
    ScoreS1,
    TrainMnist,
    TrainSvhn,
}

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::ServeSmall,
        Workload::ServeS1,
        Workload::ScoreS1,
        Workload::TrainMnist,
        Workload::TrainSvhn,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ServeSmall => "serve-small",
            Workload::ServeS1 => "serve-s1",
            Workload::ScoreS1 => "score-s1",
            Workload::TrainMnist => "train-mnist",
            Workload::TrainSvhn => "train-svhn",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// End-to-end metrics, measured with tracing off. Every workload reports
/// every one of them; what an "operation" is depends on the workload (see
/// the metric definitions in `main.rs`).
pub const END_TO_END: [Metric; 5] = [
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("op_p50_ms", "ms", Better::Lower, 0.20),
    e2e("op_tail_ms", "ms", Better::Lower, 0.20),
    e2e("throughput", "1/s", Better::Higher, 0.20),
    e2e("peak_rss_mb", "MB", Better::Lower, 0.20),
];

/// Per-layer metrics, derived from the spans of a traced run. A workload
/// that does not exercise a layer reports it as 0.
pub const PER_LAYER: [Metric; 44] = [
    // The model layers every workload runs: persisted model → compiled
    // engine → packed predict path.
    layer("core.decode_ms", "ms", Better::Lower),
    layer("engine.compile_ms", "ms", Better::Lower),
    layer("engine.jit_prepare_ms", "ms", Better::Lower),
    layer("engine.tape_ops", "count", Better::Lower),
    layer("engine.exec_us.b1", "us", Better::Lower),
    layer("engine.exec_us.batch", "us", Better::Lower),
    layer("bits.pack_us.batch", "us", Better::Lower),
    layer("engine.predict_ms", "ms", Better::Lower),
    // Serving.
    layer("serve.start_ms", "ms", Better::Lower),
    layer("serve.mean_batch.low", "req", Better::Higher),
    layer("serve.mean_batch.high", "req", Better::Higher),
    layer("serve.mean_batch.sat", "req", Better::Higher),
    layer("serve.batches_per_s.low", "1/s", Better::Lower),
    layer("serve.batches_per_s.high", "1/s", Better::Lower),
    layer("serve.batches_per_s.sat", "1/s", Better::Lower),
    layer("serve.queue_depth_max.low", "req", Better::Lower),
    layer("serve.queue_depth_max.high", "req", Better::Lower),
    layer("serve.queue_depth_max.sat", "req", Better::Lower),
    layer("serve.shed", "count", Better::Lower),
    layer("serve.rejected", "count", Better::Lower),
    layer("serve.protocol_errors", "count", Better::Lower),
    layer("gen.mismatches", "count", Better::Lower),
    layer("client.send_us.p50", "us", Better::Lower),
    layer("protocol.encode_ns", "ns", Better::Lower),
    layer("protocol.decode_ns", "ns", Better::Lower),
    layer("gen.late_us.p99.low", "us", Better::Lower),
    layer("gen.late_us.p99.high", "us", Better::Lower),
    // Offline scoring.
    layer("bits.from_rows_ms", "ms", Better::Lower),
    // Training pipeline, in stage order.
    layer("data.load_ms", "ms", Better::Lower),
    layer("core.teacher_s", "s", Better::Lower),
    layer("core.bank_s", "s", Better::Lower),
    layer("core.output_ms", "ms", Better::Lower),
    layer("core.netlist_ms", "ms", Better::Lower),
    layer("fpga.map_ms", "ms", Better::Lower),
    layer("fpga.prune_ms", "ms", Better::Lower),
    layer("fpga.simulate_ms", "ms", Better::Lower),
    layer("engine.simcheck_ms", "ms", Better::Lower),
    layer("fpga.timing_ms", "ms", Better::Lower),
    layer("power.energy_ms", "ms", Better::Lower),
    layer("core.a3", "ratio", Better::Higher),
    layer("core.a4", "ratio", Better::Higher),
    layer("core.rinc_fidelity", "ratio", Better::Higher),
    layer("fpga.pruned_luts", "count", Better::Lower),
    layer("power.poetbin_nj", "nJ", Better::Lower),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    /// Whether `name` is a valid workload or metric name: 1 to 64
    /// characters from `[A-Za-z0-9_.-]`, starting with a letter or digit.
    fn valid_name(name: &str) -> bool {
        let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name.chars().all(ok)
    }

    /// Whether `unit` is a valid unit: 1 to 16 characters from
    /// `[A-Za-z0-9_/%.-]`.
    fn valid_unit(unit: &str) -> bool {
        let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-');
        (1..=16).contains(&unit.len()) && unit.chars().all(ok)
    }

    #[test]
    fn name_validity() {
        for ok in [
            "setup_s",
            "serve.mean_batch.low",
            "gen.late_us.p99.high",
            "9x",
            "a-b",
        ] {
            assert!(valid_name(ok), "{ok}");
        }
        for bad in ["", ".x", "_x", "a b", "a/b", "é", &"x".repeat(65)] {
            assert!(!valid_name(bad), "{bad:?}");
        }
        assert!(valid_unit("1/s") && valid_unit("%") && valid_unit("count"));
        assert!(!valid_unit("") && !valid_unit("a b") && !valid_unit(&"u".repeat(17)));
    }

    #[test]
    fn definitions_are_well_formed() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(&PER_LAYER)
            .map(|m| m.name)
            .collect();
        names.extend(Workload::ALL.iter().map(|w| w.name()));
        assert!(names.iter().all(|n| valid_name(n)), "{names:?}");
        let count = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), count, "a name is used twice");
        assert!(END_TO_END
            .iter()
            .chain(&PER_LAYER)
            .all(|m| valid_unit(m.unit)));
        assert!(END_TO_END
            .iter()
            .all(|m| m.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
        assert!(PER_LAYER.iter().all(|m| m.bound.is_none()));
        // Set-up time has the largest bound, so work moved into set-up shows.
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s is defined");
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
    }

    #[test]
    fn committed_benchmark_json_matches_the_definitions() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert!(text.len() <= 64 * 1024);
        let doc = Json::parse(&text).expect("BENCHMARK.json parses");
        let keys: Vec<&str> = doc
            .as_obj()
            .expect("an object")
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        let strs = |k: &str| -> Vec<String> {
            let items = doc.get(k).and_then(Json::as_arr).expect("an array");
            items
                .iter()
                .map(|v| v.as_str().expect("a string").to_string())
                .collect()
        };
        assert_eq!(
            strs("command"),
            [
                "cargo",
                "run",
                "--release",
                "--offline",
                "--quiet",
                "--manifest-path",
                "benchmark/Cargo.toml",
                "--"
            ]
        );
        assert_eq!(strs("paths"), ["benchmark"]);
        assert_eq!(
            doc.get("run_seconds").and_then(Json::as_f64),
            Some(RUN_SECONDS as f64)
        );

        let workloads = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .expect("workloads");
        assert_eq!(workloads.len(), Workload::ALL.len());
        for (w, entry) in Workload::ALL.iter().zip(workloads) {
            let keys: Vec<&str> = entry
                .as_obj()
                .expect("an object")
                .iter()
                .map(|(k, _)| k.as_str())
                .collect();
            assert_eq!(keys, ["name", "why"]);
            assert_eq!(entry.get("name").and_then(Json::as_str), Some(w.name()));
            let why = entry.get("why").and_then(Json::as_str).expect("a why");
            assert!(
                !why.is_empty() && why.len() <= 200 && !why.contains('\n'),
                "{why}"
            );
        }

        let metric = |m: &Metric| {
            let better = match m.better {
                Better::Lower => "lower",
                Better::Higher => "higher",
            };
            let mut pairs = vec![
                ("name", Json::str(m.name)),
                ("unit", Json::str(m.unit)),
                ("better", Json::str(better)),
            ];
            pairs.extend(m.bound.map(|b| ("bound", Json::Num(b))));
            Json::obj(pairs)
        };
        for (key, defined) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let expected = Json::Arr(defined.iter().map(metric).collect());
            assert_eq!(
                doc.get(key),
                Some(&expected),
                "{key} should read {}",
                expected.render()
            );
        }
    }
}
