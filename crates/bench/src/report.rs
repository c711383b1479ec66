//! Machine-readable bench results: a tiny dependency-free JSON writer.
//!
//! Every bench binary ends by dumping its recorded medians to
//! `BENCH_<name>.json` at the repository root, so the performance
//! trajectory of the hot paths is tracked in-tree from run to run (CI
//! fails the release job if the file is missing or malformed). The format
//! is deliberately minimal:
//!
//! ```json
//! {
//!   "bench": "engine",
//!   "results": [
//!     {
//!       "name": "engine_throughput/scalar_60k",
//!       "median_ns": 1222000000
//!     }
//!   ]
//! }
//! ```
//!
//! Richer artifacts (the `pipeline` binary's scenario reports) build a
//! [`Json`] document and write it with [`write_named_root`].

use std::io::Write;
use std::path::PathBuf;
use std::time::Duration;

/// Escapes a string for embedding in a JSON string literal.
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// The flat `BENCH_*.json` document for `(name, median)` pairs.
fn results_doc(bench: &str, entries: &[(String, Duration)]) -> Json {
    let results = entries
        .iter()
        .map(|(name, median)| {
            Json::obj([
                ("name", Json::str(name.as_str())),
                ("median_ns", Json::Int(median.as_nanos() as i64)),
            ])
        })
        .collect();
    Json::obj([("bench", Json::str(bench)), ("results", Json::Arr(results))])
}

/// Writes `BENCH_<bench>.json` at the repository root, returning the path.
///
/// # Errors
///
/// Propagates file-creation and write failures.
pub fn write_repo_root(bench: &str, entries: &[(String, Duration)]) -> std::io::Result<PathBuf> {
    write_named_root(bench, &results_doc(bench, entries))
}

/// A structured JSON value: the flat `(name, median)` results and the
/// `pipeline` binary's nested accuracy/timing/resource reports alike.
///
/// This is the workspace's one JSON emitter; keep it boring.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `true` / `false`.
    Bool(bool),
    /// An integer (covers counts, milliseconds, LUTs).
    Int(i64),
    /// A finite float (energies, accuracies, watts).
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object with insertion-ordered keys.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Convenience string constructor.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// Convenience object constructor from `(key, value)` pairs.
    pub fn obj(pairs: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Renders the value as pretty-printed JSON.
    ///
    /// # Panics
    ///
    /// Panics on non-finite floats: `NaN`/`inf` have no JSON encoding, and
    /// an artifact carrying one is a bug upstream, not a formatting issue.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: usize) {
        let pad = "  ".repeat(indent + 1);
        let close = "  ".repeat(indent);
        match self {
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(i) => out.push_str(&i.to_string()),
            Json::Float(f) => {
                assert!(f.is_finite(), "non-finite value in JSON artifact: {f}");
                // Rust's `{}` for finite f64 always yields a valid JSON
                // number (round-trippable shortest form).
                out.push_str(&format!("{f}"));
            }
            Json::Str(s) => {
                out.push('"');
                out.push_str(&escape(s));
                out.push('"');
            }
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push_str("[\n");
                for (i, item) in items.iter().enumerate() {
                    out.push_str(&pad);
                    item.write(out, indent + 1);
                    out.push_str(if i + 1 == items.len() { "\n" } else { ",\n" });
                }
                out.push_str(&close);
                out.push(']');
            }
            Json::Obj(pairs) => {
                if pairs.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push_str("{\n");
                for (i, (k, v)) in pairs.iter().enumerate() {
                    out.push_str(&pad);
                    out.push('"');
                    out.push_str(&escape(k));
                    out.push_str("\": ");
                    v.write(out, indent + 1);
                    out.push_str(if i + 1 == pairs.len() { "\n" } else { ",\n" });
                }
                out.push_str(&close);
                out.push('}');
            }
        }
    }
}

/// Writes an arbitrary [`Json`] document to `BENCH_<name>.json` at the
/// repository root, returning the path.
///
/// # Errors
///
/// Propagates file-creation and write failures.
pub fn write_named_root(name: &str, doc: &Json) -> std::io::Result<PathBuf> {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(format!("BENCH_{name}.json"));
    let mut file = std::fs::File::create(&path)?;
    file.write_all(doc.render().as_bytes())?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_valid_minimal_json() {
        let entries = vec![
            ("group/fast".to_string(), Duration::from_nanos(1500)),
            ("group/\"odd\"".to_string(), Duration::from_micros(2)),
        ];
        let json = results_doc("engine", &entries).render();
        assert!(json.contains("\"bench\": \"engine\""));
        assert!(json.contains("\"name\": \"group/fast\",\n      \"median_ns\": 1500\n"));
        assert!(json.contains("\"name\": \"group/\\\"odd\\\"\",\n      \"median_ns\": 2000\n"));
        // Balanced braces/brackets — the structural sanity CI re-checks
        // with a real JSON parser.
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn renders_empty_result_list() {
        let json = results_doc("train", &[]).render();
        assert!(json.contains("\"results\": []"));
    }

    #[test]
    fn json_value_renders_all_variants() {
        let doc = Json::obj([
            ("bench", Json::str("pipeline")),
            ("ok", Json::Bool(true)),
            ("count", Json::Int(-3)),
            ("acc", Json::Float(0.9125)),
            (
                "rows",
                Json::Arr(vec![Json::Int(1), Json::str("two \"quoted\"")]),
            ),
            ("empty_arr", Json::Arr(vec![])),
            ("empty_obj", Json::Obj(vec![])),
        ]);
        let json = doc.render();
        assert!(json.contains("\"bench\": \"pipeline\""));
        assert!(json.contains("\"ok\": true"));
        assert!(json.contains("\"count\": -3"));
        assert!(json.contains("\"acc\": 0.9125"));
        assert!(json.contains("\"two \\\"quoted\\\"\""));
        assert!(json.contains("\"empty_arr\": []"));
        assert!(json.contains("\"empty_obj\": {}"));
        assert!(json.ends_with("}\n"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn json_floats_stay_round_trippable() {
        // `{}` on f64 renders the shortest round-trippable decimal — valid
        // JSON for every finite value, including ones with exponents.
        for v in [0.0, -1.5, 1e-12, 6.25e7, f64::MAX] {
            let s = Json::Float(v).render();
            let back: f64 = s.trim().parse().unwrap();
            assert_eq!(back, v, "render {s}");
        }
    }

    #[test]
    #[should_panic(expected = "non-finite")]
    fn json_rejects_nan() {
        Json::Float(f64::NAN).render();
    }
}
