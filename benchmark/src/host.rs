//! The host block every result carries: what machine and build produced
//! it, and which exact models it measured. `--compare` refuses to compare
//! results whose host or model digests differ.

use std::path::Path;
use std::process::{Command, Stdio};

use crate::json::Json;

/// FNV-1a 64-bit digest of a model's persisted bytes, in hex.
pub fn digest(bytes: &[u8]) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{h:016x}")
}

/// `(avx512f, sse2)` as the JIT's ISA tiers see them.
pub fn isa() -> (bool, bool) {
    #[cfg(target_arch = "x86_64")]
    {
        (
            is_x86_feature_detected!("avx512f"),
            is_x86_feature_detected!("sse2"),
        )
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        (false, false)
    }
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The checkout's short git revision, or `unknown` outside a git
/// repository. Git is stopped from searching above the working directory.
pub fn git_revision() -> String {
    let cwd = std::env::current_dir().unwrap_or_default();
    let ceiling = cwd.parent().unwrap_or(Path::new("/")).to_path_buf();
    Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .env("GIT_CEILING_DIRECTORIES", ceiling)
        .stdin(Stdio::null())
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// The host block of one result.
pub fn block(seed: u64, backend: &str, models: &[(String, String)]) -> Json {
    let (avx512, sse2) = isa();
    Json::obj([
        ("nproc", Json::Num(nproc() as f64)),
        ("backend", Json::str(backend)),
        ("avx512f", Json::Bool(avx512)),
        ("sse2", Json::Bool(sse2)),
        ("git", Json::str(git_revision())),
        ("seed", Json::Num(seed as f64)),
        (
            "models",
            Json::obj(
                models
                    .iter()
                    .map(|(name, digest)| (name.clone(), Json::str(digest.clone()))),
            ),
        ),
    ])
}

/// The part of a host block two results must share to be comparable:
/// everything but the git revision and the seed.
pub fn comparable(host: &Json) -> String {
    ["nproc", "backend", "avx512f", "sse2", "models"]
        .iter()
        .map(|k| format!("{k}={}", host.get(k).map_or("-".into(), Json::render)))
        .collect::<Vec<_>>()
        .join(" ")
}
