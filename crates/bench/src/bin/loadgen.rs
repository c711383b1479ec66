//! Closed-loop round-trip smoke for `poetbin-serve`.
//!
//! Starts an in-process multi-model server on an ephemeral port once per
//! linger setting and drives it from `--clients` client threads. Each
//! client waits for its response before sending the next request, so
//! concurrency equals the client count, and interleaves its requests
//! round-robin across every loaded model (request `i` targets model
//! `i mod M`), so the worker shards exercise their per-model batch
//! grouping. The `--requests` total is split exactly across the clients.
//!
//! Every prediction is verified against the offline batch-path result of
//! the model it targeted. Transient sheds (typed `STATUS_OVERLOADED` /
//! `STATUS_DEADLINE_EXCEEDED`) are retried inline with jittered backoff
//! ([`Client::predict_with_backoff`]) and the retries reported
//! separately — they are the backpressure contract working, not errors —
//! but any mismatch, typed rejection, or transport error fails the run.
//!
//! Open-loop latency under a fixed arrival rate is measured by the
//! repository benchmark (`benchmark/`, workloads `serve-small` and
//! `serve-s1`); overload shedding and the accepted-request tail are
//! asserted by the serve crate's `event_loop` tests.
//!
//! ```text
//! cargo run --release -p poetbin_bench --bin loadgen -- \
//!     [--models PATH,PATH,...] [--requests N] [--clients C] \
//!     [--lingers US,US,...] [--backend interp|jit|auto]
//! ```
//!
//! Defaults: the checked-in `deep.poetbin2` and `tiny.poetbin2` fixtures,
//! 12 000 requests, 8 clients, lingers `0,200` µs, the default
//! [`ServeConfig`] otherwise, and the `auto` backend (`--backend` pins
//! the served engines to one; the offline ground truth runs on the same
//! engines either way).

use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

use poetbin_bits::{BitVec, FeatureMatrix};
use poetbin_engine::{Backend, ClassifierEngine};
use poetbin_serve::{load_engine_with, Client, ModelRegistry, RetryPolicy, ServeConfig, Server};

struct Args {
    models: Vec<PathBuf>,
    requests: usize,
    clients: usize,
    lingers_us: Vec<u64>,
    /// Engine backend for the served models (and the offline ground
    /// truth, which is computed on the same engines).
    backend: Backend,
}

impl Args {
    fn parse() -> Result<Args, String> {
        let fixtures = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/fixtures");
        let mut args = Args {
            models: vec![
                fixtures.join("deep.poetbin2"),
                fixtures.join("tiny.poetbin2"),
            ],
            requests: 12_000,
            clients: 8,
            lingers_us: vec![0, 200],
            backend: Backend::default(),
        };
        let mut it = std::env::args().skip(1);
        while let Some(flag) = it.next() {
            let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
            match flag.as_str() {
                "--models" => {
                    args.models = value()?
                        .split(',')
                        .map(|p| PathBuf::from(p.trim()))
                        .collect();
                }
                "--requests" => args.requests = value()?.parse().map_err(|_| "bad --requests")?,
                "--clients" => args.clients = value()?.parse().map_err(|_| "bad --clients")?,
                "--lingers" => {
                    args.lingers_us = value()?
                        .split(',')
                        .map(|v| v.trim().parse().map_err(|_| "bad --lingers"))
                        .collect::<Result<_, _>>()?;
                }
                "--backend" => {
                    args.backend = value()?
                        .parse()
                        .map_err(|_| "--backend must be one of interp, jit, auto")?;
                }
                other => return Err(format!("unknown flag {other}")),
            }
        }
        if args.requests == 0
            || args.clients == 0
            || args.lingers_us.is_empty()
            || args.models.is_empty()
        {
            return Err("models, requests, clients and lingers must be non-empty".into());
        }
        Ok(args)
    }
}

/// How many requests each of `clients` clients sends so that together
/// they send exactly `requests`: the first `requests % clients` clients
/// take one extra.
fn split_requests(requests: usize, clients: usize) -> Vec<usize> {
    let (share, extra) = (requests / clients, requests % clients);
    (0..clients)
        .map(|c| share + usize::from(c < extra))
        .collect()
}

/// The deterministic row a given (client, sequence) pair sends — shared
/// with nothing, but stable across runs.
fn load_row(num_features: usize, client: usize, i: usize) -> BitVec {
    BitVec::from_fn(num_features, |j| {
        let mut z = (client as u64)
            .wrapping_mul(0xA076_1D64_78BD_642F)
            .wrapping_add((i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .wrapping_add(j as u64);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        (z ^ (z >> 27)) & 1 == 1
    })
}

/// One planned request: its target model, row, and the offline
/// ground-truth prediction the response is checked against.
struct Target {
    model_id: u16,
    row: BitVec,
    expected: usize,
}

/// The full request sequence for one client: request `i` targets model
/// `i mod M`, each group batch-predicted offline for ground truth.
fn client_plan(engines: &[Arc<ClassifierEngine>], client: usize, count: usize) -> Vec<Target> {
    let m = engines.len();
    let mut by_model: Vec<Vec<(usize, BitVec)>> = (0..m).map(|_| Vec::new()).collect();
    for i in 0..count {
        let k = i % m;
        by_model[k].push((i, load_row(engines[k].num_features(), client, i)));
    }
    let mut plan: Vec<Option<Target>> = (0..count).map(|_| None).collect();
    for (k, items) in by_model.into_iter().enumerate() {
        if items.is_empty() {
            continue;
        }
        let rows: Vec<BitVec> = items.iter().map(|(_, r)| r.clone()).collect();
        let expected = engines[k].predict(&FeatureMatrix::from_rows(rows));
        for ((i, row), expected) in items.into_iter().zip(expected) {
            plan[i] = Some(Target {
                model_id: k as u16,
                row,
                expected,
            });
        }
    }
    plan.into_iter()
        .map(|t| t.expect("every slot planned"))
        .collect()
}

struct RunResult {
    /// Round-trip latencies of predicted requests, sorted.
    latencies_ns: Vec<u64>,
    wall: Duration,
    mismatches: u64,
    errors: u64,
    /// Backoff resends the clients performed on transient sheds.
    retries: u64,
    mean_batch: f64,
    served: u64,
}

fn percentile(sorted_ns: &[u64], p: f64) -> f64 {
    if sorted_ns.is_empty() {
        return 0.0;
    }
    let rank = (p * (sorted_ns.len() - 1) as f64).round() as usize;
    sorted_ns[rank] as f64 / 1_000.0
}

fn start_server(engines: &[Arc<ClassifierEngine>], linger_us: u64) -> Server {
    let mut registry = ModelRegistry::new();
    for (k, engine) in engines.iter().enumerate() {
        registry.register(format!("m{k}"), Arc::clone(engine));
    }
    let config = ServeConfig {
        linger: Duration::from_micros(linger_us),
        ..ServeConfig::default()
    };
    Server::start(Arc::new(registry), "127.0.0.1:0", config).expect("bind")
}

/// Each client thread ping-pongs `predict_with_backoff` calls — a
/// transient shed sleeps the jittered backoff and resends inline (the
/// next planned request waits behind it, which is exactly what
/// closed-loop means). Latency includes any backoff sleeps.
fn run_closed(
    engines: &[Arc<ClassifierEngine>],
    clients: usize,
    requests: usize,
    linger_us: u64,
) -> RunResult {
    let server = start_server(engines, linger_us);
    let addr = server.local_addr();

    let start = Instant::now();
    let mut all_latencies: Vec<u64> = Vec::with_capacity(requests);
    let mut mismatches = 0u64;
    let mut errors = 0u64;
    let mut retries = 0u64;
    std::thread::scope(|scope| {
        let mut joins = Vec::new();
        for (c, count) in split_requests(requests, clients).into_iter().enumerate() {
            joins.push(scope.spawn(move || {
                let plan = client_plan(engines, c, count);
                let policy = RetryPolicy {
                    seed: c as u64,
                    ..RetryPolicy::default()
                };
                let mut latencies = Vec::with_capacity(count);
                let mut mismatches = 0u64;
                let mut errors = 0u64;
                let mut retries = 0u64;
                match Client::connect(addr) {
                    Ok(mut client) => {
                        for target in &plan {
                            let t0 = Instant::now();
                            match client.predict_with_backoff(target.model_id, &target.row, &policy)
                            {
                                Ok((class, attempts)) => {
                                    latencies.push(t0.elapsed().as_nanos() as u64);
                                    retries += u64::from(attempts);
                                    if class != target.expected {
                                        mismatches += 1;
                                    }
                                }
                                Err(_) => errors += 1,
                            }
                        }
                    }
                    Err(_) => errors += count as u64,
                }
                (latencies, mismatches, errors, retries)
            }));
        }
        for j in joins {
            let (lat, mis, err, rtr) = j.join().expect("client thread");
            all_latencies.extend(lat);
            mismatches += mis;
            errors += err;
            retries += rtr;
        }
    });
    let wall = start.elapsed();
    let stats = server.stats();
    let (mean_batch, served) = (stats.mean_batch(), stats.served());
    server.shutdown();
    all_latencies.sort_unstable();
    RunResult {
        latencies_ns: all_latencies,
        wall,
        mismatches,
        errors,
        retries,
        mean_batch,
        served,
    }
}

fn print_header() {
    println!(
        "{:>10} {:>10} {:>10} {:>10} {:>10} {:>8} {:>11} {:>9}",
        "linger", "req/s", "p50_us", "p99_us", "served", "retries", "mean_batch", "errors"
    );
}

fn print_row(linger_us: u64, result: &RunResult) {
    let rps = result.latencies_ns.len() as f64 / result.wall.as_secs_f64();
    println!(
        "{:>10} {:>10.0} {:>10.1} {:>10.1} {:>10} {:>8} {:>11.2} {:>9}",
        format!("{linger_us}us"),
        rps,
        percentile(&result.latencies_ns, 0.50),
        percentile(&result.latencies_ns, 0.99),
        result.served,
        result.retries,
        result.mean_batch,
        result.mismatches + result.errors
    );
}

fn main() -> ExitCode {
    let args = match Args::parse() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("loadgen: {e}");
            return ExitCode::from(2);
        }
    };
    let mut engines: Vec<Arc<ClassifierEngine>> = Vec::with_capacity(args.models.len());
    for path in &args.models {
        match load_engine_with(path, None, args.backend) {
            Ok(engine) => {
                println!(
                    "model {} = {} · {} features · {} classes · {} tape ops · {} backend",
                    engines.len(),
                    path.display(),
                    engine.num_features(),
                    engine.classes(),
                    engine.engine().plan().tape_len(),
                    engine.backend_name()
                );
                engines.push(Arc::new(engine));
            }
            Err(e) => {
                eprintln!("loadgen: {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        }
    }
    let config = ServeConfig::default();
    println!(
        "{} requests round-robin over {} models · {} closed-loop clients · {} workers · \
         max batch {}",
        args.requests,
        engines.len(),
        args.clients,
        config.workers,
        config.max_batch
    );
    print_header();

    let mut failed = false;
    for &linger_us in &args.lingers_us {
        let result = run_closed(&engines, args.clients, args.requests, linger_us);
        print_row(linger_us, &result);
        if result.mismatches > 0 || result.errors > 0 {
            eprintln!(
                "loadgen: linger {linger_us} µs: {} mismatches, {} transport errors",
                result.mismatches, result.errors
            );
            failed = true;
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        println!("all accepted responses matched the offline batch path of their target model");
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::split_requests;

    #[test]
    fn split_requests_sends_exactly_the_total() {
        assert_eq!(split_requests(1000, 3), vec![334, 333, 333]);
        assert_eq!(split_requests(1000, 4), vec![250; 4]);
        assert_eq!(split_requests(12_000, 8), vec![1500; 8]);
        for (requests, clients) in [(1, 1), (7, 7), (9, 4), (12_001, 8)] {
            let split = split_requests(requests, clients);
            assert_eq!(split.len(), clients);
            assert_eq!(split.iter().sum::<usize>(), requests);
            assert!(split.iter().max().unwrap() - split.iter().min().unwrap() <= 1);
        }
    }

    #[test]
    fn split_requests_with_fewer_requests_than_clients_idles_the_rest() {
        assert_eq!(split_requests(2, 5), vec![1, 1, 0, 0, 0]);
    }
}
