//! `poetbin-serve`: an adaptive micro-batching inference server over the
//! compiled PoET-BiN engine.
//!
//! A PoET-BiN classifier collapses to pure LUT logic, and the compiled
//! engine ([`poetbin_engine::ClassifierEngine`]) evaluates that logic over
//! lane-word blocks — up to 512 examples per tape pass. Serving
//! *concurrent single-row requests* efficiently is therefore a
//! lane-occupancy problem: throughput is won by keeping the lanes full.
//! This crate implements the missing piece — request coalescing:
//!
//! * **Connections** speak a tiny length-prefixed binary protocol
//!   ([`protocol`]): the server opens with a hello advertising every
//!   model it serves (a [`ModelRegistry`] of named, hot-swappable
//!   engines), clients send `(model_id, request_id, packed row)` request
//!   frames and receive `(request_id, status, class)` responses,
//!   pipelined as deeply as they like. Malformed requests get typed
//!   error responses; the connection lives on.
//! * **The event loop** (internal): a single poller thread owns every
//!   socket through a vendored epoll shim — nonblocking accept, reads
//!   into per-connection buffers with frame reassembly across split
//!   reads, buffered writes with flow control. A connection whose peer
//!   stops draining responses has its *reads* paused once the write
//!   backlog passes [`ServeConfig::write_buf_cap`], so a slow reader
//!   throttles itself instead of the server; a dead peer tears down both
//!   halves at once.
//! * **Bounded micro-batch queues** (tuned via [`ServeConfig`]): decoded
//!   rows go round-robin into per-worker shards of capacity
//!   [`ServeConfig::queue_cap`]. When every shard is full the request is
//!   shed immediately with a typed
//!   [`protocol::STATUS_OVERLOADED`] response — queue memory and the
//!   queueing delay of *accepted* requests stay bounded no matter the
//!   offered load. A partial batch lingers a configurable few hundred
//!   microseconds (measured from the oldest request's arrival) for
//!   stragglers, so light traffic keeps its latency while heavy traffic
//!   packs full blocks.
//! * **Engine workers** drain up to `64 · 8` requests from their shard,
//!   group them by model, and share every model's immutable compiled
//!   plan behind an `Arc`; each group is packed with
//!   [`poetbin_bits::pack_block_rows`] (one 64×64 transpose per tile)
//!   and evaluated with
//!   [`poetbin_engine::ClassifierEngine::predict_block_into`] — masked
//!   partial-word tail evaluation, zero allocation on the hot path — then
//!   every argmax is routed back through the poller to its originating
//!   connection. Engines swapped through the registry take effect
//!   between batches, never inside one.
//! * **Observability**: a second plain-text listener
//!   ([`Server::stats_addr`]) reports the global counters, per-shard
//!   queue depths, and per-model lines to anything that connects.
//! * **Graceful degradation**: per-request deadlines
//!   ([`ServeConfig::deadline`]) shed stale queued work with
//!   [`protocol::STATUS_DEADLINE_EXCEEDED`]; worker panics are contained
//!   to the batch in hand (the unanswered requests are shed, the worker
//!   keeps serving); idle and slow-loris connections are reaped
//!   ([`ServeConfig::idle_timeout`]); [`Server::shutdown_within`] drains
//!   under a watchdog; and [`ModelRegistry::swap_validated`] canary-checks
//!   a replacement model before the atomic swap, so a corrupt artifact
//!   can never disturb live traffic. The counters reconcile exactly —
//!   `received == served + overloaded + deadline_expired + rejected +
//!   protocol_errors` at quiescence — and a deterministic seeded
//!   fault-injection layer ([`FaultPlan`]) replays I/O fault schedules
//!   against that invariant in the chaos suite.
//!
//! The server is std-only: no async runtime, no network dependencies
//! (the epoll surface is a vendored in-tree shim, like `rand`).
//!
//! # Quickstart
//!
//! ```no_run
//! use std::sync::Arc;
//! use poetbin_serve::{load_engine, Client, ModelRegistry, ServeConfig, Server};
//!
//! // Load persisted models (either POETBIN format) and compile each once.
//! let mut registry = ModelRegistry::new();
//! registry.register("tiny", Arc::new(load_engine("tiny.poetbin2", None).expect("valid")));
//! registry.register("deep", Arc::new(load_engine("deep.poetbin2", None).expect("valid")));
//! let registry = Arc::new(registry);
//! let server = Server::start(Arc::clone(&registry), "127.0.0.1:9009", ServeConfig::default())?;
//!
//! let mut client = Client::connect(server.local_addr())?;
//! let deep = client.model("deep").expect("advertised").id;
//! let row = poetbin_bits::BitVec::zeros(client.models()[deep as usize].num_features);
//! println!("class = {}", client.predict_on(deep, &row)?);
//!
//! // Hot-swap an engine while the server runs; in-flight batches finish
//! // on the old engine, later ones use the new.
//! registry.swap(deep, Arc::new(load_engine("deep-v2.poetbin2", None).expect("valid")))
//!     .expect("same wire shape");
//! server.shutdown();
//! # Ok::<(), std::io::Error>(())
//! ```
//!
//! Throughput/latency numbers come from the load generator
//! (`cargo run --release -p poetbin_bench --bin loadgen`): closed-loop
//! for capacity, `--open-loop` rate sweeps for the latency SLO curves.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod batcher;
mod client;
mod event_loop;
mod fault;
pub mod protocol;
mod registry;
mod server;

pub use client::{Client, ClientReceiver, ClientSender, Response, RetryPolicy};
pub use fault::{torn_copies, FaultPlan, InjectedPanic};
pub use registry::{ModelRegistry, ModelStats, SwapError};
pub use server::{load_engine, load_engine_with, LoadError, ServeConfig, Server, ServerStats};
