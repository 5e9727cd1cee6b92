//! Serve mode: a long-lived campaign daemon with a JSON wire protocol.
//!
//! The batch binaries answer one-shot questions by re-running the whole
//! pipeline from a cold process.  This crate turns the reproduction into a
//! *service*: a daemon ([`server::Server`], shipped as the `sfi-serve`
//! binary) builds the characterized [`sfi_core::CaseStudy`] once — warm
//! from the persistent characterization cache when possible — and then
//! answers campaign queries over TCP until told to shut down.
//!
//! * [`wire`] — the serializable campaign description
//!   ([`wire::CampaignDef`]): benchmarks by name and parameters, cells as
//!   (benchmark, fault model, operating point, budget), convertible to a
//!   [`sfi_campaign::CampaignSpec`] on the server.
//! * [`protocol`] — the framing and message vocabulary: one JSON document
//!   per line, typed [`protocol::Request`] and [`protocol::Response`]
//!   frames (`submit` / `status` / `stream` / `poff` / `cancel` /
//!   `shutdown`, streamed per-cell results in the campaign cell codec,
//!   machine-readable error codes).  The frozen, versioned wire
//!   reference lives in `docs/PROTOCOL.md`; a doc-sync test keeps it and
//!   these types in lockstep.
//! * [`jobs`] — the in-daemon job table and multi-job scheduler:
//!   priority classes (`low`/`normal`/`high`, FIFO within a class), up
//!   to `--max-concurrent-jobs` jobs running at once on thread-budgeted
//!   [`sfi_campaign::CampaignEngine`]s, per-client queued/running
//!   quotas, cooperative preemption with bit-identical resume, and LRU
//!   eviction of retained results under a byte cap.
//! * [`journal`] — the durable job journal behind `--state-dir`: every
//!   job transition as a record in the fsync'd, CRC-framed
//!   [`sfi_campaign::journal`] log, the format checkpoints use too.  A
//!   restarted daemon replays it (tolerating a torn tail), requeues
//!   interrupted jobs with their completed cells as seeds, and — because
//!   the engine is deterministic — produces results byte-identical to an
//!   uninterrupted run.
//! * [`server`] / [`client`] — the daemon and the typed client library
//!   (shipped as the `sfi-client` binary).  The client includes
//!   [`client::RetryPolicy`] / [`client::RetryingClient`]: capped
//!   exponential backoff with deterministic jitter, transparent
//!   reconnection, and idempotency-keyed resubmission.
//! * [`metrics`] — the observability surface: the `metrics`/`events`
//!   frame encodings over the global `sfi_obs` registry, and the
//!   optional Prometheus text-exposition listener (`--metrics-addr`).
//! * [`chaos`] — a fault-injecting TCP proxy for robustness tests:
//!   deterministic delays, mid-frame disconnects and byte corruption
//!   between a client and the daemon.
//!
//! Everything is `std::net` + worker threads — the workspace is offline
//! and dependency-free by design.
//!
//! # Quickstart
//!
//! ```
//! use sfi_serve::client::Client;
//! use sfi_serve::server::{ServeConfig, Server};
//! use sfi_serve::wire::{BenchmarkDef, BudgetDef, CampaignDef, CellDef};
//! use sfi_core::FaultModel;
//!
//! let server = Server::start(ServeConfig::fast_for_tests()).expect("daemon starts");
//! let mut client = Client::connect(server.local_addr()).expect("connects");
//!
//! let info = client.ping().expect("pong");
//! let mut def = CampaignDef::new("quickstart", 7);
//! let median = def.add_benchmark(BenchmarkDef::Median { values: 21, seed: 3 });
//! def.cells.push(CellDef {
//!     benchmark: median,
//!     model: FaultModel::StatisticalDta,
//!     freq_mhz: info.sta_limit_mhz * 0.95,
//!     vdd: 0.7,
//!     noise_sigma_mv: 10.0,
//!     budget: BudgetDef::fixed(2),
//! });
//!
//! let ticket = client.submit(&def).expect("accepted");
//! let outcome = client.stream(ticket.job, |_cell| {}).expect("streams");
//! assert_eq!(outcome, "done");
//! client.shutdown().expect("daemon exits");
//! server.join();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod asm_submit;
pub mod chaos;
pub mod client;
pub mod jobs;
pub mod journal;
pub mod metrics;
pub mod protocol;
pub mod server;
pub mod wire;
