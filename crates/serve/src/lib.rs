//! `rabitq-serve` — a dependency-free network front end for
//! [`rabitq-store`](../rabitq_store/index.html) collections.
//!
//! The crate serves a JSON-over-HTTP/1.1 API from `std::net` alone: no
//! async runtime, no HTTP framework, no serde. The interesting part is
//! not the protocol plumbing but the *execution model* between socket
//! and engine:
//!
//! - **Request batching** ([`batcher`]): concurrent searches are
//!   coalesced — bounded batch size plus a microsecond-scale linger —
//!   into single [`Snapshot::search_batch`] calls, which amortize
//!   snapshot loads and reuse per-thread scratch across the whole batch.
//! - **Admission control**: the batch queue is bounded. When it is full
//!   the server sheds with `429` instead of queueing into unbounded
//!   latency; during shutdown it sheds with `503`. Every request that is
//!   *admitted* is always answered — shedding happens strictly at the
//!   admission edge.
//! - **Graceful shutdown** ([`server`]): connection workers finish their
//!   in-flight request, then the batchers drain everything already
//!   admitted, then threads join. No accepted request is silently
//!   dropped mid-flight.
//!
//! [`Snapshot::search_batch`]: rabitq_store::Snapshot::search_batch
//!
//! ## Quick start
//!
//! ```no_run
//! use rabitq_serve::{ServeConfig, Server};
//! use rabitq_store::{Collection, CollectionConfig};
//! use std::path::Path;
//!
//! let collection =
//!     Collection::open(Path::new("data/demo"), CollectionConfig::new(64)).unwrap();
//! let server = Server::start(ServeConfig::default(), vec![("demo".into(), collection)]).unwrap();
//! println!("serving on http://{}", server.addr());
//! // ... later:
//! server.shutdown(); // drains in-flight work, joins every thread
//! ```
//!
//! ## API
//!
//! | Route | Method | Purpose |
//! |---|---|---|
//! | `/healthz` | GET | liveness probe (uptime, version, SIMD kernel) |
//! | `/stats` | GET | counters, latency quantiles, batch histogram, store metrics + event journal |
//! | `/metrics` | GET | Prometheus text exposition of the whole surface |
//! | `/collections/:name/search` | POST | k-NN search (batched or direct); `?debug=timings` adds a stage breakdown |
//! | `/collections/:name/insert` | POST | insert one vector or many |
//! | `/collections/:name/delete` | POST | tombstone ids |
//! | `/search` `/insert` `/delete` | POST | same, against the default collection |

pub mod batcher;
pub mod http;
pub mod json;
pub mod metrics;
mod router;
pub mod server;

pub use batcher::{BatchConfig, Batcher, SubmitError};
pub use json::{Json, JsonError};
pub use metrics::ServerMetrics;
pub use server::{ServeConfig, Server};
