//! # jcdn-trace — CDN request-log schema, containers, codecs, and flows
//!
//! §3.1 of the paper describes the raw material of the study: per-request
//! logs from CDN edge servers carrying "the time of the request, object
//! caching information, a client IP address that is hashed for anonymity,
//! and select HTTP request and response header information including
//! user-agent, mime type, and object URL". This crate is that schema plus
//! the machinery around it:
//!
//! * [`SimTime`] / [`SimDuration`] — explicit simulated time in
//!   microseconds. No wall clock anywhere (smoltcp-style): the simulator
//!   advances time, the analysis reads it.
//! * [`LogRecord`] — one request log line; [`Trace`] — a container that
//!   interns user-agent and URL strings so multi-million-record traces stay
//!   compact.
//! * [`Interner`] — the shared string tables; [`ShardedTrace`] — the same
//!   records split into time-partitioned shards behind one interner, so
//!   per-shard analyses run in parallel and merge without id remapping.
//! * [`RecordStream`] — a borrowed record view that lets analyses consume
//!   a whole trace, one shard, or any record subset through one API.
//! * [`codec`] — a versioned binary codec (via `bytes`) with per-shard
//!   CRC-protected frames, and a JSONL exporter for interop.
//! * [`summary::DatasetSummary`] — the Table 2 roll-up (log count,
//!   duration, domain count, …).
//! * [`flows`] — object flows and client-object flows as defined in §5.1,
//!   with the paper's ≥10-requests / ≥10-clients filters.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Trace serialization: the columnar binary format (v4) and JSONL interop.
pub mod codec;
/// Frozen encoders for historical codec versions 1–3 (fixture support).
pub mod compat;
/// Object flows and client–object flows with the paper's §5.1 filters.
pub mod flows;
mod interner;
mod record;
mod sharded;
/// Durable, resumable on-disk trace store (crash-safety contract).
pub mod store;
mod stream;
/// Per-dataset summary statistics (Table 1 of the paper).
pub mod summary;
mod time;
mod trace;

pub use interner::{InternError, Interner};
pub use record::{CacheStatus, ClientId, LogRecord, Method, MimeType, RecordFlags, UaId, UrlId};
pub use sharded::ShardedTrace;
pub use stream::RecordStream;
pub use time::{SimDuration, SimTime};
pub use trace::{RecordView, Trace};

/// Stable 64-bit FNV-1a hash, used to anonymize client IPs and to split
/// clients into train/test sets deterministically.
pub use jcdn_obs::hash::fnv1a;
