//! `harvest-wire`: a TCP front-end with admission control for the decision
//! service.
//!
//! The serve crate closes the harvest → train → promote loop in-process;
//! this crate puts a socket in front of it without surrendering any of the
//! workspace's guarantees. Requests cross a compact length-prefixed binary
//! frame (magic ‖ version ‖ kind ‖ seq ‖ len ‖ crc32 ‖ binary body — see
//! [`frame`] and [`proto`]) and pass a production admission pipeline before touching a
//! shard:
//!
//! ```text
//!  clients ──▶ frame codec ──▶ admission door ──────▶ shard-affine workers
//!              (CRC per        │ per-conn token bucket │ deadline re-check
//!               frame;         │ pending QueueBudget   │ decide / join
//!               corrupt ⇒      │ full ⇒ Shed, with     ▼
//!               close+count)   │ an explicit reason   DecisionService
//!                              ▼                       (breaker open ⇒
//!                           Shed response               degraded Decision,
//!                           (never an Error)            exact propensities)
//! ```
//!
//! Three rules carry over from the rest of the workspace:
//!
//! 1. **Overload is an answer, not an error.** A refused request gets a
//!    `Shed` response naming the reason (rate limit, queue full, deadline);
//!    a degraded service answers real decisions from the safe arm with
//!    valid propensities. Protocol errors are reserved for malformed or
//!    invalid traffic.
//! 2. **Same seed, same bytes — even across a socket.** The core holds no
//!    wall clock and no ambient RNG: logical time is a monotone maximum
//!    over client stamps, rate-limit refills are integer-exact functions of
//!    it, and the [`duplex`] transport replays traffic deterministically.
//!    A duplex run and an in-process run of the same seeded workload
//!    produce byte-identical decision logs (`tests/wire_equivalence.rs`).
//! 3. **Every decision lands on a ledger.** `decisions_requested ==
//!    served + shed + errored` holds in the exported
//!    [`metrics`] snapshot, and door refusals are also
//!    counted in the service's `admission_shed` so the two ledgers
//!    reconcile.
//!
//! Two transports implement [`Transport`] with identical semantics:
//! [`tcp::TcpServer`] (threaded sockets, shard-affine worker pool) for
//! production, and [`duplex::Duplex`] (in-memory, caller-pumped, logical
//! clock) for the deterministic test path. See `examples/harvest_server.rs`
//! for the full loop served over loopback TCP.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod admission;
pub mod core;
pub mod duplex;
pub mod frame;
pub mod metrics;
pub mod ops;
pub mod proto;
pub mod tcp;
pub mod transport;

pub use admission::TokenBucket;
pub use core::{Admission, ConnState, Job, SharedClock, WireConfig, WireConfigBuilder, WireCore};
pub use duplex::{Duplex, DuplexConn};
pub use frame::{
    decode_frame, CorruptKind, Decoded, FrameDecoder, FrameKind, MAX_WIRE_PAYLOAD, WIRE_HEADER_LEN,
    WIRE_MAGIC, WIRE_VERSION,
};
pub use metrics::{WireMetrics, WireSnapshot};
pub use ops::{
    decode_ops_query_payload, decode_ops_response_payload, encode_ops_query, encode_ops_response,
    OpsQuery, OpsResponse,
};
pub use proto::{
    decode_request_frame, decode_request_payload, decode_response_payload, encode_request,
    encode_response, Request, Response, ShedReason, WireDecision, WireJoinOutcome,
};
pub use tcp::{TcpClient, TcpServer};
pub use transport::{Connection, Transport};
