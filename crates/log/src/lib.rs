//! Log scavenging: turning existing system logs into exploration data.
//!
//! Implements the three-step methodology of paper §3 without intervening in
//! the "live" system:
//!
//! 1. **Scavenge** — parse logs the system already writes and extract
//!    `⟨x, a, r⟩` per request ([`record`], [`nginx`], [`scavenge`]).
//! 2. **Infer** — recover the decision probability `p`, either from code
//!    inspection (the policy's known distribution) or by regressing the
//!    action on the context ([`propensity`]).
//! 3. **Evaluate/optimize** — hand the assembled `⟨x, a, r, p⟩` dataset to
//!    `harvest-estimators` / `harvest-core` ([`pipeline`]).
//!
//! Two log dialects are supported, mirroring the paper's prototypes:
//!
//! * the crash-safe binary segments ([`segment`]) that carry decision and
//!   outcome records ([`record`]) — the "custom logging" added to Redis —
//!   and
//! * an Nginx-style access-log text format ([`nginx`]) with upstream and
//!   connection variables, parsed field-by-field with real error handling —
//!   the "existing logging modules … simply needed to be configured" case.
//!
//! Rewards that the system does not record at decision time (the next access
//! to an evicted item) are reconstructed by looking ahead in the logs
//! ([`reward`]), exactly as §3 describes for Redis.
//!
//! For logs written by the live serve loop (rather than scavenged from an
//! existing system), [`segment`] provides the crash-safe on-disk format:
//! checksummed, length-prefixed frames in rotating segments (payloads in
//! the binary layout of [`codec`]), recovered by
//! replaying the longest valid prefix and quarantining — counting, never
//! silently skipping — damaged tails. The control-plane state that
//! interprets those logs (incumbent policy, RNG positions, ledger counters)
//! is made durable by [`checkpoint`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod checkpoint;
pub mod codec;
pub mod nginx;
pub mod pipeline;
pub mod propensity;
pub mod record;
pub mod reward;
pub mod scavenge;
pub mod segment;

pub use checkpoint::{
    decode_checkpoint, encode_checkpoint, load_latest_filtered, CheckpointError,
    CheckpointRecovery, CheckpointStore, CheckpointWriter, DirCheckpoints, MemoryCheckpoints,
};
pub use pipeline::{HarvestPipeline, HarvestReport};
pub use propensity::{EstimatedPropensity, KnownPropensity, PropensityModel};
pub use record::{DecisionRecord, OutcomeRecord};
pub use segment::{
    recover_segment, recover_segments, GroupWriteError, MemorySegments, RecoveryStats,
    SealObserver, SegmentConfig, SegmentedLogWriter,
};
