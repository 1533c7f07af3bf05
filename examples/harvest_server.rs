//! The decision service behind a real socket: `harvest-wire` over loopback
//! TCP, with admission control doing its job under a deliberate burst.
//!
//! A four-shard service is wrapped in a [`WireCore`] (per-connection token
//! buckets, a pending-work budget, deadline propagation) and bound to an
//! ephemeral loopback port. Four client threads then run two phases each:
//!
//! 1. **Closed loop**: decide → reward, one request in flight, logical
//!    stamps pacing well inside the rate limit — everything is served.
//!    The clients move through this phase in lockstep rounds: the
//!    server's logical clock is the maximum stamp it has seen, so a
//!    client running far ahead would stall the refill of every bucket
//!    still pacing behind it.
//! 2. **Burst**: once every client has finished phase 1, a pile of
//!    decides fired back-to-back at one logical instant — the token
//!    bucket sheds the overflow with an explicit `Shed { rate_limited }`
//!    response. No client ever sees a protocol error; overload is an
//!    answer.
//!
//! After shutdown the example reconciles both ledgers and prints one `OK`
//! line per ledger — CI runs this binary on several seeds and greps for
//! them:
//!
//! ```text
//! wire ledger: requested=560 served=… shed=… errors=0 -> OK
//! conservation: enqueued=… written=… dropped=0 quarantined=0 -> OK
//! ```
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example harvest_server -- 42
//! ```

use std::sync::{Arc, Barrier};
use std::thread;

use harvest::prelude::*;
use harvest::wire::ShedReason;

const CLIENTS: usize = 4;
const CLOSED_LOOP: usize = 100;
const BURST: usize = 40;
const ACTIONS: usize = 3;

fn main() {
    let seed: u64 = std::env::args()
        .nth(1)
        .map(|s| s.parse().expect("seed must be a u64"))
        .unwrap_or(42);

    let store = MemorySegments::new();
    let cfg = ServeConfig::builder()
        .shards(4)
        .epsilon(0.2)
        .master_seed(seed)
        .component("wire-demo")
        .logger(LoggerConfig::builder().capacity(4096).build())
        .join_ttl_ns(60_000_000_000)
        .build()
        .expect("valid demo config");
    let svc = Arc::new(DecisionService::new(cfg, store));

    // Rate limit: 500 decisions per logical second with a burst of 8 —
    // generous for the paced phase, tight for the burst phase.
    let wire_cfg = WireConfig::builder()
        .rate_per_sec(500)
        .burst(8)
        .pending_capacity(1024)
        .build();
    let core = Arc::new(WireCore::new(Arc::clone(&svc), wire_cfg));
    let server =
        harvest::wire::TcpServer::bind(Arc::clone(&core), "127.0.0.1:0", 4).expect("bind loopback");
    let addr = server.local_addr();
    println!("harvest-server: seed {seed}, {CLIENTS} clients against {addr}");

    let rounds = Arc::new(Barrier::new(CLIENTS));
    let mut handles = Vec::new();
    for c in 0..CLIENTS {
        let rounds = Arc::clone(&rounds);
        handles.push(thread::spawn(move || run_client(c, addr, &rounds)));
    }
    let mut served = 0u64;
    let mut shed = 0u64;
    let mut rewarded = 0u64;
    for handle in handles {
        let (s, sh, r) = handle.join().expect("client thread");
        served += s;
        shed += sh;
        rewarded += r;
    }
    println!(
        "clients done: {served} decisions served, {shed} shed with an explicit reason, \
         {rewarded} rewards acknowledged"
    );

    server.shutdown();
    let wire = core.metrics().snapshot();
    drop(core);
    let svc = Arc::try_unwrap(svc)
        .ok()
        .expect("all wire handles released");
    // Snapshot the log ledger only after shutdown has drained the writer:
    // records still queued count as enqueued but not yet written.
    let handle = svc.metrics_handle();
    svc.shutdown().expect("clean shutdown");
    let metrics = handle.snapshot();

    let wire_ok = wire.ledger_ok && wire.protocol_errors == 0 && wire.decisions_errored == 0;
    println!(
        "wire ledger: requested={} served={} shed={} (rate_limited={} queue_full={} deadline={}) \
         degraded={} errors={} -> {}",
        wire.decisions_requested,
        wire.decisions_served,
        wire.shed_total,
        wire.shed_rate_limited,
        wire.shed_queue_full,
        wire.shed_deadline,
        wire.decisions_degraded,
        wire.decisions_errored,
        if wire_ok { "OK" } else { "VIOLATED" }
    );
    let conservation_ok =
        metrics.log_enqueued == metrics.log_written + metrics.log_dropped + metrics.log_quarantined;
    println!(
        "conservation: enqueued={} written={} dropped={} quarantined={} -> {}",
        metrics.log_enqueued,
        metrics.log_written,
        metrics.log_dropped,
        metrics.log_quarantined,
        if conservation_ok { "OK" } else { "VIOLATED" }
    );
    assert!(wire_ok, "wire ledger must reconcile");
    assert!(conservation_ok, "log conservation must hold");
}

/// One client: paced closed-loop traffic, then a same-instant burst that
/// the rate limiter sheds. `rounds` holds every client to the same paced
/// round and keeps each burst out until all paced rewards are acknowledged.
/// Returns (served, shed, rewards acknowledged).
fn run_client(c: usize, addr: std::net::SocketAddr, rounds: &Barrier) -> (u64, u64, u64) {
    let mut client = harvest::wire::TcpClient::connect(addr).expect("connect");
    let shard = (c % 4) as u32;
    // Per-client logical stamps: spaced 10 ms apart (well inside the 500/s
    // rate), offset per client so the server clock interleaves.
    let mut now_ns = (c as u64 + 1) * 1_000_000;
    let mut served = 0u64;
    let mut shed = 0u64;
    let mut rewarded = 0u64;

    for i in 0..CLOSED_LOOP {
        rounds.wait();
        now_ns += 10_000_000;
        let x = ((c * CLOSED_LOOP + i) % 16) as f64 / 16.0;
        let resp = client
            .call(&Request::Decide {
                shard,
                now_ns,
                budget_ns: 0,
                context: SimpleContext::new(vec![x], ACTIONS),
            })
            .expect("decide");
        match resp {
            Response::Decision(d) => {
                served += 1;
                // Close the loop: reward the decision we just received.
                let reward = if d.action == 0 { x } else { 1.0 - x };
                now_ns += 1_000_000;
                match client
                    .call(&Request::Reward {
                        request_id: d.request_id,
                        now_ns,
                        reward,
                    })
                    .expect("reward")
                {
                    Response::RewardAck { .. } => rewarded += 1,
                    other => panic!("reward must ack, got {other:?}"),
                }
            }
            Response::Shed { .. } => shed += 1,
            other => panic!("decide must serve or shed, got {other:?}"),
        }
    }

    // The burst: everything stamped at one logical instant, fired without
    // waiting for responses. Only the bucket's burst allowance is served.
    rounds.wait();
    let burst_ns = now_ns + 10_000_000;
    let mut seqs = Vec::with_capacity(BURST);
    for i in 0..BURST {
        let x = (i % 16) as f64 / 16.0;
        seqs.push(
            client
                .send(&Request::Decide {
                    shard,
                    now_ns: burst_ns,
                    budget_ns: 0,
                    context: SimpleContext::new(vec![x], ACTIONS),
                })
                .expect("send burst"),
        );
    }
    for _ in 0..BURST {
        let (_, resp) = client.recv().expect("recv burst");
        match resp {
            Response::Decision(_) => served += 1,
            Response::Shed {
                reason: ShedReason::RateLimited,
            } => shed += 1,
            Response::Shed { .. } => shed += 1,
            other => panic!("burst must serve or shed, got {other:?}"),
        }
    }
    (served, shed, rewarded)
}
