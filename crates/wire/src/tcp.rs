//! The production TCP transport.
//!
//! One listener thread accepts connections; each connection gets one
//! reader thread that decodes its frames, runs door-side admission, serves
//! every admitted job itself ([`WireCore::process`]) and writes the reply
//! on its own socket. So a connection's responses come back in request
//! order, and no request changes threads between its frame and its reply.
//!
//! The `workers` count given to [`TcpServer::bind`] bounds how many
//! requests are being served at once across all connections: a reader
//! holds one permit of a shared [`QueueBudget`] around `process`, and a
//! reader waiting for a permit stops reading, so its client sees TCP flow
//! control. Shard affinity is the client's choice: a connection that sends
//! only one shard's traffic keeps that shard's lock uncontended, and
//! traffic that crosses shards stays correct under the shard lock.
//!
//! A corrupt frame kills its connection — a byte stream has no resync
//! point after a failed CRC — and is counted in `frames_corrupt`.
//!
//! This module is the only part of the crate that touches sockets, and
//! even here there is no wall clock and no ambient randomness: time is
//! still the logical [`SharedClock`](crate::core::SharedClock) advanced by
//! request stamps, so admission verdicts stay a pure function of the
//! traffic.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;

use harvest_log::segment::SegmentSink;
use harvest_serve::QueueBudget;

use crate::core::{Admission, WireCore};
use crate::frame::{FrameDecoder, FrameKind};
use crate::ops::{
    decode_ops_query_payload, decode_ops_response_payload, encode_ops_query, encode_ops_response,
    OpsQuery, OpsResponse,
};
use crate::proto::{
    decode_request_payload, decode_response_payload, encode_request, encode_response, Request,
    Response,
};
use crate::transport::{Connection, Transport};

/// Bytes one `read` call may take off a socket.
const READ_CHUNK: usize = 16 * 1024;

struct Registry {
    readers: Mutex<Vec<thread::JoinHandle<()>>>,
    conns: Mutex<Vec<TcpStream>>,
}

/// A running TCP front-end: the listener and one reader per connection.
/// Dropping it without [`TcpServer::shutdown`] leaks threads; call
/// shutdown for an orderly stop.
pub struct TcpServer<S: SegmentSink + Send + 'static> {
    core: Arc<WireCore<S>>,
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept: Option<thread::JoinHandle<()>>,
    registry: Arc<Registry>,
}

impl<S: SegmentSink + Send + 'static> TcpServer<S> {
    /// Binds `addr` (use port 0 for an ephemeral port) and starts the
    /// listener. At most `workers` admitted requests are served at once,
    /// across all connections.
    pub fn bind(
        core: Arc<WireCore<S>>,
        addr: impl ToSocketAddrs,
        workers: usize,
    ) -> io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let registry = Arc::new(Registry {
            readers: Mutex::new(Vec::new()),
            conns: Mutex::new(Vec::new()),
        });
        let permits = Arc::new(QueueBudget::new(workers.max(1) as u64));

        let accept = {
            let core = Arc::clone(&core);
            let stop = Arc::clone(&stop);
            let registry = Arc::clone(&registry);
            thread::Builder::new()
                .name("wire-accept".to_string())
                .spawn(move || {
                    for stream in listener.incoming() {
                        if stop.load(Ordering::SeqCst) {
                            break;
                        }
                        let Ok(stream) = stream else { continue };
                        // Responses go out one frame per write; without
                        // this, back-to-back frames on one connection can
                        // wait behind Nagle plus the peer's delayed ACK.
                        let _ = stream.set_nodelay(true);
                        let Ok(registered) = stream.try_clone() else {
                            continue;
                        };
                        registry
                            .conns
                            .lock()
                            .unwrap_or_else(|p| p.into_inner())
                            .push(registered);
                        let core = Arc::clone(&core);
                        let permits = Arc::clone(&permits);
                        let handle = thread::Builder::new()
                            .name("wire-reader".to_string())
                            .spawn(move || reader_loop(&core, stream, &permits))
                            .expect("spawn wire reader");
                        registry
                            .readers
                            .lock()
                            .unwrap_or_else(|p| p.into_inner())
                            .push(handle);
                    }
                })
                .expect("spawn wire accept loop")
        };

        Ok(TcpServer {
            core,
            addr,
            stop,
            accept: Some(accept),
            registry,
        })
    }

    /// The bound address clients connect to.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shared front-end state.
    pub fn core(&self) -> &Arc<WireCore<S>> {
        &self.core
    }

    /// Stops accepting, closes every connection, and joins all threads.
    pub fn shutdown(mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        // Closing the server-side streams pops every reader out of read().
        for conn in self
            .registry
            .conns
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .drain(..)
        {
            let _ = conn.shutdown(std::net::Shutdown::Both);
        }
        let readers: Vec<_> = self
            .registry
            .readers
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .drain(..)
            .collect();
        for handle in readers {
            let _ = handle.join();
        }
    }
}

/// One permit of the server's in-service limit, returned on drop so every
/// path out of [`WireCore::process`], a panic included, gives it back.
struct Permit<'a>(&'a QueueBudget);

impl<'a> Permit<'a> {
    fn acquire(permits: &'a QueueBudget) -> Self {
        permits.acquire_blocking(1);
        Permit(permits)
    }
}

impl Drop for Permit<'_> {
    fn drop(&mut self) {
        self.0.release(1);
    }
}

fn reader_loop<S: SegmentSink + Send + 'static>(
    core: &WireCore<S>,
    mut stream: TcpStream,
    permits: &QueueBudget,
) {
    let mut conn = core.connect();
    let mut decoder = FrameDecoder::new();
    let mut buf = [0u8; READ_CHUNK];
    'conn: loop {
        let n = match stream.read(&mut buf) {
            Ok(0) | Err(_) => break,
            Ok(n) => n,
        };
        decoder.extend(&buf[..n]);
        loop {
            let reply = match decoder.next_frame() {
                Ok(Some((FrameKind::Request, seq, payload))) => {
                    let Ok(request) = decode_request_payload(&payload) else {
                        core.metrics().record_corrupt_frame();
                        break 'conn;
                    };
                    let (seq, resp) = match core.admit(&mut conn, seq, request) {
                        Admission::Reply(seq, resp) => (seq, resp),
                        Admission::Enqueue(job) => {
                            let _permit = Permit::acquire(permits);
                            core.process(job)
                        }
                    };
                    encode_response(seq, &resp)
                }
                Ok(Some((FrameKind::Ops, seq, payload))) => {
                    // Scrapes skip the permit like pings, but core.ops()
                    // charges admission.
                    let Ok(query) = decode_ops_query_payload(&payload) else {
                        core.metrics().record_corrupt_frame();
                        break 'conn;
                    };
                    encode_ops_response(seq, &core.ops(&mut conn, query))
                }
                Ok(Some((FrameKind::Response, _, _))) => {
                    core.metrics().record_protocol_error();
                    break 'conn;
                }
                Ok(None) => break,
                Err(_) => {
                    core.metrics().record_corrupt_frame();
                    break 'conn;
                }
            };
            if stream.write_all(&reply).is_err() {
                break 'conn;
            }
        }
    }
    let _ = stream.shutdown(std::net::Shutdown::Both);
}

/// A blocking TCP client speaking the wire protocol.
pub struct TcpClient {
    stream: TcpStream,
    decoder: FrameDecoder,
    buf: Box<[u8]>,
    next_seq: u64,
}

impl TcpClient {
    /// Connects to a [`TcpServer`].
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(TcpClient {
            stream,
            decoder: FrameDecoder::new(),
            buf: vec![0u8; READ_CHUNK].into_boxed_slice(),
            next_seq: 0,
        })
    }

    /// Sends one ops-plane scrape and blocks for its answer. Don't
    /// interleave with in-flight decision calls on the same connection —
    /// a decision response arriving first would be misread here; use a
    /// dedicated scrape connection (that also gives the scraper its own
    /// token bucket, so scrape sheds never charge the decision path).
    pub fn ops(&mut self, query: &OpsQuery) -> io::Result<OpsResponse> {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.stream.write_all(&encode_ops_query(seq, query))?;
        loop {
            match self.decoder.next_frame() {
                Ok(Some((FrameKind::Ops, got_seq, payload))) => {
                    if got_seq != seq {
                        return Err(io::Error::new(
                            io::ErrorKind::InvalidData,
                            "ops response for a different seq",
                        ));
                    }
                    return decode_ops_response_payload(&payload).map_err(|kind| {
                        io::Error::new(io::ErrorKind::InvalidData, format!("bad ops body: {kind}"))
                    });
                }
                Ok(Some(_)) => {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        "non-ops frame while awaiting a scrape answer",
                    ));
                }
                Ok(None) => self.fill()?,
                Err(kind) => return Err(corrupt_from_server(kind)),
            }
        }
    }

    /// Reads what the socket has into the frame decoder.
    fn fill(&mut self) -> io::Result<()> {
        let n = self.stream.read(&mut self.buf)?;
        if n == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        self.decoder.extend(&self.buf[..n]);
        Ok(())
    }
}

fn corrupt_from_server(kind: impl std::fmt::Display) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!("corrupt frame from server: {kind}"),
    )
}

impl Connection for TcpClient {
    fn send(&mut self, request: &Request) -> io::Result<u64> {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.stream.write_all(&encode_request(seq, request))?;
        Ok(seq)
    }

    fn recv(&mut self) -> io::Result<(u64, Response)> {
        loop {
            match self.decoder.next_frame() {
                Ok(Some((FrameKind::Response, seq, payload))) => {
                    let resp = decode_response_payload(&payload).map_err(|kind| {
                        io::Error::new(
                            io::ErrorKind::InvalidData,
                            format!("bad response body: {kind}"),
                        )
                    })?;
                    return Ok((seq, resp));
                }
                Ok(Some((FrameKind::Request, _, _))) | Ok(Some((FrameKind::Ops, _, _))) => {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        "unexpected frame kind while awaiting a response",
                    ));
                }
                Ok(None) => self.fill()?,
                Err(kind) => return Err(corrupt_from_server(kind)),
            }
        }
    }
}

impl<S: SegmentSink + Send + 'static> Transport for TcpServer<S> {
    type Conn = TcpClient;

    fn connect(&self) -> io::Result<Self::Conn> {
        TcpClient::connect(self.addr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::core::WireConfig;
    use harvest_core::SimpleContext;
    use harvest_log::segment::MemorySegments;
    use harvest_serve::{DecisionService, ServeConfig};

    fn server(workers: usize) -> TcpServer<MemorySegments> {
        let cfg = ServeConfig::builder()
            .shards(4)
            .epsilon(0.2)
            .master_seed(3)
            .build()
            .expect("valid config");
        let svc = Arc::new(DecisionService::new(cfg, MemorySegments::new()));
        let core = Arc::new(WireCore::new(svc, WireConfig::default()));
        TcpServer::bind(core, "127.0.0.1:0", workers).expect("bind loopback")
    }

    #[test]
    fn ping_decide_reward_over_loopback() {
        let server = server(2);
        let mut client = server.connect().expect("connect");
        assert_eq!(
            client.call(&Request::Ping { nonce: 11 }).expect("ping"),
            Response::Pong { nonce: 11 }
        );
        let resp = client
            .call(&Request::Decide {
                shard: 1,
                now_ns: 1_000,
                budget_ns: 0,
                context: SimpleContext::new(vec![0.5], 3),
            })
            .expect("decide");
        let Response::Decision(d) = resp else {
            panic!("expected a decision, got {resp:?}");
        };
        assert!(d.propensity > 0.0);
        let ack = client
            .call(&Request::Reward {
                request_id: d.request_id,
                now_ns: 2_000,
                reward: 1.0,
            })
            .expect("reward");
        assert!(matches!(
            ack,
            Response::RewardAck { request_id, .. } if request_id == d.request_id
        ));
        server.shutdown();
    }

    /// Four closed-loop connections, one per shard, each making `calls`
    /// calls of `batch` decisions (`batch == 1` sends single `Decide`s)
    /// against a server serving `workers` requests at once. Every decision
    /// must be served and the wire ledger must balance.
    fn serve_from_four_connections(workers: usize, calls: u64, batch: usize) {
        const CONNS: u32 = 4;
        let server = server(workers);
        // Every connection is open before any sends, so all four contend.
        let start = Arc::new(std::sync::Barrier::new(CONNS as usize));
        let mut handles = Vec::new();
        for c in 0..CONNS {
            let addr = server.local_addr();
            let start = Arc::clone(&start);
            handles.push(thread::spawn(move || {
                let mut client = TcpClient::connect(addr).expect("connect");
                start.wait();
                let mut served = 0;
                for i in 0..calls {
                    let (shard, now_ns) = (c % 4, 1_000 + i);
                    let context = SimpleContext::contextless(2);
                    let request = if batch == 1 {
                        Request::Decide {
                            shard,
                            now_ns,
                            budget_ns: 0,
                            context,
                        }
                    } else {
                        Request::DecideBatch {
                            shard,
                            now_ns,
                            budget_ns: 0,
                            contexts: vec![context; batch],
                        }
                    };
                    served += match client.call(&request).expect("decide") {
                        Response::Decision(_) if batch == 1 => 1,
                        Response::Batch(decisions) if batch > 1 => {
                            assert_eq!(decisions.len(), batch);
                            batch as u64
                        }
                        other => panic!("every call must be served, got {other:?}"),
                    };
                }
                served
            }));
        }
        let served: u64 = handles.into_iter().map(|h| h.join().expect("client")).sum();
        let expected = u64::from(CONNS) * calls * batch as u64;
        assert_eq!(served, expected);
        let snap = server.core().metrics().snapshot();
        assert_eq!(snap.decisions_served, expected);
        assert!(snap.ledger_ok, "{snap:?}");
        server.shutdown();
    }

    #[test]
    fn four_connections_serve_single_decisions() {
        serve_from_four_connections(3, 25, 1);
    }

    #[test]
    fn four_connections_serve_batches() {
        serve_from_four_connections(3, 10, 16);
    }

    #[test]
    fn four_connections_contend_for_one_permit() {
        serve_from_four_connections(1, 25, 1);
    }

    #[test]
    fn pipelined_requests_are_answered_in_request_order() {
        const DECIDES: u32 = 64;
        let server = server(2);
        let mut client = server.connect().expect("connect");
        // Every request goes out before any response is read: decisions
        // rotate over the four shards, with a ping after every fourth.
        let mut sent = Vec::new();
        for i in 0..DECIDES {
            sent.push(
                client
                    .send(&Request::Decide {
                        shard: i % 4,
                        now_ns: 1_000 + u64::from(i),
                        budget_ns: 0,
                        context: SimpleContext::contextless(2),
                    })
                    .expect("send decide"),
            );
            if i % 4 == 3 {
                let nonce = u64::from(i);
                sent.push(client.send(&Request::Ping { nonce }).expect("send ping"));
            }
        }
        assert_eq!(sent, (0..sent.len() as u64).collect::<Vec<_>>());
        let mut decisions = 0;
        for (i, &seq) in sent.iter().enumerate() {
            let (got, resp) = client.recv().expect("recv");
            assert_eq!(got, seq, "response {i} is out of request order");
            match resp {
                Response::Decision(d) => {
                    assert_eq!(d.shard, decisions % 4);
                    decisions += 1;
                }
                Response::Pong { nonce } => assert_eq!(nonce, u64::from(decisions - 1)),
                other => panic!("every request must be served, got {other:?}"),
            }
        }
        assert_eq!(decisions, DECIDES);
        let snap = server.core().metrics().snapshot();
        assert_eq!(snap.decisions_served, u64::from(DECIDES));
        assert!(snap.ledger_ok, "{snap:?}");
        server.shutdown();
    }

    #[test]
    fn ops_scrape_over_loopback_matches_the_in_process_export() {
        let server = server(2);
        let mut client = server.connect().expect("connect");
        // Put some traffic on the books first.
        for i in 0..5u64 {
            client
                .call(&Request::Decide {
                    shard: 0,
                    now_ns: 1_000 + i,
                    budget_ns: 0,
                    context: SimpleContext::contextless(2),
                })
                .expect("decide");
        }
        // Quiesce the log pipeline so both exports read the same state.
        while server.core().service().metrics().log_backlog > 0 {
            thread::yield_now();
        }
        let resp = client.ops(&OpsQuery::Prometheus).expect("scrape");
        let OpsResponse::Report { body } = resp else {
            panic!("scrape must serve, got {resp:?}");
        };
        // Quiescent server: the remote page is the in-process page.
        assert_eq!(body, server.core().service().export_prometheus());
        let snap = server.core().metrics().snapshot();
        assert_eq!((snap.ops_requests, snap.ops_served), (1, 1));
        assert!(snap.ledger_ok, "{snap:?}");
        server.shutdown();
    }

    #[test]
    fn corrupt_frame_closes_the_connection() {
        let server = server(1);
        let mut raw = TcpStream::connect(server.local_addr()).expect("connect");
        let mut frame = encode_request(0, &Request::Ping { nonce: 1 });
        let last = frame.len() - 1;
        frame[last] ^= 0xFF;
        raw.write_all(&frame).expect("write");
        // The server detects the CRC failure and closes: the next read
        // sees EOF.
        let mut buf = [0u8; 64];
        let n = raw.read(&mut buf).expect("read after close");
        assert_eq!(n, 0, "server must close a corrupt connection");
        assert_eq!(server.core().metrics().snapshot().frames_corrupt, 1);
        server.shutdown();
    }

    #[test]
    fn shutdown_joins_every_thread() {
        let server = server(2);
        let mut client = server.connect().expect("connect");
        client.call(&Request::Ping { nonce: 1 }).expect("ping");
        server.shutdown();
        // The client connection is now closed.
        assert!(client.call(&Request::Ping { nonce: 2 }).is_err());
    }
}
