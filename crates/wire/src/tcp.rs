//! The production TCP transport.
//!
//! One listener thread accepts connections; each connection gets a reader
//! thread that decodes frames and runs door-side admission inline (pings
//! and sheds answer without ever touching a worker). Admitted jobs are
//! dispatched to a fixed pool of *shard-affine* workers: a request routes
//! to the worker owning its shard ([`WireCore::route_worker`]), so one
//! shard's decisions — and the rewards joining back to them — serialize on
//! one worker and the batched serve path stays uncontended across shards.
//!
//! Responses are written back under a per-connection write lock (reader
//! and workers share the socket's write half); clients correlate them by
//! the echoed header `seq`, since shard-affinity may reorder completions
//! within a connection.
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
use std::sync::{mpsc, Arc, Mutex};
use std::thread;

use harvest_log::segment::SegmentSink;

use crate::core::{Admission, Job, WireCore};
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

struct WorkItem {
    job: Job,
    reply: Arc<Mutex<TcpStream>>,
}

struct Registry {
    readers: Mutex<Vec<thread::JoinHandle<()>>>,
    conns: Mutex<Vec<TcpStream>>,
}

/// A running TCP front-end: listener, per-connection readers, shard-affine
/// worker pool. Dropping it without [`TcpServer::shutdown`] leaks threads;
/// call shutdown for an orderly stop.
pub struct TcpServer<S: SegmentSink + Send + 'static> {
    core: Arc<WireCore<S>>,
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept: Option<thread::JoinHandle<()>>,
    registry: Arc<Registry>,
    worker_txs: Vec<mpsc::Sender<WorkItem>>,
    workers: Vec<thread::JoinHandle<()>>,
}

impl<S: SegmentSink + Send + 'static> TcpServer<S> {
    /// Binds `addr` (use port 0 for an ephemeral port) and starts the
    /// listener plus `workers` shard-affine workers.
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

        let workers = workers.max(1);
        let mut worker_txs = Vec::with_capacity(workers);
        let mut worker_handles = Vec::with_capacity(workers);
        for i in 0..workers {
            let (tx, rx) = mpsc::channel::<WorkItem>();
            let core = Arc::clone(&core);
            worker_txs.push(tx);
            worker_handles.push(
                thread::Builder::new()
                    .name(format!("wire-worker-{i}"))
                    .spawn(move || {
                        while let Ok(item) = rx.recv() {
                            let (seq, resp) = core.process(item.job);
                            let frame = encode_response(seq, &resp);
                            let mut stream = item.reply.lock().unwrap_or_else(|p| p.into_inner());
                            // A client that hung up mid-flight is not an
                            // error worth more than the counter bump the
                            // reader already took.
                            let _ = stream.write_all(&frame);
                        }
                    })
                    .expect("spawn wire worker"),
            );
        }

        let accept = {
            let core = Arc::clone(&core);
            let stop = Arc::clone(&stop);
            let registry = Arc::clone(&registry);
            let worker_txs = worker_txs.clone();
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
                        let (Ok(writer), Ok(registered)) = (stream.try_clone(), stream.try_clone())
                        else {
                            continue;
                        };
                        registry
                            .conns
                            .lock()
                            .unwrap_or_else(|p| p.into_inner())
                            .push(registered);
                        let core = Arc::clone(&core);
                        let worker_txs = worker_txs.clone();
                        let handle = thread::Builder::new()
                            .name("wire-reader".to_string())
                            .spawn(move || {
                                reader_loop(core, stream, Arc::new(Mutex::new(writer)), worker_txs)
                            })
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
            worker_txs,
            workers: worker_handles,
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

    /// Stops accepting, closes every connection, drains the workers, and
    /// joins all threads.
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
        // With every reader gone, dropping the senders disconnects the
        // worker channels and the pool drains out.
        self.worker_txs.clear();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

fn reader_loop<S: SegmentSink + Send + 'static>(
    core: Arc<WireCore<S>>,
    mut stream: TcpStream,
    writer: Arc<Mutex<TcpStream>>,
    worker_txs: Vec<mpsc::Sender<WorkItem>>,
) {
    let mut conn = core.connect();
    let mut decoder = FrameDecoder::new();
    let mut buf = [0u8; 16 * 1024];
    'conn: loop {
        let n = match stream.read(&mut buf) {
            Ok(0) | Err(_) => break,
            Ok(n) => n,
        };
        decoder.extend(&buf[..n]);
        loop {
            match decoder.next_frame() {
                Ok(Some((FrameKind::Request, seq, payload))) => {
                    let request = match decode_request_payload(&payload) {
                        Ok(r) => r,
                        Err(_) => {
                            core.metrics().record_corrupt_frame();
                            break 'conn;
                        }
                    };
                    let route = WireCore::<S>::route_worker(&request, worker_txs.len());
                    match core.admit(&mut conn, seq, request) {
                        Admission::Reply(seq, resp) => {
                            let frame = encode_response(seq, &resp);
                            let mut w = writer.lock().unwrap_or_else(|p| p.into_inner());
                            if w.write_all(&frame).is_err() {
                                break 'conn;
                            }
                        }
                        Admission::Enqueue(job) => {
                            let item = WorkItem {
                                job,
                                reply: Arc::clone(&writer),
                            };
                            if worker_txs[route].send(item).is_err() {
                                // Workers only disappear at shutdown.
                                break 'conn;
                            }
                        }
                    }
                }
                Ok(Some((FrameKind::Ops, seq, payload))) => {
                    // Scrapes answer inline at the door like pings — no
                    // worker dispatch — but core.ops() charges admission.
                    let query = match decode_ops_query_payload(&payload) {
                        Ok(q) => q,
                        Err(_) => {
                            core.metrics().record_corrupt_frame();
                            break 'conn;
                        }
                    };
                    let resp = core.ops(&mut conn, query);
                    let frame = encode_ops_response(seq, &resp);
                    let mut w = writer.lock().unwrap_or_else(|p| p.into_inner());
                    if w.write_all(&frame).is_err() {
                        break 'conn;
                    }
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
            }
        }
    }
    let _ = stream.shutdown(std::net::Shutdown::Both);
}

/// A blocking TCP client speaking the wire protocol.
pub struct TcpClient {
    stream: TcpStream,
    decoder: FrameDecoder,
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
        let mut buf = [0u8; 16 * 1024];
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
                Ok(None) => {
                    let n = self.stream.read(&mut buf)?;
                    if n == 0 {
                        return Err(io::Error::new(
                            io::ErrorKind::UnexpectedEof,
                            "server closed the connection",
                        ));
                    }
                    self.decoder.extend(&buf[..n]);
                }
                Err(kind) => {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("corrupt frame from server: {kind}"),
                    ));
                }
            }
        }
    }
}

impl Connection for TcpClient {
    fn send(&mut self, request: &Request) -> io::Result<u64> {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.stream.write_all(&encode_request(seq, request))?;
        Ok(seq)
    }

    fn recv(&mut self) -> io::Result<(u64, Response)> {
        let mut buf = [0u8; 16 * 1024];
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
                Ok(None) => {
                    let n = self.stream.read(&mut buf)?;
                    if n == 0 {
                        return Err(io::Error::new(
                            io::ErrorKind::UnexpectedEof,
                            "server closed the connection",
                        ));
                    }
                    self.decoder.extend(&buf[..n]);
                }
                Err(kind) => {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("corrupt frame from server: {kind}"),
                    ));
                }
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
    /// calls of `batch` decisions (`batch == 1` sends single `Decide`s).
    /// Every decision must be served and the wire ledger must balance.
    fn serve_from_four_connections(calls: u64, batch: usize) {
        const CONNS: u32 = 4;
        let server = server(3);
        let mut handles = Vec::new();
        for c in 0..CONNS {
            let addr = server.local_addr();
            handles.push(thread::spawn(move || {
                let mut client = TcpClient::connect(addr).expect("connect");
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
    fn many_connections_share_the_worker_pool() {
        serve_from_four_connections(25, 1);
    }

    #[test]
    fn many_connections_serve_batches_over_the_worker_pool() {
        serve_from_four_connections(10, 16);
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
