//! The deterministic in-memory transport.
//!
//! A [`Duplex`] is the seeded test path's stand-in for a TCP server: clients
//! `send` encoded frames into a per-connection server-side decoder, admitted
//! jobs queue in arrival order, and [`Duplex::pump`] processes them FIFO on
//! the caller's thread. Every byte still crosses the real codec — requests
//! are encoded, framed, CRC-checked, and decoded exactly as they would be on
//! a socket — so the equivalence test exercises the same machinery the TCP
//! path runs, minus the threads.
//!
//! Time is the shared logical clock: request stamps advance it on `send`,
//! and tests can advance it directly (via [`WireCore::clock`]) to age
//! queued work past its deadline before pumping.

use std::collections::{BTreeMap, VecDeque};
use std::io;
use std::sync::{Arc, Mutex};

use harvest_log::segment::SegmentSink;

use crate::core::{Admission, ConnState, Job, WireCore};
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

struct ServerSide {
    state: ConnState,
    decoder: FrameDecoder,
}

struct DuplexState {
    conns: BTreeMap<u64, ServerSide>,
    queue: VecDeque<Job>,
    inboxes: BTreeMap<u64, FrameDecoder>,
}

/// An in-memory server: same core, same codec, no sockets, no threads.
pub struct Duplex<S: SegmentSink + Send + 'static> {
    core: Arc<WireCore<S>>,
    state: Mutex<DuplexState>,
}

impl<S: SegmentSink + Send + 'static> Duplex<S> {
    /// Wraps a core in an in-memory transport.
    pub fn new(core: Arc<WireCore<S>>) -> Arc<Self> {
        Arc::new(Duplex {
            core,
            state: Mutex::new(DuplexState {
                conns: BTreeMap::new(),
                queue: VecDeque::new(),
                inboxes: BTreeMap::new(),
            }),
        })
    }

    /// The shared front-end state.
    pub fn core(&self) -> &Arc<WireCore<S>> {
        &self.core
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, DuplexState> {
        self.state.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Opens a connection.
    pub fn connect(self: &Arc<Self>) -> DuplexConn<S> {
        let state = self.core.connect();
        let conn_id = state.conn_id;
        let mut s = self.lock();
        s.conns.insert(
            conn_id,
            ServerSide {
                state,
                decoder: FrameDecoder::new(),
            },
        );
        s.inboxes.insert(conn_id, FrameDecoder::new());
        DuplexConn {
            server: Arc::clone(self),
            conn_id,
            next_seq: 0,
        }
    }

    /// Feeds raw frame bytes from `conn_id` into the server, admitting every
    /// complete request they contain. Corrupt frames are counted and refused
    /// with `InvalidData` — the socket analogue is closing the connection.
    pub fn send_bytes(&self, conn_id: u64, bytes: &[u8]) -> io::Result<()> {
        let mut s = self.lock();
        let DuplexState {
            conns,
            queue,
            inboxes,
        } = &mut *s;
        let side = conns
            .get_mut(&conn_id)
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotConnected, "unknown connection"))?;
        side.decoder.extend(bytes);
        loop {
            match side.decoder.next_frame() {
                Ok(Some((FrameKind::Request, seq, payload))) => {
                    let request = match decode_request_payload(&payload) {
                        Ok(r) => r,
                        Err(kind) => {
                            self.core.metrics().record_corrupt_frame();
                            return Err(io::Error::new(
                                io::ErrorKind::InvalidData,
                                format!("bad request body: {kind}"),
                            ));
                        }
                    };
                    match self.core.admit(&mut side.state, seq, request) {
                        Admission::Enqueue(job) => queue.push_back(job),
                        Admission::Reply(seq, resp) => {
                            if let Some(inbox) = inboxes.get_mut(&conn_id) {
                                inbox.extend(&encode_response(seq, &resp));
                            }
                        }
                    }
                }
                Ok(Some((FrameKind::Ops, seq, payload))) => {
                    // Scrapes answer inline at the door, exactly like the
                    // TCP reader: no queue slot, admission still charged.
                    let query = match decode_ops_query_payload(&payload) {
                        Ok(q) => q,
                        Err(kind) => {
                            self.core.metrics().record_corrupt_frame();
                            return Err(io::Error::new(
                                io::ErrorKind::InvalidData,
                                format!("bad ops body: {kind}"),
                            ));
                        }
                    };
                    let resp = self.core.ops(&mut side.state, query);
                    if let Some(inbox) = inboxes.get_mut(&conn_id) {
                        inbox.extend(&encode_ops_response(seq, &resp));
                    }
                }
                Ok(Some((FrameKind::Response, _, _))) => {
                    self.core.metrics().record_protocol_error();
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        "client sent a response frame",
                    ));
                }
                Ok(None) => return Ok(()),
                Err(kind) => {
                    self.core.metrics().record_corrupt_frame();
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("corrupt frame: {kind}"),
                    ));
                }
            }
        }
    }

    /// Processes one queued job, delivering its response to the sender's
    /// inbox. Returns `false` when the queue is empty.
    pub fn pump_one(&self) -> bool {
        // Dequeue under the lock, process outside it: the service call may
        // block on the logger's backpressure, and holding the transport
        // lock there would deadlock a test that drains from another thread.
        let job = match self.lock().queue.pop_front() {
            Some(job) => job,
            None => return false,
        };
        let conn_id = job.conn_id;
        let (seq, resp) = self.core.process(job);
        if let Some(inbox) = self.lock().inboxes.get_mut(&conn_id) {
            inbox.extend(&encode_response(seq, &resp));
        }
        true
    }

    /// Processes every queued job in arrival order — the deterministic
    /// analogue of the TCP readers serving what they admitted.
    pub fn pump(&self) -> usize {
        let mut n = 0;
        while self.pump_one() {
            n += 1;
        }
        n
    }

    fn recv_from(&self, conn_id: u64) -> io::Result<(u64, Response)> {
        loop {
            {
                let mut s = self.lock();
                let inbox = s.inboxes.get_mut(&conn_id).ok_or_else(|| {
                    io::Error::new(io::ErrorKind::NotConnected, "unknown connection")
                })?;
                match inbox.next_frame() {
                    Ok(Some((FrameKind::Response, seq, payload))) => {
                        let resp = decode_response_payload(&payload).map_err(|kind| {
                            io::Error::new(
                                io::ErrorKind::InvalidData,
                                format!("bad response body: {kind}"),
                            )
                        })?;
                        return Ok((seq, resp));
                    }
                    Ok(Some(_)) => {
                        return Err(io::Error::new(
                            io::ErrorKind::InvalidData,
                            "server sent a request frame",
                        ))
                    }
                    Ok(None) => {}
                    Err(kind) => {
                        return Err(io::Error::new(
                            io::ErrorKind::InvalidData,
                            format!("corrupt frame: {kind}"),
                        ))
                    }
                }
            }
            // Nothing buffered: drive the server forward one job. If the
            // queue is empty too, the response can never arrive.
            if !self.pump_one() {
                return Err(io::Error::new(
                    io::ErrorKind::WouldBlock,
                    "no response buffered and no work queued",
                ));
            }
        }
    }

    /// Reads the next buffered ops answer for `conn_id`. Scrapes answer
    /// synchronously in [`Duplex::send_bytes`], so no pumping is needed.
    fn recv_ops_from(&self, conn_id: u64) -> io::Result<OpsResponse> {
        let mut s = self.lock();
        let inbox = s
            .inboxes
            .get_mut(&conn_id)
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotConnected, "unknown connection"))?;
        match inbox.next_frame() {
            Ok(Some((FrameKind::Ops, _, payload))) => decode_ops_response_payload(&payload)
                .map_err(|kind| {
                    io::Error::new(io::ErrorKind::InvalidData, format!("bad ops body: {kind}"))
                }),
            Ok(Some(_)) => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "non-ops frame while awaiting a scrape answer",
            )),
            Ok(None) => Err(io::Error::new(
                io::ErrorKind::WouldBlock,
                "no scrape answer buffered",
            )),
            Err(kind) => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("corrupt frame: {kind}"),
            )),
        }
    }
}

/// A client connection to a [`Duplex`] server.
pub struct DuplexConn<S: SegmentSink + Send + 'static> {
    server: Arc<Duplex<S>>,
    conn_id: u64,
    next_seq: u64,
}

impl<S: SegmentSink + Send + 'static> DuplexConn<S> {
    /// The server-assigned connection id.
    pub fn conn_id(&self) -> u64 {
        self.conn_id
    }

    /// Sends one ops-plane scrape and returns its answer. Scrapes are
    /// answered at the door, so this never pumps the job queue — a scrape
    /// mid-workload observes the queue as it stands.
    pub fn ops(&mut self, query: &OpsQuery) -> io::Result<OpsResponse> {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.server
            .send_bytes(self.conn_id, &encode_ops_query(seq, query))?;
        self.server.recv_ops_from(self.conn_id)
    }
}

impl<S: SegmentSink + Send + 'static> Connection for DuplexConn<S> {
    fn send(&mut self, request: &Request) -> io::Result<u64> {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.server
            .send_bytes(self.conn_id, &encode_request(seq, request))?;
        Ok(seq)
    }

    fn recv(&mut self) -> io::Result<(u64, Response)> {
        self.server.recv_from(self.conn_id)
    }
}

impl<S: SegmentSink + Send + 'static> Transport for Arc<Duplex<S>> {
    type Conn = DuplexConn<S>;

    fn connect(&self) -> io::Result<Self::Conn> {
        Ok(Duplex::connect(self))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::core::WireConfig;
    use harvest_core::SimpleContext;
    use harvest_log::segment::MemorySegments;
    use harvest_serve::{DecisionService, ServeConfig};

    fn server() -> Arc<Duplex<MemorySegments>> {
        let cfg = ServeConfig::builder()
            .shards(2)
            .epsilon(0.2)
            .master_seed(7)
            .build()
            .expect("valid config");
        let svc = Arc::new(DecisionService::new(cfg, MemorySegments::new()));
        Duplex::new(Arc::new(WireCore::new(svc, WireConfig::default())))
    }

    #[test]
    fn request_response_over_the_duplex() {
        let server = server();
        let mut conn = server.connect();
        let seq = conn
            .send(&Request::Decide {
                shard: 0,
                now_ns: 1_000,
                budget_ns: 0,
                context: SimpleContext::new(vec![0.5], 3),
            })
            .expect("send");
        // recv pumps the queue itself.
        let (rseq, resp) = conn.recv().expect("recv");
        assert_eq!(rseq, seq);
        assert!(matches!(resp, Response::Decision(_)));
        // Nothing else is in flight.
        assert!(conn.recv().is_err());
    }

    #[test]
    fn responses_route_to_their_own_connection() {
        let server = server();
        let mut a = server.connect();
        let mut b = server.connect();
        a.send(&Request::Ping { nonce: 1 }).expect("send a");
        b.send(&Request::Ping { nonce: 2 }).expect("send b");
        let (_, ra) = a.recv().expect("recv a");
        let (_, rb) = b.recv().expect("recv b");
        assert_eq!(ra, Response::Pong { nonce: 1 });
        assert_eq!(rb, Response::Pong { nonce: 2 });
    }

    #[test]
    fn scrapes_answer_at_the_door_and_replay_byte_identically() {
        let run = || {
            let server = server();
            let mut conn = server.connect();
            for i in 0..8u64 {
                conn.send(&Request::Decide {
                    shard: (i % 2) as u32,
                    now_ns: 1_000 + i * 10,
                    budget_ns: 0,
                    context: SimpleContext::contextless(2),
                })
                .expect("send");
            }
            server.pump();
            // Drain the decision responses first: the inbox is FIFO, so
            // the scrape answer lands behind them.
            for _ in 0..8 {
                conn.recv().expect("recv decision");
            }
            // Byte-identity needs a quiescent log pipeline: the async
            // writer's progress is invisible in logical time.
            while server.core().service().metrics().log_backlog > 0 {
                std::thread::yield_now();
            }
            let OpsResponse::Report { body } = conn.ops(&OpsQuery::Prometheus).expect("scrape")
            else {
                panic!("scrape must serve");
            };
            body
        };
        let (a, b) = (run(), run());
        assert_eq!(a, b, "same seed, same traffic ⇒ byte-identical scrape");
    }

    #[test]
    fn corrupt_bytes_are_counted_and_refused() {
        let server = server();
        let mut conn = server.connect();
        let mut frame = encode_request(0, &Request::Ping { nonce: 5 });
        let last = frame.len() - 1;
        frame[last] ^= 0xFF;
        assert!(server.send_bytes(conn.conn_id(), &frame).is_err());
        assert_eq!(server.core().metrics().snapshot().frames_corrupt, 1);
        // A corrupt stream has no resync point: the connection is dead,
        // exactly like the TCP path closing the socket.
        assert!(conn.send(&Request::Ping { nonce: 6 }).is_err());
        // A fresh connection is unaffected.
        let mut conn2 = server.connect();
        conn2.send(&Request::Ping { nonce: 7 }).expect("send");
        let (_, resp) = conn2.recv().expect("recv");
        assert_eq!(resp, Response::Pong { nonce: 7 });
    }
}
