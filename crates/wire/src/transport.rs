//! The client-side transport abstraction.
//!
//! A [`Transport`] hands out [`Connection`]s; a connection sends typed
//! requests and receives typed responses. Two implementations exist with
//! identical semantics:
//!
//! - [`TcpServer`](crate::tcp::TcpServer): real sockets and one reader
//!   thread per connection that serves its own requests in order — the
//!   production path.
//! - [`Duplex`](crate::duplex::Duplex): in-memory byte queues pumped on the
//!   caller's thread under the logical clock — the deterministic seeded
//!   test path.
//!
//! Code written against these traits (the wire equivalence test) runs
//! unchanged over either.

use std::io;

use crate::proto::{Request, Response};

/// A source of client connections to a wire server.
pub trait Transport {
    /// The connection type this transport produces.
    type Conn: Connection;

    /// Opens a new client connection.
    fn connect(&self) -> io::Result<Self::Conn>;
}

/// One client connection: framed, CRC-guarded, sequence-correlated.
pub trait Connection {
    /// Encodes and sends one request, returning the sequence number the
    /// response will echo. The TCP transport answers in request order; the
    /// duplex transport answers pings and sheds before jobs it still
    /// queues, so callers that pipeline match on the echoed sequence.
    fn send(&mut self, request: &Request) -> io::Result<u64>;

    /// Receives the next response frame.
    fn recv(&mut self) -> io::Result<(u64, Response)>;

    /// Sends a request and waits for *its* response, buffering nothing:
    /// valid only when no other request is in flight on this connection.
    fn call(&mut self, request: &Request) -> io::Result<Response> {
        let seq = self.send(request)?;
        let (rseq, resp) = self.recv()?;
        if rseq != seq {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("response seq {rseq} does not match request seq {seq}"),
            ));
        }
        Ok(resp)
    }
}
