//! A uniform client-side transport: MPTCP connection or plain TCP socket.
//!
//! Experiments compare MPTCP against regular TCP (and TCP over bonded
//! links); [`Transport`] gives the hosts one API for all of them.

use std::fmt;

use bytes::Bytes;
use mptcp::{MptcpConnection, WriteOutcome};
use mptcp_netsim::SimTime;
use mptcp_packet::TcpSegment;
use mptcp_tcpstack::TcpSocket;

/// Why a [`Transport::write`] accepted no bytes.
///
/// The distinction matters to the applications: backpressure means "try
/// again after ACKs free buffer space", a closed send direction means no
/// amount of retrying will ever move these bytes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WriteError {
    /// Send buffers are full; retry once acknowledgements drain them.
    WouldBlock,
    /// The sending direction is closed or the connection has failed.
    Closed,
}

impl fmt::Display for WriteError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WriteError::WouldBlock => write!(f, "send buffer full (backpressure)"),
            WriteError::Closed => write!(f, "sending direction closed"),
        }
    }
}

impl std::error::Error for WriteError {}

/// Client-side transport under test.
// An MptcpConnection dwarfs a TcpSocket, but transports live one per host
// for a whole simulation — boxing would only add indirection.
#[allow(clippy::large_enum_variant)]
pub enum Transport {
    /// A Multipath TCP connection.
    Mptcp(MptcpConnection),
    /// A single regular TCP socket (baseline).
    Tcp(TcpSocket),
}

impl Transport {
    /// Is the transport ready to carry data?
    pub fn is_established(&self) -> bool {
        match self {
            Transport::Mptcp(c) => c.is_established(),
            Transport::Tcp(s) => s.is_established(),
        }
    }

    /// Write application bytes; returns the amount accepted (never 0) or
    /// why nothing was accepted.
    pub fn write(&mut self, data: &[u8]) -> Result<usize, WriteError> {
        match self {
            Transport::Mptcp(c) => match c.write(data) {
                WriteOutcome::Accepted(n) | WriteOutcome::FellBack(n) if n > 0 => Ok(n),
                WriteOutcome::Accepted(_)
                | WriteOutcome::FellBack(_)
                | WriteOutcome::WouldBlock => Err(WriteError::WouldBlock),
                WriteOutcome::Closed => Err(WriteError::Closed),
            },
            Transport::Tcp(s) => match s.send(data) {
                n if n > 0 => Ok(n),
                _ if s.is_error() || s.send_closed() => Err(WriteError::Closed),
                _ => Err(WriteError::WouldBlock),
            },
        }
    }

    /// Read in-order bytes.
    pub fn read(&mut self, max: usize) -> Option<Bytes> {
        match self {
            Transport::Mptcp(c) => c.read(max).into_data(),
            Transport::Tcp(s) => s.read(max),
        }
    }

    /// Close the sending direction.
    pub fn close(&mut self) {
        match self {
            Transport::Mptcp(c) => c.close(),
            Transport::Tcp(s) => s.close(),
        }
    }

    /// Stream EOF observed and drained?
    pub fn at_eof(&self) -> bool {
        match self {
            Transport::Mptcp(c) => c.at_eof(),
            Transport::Tcp(s) => s.stream_fin(),
        }
    }

    /// Did the transport fail (connection error with no recovery)?
    pub fn failed(&self) -> bool {
        match self {
            Transport::Mptcp(c) => c.state() == mptcp::ConnState::Closed && !c.send_closed(),
            Transport::Tcp(s) => s.is_error(),
        }
    }

    /// Feed an incoming segment.
    pub fn handle_segment(&mut self, now: SimTime, seg: &TcpSegment) {
        match self {
            Transport::Mptcp(c) => c.handle_segment(now, seg),
            Transport::Tcp(s) => s.handle_segment(now, seg),
        }
    }

    /// Emit at most one segment.
    pub fn poll(&mut self, now: SimTime) -> Option<TcpSegment> {
        match self {
            Transport::Mptcp(c) => c.poll(now),
            Transport::Tcp(s) => s.poll(now),
        }
    }

    /// Earliest timer deadline.
    pub fn poll_at(&self, now: SimTime) -> Option<SimTime> {
        match self {
            Transport::Mptcp(c) => c.poll_at(now),
            Transport::Tcp(s) => s.poll_at(now),
        }
    }

    /// Sender-held memory (buffered + retained-until-acked bytes).
    pub fn sender_memory(&self) -> usize {
        match self {
            Transport::Mptcp(c) => c.sender_memory(),
            Transport::Tcp(s) => s.bytes_queued(),
        }
    }

    /// The MPTCP connection, if this is one.
    pub fn as_mptcp(&mut self) -> Option<&mut MptcpConnection> {
        match self {
            Transport::Mptcp(c) => Some(c),
            Transport::Tcp(_) => None,
        }
    }

    /// Telemetry snapshot: the MPTCP connection's full recorder merge, or
    /// the plain socket's recorder for the TCP baseline.
    pub fn telemetry(&self) -> mptcp::telemetry::TelemetrySnapshot {
        match self {
            Transport::Mptcp(c) => c.telemetry(),
            Transport::Tcp(s) => s.telemetry.snapshot(),
        }
    }

    /// Time-series trace snapshot: connection + per-subflow trace rings
    /// merged and time-sorted, or the lone socket's for the TCP baseline.
    /// Empty unless the transport was configured with tracing enabled.
    pub fn trace_snapshot(&self) -> mptcp::telemetry::TraceSnapshot {
        match self {
            Transport::Mptcp(c) => c.trace_snapshot(),
            Transport::Tcp(s) => s.telemetry.trace_snapshot(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mptcp_packet::{Endpoint, FourTuple, SeqNum};
    use mptcp_tcpstack::TcpConfig;

    fn established_tcp() -> Transport {
        let tuple = FourTuple {
            src: Endpoint::new(1, 1),
            dst: Endpoint::new(2, 2),
        };
        let now = SimTime::ZERO;
        let mut client = TcpSocket::client(TcpConfig::default(), tuple, SeqNum(1), now, vec![]);
        let syn = client.poll(now).unwrap();
        let mut server = TcpSocket::accept(TcpConfig::default(), &syn, SeqNum(500), now, vec![]);
        let synack = server.poll(now).unwrap();
        client.handle_segment(now, &synack);
        Transport::Tcp(client)
    }

    #[test]
    fn backpressure_and_closure_are_distinct_errors() {
        let mut t = established_tcp();
        // Filling the send buffer must surface as backpressure, not
        // closure: the app should retry, not give up.
        let chunk = vec![0u8; 64 * 1024];
        let mut wrote = 0usize;
        loop {
            match t.write(&chunk) {
                Ok(n) => {
                    assert!(n > 0, "Ok(0) is never a valid write result");
                    wrote += n;
                }
                Err(e) => {
                    assert_eq!(e, WriteError::WouldBlock);
                    break;
                }
            }
            assert!(wrote < 1 << 30, "send buffer never filled");
        }
        assert!(wrote > 0, "an established socket must accept some data");

        // After close, the same call reports a permanent condition.
        t.close();
        assert_eq!(t.write(&chunk), Err(WriteError::Closed));
    }
}
