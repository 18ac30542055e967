//! Typed results for the public connection API.
//!
//! The connection's fallible operations return these instead of bare
//! `bool`/`usize` sentinels: callers can distinguish "would block" from
//! "closed", and a rejected MP_JOIN says *why* it was rejected.

use std::fmt;

use bytes::Bytes;

/// Index of a subflow within [`crate::MptcpConnection::subflows`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct SubflowId(pub usize);

impl fmt::Display for SubflowId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "subflow#{}", self.0)
    }
}

/// Result of [`crate::MptcpConnection::write`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WriteOutcome {
    /// `n` bytes entered the connection-level send buffer.
    Accepted(usize),
    /// The connection is operating as plain TCP (§3.3.6 fallback); `n`
    /// bytes entered the initial subflow's socket directly.
    FellBack(usize),
    /// No buffer space; retry after DATA_ACKs free memory.
    WouldBlock,
    /// The sending direction is closed (DATA_FIN queued or connection
    /// done); the data was not accepted.
    Closed,
}

impl WriteOutcome {
    /// Bytes accepted, regardless of path taken (0 for the non-accepting
    /// outcomes) — the drop-in replacement for the old `usize` return.
    pub fn accepted(&self) -> usize {
        match self {
            WriteOutcome::Accepted(n) | WriteOutcome::FellBack(n) => *n,
            WriteOutcome::WouldBlock | WriteOutcome::Closed => 0,
        }
    }
}

/// Result of [`crate::MptcpConnection::read`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ReadOutcome {
    /// In-order stream bytes.
    Data(Bytes),
    /// Nothing buffered right now; more may arrive.
    WouldBlock,
    /// The peer's stream ended (DATA_FIN, or subflow FIN in fallback) and
    /// everything before it has been read.
    Eof,
    /// The connection is closed; no further data will arrive.
    Closed,
}

impl ReadOutcome {
    /// The payload, if this outcome carried one — the drop-in replacement
    /// for the old `Option<Bytes>` return.
    pub fn into_data(self) -> Option<Bytes> {
        match self {
            ReadOutcome::Data(b) => Some(b),
            _ => None,
        }
    }
}

/// Why [`crate::MptcpConnection::open_subflow`] refused.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SubflowError {
    /// The connection is not in a state that can add subflows (still in
    /// the initial handshake, fallen back, or closed).
    WrongState,
    /// The peer's key is unknown — MP_CAPABLE never completed, so an
    /// MP_JOIN token cannot be computed.
    NoRemoteKey,
    /// A live subflow with the same four-tuple already exists.
    DuplicateSubflow,
    /// [`crate::MAX_SUBFLOWS`] live subflows already.
    SubflowLimit,
}

impl fmt::Display for SubflowError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let msg = match self {
            SubflowError::WrongState => "connection state does not allow new subflows",
            SubflowError::NoRemoteKey => "peer key unknown (MP_CAPABLE incomplete)",
            SubflowError::DuplicateSubflow => "a live subflow already uses this four-tuple",
            SubflowError::SubflowLimit => "subflow limit reached",
        };
        f.write_str(msg)
    }
}

impl std::error::Error for SubflowError {}

/// Why a connection was aborted rather than closed cleanly.
///
/// Surfaced by [`crate::MptcpConnection::abort_reason`] and mirrored in
/// telemetry as `ConnAborted { code }` with the codes documented here.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AbortReason {
    /// Every subflow stayed Failed past the configured abort deadline with
    /// work still outstanding (code 0).
    AllPathsFailed,
    /// REMOVE_ADDR (or local address removal) killed the last live subflow
    /// (code 1).
    LastSubflowRemoved,
    /// The peer sent MP_FASTCLOSE (code 2).
    PeerFastClose,
    /// The initial subflow's handshake was refused or timed out (code 3).
    HandshakeFailed,
    /// Every subflow was reset or timed out (code 4).
    AllSubflowsDied,
}

impl AbortReason {
    /// Stable numeric code carried by the `ConnAborted` telemetry event.
    pub fn code(&self) -> u32 {
        match self {
            AbortReason::AllPathsFailed => 0,
            AbortReason::LastSubflowRemoved => 1,
            AbortReason::PeerFastClose => 2,
            AbortReason::HandshakeFailed => 3,
            AbortReason::AllSubflowsDied => 4,
        }
    }
}

impl fmt::Display for AbortReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let msg = match self {
            AbortReason::AllPathsFailed => "all paths failed past the abort deadline",
            AbortReason::LastSubflowRemoved => "address removal killed the last live subflow",
            AbortReason::PeerFastClose => "peer sent MP_FASTCLOSE",
            AbortReason::HandshakeFailed => "the handshake was refused or timed out",
            AbortReason::AllSubflowsDied => "every subflow was reset or timed out",
        };
        f.write_str(msg)
    }
}

impl std::error::Error for AbortReason {}

/// Why [`crate::MptcpConnection::accept_join`] rejected an MP_JOIN SYN.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JoinError {
    /// The SYN carried no MP_JOIN option.
    NoJoinOption,
    /// The token does not identify this connection (or our peer key is
    /// not yet known, so no join can be validated).
    UnknownToken,
    /// [`crate::MAX_SUBFLOWS`] live subflows already.
    SubflowLimit,
    /// The connection cannot accept joins (fallen back or closed).
    WrongState,
}

impl fmt::Display for JoinError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let msg = match self {
            JoinError::NoJoinOption => "SYN carried no MP_JOIN option",
            JoinError::UnknownToken => "token does not match this connection",
            JoinError::SubflowLimit => "subflow limit reached",
            JoinError::WrongState => "connection state does not accept joins",
        };
        f.write_str(msg)
    }
}

impl std::error::Error for JoinError {}
