//! The TCP connection state machine states (RFC 793).

/// TCP connection states.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TcpState {
    /// No connection.
    Closed,
    /// Active open; SYN sent.
    SynSent,
    /// SYN received; SYN/ACK sent (a passive opener starts here: sockets
    /// are created from the SYN, there is no listening state).
    SynReceived,
    /// Data transfer.
    Established,
    /// Our FIN sent, not yet acked; peer still open.
    FinWait1,
    /// Our FIN acked; waiting for peer's FIN.
    FinWait2,
    /// Peer's FIN received; we may still send.
    CloseWait,
    /// Both FINs in flight (simultaneous close).
    Closing,
    /// Peer's FIN received and our FIN sent, awaiting final ACK.
    LastAck,
    /// Connection done; lingering to absorb stray segments.
    TimeWait,
}

impl TcpState {
    /// May the application still enqueue data for sending?
    pub fn can_send(self) -> bool {
        matches!(self, TcpState::Established | TcpState::CloseWait)
    }

    /// May data still arrive from the peer?
    pub fn can_receive(self) -> bool {
        matches!(
            self,
            TcpState::Established | TcpState::FinWait1 | TcpState::FinWait2
        )
    }

    /// Is the handshake complete (data may flow in at least one direction)?
    pub fn is_synchronized(self) -> bool {
        !matches!(
            self,
            TcpState::Closed | TcpState::SynSent | TcpState::SynReceived
        )
    }

    /// Has the connection fully terminated?
    pub fn is_closed(self) -> bool {
        matches!(self, TcpState::Closed | TcpState::TimeWait)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn predicates() {
        assert!(TcpState::Established.can_send());
        assert!(TcpState::CloseWait.can_send());
        assert!(!TcpState::FinWait1.can_send());
        assert!(TcpState::FinWait2.can_receive());
        assert!(!TcpState::CloseWait.can_receive());
        assert!(TcpState::Established.is_synchronized());
        assert!(!TcpState::SynSent.is_synchronized());
        assert!(TcpState::TimeWait.is_closed());
        assert!(!TcpState::LastAck.is_closed());
    }
}
