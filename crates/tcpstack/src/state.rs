//! The TCP connection state machine (RFC 9293).
//!
//! [`TcpState`] is the public view. The socket keeps a `Life`, the state
//! with what each state owns, feeds it an `Input` for what happened and
//! reads the state back; the machine holds no sequence number and builds
//! no segment.

use mptcp_netsim::{Duration, SimTime};

/// How long a socket lingers in TIME_WAIT to absorb stray segments.
const TIME_WAIT: Duration = Duration::from_secs(8);

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

/// A [`TcpState`] with what it owns. Opening: `rcvd` once the peer's SYN
/// is in (SYN_RECEIVED), `syn` while our SYN, or SYN/ACK, is owed. `fin`:
/// the application closed and the FIN is not out yet.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Life {
    Opening { rcvd: bool, syn: bool, fin: bool },
    Established { fin: bool },
    CloseWait { fin: bool },
    FinWait1,
    FinWait2,
    Closing,
    LastAck,
    TimeWait { until: SimTime },
    Closed(End),
}

/// How a closed end ended: cleanly, or reset, timed out or aborted, with
/// the abort's RST still owed or not.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum End {
    Clean,
    Failed,
    RstDue,
}

/// What happened to a connection end. `Failed`: an acceptable RST, or the
/// timer gave up; `Abandon`: an orphan's retries ran out; `Tick`: the
/// clock reached the instant fed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Input {
    SynOut,
    SynTimeout,
    PeerSyn,
    SynAcked,
    Close,
    FinOut,
    FinAcked,
    PeerFin,
    Failed,
    Abort,
    RstOut,
    Abandon,
    Tick,
}

impl Life {
    /// The state after `input` at `now`; `None` when it changes nothing.
    pub(crate) fn on(self, input: Input, now: SimTime) -> Option<Life> {
        use Input::*;
        use Life::*;
        Some(match (self, input) {
            (Closed(End::RstDue), RstOut) | (Closed(End::Clean), Abort) => Closed(End::Failed),
            (Closed(_), _) => return None,
            (_, Failed) | (Opening { rcvd: false, .. }, Abort) => Closed(End::Failed),
            (_, Abandon) => Closed(End::Clean),
            // An RST goes to a peer that knows of the connection.
            (_, Abort) => Closed(End::RstDue),
            (Opening { rcvd, fin, .. }, SynOut | SynTimeout | PeerSyn) => Opening {
                rcvd: rcvd || input == PeerSyn,
                syn: input != SynOut,
                fin,
            },
            (Opening { fin, .. }, SynAcked) => Established { fin },
            (Opening { rcvd, syn, .. }, Close) => Opening {
                rcvd,
                syn,
                fin: true,
            },
            (Established { .. }, Close) => Established { fin: true },
            (CloseWait { .. }, Close) => CloseWait { fin: true },
            (Established { fin: true }, FinOut) => FinWait1,
            (CloseWait { fin: true }, FinOut) => LastAck,
            (Established { fin }, PeerFin) => CloseWait { fin },
            (FinWait1, FinAcked) => FinWait2,
            (FinWait1, PeerFin) => Closing,
            (FinWait2, PeerFin) | (Closing, FinAcked) => TimeWait {
                until: now + TIME_WAIT,
            },
            (LastAck, FinAcked) => Closed(End::Clean),
            (TimeWait { until }, Tick) if until <= now => Closed(End::Clean),
            _ => return None,
        })
    }

    /// The public view.
    pub(crate) fn state(self) -> TcpState {
        match self {
            Life::Opening { rcvd: false, .. } => TcpState::SynSent,
            Life::Opening { .. } => TcpState::SynReceived,
            Life::Established { .. } => TcpState::Established,
            Life::CloseWait { .. } => TcpState::CloseWait,
            Life::FinWait1 => TcpState::FinWait1,
            Life::FinWait2 => TcpState::FinWait2,
            Life::Closing => TcpState::Closing,
            Life::LastAck => TcpState::LastAck,
            Life::TimeWait { .. } => TcpState::TimeWait,
            Life::Closed(_) => TcpState::Closed,
        }
    }

    /// Will the application's writes be refused from now on? Only an
    /// active opener and a synchronized end before its close take data.
    pub(crate) fn send_closed(self) -> bool {
        match self {
            Life::Opening { rcvd: true, .. } => true,
            Life::Opening { fin, .. } | Life::Established { fin } | Life::CloseWait { fin } => fin,
            _ => true,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const NOW: SimTime = SimTime::ZERO;

    /// Every state, with each value of its data the socket can reach.
    fn states() -> Vec<Life> {
        use Life::*;
        let mut all = Vec::new();
        for rcvd in [false, true] {
            for (syn, fin) in [(true, false), (false, false), (true, true), (false, true)] {
                all.push(Opening { rcvd, syn, fin });
            }
        }
        for fin in [false, true] {
            all.push(Established { fin });
        }
        for fin in [false, true] {
            all.push(CloseWait { fin });
        }
        all.extend([FinWait1, FinWait2, Closing, LastAck]);
        all.push(TimeWait { until: NOW });
        all.push(TimeWait {
            until: NOW + Duration::from_nanos(1),
        });
        all.extend([End::Clean, End::Failed, End::RstDue].map(Closed));
        all
    }

    const INPUTS: [Input; 13] = [
        Input::SynOut,
        Input::SynTimeout,
        Input::PeerSyn,
        Input::SynAcked,
        Input::Close,
        Input::FinOut,
        Input::FinAcked,
        Input::PeerFin,
        Input::Failed,
        Input::Abort,
        Input::RstOut,
        Input::Abandon,
        Input::Tick,
    ];

    fn name(l: Life) -> String {
        let flag = |on: bool, s: &'static str| if on { s } else { "" };
        match l {
            Life::Opening { rcvd, syn, fin } => format!(
                "{}{}{}",
                if rcvd { "SR" } else { "SS" },
                flag(syn, "+syn"),
                flag(fin, "+fin")
            ),
            Life::Established { fin } => format!("ES{}", flag(fin, "+fin")),
            Life::CloseWait { fin } => format!("CW{}", flag(fin, "+fin")),
            Life::FinWait1 => "FW1".into(),
            Life::FinWait2 => "FW2".into(),
            Life::Closing => "CLG".into(),
            Life::LastAck => "LA".into(),
            Life::TimeWait { until } if until == NOW + TIME_WAIT => "TW+8s".into(),
            Life::TimeWait { until } => format!("TW@{}", until.0),
            Life::Closed(end) => format!("CL.{end:?}"),
        }
    }

    /// The whole table, one row per state, `-` where an input changes
    /// nothing. Columns: SynOut, SynTimeout, PeerSyn, SynAcked, Close,
    /// FinOut, FinAcked, PeerFin, Failed, Abort, RstOut, Abandon, Tick.
    #[test]
    fn transition_table() {
        let want = "\
SS+syn: SS SS+syn SR+syn ES SS+syn+fin - - - CL.Failed CL.Failed - CL.Clean -
SS: SS SS+syn SR+syn ES SS+fin - - - CL.Failed CL.Failed - CL.Clean -
SS+syn+fin: SS+fin SS+syn+fin SR+syn+fin ES+fin SS+syn+fin - - - CL.Failed CL.Failed - CL.Clean -
SS+fin: SS+fin SS+syn+fin SR+syn+fin ES+fin SS+fin - - - CL.Failed CL.Failed - CL.Clean -
SR+syn: SR SR+syn SR+syn ES SR+syn+fin - - - CL.Failed CL.RstDue - CL.Clean -
SR: SR SR+syn SR+syn ES SR+fin - - - CL.Failed CL.RstDue - CL.Clean -
SR+syn+fin: SR+fin SR+syn+fin SR+syn+fin ES+fin SR+syn+fin - - - CL.Failed CL.RstDue - CL.Clean -
SR+fin: SR+fin SR+syn+fin SR+syn+fin ES+fin SR+fin - - - CL.Failed CL.RstDue - CL.Clean -
ES: - - - - ES+fin - - CW CL.Failed CL.RstDue - CL.Clean -
ES+fin: - - - - ES+fin FW1 - CW+fin CL.Failed CL.RstDue - CL.Clean -
CW: - - - - CW+fin - - - CL.Failed CL.RstDue - CL.Clean -
CW+fin: - - - - CW+fin LA - - CL.Failed CL.RstDue - CL.Clean -
FW1: - - - - - - FW2 CLG CL.Failed CL.RstDue - CL.Clean -
FW2: - - - - - - - TW+8s CL.Failed CL.RstDue - CL.Clean -
CLG: - - - - - - TW+8s - CL.Failed CL.RstDue - CL.Clean -
LA: - - - - - - CL.Clean - CL.Failed CL.RstDue - CL.Clean -
TW@0: - - - - - - - - CL.Failed CL.RstDue - CL.Clean CL.Clean
TW@1: - - - - - - - - CL.Failed CL.RstDue - CL.Clean -
CL.Clean: - - - - - - - - - CL.Failed - - -
CL.Failed: - - - - - - - - - - - - -
CL.RstDue: - - - - - - - - - - CL.Failed - -
";
        let got: String = states()
            .into_iter()
            .map(|s| {
                let cells: Vec<String> = INPUTS
                    .iter()
                    .map(|&i| s.on(i, NOW).map_or("-".into(), name))
                    .collect();
                format!("{}: {}\n", name(s), cells.join(" "))
            })
            .collect();
        assert_eq!(got, want, "actual table:\n{got}");
    }

    /// Writes are taken only in SYN_SENT and, before a close, once
    /// synchronized.
    #[test]
    fn predicates() {
        for s in states() {
            let open = matches!(
                s.state(),
                TcpState::SynSent | TcpState::Established | TcpState::CloseWait
            );
            assert!(s.send_closed() || open, "{s:?}");
        }
    }
}
