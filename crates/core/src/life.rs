//! The connection's lifecycle as one value (§3.1, §3.3.6, §3.4): the
//! paper's deployability rules as rows of one table. [`Life`] is fed an
//! [`Input`] and answers with the [`Action`] the connection carries out; it
//! knows no socket and no connection, only how many subflows live.

use mptcp_telemetry::FallbackCause as Cause;

use crate::api::AbortReason;
use crate::conn::ConnState;

/// Where a connection is in its life. A client carries MP_CAPABLE with
/// both keys until a segment from the server proves MPTCP works both ways;
/// a server counts option-less segments in a row on the initial subflow
/// until one carries an MPTCP option. `Fallback(None)`: MPTCP was never
/// offered.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Life {
    Handshake { client: bool },
    ClientUnconfirmed,
    ServerUnconfirmed { plain_streak: u32 },
    Established,
    Fallback(Option<Cause>),
    Closed(AbortReason),
}

/// What happened: the initial subflow's handshake finished (`capable`: a
/// client's SYN/ACK carried MP_CAPABLE); a non-SYN segment on it; a DSS or
/// MP_CAPABLE; the data-level timer, a failed checksum or MP_FAIL with
/// `live` subflows; bytes outside any mapping (`lone`: on the only live
/// subflow, which never had one); a reason to abort; the application's
/// close; our DATA_FIN acknowledged (`both`: the peer's is in too).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Input {
    Synchronized { capable: bool },
    Segment { mptcp: bool },
    MptcpSeen,
    DataRto { live: usize },
    ChecksumFail { live: usize },
    Unmapped { lone: bool },
    MpFail { live: usize },
    Abort(AbortReason),
    Close,
    DataFinAcked { both: bool },
}

/// What the connection does about an input; each of the first three also
/// moves the stage. Closing the subflows after our DATA_FIN is acked
/// `orphan`s them once the peer's is in too (RFC 8684 §3.3.3: the
/// connection is closed), so their FINs are retried only briefly; a
/// fallback's FIN is the close itself and keeps its retries.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Action {
    Confirm,
    FallBack(Cause),
    Abort(AbortReason),
    ResetSubflow,
    CloseSubflows { orphan: bool },
}

impl Life {
    /// Take `input`: move on and say what the connection must do.
    pub(crate) fn on(&mut self, input: Input) -> Option<Action> {
        use Action::{CloseSubflows, Confirm, FallBack, ResetSubflow};
        use Input::*;
        use Life::*;
        let running = self.running();
        let action = match (*self, input) {
            (Closed(_), _) => return None,
            (_, Abort(reason)) => Action::Abort(reason),
            (Handshake { client: true }, Synchronized { capable: true }) => {
                *self = ClientUnconfirmed;
                return None;
            }
            (Handshake { client: true }, Synchronized { .. }) => FallBack(Cause::OptionStripped),
            (Handshake { client: false }, Synchronized { .. })
            | (ServerUnconfirmed { .. }, Segment { mptcp: true }) => {
                *self = ServerUnconfirmed { plain_streak: 0 };
                return None;
            }
            // Three in a row: a real option-stripping path strips every
            // segment, while a proxy may forge the odd option-less ACK.
            (ServerUnconfirmed { plain_streak: 2 }, Segment { .. }) => {
                FallBack(Cause::OptionStripped)
            }
            (ServerUnconfirmed { plain_streak }, Segment { .. }) => {
                let plain_streak = plain_streak + 1;
                *self = ServerUnconfirmed { plain_streak };
                return None;
            }
            (ClientUnconfirmed | ServerUnconfirmed { .. }, MptcpSeen) => Confirm,
            // A client cannot tell stripping from a slow path by what
            // arrives (a pro-active-acking proxy forges option-less ACKs
            // ahead of the server's own): nothing DATA_ACKed by the
            // data-level timer on a lone subflow is its evidence.
            (ClientUnconfirmed, DataRto { live: 1 }) => FallBack(Cause::DataRtoUnconfirmed),
            (_, ChecksumFail { live }) if running && live > 1 => ResetSubflow,
            (_, ChecksumFail { .. }) if running => FallBack(Cause::ChecksumFail),
            (_, Unmapped { lone: true }) if running => FallBack(Cause::OptionStripped),
            (_, MpFail { live }) if running && live <= 1 => FallBack(Cause::MpFail),
            (Fallback(_), Close) => CloseSubflows { orphan: false },
            (_, DataFinAcked { both }) if running => CloseSubflows { orphan: both },
            _ => return None,
        };
        match action {
            Confirm => *self = Established,
            FallBack(cause) => *self = Fallback(Some(cause)),
            Action::Abort(reason) => *self = Closed(reason),
            ResetSubflow | CloseSubflows { .. } => {}
        }
        Some(action)
    }

    /// The public view.
    pub(crate) fn state(self) -> ConnState {
        match self {
            Life::Handshake { .. } => ConnState::Handshake,
            Life::ClientUnconfirmed | Life::ServerUnconfirmed { .. } => ConnState::AwaitingConfirm,
            Life::Established => ConnState::Established,
            Life::Fallback(_) => ConnState::Fallback,
            Life::Closed(_) => ConnState::Closed,
        }
    }

    /// MPTCP negotiated, neither fallen back nor closed.
    pub(crate) fn running(self) -> bool {
        matches!(
            self,
            Life::ClientUnconfirmed | Life::ServerUnconfirmed { .. } | Life::Established
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every stage, with each value of its data that behaves differently.
    fn stages() -> Vec<Life> {
        use Life::*;
        vec![
            Handshake { client: true },
            Handshake { client: false },
            ClientUnconfirmed,
            ServerUnconfirmed { plain_streak: 0 },
            ServerUnconfirmed { plain_streak: 2 },
            Established,
            Fallback(None),
            Closed(AbortReason::AllPathsFailed),
        ]
    }

    fn inputs() -> Vec<Input> {
        use Input::*;
        vec![
            Synchronized { capable: true },
            Synchronized { capable: false },
            Segment { mptcp: true },
            Segment { mptcp: false },
            MptcpSeen,
            DataRto { live: 1 },
            DataRto { live: 2 },
            ChecksumFail { live: 1 },
            ChecksumFail { live: 2 },
            Unmapped { lone: true },
            Unmapped { lone: false },
            MpFail { live: 1 },
            MpFail { live: 2 },
            Abort(AbortReason::PeerFastClose),
            Close,
            DataFinAcked { both: false },
            DataFinAcked { both: true },
        ]
    }

    fn name(l: Life) -> String {
        match l {
            Life::Handshake { client: true } => "HS(c)".into(),
            Life::Handshake { client: false } => "HS(s)".into(),
            Life::ClientUnconfirmed => "UC(c)".into(),
            Life::ServerUnconfirmed { plain_streak } => format!("UC(s{plain_streak})"),
            Life::Established => "ES".into(),
            Life::Fallback(None) => "FB".into(),
            Life::Fallback(Some(c)) => format!("FB({})", c.name()),
            Life::Closed(r) => format!("CL({})", r.code()),
        }
    }

    fn act(a: Action) -> String {
        match a {
            Action::Confirm => "confirm".into(),
            Action::FallBack(_) => "fallback".into(),
            Action::Abort(r) => format!("abort({})", r.code()),
            Action::ResetSubflow => "reset".into(),
            Action::CloseSubflows { orphan: false } => "close".into(),
            Action::CloseSubflows { orphan: true } => "orphan".into(),
        }
    }

    /// The whole table: per stage, one cell per input in the order of
    /// `inputs()`, `-` where nothing changes, else the next stage and the
    /// action after a `!`.
    #[test]
    fn transition_table() {
        let want = "\
HS(c): UC(c) FB(option_stripped)!fallback - - - - - - - - - - - CL(2)!abort(2) - - -
HS(s): UC(s0) UC(s0) - - - - - - - - - - - CL(2)!abort(2) - - -
UC(c): - - - - ES!confirm FB(data_rto_unconfirmed)!fallback - FB(checksum_fail)!fallback UC(c)!reset FB(option_stripped)!fallback - FB(mp_fail)!fallback - CL(2)!abort(2) - UC(c)!close UC(c)!orphan
UC(s0): - - - UC(s1) ES!confirm - - FB(checksum_fail)!fallback UC(s0)!reset FB(option_stripped)!fallback - FB(mp_fail)!fallback - CL(2)!abort(2) - UC(s0)!close UC(s0)!orphan
UC(s2): - - UC(s0) FB(option_stripped)!fallback ES!confirm - - FB(checksum_fail)!fallback UC(s2)!reset FB(option_stripped)!fallback - FB(mp_fail)!fallback - CL(2)!abort(2) - UC(s2)!close UC(s2)!orphan
ES: - - - - - - - FB(checksum_fail)!fallback ES!reset FB(option_stripped)!fallback - FB(mp_fail)!fallback - CL(2)!abort(2) - ES!close ES!orphan
FB: - - - - - - - - - - - - - CL(2)!abort(2) FB!close - -
CL(0): - - - - - - - - - - - - - - - - -
";
        let mut got = String::new();
        for stage in stages() {
            let cells: Vec<String> = inputs()
                .into_iter()
                .map(|input| {
                    let mut next = stage;
                    match next.on(input) {
                        Some(a) => format!("{}!{}", name(next), act(a)),
                        None if next == stage => "-".into(),
                        None => name(next),
                    }
                })
                .collect();
            got += &format!("{}: {}\n", name(stage), cells.join(" "));
        }
        assert_eq!(got, want, "actual table:\n{got}");
    }

    #[test]
    fn running_is_negotiated_and_not_over() {
        for stage in stages() {
            let over = matches!(stage.state(), ConnState::Fallback | ConnState::Closed);
            let opening = stage.state() == ConnState::Handshake;
            assert_eq!(stage.running(), !over && !opening, "{stage:?}");
        }
    }
}
