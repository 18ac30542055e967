//! Option-stripping and option-hostile middleboxes.
//!
//! The study found 6% of paths remove new options from SYNs (14% on port
//! 80), and that a path which passes options on the SYN passes them on data
//! too — but MPTCP must survive the pathological cases anyway: options
//! stripped only from the SYN/ACK (client thinks MPTCP is off, server
//! thinks it's on) and options stripped mid-connection after a routing
//! change (§3.3.6 fallback).

use mptcp_netsim::{Dir, MbVerdict, Middlebox, SimRng, SimTime};
use mptcp_packet::{options::kind, TcpOption, TcpSegment};
use mptcp_telemetry::{CounterId, Recorder};

/// Which segments an [`OptionStripper`] mangles.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StripMode {
    /// Strip only from SYN segments (the common proxy behaviour): MPTCP is
    /// simply never negotiated.
    SynOnly,
    /// Strip only from non-SYN segments: negotiation succeeds but data
    /// signalling vanishes — the nasty §3.3.6 fallback case.
    DataOnly,
    /// Strip from everything.
    All,
    /// Strip only from SYN/ACKs: creates the client/server disagreement
    /// §3.1 worries about.
    SynAckOnly,
}

/// Removes a configured TCP option kind from segments.
pub struct OptionStripper {
    mode: StripMode,
    kinds: Vec<u8>,
    /// Options removed so far.
    pub stripped: u64,
}

impl OptionStripper {
    /// Strip options of the given kinds.
    pub fn new(mode: StripMode, kinds: Vec<u8>) -> OptionStripper {
        OptionStripper {
            mode,
            kinds,
            stripped: 0,
        }
    }

    /// Strip MPTCP (kind 30) options.
    pub fn mptcp(mode: StripMode) -> OptionStripper {
        OptionStripper::new(mode, vec![kind::MPTCP])
    }

    fn applies(&self, seg: &TcpSegment) -> bool {
        match self.mode {
            StripMode::SynOnly => seg.flags.syn,
            StripMode::DataOnly => !seg.flags.syn,
            StripMode::All => true,
            StripMode::SynAckOnly => seg.flags.syn && seg.flags.ack,
        }
    }
}

fn option_kind(o: &TcpOption) -> u8 {
    match o {
        TcpOption::Mss(_) => kind::MSS,
        TcpOption::WindowScale(_) => kind::WSCALE,
        TcpOption::SackPermitted => kind::SACK_PERMITTED,
        TcpOption::Sack(_) => kind::SACK,
        TcpOption::Timestamps { .. } => kind::TIMESTAMPS,
        TcpOption::Mptcp(_) => kind::MPTCP,
        TcpOption::Unknown { kind, .. } => *kind,
    }
}

impl Middlebox for OptionStripper {
    fn process(
        &mut self,
        _now: SimTime,
        _dir: Dir,
        mut seg: TcpSegment,
        _rng: &mut SimRng,
    ) -> MbVerdict {
        if self.applies(&seg) {
            let before = seg.options.len();
            seg.options
                .retain(|o| !self.kinds.contains(&option_kind(o)));
            self.stripped += (before - seg.options.len()) as u64;
        }
        MbVerdict::pass(seg)
    }

    fn name(&self) -> &'static str {
        "option-stripper"
    }

    fn record_telemetry(&self, rec: &mut Recorder) {
        rec.count_n(CounterId::MboxOptionStrips, self.stripped);
    }
}

/// Silently drops SYNs that carry one of the configured option kinds —
/// models the handful of hosts/paths that choke on unknown SYN options
/// (15 of the Alexa top 10,000 in \[3\]).
pub struct SynDropper {
    kinds: Vec<u8>,
    /// SYNs swallowed.
    pub dropped: u64,
}

impl SynDropper {
    /// Drop SYNs carrying any of `kinds`.
    pub fn new(kinds: Vec<u8>) -> SynDropper {
        SynDropper { kinds, dropped: 0 }
    }

    /// Drop SYNs carrying MPTCP options.
    pub fn mptcp() -> SynDropper {
        SynDropper::new(vec![kind::MPTCP])
    }
}

impl Middlebox for SynDropper {
    fn process(
        &mut self,
        _now: SimTime,
        _dir: Dir,
        seg: TcpSegment,
        _rng: &mut SimRng,
    ) -> MbVerdict {
        if seg.flags.syn
            && seg
                .options
                .iter()
                .any(|o| self.kinds.contains(&option_kind(o)))
        {
            self.dropped += 1;
            return MbVerdict::drop();
        }
        MbVerdict::pass(seg)
    }

    fn name(&self) -> &'static str {
        "syn-dropper"
    }

    fn record_telemetry(&self, rec: &mut Recorder) {
        rec.count_n(CounterId::MboxSegmentDrops, self.dropped);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{data_seg, syn_seg};
    use mptcp_packet::MptcpOption;

    fn mp_opt() -> TcpOption {
        TcpOption::Mptcp(MptcpOption::MpCapable {
            version: 0,
            checksum_required: true,
            sender_key: 1,
            receiver_key: None,
        })
    }

    #[test]
    fn syn_only_spares_data() {
        let mut mb = OptionStripper::mptcp(StripMode::SynOnly);
        let mut rng = SimRng::new(1);
        let mut syn = syn_seg(1);
        syn.options.push(TcpOption::Mss(1460));
        syn.options.push(mp_opt());
        let v = mb.process(SimTime::ZERO, Dir::Fwd, syn, &mut rng);
        assert!(v.forward[0].mptcp_option().is_none());
        // MSS survives: only the configured kind is stripped.
        assert!(v.forward[0].options.contains(&TcpOption::Mss(1460)));

        let mut data = data_seg(100, b"x");
        data.options.push(mp_opt());
        let v = mb.process(SimTime::ZERO, Dir::Fwd, data, &mut rng);
        assert!(v.forward[0].mptcp_option().is_some());
        assert_eq!(mb.stripped, 1);
    }

    #[test]
    fn data_only_spares_syn() {
        let mut mb = OptionStripper::mptcp(StripMode::DataOnly);
        let mut rng = SimRng::new(1);
        let mut syn = syn_seg(1);
        syn.options.push(mp_opt());
        let v = mb.process(SimTime::ZERO, Dir::Fwd, syn, &mut rng);
        assert!(v.forward[0].mptcp_option().is_some());
        let mut data = data_seg(2, b"y");
        data.options.push(mp_opt());
        let v = mb.process(SimTime::ZERO, Dir::Fwd, data, &mut rng);
        assert!(v.forward[0].mptcp_option().is_none());
    }

    #[test]
    fn synack_only_hits_second_handshake_packet() {
        let mut mb = OptionStripper::mptcp(StripMode::SynAckOnly);
        let mut rng = SimRng::new(1);
        let mut syn = syn_seg(1);
        syn.options.push(mp_opt());
        let v = mb.process(SimTime::ZERO, Dir::Fwd, syn, &mut rng);
        assert!(v.forward[0].mptcp_option().is_some());
        let mut synack = syn_seg(9);
        synack.flags.ack = true;
        synack.options.push(mp_opt());
        let v = mb.process(SimTime::ZERO, Dir::Rev, synack, &mut rng);
        assert!(v.forward[0].mptcp_option().is_none());
    }

    #[test]
    fn syn_dropper_swallows_option_syns() {
        let mut mb = SynDropper::mptcp();
        let mut rng = SimRng::new(1);
        let mut syn = syn_seg(1);
        syn.options.push(mp_opt());
        let v = mb.process(SimTime::ZERO, Dir::Fwd, syn, &mut rng);
        assert!(v.forward.is_empty());
        assert_eq!(mb.dropped, 1);
        // A plain SYN passes.
        let v = mb.process(SimTime::ZERO, Dir::Fwd, syn_seg(1), &mut rng);
        assert_eq!(v.forward.len(), 1);
    }
}
