//! Golden over the `(cwnd, ssthresh)` trajectory of every congestion
//! controller.
//!
//! For each of [`CcAlgorithm::ALL`], two controllers — a 10 ms path and a
//! 100 ms path of one connection — are walked through the same script:
//! slow start, congestion avoidance under ACKs of uneven size, fast
//! retransmit and recovery exit, a second loss below the old plateau, a
//! retransmission timeout, and the forced `set_cwnd` / `set_ssthresh`
//! moves mechanisms 2 and 4 make, floors included. Once with the pair
//! left uncoupled and once with a [`CoupledState`] recomputed every
//! eight ACKs and its signals pushed down. `(cwnd, ssthresh)` of both
//! controllers is folded into FNV-1a after every step.
//!
//! Only `CcAlgorithm::build` and the method names every controller
//! answers to are used, so the file does not care how the controllers
//! are represented.

use mptcp_netsim::{Duration, SimRng, SimTime};
use mptcp_tcpstack::{CcAlgorithm, CoupledState, FlowView};

const MSS: u32 = 1460;
const RTTS_MS: [u64; 2] = [10, 100];

struct Fold {
    hash: u64,
    steps: u64,
}

impl Fold {
    fn new() -> Fold {
        Fold {
            hash: 0xcbf2_9ce4_8422_2325,
            steps: 0,
        }
    }

    fn word(&mut self, w: u32) {
        for b in w.to_le_bytes() {
            self.hash = (self.hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// Walk the script; returns `(steps, digest, final cwnds)`.
fn trajectory(algo: CcAlgorithm, coupled: bool) -> (u64, u64, [u32; 2]) {
    let mut cc = [algo.build(MSS, 10), algo.build(MSS, 10)];
    let mut state = CoupledState::new(algo);
    let mut rng = SimRng::new(0xcc + algo as u64);
    let mut fold = Fold::new();
    let mut now = SimTime::ZERO;
    let mut acks = 0u64;

    // Fold both windows; every step of the script ends here.
    macro_rules! step {
        () => {{
            for c in &cc {
                fold.word(c.cwnd());
                fold.word(c.ssthresh());
            }
            fold.steps += 1;
        }};
    }
    // `n` rounds of one ACK per controller, `gap_us` apart.
    macro_rules! acks {
        ($n:expr, $gap_us:expr) => {{
            for _ in 0..$n {
                now += Duration::from_micros($gap_us);
                for (i, c) in cc.iter_mut().enumerate() {
                    let bytes = match rng.range(0, 4) {
                        0 => rng.range(1, u64::from(MSS)) as u32,
                        1 => 2 * MSS,
                        _ => MSS,
                    };
                    let rtt = rng
                        .chance(0.7)
                        .then(|| Duration::from_millis(RTTS_MS[i] + rng.range(0, 5)));
                    c.on_ack(now, bytes, rtt);
                }
                acks += 1;
                if coupled && acks % 8 == 0 {
                    let flows = [0, 1].map(|i| FlowView {
                        cwnd: cc[i].cwnd(),
                        srtt: Duration::from_millis(RTTS_MS[i]),
                    });
                    for (c, &sig) in cc.iter_mut().zip(state.recompute(&flows)) {
                        c.set_coupled(sig);
                    }
                }
                step!();
            }
        }};
    }

    step!();
    // Slow start from the initial window.
    acks!(40, 500);
    // Leave slow start the way mechanism 2 does: halve both.
    for c in &mut cc {
        let before = c.cwnd();
        c.set_ssthresh(before / 2);
        c.set_cwnd(before / 2);
    }
    step!();
    acks!(400, 700);
    // Loss on the fast path: fast retransmit, ACKs during recovery are
    // not fed to the controller, then the full ACK.
    let flight = cc[0].cwnd();
    cc[0].on_fast_retransmit(now, flight);
    step!();
    cc[0].on_recovery_exit();
    step!();
    acks!(300, 2_000);
    // A second loss before the old plateau is regained, on both.
    for c in &mut cc {
        let flight = c.cwnd() - 3 * MSS;
        c.on_fast_retransmit(now, flight);
    }
    step!();
    for c in &mut cc {
        c.on_recovery_exit();
    }
    step!();
    acks!(300, 5_000);
    // Timeout on the slow path, then slow start back up to ssthresh
    // and on into congestion avoidance.
    let flight = cc[1].cwnd();
    cc[1].on_retransmit_timeout(now, flight);
    step!();
    acks!(200, 1_000);
    // Timeout with almost nothing in flight: the ssthresh floor.
    cc[0].on_retransmit_timeout(now, 100);
    step!();
    acks!(60, 1_000);
    // Forced moves and their floors.
    for c in &mut cc {
        c.set_cwnd(0);
        c.set_ssthresh(0);
    }
    step!();
    acks!(30, 1_000);
    cc[0].set_cwnd(200 * MSS);
    cc[1].set_ssthresh(3 * MSS);
    step!();
    // A long stretch of congestion avoidance from very unequal windows:
    // OLIA's signed term moves window from one to the other here.
    acks!(600, 3_000);
    // Fast retransmit with a flight far below the window.
    cc[0].on_fast_retransmit(now, 4 * MSS);
    step!();
    cc[0].on_recovery_exit();
    step!();
    acks!(100, 10_000);

    (fold.steps, fold.hash, [cc[0].cwnd(), cc[1].cwnd()])
}

#[test]
fn every_controller_walks_its_pinned_trajectory() {
    const STEPS: u64 = 2042;
    use CcAlgorithm::{CoupledCubic as Cubic, Lia, Olia, Reno};
    let pinned: [(CcAlgorithm, bool, u64, [u32; 2]); 8] = [
        (Reno, false, 4032604372099862251, [29200, 60958]),
        (Reno, true, 4032604372099862251, [29200, 60958]),
        (Lia, false, 14996094301194215293, [18824, 57458]),
        (Lia, true, 1706625147443571992, [18050, 27582]),
        (Olia, false, 1456497316454758090, [22373, 59642]),
        (Olia, true, 3230622480884902117, [28812, 5426]),
        (Cubic, false, 44459055216495629, [73102, 37302]),
        (Cubic, true, 13599083308414541355, [18458, 34376]),
    ];
    let actual = pinned.map(|(algo, coupled, ..)| {
        let (steps, digest, cwnds) = trajectory(algo, coupled);
        assert_eq!(steps, STEPS, "{algo} took a different number of steps");
        (algo, coupled, digest, cwnds)
    });
    if actual != pinned {
        for (algo, coupled, digest, cwnds) in &actual {
            eprintln!("        ({algo:?}, {coupled}, {digest}, {cwnds:?}),");
        }
        panic!("a congestion-control trajectory moved; actual rows above");
    }
}

#[test]
fn uncoupled_reno_ignores_the_coupling_signals() {
    // Reno's `CoupledState` hands out neutral signals and Reno has no
    // use for any: the two runs are the same run.
    assert_eq!(
        trajectory(CcAlgorithm::Reno, false),
        trajectory(CcAlgorithm::Reno, true)
    );
}
