//! Path-manager subsystem: which subflows to open, when, and why.
//!
//! The protocol machinery in [`crate::conn`] can open subflows, advertise
//! addresses and react to REMOVE_ADDR — but something has to *decide* to
//! do those things. The kernel MPTCP stack calls that component the path
//! manager: a per-connection policy engine driven by an endpoint registry
//! where each local address carries flags (`signal` = advertise via
//! ADD_ADDR, `subflow` = use for outgoing MP_JOINs, `backup` = open joins
//! with backup priority, `fullmesh` = pair against every learned remote
//! address) plus limits (how many extra subflows to create, how many
//! peer-advertised addresses to act on).
//!
//! The [`PathManager`] is a pure decision machine: the connection feeds it
//! [`PmEvent`]s (established, ADD_ADDR learned, REMOVE_ADDR received,
//! subflow failed) and executes the returned [`PmAction`]s (open subflow,
//! advertise, close, promote-backup). It holds no sockets and sends no
//! packets, so every policy is unit-testable without a connection.
//!
//! It owns both address-id spaces: the ids of our addresses (advertised
//! ones and the ones joins are opened from, drawn from one counter) and the
//! peer's, one entry per advertised id. So it is what decides whether an
//! ADD_ADDR is a repeat and whether a REMOVE_ADDR names anything.
//!
//! ADD_ADDR is advertised reliably: an advertisement is retransmitted on
//! a fixed interval until *echoed* — the peer demonstrates receipt by
//! joining toward the advertised address — or until the retry budget is
//! spent. The retransmit deadline surfaces through [`PathManager::poll_at`]
//! and is serviced by [`PathManager::tick`], following the same event-loop
//! contract as the rest of the stack.

use core::fmt;
use core::str::FromStr;
use std::collections::BTreeMap;

use mptcp_netsim::{Duration, SimTime};
use mptcp_packet::mptcp_opts::AdvertisedAddr;
use mptcp_packet::Endpoint;
use mptcp_telemetry::{EventKind, Recorder};

/// Kernel-PM-style per-endpoint flags.
///
/// Combine with `|`: `EndpointFlags::SUBFLOW | EndpointFlags::BACKUP`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EndpointFlags {
    /// Advertise this address to the peer via ADD_ADDR.
    pub signal: bool,
    /// Use this address as the local side of outgoing MP_JOINs.
    pub subflow: bool,
    /// Joins from this address carry backup priority (MP_JOIN B-flag).
    pub backup: bool,
    /// Pair this address against every learned remote address, not just
    /// its positional match (the fullmesh policy implies this for every
    /// subflow endpoint).
    pub fullmesh: bool,
}

impl EndpointFlags {
    /// No flags set.
    pub const NONE: EndpointFlags = EndpointFlags {
        signal: false,
        subflow: false,
        backup: false,
        fullmesh: false,
    };
    /// `signal` only.
    pub const SIGNAL: EndpointFlags = EndpointFlags {
        signal: true,
        ..EndpointFlags::NONE
    };
    /// `subflow` only.
    pub const SUBFLOW: EndpointFlags = EndpointFlags {
        subflow: true,
        ..EndpointFlags::NONE
    };
    /// `backup` only (meaningful combined with `subflow`).
    pub const BACKUP: EndpointFlags = EndpointFlags {
        backup: true,
        ..EndpointFlags::NONE
    };
    /// `fullmesh` only (meaningful combined with `subflow`).
    pub const FULLMESH: EndpointFlags = EndpointFlags {
        fullmesh: true,
        ..EndpointFlags::NONE
    };

    /// Render as `signal|subflow|backup|fullmesh` (or `-` when empty),
    /// the admin-plane display format.
    pub fn label(&self) -> String {
        let mut parts = Vec::new();
        if self.signal {
            parts.push("signal");
        }
        if self.subflow {
            parts.push("subflow");
        }
        if self.backup {
            parts.push("backup");
        }
        if self.fullmesh {
            parts.push("fullmesh");
        }
        if parts.is_empty() {
            "-".to_string()
        } else {
            parts.join("|")
        }
    }
}

impl std::ops::BitOr for EndpointFlags {
    type Output = EndpointFlags;

    fn bitor(self, rhs: EndpointFlags) -> EndpointFlags {
        EndpointFlags {
            signal: self.signal || rhs.signal,
            subflow: self.subflow || rhs.subflow,
            backup: self.backup || rhs.backup,
            fullmesh: self.fullmesh || rhs.fullmesh,
        }
    }
}

/// One entry in the local endpoint registry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PmEndpoint {
    /// Local address.
    pub addr: u32,
    /// Fixed local port for joins from this endpoint; `None` derives a
    /// unique port from the connection's primary port.
    pub port: Option<u16>,
    /// What this endpoint is for.
    pub flags: EndpointFlags,
}

impl PmEndpoint {
    /// An endpoint with a derived port.
    pub fn new(addr: u32, flags: EndpointFlags) -> PmEndpoint {
        PmEndpoint {
            addr,
            port: None,
            flags,
        }
    }

    /// Pin the local port for joins from this endpoint.
    pub fn with_port(mut self, port: u16) -> PmEndpoint {
        self.port = Some(port);
        self
    }
}

/// Validated path-manager limits, mirroring the kernel's per-namespace
/// `limits` (subflow count, add_addr_accepted) plus the ADD_ADDR
/// reliability schedule.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PmLimits {
    /// Maximum subflows the path manager will open (the connection's own
    /// `max_subflows` caps total subflows including the initial one).
    pub max_subflows: usize,
    /// Maximum peer-advertised addresses acted upon; further ADD_ADDRs
    /// are ignored by the policy.
    pub add_addr_accepted: usize,
    /// Retransmit interval for an ADD_ADDR that has not been echoed.
    pub add_addr_rtx: Duration,
    /// Retransmissions before an unechoed ADD_ADDR is abandoned.
    pub add_addr_rtx_max: u32,
}

impl Default for PmLimits {
    fn default() -> PmLimits {
        PmLimits {
            max_subflows: 8,
            add_addr_accepted: 8,
            add_addr_rtx: Duration::from_secs(1),
            add_addr_rtx_max: 3,
        }
    }
}

/// The registry of built-in path-manager policies.
///
/// Parses from and prints as the canonical lowercase names used by the
/// CLI (`repro <exp> --pm <name>`), the config builder and JSON reports:
/// `"default"`, `"fullmesh"`, `"backup"`, `"signal"`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum PmPolicy {
    /// Pair the k-th learned remote address with the k-th `subflow`
    /// endpoint (primary local address when none remain).
    #[default]
    Default,
    /// Pair every subflow endpoint (and the primary local address)
    /// against every remote address, learned or primary.
    Fullmesh,
    /// Like `Default`, but every path-manager join carries backup
    /// priority.
    BackupOnly,
    /// Advertise `signal` endpoints but never open outgoing joins.
    SignalOnly,
}

impl PmPolicy {
    /// All policies, in sweep order.
    pub const ALL: [PmPolicy; 4] = [
        PmPolicy::Default,
        PmPolicy::Fullmesh,
        PmPolicy::BackupOnly,
        PmPolicy::SignalOnly,
    ];

    /// Canonical lowercase name (CLI flag value and report key).
    pub fn name(self) -> &'static str {
        match self {
            PmPolicy::Default => "default",
            PmPolicy::Fullmesh => "fullmesh",
            PmPolicy::BackupOnly => "backup",
            PmPolicy::SignalOnly => "signal",
        }
    }
}

impl fmt::Display for PmPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for PmPolicy {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "default" => Ok(PmPolicy::Default),
            "fullmesh" | "full-mesh" | "mesh" => Ok(PmPolicy::Fullmesh),
            "backup" | "backup-only" | "backuponly" => Ok(PmPolicy::BackupOnly),
            "signal" | "signal-only" | "signalonly" => Ok(PmPolicy::SignalOnly),
            other => Err(format!(
                "unknown pm policy `{other}` \
                 (expected one of: default, fullmesh, backup, signal)"
            )),
        }
    }
}

/// Path-manager configuration carried inside
/// [`crate::MptcpConfig`] (`builder().path_manager(..)`).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PathManagerCfg {
    /// The pairing policy.
    pub policy: PmPolicy,
    /// Local endpoint registry.
    pub endpoints: Vec<PmEndpoint>,
    /// Subflow/advertisement limits.
    pub limits: PmLimits,
}

impl PathManagerCfg {
    /// A config with the given policy, no endpoints, default limits.
    pub fn new(policy: PmPolicy) -> PathManagerCfg {
        PathManagerCfg {
            policy,
            ..PathManagerCfg::default()
        }
    }

    /// Append an endpoint (builder style).
    pub fn endpoint(mut self, ep: PmEndpoint) -> PathManagerCfg {
        self.endpoints.push(ep);
        self
    }

    /// Replace the limits (builder style).
    pub fn limits(mut self, limits: PmLimits) -> PathManagerCfg {
        self.limits = limits;
        self
    }
}

/// A connection-level occurrence the path manager reacts to.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PmEvent {
    /// The MPTCP handshake completed; `local`/`remote` are the primary
    /// subflow's endpoints.
    Established { local: Endpoint, remote: Endpoint },
    /// The peer's ADD_ADDR, as received: a repeat of what its id already
    /// names is ignored, a new address under a known id replaces it.
    AddrAdvertised(AdvertisedAddr),
    /// The peer's REMOVE_ADDR of `addr_id`; `live` holds every live
    /// subflow as (index, the id it joined under, its remote address).
    AddrWithdrawn {
        addr_id: u8,
        live: Vec<(usize, u8, u32)>,
    },
    /// The failure detector declared a subflow Failed.
    SubflowFailed,
    /// A local address went away (interface down); `affected` are the
    /// live subflow indices bound to it.
    LocalAddrDown { addr: u32, affected: Vec<usize> },
    /// A local address came (back) up.
    LocalAddrUp { addr: u32 },
}

/// A typed decision for the connection to execute.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PmAction {
    /// Open an MP_JOIN subflow `local` -> `remote`.
    OpenSubflow {
        local: Endpoint,
        remote: Endpoint,
        backup: bool,
    },
    /// Send `advert`, the ADD_ADDR of a local address. Its id is the
    /// address's for good; every send after the first is a `retransmit`.
    Advertise {
        advert: AdvertisedAddr,
        retransmit: bool,
    },
    /// Close subflow `subflow` (address withdrawn under it).
    CloseSubflow { subflow: usize },
    /// Promote a backup: the connection clears the backup priority of the
    /// first usable backup subflow whose path has not failed, if any, and
    /// tells the peer via MP_PRIO.
    PromoteBackup,
}

/// Reliable-advertisement state for one signal endpoint.
#[derive(Clone, Copy, Debug)]
struct Advert {
    advert: AdvertisedAddr,
    /// The address is ours: one that went down keeps its entry, and so its
    /// id, for when it comes back.
    up: bool,
    echoed: bool,
    /// Next retransmit deadline; `None` once echoed, out of budget or down.
    rtx_at: Option<SimTime>,
    rtx_count: u32,
}

/// One address the peer advertised, under its id.
#[derive(Clone, Copy, Debug)]
struct Remote {
    advert: AdvertisedAddr,
    /// Acted on: within `add_addr_accepted`, and not an address accepted
    /// under another id already. The rest are only remembered, so that
    /// their repeats stay repeats and their REMOVE_ADDR names something.
    accepted: bool,
}

/// The per-connection path-manager state machine. See the module docs.
pub struct PathManager {
    cfg: PathManagerCfg,
    primary_local: Option<Endpoint>,
    primary_remote: Option<Endpoint>,
    /// The peer's addresses, by id.
    remotes: BTreeMap<u8, Remote>,
    /// Our advertised addresses, one per address.
    adverts: Vec<Advert>,
    /// The next id of ours, for an advertised address or a join (0 is the
    /// initial subflow's).
    next_id: u8,
    /// `(local addr, remote addr)` pairs already opened (dedup).
    opened_pairs: Vec<(u32, u32)>,
    /// OpenSubflow actions emitted so far, capped by
    /// `limits.max_subflows`.
    opened: usize,
    /// Learned remotes dropped by the `add_addr_accepted` cap.
    remotes_ignored: u64,
    /// Monotone counter deriving unique local join ports.
    join_seq: u16,
    established: bool,
}

impl PathManager {
    /// A path manager for one connection.
    pub fn new(cfg: PathManagerCfg) -> PathManager {
        PathManager {
            cfg,
            primary_local: None,
            primary_remote: None,
            remotes: BTreeMap::new(),
            adverts: Vec::new(),
            next_id: 1,
            opened_pairs: Vec::new(),
            opened: 0,
            remotes_ignored: 0,
            join_seq: 0,
            established: false,
        }
    }

    /// The configuration this manager runs.
    pub fn cfg(&self) -> &PathManagerCfg {
        &self.cfg
    }

    /// The active policy.
    pub fn policy(&self) -> PmPolicy {
        self.cfg.policy
    }

    /// Subflows opened by PM decisions so far.
    pub fn subflows_opened(&self) -> usize {
        self.opened
    }

    /// Learned remote addresses currently accepted.
    pub fn remotes_accepted(&self) -> usize {
        self.remotes.values().filter(|r| r.accepted).count()
    }

    /// Learned remote addresses dropped by the `add_addr_accepted` cap.
    pub fn remotes_ignored(&self) -> u64 {
        self.remotes_ignored
    }

    /// Advertisement states as `(addr, echoed, retransmits)` for the
    /// admin plane.
    pub fn advert_states(&self) -> Vec<(u32, bool, u32)> {
        let up = self.adverts.iter().filter(|a| a.up);
        up.map(|a| (a.advert.addr, a.echoed, a.rtx_count)).collect()
    }

    /// A fresh id for an address of ours: a join's local address, or one
    /// we advertise.
    pub fn mint_id(&mut self) -> u8 {
        self.next_id += 1;
        self.next_id - 1
    }

    /// The peer demonstrated receipt of our ADD_ADDR for `addr` (it
    /// joined toward that address): stop retransmitting.
    pub fn mark_echoed(&mut self, addr: u32) {
        for a in &mut self.adverts {
            if a.advert.addr == addr {
                a.echoed = true;
                a.rtx_at = None;
            }
        }
    }

    /// Earliest pending ADD_ADDR retransmit deadline.
    pub fn poll_at(&self) -> Option<SimTime> {
        self.adverts.iter().filter_map(|a| a.rtx_at).min()
    }

    /// Service elapsed retransmit deadlines; idempotent at a fixed `now`
    /// (a fired deadline re-arms strictly after `now`).
    pub fn tick(&mut self, now: SimTime) -> Vec<PmAction> {
        let mut actions = Vec::new();
        let limits = self.cfg.limits;
        for a in &mut self.adverts {
            let Some(at) = a.rtx_at else { continue };
            if at > now {
                continue;
            }
            if a.rtx_count >= limits.add_addr_rtx_max {
                a.rtx_at = None; // budget spent; give up
                continue;
            }
            a.rtx_count += 1;
            a.rtx_at = Some(now + limits.add_addr_rtx);
            let (advert, retransmit) = (a.advert, true);
            actions.push(PmAction::Advertise { advert, retransmit });
        }
        actions
    }

    /// Feed one connection event; returns the decisions to execute. What
    /// the peer's address signalling meant is noted in `rec`.
    pub fn on_event(&mut self, now: SimTime, ev: PmEvent, rec: &mut Recorder) -> Vec<PmAction> {
        match ev {
            PmEvent::Established { local, remote } => self.on_established(now, local, remote),
            PmEvent::AddrAdvertised(a) => self.on_addr_advertised(now, a, rec),
            PmEvent::AddrWithdrawn { addr_id, live } => {
                self.on_addr_withdrawn(now, addr_id, live, rec)
            }
            PmEvent::SubflowFailed => vec![PmAction::PromoteBackup],
            PmEvent::LocalAddrDown { addr, affected } => {
                // Stop advertising an address we no longer own.
                for a in self.adverts.iter_mut().filter(|a| a.advert.addr == addr) {
                    (a.up, a.rtx_at) = (false, None);
                }
                self.opened_pairs.retain(|&(l, _)| l != addr);
                let mut actions: Vec<PmAction> = affected
                    .into_iter()
                    .map(|subflow| PmAction::CloseSubflow { subflow })
                    .collect();
                // Migrate: what ran on the address moves to a backup.
                if !actions.is_empty() {
                    actions.push(PmAction::PromoteBackup);
                }
                actions
            }
            PmEvent::LocalAddrUp { addr } => {
                // Re-advertise a returning signal endpoint; joins from it
                // are left to the peer (it learns the address again).
                let ep = self
                    .cfg
                    .endpoints
                    .iter()
                    .find(|e| e.addr == addr && e.flags.signal)
                    .copied();
                match ep {
                    Some(e) if self.established => vec![self.start_advert(now, e.addr, e.port)],
                    _ => Vec::new(),
                }
            }
        }
    }

    fn on_established(&mut self, now: SimTime, local: Endpoint, remote: Endpoint) -> Vec<PmAction> {
        if self.established {
            return Vec::new();
        }
        self.established = true;
        self.primary_local = Some(local);
        self.primary_remote = Some(remote);
        self.opened_pairs.push((local.addr, remote.addr));
        let mut actions = Vec::new();
        let signals: Vec<PmEndpoint> = self
            .cfg
            .endpoints
            .iter()
            .filter(|e| e.flags.signal)
            .copied()
            .collect();
        for ep in signals {
            actions.push(self.start_advert(now, ep.addr, ep.port));
        }
        // Fullmesh starts pairing immediately: every mesh-local against
        // the primary remote. Other policies wait for learned remotes.
        if self.cfg.policy == PmPolicy::Fullmesh {
            actions.extend(self.mesh_against(remote));
        }
        actions
    }

    fn start_advert(&mut self, now: SimTime, addr: u32, port: Option<u16>) -> PmAction {
        let known = self.adverts.iter().position(|a| a.advert.addr == addr);
        let i = match known {
            Some(i) => i,
            None => {
                let addr_id = self.mint_id();
                self.adverts.push(Advert {
                    advert: AdvertisedAddr {
                        addr_id,
                        addr,
                        port,
                    },
                    up: true,
                    echoed: false,
                    rtx_at: None,
                    rtx_count: 0,
                });
                self.adverts.len() - 1
            }
        };
        let a = &mut self.adverts[i];
        (a.up, a.echoed, a.rtx_count) = (true, false, 0);
        a.rtx_at = Some(now + self.cfg.limits.add_addr_rtx);
        let (advert, retransmit) = (a.advert, known.is_some());
        PmAction::Advertise { advert, retransmit }
    }

    fn on_addr_advertised(
        &mut self,
        now: SimTime,
        advert: AdvertisedAddr,
        rec: &mut Recorder,
    ) -> Vec<PmAction> {
        if self.remotes.get(&advert.addr_id).map(|r| r.advert) == Some(advert) {
            return Vec::new(); // a repeat
        }
        // A new address under a known id replaces its entry.
        self.remotes.remove(&advert.addr_id);
        let (addr, id) = (advert.addr, u32::from(advert.addr_id));
        rec.note(now.0, EventKind::AddAddr { addr, id, sent: 0 });
        let known = self
            .remotes
            .values()
            .any(|r| r.accepted && r.advert.addr == addr);
        let full = !known && self.remotes_accepted() >= self.cfg.limits.add_addr_accepted;
        self.remotes_ignored += u64::from(full);
        let accepted = !known && !full;
        self.remotes
            .insert(advert.addr_id, Remote { advert, accepted });
        if !accepted || !self.established {
            return Vec::new();
        }
        let remote_port = advert
            .port
            .or(self.primary_remote.map(|r| r.port))
            .unwrap_or_default();
        let remote = Endpoint::new(addr, remote_port);
        match self.cfg.policy {
            PmPolicy::SignalOnly => Vec::new(),
            PmPolicy::Fullmesh => self.mesh_against(remote),
            PmPolicy::Default | PmPolicy::BackupOnly => {
                // Positional pairing: the k-th learned remote joins from
                // the k-th subflow endpoint, falling back to the primary
                // local address when the registry runs out.
                let k = self.remotes_accepted() - 1;
                let subflow_eps: Vec<PmEndpoint> = self
                    .cfg
                    .endpoints
                    .iter()
                    .filter(|e| e.flags.subflow)
                    .copied()
                    .collect();
                let (local_addr, port_hint, mut backup) = match subflow_eps.get(k) {
                    Some(e) => (e.addr, e.port, e.flags.backup),
                    None => match self.primary_local {
                        Some(p) => (p.addr, None, false),
                        None => return Vec::new(),
                    },
                };
                if self.cfg.policy == PmPolicy::BackupOnly {
                    backup = true;
                }
                self.open_pair(local_addr, port_hint, remote, backup)
                    .into_iter()
                    .collect()
            }
        }
    }

    fn on_addr_withdrawn(
        &mut self,
        now: SimTime,
        addr_id: u8,
        live: Vec<(usize, u8, u32)>,
        rec: &mut Recorder,
    ) -> Vec<PmAction> {
        let gone = self.remotes.remove(&addr_id).map(|r| r.advert.addr);
        let id = u32::from(addr_id);
        // A stray or forged REMOVE_ADDR of an id never learned must not
        // touch subflow state.
        if gone.is_none() && !live.iter().any(|&(_, joined, _)| joined == addr_id) {
            rec.note(now.0, EventKind::RemoveAddrUnknown { id });
            return Vec::new();
        }
        rec.note(now.0, EventKind::RemoveAddr { id, sent: 0 });
        // Subflows the peer opened under this id, and any we opened toward
        // the withdrawn address.
        let affected = live.into_iter().filter_map(|(subflow, joined, remote)| {
            (joined == addr_id || Some(remote) == gone)
                .then_some(PmAction::CloseSubflow { subflow })
        });
        affected.collect()
    }

    /// Fullmesh pairing: every mesh-local (subflow endpoints plus the
    /// primary local address) against `remote`.
    fn mesh_against(&mut self, remote: Endpoint) -> Vec<PmAction> {
        let mut locals: Vec<(u32, Option<u16>, bool)> = Vec::new();
        if let Some(p) = self.primary_local {
            locals.push((p.addr, None, false));
        }
        for e in &self.cfg.endpoints {
            if e.flags.subflow || e.flags.fullmesh {
                locals.push((e.addr, e.port, e.flags.backup));
            }
        }
        let mut actions = Vec::new();
        for (addr, port, backup) in locals {
            actions.extend(self.open_pair(addr, port, remote, backup));
        }
        actions
    }

    fn open_pair(
        &mut self,
        local_addr: u32,
        port_hint: Option<u16>,
        remote: Endpoint,
        backup: bool,
    ) -> Option<PmAction> {
        if self.opened_pairs.contains(&(local_addr, remote.addr)) {
            return None;
        }
        if self.opened >= self.cfg.limits.max_subflows {
            return None;
        }
        self.join_seq += 1;
        let port = port_hint.unwrap_or_else(|| {
            let base = self.primary_local.map(|p| p.port).unwrap_or(10_000);
            base.wrapping_add(self.join_seq.wrapping_mul(100)).max(1024)
        });
        self.opened_pairs.push((local_addr, remote.addr));
        self.opened += 1;
        Some(PmAction::OpenSubflow {
            local: Endpoint::new(local_addr, port),
            remote,
            backup,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const LOCAL: Endpoint = Endpoint {
        addr: 1,
        port: 10_000,
    };
    const REMOTE: Endpoint = Endpoint {
        addr: 100,
        port: 80,
    };

    fn on(pm: &mut PathManager, ev: PmEvent) -> Vec<PmAction> {
        pm.on_event(SimTime::ZERO, ev, &mut Recorder::new())
    }

    fn established(pm: &mut PathManager) -> Vec<PmAction> {
        let (local, remote) = (LOCAL, REMOTE);
        on(pm, PmEvent::Established { local, remote })
    }

    fn learned(pm: &mut PathManager, id: u8, addr: u32) -> Vec<PmAction> {
        let advert = AdvertisedAddr {
            addr_id: id,
            addr,
            port: Some(80),
        };
        on(pm, PmEvent::AddrAdvertised(advert))
    }

    fn opens(actions: &[PmAction]) -> usize {
        actions
            .iter()
            .filter(|a| matches!(a, PmAction::OpenSubflow { .. }))
            .count()
    }

    #[test]
    fn policy_registry_round_trips() {
        for p in PmPolicy::ALL {
            assert_eq!(p.name().parse::<PmPolicy>().unwrap(), p);
            assert_eq!(format!("{p}"), p.name());
        }
        assert_eq!("backup-only".parse::<PmPolicy>(), Ok(PmPolicy::BackupOnly));
        let err = "bogus".parse::<PmPolicy>().unwrap_err();
        assert!(err.contains("unknown pm policy `bogus`"), "{err}");
        assert!(err.contains("fullmesh"), "{err}");
    }

    #[test]
    fn default_policy_pairs_kth_remote_with_kth_endpoint() {
        let cfg = PathManagerCfg::new(PmPolicy::Default)
            .endpoint(PmEndpoint::new(2, EndpointFlags::SUBFLOW))
            .endpoint(PmEndpoint::new(
                3,
                EndpointFlags::SUBFLOW | EndpointFlags::BACKUP,
            ));
        let mut pm = PathManager::new(cfg);
        assert_eq!(opens(&established(&mut pm)), 0);
        let a1 = learned(&mut pm, 1, 101);
        match &a1[..] {
            [PmAction::OpenSubflow {
                local,
                remote,
                backup,
            }] => {
                assert_eq!(local.addr, 2);
                assert_eq!(remote.addr, 101);
                assert!(!backup);
            }
            other => panic!("unexpected actions: {other:?}"),
        }
        let a2 = learned(&mut pm, 2, 102);
        match &a2[..] {
            [PmAction::OpenSubflow { local, backup, .. }] => {
                assert_eq!(local.addr, 3);
                assert!(backup, "second endpoint is backup-flagged");
            }
            other => panic!("unexpected actions: {other:?}"),
        }
        // Endpoints exhausted: the third remote pairs from the primary.
        let a3 = learned(&mut pm, 3, 103);
        match &a3[..] {
            [PmAction::OpenSubflow { local, .. }] => assert_eq!(local.addr, LOCAL.addr),
            other => panic!("unexpected actions: {other:?}"),
        }
    }

    #[test]
    fn repeated_same_remote_address_is_ignored() {
        let mut pm = PathManager::new(PathManagerCfg::default());
        established(&mut pm);
        assert_eq!(opens(&learned(&mut pm, 1, 101)), 1);
        assert_eq!(opens(&learned(&mut pm, 1, 101)), 0);
        assert_eq!(pm.remotes_accepted(), 1);
    }

    #[test]
    fn add_addr_accepted_cap_drops_extra_remotes() {
        let cfg = PathManagerCfg::default().limits(PmLimits {
            add_addr_accepted: 1,
            ..PmLimits::default()
        });
        let mut pm = PathManager::new(cfg);
        established(&mut pm);
        assert_eq!(opens(&learned(&mut pm, 1, 101)), 1);
        assert_eq!(opens(&learned(&mut pm, 2, 102)), 0);
        assert_eq!(pm.remotes_accepted(), 1);
        assert_eq!(pm.remotes_ignored(), 1);
    }

    #[test]
    fn max_subflows_cap_bounds_pm_joins() {
        let cfg = PathManagerCfg::new(PmPolicy::Fullmesh)
            .endpoint(PmEndpoint::new(2, EndpointFlags::SUBFLOW))
            .endpoint(PmEndpoint::new(3, EndpointFlags::SUBFLOW))
            .limits(PmLimits {
                max_subflows: 2,
                ..PmLimits::default()
            });
        let mut pm = PathManager::new(cfg);
        let mut total = opens(&established(&mut pm));
        total += opens(&learned(&mut pm, 1, 101));
        total += opens(&learned(&mut pm, 2, 102));
        assert_eq!(total, 2, "cap of 2 PM joins");
        assert_eq!(pm.subflows_opened(), 2);
    }

    #[test]
    fn fullmesh_three_by_two_opens_five_joins() {
        // 3 locals (primary + 2 endpoints) x 2 remotes (primary + 1
        // learned) = 6 pairs; the primary pair already exists.
        let cfg = PathManagerCfg::new(PmPolicy::Fullmesh)
            .endpoint(PmEndpoint::new(2, EndpointFlags::SUBFLOW))
            .endpoint(PmEndpoint::new(3, EndpointFlags::SUBFLOW));
        let mut pm = PathManager::new(cfg);
        let on_est = established(&mut pm);
        assert_eq!(opens(&on_est), 2, "mesh against the primary remote");
        let on_learn = learned(&mut pm, 1, 101);
        assert_eq!(opens(&on_learn), 3, "every local against the new remote");
        assert_eq!(pm.subflows_opened(), 5);
        // Distinct derived local ports across all joins.
        let mut ports: Vec<u16> = on_est
            .iter()
            .chain(on_learn.iter())
            .filter_map(|a| match a {
                PmAction::OpenSubflow { local, .. } => Some(local.port),
                _ => None,
            })
            .collect();
        ports.sort_unstable();
        ports.dedup();
        assert_eq!(ports.len(), 5);
    }

    #[test]
    fn signal_only_never_joins() {
        let cfg = PathManagerCfg::new(PmPolicy::SignalOnly)
            .endpoint(PmEndpoint::new(2, EndpointFlags::SIGNAL));
        let mut pm = PathManager::new(cfg);
        let a = established(&mut pm);
        assert_eq!(opens(&a), 0);
        assert!(matches!(
            a[..],
            [PmAction::Advertise {
                advert: AdvertisedAddr { addr: 2, .. },
                ..
            }]
        ));
        assert_eq!(opens(&learned(&mut pm, 1, 101)), 0);
    }

    #[test]
    fn backup_only_marks_every_join_backup() {
        let cfg = PathManagerCfg::new(PmPolicy::BackupOnly)
            .endpoint(PmEndpoint::new(2, EndpointFlags::SUBFLOW));
        let mut pm = PathManager::new(cfg);
        established(&mut pm);
        match &learned(&mut pm, 1, 101)[..] {
            [PmAction::OpenSubflow { backup, .. }] => assert!(backup),
            other => panic!("unexpected actions: {other:?}"),
        }
    }

    #[test]
    fn add_addr_retransmits_until_echoed() {
        let cfg = PathManagerCfg::default()
            .endpoint(PmEndpoint::new(2, EndpointFlags::SIGNAL))
            .limits(PmLimits {
                add_addr_rtx: Duration::from_secs(1),
                add_addr_rtx_max: 2,
                ..PmLimits::default()
            });
        let mut pm = PathManager::new(cfg);
        let a = established(&mut pm);
        assert!(matches!(
            a[..],
            [PmAction::Advertise {
                advert: AdvertisedAddr { addr: 2, .. },
                ..
            }]
        ));
        let t1 = SimTime::ZERO + Duration::from_secs(1);
        assert_eq!(pm.poll_at(), Some(t1));
        // Before the deadline: nothing fires.
        assert!(pm
            .tick(SimTime::ZERO + Duration::from_millis(500))
            .is_empty());
        // First retransmit, re-armed relative to the tick's now.
        let r1 = pm.tick(t1);
        assert!(matches!(
            r1[..],
            [PmAction::Advertise {
                advert: AdvertisedAddr { addr: 2, .. },
                ..
            }]
        ));
        assert!(
            pm.tick(t1).is_empty(),
            "ticks are idempotent at a fixed now"
        );
        let t2 = t1 + Duration::from_secs(1);
        assert_eq!(pm.poll_at(), Some(t2));
        // Second (and last budgeted) retransmit.
        assert_eq!(pm.tick(t2).len(), 1);
        // Budget spent: the third deadline expires without an action and
        // clears the timer.
        let t3 = t2 + Duration::from_secs(1);
        assert!(pm.tick(t3).is_empty());
        assert_eq!(pm.poll_at(), None);
        assert_eq!(pm.advert_states(), vec![(2, false, 2)]);
    }

    #[test]
    fn echo_stops_retransmission() {
        let cfg = PathManagerCfg::default().endpoint(PmEndpoint::new(2, EndpointFlags::SIGNAL));
        let mut pm = PathManager::new(cfg);
        established(&mut pm);
        pm.mark_echoed(2);
        assert_eq!(pm.poll_at(), None);
        assert!(pm.tick(SimTime::ZERO + Duration::from_secs(10)).is_empty());
        assert_eq!(pm.advert_states(), vec![(2, true, 0)]);
    }

    #[test]
    fn withdrawn_remote_closes_affected_subflows() {
        let mut pm = PathManager::new(PathManagerCfg::default());
        established(&mut pm);
        learned(&mut pm, 1, 101);
        // Subflow 1 joined under the id, subflow 2 toward the address.
        let live = vec![(0, 0, REMOTE.addr), (1, 1, 7), (2, 5, 101)];
        let a = on(&mut pm, PmEvent::AddrWithdrawn { addr_id: 1, live });
        assert_eq!(
            a,
            vec![
                PmAction::CloseSubflow { subflow: 1 },
                PmAction::CloseSubflow { subflow: 2 }
            ]
        );
        assert_eq!(pm.remotes_accepted(), 0);
    }

    #[test]
    fn subflow_failure_promotes_first_backup() {
        let mut pm = PathManager::new(PathManagerCfg::default());
        established(&mut pm);
        // Which backup, if any, is the connection's to resolve.
        let a = on(&mut pm, PmEvent::SubflowFailed);
        assert_eq!(a, vec![PmAction::PromoteBackup]);
    }

    #[test]
    fn local_addr_down_closes_and_promotes() {
        let cfg = PathManagerCfg::default().endpoint(PmEndpoint::new(2, EndpointFlags::SIGNAL));
        let mut pm = PathManager::new(cfg);
        established(&mut pm);
        let down = PmEvent::LocalAddrDown {
            addr: 2,
            affected: vec![0],
        };
        let a = on(&mut pm, down);
        assert_eq!(
            a,
            vec![
                PmAction::CloseSubflow { subflow: 0 },
                PmAction::PromoteBackup
            ]
        );
        // The advert for the dead address is dropped...
        assert!(pm.advert_states().is_empty());
        // ...and restarts when the address returns.
        let up = on(&mut pm, PmEvent::LocalAddrUp { addr: 2 });
        assert!(matches!(
            up[..],
            [PmAction::Advertise {
                advert: AdvertisedAddr { addr: 2, .. },
                ..
            }]
        ));
        assert_eq!(pm.advert_states(), vec![(2, false, 0)]);
    }

    #[test]
    fn an_advertised_address_keeps_its_id_through_down_and_up() {
        let cfg = PathManagerCfg::default()
            .endpoint(PmEndpoint::new(2, EndpointFlags::SIGNAL))
            .endpoint(PmEndpoint::new(3, EndpointFlags::SIGNAL));
        let mut pm = PathManager::new(cfg);
        let first = established(&mut pm);
        assert_eq!(pm.mint_id(), 3, "joins draw ids from the same counter");
        let down = PmEvent::LocalAddrDown {
            addr: 2,
            affected: vec![],
        };
        assert!(on(&mut pm, down).is_empty(), "nothing ran on it");
        let up = on(&mut pm, PmEvent::LocalAddrUp { addr: 2 });
        let advert = AdvertisedAddr {
            addr_id: 1,
            addr: 2,
            port: None,
        };
        let retransmit = false;
        assert_eq!(first[0], PmAction::Advertise { advert, retransmit });
        let retransmit = true;
        assert_eq!(up, vec![PmAction::Advertise { advert, retransmit }]);
        assert_eq!(pm.advert_states(), vec![(2, false, 0), (3, false, 0)]);
    }

    #[test]
    fn flags_compose_and_label() {
        let f = EndpointFlags::SUBFLOW | EndpointFlags::BACKUP;
        assert!(f.subflow && f.backup && !f.signal);
        assert_eq!(f.label(), "subflow|backup");
        assert_eq!(EndpointFlags::NONE.label(), "-");
    }
}
