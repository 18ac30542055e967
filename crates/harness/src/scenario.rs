//! Scenario assembly: hosts, addresses, paths, routes.
//!
//! All experiments use the same address plan: a client with up to three
//! interfaces talking to a server with up to three interfaces, one
//! [`mptcp_netsim::Path`] per interface pair. Link-bonding baselines route
//! one address pair over several parallel paths (per-packet round-robin,
//! like the Linux bonding driver in Figure 11).

use mptcp::{EndpointFlags, Mechanisms, MptcpConfig, PathManagerCfg, PmEndpoint, PmPolicy};
use mptcp_netsim::{Dir, Path, Sim, SimRng, SimTime};
use mptcp_packet::Endpoint;
use mptcp_tcpstack::TcpConfig;

use crate::hosts::{ClientApp, ClientHost, ConnFactory, Node, ServerApp, ServerHost};

/// The fixed address plan.
pub struct Endpoints;

impl Endpoints {
    /// Client interface addresses.
    pub const CLIENT: [u32; 3] = [0x0a00_0001, 0x0a00_0002, 0x0a00_0003];
    /// Server interface addresses.
    pub const SERVER: [u32; 3] = [0x0a00_0065, 0x0a00_0066, 0x0a00_0067];
    /// Server port.
    pub const PORT: u16 = 80;
}

/// Which transport the client uses.
#[derive(Clone)]
pub enum TransportKind {
    /// Multipath TCP with the given configuration; one subflow per path.
    Mptcp(MptcpConfig),
    /// Plain TCP over the first path only.
    Tcp(TcpConfig),
    /// Plain TCP with every path bonded under the first address pair
    /// (per-packet round-robin).
    BondedTcp(TcpConfig),
}

/// A built scenario: the simulation plus host handles.
pub struct Scenario {
    /// The simulator.
    pub sim: Sim<Node>,
    /// Client host ids (one for simple scenarios, many for Figure 11).
    pub clients: Vec<usize>,
    /// Server host id.
    pub server: usize,
}

impl Scenario {
    /// Build a scenario with one client, one server, and one path per
    /// entry of `paths` (path *i* connects client interface *i* to server
    /// interface *i*).
    ///
    /// netsim delivers by address, so there is exactly one client here;
    /// [`Scenario::http_fleet`] gives each of many clients its own
    /// addresses.
    pub fn new(
        kind: TransportKind,
        app: ClientApp,
        server_app: ServerApp,
        paths: Vec<Path>,
        seed: u64,
    ) -> Scenario {
        let npaths = paths.len();
        assert!((1..=3).contains(&npaths), "1..=3 paths supported");
        let mut sim: Sim<Node> = Sim::new(seed);

        // Server first. For MPTCP the server advertises its extra
        // interfaces (SIGNAL endpoints); the client's path manager pairs
        // them against its own SUBFLOW endpoints and opens the joins —
        // the kernel-PM flow, replacing hand-rolled host-side joins.
        let signal = Endpoints::SERVER[1..npaths].iter();
        let signal =
            signal.map(|a| PmEndpoint::new(*a, EndpointFlags::SIGNAL).with_port(Endpoints::PORT));
        let server = sim.add_host(Node::Server(ServerHost::new(
            server_cfg(&kind, signal.collect()),
            server_app,
            seed ^ 0x5e4,
        )));
        for addr in &Endpoints::SERVER[..npaths] {
            sim.bind_addr(*addr, server);
        }

        // Paths and routes.
        let bonded = matches!(kind, TransportKind::BondedTcp(_));
        for (i, path) in paths.into_iter().enumerate() {
            let pid = sim.add_path(path);
            if bonded {
                // Everything rides the first address pair, striped.
                sim.add_route(Endpoints::CLIENT[0], Endpoints::SERVER[0], pid, Dir::Fwd);
                sim.add_route(Endpoints::SERVER[0], Endpoints::CLIENT[0], pid, Dir::Rev);
            } else {
                sim.add_route(Endpoints::CLIENT[i], Endpoints::SERVER[i], pid, Dir::Fwd);
                sim.add_route(Endpoints::SERVER[i], Endpoints::CLIENT[i], pid, Dir::Rev);
            }
        }

        // Clients. A caller-specified endpoint registry wins (e.g. the
        // handover scenario marks its cellular interface SUBFLOW|BACKUP);
        // otherwise each extra interface becomes a plain SUBFLOW endpoint.
        let subflow = Endpoints::CLIENT[1..npaths].iter();
        let subflow = subflow.map(|a| PmEndpoint::new(*a, EndpointFlags::SUBFLOW));
        let kind = match kind {
            TransportKind::Mptcp(c) if !c.path_manager().endpoints.is_empty() => {
                TransportKind::Mptcp(c)
            }
            kind => client_kind(&kind, subflow.collect()),
        };
        let factory = ConnFactory {
            kind,
            local: Endpoint::new(Endpoints::CLIENT[0], 10_000),
            server: Endpoint::new(Endpoints::SERVER[0], Endpoints::PORT),
            rng: SimRng::new(seed ^ 0xc11e).fork(),
        };
        let client = sim.add_host(Node::Client(ClientHost::new(factory, app, SimTime::ZERO)));
        for addr in &Endpoints::CLIENT[..npaths] {
            sim.bind_addr(*addr, client);
        }

        Scenario {
            sim,
            clients: vec![client],
            server,
        }
    }

    /// Figure 11 topology: `n` clients, each with its own address (and a
    /// second address when MPTCP), all talking to one server over shared
    /// path capacity. To keep the simulation faithful yet tractable, each
    /// client pair gets its own [`Path`] built by `mk_path`, mirroring
    /// apachebench clients sharing two gigabit links via switch ports.
    pub fn http_fleet(
        kind: TransportKind,
        n: usize,
        file_size: usize,
        mk_path: impl Fn() -> Path,
        seed: u64,
    ) -> Scenario {
        let mut sim: Sim<Node> = Sim::new(seed);
        let signal = PmEndpoint::new(Endpoints::SERVER[1], EndpointFlags::SIGNAL);
        let server_cfg = server_cfg(&kind, vec![signal.with_port(Endpoints::PORT)]);
        let server = sim.add_host(Node::Server(ServerHost::new(
            server_cfg,
            ServerApp::HttpResponder { file_size },
            seed ^ 0x5e4,
        )));
        sim.bind_addr(Endpoints::SERVER[0], server);
        sim.bind_addr(Endpoints::SERVER[1], server);

        let mut clients = Vec::new();
        let mut seeder = SimRng::new(seed ^ 0xc11e);
        for k in 0..n {
            let a1 = 0x0b00_0000 + (k as u32) * 2;
            let a2 = a1 + 1;
            // Path 1: a1 <-> server0; Path 2: a2 <-> server1.
            let p1 = sim.add_path(mk_path());
            let p2 = sim.add_path(mk_path());
            match kind {
                TransportKind::BondedTcp(_) => {
                    sim.add_route(a1, Endpoints::SERVER[0], p1, Dir::Fwd);
                    sim.add_route(Endpoints::SERVER[0], a1, p1, Dir::Rev);
                    sim.add_route(a1, Endpoints::SERVER[0], p2, Dir::Fwd);
                    sim.add_route(Endpoints::SERVER[0], a1, p2, Dir::Rev);
                }
                _ => {
                    sim.add_route(a1, Endpoints::SERVER[0], p1, Dir::Fwd);
                    sim.add_route(Endpoints::SERVER[0], a1, p1, Dir::Rev);
                    sim.add_route(a2, Endpoints::SERVER[1], p2, Dir::Fwd);
                    sim.add_route(Endpoints::SERVER[1], a2, p2, Dir::Rev);
                }
            }
            let factory = ConnFactory {
                kind: client_kind(&kind, vec![PmEndpoint::new(a2, EndpointFlags::SUBFLOW)]),
                local: Endpoint::new(a1, 10_000),
                server: Endpoint::new(Endpoints::SERVER[0], Endpoints::PORT),
                rng: seeder.fork(),
            };
            let id = sim.add_host(Node::Client(ClientHost::new(
                factory,
                ClientApp::HttpLoop {
                    requested: false,
                    completed: 0,
                },
                SimTime::ZERO,
            )));
            sim.bind_addr(a1, id);
            sim.bind_addr(a2, id);
            clients.push(id);
        }
        Scenario {
            sim,
            clients,
            server,
        }
    }

    /// N×M full-mesh topology: the client owns `n_local` interfaces, the
    /// server `n_remote`, with a dedicated [`Path`] routing every
    /// interface pair. The client runs the fullmesh path-manager policy,
    /// so 3×2 establishes all six subflows (primary + five joins) — the
    /// structural stress test for PM-driven meshing.
    pub fn mesh(
        cfg: MptcpConfig,
        app: ClientApp,
        server_app: ServerApp,
        n_local: usize,
        n_remote: usize,
        mk_path: impl Fn() -> Path,
        seed: u64,
    ) -> Scenario {
        assert!((1..=3).contains(&n_local), "1..=3 client interfaces");
        assert!((1..=3).contains(&n_remote), "1..=3 server interfaces");
        let mut sim: Sim<Node> = Sim::new(seed);

        let server_cfg = edit_pm(&cfg, |pm| {
            pm.endpoints = Endpoints::SERVER[1..n_remote]
                .iter()
                .map(|a| PmEndpoint::new(*a, EndpointFlags::SIGNAL).with_port(Endpoints::PORT))
                .collect();
        });
        let server = sim.add_host(Node::Server(ServerHost::new(
            server_cfg,
            server_app,
            seed ^ 0x5e4,
        )));
        for addr in &Endpoints::SERVER[..n_remote] {
            sim.bind_addr(*addr, server);
        }

        for i in 0..n_local {
            for j in 0..n_remote {
                let pid = sim.add_path(mk_path());
                sim.add_route(Endpoints::CLIENT[i], Endpoints::SERVER[j], pid, Dir::Fwd);
                sim.add_route(Endpoints::SERVER[j], Endpoints::CLIENT[i], pid, Dir::Rev);
            }
        }

        let client_cfg = edit_pm(&cfg, |pm| {
            pm.policy = PmPolicy::Fullmesh;
            pm.endpoints = Endpoints::CLIENT[1..n_local]
                .iter()
                .map(|a| PmEndpoint::new(*a, EndpointFlags::SUBFLOW | EndpointFlags::FULLMESH))
                .collect();
        });
        let factory = ConnFactory {
            kind: TransportKind::Mptcp(client_cfg),
            local: Endpoint::new(Endpoints::CLIENT[0], 10_000),
            server: Endpoint::new(Endpoints::SERVER[0], Endpoints::PORT),
            rng: SimRng::new(seed ^ 0xc11e),
        };
        let client = sim.add_host(Node::Client(ClientHost::new(factory, app, SimTime::ZERO)));
        for addr in &Endpoints::CLIENT[..n_local] {
            sim.bind_addr(*addr, client);
        }

        Scenario {
            sim,
            clients: vec![client],
            server,
        }
    }

    /// The (single) client host.
    pub fn client(&self) -> &ClientHost {
        self.sim.hosts[self.clients[0]].as_client().unwrap()
    }

    /// The client host, mutably.
    pub fn client_mut(&mut self) -> &mut ClientHost {
        self.sim.hosts[self.clients[0]].as_client_mut().unwrap()
    }

    /// The server host.
    pub fn server(&self) -> &ServerHost {
        self.sim.hosts[self.server].as_server().unwrap()
    }

    /// The server host, mutably.
    pub fn server_mut(&mut self) -> &mut ServerHost {
        self.sim.hosts[self.server].as_server_mut().unwrap()
    }

    /// Run for a simulated duration.
    pub fn run_for(&mut self, d: mptcp_netsim::Duration) {
        let deadline = self.sim.now + d;
        self.sim.run_until(deadline);
    }
}

/// `cfg` with its path manager edited by `edit`, validated again.
fn edit_pm(cfg: &MptcpConfig, edit: impl FnOnce(&mut PathManagerCfg)) -> MptcpConfig {
    let mut pm = cfg.path_manager().clone();
    edit(&mut pm);
    let builder = cfg.clone().into_builder().path_manager(pm);
    builder.build().expect("path-manager config is valid")
}

/// The server's configuration for clients of `kind`, its path manager
/// advertising `signal`. A plain-TCP client meets a listener that falls
/// back, holding each connection to the socket's own buffers, M4 flag and
/// trace.
fn server_cfg(kind: &TransportKind, signal: Vec<PmEndpoint>) -> MptcpConfig {
    match kind {
        TransportKind::Mptcp(cfg) => edit_pm(cfg, |pm| pm.endpoints = signal),
        TransportKind::Tcp(tcp) | TransportKind::BondedTcp(tcp) => MptcpConfig::builder()
            .tcp(tcp.clone())
            .send_buf(tcp.send_buf)
            .recv_buf(tcp.recv_buf)
            .mechanisms(Mechanisms {
                cap_cwnd: tcp.cap_cwnd_on_bufferbloat,
                ..Mechanisms::M1_2
            })
            .trace(tcp.trace)
            .build()
            .expect("single-path config is valid"),
    }
}

/// The client's transport: `kind`, its MPTCP path manager opening subflows
/// from `subflow`.
fn client_kind(kind: &TransportKind, subflow: Vec<PmEndpoint>) -> TransportKind {
    match kind {
        TransportKind::Mptcp(cfg) => {
            TransportKind::Mptcp(edit_pm(cfg, |pm| pm.endpoints = subflow))
        }
        tcp => tcp.clone(),
    }
}
