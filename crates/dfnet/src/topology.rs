//! The typed network graph.
//!
//! Figure 3's components — connected devices, DF servers, master nodes,
//! the Internet, a datacenter — become nodes; links carry a [`Link`]
//! model. Routing is shortest-latency Dijkstra for a reference message
//! size; message timing then follows the selected path hop by hop.

use crate::link::Link;
use crate::protocol::Protocol;
use simcore::time::SimDuration;
use std::collections::BinaryHeap;
use std::fmt;

/// Why a route could not be produced. Carries the offending handles so
/// a failed lookup can be traced back to the node that caused it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RouteError {
    /// A node handle does not name a node of this topology.
    NodeOutOfRange { node: NodeId, n_nodes: usize },
    /// Both endpoints exist but no link path connects them.
    NoRoute { src: NodeId, dst: NodeId },
}

impl fmt::Display for RouteError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            RouteError::NodeOutOfRange { node, n_nodes } => {
                write!(f, "node {} out of range ({n_nodes} nodes)", node.0)
            }
            RouteError::NoRoute { src, dst } => {
                write!(f, "no route from node {} to node {}", src.0, dst.0)
            }
        }
    }
}

impl std::error::Error for RouteError {}

/// Node handle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub usize);

/// What a node is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeKind {
    /// A connected IoT device (sensor, actuator, phone).
    Device,
    /// A DF server (worker).
    DfServer,
    /// An edge gateway (receives local requests).
    EdgeGateway,
    /// A DCC gateway (receives Internet computing requests).
    DccGateway,
    /// A master node coordinating a local cluster (indirect requests).
    Master,
    /// An Internet exchange / metro PoP.
    InternetPop,
    /// A remote cloud datacenter.
    Datacenter,
}

#[derive(Debug, Clone)]
struct Edge {
    to: NodeId,
    link: Link,
}

/// A network topology.
#[derive(Debug, Clone, Default)]
pub struct Topology {
    kinds: Vec<NodeKind>,
    adj: Vec<Vec<Edge>>,
}

impl Topology {
    pub fn new() -> Self {
        Topology::default()
    }

    pub fn add_node(&mut self, kind: NodeKind) -> NodeId {
        self.kinds.push(kind);
        self.adj.push(Vec::new());
        NodeId(self.kinds.len() - 1)
    }

    pub fn kind(&self, n: NodeId) -> Option<NodeKind> {
        self.kinds.get(n.0).copied()
    }

    pub fn n_nodes(&self) -> usize {
        self.kinds.len()
    }

    /// Add a bidirectional link.
    pub fn connect(&mut self, a: NodeId, b: NodeId, link: Link) {
        assert!(a != b, "self-loops are not meaningful");
        assert!(a.0 < self.n_nodes() && b.0 < self.n_nodes());
        self.adj[a.0].push(Edge { to: b, link });
        self.adj[b.0].push(Edge { to: a, link });
    }

    /// Nodes of a given kind.
    pub fn nodes_of_kind(&self, kind: NodeKind) -> Vec<NodeId> {
        self.kinds
            .iter()
            .enumerate()
            .filter(|(_, &k)| k == kind)
            .map(|(i, _)| NodeId(i))
            .collect()
    }

    /// Shortest path from `src` to `dst` minimising one-way latency of a
    /// message of `payload_bytes`. Returns the hop list (excluding `src`)
    /// and the total time. Handles from another topology and unreachable
    /// destinations are errors, never panics — routes are computed from
    /// externally supplied endpoints.
    pub fn route(
        &self,
        src: NodeId,
        dst: NodeId,
        payload_bytes: usize,
    ) -> Result<(Vec<NodeId>, SimDuration), RouteError> {
        #[derive(PartialEq, Eq)]
        struct State {
            cost_us: i64,
            node: NodeId,
        }
        impl Ord for State {
            fn cmp(&self, o: &Self) -> std::cmp::Ordering {
                o.cost_us
                    .cmp(&self.cost_us)
                    .then_with(|| o.node.cmp(&self.node))
            }
        }
        impl PartialOrd for State {
            fn partial_cmp(&self, o: &Self) -> Option<std::cmp::Ordering> {
                Some(self.cmp(o))
            }
        }

        let n = self.n_nodes();
        for node in [src, dst] {
            if node.0 >= n {
                return Err(RouteError::NodeOutOfRange { node, n_nodes: n });
            }
        }
        let mut dist = vec![i64::MAX; n];
        let mut prev: Vec<Option<NodeId>> = vec![None; n];
        let mut heap = BinaryHeap::new();
        dist[src.0] = 0;
        heap.push(State {
            cost_us: 0,
            node: src,
        });
        while let Some(State { cost_us, node }) = heap.pop() {
            if node == dst {
                break;
            }
            if cost_us > dist[node.0] {
                continue;
            }
            for e in &self.adj[node.0] {
                let w = e.link.transfer_time(payload_bytes).as_micros();
                let next = cost_us + w;
                if next < dist[e.to.0] {
                    dist[e.to.0] = next;
                    prev[e.to.0] = Some(node);
                    heap.push(State {
                        cost_us: next,
                        node: e.to,
                    });
                }
            }
        }
        if dist[dst.0] == i64::MAX {
            return Err(RouteError::NoRoute { src, dst });
        }
        let mut path = vec![dst];
        let mut cur = dst;
        while let Some(p) = prev[cur.0] {
            if p != src {
                path.push(p);
            }
            cur = p;
        }
        path.reverse();
        Ok((path, SimDuration::from_micros(dist[dst.0])))
    }

    /// One-way latency between two nodes.
    pub fn latency(
        &self,
        src: NodeId,
        dst: NodeId,
        payload_bytes: usize,
    ) -> Result<SimDuration, RouteError> {
        Ok(self.route(src, dst, payload_bytes)?.1)
    }
}

/// A ready-made building cluster topology, per Figure 3/5:
/// devices —(low-power)— edge gateway —(LAN)— workers —(LAN)— master,
/// master —(fiber)— Internet PoP —(WAN)— datacenter.
#[derive(Debug, Clone)]
pub struct BuildingTopology {
    pub topo: Topology,
    pub devices: Vec<NodeId>,
    pub edge_gateway: NodeId,
    pub dcc_gateway: NodeId,
    pub master: NodeId,
    pub workers: Vec<NodeId>,
    pub pop: NodeId,
    pub datacenter: NodeId,
}

impl BuildingTopology {
    /// Build a cluster of `n_workers` DF servers and `n_devices` IoT
    /// devices, with `device_protocol` on the sensor side.
    pub fn new(n_workers: usize, n_devices: usize, device_protocol: Protocol) -> Self {
        assert!(n_workers > 0);
        let mut t = Topology::new();
        let edge_gateway = t.add_node(NodeKind::EdgeGateway);
        let dcc_gateway = t.add_node(NodeKind::DccGateway);
        let master = t.add_node(NodeKind::Master);
        let pop = t.add_node(NodeKind::InternetPop);
        let datacenter = t.add_node(NodeKind::Datacenter);
        let lan = Link::new(Protocol::EthernetLan);
        t.connect(edge_gateway, master, lan);
        t.connect(dcc_gateway, master, lan);
        // Master reaches the metro PoP by fiber (the Q.rad uplink of §II-B),
        // and the PoP reaches the remote datacenter over the WAN.
        t.connect(master, pop, Link::new(Protocol::Fiber));
        t.connect(pop, datacenter, Link::new(Protocol::WanInternet));
        let workers: Vec<NodeId> = (0..n_workers)
            .map(|_| {
                let w = t.add_node(NodeKind::DfServer);
                t.connect(w, master, lan);
                t.connect(w, edge_gateway, lan);
                t.connect(w, dcc_gateway, lan);
                w
            })
            .collect();
        let devices: Vec<NodeId> = (0..n_devices)
            .map(|_| {
                let d = t.add_node(NodeKind::Device);
                t.connect(d, edge_gateway, Link::new(device_protocol));
                d
            })
            .collect();
        BuildingTopology {
            topo: t,
            devices,
            edge_gateway,
            dcc_gateway,
            master,
            workers,
            pop,
            datacenter,
        }
    }

    /// Direct local request: device → worker (via the edge gateway LAN),
    /// one way (§II-C "the edge user has a direct connection").
    pub fn direct_latency(
        &self,
        device: NodeId,
        worker: NodeId,
        bytes: usize,
    ) -> Result<SimDuration, RouteError> {
        self.topo.latency(device, worker, bytes)
    }

    /// Indirect local request: device → master → worker (§II-C "the
    /// request is sent to the master node that will schedule it"). The
    /// master hop is forced even if a shorter path exists.
    pub fn indirect_latency(
        &self,
        device: NodeId,
        worker: NodeId,
        bytes: usize,
    ) -> Result<SimDuration, RouteError> {
        Ok(self.topo.latency(device, self.master, bytes)?
            + self.topo.latency(self.master, worker, bytes)?)
    }

    /// Cloud round-trip: device → datacenter → device.
    pub fn cloud_rtt(
        &self,
        device: NodeId,
        req_bytes: usize,
        rep_bytes: usize,
    ) -> Result<SimDuration, RouteError> {
        Ok(self.topo.latency(device, self.datacenter, req_bytes)?
            + self.topo.latency(self.datacenter, device, rep_bytes)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn building() -> BuildingTopology {
        BuildingTopology::new(4, 2, Protocol::Wifi)
    }

    #[test]
    fn routing_finds_shortest_path() {
        let b = building();
        let (path, lat) = b
            .topo
            .route(b.devices[0], b.workers[0], 500)
            .expect("route exists");
        // device → edge gateway → worker.
        assert_eq!(path.len(), 2);
        assert!(lat > SimDuration::ZERO);
    }

    #[test]
    fn indirect_pays_the_master_hop() {
        // §II-C: "indirect requests ... imply to pay an additional
        // latency cost in the processing of requests."
        let b = building();
        let d = b.devices[0];
        let w = b.workers[1];
        let direct = b.direct_latency(d, w, 500).unwrap();
        let indirect = b.indirect_latency(d, w, 500).unwrap();
        assert!(
            indirect > direct,
            "indirect {indirect} must exceed direct {direct}"
        );
    }

    #[test]
    fn cloud_rtt_dwarfs_local() {
        let b = building();
        let d = b.devices[0];
        let local = b.direct_latency(d, b.workers[0], 1_000).unwrap();
        let cloud = b.cloud_rtt(d, 1_000, 1_000).unwrap();
        assert!(
            cloud.as_secs_f64() > 5.0 * local.as_secs_f64(),
            "cloud {cloud} vs local {local}"
        );
    }

    #[test]
    fn lora_device_much_slower_than_wifi_device() {
        let wifi = BuildingTopology::new(2, 1, Protocol::Wifi);
        let lora = BuildingTopology::new(2, 1, Protocol::Lora);
        let lw = wifi
            .direct_latency(wifi.devices[0], wifi.workers[0], 100)
            .unwrap();
        let ll = lora
            .direct_latency(lora.devices[0], lora.workers[0], 100)
            .unwrap();
        assert!(ll.as_secs_f64() > 10.0 * lw.as_secs_f64());
    }

    #[test]
    fn unreachable_and_unknown_nodes_are_typed_errors() {
        let mut t = Topology::new();
        let a = t.add_node(NodeKind::Device);
        let b = t.add_node(NodeKind::DfServer);
        assert_eq!(
            t.route(a, b, 10),
            Err(RouteError::NoRoute { src: a, dst: b })
        );
        let ghost = NodeId(99);
        assert_eq!(
            t.route(a, ghost, 10),
            Err(RouteError::NodeOutOfRange {
                node: ghost,
                n_nodes: 2
            })
        );
        assert_eq!(t.kind(ghost), None);
        assert_eq!(t.kind(a), Some(NodeKind::Device));
        for e in [
            RouteError::NoRoute { src: a, dst: b },
            RouteError::NodeOutOfRange {
                node: ghost,
                n_nodes: 2,
            },
        ] {
            assert!(!e.to_string().is_empty());
        }
    }

    #[test]
    fn nodes_of_kind_filters() {
        let b = building();
        assert_eq!(b.topo.nodes_of_kind(NodeKind::DfServer).len(), 4);
        assert_eq!(b.topo.nodes_of_kind(NodeKind::Device).len(), 2);
        assert_eq!(b.topo.nodes_of_kind(NodeKind::Datacenter).len(), 1);
    }

    #[test]
    fn route_to_self_is_empty_and_free() {
        let b = building();
        let (path, lat) = b.topo.route(b.master, b.master, 100).unwrap();
        assert!(path.is_empty() || path == vec![b.master]);
        assert_eq!(lat, SimDuration::ZERO);
    }

    #[test]
    #[should_panic]
    fn self_loop_rejected() {
        let mut t = Topology::new();
        let a = t.add_node(NodeKind::Device);
        t.connect(a, a, Link::new(Protocol::Wifi));
    }
}
