//! Network segmentation and isolation.
//!
//! §II-C: direct requests "can raise several security issues. For their
//! implementation, it is important to formulate a good resource sharing
//! and network segmentation model." §III-B: "to guarantee the privacy of
//! edge data, it is preferable to have two local networks, one for edge
//! and one for DCC", and architecture class B "put\[s\] the dedicated edge
//! servers in a (virtual) private network".
//!
//! [`SegmentPolicy`] is that model: nodes are assigned to segments, a
//! policy matrix states which segments may talk, and VPN-overlaid
//! segments pay an encapsulation latency/throughput cost.

use simcore::time::SimDuration;
use std::collections::HashMap;

/// A network segment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Segment {
    /// The edge-side local network (IoT devices, edge gateway, edge workers).
    Edge,
    /// The DCC-side local network (DCC gateway, DCC workers).
    Dcc,
    /// Shared management plane (master, monitoring).
    Management,
    /// The public Internet.
    Public,
}

/// Result of a reachability check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Reachability {
    /// Allowed at native speed.
    Allowed,
    /// Allowed through a VPN tunnel: add the given overhead per message.
    Tunnelled(SimDuration),
    /// Denied by policy.
    Denied,
}

/// A segmentation policy.
#[derive(Debug, Clone)]
pub struct SegmentPolicy {
    /// Allowed (from, to) segment pairs at native speed.
    allowed: Vec<(Segment, Segment)>,
    /// (from, to) pairs allowed through a VPN with its overhead.
    tunnelled: Vec<(Segment, Segment, SimDuration)>,
    /// Node → segment assignment.
    assignment: HashMap<usize, Segment>,
}

/// Per-message VPN encapsulation overhead (IPsec-class: encrypt +
/// encapsulate + tunnel hop).
pub const VPN_OVERHEAD: SimDuration = SimDuration::from_micros(400);

impl SegmentPolicy {
    /// The **shared-workers** policy of architecture class A (§III-B
    /// first class): one flat LAN — everything local may talk to
    /// everything local. Fast, but edge data shares wires with DCC jobs.
    pub fn shared_flat() -> Self {
        let all = [Segment::Edge, Segment::Dcc, Segment::Management];
        let mut allowed = Vec::new();
        for a in all {
            for b in all {
                allowed.push((a, b));
            }
        }
        allowed.push((Segment::Management, Segment::Public));
        allowed.push((Segment::Public, Segment::Management));
        // DCC requests arrive from the Internet.
        allowed.push((Segment::Public, Segment::Dcc));
        allowed.push((Segment::Dcc, Segment::Public));
        SegmentPolicy {
            allowed,
            tunnelled: Vec::new(),
            assignment: HashMap::new(),
        }
    }

    /// The **isolated** policy of architecture class B: edge and DCC are
    /// separate networks; the only cross-segment path is the management
    /// plane, and edge↔management runs inside a VPN. Edge never reaches
    /// the public Internet directly (privacy of edge data).
    pub fn isolated_vpn() -> Self {
        SegmentPolicy {
            allowed: vec![
                (Segment::Edge, Segment::Edge),
                (Segment::Dcc, Segment::Dcc),
                (Segment::Management, Segment::Management),
                (Segment::Dcc, Segment::Public),
                (Segment::Public, Segment::Dcc),
                (Segment::Management, Segment::Public),
                (Segment::Public, Segment::Management),
                (Segment::Dcc, Segment::Management),
                (Segment::Management, Segment::Dcc),
            ],
            tunnelled: vec![
                (Segment::Edge, Segment::Management, VPN_OVERHEAD),
                (Segment::Management, Segment::Edge, VPN_OVERHEAD),
            ],
            assignment: HashMap::new(),
        }
    }

    /// Assign a node (by id) to a segment.
    pub fn assign(&mut self, node: usize, segment: Segment) {
        self.assignment.insert(node, segment);
    }

    /// Segment of a node; panics if unassigned (an unassigned node is a
    /// configuration bug, not a policy decision).
    pub fn segment_of(&self, node: usize) -> Segment {
        *self
            .assignment
            .get(&node)
            .unwrap_or_else(|| panic!("node {node} has no segment assignment"))
    }

    /// Check segment-level reachability.
    pub fn check_segments(&self, from: Segment, to: Segment) -> Reachability {
        if self.allowed.contains(&(from, to)) {
            return Reachability::Allowed;
        }
        if let Some(&(_, _, overhead)) = self
            .tunnelled
            .iter()
            .find(|&&(f, t, _)| f == from && t == to)
        {
            return Reachability::Tunnelled(overhead);
        }
        Reachability::Denied
    }

    /// Check node-level reachability.
    pub fn check(&self, from_node: usize, to_node: usize) -> Reachability {
        self.check_segments(self.segment_of(from_node), self.segment_of(to_node))
    }

    /// Latency penalty for a message, or `None` if denied.
    pub fn overhead(&self, from_node: usize, to_node: usize) -> Option<SimDuration> {
        match self.check(from_node, to_node) {
            Reachability::Allowed => Some(SimDuration::ZERO),
            Reachability::Tunnelled(o) => Some(o),
            Reachability::Denied => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shared_flat_lets_edge_and_dcc_mix() {
        let p = SegmentPolicy::shared_flat();
        assert_eq!(
            p.check_segments(Segment::Edge, Segment::Dcc),
            Reachability::Allowed
        );
        assert_eq!(
            p.check_segments(Segment::Dcc, Segment::Edge),
            Reachability::Allowed
        );
    }

    #[test]
    fn isolated_denies_edge_dcc_crossing() {
        // The §III-B privacy requirement for class B.
        let p = SegmentPolicy::isolated_vpn();
        assert_eq!(
            p.check_segments(Segment::Edge, Segment::Dcc),
            Reachability::Denied
        );
        assert_eq!(
            p.check_segments(Segment::Dcc, Segment::Edge),
            Reachability::Denied
        );
    }

    #[test]
    fn isolated_edge_never_reaches_public() {
        let p = SegmentPolicy::isolated_vpn();
        assert_eq!(
            p.check_segments(Segment::Edge, Segment::Public),
            Reachability::Denied
        );
        assert_eq!(
            p.check_segments(Segment::Public, Segment::Edge),
            Reachability::Denied
        );
    }

    #[test]
    fn isolated_edge_reaches_management_via_vpn() {
        let p = SegmentPolicy::isolated_vpn();
        match p.check_segments(Segment::Edge, Segment::Management) {
            Reachability::Tunnelled(o) => assert_eq!(o, VPN_OVERHEAD),
            r => panic!("expected VPN tunnel, got {r:?}"),
        }
    }

    #[test]
    fn node_level_checks_follow_assignment() {
        let mut p = SegmentPolicy::isolated_vpn();
        p.assign(0, Segment::Edge);
        p.assign(1, Segment::Dcc);
        p.assign(2, Segment::Management);
        assert_eq!(p.check(0, 1), Reachability::Denied);
        assert_eq!(p.overhead(0, 1), None);
        assert_eq!(p.overhead(1, 2), Some(SimDuration::ZERO));
        assert_eq!(p.overhead(0, 2), Some(VPN_OVERHEAD));
    }

    #[test]
    fn dcc_keeps_internet_access_in_both_policies() {
        for p in [SegmentPolicy::shared_flat(), SegmentPolicy::isolated_vpn()] {
            assert_eq!(
                p.check_segments(Segment::Public, Segment::Dcc),
                Reachability::Allowed
            );
        }
    }

    #[test]
    #[should_panic]
    fn unassigned_node_panics() {
        let p = SegmentPolicy::shared_flat();
        p.segment_of(42);
    }
}
