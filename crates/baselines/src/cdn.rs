//! The CDN alternative (§V).
//!
//! "The infrastructure deployed for content delivery network (CDN)
//! could also be used" — but a cache serves *content*, not computation.
//! A cacheable fraction of edge requests (map tiles) hits at the edge
//! PoP; everything else (classification, aggregation, personalised
//! routes) must travel to the origin. The model splits a request mix
//! accordingly.

use dfnet::link::Link;
use dfnet::protocol::Protocol;
use simcore::time::SimDuration;

/// A CDN edge PoP.
#[derive(Debug, Clone, Copy)]
pub struct CdnPop {
    /// Cache hit probability for *cacheable* requests.
    pub hit_ratio: f64,
    /// One-way latency device → PoP.
    pub pop_latency: SimDuration,
    /// One-way latency PoP → origin.
    pub origin_latency: SimDuration,
}

impl CdnPop {
    pub fn metro_pop() -> Self {
        CdnPop {
            hit_ratio: 0.92,
            pop_latency: SimDuration::from_millis(6),
            origin_latency: SimDuration::from_millis(35),
        }
    }
}

/// Classification of one request for the CDN model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RequestKind {
    /// Static content (tiles, media): cacheable.
    Cacheable,
    /// Requires computation (classification, per-user state): never
    /// served from cache.
    Compute,
}

impl CdnPop {
    /// Expected response time of a request, given its kind and payload.
    pub fn expected_response(
        &self,
        kind: RequestKind,
        input_bytes: usize,
        output_bytes: usize,
        origin_compute: SimDuration,
    ) -> SimDuration {
        let access = Link::new(Protocol::Wifi);
        let first_mile = access.transfer_time(input_bytes) + access.transfer_time(output_bytes);
        let pop_rt = self.pop_latency * 2;
        let origin_rt = self.origin_latency * 2;
        match kind {
            RequestKind::Cacheable => {
                // hit: PoP round-trip; miss: PoP + origin fetch.
                let hit = first_mile + pop_rt;
                let miss = first_mile + pop_rt + origin_rt;
                hit.mul_f64(self.hit_ratio) + miss.mul_f64(1.0 - self.hit_ratio)
            }
            RequestKind::Compute => first_mile + pop_rt + origin_rt + origin_compute,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cache_hits_are_fast() {
        let pop = CdnPop::metro_pop();
        let c = pop.expected_response(RequestKind::Cacheable, 600, 30_000, SimDuration::ZERO);
        assert!(c.as_millis_f64() < 35.0, "cacheable mix ≈ {c}");
    }

    #[test]
    fn compute_requests_pay_the_origin() {
        let pop = CdnPop::metro_pop();
        let x = pop.expected_response(
            RequestKind::Compute,
            600,
            30_000,
            SimDuration::from_millis(50),
        );
        assert!(x.as_millis_f64() > 120.0, "compute via CDN ≈ {x}");
    }

    #[test]
    fn better_hit_ratio_helps_cacheable_only() {
        let mut good = CdnPop::metro_pop();
        good.hit_ratio = 0.99;
        let mut bad = CdnPop::metro_pop();
        bad.hit_ratio = 0.50;
        let g = good.expected_response(RequestKind::Cacheable, 600, 30_000, SimDuration::ZERO);
        let b = bad.expected_response(RequestKind::Cacheable, 600, 30_000, SimDuration::ZERO);
        assert!(g < b);
        let gc = good.expected_response(RequestKind::Compute, 600, 30_000, SimDuration::ZERO);
        let bc = bad.expected_response(RequestKind::Compute, 600, 30_000, SimDuration::ZERO);
        assert_eq!(gc, bc, "hit ratio is irrelevant to compute requests");
    }
}
