//! The all-cloud baseline: every request — edge requests included —
//! travels the WAN to a remote datacenter.

use df3_core::datacenter::Datacenter;
use dfnet::link::Link;
use dfnet::protocol::Protocol;
use simcore::engine::{Engine, Model, Scheduler};
use simcore::metrics::{Counter, Histogram};
use simcore::time::SimTime;
use workloads::job::JobStream;
use workloads::Job;

/// Outcome of a cloud-baseline run.
#[derive(Debug)]
pub struct CloudOutcome {
    pub edge_response_ms: Histogram,
    pub edge_completed: Counter,
    pub edge_deadline_met: Counter,
    pub dcc_completed: Counter,
    /// Facility energy, kWh (PUE-laden).
    pub facility_kwh: f64,
    pub it_kwh: f64,
}

impl CloudOutcome {
    pub fn edge_attainment(&self) -> f64 {
        self.edge_deadline_met.rate_of(&self.edge_completed)
    }

    pub fn pue(&self) -> f64 {
        if self.it_kwh <= 0.0 {
            return 1.0;
        }
        self.facility_kwh / self.it_kwh
    }
}

/// The all-cloud comparator.
pub struct CloudBaseline {
    /// Datacenter cores.
    pub cores: usize,
    /// Device access link (first hop).
    pub access: Link,
    /// WAN path device↔datacenter.
    pub wan: Link,
}

impl CloudBaseline {
    /// A typical public-cloud path: WiFi access + 22 ms WAN.
    pub fn standard(cores: usize) -> Self {
        CloudBaseline {
            cores,
            access: Link::new(Protocol::Wifi),
            wan: Link::new(Protocol::WanInternet).with_extra_latency(0.022),
        }
    }

    /// Run a job stream entirely in the cloud.
    pub fn run(&self, jobs: &JobStream, horizon: SimTime) -> CloudOutcome {
        /// The stream's jobs arrive through the engine's input merge
        /// (see [`Model::next_input`]); `next` indexes the next one.
        struct M<'a> {
            base: &'a CloudBaseline,
            dc: Datacenter,
            jobs: &'a [Job],
            next: usize,
            out: CloudOutcome,
        }
        enum Ev {
            Arrive(Job),
            Finish(Job),
        }
        impl Model for M<'_> {
            type Event = Ev;
            fn next_input(&self) -> Option<SimTime> {
                self.jobs.get(self.next).map(|j| j.arrival)
            }
            fn take_input(&mut self) -> Ev {
                self.next += 1;
                Ev::Arrive(self.jobs[self.next - 1])
            }
            fn handle(&mut self, now: SimTime, ev: Ev, sched: &mut Scheduler<Ev>) {
                match ev {
                    Ev::Arrive(j) => {
                        if let Some(finish) = self.dc.submit(now, j) {
                            sched.at(finish, Ev::Finish(j));
                        }
                    }
                    Ev::Finish(j) => {
                        for (next, finish) in self.dc.complete(now, j.id) {
                            sched.at(finish, Ev::Finish(next));
                        }
                        let net = self.base.access.transfer_time(j.input_bytes)
                            + self.base.wan.transfer_time(j.input_bytes)
                            + self.base.wan.transfer_time(j.output_bytes)
                            + self.base.access.transfer_time(j.output_bytes);
                        let response = now.saturating_since(j.arrival) + net;
                        if j.is_edge() {
                            self.out.edge_response_ms.observe(response.as_millis_f64());
                            self.out.edge_completed.inc();
                            if j.meets_deadline(j.arrival + response) {
                                self.out.edge_deadline_met.inc();
                            }
                        } else {
                            self.out.dcc_completed.inc();
                        }
                    }
                }
            }
        }
        let model = M {
            base: self,
            dc: Datacenter::new(self.cores),
            jobs: jobs.jobs(),
            next: 0,
            out: CloudOutcome {
                edge_response_ms: Histogram::new(0.0, 60_000.0, 2_000),
                edge_completed: Counter::new(),
                edge_deadline_met: Counter::new(),
                dcc_completed: Counter::new(),
                facility_kwh: 0.0,
                it_kwh: 0.0,
            },
        };
        let (mut m, s) = Engine::new(model, horizon).run();
        m.out.it_kwh = m.dc.it_kwh(s.end_time);
        m.out.facility_kwh = m.dc.facility_kwh(s.end_time);
        m.out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::time::SimDuration;
    use simcore::RngStreams;
    use workloads::edge::{location_service_jobs, LocationServiceConfig};
    use workloads::Flow;

    fn jobs() -> JobStream {
        location_service_jobs(
            LocationServiceConfig::map_serving(Flow::EdgeDirect),
            SimDuration::from_hours(2),
            &RngStreams::new(9),
            0,
        )
    }

    #[test]
    fn cloud_adds_wan_latency_to_every_edge_request() {
        let base = CloudBaseline::standard(256);
        let out = base.run(&jobs(), SimTime::ZERO + SimDuration::from_hours(3));
        assert!(out.edge_completed.get() > 1_000);
        // One WAN round-trip is ≥ ~84 ms; responses can't go below it.
        assert!(
            out.edge_response_ms.quantile(0.01) > 80.0,
            "p01 {} ms",
            out.edge_response_ms.quantile(0.01)
        );
    }

    #[test]
    fn cloud_still_meets_lenient_deadlines() {
        // 300 ms budgets are feasible from the cloud when the DC is idle —
        // the paper's latency argument is about tighter budgets and load.
        let base = CloudBaseline::standard(1024);
        let out = base.run(&jobs(), SimTime::ZERO + SimDuration::from_hours(3));
        assert!(out.edge_attainment() > 0.9);
    }

    #[test]
    fn cloud_pue_is_datacenter_grade() {
        let base = CloudBaseline::standard(64);
        let out = base.run(&jobs(), SimTime::ZERO + SimDuration::from_hours(3));
        assert!((out.pue() - 1.55).abs() < 1e-9);
        assert!(out.it_kwh > 0.0);
    }
}
