//! Micro-benchmarks of the substrate hot paths: event queue, platform
//! step, room step, RNG stream derivation, histogram observation.
use criterion::{black_box, criterion_group, criterion_main, Criterion};
use df3_core::{Platform, PlatformConfig};
use simcore::metrics::Histogram;
use simcore::time::{Calendar, SimDuration, SimTime};
use simcore::{EventQueue, RngStreams, SlabEventQueue};
use thermal::room::{Room, RoomParams};
use thermal::weather::{Weather, WeatherConfig, WeatherTable};
use thermal::ThermalBatch;
use workloads::edge::{location_service_jobs, LocationServiceConfig};
use workloads::job::JobStream;
use workloads::Flow;

/// Event payload sized like the platform's `Ev` enum (≈100 bytes).
type FatEvent = [u64; 12];

/// The schedule/cancel/pop mix a platform run produces: mostly
/// schedules and pops, a cancel tail from preemptions/failures, queue
/// depth held in the platform's observed operating band.
macro_rules! queue_mix {
    ($Q:ty) => {
        |b: &mut criterion::Bencher| {
            b.iter(|| {
                let mut q = <$Q>::with_capacity(256);
                let mut recent = [None; 64];
                let mut x: u64 = 0xDF3;
                let mut sum = 0u64;
                for _ in 0..256u32 {
                    x = x
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    let t = SimTime::from_micros(((x >> 16) % 1_000_000) as i64);
                    q.schedule(t, [x; 12] as FatEvent);
                }
                for _ in 0..3_000u32 {
                    x = x
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    let kind = if q.len() < 128 { 0 } else { x % 10 };
                    match kind {
                        0..=3 => {
                            let t = SimTime::from_micros(((x >> 16) % 1_000_000) as i64);
                            let id = q.schedule(t, [x; 12] as FatEvent);
                            recent[(x >> 40) as usize % 64] = Some(id);
                        }
                        4..=5 => {
                            if let Some(id) = recent[(x >> 32) as usize % 64].take() {
                                q.cancel(id);
                            }
                        }
                        _ => {
                            if let Some((_, v)) = q.pop() {
                                sum ^= v[0];
                            }
                        }
                    }
                }
                while let Some((_, v)) = q.pop() {
                    sum ^= v[0];
                }
                black_box(sum)
            })
        }
    };
}

/// A preemption storm: schedule a platform-depth batch, cancel half,
/// drain. The case the generation-tag redesign targets.
macro_rules! queue_burst {
    ($Q:ty) => {
        |b: &mut criterion::Bencher| {
            let mut x: u64 = 0xDF3;
            let times: Vec<SimTime> = (0..256)
                .map(|_| {
                    x = x
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    SimTime::from_micros(((x >> 16) % 1_000_000) as i64)
                })
                .collect();
            b.iter(|| {
                let mut q = <$Q>::with_capacity(256);
                let mut sum = 0u64;
                let ids: Vec<_> = times
                    .iter()
                    .enumerate()
                    .map(|(i, &t)| q.schedule(t, [i as u64; 12] as FatEvent))
                    .collect();
                for &id in ids.iter().step_by(2) {
                    q.cancel(id);
                }
                while let Some((_, v)) = q.pop() {
                    sum ^= v[0];
                }
                black_box(sum)
            })
        }
    };
}

fn bench(c: &mut Criterion) {
    c.bench_function("event_queue_push_pop_1k", |b| {
        b.iter(|| {
            let mut q = EventQueue::new();
            for i in 0..1_000i64 {
                q.schedule(SimTime::from_secs((i * 37) % 500), i);
            }
            let mut sum = 0i64;
            while let Some((_, v)) = q.pop() {
                sum += v;
            }
            black_box(sum)
        })
    });
    c.bench_function("event_queue_mix_slab", queue_mix!(SlabEventQueue<FatEvent>));
    c.bench_function(
        "event_queue_burst_slab",
        queue_burst!(SlabEventQueue<FatEvent>),
    );
    c.bench_function("platform_step_1h", |b| {
        // A small platform run: every dispatch, finish, and control tick
        // exercises the slot map and the dense metric path end to end.
        let jobs = location_service_jobs(
            LocationServiceConfig::map_serving(Flow::EdgeIndirect),
            SimDuration::from_hours(1),
            &RngStreams::new(77),
            0,
        );
        b.iter(|| {
            let mut cfg = PlatformConfig::small_winter();
            cfg.n_clusters = 2;
            cfg.workers_per_cluster = 4;
            cfg.horizon = SimDuration::from_hours(1);
            cfg.datacenter_cores = 64;
            let out = Platform::new(cfg).run(&jobs);
            black_box(out.events)
        })
    });
    c.bench_function("room_step", |b| {
        let mut room = Room::new(RoomParams::typical_apartment_room(), 18.0);
        b.iter(|| {
            room.step(
                SimDuration::from_secs(600),
                black_box(5.0),
                black_box(400.0),
            )
        })
    });
    // The PR 2 tentpole A/B: one staged SoA sweep over N rooms versus N
    // scalar `Room::step` calls. Heater powers vary per room so the
    // batch cannot special-case a uniform fleet; dt is fixed so the
    // decay cache stays warm — the steady state of a platform run.
    for &n in &[1_000usize, 10_000] {
        let dt = SimDuration::from_secs(600);
        c.bench_function(&format!("thermal_batch_uniform_{n}"), |b| {
            let mut batch = ThermalBatch::with_capacity(n);
            for i in 0..n {
                batch.push(
                    RoomParams::typical_apartment_room(),
                    16.0 + (i % 40) as f64 / 20.0,
                );
            }
            let powers: Vec<f64> = (0..n).map(|i| (i % 500) as f64).collect();
            b.iter(|| {
                batch.step_uniform(dt, black_box(5.0), &powers);
                black_box(batch.temperature_c(0))
            })
        });
        c.bench_function(&format!("thermal_batch_step_{n}"), |b| {
            let mut batch = ThermalBatch::with_capacity(n);
            for i in 0..n {
                batch.push(
                    RoomParams::typical_apartment_room(),
                    16.0 + (i % 40) as f64 / 20.0,
                );
            }
            b.iter(|| {
                for i in 0..n {
                    batch.stage(i, dt, (i % 500) as f64);
                }
                batch.step_staged(black_box(5.0));
                black_box(batch.temperature_c(0))
            })
        });
        c.bench_function(&format!("thermal_scalar_step_{n}"), |b| {
            let mut rooms: Vec<Room> = (0..n)
                .map(|i| {
                    Room::new(
                        RoomParams::typical_apartment_room(),
                        16.0 + (i % 40) as f64 / 20.0,
                    )
                })
                .collect();
            b.iter(|| {
                let mut last = 0.0;
                for (i, room) in rooms.iter_mut().enumerate() {
                    last = room.step(dt, black_box(5.0), (i % 500) as f64);
                }
                black_box(last)
            })
        });
    }
    c.bench_function("weather_analytic_lookup", |b| {
        let weather = Weather::generate(
            WeatherConfig::paris(Calendar::NOVEMBER_EPOCH),
            SimDuration::from_days(30),
            &RngStreams::new(9),
        );
        let mut t = 0i64;
        b.iter(|| {
            t = (t + 601) % (29 * 86_400);
            black_box(weather.outdoor_c(SimTime::from_secs(t)))
        })
    });
    c.bench_function("weather_table_lookup", |b| {
        let weather = Weather::generate(
            WeatherConfig::paris(Calendar::NOVEMBER_EPOCH),
            SimDuration::from_days(30),
            &RngStreams::new(9),
        );
        let table = WeatherTable::tabulate(&weather);
        let mut t = 0i64;
        b.iter(|| {
            t = (t + 601) % (29 * 86_400);
            black_box(table.outdoor_c(SimTime::from_secs(t)))
        })
    });
    c.bench_function("district_platform_1h", |b| {
        // 100 buildings × 10 Q.rads stepping their thermals through the
        // batched kernel; no job traffic, so control ticks dominate.
        let jobs = JobStream::new(vec![]);
        b.iter(|| {
            let mut cfg = PlatformConfig::district_winter();
            cfg.horizon = SimDuration::from_hours(1);
            let out = Platform::new(cfg).run(&jobs);
            black_box(out.events)
        })
    });
    c.bench_function("rng_stream_derivation", |b| {
        let s = RngStreams::new(42);
        b.iter(|| s.stream_indexed(black_box("arrivals"), black_box(17)))
    });
    c.bench_function("histogram_observe", |b| {
        let mut h = Histogram::latency_ms(10_000.0);
        let mut x = 0.0f64;
        b.iter(|| {
            x = (x + 37.3) % 9_000.0;
            h.observe(black_box(x));
        })
    });
}
criterion_group!(benches, bench);
criterion_main!(benches);
