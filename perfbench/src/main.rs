//! DF3 benchmark: runs one named scenario through the public
//! `df3_core::Platform` API and prints one JSON result line.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke]
//! ```
//!
//! The seed generates the inputs (job streams, branch outages). Input
//! generation and set-up run before the timed section, which repeats the
//! scenario on one thread until `--seconds` have passed. End-to-end host
//! times are the floor of per-repetition CPU time, which co-tenant
//! interference on a shared host cannot lower; per-layer times are
//! medians. Arrivals are open-loop in simulated time; on the host one
//! scenario runs at a time.
//!
//! `--trace 0` runs with telemetry off and prints the end-to-end
//! metrics. `--trace 1` alternates untraced and traced repetitions and
//! prints the per-layer metrics: the exclusive-time split of the
//! platform's `PhaseProfiler` output, layer counters, and replay timers
//! around single public layer functions. `--smoke` shrinks the horizon
//! to a few hours (see `smoke_test.py`).
//!
//! Every simulated run is checked: its job-conservation ledger must
//! close over every input arrival, and its stats fingerprint must equal
//! the first untraced repetition's bit for bit (traced runs included,
//! which shows telemetry is inert). A run that fails a check counts in
//! `failed`.

mod layers;
mod measure;
mod replay;
mod scenario;

use df3_core::{FaultPlan, Platform, PlatformConfig, PlatformOutcome, RunTo};
use layers::Split;
use measure::{cpu_s, cpu_timed, floor, median, peak_rss_mb};
use replay::Replay;
use scenario::{Scenario, Workload};
use simcore::snapshot::{fingerprint, Snapshot, SnapshotWriter};
use simcore::time::{SimDuration, SimTime};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use workloads::job::JobStream;

const USAGE: &str =
    "usage: perfbench --workload <district_week|scale_800|mixed_flows|branch_sweep> \
                     --seed <n> --seconds <s> --trace <0|1> [--smoke]";

/// `Platform::new` samples taken before the timed section, so `setup_s`
/// is a floor over many even when few repetitions fit in `--seconds`.
const SETUP_SAMPLES: usize = 15;
/// Warm-up + encode samples of the branch sweep's set-up.
const SWEEP_SETUPS: usize = 3;

/// `(name, value, unit)` of one reported metric.
type Metric = (&'static str, f64, &'static str);

struct Args {
    name: String,
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
}

impl Args {
    fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut name, mut seed, mut seconds, mut trace, mut smoke) =
            (None, None, None, None, false);
        while let Some(flag) = it.next() {
            if flag == "--smoke" {
                smoke = true;
                continue;
            }
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => name = Some(value),
                "--seed" => {
                    seed = Some(
                        value
                            .parse::<u64>()
                            .map_err(|_| format!("--seed: not an unsigned integer: {value}"))?,
                    )
                }
                "--seconds" => {
                    seconds = Some(
                        value
                            .parse::<f64>()
                            .ok()
                            .filter(|s| *s > 0.0 && s.is_finite())
                            .ok_or_else(|| format!("--seconds: not a positive number: {value}"))?,
                    )
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace: want 0 or 1, got {value}")),
                    })
                }
                _ => return Err(format!("unknown flag: {flag}")),
            }
        }
        let name = name.ok_or("--workload is required")?;
        Ok(Args {
            workload: Workload::parse(&name).ok_or_else(|| format!("unknown workload: {name}"))?,
            name,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.ok_or("--trace is required")?,
            smoke,
        })
    }
}

/// Simulated edge and DCC quality of service of one run.
#[derive(Debug, Clone, Copy, Default)]
struct Qos {
    attainment: f64,
    p50_ms: f64,
    p99_ms: f64,
    dcc_slowdown: f64,
    /// Rejected + expired + abandoned edge requests over arrived ones.
    edge_fail_share: f64,
}

/// What one finished run contributes, taken before its outcome is
/// dropped. A sweep folds its branches into one.
#[derive(Debug, Clone, Default)]
struct Sim {
    /// Events this run dispatched (a branch counts only its own).
    events: u64,
    /// Stats fingerprint per simulation (one per branch of a sweep).
    fingerprints: Vec<u64>,
    qos: Qos,
    split: Split,
    peak_pending: u64,
    recorder_dropped: u64,
    /// Offloads that started their job: horizontal starts plus
    /// datacenter accepts.
    offloads_started: u64,
    worker_failures: u64,
    requeued: u64,
    /// Total and count of worker repair times, simulated seconds.
    repair_s: f64,
    repairs: u64,
}

impl Sim {
    /// Fold one sweep's branches: counts add up, each QoS figure is the
    /// median over branches.
    fn combine(branches: &[Sim]) -> Sim {
        if branches.is_empty() {
            return Sim::default();
        }
        let med = |f: fn(&Qos) -> f64| median(branches.iter().map(|b| f(&b.qos)));
        let mut total = Sim {
            qos: Qos {
                attainment: med(|q| q.attainment),
                p50_ms: med(|q| q.p50_ms),
                p99_ms: med(|q| q.p99_ms),
                dcc_slowdown: med(|q| q.dcc_slowdown),
                edge_fail_share: med(|q| q.edge_fail_share),
            },
            ..Sim::default()
        };
        for b in branches {
            total.events += b.events;
            total.fingerprints.extend(&b.fingerprints);
            total.split.add(&b.split);
            total.peak_pending = total.peak_pending.max(b.peak_pending);
            total.recorder_dropped += b.recorder_dropped;
            total.offloads_started += b.offloads_started;
            total.worker_failures += b.worker_failures;
            total.requeued += b.requeued;
            total.repair_s += b.repair_s;
            total.repairs += b.repairs;
        }
        total
    }
}

/// One timed repetition.
struct Timed {
    run_s: f64,
    sim: Sim,
}

/// Simulated runs attempted, and the ones that failed a check.
#[derive(Default)]
struct Checks {
    attempted: u64,
    failed: u64,
    notes: Vec<String>,
}

impl Checks {
    fn record(&mut self, problems: Vec<String>) {
        self.attempted += 1;
        if !problems.is_empty() {
            self.failed += 1;
            self.notes.extend(problems);
        }
    }
}

/// Summarise a finished run and check it: both job ledgers close, every
/// input arrival entered them, and (given a `reference`) the stats
/// fingerprint matches it bit for bit. `events_before` and
/// `offloads_before` are the counts at the snapshot a branch started
/// from.
fn summarise(
    out: &PlatformOutcome,
    arrivals: u64,
    events_before: u64,
    offloads_before: u64,
    reference: Option<u64>,
) -> (Sim, Vec<String>) {
    let s = &out.stats;
    let mut problems = Vec::new();
    let (edge_in, dcc_in) = (s.edge_arrived.get(), s.dcc_arrived.get());
    let edge_out = s.edge_terminal() + s.edge_in_flight_end;
    if edge_in != edge_out {
        problems.push(format!(
            "edge ledger: {edge_in} arrived, {edge_out} accounted"
        ));
    }
    let dcc_out = s.dcc_completed.get() + s.dcc_rejected.get() + s.dcc_in_flight_end;
    if dcc_in != dcc_out {
        problems.push(format!("DCC ledger: {dcc_in} arrived, {dcc_out} accounted"));
    }
    if edge_in + dcc_in != arrivals {
        problems.push(format!(
            "{} of {arrivals} input arrivals entered the ledger",
            edge_in + dcc_in
        ));
    }
    let mut w = SnapshotWriter::new();
    s.encode(&mut w);
    w.put_u64(out.events);
    let fp = fingerprint(&w.into_bytes());
    if reference.is_some_and(|r| r != fp) {
        problems.push("stats differ from the first untraced repetition".into());
    }
    let edge_failed = s.edge_rejected.get() + s.edge_expired.get() + s.jobs_abandoned.get();
    let sim = Sim {
        events: out.events - events_before,
        fingerprints: vec![fp],
        qos: Qos {
            attainment: s.edge_attainment(),
            p50_ms: s.edge_response_ms.p50(),
            p99_ms: s.edge_response_ms.p99(),
            dcc_slowdown: s.dcc_slowdown.mean(),
            edge_fail_share: if edge_in > 0 {
                edge_failed as f64 / edge_in as f64
            } else {
                0.0
            },
        },
        split: Split::of(&out.telemetry.profiler),
        peak_pending: out.peak_queue as u64,
        recorder_dropped: out.telemetry.recorder.dropped(),
        offloads_started: (s.offload_horizontal.get() + s.offload_vertical.get())
            .saturating_sub(offloads_before),
        worker_failures: s.worker_failures.get(),
        requeued: s.jobs_requeued.get(),
        repair_s: s.mttr_s.mean() * s.mttr_s.count() as f64,
        repairs: s.mttr_s.count(),
    };
    (sim, problems)
}

/// Everything a workload measured.
struct Measured {
    /// Set-up samples with telemetry off, seconds.
    setup_s: Vec<f64>,
    /// The untimed first untraced repetition: the checks' reference.
    reference: Sim,
    /// Process memory high-water mark right after the reference, MB.
    /// Taken there because the allocator's later reuse depends on how
    /// many repetitions fit in `--seconds`.
    rss_mb: f64,
    /// Timed repetitions with telemetry off and on.
    off: Vec<Timed>,
    on: Vec<Timed>,
    /// Snapshot size (bytes) and encode samples; the sweep only.
    snapshot_bytes: usize,
    encode_s: Vec<f64>,
}

/// Repeat until `--seconds` of wall time have passed and each side ran
/// at least once; with `--trace 1`, untraced and traced alternate.
fn repeat(args: &Args, mut rep: impl FnMut(bool) -> Timed) -> (Vec<Timed>, Vec<Timed>) {
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    let (mut off, mut on) = (Vec::new(), Vec::new());
    while Instant::now() < deadline || off.is_empty() || (args.trace && on.is_empty()) {
        let traced = args.trace && on.len() < off.len();
        let t = rep(traced);
        if traced {
            on.push(t);
        } else {
            off.push(t);
        }
    }
    (off, on)
}

/// District week, scale 800 and mixed flows: `Platform::new` is the
/// set-up, `run` over the whole horizon the timed section.
fn measure_runs(sc: &Scenario, args: &Args, jobs: &JobStream, checks: &mut Checks) -> Measured {
    let cfgs = [sc.config(false), sc.config(true)];
    let arrivals = sc.arrivals(jobs);
    let run = |traced: bool, reference: Option<u64>, checks: &mut Checks| {
        let (platform, setup_s) = cpu_timed(|| Platform::new(cfgs[usize::from(traced)].clone()));
        let (out, run_s) = cpu_timed(|| platform.run(jobs));
        let (sim, problems) = summarise(&out, arrivals, 0, 0, reference);
        checks.record(problems);
        (setup_s, Timed { run_s, sim })
    };
    let mut setup_s: Vec<f64> = (0..SETUP_SAMPLES)
        .map(|_| cpu_timed(|| Platform::new(cfgs[0].clone())).1)
        .collect();
    let reference = run(false, None, checks).1.sim;
    let rss_mb = peak_rss_mb();
    let fp = reference.fingerprints[0];
    let (off, on) = repeat(args, |traced| {
        let (s, t) = run(traced, Some(fp), checks);
        if !traced {
            setup_s.push(s);
        }
        t
    });
    Measured {
        setup_s,
        reference,
        rss_mb,
        off,
        on,
        snapshot_bytes: 0,
        encode_s: Vec::new(),
    }
}

/// A warm-up snapshot and what it cost.
struct SweepSetup {
    bytes: Vec<u8>,
    /// Events dispatched before the snapshot.
    events: u64,
    setup_s: Vec<f64>,
    encode_s: Vec<f64>,
}

/// The sweep's set-up, `reps` times: warm a platform to the branch
/// point and encode its snapshot. Every snapshot must be identical.
fn sweep_setup(
    cfg: &PlatformConfig,
    jobs: &JobStream,
    warm: SimDuration,
    reps: usize,
    checks: &mut Checks,
) -> SweepSetup {
    let mut setup: Option<SweepSetup> = None;
    for _ in 0..reps {
        let t0 = cpu_s();
        let RunTo::Paused(paused) = Platform::new(cfg.clone()).run_to(jobs, SimTime::ZERO + warm)
        else {
            unreachable!("the branch point lies inside the horizon");
        };
        let t1 = cpu_s();
        let bytes = paused.snapshot_bytes();
        let t2 = cpu_s();
        let s = setup.get_or_insert_with(|| SweepSetup {
            bytes: bytes.clone(),
            events: paused.events(),
            setup_s: Vec::new(),
            encode_s: Vec::new(),
        });
        checks.record(if s.bytes == bytes {
            Vec::new()
        } else {
            vec!["snapshot differs from the first set-up".into()]
        });
        s.setup_s.push(t2 - t0);
        s.encode_s.push(t2 - t1);
    }
    setup.expect("at least one set-up")
}

/// Offloads the warm-up started. `PausedRun` does not expose its stats,
/// so this replays the warm-up as a run whose horizon is the branch
/// point: the same weather prefix and event order, which the event
/// count confirms.
fn warm_up_offloads(
    cfg: &PlatformConfig,
    jobs: &JobStream,
    warm: SimDuration,
    events_at_snapshot: u64,
    checks: &mut Checks,
) -> u64 {
    let mut replica = cfg.clone();
    replica.horizon = warm;
    let out = Platform::new(replica).run(jobs);
    checks.record(if out.events == events_at_snapshot {
        Vec::new()
    } else {
        vec![format!(
            "a run to the branch point dispatched {} events, the warm-up {events_at_snapshot}",
            out.events
        )]
    });
    out.stats.offload_horizontal.get() + out.stats.offload_vertical.get()
}

/// One sweep: restore every branch from the snapshot and run it to the
/// horizon. Its time covers decode, platform rebuild and the run.
fn sweep(
    cfg: &PlatformConfig,
    plans: &[FaultPlan],
    snapshot: &[u8],
    arrivals: u64,
    offloads_before: u64,
    reference: Option<&[u64]>,
    checks: &mut Checks,
) -> Timed {
    let (mut run_s, mut decode_s) = (0.0, 0.0);
    let mut branches = Vec::with_capacity(plans.len());
    for (i, plan) in plans.iter().enumerate() {
        let mut branch = cfg.clone();
        branch.faults = plan.clone();
        let t0 = cpu_s();
        let restored = Platform::restore_branch(&cfg.faults, branch, snapshot);
        let t1 = cpu_s();
        let paused = match restored {
            Ok(p) => p,
            Err(e) => {
                checks.record(vec![format!("branch {i}: restore failed: {e}")]);
                continue;
            }
        };
        let events_before = paused.events();
        let out = paused.resume();
        run_s += cpu_s() - t0;
        decode_s += t1 - t0;
        let expected = reference.and_then(|r| r.get(i).copied());
        let (sim, problems) = summarise(&out, arrivals, events_before, offloads_before, expected);
        checks.record(
            problems
                .into_iter()
                .map(|p| format!("branch {i}: {p}"))
                .collect(),
        );
        branches.push(sim);
    }
    let mut sim = Sim::combine(&branches);
    sim.split.decode_s = decode_s;
    Timed { run_s, sim }
}

/// Branch sweep: the warm-up plus encode is the set-up; restoring and
/// running every branch is one timed repetition.
fn measure_sweep(sc: &Scenario, args: &Args, jobs: &JobStream, checks: &mut Checks) -> Measured {
    let shape = sc.sweep.expect("the sweep scenario has a sweep");
    let warm = SimDuration::from_hours(shape.warm_hours);
    let arrivals = sc.arrivals(jobs);
    let [off_cfg, on_cfg] = [sc.config(false), sc.config(true)];
    let plans: Vec<FaultPlan> = (0..shape.branches)
        .map(|i| sc.branch_plan(&off_cfg, args.seed, i))
        .collect();
    // Per-layer numbers come from traced set-ups, so a traced run takes
    // one untraced snapshot only.
    let off_setup = sweep_setup(
        &off_cfg,
        jobs,
        warm,
        if args.trace { 1 } else { SWEEP_SETUPS },
        checks,
    );
    let on_setup = args
        .trace
        .then(|| sweep_setup(&on_cfg, jobs, warm, SWEEP_SETUPS, checks));
    let offloads_before = match &on_setup {
        Some(s) => warm_up_offloads(&off_cfg, jobs, warm, s.events, checks),
        None => 0,
    };
    let reference = sweep(
        &off_cfg,
        &plans,
        &off_setup.bytes,
        arrivals,
        offloads_before,
        None,
        checks,
    )
    .sim;
    let rss_mb = peak_rss_mb();
    let (off, on) = repeat(args, |traced| {
        let (cfg, setup) = match &on_setup {
            Some(s) if traced => (&on_cfg, s),
            _ => (&off_cfg, &off_setup),
        };
        let fps = Some(reference.fingerprints.as_slice());
        sweep(
            cfg,
            &plans,
            &setup.bytes,
            arrivals,
            offloads_before,
            fps,
            checks,
        )
    });
    let shown = on_setup.as_ref().unwrap_or(&off_setup);
    Measured {
        setup_s: off_setup.setup_s.clone(),
        snapshot_bytes: shown.bytes.len(),
        encode_s: shown.encode_s.clone(),
        reference,
        rss_mb,
        off,
        on,
    }
}

fn end_to_end(m: &Measured) -> Vec<Metric> {
    let run_s = floor(m.off.iter().map(|t| t.run_s));
    let q = m.reference.qos;
    vec![
        ("run_s", run_s, "s"),
        ("events_per_s", m.reference.events as f64 / run_s, "1/s"),
        ("setup_s", floor(m.setup_s.iter().copied()), "s"),
        ("peak_rss_mb", m.rss_mb, "MB"),
        ("edge_attainment", q.attainment, "ratio"),
        ("edge_p50_ms", q.p50_ms, "ms"),
        ("edge_p99_ms", q.p99_ms, "ms"),
    ]
}

fn per_layer(m: &Measured, jobs: &JobStream, gen_s: f64, replay: &Replay) -> Vec<Metric> {
    let traced_run_s = median(m.on.iter().map(|t| t.run_s));
    let untraced_run_s = median(m.off.iter().map(|t| t.run_s));
    let splits: Vec<Split> = m.on.iter().map(|t| t.sim.split).collect();
    let split = Split::median(&splits);
    // Counts repeat exactly, so the first traced repetition's stand for all.
    let t = &m.on[0].sim;
    let per = |num: f64, den: u64| if den > 0 { num / den as f64 } else { 0.0 };
    let encode_s = if m.encode_s.is_empty() {
        0.0
    } else {
        median(m.encode_s.iter().copied())
    };
    let mut metrics = vec![
        ("workloads.jobs", jobs.len() as f64, "count"),
        ("workloads.gen_s", gen_s, "s"),
        ("simcore.engine.events", t.events as f64, "count"),
        (
            "simcore.engine.peak_pending",
            t.peak_pending as f64,
            "count",
        ),
        (
            "df3_core.placement.decisions",
            split.decisions as f64,
            "count",
        ),
        (
            "df3_core.placement.ns_per_decision",
            per(split.placement_s * 1e9, split.decisions),
            "ns",
        ),
        (
            "df3_core.placement.started_ratio",
            per(t.offloads_started as f64, split.decisions),
            "ratio",
        ),
        (
            "df3_core.dcc.slowdown_mean",
            m.reference.qos.dcc_slowdown,
            "ratio",
        ),
        ("sched.offload.decide_ns", replay.decide_ns, "ns"),
        ("df3_core.cluster.load_ns", replay.cluster_load_ns, "ns"),
        ("df3_core.control_tick.ticks", split.ticks as f64, "count"),
        (
            "thermal.batch.ns_per_room_step",
            replay.ns_per_room_step,
            "ns",
        ),
        (
            "df3_core.faults.worker_failures",
            t.worker_failures as f64,
            "count",
        ),
        ("df3_core.faults.requeued", t.requeued as f64, "count"),
        (
            "df3_core.faults.mttr_s",
            per(t.repair_s, t.repairs),
            "sim_s",
        ),
        ("simcore.snapshot.bytes", m.snapshot_bytes as f64, "bytes"),
        ("simcore.snapshot.encode_s", encode_s, "s"),
        (
            "simcore.telemetry.overhead_pct",
            (traced_run_s / untraced_run_s - 1.0) * 100.0,
            "%",
        ),
        (
            "simcore.telemetry.recorder_dropped",
            t.recorder_dropped as f64,
            "count",
        ),
        ("profile.traced_run_s", traced_run_s, "s"),
    ];
    let rows = split.rows();
    metrics.extend(rows.iter().map(|&(name, v)| (name, v, "s")));
    let attributed: f64 = rows.iter().map(|&(_, v)| v).sum();
    metrics.push(("profile.unattributed_s", traced_run_s - attributed, "s"));
    metrics
}

fn result_json(checks: &Checks, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|&(name, value, unit)| {
            let value = if value.is_finite() { value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        checks.failed == 0,
        checks.attempted,
        checks.failed,
        body.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let sc = args.workload.scenario(args.smoke);
    let (jobs, gen_s) = cpu_timed(|| sc.jobs(args.seed));
    let mut checks = Checks::default();
    let m = match sc.sweep {
        Some(_) => measure_sweep(&sc, &args, &jobs, &mut checks),
        None => measure_runs(&sc, &args, &jobs, &mut checks),
    };
    let metrics = if args.trace {
        per_layer(&m, &jobs, gen_s, &replay::run(&sc.config(false), &jobs))
    } else {
        end_to_end(&m)
    };
    let bad: Vec<&str> = metrics
        .iter()
        .filter(|&&(_, v, _)| !v.is_finite())
        .map(|&(name, _, _)| name)
        .collect();
    if !bad.is_empty() {
        checks.failed += 1;
        checks
            .notes
            .push(format!("non-finite metrics: {}", bad.join(", ")));
    }
    let verdict = if checks.notes.is_empty() {
        "all passed".to_string()
    } else {
        checks.notes[..checks.notes.len().min(5)].join("; ")
    };
    println!(
        "{} seed {}: {} untraced + {} traced timed repetitions; edge failure share {:.6}; checks: {verdict}",
        args.name,
        args.seed,
        m.off.len(),
        m.on.len(),
        m.reference.qos.edge_fail_share,
    );
    println!("{}", result_json(&checks, &metrics));
    ExitCode::SUCCESS
}
