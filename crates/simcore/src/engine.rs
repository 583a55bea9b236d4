//! The simulation engine: drives a user-supplied [`Model`] by popping the
//! future-event list and dispatching each event to the model, which may
//! schedule further events through the [`Scheduler`] facade.

use crate::event::{EventId, EventQueue};
use crate::snapshot::{Snapshot, SnapshotError, SnapshotReader, SnapshotWriter};
use crate::telemetry::{Phase, PhaseProfiler, HOT_PHASE_STRIDE};
use crate::time::{SimDuration, SimTime};

/// A discrete-event model. Implementations own all simulation state and
/// receive every event through [`Model::handle`].
///
/// Events reach the model from two sources: the [`Scheduler`]'s queue,
/// and an optional pre-sorted input stream the model holds itself
/// (exposed through [`Model::next_input`] and [`Model::take_input`]).
/// The engine merges the input stream ahead of the queue, so a long
/// open-loop arrival trace never has to sit in the queue: memory and
/// pop cost scale with the events in flight, not with the trace.
pub trait Model {
    /// The event alphabet of this model.
    type Event;

    /// Handle one event occurring at time `t`; schedule follow-ups via `sched`.
    fn handle(&mut self, t: SimTime, event: Self::Event, sched: &mut Scheduler<Self::Event>);

    /// Called once when the engine starts, to seed initial events.
    fn init(&mut self, _sched: &mut Scheduler<Self::Event>) {}

    /// Time of the next input the model wants dispatched, or `None`
    /// when its input stream is exhausted. Inputs must be
    /// non-decreasing in time and never earlier than the engine clock.
    /// An input wins a tie against queued events at the same instant,
    /// and one at or after the horizon counts as absent. Models without
    /// an input stream keep the default, `None`.
    fn next_input(&self) -> Option<SimTime> {
        None
    }

    /// Consume the input [`Model::next_input`] announced and return it
    /// as an event. The engine calls it only right after `next_input`
    /// returned `Some`.
    fn take_input(&mut self) -> Self::Event {
        unreachable!("take_input on a model that announced no input")
    }

    /// Called once after the main loop ends, before the engine returns.
    /// The place to reclaim per-run collectors living on the scheduler
    /// (e.g. [`Scheduler::profiler`]).
    fn finish(&mut self, _sched: &mut Scheduler<Self::Event>) {}
}

/// Scheduling facade handed to the model during event handling.
pub struct Scheduler<E> {
    now: SimTime,
    queue: EventQueue<E>,
    horizon: SimTime,
    /// Wall-clock phase profiler. Disabled (one branch per event) until
    /// a model enables it from `init`; the engine itself times the
    /// event-pop and dispatch phases, models time their own sub-phases.
    pub profiler: PhaseProfiler,
}

impl<E> Scheduler<E> {
    fn new(horizon: SimTime) -> Self {
        Scheduler {
            now: SimTime::ZERO,
            queue: EventQueue::new(),
            horizon,
            profiler: PhaseProfiler::disabled(),
        }
    }

    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// End of the simulation horizon (events at or after it never fire).
    pub fn horizon(&self) -> SimTime {
        self.horizon
    }

    /// Schedule `event` after `delay`. Panics on negative delay.
    pub fn after(&mut self, delay: SimDuration, event: E) -> EventId {
        assert!(!delay.is_negative(), "negative delay {delay:?}");
        self.queue.schedule(self.now + delay, event)
    }

    /// Schedule `event` at absolute time `at`. Panics if `at` is in the past.
    pub fn at(&mut self, at: SimTime, event: E) -> EventId {
        assert!(
            at >= self.now,
            "scheduling into the past: {at} < {}",
            self.now
        );
        self.queue.schedule(at, event)
    }

    /// Schedule `event` immediately (after all events already queued for
    /// the current instant, per the FIFO tie-break).
    pub fn immediately(&mut self, event: E) -> EventId {
        self.queue.schedule(self.now, event)
    }

    /// Cancel a scheduled event. Returns whether it was still pending.
    pub fn cancel(&mut self, id: EventId) -> bool {
        self.queue.cancel(id)
    }

    /// Number of events pending in the queue. Inputs the model still
    /// holds (see [`Model::next_input`]) are not counted.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// High-water mark of concurrently queued events so far; like
    /// [`Scheduler::pending`], it leaves the model's inputs out.
    pub fn peak_pending(&self) -> usize {
        self.queue.peak_depth()
    }
}

/// The scheduler checkpoints its clock and the event queue
/// **verbatim** (payloads included). The horizon is not state: it comes
/// from the caller's config on restore, so a snapshot cannot carry a
/// different one. Neither is the stop flag, which is always clear when
/// a run pauses (the engine checks it before it pauses). The phase
/// profiler is deliberately excluded: it measures wall-clock time of
/// this process, which is not simulation state — a restored run starts
/// a fresh one.
impl<E: Snapshot> Scheduler<E> {
    /// Checkpoint the clock and the queue.
    pub fn encode_state(&self, w: &mut SnapshotWriter) {
        self.now.encode(w);
        self.queue.encode(w);
    }

    /// Rebuild a scheduler that runs to `horizon` from a container of
    /// `version`. Version 4 also wrote the horizon and the stop flag
    /// after the clock; its horizon must equal `horizon` and its flag
    /// must be clear. The clock may not lie past the horizon, and no
    /// queued event before the clock.
    pub fn decode_state(
        r: &mut SnapshotReader<'_>,
        horizon: SimTime,
        version: u32,
    ) -> Result<Self, SnapshotError> {
        let now = SimTime::decode(r)?;
        if version < 5 {
            let written = SimTime::decode(r)?;
            if written != horizon {
                return Err(SnapshotError::Corrupt(format!(
                    "engine horizon {written} disagrees with the config's {horizon}"
                )));
            }
            if r.take_bool()? {
                return Err(SnapshotError::Corrupt("a paused engine was stopped".into()));
            }
        }
        if now > horizon {
            return Err(SnapshotError::Corrupt(format!(
                "engine clock {now} is past the horizon {horizon}"
            )));
        }
        let queue = EventQueue::decode(r)?;
        if queue.live().any(|(_, t, _)| t < now) {
            return Err(SnapshotError::Corrupt(format!(
                "event queue holds an event before the clock {now}"
            )));
        }
        Ok(Scheduler {
            now,
            horizon,
            queue,
            profiler: PhaseProfiler::disabled(),
        })
    }

    /// Every pending event as `(id, time, payload)`, in no particular
    /// order: what a restore cross-checks against the model's state.
    pub fn pending_events(&self) -> impl Iterator<Item = (EventId, SimTime, &E)> {
        self.queue.live()
    }
}

/// Outcome of an engine run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunSummary {
    /// Number of events dispatched.
    pub events: u64,
    /// Simulation time when the run ended.
    pub end_time: SimTime,
    /// Why the run ended.
    pub reason: StopReason,
    /// High-water mark of concurrently queued events (the model's
    /// input stream is not counted).
    pub peak_queue: usize,
}

/// Why an engine run terminated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopReason {
    /// The future-event list drained.
    QueueEmpty,
    /// The next event lay at or beyond the horizon.
    HorizonReached,
    /// The event budget was exhausted (runaway guard).
    EventBudget,
}

/// Result of [`Engine::run_until`]: either the run completed (drained,
/// hit the horizon, or exhausted its budget) or it paused at
/// the requested instant with all state intact for checkpointing.
pub enum EngineRun<M: Model> {
    /// The run reached `pause_at` and stopped *before* dispatching any
    /// event at or after it. `Model::finish` has **not** run; the
    /// engine can be snapshotted or resumed with another `run_until`.
    /// (Boxed: an engine is far larger than a run summary, and pausing
    /// happens at most once per leg.)
    Paused(Box<Engine<M>>),
    /// The run completed; `Model::finish` has run.
    Finished(M, RunSummary),
}

/// The discrete-event engine.
pub struct Engine<M: Model> {
    model: M,
    sched: Scheduler<M::Event>,
    /// Hard cap on dispatched events; guards against accidental infinite
    /// self-scheduling loops in models. Default: `u64::MAX`.
    pub event_budget: u64,
    /// Events dispatched so far — a field, not a loop local, so the
    /// count survives pause/resume and checkpoint/restore.
    events: u64,
    /// Whether `Model::init` has run (it must run exactly once per
    /// simulation, even across pause/resume and restore).
    initialised: bool,
}

impl<M: Model> Engine<M> {
    /// Create an engine that will run until `horizon` (exclusive).
    pub fn new(model: M, horizon: SimTime) -> Self {
        Engine {
            model,
            sched: Scheduler::new(horizon),
            event_budget: u64::MAX,
            events: 0,
            initialised: false,
        }
    }

    /// Rebuild an engine from checkpointed parts. `Model::init` will
    /// *not* run again: the scheduler's queue already holds the future
    /// the original `init` (and everything after it) scheduled, and the
    /// model carries its own remaining inputs.
    pub fn restored(model: M, sched: Scheduler<M::Event>, events: u64) -> Self {
        Engine {
            model,
            sched,
            event_budget: u64::MAX,
            events,
            initialised: true,
        }
    }

    /// Events dispatched so far.
    pub fn events(&self) -> u64 {
        self.events
    }

    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.sched.now
    }

    pub fn model(&self) -> &M {
        &self.model
    }

    pub fn scheduler(&self) -> &Scheduler<M::Event> {
        &self.sched
    }

    pub fn scheduler_mut(&mut self) -> &mut Scheduler<M::Event> {
        &mut self.sched
    }

    /// Run to completion and return the model plus a run summary.
    pub fn run(self) -> (M, RunSummary) {
        match self.run_until(SimTime::MAX) {
            EngineRun::Finished(m, s) => (m, s),
            // `pause_at == MAX` can never pause: every schedulable event
            // is strictly earlier.
            EngineRun::Paused(_) => unreachable!("run cannot pause at SimTime::MAX"),
        }
    }

    /// Run until the simulation ends or the clock is about to pass
    /// `pause_at`, whichever comes first. Events strictly before
    /// `pause_at` are dispatched; events at or after it stay queued.
    ///
    /// The horizon wins ties: a `pause_at` at or beyond the horizon
    /// never pauses, so the final leg of a resumed run finishes
    /// normally (including `Model::finish`).
    ///
    /// Each step dispatches the earlier of the model's next input and
    /// the queue's next event, the input on a tie. That is the order a
    /// model would get by scheduling every input at `init`: inputs
    /// would take the lowest sequence numbers, so at equal times they
    /// would pop first and in stream order.
    pub fn run_until(mut self, pause_at: SimTime) -> EngineRun<M> {
        if !self.initialised {
            self.model.init(&mut self.sched);
            self.initialised = true;
        }
        let reason = loop {
            if self.events >= self.event_budget {
                break StopReason::EventBudget;
            }
            // Per-event phases are sampled: two clock reads per event
            // would dominate the loop, so only one event per stride
            // pays them (see `HOT_PHASE_STRIDE`).
            let sample = self.events & (HOT_PHASE_STRIDE - 1) == 0;
            let t_pop = self.sched.profiler.start_if(sample);
            let input = self.model.next_input().filter(|&t| t < self.sched.horizon);
            let (next, from_input) = match (input, self.sched.queue.peek_time()) {
                // Strictly earlier: on a tie the input goes first.
                (Some(i), Some(q)) if q < i => (q, false),
                (Some(i), _) => (i, true),
                (None, Some(q)) => (q, false),
                (None, None) => break StopReason::QueueEmpty,
            };
            if next >= self.sched.horizon {
                break StopReason::HorizonReached;
            }
            if next >= pause_at {
                return EngineRun::Paused(Box::new(self));
            }
            let (t, ev) = if from_input {
                debug_assert!(
                    next >= self.sched.now,
                    "input at {next} is before now ({}): inputs must be \
                     non-decreasing and never in the past",
                    self.sched.now
                );
                (next, self.model.take_input())
            } else {
                self.sched.queue.pop().expect("peeked event vanished")
            };
            self.sched.profiler.stop(Phase::EventPop, t_pop);
            debug_assert!(t >= self.sched.now, "time went backwards");
            self.sched.now = t;
            let t_dispatch = self.sched.profiler.start_if(sample);
            self.model.handle(t, ev, &mut self.sched);
            self.sched.profiler.stop(Phase::Dispatch, t_dispatch);
            self.events += 1;
        };
        self.model.finish(&mut self.sched);
        let end_time = match reason {
            StopReason::HorizonReached => self.sched.horizon,
            _ => self.sched.now,
        };
        let peak_queue = self.sched.peak_pending();
        EngineRun::Finished(
            self.model,
            RunSummary {
                events: self.events,
                end_time,
                reason,
                peak_queue,
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A model that counts down: each event schedules the next one until zero.
    struct Countdown {
        remaining: u32,
        fired_at: Vec<SimTime>,
    }

    impl Model for Countdown {
        type Event = ();
        fn init(&mut self, sched: &mut Scheduler<()>) {
            sched.after(SimDuration::SECOND, ());
        }
        fn handle(&mut self, t: SimTime, _: (), sched: &mut Scheduler<()>) {
            self.fired_at.push(t);
            self.remaining -= 1;
            if self.remaining > 0 {
                sched.after(SimDuration::SECOND, ());
            }
        }
    }

    #[test]
    fn countdown_runs_to_queue_empty() {
        let (m, s) = Engine::new(
            Countdown {
                remaining: 5,
                fired_at: vec![],
            },
            SimTime::from_secs(100),
        )
        .run();
        assert_eq!(m.remaining, 0);
        assert_eq!(s.events, 5);
        assert_eq!(s.reason, StopReason::QueueEmpty);
        assert_eq!(
            m.fired_at,
            (1..=5).map(SimTime::from_secs).collect::<Vec<_>>()
        );
    }

    #[test]
    fn horizon_cuts_off() {
        let (m, s) = Engine::new(
            Countdown {
                remaining: 1000,
                fired_at: vec![],
            },
            SimTime::from_secs(3),
        )
        .run();
        // Events at t=1,2 fire; t=3 is at the horizon and does not.
        assert_eq!(m.fired_at.len(), 2);
        assert_eq!(s.reason, StopReason::HorizonReached);
        assert_eq!(s.end_time, SimTime::from_secs(3));
    }

    struct Runaway;
    impl Model for Runaway {
        type Event = ();
        fn init(&mut self, sched: &mut Scheduler<()>) {
            sched.immediately(());
        }
        fn handle(&mut self, _t: SimTime, _: (), sched: &mut Scheduler<()>) {
            sched.immediately(());
        }
    }

    #[test]
    fn event_budget_guards_runaway_models() {
        let mut engine = Engine::new(Runaway, SimTime::from_secs(1));
        engine.event_budget = 1_000;
        let (_, s) = engine.run();
        assert_eq!(s.reason, StopReason::EventBudget);
        assert_eq!(s.events, 1_000);
    }

    struct Canceller {
        cancelled_fired: bool,
    }
    impl Model for Canceller {
        type Event = &'static str;
        fn init(&mut self, sched: &mut Scheduler<&'static str>) {
            let doomed = sched.after(SimDuration::from_secs(5), "doomed");
            sched.after(SimDuration::from_secs(1), "keep");
            // Cancel from init itself.
            assert!(sched.cancel(doomed));
        }
        fn handle(&mut self, _t: SimTime, ev: &'static str, _s: &mut Scheduler<&'static str>) {
            if ev == "doomed" {
                self.cancelled_fired = true;
            }
        }
    }

    #[test]
    fn cancelled_events_never_fire() {
        let (m, s) = Engine::new(
            Canceller {
                cancelled_fired: false,
            },
            SimTime::from_secs(100),
        )
        .run();
        assert!(!m.cancelled_fired);
        assert_eq!(s.events, 1);
    }

    /// A model that switches the scheduler's profiler on in `init` and
    /// reclaims it in `finish` — the pattern the platform uses.
    struct Profiled {
        remaining: u32,
        collected: Option<crate::telemetry::PhaseProfiler>,
    }

    impl Model for Profiled {
        type Event = ();
        fn init(&mut self, sched: &mut Scheduler<()>) {
            sched.profiler = crate::telemetry::PhaseProfiler::enabled();
            sched.after(SimDuration::SECOND, ());
        }
        fn handle(&mut self, _t: SimTime, _: (), sched: &mut Scheduler<()>) {
            self.remaining -= 1;
            if self.remaining > 0 {
                sched.after(SimDuration::SECOND, ());
            }
        }
        fn finish(&mut self, sched: &mut Scheduler<()>) {
            self.collected = Some(std::mem::take(&mut sched.profiler));
        }
    }

    #[test]
    fn engine_times_pop_and_dispatch_when_profiling() {
        // Per-event phases are sampled one in HOT_PHASE_STRIDE, so run
        // enough events for exactly two samples per phase.
        let n = HOT_PHASE_STRIDE as u32 + 1;
        let (m, s) = Engine::new(
            Profiled {
                remaining: n,
                collected: None,
            },
            SimTime::from_secs(1_000),
        )
        .run();
        assert_eq!(s.events, u64::from(n));
        let prof = m.collected.expect("finish hook ran");
        assert_eq!(prof.acc(Phase::Dispatch).count, 2);
        assert_eq!(prof.acc(Phase::EventPop).count, 2);
        assert!(prof.acc(Phase::Dispatch).total_ns > 0 || prof.acc(Phase::EventPop).total_ns > 0);
    }

    #[test]
    fn profiler_defaults_to_disabled() {
        let (_, _) = Engine::new(
            Countdown {
                remaining: 2,
                fired_at: vec![],
            },
            SimTime::from_secs(100),
        )
        .run();
        // No panic, no profiling: the default path records nothing.
        let mut sched: Scheduler<()> = Scheduler::new(SimTime::from_secs(1));
        let phase = crate::telemetry::Phase::Dispatch;
        sched.profiler.record_ns(phase, 1);
        assert_eq!(sched.profiler.acc(phase).count, 0);
    }

    #[test]
    fn run_until_pauses_before_the_mark_and_resumes_identically() {
        let mk = || {
            Engine::new(
                Countdown {
                    remaining: 10,
                    fired_at: vec![],
                },
                SimTime::from_secs(100),
            )
        };
        let (ref_model, ref_summary) = mk().run();

        let paused = match mk().run_until(SimTime::from_secs(4)) {
            EngineRun::Paused(e) => e,
            EngineRun::Finished(..) => panic!("should pause"),
        };
        // Events at t=1..3 fired; the t=4 event is still queued.
        assert_eq!(paused.events(), 3);
        assert_eq!(paused.model().fired_at.len(), 3);
        assert_eq!(paused.scheduler().pending(), 1);
        let (m, s) = paused.run();
        assert_eq!(m.fired_at, ref_model.fired_at);
        assert_eq!(s, ref_summary);
    }

    #[test]
    fn pause_at_or_past_horizon_finishes_normally() {
        let e = Engine::new(
            Countdown {
                remaining: 1000,
                fired_at: vec![],
            },
            SimTime::from_secs(3),
        );
        match e.run_until(SimTime::from_secs(3)) {
            EngineRun::Finished(_, s) => {
                assert_eq!(s.reason, StopReason::HorizonReached);
                assert_eq!(s.end_time, SimTime::from_secs(3));
            }
            EngineRun::Paused(_) => panic!("horizon must win the tie"),
        }
    }

    #[test]
    fn scheduler_snapshot_restores_a_paused_run_bit_identically() {
        use crate::snapshot::{SnapshotReader, SnapshotWriter};

        let mk = || {
            Engine::new(
                Countdown {
                    remaining: 10,
                    fired_at: vec![],
                },
                SimTime::from_secs(100),
            )
        };
        let (ref_model, ref_summary) = mk().run();

        let paused = match mk().run_until(SimTime::from_secs(6)) {
            EngineRun::Paused(e) => e,
            EngineRun::Finished(..) => panic!("should pause"),
        };
        let mut w = SnapshotWriter::new();
        paused.scheduler().encode_state(&mut w);
        let events = paused.events();
        let fired_so_far = paused.model().fired_at.clone();
        let remaining = paused.model().remaining;
        drop(paused); // the "fresh process": nothing survives but bytes

        let bytes = w.into_bytes();
        let mut r = SnapshotReader::new(&bytes);
        let sched = Scheduler::decode_state(&mut r, SimTime::from_secs(100), 5).unwrap();
        r.expect_end().unwrap();
        let restored = Engine::restored(
            Countdown {
                remaining,
                fired_at: fired_so_far,
            },
            sched,
            events,
        );
        let (m, s) = restored.run();
        assert_eq!(m.fired_at, ref_model.fired_at);
        assert_eq!(s, ref_summary);
    }

    /// The horizon comes from the caller. A version-4 section's copy of
    /// it must agree and its stop flag must be clear; the clock may not
    /// pass the horizon, and no event may wait before the clock.
    #[test]
    fn decode_state_checks_the_clock_and_the_horizon() {
        use crate::snapshot::{SnapshotReader, SnapshotWriter};
        let h = SimTime::from_secs(100);
        let decode = |bytes: &[u8], version| {
            Scheduler::<u64>::decode_state(&mut SnapshotReader::new(bytes), h, version)
                .map(|s| (s.now(), s.horizon(), s.pending()))
        };
        let section = |now: i64, horizon: Option<(i64, bool)>, at: i64| {
            let mut q = EventQueue::new();
            q.schedule(SimTime::from_secs(at), 7u64);
            let mut w = SnapshotWriter::new();
            SimTime::from_secs(now).encode(&mut w);
            if let Some((horizon, stopped)) = horizon {
                SimTime::from_secs(horizon).encode(&mut w);
                w.put_bool(stopped);
            }
            q.encode(&mut w);
            w.into_bytes()
        };
        let ok = Ok((SimTime::from_secs(10), h, 1));
        assert_eq!(decode(&section(10, None, 20), 5), ok);
        assert_eq!(decode(&section(10, Some((100, false)), 20), 4), ok);
        let corrupt = |what: &str| Err(SnapshotError::Corrupt(what.into()));
        assert_eq!(
            decode(&section(10, Some((9_999, false)), 20), 4),
            corrupt("engine horizon d0+02:46:39 disagrees with the config's d0+00:01:40")
        );
        assert_eq!(
            decode(&section(10, Some((100, true)), 20), 4),
            corrupt("a paused engine was stopped")
        );
        assert_eq!(
            decode(&section(101, None, 120), 5),
            corrupt("engine clock d0+00:01:41 is past the horizon d0+00:01:40")
        );
        assert_eq!(
            decode(&section(10, None, 5), 5),
            corrupt("event queue holds an event before the clock d0+00:00:10")
        );
    }

    #[test]
    #[should_panic]
    fn scheduling_into_the_past_panics() {
        struct Bad;
        impl Model for Bad {
            type Event = ();
            fn init(&mut self, sched: &mut Scheduler<()>) {
                sched.after(SimDuration::from_secs(10), ());
            }
            fn handle(&mut self, _t: SimTime, _: (), sched: &mut Scheduler<()>) {
                sched.at(SimTime::from_secs(1), ());
            }
        }
        let _ = Engine::new(Bad, SimTime::from_secs(100)).run();
    }

    /// The pre-merge way to feed inputs, kept as the oracle: schedule
    /// every pre-horizon input into the queue at init, ahead of the
    /// wrapped model's own init, and never expose an input stream.
    struct AllAtInit<M>(M);

    impl<M: Model> Model for AllAtInit<M> {
        type Event = M::Event;
        fn init(&mut self, sched: &mut Scheduler<M::Event>) {
            while let Some(t) = self.0.next_input().filter(|&t| t < sched.horizon()) {
                let ev = self.0.take_input();
                sched.at(t, ev);
            }
            self.0.init(sched);
        }
        fn handle(&mut self, t: SimTime, ev: M::Event, sched: &mut Scheduler<M::Event>) {
            self.0.handle(t, ev, sched);
        }
        fn finish(&mut self, sched: &mut Scheduler<M::Event>) {
            self.0.finish(sched);
        }
    }

    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum Ev {
        Input(usize),
        Queued(u32),
    }

    /// A model with a sorted input stream whose handler schedules
    /// follow-ups at random delays (zero included, so they tie with
    /// inputs), schedules `immediately`, and cancels earlier events.
    /// Its random draws happen in dispatch order, so two runs agree on
    /// every draw exactly when they agree on the event order.
    struct Merged {
        inputs: Vec<SimTime>,
        next: usize,
        rng: rand_chacha::ChaCha8Rng,
        ids: Vec<EventId>,
        queued: u32,
        budget: u32,
        log: Vec<(SimTime, Ev)>,
    }

    impl Merged {
        fn new(inputs: Vec<SimTime>, seed: u64, budget: u32) -> Self {
            debug_assert!(inputs.windows(2).all(|w| w[0] <= w[1]));
            Merged {
                inputs,
                next: 0,
                rng: crate::rng::RngStreams::new(seed).stream("merge"),
                ids: Vec::new(),
                queued: 0,
                budget,
                log: Vec::new(),
            }
        }

        fn schedule_some(&mut self, sched: &mut Scheduler<Ev>) {
            use rand::Rng;
            for _ in 0..self.rng.gen_range(0..3) {
                if self.queued == self.budget {
                    return;
                }
                let ev = Ev::Queued(self.queued);
                self.queued += 1;
                let id = match self.rng.gen_range(0..4) {
                    0 => sched.immediately(ev),
                    _ => sched.after(SimDuration::from_secs(self.rng.gen_range(0..4)), ev),
                };
                self.ids.push(id);
            }
            if !self.ids.is_empty() && self.rng.gen_range(0..4) == 0 {
                let victim = self.ids[self.rng.gen_range(0..self.ids.len())];
                sched.cancel(victim);
            }
        }
    }

    impl Model for Merged {
        type Event = Ev;
        fn init(&mut self, sched: &mut Scheduler<Ev>) {
            self.schedule_some(sched);
        }
        fn handle(&mut self, t: SimTime, ev: Ev, sched: &mut Scheduler<Ev>) {
            self.log.push((t, ev));
            self.schedule_some(sched);
        }
        fn next_input(&self) -> Option<SimTime> {
            self.inputs.get(self.next).copied()
        }
        fn take_input(&mut self) -> Ev {
            self.next += 1;
            Ev::Input(self.next - 1)
        }
    }

    fn sorted_secs(mut secs: Vec<i64>) -> Vec<SimTime> {
        secs.sort_unstable();
        secs.into_iter().map(SimTime::from_secs).collect()
    }

    /// Run `engine` to completion, pausing once at `pause_at` if it
    /// gets there (a pause must not change the order either).
    fn run_with_pause<M: Model>(engine: Engine<M>, pause_at: SimTime) -> (M, RunSummary) {
        match engine.run_until(pause_at) {
            EngineRun::Paused(e) => e.run(),
            EngineRun::Finished(m, s) => (m, s),
        }
    }

    use proptest::prelude::*;

    proptest! {
        /// Streaming inputs through the model hooks dispatches exactly
        /// the `(time, event)` sequence that scheduling them all at init
        /// does, with the same event count, end time and stop reason.
        #[test]
        fn streamed_inputs_match_scheduling_them_at_init(
            input_secs in collection::vec(0i64..30, 1..60),
            seed in 0u64..1_000_000,
            horizon_s in 5i64..40,
            pause_s in 0i64..45,
            budget in 0u32..300,
        ) {
            let inputs = sorted_secs(input_secs);
            let horizon = SimTime::from_secs(horizon_s);
            let pause = SimTime::from_secs(pause_s);
            let (streamed, s) = run_with_pause(
                Engine::new(Merged::new(inputs.clone(), seed, budget), horizon),
                pause,
            );
            let (oracle, o) = run_with_pause(
                Engine::new(AllAtInit(Merged::new(inputs, seed, budget)), horizon),
                pause,
            );
            prop_assert_eq!(streamed.log, oracle.0.log);
            prop_assert_eq!(
                (s.events, s.end_time, s.reason),
                (o.events, o.end_time, o.reason)
            );
            prop_assert!(s.peak_queue <= o.peak_queue);
        }
    }

    #[test]
    fn inputs_at_or_after_the_horizon_count_as_absent() {
        let inputs = sorted_secs(vec![1, 2, 10, 12]);
        let run = |inputs: Vec<SimTime>| {
            Engine::new(Merged::new(inputs, 0, 0), SimTime::from_secs(10)).run()
        };
        let (m, s) = run(inputs.clone());
        // The queue drains at t = 2; the inputs at 10 and 12 lie at or
        // past the horizon, so the run ends as it did when they were
        // never scheduled.
        assert_eq!(m.log.len(), 2);
        assert_eq!(s.reason, StopReason::QueueEmpty);
        assert_eq!(s.end_time, SimTime::from_secs(2));
        assert_eq!(s.peak_queue, 0);
        let (_, o) =
            Engine::new(AllAtInit(Merged::new(inputs, 0, 0)), SimTime::from_secs(10)).run();
        assert_eq!(
            (s.events, s.end_time, s.reason),
            (o.events, o.end_time, o.reason)
        );
        // A run with no inputs at all is the same.
        let (_, empty) = run(Vec::new());
        assert_eq!((empty.events, empty.reason), (0, StopReason::QueueEmpty));
        assert_eq!(empty.end_time, SimTime::ZERO);
    }

    /// Two inputs and a queued event share t = 3. Pausing at 3 leaves
    /// all three undispatched, and resuming dispatches the inputs first,
    /// in stream order, exactly as an unpaused run does.
    #[test]
    fn pause_at_equal_time_inputs_keeps_them_in_stream_order() {
        struct Tied(Merged);
        impl Model for Tied {
            type Event = Ev;
            fn init(&mut self, sched: &mut Scheduler<Ev>) {
                sched.at(SimTime::from_secs(3), Ev::Queued(0));
            }
            fn handle(&mut self, t: SimTime, ev: Ev, _: &mut Scheduler<Ev>) {
                self.0.log.push((t, ev));
            }
            fn next_input(&self) -> Option<SimTime> {
                self.0.next_input()
            }
            fn take_input(&mut self) -> Ev {
                self.0.take_input()
            }
        }
        let mk = || {
            let inputs = sorted_secs(vec![1, 3, 3, 5]);
            Engine::new(Tied(Merged::new(inputs, 0, 0)), SimTime::from_secs(100))
        };
        let paused = match mk().run_until(SimTime::from_secs(3)) {
            EngineRun::Paused(e) => e,
            EngineRun::Finished(..) => panic!("should pause"),
        };
        assert_eq!(paused.events(), 1);
        assert_eq!(paused.model().0.next, 1);
        assert_eq!(paused.scheduler().pending(), 1);
        let (m, s) = paused.run();
        let t = SimTime::from_secs;
        assert_eq!(
            m.0.log,
            vec![
                (t(1), Ev::Input(0)),
                (t(3), Ev::Input(1)),
                (t(3), Ev::Input(2)),
                (t(3), Ev::Queued(0)),
                (t(5), Ev::Input(3)),
            ]
        );
        let (unpaused, u) = mk().run();
        assert_eq!(m.0.log, unpaused.0.log);
        assert_eq!(s, u);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "inputs must be non-decreasing and never in the past")]
    fn decreasing_inputs_panic_in_debug_builds() {
        let mut m = Merged::new(Vec::new(), 0, 0);
        m.inputs = sorted_secs(vec![2, 5]);
        m.inputs.push(SimTime::from_secs(3));
        let _ = Engine::new(m, SimTime::from_secs(100)).run();
    }
}
