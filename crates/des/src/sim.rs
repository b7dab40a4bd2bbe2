//! The discrete-event kernel.
//!
//! Design notes:
//!
//! * Events are a user-defined type `M::Event`; the kernel never
//!   inspects them. This keeps the hot path monomorphic — no boxing,
//!   no dynamic dispatch per event.
//! * The priority queue orders by `(time, sequence)`. The sequence
//!   number is assigned at scheduling time, so two events at the same
//!   instant are delivered in the order they were scheduled. This is
//!   what makes runs reproducible across platforms: `f64` ties are
//!   broken deterministically.
//! * The queue itself is a [`CalendarQueue`], a binary min-heap with
//!   the payloads inline (the name is historical). Any structure that
//!   pops in `(time, seq)` order gives the same traces, so the
//!   campaign artifacts built from them do not depend on it.
//! * Handlers receive a [`Ctx`], which lets them read the clock, draw
//!   random numbers, schedule further events, and request a stop. New
//!   events go straight into the queue (the `Ctx` borrows it), so
//!   there is no per-event buffer allocation.

use crate::calendar::CalendarQueue;
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// A simulation model: owns all mutable world state and handles events.
pub trait Model {
    /// The event alphabet of this model.
    type Event;

    /// Handle one event. `ctx` provides the clock, RNG, and scheduling.
    fn handle(&mut self, event: Self::Event, ctx: &mut Ctx<'_, Self::Event>);
}

/// Handler-side view of the simulation: clock, RNG, scheduling, stop.
pub struct Ctx<'a, E> {
    now: f64,
    seq: &'a mut u64,
    queue: &'a mut CalendarQueue<E>,
    rng: &'a mut SmallRng,
    stop: &'a mut bool,
}

impl<'a, E> Ctx<'a, E> {
    /// Current simulation time.
    #[inline]
    pub fn now(&self) -> f64 {
        self.now
    }

    /// Schedule `event` to fire `delay` time units from now.
    ///
    /// # Panics
    /// Panics if `delay` is negative or non-finite — scheduling into
    /// the past is always a model bug and must fail loudly.
    pub fn schedule(&mut self, delay: f64, event: E) {
        assert!(
            delay.is_finite() && delay >= 0.0,
            "schedule: delay must be finite and nonnegative, got {delay}"
        );
        let seq = *self.seq;
        *self.seq += 1;
        dra_telemetry::des_scheduled();
        self.queue.push(self.now + delay, seq, event);
    }

    /// Schedule `event` at absolute time `at` (must be ≥ now).
    pub fn schedule_at(&mut self, at: f64, event: E) {
        assert!(
            at.is_finite() && at >= self.now,
            "schedule_at: time {at} is before now ({})",
            self.now
        );
        let seq = *self.seq;
        *self.seq += 1;
        dra_telemetry::des_scheduled();
        self.queue.push(at, seq, event);
    }

    /// The simulation's random number generator.
    #[inline]
    pub fn rng(&mut self) -> &mut SmallRng {
        self.rng
    }

    /// Ask the kernel to stop after this handler returns.
    pub fn request_stop(&mut self) {
        *self.stop = true;
    }
}

/// The simulation executive: owns the model, the clock, the queue, and
/// the RNG.
///
/// ```
/// use dra_des::{Ctx, Model, Simulation};
///
/// // A counter that reschedules itself until it has ticked 3 times.
/// struct Ticker { ticks: u32 }
/// impl Model for Ticker {
///     type Event = ();
///     fn handle(&mut self, _: (), ctx: &mut Ctx<'_, ()>) {
///         self.ticks += 1;
///         if self.ticks < 3 {
///             ctx.schedule(1.5, ());
///         }
///     }
/// }
///
/// let mut sim = Simulation::new(Ticker { ticks: 0 }, 42);
/// sim.schedule(0.0, ());
/// sim.run_to_completion();
/// assert_eq!(sim.model().ticks, 3);
/// assert_eq!(sim.now(), 3.0);
/// ```
pub struct Simulation<M: Model> {
    model: M,
    queue: CalendarQueue<M::Event>,
    now: f64,
    seq: u64,
    rng: SmallRng,
    stop: bool,
    events_processed: u64,
}

impl<M: Model> Simulation<M> {
    /// Create a simulation over `model`, seeded deterministically.
    pub fn new(model: M, seed: u64) -> Self {
        Simulation {
            model,
            queue: CalendarQueue::new(),
            now: 0.0,
            seq: 0,
            rng: SmallRng::seed_from_u64(seed),
            stop: false,
            events_processed: 0,
        }
    }

    /// Current simulation time.
    #[inline]
    pub fn now(&self) -> f64 {
        self.now
    }

    /// Number of events delivered so far.
    #[inline]
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// Number of events currently pending.
    #[inline]
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Borrow the model (for reading metrics after/between runs).
    #[inline]
    pub fn model(&self) -> &M {
        &self.model
    }

    /// Mutably borrow the model (e.g. to reconfigure between phases).
    #[inline]
    pub fn model_mut(&mut self) -> &mut M {
        &mut self.model
    }

    /// Consume the simulation, returning the model.
    pub fn into_model(self) -> M {
        self.model
    }

    /// Schedule an event from outside a handler (initial conditions).
    pub fn schedule(&mut self, delay: f64, event: M::Event) {
        assert!(
            delay.is_finite() && delay >= 0.0,
            "schedule: delay must be finite and nonnegative, got {delay}"
        );
        let seq = self.seq;
        self.seq += 1;
        dra_telemetry::des_scheduled();
        self.queue.push(self.now + delay, seq, event);
    }

    /// Deliver the next event, if any. Returns its timestamp.
    pub fn step(&mut self) -> Option<f64> {
        if self.stop {
            return None;
        }
        let (time, _seq, event) = self.queue.pop()?;
        debug_assert!(time >= self.now, "time went backwards");
        self.now = time;
        self.events_processed += 1;
        dra_telemetry::des_event(self.now, self.queue.len());
        let mut ctx = Ctx {
            now: self.now,
            seq: &mut self.seq,
            queue: &mut self.queue,
            rng: &mut self.rng,
            stop: &mut self.stop,
        };
        self.model.handle(event, &mut ctx);
        Some(self.now)
    }

    /// Run until the queue empties, `horizon` is reached, or a handler
    /// requests a stop. Events stamped after `horizon` stay queued and
    /// the clock is advanced exactly to `horizon`.
    ///
    /// Returns the number of events delivered by this call.
    pub fn run_until(&mut self, horizon: f64) -> u64 {
        assert!(horizon.is_finite() && horizon >= self.now);
        let start = self.events_processed;
        while !self.stop {
            // One bounded pop both checks the head against the horizon
            // and removes it when in range.
            let Some((time, _seq, event)) = self.queue.pop_at_or_before(horizon) else {
                break;
            };
            debug_assert!(time >= self.now, "time went backwards");
            self.now = time;
            self.events_processed += 1;
            dra_telemetry::des_event(self.now, self.queue.len());
            let mut ctx = Ctx {
                now: self.now,
                seq: &mut self.seq,
                queue: &mut self.queue,
                rng: &mut self.rng,
                stop: &mut self.stop,
            };
            self.model.handle(event, &mut ctx);
        }
        if !self.stop {
            self.now = horizon;
        }
        self.events_processed - start
    }

    /// Run until no events remain or a handler stops the simulation.
    pub fn run_to_completion(&mut self) -> u64 {
        let start = self.events_processed;
        while !self.stop && self.step().is_some() {}
        self.events_processed - start
    }

    /// True when a handler has requested a stop.
    pub fn stopped(&self) -> bool {
        self.stop
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A model that records the order events arrive in.
    struct Recorder {
        seen: Vec<(f64, u32)>,
        chain: bool,
        stop_at: Option<u32>,
    }

    impl Model for Recorder {
        type Event = u32;
        fn handle(&mut self, event: u32, ctx: &mut Ctx<'_, u32>) {
            self.seen.push((ctx.now(), event));
            if let Some(s) = self.stop_at {
                if event == s {
                    ctx.request_stop();
                    return;
                }
            }
            if self.chain && event < 5 {
                ctx.schedule(1.0, event + 1);
            }
        }
    }

    fn recorder() -> Recorder {
        Recorder {
            seen: Vec::new(),
            chain: false,
            stop_at: None,
        }
    }

    #[test]
    fn events_delivered_in_time_order() {
        let mut sim = Simulation::new(recorder(), 1);
        sim.schedule(3.0, 30);
        sim.schedule(1.0, 10);
        sim.schedule(2.0, 20);
        sim.run_to_completion();
        assert_eq!(sim.model().seen, vec![(1.0, 10), (2.0, 20), (3.0, 30)]);
    }

    #[test]
    fn ties_broken_by_scheduling_order() {
        let mut sim = Simulation::new(recorder(), 1);
        sim.schedule(1.0, 1);
        sim.schedule(1.0, 2);
        sim.schedule(1.0, 3);
        sim.run_to_completion();
        let events: Vec<u32> = sim.model().seen.iter().map(|&(_, e)| e).collect();
        assert_eq!(events, vec![1, 2, 3]);
    }

    #[test]
    fn handlers_can_schedule_followups() {
        let mut sim = Simulation::new(
            Recorder {
                seen: Vec::new(),
                chain: true,
                stop_at: None,
            },
            1,
        );
        sim.schedule(0.0, 1);
        sim.run_to_completion();
        let events: Vec<u32> = sim.model().seen.iter().map(|&(_, e)| e).collect();
        assert_eq!(events, vec![1, 2, 3, 4, 5]);
        assert_eq!(sim.now(), 4.0);
        assert_eq!(sim.events_processed(), 5);
    }

    #[test]
    fn run_until_respects_horizon() {
        let mut sim = Simulation::new(recorder(), 1);
        sim.schedule(1.0, 1);
        sim.schedule(5.0, 2);
        let n = sim.run_until(3.0);
        assert_eq!(n, 1);
        assert_eq!(sim.now(), 3.0);
        assert_eq!(sim.pending(), 1);
        // Continue to the end.
        sim.run_until(10.0);
        assert_eq!(sim.model().seen.len(), 2);
        assert_eq!(sim.now(), 10.0);
    }

    #[test]
    fn stop_request_halts_immediately() {
        let mut sim = Simulation::new(
            Recorder {
                seen: Vec::new(),
                chain: true,
                stop_at: Some(3),
            },
            1,
        );
        sim.schedule(0.0, 1);
        sim.run_to_completion();
        let events: Vec<u32> = sim.model().seen.iter().map(|&(_, e)| e).collect();
        assert_eq!(events, vec![1, 2, 3]);
        assert!(sim.stopped());
        // Further stepping does nothing.
        assert!(sim.step().is_none());
    }

    #[test]
    fn determinism_same_seed_same_trace() {
        // A model that uses the RNG to decide delays.
        struct Jitter {
            trace: Vec<f64>,
        }
        impl Model for Jitter {
            type Event = u32;
            fn handle(&mut self, ev: u32, ctx: &mut Ctx<'_, u32>) {
                use rand::Rng;
                self.trace.push(ctx.now());
                if ev < 20 {
                    let d: f64 = ctx.rng().gen_range(0.0..2.0);
                    ctx.schedule(d, ev + 1);
                }
            }
        }
        let run = |seed| {
            let mut sim = Simulation::new(Jitter { trace: Vec::new() }, seed);
            sim.schedule(0.0, 0);
            sim.run_to_completion();
            sim.into_model().trace
        };
        assert_eq!(run(42), run(42));
        assert_ne!(run(42), run(43));
    }

    #[test]
    #[should_panic(expected = "nonnegative")]
    fn negative_delay_panics() {
        let mut sim = Simulation::new(recorder(), 1);
        sim.schedule(-1.0, 1);
    }

    #[test]
    fn schedule_at_absolute() {
        struct At;
        impl Model for At {
            type Event = u8;
            fn handle(&mut self, ev: u8, ctx: &mut Ctx<'_, u8>) {
                if ev == 0 {
                    ctx.schedule_at(7.5, 1);
                }
            }
        }
        let mut sim = Simulation::new(At, 1);
        sim.schedule(1.0, 0);
        sim.run_to_completion();
        assert_eq!(sim.now(), 7.5);
    }

    #[test]
    fn empty_simulation_is_fine() {
        let mut sim = Simulation::new(recorder(), 1);
        assert_eq!(sim.run_to_completion(), 0);
        assert_eq!(sim.now(), 0.0);
    }
}
