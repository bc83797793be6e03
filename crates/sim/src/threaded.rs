//! A genuinely concurrent actor runtime.
//!
//! One OS thread per object, `std::sync::mpsc` channels for remote calls,
//! and a shared linearizing event log behind a `std::sync::Mutex`: the
//! order in which call events enter the log is the run's communication
//! trace.  The event is logged by the *sender* at send time, which matches
//! the trace semantics (a remote call is one observable event, not a
//! send/receive pair — the paper models asynchrony by splitting a call
//! into two *events of different methods* when needed, cf. Example 1's
//! footnote).
//!
//! Runs are governed by a [`RunConfig`]: an event budget, a wall-clock
//! deadline, a quiescence window, and a [`FaultPlan`] consulted at every
//! send.  *Which* messages get injured is a pure function of message
//! identity and therefore identical across same-seed runs even here; the
//! *order* of fault-log records and of logged events is OS-scheduled and
//! not reproducible (use [`SupervisedRun`](crate::SupervisedRun) over the
//! deterministic scheduler when byte-identical runs are required).
//!
//! Shutdown protocol: each object thread processes messages until the
//! runtime closes the channels; the runtime stops once the log reaches its
//! event budget, the system quiesces, or the deadline expires — never a
//! hang, even under total message loss.

use crate::behavior::{Action, ObjectBehavior};
use crate::fault::{FaultDecision, FaultKind, FaultLog, FaultPlan, FaultRecord};
use crate::run::{RunConfig, RunOutcome, StopReason};
use pospec_trace::{Arg, Event, MethodId, ObjectId, Trace};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread;
use std::time::{Duration, Instant};

#[derive(Debug, Clone, Copy)]
enum Msg {
    Call {
        from: ObjectId,
        method: MethodId,
        arg: Arg,
    },
    /// Spontaneous-step request.
    Tick,
}

/// Lock `m`; a worker that panicked while holding it does not poison it
/// for the others.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A message parked by a `Delay` fault, due for delivery at `due`.
struct Parked {
    due: Instant,
    from: ObjectId,
    to: ObjectId,
    method: MethodId,
    arg: Arg,
}

struct Shared {
    log: Mutex<Vec<Event>>,
    senders: HashMap<ObjectId, Sender<Msg>>,
    budget: usize,
    done: AtomicBool,
    plan: FaultPlan,
    poll: Duration,
    pair_seq: Mutex<HashMap<(ObjectId, ObjectId), u64>>,
    faults: Mutex<FaultLog>,
    delayed: Mutex<Vec<Parked>>,
    /// Crashed objects and when they come back up.
    down: Mutex<HashMap<ObjectId, Instant>>,
}

impl Shared {
    /// The fault-log position counter: records are stamped with the log
    /// length at injection time.
    fn now_at(&self) -> u64 {
        lock(&self.log).len() as u64
    }

    fn record(&self, r: FaultRecord) {
        lock(&self.faults).push(r);
    }

    /// Consult the fault plan, then record and forward one call; returns
    /// false once the budget is exhausted.
    fn send_call(&self, from: ObjectId, action: Action) -> bool {
        if action.to == from {
            return true; // internal activity: invisible
        }
        if !self.plan.is_fault_free() {
            let seq = {
                let mut m = lock(&self.pair_seq);
                let e = m.entry((from, action.to)).or_insert(0);
                let s = *e;
                *e += 1;
                s
            };
            match self.plan.decide(from, action.to, action.method, seq) {
                FaultDecision::Deliver => {}
                FaultDecision::Drop => {
                    self.record(FaultRecord::message(
                        self.now_at(),
                        FaultKind::Drop,
                        from,
                        action.to,
                        action.method,
                    ));
                    return true;
                }
                FaultDecision::Delay(steps) => {
                    self.record(FaultRecord::message(
                        self.now_at(),
                        FaultKind::Delay { steps },
                        from,
                        action.to,
                        action.method,
                    ));
                    lock(&self.delayed).push(Parked {
                        due: Instant::now() + self.poll * steps,
                        from,
                        to: action.to,
                        method: action.method,
                        arg: action.arg,
                    });
                    return true;
                }
                FaultDecision::Duplicate => {
                    self.record(FaultRecord::message(
                        self.now_at(),
                        FaultKind::Duplicate,
                        from,
                        action.to,
                        action.method,
                    ));
                    // The extra copy, then fall through to the original.
                    if !self.deliver(from, action.to, action.method, action.arg) {
                        return false;
                    }
                }
            }
        }
        self.deliver(from, action.to, action.method, action.arg)
    }

    /// Log and forward one (post-plan) message; returns false once the
    /// budget is exhausted.
    fn deliver(&self, from: ObjectId, to: ObjectId, method: MethodId, arg: Arg) -> bool {
        if !self.plan.is_fault_free() {
            let is_down = lock(&self.down).get(&to).is_some_and(|&up| Instant::now() < up);
            if is_down {
                self.record(FaultRecord::message(
                    self.now_at(),
                    FaultKind::DeadLetter,
                    from,
                    to,
                    method,
                ));
                return true;
            }
        }
        {
            let mut log = lock(&self.log);
            if log.len() >= self.budget {
                self.done.store(true, Ordering::Release);
                return false;
            }
            log.push(Event::new(from, to, method, arg).expect("self-calls filtered above"));
        }
        if let Some(tx) = self.senders.get(&to) {
            let _ = tx.send(Msg::Call { from, method, arg });
        }
        true
    }

    /// Deliver every parked message whose due time has passed; returns
    /// whether any parked messages remain.
    fn flush_delayed(&self) -> bool {
        let (due, remain) = {
            let mut parked = lock(&self.delayed);
            if parked.is_empty() {
                return false;
            }
            let now = Instant::now();
            let mut due = Vec::new();
            let mut keep = Vec::new();
            for p in parked.drain(..) {
                if p.due <= now {
                    due.push(p);
                } else {
                    keep.push(p);
                }
            }
            let remain = !keep.is_empty();
            *parked = keep;
            (due, remain)
        };
        for p in due {
            self.deliver(p.from, p.to, p.method, p.arg);
        }
        remain
    }
}

/// The concurrent runtime.
pub struct ThreadedRuntime {
    behaviors: Vec<Box<dyn ObjectBehavior>>,
    seed: u64,
}

impl ThreadedRuntime {
    /// A runtime whose objects' tick RNGs derive from `seed` (the
    /// interleaving itself is scheduled by the OS and not deterministic).
    pub fn new(seed: u64) -> Self {
        ThreadedRuntime { behaviors: Vec::new(), seed }
    }

    /// Register an object.
    pub fn add_object(&mut self, behavior: Box<dyn ObjectBehavior>) {
        self.behaviors.push(behavior);
    }

    /// Run fault-free until `max_events` observable events have been
    /// logged (or everything quiesces), then return the linearized trace.
    ///
    /// Shorthand for [`run_with`](ThreadedRuntime::run_with) with
    /// [`RunConfig::budget`].
    pub fn run(self, max_events: usize) -> Trace {
        self.run_with(&RunConfig::budget(max_events)).trace
    }

    /// Run all objects concurrently under `config`.
    ///
    /// The run ends when the event budget fills, the system quiesces for
    /// `config.quiescence` (with no delayed messages pending), or the
    /// wall-clock `config.deadline` expires — whichever happens first.
    /// The returned trace is truncated to the budget deterministically.
    pub fn run_with(self, config: &RunConfig) -> RunOutcome {
        let mut senders = HashMap::new();
        let mut receivers: Vec<(Box<dyn ObjectBehavior>, Receiver<Msg>)> = Vec::new();
        for b in self.behaviors {
            let (tx, rx) = channel();
            senders.insert(b.id(), tx);
            receivers.push((b, rx));
        }
        let shared = Arc::new(Shared {
            log: Mutex::new(Vec::new()),
            senders,
            budget: config.max_events,
            done: AtomicBool::new(false),
            plan: config.faults.clone(),
            poll: config.poll,
            pair_seq: Mutex::new(HashMap::new()),
            faults: Mutex::new(FaultLog::new()),
            delayed: Mutex::new(Vec::new()),
            down: Mutex::new(HashMap::new()),
        });
        let downtime = config.poll * config.faults.downtime() as u32;

        let mut handles = Vec::new();
        for (i, (mut behavior, rx)) in receivers.into_iter().enumerate() {
            let shared = Arc::clone(&shared);
            let poll = config.poll;
            let mut rng = SmallRng::seed_from_u64(self.seed.wrapping_add(i as u64));
            handles.push(thread::spawn(move || {
                let me = behavior.id();
                let mut handled = 0u64;
                loop {
                    if shared.done.load(Ordering::Acquire) {
                        break;
                    }
                    let msg = match rx.recv_timeout(poll) {
                        Ok(m) => m,
                        Err(RecvTimeoutError::Timeout) => Msg::Tick,
                        Err(RecvTimeoutError::Disconnected) => break,
                    };
                    let actions = match msg {
                        Msg::Call { from, method, arg } => behavior.on_call(from, method, arg),
                        Msg::Tick => behavior.on_tick(&mut rng),
                    };
                    for a in actions {
                        if !shared.send_call(me, a) {
                            break;
                        }
                    }
                    if let Msg::Call { .. } = msg {
                        handled += 1;
                        if shared.plan.crashes_after(me, handled) {
                            // Warm crash: go dark for the configured
                            // downtime (sends to us dead-letter), then
                            // come back with state intact.
                            let up_at = Instant::now() + downtime;
                            lock(&shared.down).insert(me, up_at);
                            shared.record(FaultRecord::lifecycle(
                                shared.now_at(),
                                FaultKind::Crash,
                                me,
                            ));
                            while Instant::now() < up_at && !shared.done.load(Ordering::Acquire) {
                                thread::sleep(poll);
                            }
                            lock(&shared.down).remove(&me);
                            shared.record(FaultRecord::lifecycle(
                                shared.now_at(),
                                FaultKind::Restart,
                                me,
                            ));
                        }
                    }
                }
            }));
        }

        // Supervise: flush delayed messages, then stop on budget,
        // quiescence, or deadline.
        let started = Instant::now();
        let mut last_len = 0usize;
        let mut stable_since = Instant::now();
        let stop_reason = loop {
            thread::sleep(config.poll * 2);
            let pending = shared.flush_delayed();
            let len = lock(&shared.log).len();
            if len >= config.max_events {
                break StopReason::BudgetFilled;
            }
            if started.elapsed() >= config.deadline {
                break StopReason::DeadlineExpired;
            }
            if len == last_len && !pending {
                if stable_since.elapsed() >= config.quiescence {
                    break StopReason::Quiescent;
                }
            } else {
                stable_since = Instant::now();
                last_len = len;
            }
        };
        shared.done.store(true, Ordering::Release);
        for h in handles {
            let _ = h.join();
        }
        let mut log = lock(&shared.log).clone();
        // Worker threads race the budget check; truncate so the trace is
        // deterministically bounded by the configured budget.
        log.truncate(config.max_events);
        let fault_log = lock(&shared.faults).clone();
        RunOutcome { trace: Trace::from_events(log), stop_reason, fault_log }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultRates;

    struct Pinger {
        me: ObjectId,
        target: ObjectId,
        m: MethodId,
    }

    impl ObjectBehavior for Pinger {
        fn id(&self) -> ObjectId {
            self.me
        }
        fn on_call(&mut self, _: ObjectId, _: MethodId, _: Arg) -> Vec<Action> {
            Vec::new()
        }
        fn on_tick(&mut self, _: &mut SmallRng) -> Vec<Action> {
            vec![Action::call(self.target, self.m)]
        }
    }

    struct Responder {
        me: ObjectId,
        ping: MethodId,
        pong: MethodId,
    }

    impl ObjectBehavior for Responder {
        fn id(&self) -> ObjectId {
            self.me
        }
        fn on_call(&mut self, from: ObjectId, method: MethodId, _: Arg) -> Vec<Action> {
            if method == self.ping {
                vec![Action::call(from, self.pong)]
            } else {
                Vec::new()
            }
        }
    }

    #[test]
    fn concurrent_run_fills_the_budget() {
        let a = ObjectId(0);
        let b = ObjectId(1);
        let ping = MethodId(0);
        let pong = MethodId(1);
        let mut rt = ThreadedRuntime::new(11);
        rt.add_object(Box::new(Pinger { me: a, target: b, m: ping }));
        rt.add_object(Box::new(Responder { me: b, ping, pong }));
        let trace = rt.run(50);
        assert!(trace.len() <= 50, "budget must bound the trace, got {}", trace.len());
        assert_eq!(trace.len(), 50, "budget should fill exactly, got {}", trace.len());
        // Causality: pongs never outnumber pings at any prefix.
        let mut pings = 0usize;
        let mut pongs = 0usize;
        for e in trace.iter() {
            if e.method == ping {
                pings += 1;
            } else if e.method == pong {
                pongs += 1;
            }
            assert!(pongs <= pings, "pong before its ping in the linearized log");
        }
    }

    #[test]
    fn quiescent_system_terminates_without_filling_budget() {
        struct Silent(ObjectId);
        impl ObjectBehavior for Silent {
            fn id(&self) -> ObjectId {
                self.0
            }
            fn on_call(&mut self, _: ObjectId, _: MethodId, _: Arg) -> Vec<Action> {
                Vec::new()
            }
        }
        let mut rt = ThreadedRuntime::new(0);
        rt.add_object(Box::new(Silent(ObjectId(0))));
        let out = rt.run_with(&RunConfig::budget(10).quiescence(Duration::from_millis(100)));
        assert!(out.trace.is_empty());
        assert_eq!(out.stop_reason, StopReason::Quiescent);
        assert!(out.fault_log.is_empty());
    }

    #[test]
    fn total_loss_quiesces_within_deadline_instead_of_hanging() {
        let a = ObjectId(0);
        let b = ObjectId(1);
        let ping = MethodId(0);
        let plan = FaultPlan::new(3)
            .rates(FaultRates { drop: 1000, ..FaultRates::default() })
            .expect("valid rates");
        let mut rt = ThreadedRuntime::new(3);
        rt.add_object(Box::new(Pinger { me: a, target: b, m: ping }));
        let config = RunConfig::budget(50)
            .faults(plan)
            .quiescence(Duration::from_millis(120))
            .deadline(Duration::from_secs(10));
        let started = Instant::now();
        let out = rt.run_with(&config);
        assert!(started.elapsed() < Duration::from_secs(10), "must finish inside deadline");
        assert!(out.trace.is_empty(), "every ping was dropped");
        assert!(matches!(out.stop_reason, StopReason::Quiescent | StopReason::DeadlineExpired));
        assert!(out.fault_log.counts().dropped > 0, "drops must be logged");
    }

    #[test]
    fn faulty_run_still_respects_the_budget() {
        let a = ObjectId(0);
        let b = ObjectId(1);
        let ping = MethodId(0);
        let pong = MethodId(1);
        let plan = FaultPlan::new(7)
            .rates(FaultRates { drop: 100, duplicate: 100, delay: 200, crash: 20 })
            .expect("valid rates");
        let mut rt = ThreadedRuntime::new(7);
        rt.add_object(Box::new(Pinger { me: a, target: b, m: ping }));
        rt.add_object(Box::new(Responder { me: b, ping, pong }));
        let out = rt.run_with(&RunConfig::budget(60).faults(plan));
        assert!(out.trace.len() <= 60, "budget bound violated: {}", out.trace.len());
        assert!(!out.fault_log.is_empty(), "rates this high must inject something");
    }
}
