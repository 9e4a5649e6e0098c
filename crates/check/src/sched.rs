//! The model scheduler: a [`Transport`] whose every send, receive,
//! teardown, and fault is a *choice* made by a [`Chooser`], so the
//! whole interleaving space of one cluster run becomes an enumerable
//! decision tree.
//!
//! # How a run is sequenced
//!
//! [`Scheduler::new`] builds one pair of [`ModelEndpoint`]s per link:
//! worker `k`'s endpoint belongs to model thread `k`, all coordinator
//! endpoints to thread `nodes`. Every transport operation blocks its
//! thread on the central state; a scheduling step happens only at
//! *quiescence* — no thread running — and is executed by the last
//! thread to block ("last man schedules"), so no separate scheduler
//! thread exists and the decision points are exactly the protocol's
//! communication events:
//!
//! * a blocked `send` resolves as **deliver** (enqueue), or — under
//!   the fault vocabulary, budget permitting — **duplicate** (enqueue
//!   plus an *owed extra copy* that is itself a later, separately
//!   schedulable step, which is precisely the window the historical
//!   teardown race lived in), **hold** (park the message in the
//!   endpoint, [`FlakyTransport`]-style: flushed after the next
//!   send, before the next recv, or at drop), or **drop** (discard);
//! * a blocked `recv` on a non-empty channel resolves by delivering
//!   slot 0, or — with the reorder fault — a later slot;
//! * an endpoint drop is a schedulable **close**, so teardown
//!   interleaves with in-flight traffic under scheduler control;
//! * the round driver's completion is a schedulable **yield** (via
//!   [`SchedHandle::driver_done`]), after which the coordinator is
//!   *passive*: it performs only its announced closes and never
//!   blocks the quiescence test by merely executing `join`.
//!
//! Steps with exactly one enabled action auto-execute without
//! consuming a decision, so schedules stay short and the DFS bound is
//! spent on genuine races. A quiescent state with a blocked receive
//! and no enabled action is a **deadlock**: the run is aborted (every
//! operation unblocks with `Closed`) and flagged.
//!
//! Extra copies (duplicates, held-message flushes) that meet a closed
//! channel are swallowed best-effort, exactly like the fixed
//! [`FlakyTransport`]; `strict_extras` resurrects the historical
//! strict propagation for the PR-4 teardown-race regression.
//!
//! [`FlakyTransport`]: isasgd_cluster::FlakyTransport

use crate::explore::{Choice, Chooser};
use isasgd_cluster::{Message, Transport, TransportError};
use std::collections::{BTreeSet, VecDeque};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

/// Which fault actions the scheduler may enumerate, and how many total
/// fault injections one schedule may spend (`budget`). Plain delivery
/// in arrival order is always enabled and never costs budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultSpec {
    /// Enable out-of-order delivery (recv-side slot choice).
    pub reorder: bool,
    /// How deep into a channel queue a reordered delivery may reach.
    pub reorder_window: u8,
    /// Enable duplicate injection (send-side, with an owed extra copy
    /// delivered as a separate scheduled step).
    pub duplicate: bool,
    /// Enable held/delayed sends (send-side).
    pub hold: bool,
    /// Enable message loss (send-side). Losing a required message is
    /// expected to starve the protocol: runs where a drop fired may
    /// deadlock without that counting as a violation.
    pub drop: bool,
    /// Total fault injections allowed per schedule.
    pub budget: u8,
}

impl Default for FaultSpec {
    fn default() -> Self {
        FaultSpec {
            reorder: false,
            reorder_window: 2,
            duplicate: false,
            hold: false,
            drop: false,
            budget: 0,
        }
    }
}

impl FaultSpec {
    /// No faults: pure delivery-order exploration.
    pub fn none() -> Self {
        FaultSpec::default()
    }

    /// The full vocabulary except drops, with the given budget.
    pub fn lossless(budget: u8) -> Self {
        FaultSpec {
            reorder: true,
            duplicate: true,
            hold: true,
            budget,
            ..FaultSpec::default()
        }
    }

    /// The full vocabulary including drops, with the given budget.
    pub fn all(budget: u8) -> Self {
        FaultSpec {
            drop: true,
            ..FaultSpec::lossless(budget)
        }
    }
}

/// Counters of fault actions that actually fired during one schedule.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultCounts {
    /// Duplicate injections (owed extras created).
    pub dups: u64,
    /// Held (delayed) sends.
    pub holds: u64,
    /// Dropped (lost) sends.
    pub drops: u64,
    /// Out-of-order deliveries (slot > 0).
    pub reorders: u64,
    /// Extra copies that met a closed channel (swallowed when
    /// best-effort, surfaced as `Closed` when `strict_extras`).
    pub extras_to_closed: u64,
}

/// What the scheduler knew when the run ended.
#[derive(Debug, Clone)]
pub struct SchedReport {
    /// A quiescent state offered no action while a receive stayed
    /// blocked: the protocol starved.
    pub deadlocked: bool,
    /// Fault actions that fired.
    pub counts: FaultCounts,
    /// Messages whose content was never delivered nor consumed by a
    /// drop fault, yet can no longer arrive (undelivered in-flight or
    /// discarded held messages at teardown). Meaningful only for runs
    /// that completed cleanly.
    pub leaks: Vec<String>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RunState {
    Running,
    Blocked,
    /// Declared quiet: does no transport work the scheduler must wait
    /// for (a passive coordinator between its announced closes, or in
    /// `join`).
    Quiet,
    Done,
}

#[derive(Debug, Clone)]
struct InFlight {
    id: u64,
    injected: bool,
    msg: Message,
}

#[derive(Debug)]
enum Pending {
    Recv,
    Send { msg: Message, extra_of: Option<u64> },
    Close,
    Yield { upcoming_closes: u32 },
}

#[derive(Debug)]
enum Reply {
    Recv(Result<Message, TransportError>),
    /// `held = true`: the message was parked, skip the post-send flush.
    Send(Result<bool, TransportError>),
    Unit,
}

struct Th {
    run: RunState,
    passive: bool,
    /// Closes a passive thread has announced and not yet performed.
    announced: u32,
    endpoints_open: u32,
    pending: Option<Pending>,
    /// The endpoint of the pending op (channel derivable from it).
    pending_ep: usize,
    reply: Option<Reply>,
}

struct Ep {
    open: bool,
    held: Option<InFlight>,
}

struct State {
    chooser: Chooser,
    faults: FaultSpec,
    strict_extras: bool,
    threads: Vec<Th>,
    eps: Vec<Ep>,
    queues: Vec<VecDeque<InFlight>>,
    /// Running FNV hash of each channel's delivery history (content).
    rx_hash: Vec<u64>,
    delivered: BTreeSet<u64>,
    dropped: BTreeSet<u64>,
    next_id: u64,
    budget_left: u8,
    counts: FaultCounts,
    leaks: Vec<String>,
    aborted: bool,
    deadlocked: bool,
}

struct Shared {
    mx: Mutex<State>,
    cv: Condvar,
}

/// One enabled scheduling action at a quiescent state.
#[derive(Debug, Clone, Copy)]
enum Action {
    Deliver { t: usize, slot: usize },
    SendPrimary { t: usize },
    SendDup { t: usize },
    SendHold { t: usize },
    SendDrop { t: usize },
    SendExtra { t: usize },
    Close { t: usize },
    Yield { t: usize },
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

fn fnv_u64(h: u64, v: u64) -> u64 {
    fnv(h, &v.to_le_bytes())
}

fn msg_hash(msg: &Message) -> u64 {
    let mut buf = Vec::new();
    msg.encode(&mut buf);
    fnv(FNV_OFFSET, &buf)
}

fn lock(shared: &Shared) -> MutexGuard<'_, State> {
    shared.mx.lock().unwrap_or_else(|e| e.into_inner())
}

impl State {
    fn tx_chan(&self, ep: usize) -> usize {
        ep
    }

    fn rx_chan(&self, ep: usize) -> usize {
        ep ^ 1
    }

    /// Is channel `c` still writable (its receiving endpoint alive)?
    fn chan_rx_open(&self, c: usize) -> bool {
        self.eps[c ^ 1].open
    }

    /// Is channel `c` still fed (its sending endpoint alive)?
    fn chan_tx_open(&self, c: usize) -> bool {
        self.eps[c].open
    }

    fn resolve(&mut self, t: usize, reply: Reply, run: RunState) {
        self.threads[t].reply = Some(reply);
        self.threads[t].run = run;
    }

    /// Direct (non-scheduled) enqueue of a held message at a flush
    /// point. Returns `Err(Closed)` only under `strict_extras`.
    fn flush_held(&mut self, ep: usize) -> Result<(), TransportError> {
        let Some(h) = self.eps[ep].held.take() else {
            return Ok(());
        };
        let c = self.tx_chan(ep);
        if self.chan_rx_open(c) {
            self.queues[c].push_back(h);
            return Ok(());
        }
        self.counts.extras_to_closed += 1;
        if !self.delivered.contains(&h.id) && !self.dropped.contains(&h.id) {
            self.leaks.push(format!(
                "held {} discarded at closed channel {c} without ever being delivered",
                h.msg.kind()
            ));
        }
        if self.strict_extras {
            return Err(TransportError::Closed);
        }
        Ok(())
    }

    /// Closes endpoint `ep` (flushing its held message first) and
    /// settles its thread's run state.
    fn do_close(&mut self, t: usize, ep: usize) {
        // Drop-time flush is always best-effort (`let _`-style), even
        // under strict extras: a destructor cannot report the error.
        let _ = {
            let strict = self.strict_extras;
            self.strict_extras = false;
            let r = self.flush_held(ep);
            self.strict_extras = strict;
            r
        };
        self.eps[ep].open = false;
        let th = &mut self.threads[t];
        th.endpoints_open -= 1;
        th.announced = th.announced.saturating_sub(1);
        let run = if th.endpoints_open == 0 {
            RunState::Done
        } else if th.passive && th.announced == 0 {
            RunState::Quiet
        } else {
            RunState::Running
        };
        self.resolve(t, Reply::Unit, run);
    }

    fn resolve_all_for_abort(&mut self) {
        for t in 0..self.threads.len() {
            if self.threads[t].run != RunState::Blocked {
                continue;
            }
            let ep = self.threads[t].pending_ep;
            match self.threads[t].pending.take() {
                Some(Pending::Recv) => {
                    self.resolve(
                        t,
                        Reply::Recv(Err(TransportError::Closed)),
                        RunState::Running,
                    );
                }
                Some(Pending::Send { .. }) => {
                    self.resolve(
                        t,
                        Reply::Send(Err(TransportError::Closed)),
                        RunState::Running,
                    );
                }
                Some(Pending::Close) => self.do_close(t, ep),
                Some(Pending::Yield { .. }) => {
                    self.threads[t].passive = true;
                    self.resolve(t, Reply::Unit, RunState::Quiet);
                }
                None => {}
            }
        }
    }

    /// How many delivery slots a blocked receive on channel `c` may
    /// choose among right now. Must agree with [`State::enumerate`].
    fn recv_window(&self, c: usize) -> usize {
        let q = self.queues[c].len();
        if self.faults.reorder && self.budget_left > 0 {
            q.min(self.faults.reorder_window as usize)
        } else {
            q.min(1)
        }
    }

    /// Resolves operations with exactly one possible outcome that
    /// requires no scheduling decision: closed-channel sends/recvs, and
    /// single-slot deliveries. Only ever called at quiescence, so the
    /// queue contents it inspects are fully determined by the decision
    /// history. Returns true if anything was woken.
    fn resolve_forced(&mut self) -> bool {
        #[derive(Clone, Copy)]
        enum Forced {
            RecvClosed,
            Deliver,
            SendClosed { extra: bool },
        }
        let mut woke = false;
        for t in 0..self.threads.len() {
            if self.threads[t].run != RunState::Blocked {
                continue;
            }
            let ep = self.threads[t].pending_ep;
            let forced = match &self.threads[t].pending {
                Some(Pending::Recv) => {
                    let c = self.rx_chan(ep);
                    if self.queues[c].is_empty() {
                        (!self.chan_tx_open(c)).then_some(Forced::RecvClosed)
                    } else {
                        // A single-slot delivery commutes with every
                        // other enabled action (the queue is SPSC and a
                        // close never purges it); cross-quiescence
                        // *delays* are the hold fault's job, so there is
                        // no schedule where waiting longer matters.
                        (self.recv_window(c) == 1).then_some(Forced::Deliver)
                    }
                }
                Some(Pending::Send { extra_of, .. }) => {
                    let c = self.tx_chan(ep);
                    if self.chan_rx_open(c) {
                        None
                    } else {
                        Some(Forced::SendClosed {
                            extra: extra_of.is_some(),
                        })
                    }
                }
                _ => None,
            };
            match forced {
                None => {}
                Some(Forced::RecvClosed) => {
                    self.threads[t].pending = None;
                    self.resolve(
                        t,
                        Reply::Recv(Err(TransportError::Closed)),
                        RunState::Running,
                    );
                    woke = true;
                }
                Some(Forced::Deliver) => {
                    self.apply(Action::Deliver { t, slot: 0 });
                    woke = true;
                }
                Some(Forced::SendClosed { extra }) => {
                    let reply = if extra {
                        self.counts.extras_to_closed += 1;
                        if self.strict_extras {
                            Err(TransportError::Closed)
                        } else {
                            Ok(false)
                        }
                    } else {
                        Err(TransportError::Closed)
                    };
                    self.threads[t].pending = None;
                    self.resolve(t, Reply::Send(reply), RunState::Running);
                    woke = true;
                }
            }
        }
        woke
    }

    fn enumerate(&self) -> Vec<Action> {
        let mut actions = Vec::new();
        for t in 0..self.threads.len() {
            if self.threads[t].run != RunState::Blocked {
                continue;
            }
            let ep = self.threads[t].pending_ep;
            match &self.threads[t].pending {
                Some(Pending::Recv) => {
                    let c = self.rx_chan(ep);
                    for slot in 0..self.recv_window(c) {
                        actions.push(Action::Deliver { t, slot });
                    }
                }
                Some(Pending::Send { extra_of, .. }) => {
                    if extra_of.is_some() {
                        actions.push(Action::SendExtra { t });
                    } else {
                        actions.push(Action::SendPrimary { t });
                        if self.budget_left > 0 {
                            if self.faults.duplicate {
                                actions.push(Action::SendDup { t });
                            }
                            if self.faults.hold && self.eps[ep].held.is_none() {
                                actions.push(Action::SendHold { t });
                            }
                            if self.faults.drop {
                                actions.push(Action::SendDrop { t });
                            }
                        }
                    }
                }
                Some(Pending::Close) => actions.push(Action::Close { t }),
                Some(Pending::Yield { .. }) => actions.push(Action::Yield { t }),
                None => {}
            }
        }
        actions
    }

    fn apply(&mut self, a: Action) {
        match a {
            Action::Deliver { t, slot } => {
                let ep = self.threads[t].pending_ep;
                let c = self.rx_chan(ep);
                let m = self.queues[c].remove(slot).expect("enumerated slot");
                if slot > 0 {
                    self.budget_left -= 1;
                    self.counts.reorders += 1;
                }
                self.delivered.insert(m.id);
                self.rx_hash[c] = fnv_u64(self.rx_hash[c], msg_hash(&m.msg));
                self.threads[t].pending = None;
                self.resolve(t, Reply::Recv(Ok(m.msg)), RunState::Running);
            }
            Action::SendPrimary { t } => {
                let ep = self.threads[t].pending_ep;
                let c = self.tx_chan(ep);
                let Some(Pending::Send { msg, .. }) = self.threads[t].pending.take() else {
                    unreachable!("enumerated send");
                };
                let id = self.next_id;
                self.next_id += 1;
                self.queues[c].push_back(InFlight {
                    id,
                    injected: false,
                    msg,
                });
                self.resolve(t, Reply::Send(Ok(false)), RunState::Running);
            }
            Action::SendDup { t } => {
                let ep = self.threads[t].pending_ep;
                let c = self.tx_chan(ep);
                let Some(Pending::Send { msg, .. }) = self.threads[t].pending.take() else {
                    unreachable!("enumerated send");
                };
                let id = self.next_id;
                self.next_id += 1;
                self.queues[c].push_back(InFlight {
                    id,
                    injected: false,
                    msg: msg.clone(),
                });
                // The sender stays blocked, owing an injected extra
                // copy: completing it is a separate scheduled step that
                // other threads' actions may interleave with.
                self.threads[t].pending = Some(Pending::Send {
                    msg,
                    extra_of: Some(id),
                });
                self.budget_left -= 1;
                self.counts.dups += 1;
            }
            Action::SendExtra { t } => {
                let ep = self.threads[t].pending_ep;
                let c = self.tx_chan(ep);
                let Some(Pending::Send {
                    msg,
                    extra_of: Some(id),
                }) = self.threads[t].pending.take()
                else {
                    unreachable!("enumerated extra");
                };
                self.queues[c].push_back(InFlight {
                    id,
                    injected: true,
                    msg,
                });
                self.resolve(t, Reply::Send(Ok(false)), RunState::Running);
            }
            Action::SendHold { t } => {
                let ep = self.threads[t].pending_ep;
                let Some(Pending::Send { msg, .. }) = self.threads[t].pending.take() else {
                    unreachable!("enumerated send");
                };
                let id = self.next_id;
                self.next_id += 1;
                self.eps[ep].held = Some(InFlight {
                    id,
                    injected: false,
                    msg,
                });
                self.budget_left -= 1;
                self.counts.holds += 1;
                self.resolve(t, Reply::Send(Ok(true)), RunState::Running);
            }
            Action::SendDrop { t } => {
                let Some(Pending::Send { .. }) = self.threads[t].pending.take() else {
                    unreachable!("enumerated send");
                };
                let id = self.next_id;
                self.next_id += 1;
                self.dropped.insert(id);
                self.budget_left -= 1;
                self.counts.drops += 1;
                self.resolve(t, Reply::Send(Ok(false)), RunState::Running);
            }
            Action::Close { t } => {
                let ep = self.threads[t].pending_ep;
                self.threads[t].pending = None;
                self.do_close(t, ep);
            }
            Action::Yield { t } => {
                let Some(Pending::Yield { upcoming_closes }) = self.threads[t].pending.take()
                else {
                    unreachable!("enumerated yield");
                };
                let th = &mut self.threads[t];
                th.passive = true;
                th.announced = upcoming_closes;
                let run = if upcoming_closes > 0 {
                    // The announced closes register momentarily; stay
                    // schedulable-against by counting as running until
                    // each close blocks.
                    RunState::Running
                } else {
                    RunState::Quiet
                };
                self.resolve(t, Reply::Unit, run);
            }
        }
    }

    /// Fingerprint of the decision-relevant state. Message *content*
    /// (never scheduler-assigned ids) is hashed, so schedules that
    /// commute into the same state collide as intended.
    fn state_hash(&self) -> u64 {
        let mut h = FNV_OFFSET;
        h = fnv_u64(h, self.chooser.decisions() as u64);
        h = fnv_u64(h, self.budget_left as u64);
        for ep in &self.eps {
            h = fnv_u64(h, ep.open as u64);
            match &ep.held {
                Some(m) => h = fnv_u64(fnv_u64(h, 1), msg_hash(&m.msg)),
                None => h = fnv_u64(h, 2),
            }
        }
        for (c, q) in self.queues.iter().enumerate() {
            h = fnv_u64(h, 0x10 + q.len() as u64);
            h = fnv_u64(h, self.rx_hash[c]);
            for m in q {
                h = fnv_u64(h, msg_hash(&m.msg));
                h = fnv_u64(h, m.injected as u64);
                h = fnv_u64(h, self.delivered.contains(&m.id) as u64);
            }
        }
        for th in &self.threads {
            h = fnv_u64(h, th.run as u64);
            h = fnv_u64(h, th.passive as u64);
            h = fnv_u64(h, th.announced as u64);
            h = fnv_u64(h, th.pending_ep as u64);
            match &th.pending {
                None => h = fnv_u64(h, 0x20),
                Some(Pending::Recv) => h = fnv_u64(h, 0x21),
                Some(Pending::Send { msg, extra_of }) => {
                    h = fnv_u64(fnv_u64(h, 0x22 + extra_of.is_some() as u64), msg_hash(msg));
                }
                Some(Pending::Close) => h = fnv_u64(h, 0x24),
                Some(Pending::Yield { upcoming_closes }) => {
                    h = fnv_u64(fnv_u64(h, 0x25), *upcoming_closes as u64);
                }
            }
        }
        h
    }

    /// The scheduling loop, run under the lock by whichever thread's
    /// transition might have produced quiescence. Everything here —
    /// forced resolutions included — happens only when no thread is
    /// running, so every queue it inspects is fully determined by the
    /// decision history, never by OS thread timing.
    fn step(&mut self) {
        loop {
            if self.aborted {
                self.resolve_all_for_abort();
                return;
            }
            if self.threads.iter().any(|t| t.run == RunState::Running) {
                return;
            }
            if self.resolve_forced() {
                return;
            }
            let actions = self.enumerate();
            if actions.is_empty() {
                if self.threads.iter().any(|t| t.run == RunState::Blocked) {
                    self.deadlocked = true;
                    self.aborted = true;
                    continue;
                }
                return;
            }
            // Teardown cascade: when every blocked thread is merely
            // closing (or yielding), the closes touch disjoint channel
            // pairs and commute — no decision to make.
            let teardown_only = self.threads.iter().all(|t| {
                t.run != RunState::Blocked
                    || matches!(
                        t.pending,
                        Some(Pending::Close) | Some(Pending::Yield { .. })
                    )
            });
            let idx = if actions.len() == 1 || teardown_only {
                0
            } else {
                let hash = self.state_hash();
                match self.chooser.choose(actions.len(), Some(hash)) {
                    Choice::Take(i) => i,
                    Choice::Abort(_) => {
                        self.aborted = true;
                        continue;
                    }
                }
            };
            self.apply(actions[idx]);
        }
    }
}

/// The central model scheduler for one schedule of one cluster run.
pub struct Scheduler {
    shared: Arc<Shared>,
}

/// A cloneable handle for marking the round driver done (the
/// `run_with_links_observed` hook).
#[derive(Clone)]
pub struct SchedHandle {
    shared: Arc<Shared>,
    coord_thread: usize,
}

impl Scheduler {
    /// Builds the scheduler and the `(coordinator_end, worker_end)`
    /// model links for `nodes` workers. Model thread ids: worker `k`
    /// is thread `k`, the coordinator is thread `nodes`.
    #[allow(clippy::type_complexity)]
    pub fn new(
        nodes: usize,
        faults: FaultSpec,
        strict_extras: bool,
        chooser: Chooser,
    ) -> (Scheduler, Vec<(ModelEndpoint, ModelEndpoint)>) {
        let n_eps = 2 * nodes;
        let mut threads: Vec<Th> = (0..=nodes)
            .map(|_| Th {
                run: RunState::Running,
                passive: false,
                announced: 0,
                endpoints_open: 0,
                pending: None,
                pending_ep: 0,
                reply: None,
            })
            .collect();
        let mut eps = Vec::with_capacity(n_eps);
        for k in 0..nodes {
            // Endpoint 2k: coordinator's end of link k; 2k+1: worker's.
            eps.push(Ep {
                open: true,
                held: None,
            });
            eps.push(Ep {
                open: true,
                held: None,
            });
            threads[nodes].endpoints_open += 1;
            threads[k].endpoints_open += 1;
        }
        let budget = faults.budget;
        let state = State {
            chooser,
            faults,
            strict_extras,
            threads,
            eps,
            queues: (0..n_eps).map(|_| VecDeque::new()).collect(),
            rx_hash: vec![FNV_OFFSET; n_eps],
            delivered: BTreeSet::new(),
            dropped: BTreeSet::new(),
            next_id: 0,
            budget_left: budget,
            counts: FaultCounts::default(),
            leaks: Vec::new(),
            aborted: false,
            deadlocked: false,
        };
        let shared = Arc::new(Shared {
            mx: Mutex::new(state),
            cv: Condvar::new(),
        });
        let links = (0..nodes)
            .map(|k| {
                (
                    ModelEndpoint {
                        shared: shared.clone(),
                        ep: 2 * k,
                        thread: nodes,
                    },
                    ModelEndpoint {
                        shared: shared.clone(),
                        ep: 2 * k + 1,
                        thread: k,
                    },
                )
            })
            .collect();
        (Scheduler { shared }, links)
    }

    /// A handle for the driver-done hook (coordinator thread = `nodes`).
    pub fn handle(&self) -> SchedHandle {
        let coord = lock(&self.shared).threads.len() - 1;
        SchedHandle {
            shared: self.shared.clone(),
            coord_thread: coord,
        }
    }

    /// Tears the scheduler down after the run, returning what it saw
    /// plus the chooser (whose log the explorer backtracks on).
    pub fn finish(self) -> (SchedReport, Chooser) {
        let mut st = lock(&self.shared);
        let mut leaks = std::mem::take(&mut st.leaks);
        for (c, q) in st.queues.iter().enumerate() {
            for m in q {
                if !st.delivered.contains(&m.id) && !st.dropped.contains(&m.id) {
                    leaks.push(format!(
                        "{} (injected: {}) still in flight on channel {c} at teardown, \
                         its content never delivered",
                        m.msg.kind(),
                        m.injected
                    ));
                }
            }
        }
        let report = SchedReport {
            deadlocked: st.deadlocked,
            counts: st.counts,
            leaks,
        };
        let chooser = std::mem::take(&mut st.chooser);
        (report, chooser)
    }
}

impl SchedHandle {
    /// Marks the round driver finished: a schedulable *yield* step,
    /// after which the coordinator thread is passive. `upcoming_closes`
    /// must equal the number of endpoint drops the coordinator will
    /// perform immediately after this call (its eager teardown), so the
    /// scheduler knows to keep waiting for them; pass 0 when the
    /// coordinator goes straight to joining workers.
    pub fn driver_done(&self, upcoming_closes: usize) {
        let t = self.coord_thread;
        let mut st = lock(&self.shared);
        if st.aborted {
            st.threads[t].passive = true;
            if st.threads[t].run == RunState::Running {
                st.threads[t].run = RunState::Quiet;
            }
            self.shared.cv.notify_all();
            return;
        }
        st.threads[t].pending = Some(Pending::Yield {
            upcoming_closes: upcoming_closes as u32,
        });
        st.threads[t].run = RunState::Blocked;
        st.step();
        self.shared.cv.notify_all();
        while st.threads[t].reply.is_none() {
            st = self.shared.cv.wait(st).unwrap_or_else(|e| e.into_inner());
        }
        st.threads[t].reply = None;
        self.shared.cv.notify_all();
    }
}

/// One endpoint of a model link; implements [`Transport`] by turning
/// every operation into a scheduler-resolved step.
pub struct ModelEndpoint {
    shared: Arc<Shared>,
    ep: usize,
    thread: usize,
}

impl ModelEndpoint {
    fn block_on(&self, pending: Pending) -> Reply {
        let t = self.thread;
        let mut st = lock(&self.shared);
        if st.aborted {
            return match pending {
                Pending::Recv => Reply::Recv(Err(TransportError::Closed)),
                Pending::Send { .. } => Reply::Send(Err(TransportError::Closed)),
                _ => Reply::Unit,
            };
        }
        st.threads[t].pending = Some(pending);
        st.threads[t].pending_ep = self.ep;
        st.threads[t].run = RunState::Blocked;
        st.step();
        self.shared.cv.notify_all();
        while st.threads[t].reply.is_none() {
            st = self.shared.cv.wait(st).unwrap_or_else(|e| e.into_inner());
        }
        st.threads[t].pending = None;
        let reply = st.threads[t].reply.take().expect("reply present");
        // A post-send / pre-recv held flush belongs to the op that woke
        // us and must happen under the same lock acquisition pattern;
        // callers re-lock, which is fine: only this thread runs here.
        self.shared.cv.notify_all();
        reply
    }
}

impl Transport for ModelEndpoint {
    fn send(&mut self, msg: &Message) -> Result<(), TransportError> {
        {
            let mut st = lock(&self.shared);
            if st.aborted {
                return Err(TransportError::Closed);
            }
            let c = st.tx_chan(self.ep);
            if !st.chan_rx_open(c) {
                return Err(TransportError::Closed);
            }
            let fault_eligible = st.budget_left > 0
                && (st.faults.duplicate
                    || (st.faults.hold && st.eps[self.ep].held.is_none())
                    || st.faults.drop);
            if !fault_eligible {
                // No fault action can apply: the send has exactly one
                // outcome, so — like the real buffered links — it
                // completes instantly without becoming a scheduling
                // decision. Only delivery order is ever scheduled.
                let id = st.next_id;
                st.next_id += 1;
                st.queues[c].push_back(InFlight {
                    id,
                    injected: false,
                    msg: msg.clone(),
                });
                return st.flush_held(self.ep);
            }
        }
        match self.block_on(Pending::Send {
            msg: msg.clone(),
            extra_of: None,
        }) {
            Reply::Send(Ok(held)) => {
                if held {
                    return Ok(());
                }
                // FlakyTransport parity: release a previously held
                // message *after* this one (the observable reorder).
                let mut st = lock(&self.shared);
                if st.aborted {
                    return Ok(());
                }
                st.flush_held(self.ep)
            }
            Reply::Send(Err(e)) => Err(e),
            _ => unreachable!("send resolves with a send reply"),
        }
    }

    fn recv(&mut self) -> Result<Message, TransportError> {
        {
            // Never block while still owing the peer a held message.
            let mut st = lock(&self.shared);
            if !st.aborted {
                st.flush_held(self.ep)?;
            }
        }
        match self.block_on(Pending::Recv) {
            Reply::Recv(r) => r,
            _ => unreachable!("recv resolves with a recv reply"),
        }
    }
}

impl Drop for ModelEndpoint {
    fn drop(&mut self) {
        let t = self.thread;
        let mut st = lock(&self.shared);
        if !st.eps[self.ep].open {
            return;
        }
        if st.aborted {
            st.threads[t].pending = None;
            st.threads[t].pending_ep = self.ep;
            st.do_close(t, self.ep);
            st.threads[t].reply = None;
            self.shared.cv.notify_all();
            return;
        }
        st.threads[t].pending = Some(Pending::Close);
        st.threads[t].pending_ep = self.ep;
        st.threads[t].run = RunState::Blocked;
        st.step();
        self.shared.cv.notify_all();
        while st.threads[t].reply.is_none() {
            st = self.shared.cv.wait(st).unwrap_or_else(|e| e.into_inner());
        }
        st.threads[t].pending = None;
        st.threads[t].reply = None;
        self.shared.cv.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explore::{explore, Verdict};

    fn barrier(round: u64) -> Message {
        Message::RoundBarrier { node: 0, round }
    }

    /// One worker sends two barriers; the coordinator receives both.
    /// With no faults, every step is forced, so the whole run takes
    /// zero decisions and one schedule covers it.
    #[test]
    fn faultless_ping_is_fully_forced() {
        let out = explore(16, |ch| {
            let chooser = std::mem::take(ch);
            let (sched, mut links) = Scheduler::new(1, FaultSpec::none(), false, chooser);
            let (mut coord, mut worker) = links.pop().unwrap();
            let got = std::thread::scope(|s| {
                s.spawn(move || {
                    worker.send(&barrier(1)).unwrap();
                    worker.send(&barrier(2)).unwrap();
                });
                let a = coord.recv().unwrap();
                let b = coord.recv().unwrap();
                drop(coord);
                (a, b)
            });
            let handle = sched.handle();
            handle.driver_done(0);
            let (report, chooser) = sched.finish();
            *ch = chooser;
            assert!(!report.deadlocked);
            assert!(report.leaks.is_empty(), "{:?}", report.leaks);
            assert_eq!(got, (barrier(1), barrier(2)));
            Verdict::Pass
        });
        assert_eq!(out.stats.schedules, 1);
        assert_eq!(out.stats.violations, 0);
    }

    /// Two workers racing their hellos at one coordinator: delivery is
    /// forced per channel (SPSC), and the coordinator drains links in
    /// order, so exploration still closes quickly — but the dup fault
    /// opens real choices.
    #[test]
    fn duplicate_fault_explores_multiple_schedules() {
        let mut max_delivered = 0usize;
        let out = explore(16, |ch| {
            let chooser = std::mem::take(ch);
            let (sched, mut links) = Scheduler::new(1, FaultSpec::lossless(1), false, chooser);
            let (mut coord, mut worker) = links.pop().unwrap();
            let delivered = std::thread::scope(|s| {
                s.spawn(move || {
                    worker.send(&barrier(1)).unwrap();
                    worker.send(&barrier(2)).unwrap();
                });
                let mut got = Vec::new();
                while let Ok(m) = coord.recv() {
                    got.push(m);
                    if got.len() >= 4 {
                        break;
                    }
                }
                drop(coord);
                got.len()
            });
            let handle = sched.handle();
            handle.driver_done(0);
            let (report, chooser) = sched.finish();
            *ch = chooser;
            assert!(!report.deadlocked);
            max_delivered = max_delivered.max(delivered);
            Verdict::Pass
        });
        assert!(
            out.stats.schedules > 1,
            "faults must open schedule choices: {:?}",
            out.stats
        );
        assert!(
            max_delivered > 2,
            "some schedule must deliver a duplicate or a held flush"
        );
        assert_eq!(out.stats.violations, 0, "{:?}", out.counterexample);
    }

    /// A receive nothing will ever satisfy must be flagged as a
    /// deadlock, not hang the suite.
    #[test]
    fn starved_recv_is_deadlock_not_hang() {
        let chooser = Chooser::replay(Vec::new(), 4);
        let (sched, mut links) = Scheduler::new(1, FaultSpec::none(), false, chooser);
        let (coord, mut worker) = links.pop().unwrap();
        std::thread::scope(|s| {
            s.spawn(move || {
                // Never sends; just waits for traffic that never comes.
                assert!(matches!(worker.recv(), Err(TransportError::Closed)));
            });
            let handle = sched.handle();
            handle.driver_done(0);
            drop(coord);
        });
        let (report, _) = sched.finish();
        assert!(report.deadlocked);
    }
}
