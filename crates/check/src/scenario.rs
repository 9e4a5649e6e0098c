//! Model-checked cluster scenarios: one [`ScenarioSpec`] describes a
//! small, fully deterministic cluster run (dataset, config, fault
//! vocabulary); [`run_schedule`] steps the cluster's own
//! [`Coordinator`] and [`Worker`] machines through it once, on one
//! thread, under a given [`Chooser`], and judges the outcome against
//! the protocol invariants with the threaded in-process run as oracle.
//!
//! # How a run is stepped
//!
//! Link `k` is two channels: endpoint `2k`, the coordinator's end,
//! sends on channel `2k`, and endpoint `2k + 1`, worker `k`'s end, on
//! channel `2k + 1`; each endpoint receives what the other sends. A
//! machine is *sending* while it has a frame to put on a link, and
//! otherwise *receiving* — the coordinator on the link it is
//! collecting from, a worker on its own — until it is finished. Every
//! step is one of:
//!
//! * **deliver** the head of a receiving machine's channel, or — with
//!   the reorder fault, budget permitting — a later frame within the
//!   window;
//! * **emit** a sending machine's frame onto its channel, or — under
//!   the fault vocabulary, budget permitting — **duplicate** it (the
//!   extra copy is *owed*: the machine stays sending until a later
//!   step sends it), **hold** it back at its endpoint, or **drop** it;
//! * **send an owed copy**, or **release a held frame** into its
//!   channel — at the latest right before its machine next receives on
//!   that endpoint, as [`FlakyTransport`] flushes before `recv`.
//!
//! A step with one possible outcome runs without a decision: a send no
//! fault can touch, a delivery from a one-frame window, a held frame's
//! release before a receive. The rest are the chooser's decisions, so
//! the DFS bound is spent on genuine races. A state that offers no step
//! while a machine is unfinished is a **deadlock**.
//!
//! Specs must stay small (2 workers × 2 rounds explores within a test's
//! time) and *valid*: the oracle run validates the config first.
//!
//! [`FlakyTransport`]: isasgd_cluster::FlakyTransport

use crate::explore::{explore, AbortKind, Choice, Chooser, Exploration, ExploreStats, Verdict};
use isasgd_balance::Rearranged;
use isasgd_cluster::{
    in_process_links, plan_run, run_with_links, ClusterConfig, ClusterRun, Coordinator,
    CoordinatorStep, Message, TransportConfig, Worker,
};
use isasgd_core::{
    CommitPolicy, ImportanceScheme, LogisticLoss, Objective, Regularizer, SamplingStrategy,
};
use isasgd_sampling::Sampler;
use isasgd_sparse::{Dataset, DatasetBuilder};
use std::collections::{BTreeSet, VecDeque};

/// Which fault actions the stepper may enumerate, and how many total
/// fault injections one schedule may spend (`budget`). Plain delivery
/// in arrival order is always enabled and never costs budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultSpec {
    /// Enable out-of-order delivery (a later frame of the window).
    pub reorder: bool,
    /// How deep into a channel a reordered delivery may reach.
    pub reorder_window: u8,
    /// Enable duplicate injection (with an owed extra copy sent as a
    /// step of its own).
    pub duplicate: bool,
    /// Enable held (delayed) frames.
    pub hold: bool,
    /// Enable message loss. Losing a required message is expected to
    /// starve the protocol: runs where a drop fired may deadlock without
    /// that counting as a violation.
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

/// Counters of fault actions that fired during one schedule.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultCounts {
    /// Duplicate injections (owed extras created).
    pub dups: u64,
    /// Held (delayed) frames.
    pub holds: u64,
    /// Dropped (lost) frames.
    pub drops: u64,
    /// Out-of-order deliveries (a frame behind the head).
    pub reorders: u64,
}

/// A deterministic model-checking scenario: cluster shape, data and
/// fault vocabulary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScenarioSpec {
    /// Worker count.
    pub nodes: usize,
    /// Synchronization rounds.
    pub rounds: usize,
    /// Local epochs per round.
    pub local_epochs: usize,
    /// Dataset rows (skewed synthetic data, 8 features).
    pub rows: u32,
    /// Cluster RNG seed.
    pub seed: u64,
    /// Adaptive sampling (exercises the FeedbackBatch path) vs static.
    pub adaptive: bool,
    /// Worker checkpoint cadence in rounds (0 = disabled). Exercises
    /// the `Checkpoint` frame path: workers emit state snapshots that a
    /// coordinator must absorb without perturbing bit-identity.
    pub checkpoint_every: u64,
    /// Fault vocabulary the stepper may enumerate.
    pub faults: FaultSpec,
}

impl Default for ScenarioSpec {
    fn default() -> Self {
        ScenarioSpec {
            nodes: 2,
            rounds: 2,
            local_epochs: 1,
            rows: 96,
            seed: 0x15A5_6D00,
            adaptive: true,
            checkpoint_every: 0,
            faults: FaultSpec::none(),
        }
    }
}

/// The judged result of one schedule.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// The invariant verdict (meaningful only when `aborted` is None).
    pub verdict: Verdict,
    /// Why the run was cut short, if it was (pruned / depth-capped /
    /// replay divergence) — the verdict of an aborted run is vacuous.
    pub aborted: Option<AbortKind>,
    /// Whether the run starved: no step left while a machine was
    /// unfinished.
    pub deadlocked: bool,
    /// Fault actions that fired.
    pub counts: FaultCounts,
    /// Frames still in flight at the end whose content was never
    /// delivered.
    pub leaks: Vec<String>,
    /// A machine's error, if the run failed.
    pub run_error: Option<String>,
}

fn skewed(n: u32) -> Dataset {
    let mut b = DatasetBuilder::new(8);
    for i in 0..n as usize {
        let norm = if i % 7 == 0 { 5.0 } else { 0.4 };
        let j = (i % 4) as u32;
        let y = if i % 2 == 0 { 1.0 } else { -1.0 };
        b.push_row(&[(j, y * norm), (4 + j, 0.5 * y * norm)], y)
            .unwrap();
    }
    b.finish()
}

fn cluster_cfg(spec: &ScenarioSpec) -> ClusterConfig {
    ClusterConfig {
        nodes: spec.nodes,
        rounds: spec.rounds,
        local_epochs: spec.local_epochs,
        step_size: 0.3,
        importance: ImportanceScheme::LipschitzSmoothness,
        sampling: if spec.adaptive {
            SamplingStrategy::Adaptive
        } else {
            SamplingStrategy::Static
        },
        commit: CommitPolicy::EpochBoundary,
        transport: TransportConfig::InProcess,
        seed: spec.seed,
        checkpoint_every: spec.checkpoint_every,
        ..ClusterConfig::default()
    }
}

/// Everything one exploration reuses across schedules: the run's plan
/// and config, the oracle — the same run over the threaded in-process
/// drivers — and the feedback mirrors a faultless run leaves.
struct Ctx {
    obj: Objective<LogisticLoss>,
    cfg: ClusterConfig,
    plan: Rearranged,
    oracle: ClusterRun,
    /// The mirror states of the faultless schedule (`Net::mirrors`),
    /// which takes no decision and feeds the coordinator the frames the
    /// threaded run does, in the order it does.
    mirrors: Vec<u64>,
}

fn ctx(spec: &ScenarioSpec) -> Ctx {
    let ds = skewed(spec.rows);
    let obj = Objective::new(LogisticLoss, Regularizer::None);
    let cfg = cluster_cfg(spec);
    let oracle = run_with_links(&ds, &obj, &cfg, in_process_links(spec.nodes))
        .expect("oracle run of a valid spec");
    let plan = plan_run(&ds, &obj, &cfg).expect("plan of a valid spec");
    let mut ctx = Ctx {
        obj,
        cfg,
        plan,
        oracle,
        mirrors: Vec::new(),
    };
    // The faultless schedule's mirror record is every run's baseline,
    // so its outcome must be the threaded oracle's.
    let mut net = Net::new(&ctx, FaultSpec::none()).expect("machines of a valid spec");
    let done = step(&mut net, &mut Chooser::default());
    assert_eq!(done, Ok(true), "the faultless schedule takes no decision");
    let run = net.coord.finish(Vec::new(), Vec::new());
    let oracle = &ctx.oracle;
    assert!(
        run.model == oracle.model
            && run.observed_phi_imbalance == oracle.observed_phi_imbalance
            && run.feedback_rows == oracle.feedback_rows,
        "the faultless stepped run diverged from the in-process oracle"
    );
    ctx.mirrors = net.mirrors;
    ctx
}

/// A frame in a channel or held at an endpoint. Copies of one frame (a
/// duplicate's two) share its `id`.
#[derive(Debug, Clone)]
struct InFlight {
    id: u64,
    injected: bool,
    msg: Message,
}

/// A machine's frame on its way out through endpoint `ep`; `owed` names
/// a duplicated frame whose extra copy is still to be sent.
struct Sending {
    ep: usize,
    msg: Message,
    owed: Option<u64>,
}

/// One possible step; `m` is a machine (worker `k` is `k`, the
/// coordinator `nodes`), `ep` an endpoint.
#[derive(Debug, Clone, Copy)]
enum Action {
    Deliver { ep: usize, slot: usize },
    Emit { m: usize },
    Dup { m: usize },
    Hold { m: usize },
    Drop { m: usize },
    Extra { m: usize },
    Release { ep: usize },
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
    fnv(FNV_OFFSET, &msg.to_bytes())
}

/// The cluster's machines and the frames between them: the whole state
/// of one stepped run.
struct Net<'a> {
    nodes: usize,
    coord: Coordinator<'a, LogisticLoss>,
    workers: Vec<Worker<'a, LogisticLoss>>,
    /// The coordinator's round frames not yet on their way out.
    outbox: VecDeque<(usize, Message)>,
    /// The link the coordinator is collecting from, once it says so.
    collecting: Option<usize>,
    coord_done: bool,
    /// Every feedback mirror's weights and pending observations, bit
    /// for bit, as each round starts and as the run ends — before a
    /// round's feedback is folded, while its raw observations show.
    mirrors: Vec<u64>,
    /// Each machine's frame on its way out.
    sending: Vec<Option<Sending>>,
    /// Frames each machine has sent.
    emitted: Vec<u64>,
    /// Per channel: frames in flight, and a hash of its delivery
    /// history (content).
    queues: Vec<VecDeque<InFlight>>,
    rx_hash: Vec<u64>,
    /// Per endpoint: the frame it holds back.
    held: Vec<Option<InFlight>>,
    delivered: BTreeSet<u64>,
    next_id: u64,
    faults: FaultSpec,
    budget: u8,
    counts: FaultCounts,
}

impl<'a> Net<'a> {
    fn new(ctx: &'a Ctx, faults: FaultSpec) -> Result<Self, String> {
        let nodes = ctx.cfg.nodes;
        let workers = (0..nodes)
            .map(|k| Worker::in_plan(&ctx.plan, k, &ctx.obj, &ctx.cfg))
            .collect::<Result<_, _>>()
            .map_err(|e| format!("{e:?}"))?;
        Ok(Net {
            nodes,
            coord: Coordinator::new(&ctx.plan, &ctx.obj, &ctx.cfg).map_err(|e| format!("{e:?}"))?,
            workers,
            outbox: VecDeque::new(),
            collecting: None,
            coord_done: false,
            mirrors: Vec::new(),
            sending: (0..=nodes).map(|_| None).collect(),
            emitted: vec![0; nodes + 1],
            queues: (0..2 * nodes).map(|_| VecDeque::new()).collect(),
            rx_hash: vec![FNV_OFFSET; 2 * nodes],
            held: vec![None; 2 * nodes],
            delivered: BTreeSet::new(),
            next_id: 0,
            faults,
            budget: faults.budget,
            counts: FaultCounts::default(),
        })
    }

    /// The endpoint machine `m` receives on now, if it is receiving.
    fn receiving(&self, m: usize) -> Option<usize> {
        if self.sending[m].is_some() {
            return None;
        }
        if m < self.nodes {
            (!self.workers[m].finished()).then_some(2 * m + 1)
        } else {
            self.collecting.map(|k| 2 * k)
        }
    }

    /// How many frames a delivery to endpoint `ep` may choose among.
    fn window(&self, ep: usize) -> usize {
        let q = self.queues[ep ^ 1].len();
        if self.faults.reorder && self.budget > 0 {
            q.min(self.faults.reorder_window as usize)
        } else {
            q.min(1)
        }
    }

    /// Whether a fault could befall frame `s` as it is emitted.
    fn fault_eligible(&self, s: &Sending) -> bool {
        self.budget > 0
            && (self.faults.duplicate
                || (self.faults.hold && self.held[s.ep].is_none())
                || self.faults.drop)
    }

    /// Asks every machine without a frame on its way out for its next.
    fn refill(&mut self) -> Result<(), String> {
        let err = |e| format!("{e:?}");
        for k in 0..self.nodes {
            if self.sending[k].is_none() {
                if let Some(msg) = self.workers[k].next_send().map_err(err)? {
                    let ep = 2 * k + 1;
                    self.sending[k] = Some(Sending {
                        ep,
                        msg,
                        owed: None,
                    });
                }
            }
        }
        let c = self.nodes;
        while self.sending[c].is_none() && self.collecting.is_none() && !self.coord_done {
            if let Some((ep, msg)) = self.outbox.pop_front() {
                self.sending[c] = Some(Sending {
                    ep,
                    msg,
                    owed: None,
                });
                break;
            }
            let boundary = match self.coord.poll() {
                CoordinatorStep::Broadcast(mut model) => {
                    for k in 0..self.nodes {
                        let node = k as u32;
                        self.outbox.push_back((2 * k, model.barrier(node)));
                        self.outbox.push_back((2 * k, model.message(node).clone()));
                    }
                    true
                }
                CoordinatorStep::Collect(k) => {
                    self.collecting = Some(k);
                    false
                }
                CoordinatorStep::Done => {
                    self.coord_done = true;
                    true
                }
            };
            if boundary {
                for m in self.coord.mirrors() {
                    let state = (0..m.len()).flat_map(|i| [m.weight(i), m.pending(i)]);
                    self.mirrors.extend(state.map(f64::to_bits));
                }
            }
        }
        Ok(())
    }

    /// The step that runs without a decision, if there is one. A
    /// machine's sends run first, as a thread runs until it blocks, so
    /// a burst of frames is in its channel before the receiver is
    /// offered a delivery from it.
    fn forced(&self) -> Option<Action> {
        let emit = (0..=self.nodes).find(|&m| {
            (self.sending[m].as_ref()).is_some_and(|s| s.owed.is_none() && !self.fault_eligible(s))
        });
        if let Some(m) = emit {
            return Some(Action::Emit { m });
        }
        let receiving = (0..=self.nodes).filter_map(|m| self.receiving(m));
        for ep in receiving {
            if self.held[ep].is_some() {
                return Some(Action::Release { ep });
            }
            if self.window(ep) == 1 {
                return Some(Action::Deliver { ep, slot: 0 });
            }
        }
        None
    }

    fn actions(&self) -> Vec<Action> {
        let mut actions = Vec::new();
        for m in 0..=self.nodes {
            match &self.sending[m] {
                Some(Sending { owed: Some(_), .. }) => actions.push(Action::Extra { m }),
                Some(s) => {
                    actions.push(Action::Emit { m });
                    if self.budget > 0 {
                        if self.faults.duplicate {
                            actions.push(Action::Dup { m });
                        }
                        if self.faults.hold && self.held[s.ep].is_none() {
                            actions.push(Action::Hold { m });
                        }
                        if self.faults.drop {
                            actions.push(Action::Drop { m });
                        }
                    }
                }
                None => {
                    if let Some(ep) = self.receiving(m) {
                        for slot in 0..self.window(ep) {
                            actions.push(Action::Deliver { ep, slot });
                        }
                    }
                }
            }
        }
        for (ep, h) in self.held.iter().enumerate() {
            if h.is_some() {
                actions.push(Action::Release { ep });
            }
        }
        actions
    }

    /// A new frame's copy, under an id of its own.
    fn fresh(&mut self, msg: Message) -> InFlight {
        self.next_id += 1;
        InFlight {
            id: self.next_id,
            injected: false,
            msg,
        }
    }

    /// Machine `m` is done with the frame it was sending.
    fn sent(&mut self, m: usize) {
        let s = self.sending[m].take().expect("a frame on its way out");
        self.emitted[m] += 1;
        if m < self.nodes {
            self.workers[m].sent(s.msg);
        }
    }

    fn apply(&mut self, a: Action) -> Result<(), String> {
        match a {
            Action::Deliver { ep, slot } => {
                let c = ep ^ 1;
                let f = self.queues[c].remove(slot).expect("an offered slot");
                if slot > 0 {
                    self.budget -= 1;
                    self.counts.reorders += 1;
                }
                self.delivered.insert(f.id);
                self.rx_hash[c] = fnv_u64(self.rx_hash[c], msg_hash(&f.msg));
                let fed = if ep % 2 == 1 {
                    self.workers[ep / 2].on(f.msg)
                } else {
                    self.collecting = None;
                    self.coord.on(f.msg)
                };
                fed.map_err(|e| format!("{e:?}"))?;
            }
            Action::Emit { m } | Action::Dup { m } => {
                let s = self.sending[m].as_ref().expect("an offered send");
                let (ep, msg) = (s.ep, s.msg.clone());
                let f = self.fresh(msg);
                let id = f.id;
                self.queues[ep].push_back(f);
                if matches!(a, Action::Dup { .. }) {
                    // The sender stays sending, owing the extra copy:
                    // sending it is a step of its own, which other
                    // machines' steps may interleave with.
                    self.sending[m].as_mut().expect("an offered send").owed = Some(id);
                    self.budget -= 1;
                    self.counts.dups += 1;
                } else {
                    self.sent(m);
                }
            }
            Action::Extra { m } => {
                let s = self.sending[m].as_ref().expect("an offered extra");
                let f = InFlight {
                    id: s.owed.expect("an owed copy"),
                    injected: true,
                    msg: s.msg.clone(),
                };
                self.queues[s.ep].push_back(f);
                self.sent(m);
            }
            Action::Hold { m } => {
                let s = self.sending[m].as_ref().expect("an offered send");
                let (ep, msg) = (s.ep, s.msg.clone());
                self.held[ep] = Some(self.fresh(msg));
                self.budget -= 1;
                self.counts.holds += 1;
                self.sent(m);
            }
            Action::Drop { m } => {
                self.budget -= 1;
                self.counts.drops += 1;
                self.sent(m);
            }
            Action::Release { ep } => {
                let h = self.held[ep].take().expect("an offered release");
                self.queues[ep].push_back(h);
            }
        }
        self.refill()
    }

    /// Fingerprint of the decision-relevant state. Frame *content*
    /// (never ids) is hashed, so schedules that commute into the same
    /// state collide as intended: every machine is a deterministic
    /// function of what it received and how many frames it sent.
    fn state_hash(&self, decisions: usize) -> u64 {
        let mut h = fnv_u64(FNV_OFFSET, decisions as u64);
        h = fnv_u64(h, u64::from(self.budget));
        for held in &self.held {
            h = match held {
                Some(f) => fnv_u64(fnv_u64(h, 1), msg_hash(&f.msg)),
                None => fnv_u64(h, 2),
            };
        }
        for (q, rx) in self.queues.iter().zip(&self.rx_hash) {
            h = fnv_u64(fnv_u64(h, 0x10 + q.len() as u64), *rx);
            for f in q {
                h = fnv_u64(h, msg_hash(&f.msg));
                h = fnv_u64(h, f.injected as u64);
                h = fnv_u64(h, self.delivered.contains(&f.id) as u64);
            }
        }
        for (s, n) in self.sending.iter().zip(&self.emitted) {
            h = fnv_u64(h, *n);
            h = match s {
                None => fnv_u64(h, 0x20),
                Some(s) => {
                    let tag = 0x21 + s.owed.is_some() as u64;
                    fnv_u64(fnv_u64(fnv_u64(h, tag), s.ep as u64), msg_hash(&s.msg))
                }
            };
        }
        h
    }

    /// Frames in flight whose content was never delivered.
    fn leaks(&self) -> Vec<String> {
        let mut leaks = Vec::new();
        for (c, q) in self.queues.iter().enumerate() {
            for f in q {
                if !self.delivered.contains(&f.id) {
                    leaks.push(format!(
                        "{} (injected: {}) still in flight on channel {c} at the end, \
                         its content never delivered",
                        f.msg.kind(),
                        f.injected
                    ));
                }
            }
        }
        leaks
    }
}

/// Steps `net` to its end under `chooser`: `Ok(true)` when every
/// machine finished, `Ok(false)` on a deadlock or an abort, `Err` on a
/// machine's error.
fn step(net: &mut Net<'_>, chooser: &mut Chooser) -> Result<bool, String> {
    net.refill()?;
    loop {
        if let Some(a) = net.forced() {
            net.apply(a)?;
            continue;
        }
        let actions = net.actions();
        let idx = match actions.len() {
            0 => {
                let done = net.coord_done && net.workers.iter().all(Worker::finished);
                return Ok(done);
            }
            1 => 0,
            n => match chooser.choose(n, Some(net.state_hash(chooser.decisions()))) {
                Choice::Take(i) => i,
                Choice::Abort(_) => return Ok(false),
            },
        };
        net.apply(actions[idx])?;
    }
}

fn classify(
    outcome: &Outcome,
    result: &Result<(ClusterRun, Vec<u64>), String>,
    ctx: &Ctx,
) -> Verdict {
    let oracle = &ctx.oracle;
    let counts = &outcome.counts;
    if outcome.deadlocked {
        return if counts.drops > 0 {
            // Losing a required message is *supposed* to starve the
            // protocol; the invariant is that it never corrupts it.
            Verdict::ExpectedDeadlock
        } else {
            Verdict::Violation("deadlock without any drop fault".into())
        };
    }
    let (run, mirrors) = match result {
        Err(_) if counts.drops > 0 => return Verdict::ExpectedDeadlock,
        Err(e) => {
            return Verdict::Violation(format!("cluster run failed without deadlock: {e}"));
        }
        Ok(run) => run,
    };
    if run.model != oracle.model {
        return Verdict::Violation("final model diverged from the in-process oracle".into());
    }
    if run.trace.points_without_clock() != oracle.trace.points_without_clock() {
        return Verdict::Violation("round trace diverged from the in-process oracle".into());
    }
    if run.phi_imbalance != oracle.phi_imbalance || run.balanced != oracle.balanced {
        return Verdict::Violation("balancing outcome diverged from the in-process oracle".into());
    }
    if counts.drops == 0 {
        // Without losses every feedback mirror must be bit-identical
        // at every round boundary — to the oracle's at the end, and to
        // the faultless schedule's throughout; duplicated batches may
        // inflate the applied-entry *count* (idempotent absorption),
        // never a mirror's weights or pending observations.
        if run.observed_phi_imbalance != oracle.observed_phi_imbalance || *mirrors != ctx.mirrors {
            return Verdict::Violation(
                "feedback mirror diverged: duplicated/reordered feedback was not absorbed \
                 idempotently"
                    .into(),
            );
        }
        if counts.dups > 0 {
            if run.feedback_rows < oracle.feedback_rows {
                return Verdict::Violation("feedback entries lost under duplication".into());
            }
        } else if run.feedback_rows != oracle.feedback_rows {
            return Verdict::Violation("feedback entry count changed without any fault".into());
        }
        if !outcome.leaks.is_empty() {
            return Verdict::Violation(format!(
                "undelivered message content leaked at the end: {}",
                outcome.leaks.join("; ")
            ));
        }
    }
    Verdict::Pass
}

/// Runs `spec` once under `chooser`, returning the judged outcome and
/// the chooser (whose decision log the explorer backtracks on).
pub fn run_schedule(spec: &ScenarioSpec, chooser: Chooser) -> (Outcome, Chooser) {
    run_schedule_in(&ctx(spec), spec, chooser)
}

fn run_schedule_in(ctx: &Ctx, spec: &ScenarioSpec, mut chooser: Chooser) -> (Outcome, Chooser) {
    let mut outcome = Outcome {
        verdict: Verdict::Pass,
        aborted: None,
        deadlocked: false,
        counts: FaultCounts::default(),
        leaks: Vec::new(),
        run_error: None,
    };
    let result = Net::new(ctx, spec.faults).and_then(|mut net| {
        let stepped = step(&mut net, &mut chooser);
        outcome.counts = net.counts;
        outcome.leaks = net.leaks();
        match stepped? {
            true => Ok((net.coord.finish(Vec::new(), Vec::new()), net.mirrors)),
            false => {
                outcome.deadlocked = chooser.aborted().is_none();
                Err("starved: no step left while a machine was unfinished".into())
            }
        }
    });
    outcome.aborted = chooser.aborted();
    // A run cut short by the explorer has nothing to judge.
    if outcome.aborted.is_none() {
        outcome.run_error = result.as_ref().err().cloned();
        outcome.verdict = classify(&outcome, &result, ctx);
    }
    (outcome, chooser)
}

/// Exhaustively explores `spec` (bounded by `max_decisions` choices per
/// schedule), stopping at the first violation.
pub fn explore_scenario(spec: &ScenarioSpec, max_decisions: usize) -> Exploration {
    let ctx = ctx(spec);
    explore(max_decisions, |ch| {
        let chooser = std::mem::take(ch);
        let (outcome, chooser) = run_schedule_in(&ctx, spec, chooser);
        *ch = chooser;
        outcome.verdict
    })
}

/// Samples `walks` seeded random schedules of `spec` (for configs too
/// large to exhaust). Reports with the same no-silent-truncation stats
/// as [`explore_scenario`]; the walk itself is the declared truncation.
pub fn sample_scenario(
    spec: &ScenarioSpec,
    max_decisions: usize,
    walks: u64,
    seed: u64,
) -> Exploration {
    let ctx = ctx(spec);
    let mut stats = ExploreStats {
        truncated: Some(format!("random walk: {walks} sampled schedules")),
        ..ExploreStats::default()
    };
    let mut counterexample = None;
    for i in 0..walks {
        let chooser = Chooser::walk(seed.wrapping_add(i), max_decisions);
        let (outcome, chooser) = run_schedule_in(&ctx, spec, chooser);
        stats.decisions += chooser.decisions() as u64;
        stats.max_depth_seen = stats.max_depth_seen.max(chooser.decisions() as u64);
        match outcome.aborted {
            Some(AbortKind::DepthCapped) => stats.depth_capped += 1,
            Some(_) => {}
            None => {
                stats.schedules += 1;
                match outcome.verdict {
                    Verdict::Pass => {}
                    Verdict::ExpectedDeadlock => stats.expected_deadlocks += 1,
                    Verdict::Violation(what) => {
                        stats.violations += 1;
                        counterexample = Some(crate::explore::Counterexample {
                            what,
                            choices: chooser.log().iter().map(|&(c, _)| c).collect(),
                        });
                        break;
                    }
                }
            }
        }
    }
    Exploration {
        stats,
        counterexample,
    }
}
