//! The DFS schedule explorer and its [`Chooser`] — the single source
//! of nondeterminism for a model-checked run.
//!
//! A *schedule* is the sequence of choices made at every decision
//! point of one run (`choices[i] < n_options[i]`). Exploration is
//! stateless re-execution, loom-style: each run replays a committed
//! prefix of choices and extends it with choice `0`; backtracking
//! increments the last decision that still has untried alternatives
//! and pops exhausted ones, so the whole bounded tree is enumerated in
//! depth-first order without ever snapshotting program state.
//!
//! Soundness of state-hash pruning: every machine in the model is a
//! deterministic function of what it received and how many frames it
//! sent, so two schedules that reach the same state (per-channel
//! delivery-history hashes, in-flight and held frames, the frames on
//! their way out, remaining fault budget, decision count) root
//! identical subtrees. A hash is only
//! consulted — and only inserted — at *extension* decisions (beyond
//! the replayed prefix): replayed decisions must never self-prune the
//! exploration that is enumerating their own subtree.

use std::collections::BTreeSet;
use std::sync::{Arc, Mutex};

/// Why a run was cut short before reaching a terminal protocol state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AbortKind {
    /// An extension decision reached a state already explored under an
    /// earlier prefix (implicit partial-order reduction).
    Pruned,
    /// The decision budget (`max_decisions`) was exhausted.
    DepthCapped,
    /// A replayed script asked for a choice the run did not offer —
    /// the committed schedule no longer matches the code under test.
    ReplayDiverged,
}

/// How a [`Chooser`] resolves decisions beyond its scripted prefix.
enum Mode {
    /// Extend with choice 0, consulting/filling the shared visited set.
    Dfs { visited: Arc<Mutex<BTreeSet<u64>>> },
    /// Refuse to extend: a counterexample replay must be fully scripted.
    Replay,
    /// Seeded random walk (schedule sampling for large configs).
    Walk { state: u64 },
}

/// One run's decision maker: replays a scripted choice prefix, then
/// extends it according to its mode (depth-first search, strict
/// replay or a seeded random walk). Every decision is logged with its
/// fan-out so the explorer can backtrack.
pub struct Chooser {
    script: Vec<u32>,
    pos: usize,
    log: Vec<(u32, u32)>,
    max_decisions: usize,
    mode: Mode,
    aborted: Option<AbortKind>,
}

/// The outcome of one decision point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Choice {
    /// Take alternative `i` of the offered actions.
    Take(usize),
    /// Stop the run; see [`AbortKind`].
    Abort(AbortKind),
}

impl Default for Chooser {
    fn default() -> Self {
        Chooser::replay(Vec::new(), 0)
    }
}

impl Chooser {
    fn new(script: Vec<u32>, max_decisions: usize, mode: Mode) -> Self {
        Chooser {
            script,
            pos: 0,
            log: Vec::new(),
            max_decisions,
            mode,
            aborted: None,
        }
    }

    /// DFS mode: replay `script`, then extend with choice 0, pruning
    /// extension states already in `visited`.
    pub fn dfs(script: Vec<u32>, max_decisions: usize, visited: Arc<Mutex<BTreeSet<u64>>>) -> Self {
        Self::new(script, max_decisions, Mode::Dfs { visited })
    }

    /// Replay mode: the run must be fully determined by `script`.
    pub fn replay(script: Vec<u32>, max_decisions: usize) -> Self {
        Self::new(script, max_decisions, Mode::Replay)
    }

    /// Random-walk mode: sample one schedule per seed.
    pub fn walk(seed: u64, max_decisions: usize) -> Self {
        Self::new(
            Vec::new(),
            max_decisions,
            Mode::Walk {
                state: seed ^ 0x9E37_79B9_7F4A_7C15,
            },
        )
    }

    /// Decides among `n_options` alternatives. `state_hash`, when
    /// given, is a fingerprint of the decision state used for pruning
    /// (DFS mode only). Single-option decisions are free: they consume
    /// no depth and are not logged, so forced protocol steps never
    /// count against the exploration bound.
    pub fn choose(&mut self, n_options: usize, state_hash: Option<u64>) -> Choice {
        if let Some(k) = self.aborted {
            return Choice::Abort(k);
        }
        if n_options <= 1 {
            return Choice::Take(0);
        }
        if self.log.len() >= self.max_decisions {
            return self.abort(AbortKind::DepthCapped);
        }
        if self.pos < self.script.len() {
            let c = self.script[self.pos];
            if (c as usize) >= n_options {
                return self.abort(AbortKind::ReplayDiverged);
            }
            self.pos += 1;
            self.log.push((c, n_options as u32));
            return Choice::Take(c as usize);
        }
        let c = match &mut self.mode {
            Mode::Dfs { visited } => {
                if let Some(h) = state_hash {
                    let mut seen = visited.lock().unwrap_or_else(|e| e.into_inner());
                    if !seen.insert(h) {
                        drop(seen);
                        return self.abort(AbortKind::Pruned);
                    }
                }
                0
            }
            Mode::Replay => return self.abort(AbortKind::ReplayDiverged),
            Mode::Walk { state } => {
                // splitmix64 step — cheap, seeded, self-contained.
                *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = *state;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                (z ^ (z >> 31)) % n_options as u64
            }
        };
        self.log.push((c as u32, n_options as u32));
        Choice::Take(c as usize)
    }

    fn abort(&mut self, kind: AbortKind) -> Choice {
        self.aborted = Some(kind);
        Choice::Abort(kind)
    }

    /// The abort that ended this run, if any.
    pub fn aborted(&self) -> Option<AbortKind> {
        self.aborted
    }

    /// Decisions taken so far (forced steps excluded).
    pub fn decisions(&self) -> usize {
        self.log.len()
    }

    /// The full `(choice, fan_out)` log of this run.
    pub fn log(&self) -> &[(u32, u32)] {
        &self.log
    }
}

/// Aggregate counters for one exploration. Every run is accounted for
/// in exactly one of `schedules` / `pruned` / `depth_capped`, so a
/// bounded exploration can never under-report silently.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ExploreStats {
    /// Runs that reached a terminal protocol state and were judged.
    pub schedules: u64,
    /// Judged runs that violated an invariant.
    pub violations: u64,
    /// Judged runs that deadlocked *as anticipated* (a drop fault
    /// consumed a required message).
    pub expected_deadlocks: u64,
    /// Runs cut by the state-hash visited set.
    pub pruned: u64,
    /// Runs cut by the decision bound.
    pub depth_capped: u64,
    /// Total decisions taken across all runs.
    pub decisions: u64,
    /// Deepest decision count seen in a single run.
    pub max_depth_seen: u64,
    /// Why the search sampled the tree instead of enumerating it (a
    /// random walk), if it did.
    pub truncated: Option<String>,
}

impl ExploreStats {
    /// True when every schedule was enumerated: no sampling, and no run
    /// cut by the decision bound (a depth-capped run's subtree is
    /// unexplored).
    pub fn exhaustive(&self) -> bool {
        self.truncated.is_none() && self.depth_capped == 0
    }
}

/// What one judged run concluded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verdict {
    /// All invariants held.
    Pass,
    /// Deadlocked, but a drop fault fired — losing a required message
    /// is *supposed* to starve the protocol, never to corrupt it.
    ExpectedDeadlock,
    /// An invariant was violated; the string names it.
    Violation(String),
}

/// The first counterexample found: the violated invariant plus the
/// exact choice script that reproduces it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Counterexample {
    /// The violation description.
    pub what: String,
    /// The choice at every decision point of the failing run.
    pub choices: Vec<u32>,
}

/// The outcome of [`explore`].
#[derive(Debug, Clone)]
pub struct Exploration {
    /// Aggregate counters.
    pub stats: ExploreStats,
    /// The first (DFS-least) violation found, if any.
    pub counterexample: Option<Counterexample>,
}

/// Enumerates, depth-first, every schedule of `run` up to
/// `max_decisions` choices per run, sharing one visited set across
/// runs for state-hash pruning. `run` executes the scenario once under
/// the given chooser and judges it; it must be deterministic given the
/// chooser's choices. Stops early at the first violation (the DFS-least
/// counterexample); runs cut by the decision bound are counted, and
/// make the exploration non-[exhaustive](ExploreStats::exhaustive).
pub fn explore<F>(max_decisions: usize, mut run: F) -> Exploration
where
    F: FnMut(&mut Chooser) -> Verdict,
{
    let visited = Arc::new(Mutex::new(BTreeSet::new()));
    let mut stats = ExploreStats::default();
    let mut prefix: Vec<(u32, u32)> = Vec::new();
    let mut counterexample = None;
    loop {
        let script: Vec<u32> = prefix.iter().map(|&(c, _)| c).collect();
        let mut chooser = Chooser::dfs(script, max_decisions, visited.clone());
        let verdict = run(&mut chooser);
        stats.decisions += chooser.decisions() as u64;
        stats.max_depth_seen = stats.max_depth_seen.max(chooser.decisions() as u64);
        match chooser.aborted() {
            Some(AbortKind::Pruned) => stats.pruned += 1,
            Some(AbortKind::DepthCapped) => stats.depth_capped += 1,
            Some(AbortKind::ReplayDiverged) => {
                // A DFS prefix is replayed against the same code that
                // recorded it; divergence means the scenario is
                // nondeterministic — a checker bug, not a scheduling
                // outcome. Surface it as a violation.
                stats.schedules += 1;
                stats.violations += 1;
                counterexample = Some(Counterexample {
                    what: "nondeterministic scenario: a replayed DFS prefix diverged".into(),
                    choices: chooser.log().iter().map(|&(c, _)| c).collect(),
                });
                break;
            }
            None => {
                stats.schedules += 1;
                match verdict {
                    Verdict::Pass => {}
                    Verdict::ExpectedDeadlock => stats.expected_deadlocks += 1,
                    Verdict::Violation(what) => {
                        stats.violations += 1;
                        counterexample = Some(Counterexample {
                            what,
                            choices: chooser.log().iter().map(|&(c, _)| c).collect(),
                        });
                        break;
                    }
                }
            }
        }
        // Backtrack: drop exhausted trailing decisions, bump the last
        // one that still has an untried alternative.
        let mut log = chooser.log().to_vec();
        loop {
            match log.pop() {
                None => {
                    return Exploration {
                        stats,
                        counterexample,
                    }
                }
                Some((c, n)) if c + 1 < n => {
                    log.push((c + 1, n));
                    break;
                }
                Some(_) => {}
            }
        }
        prefix = log;
    }
    Exploration {
        stats,
        counterexample,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A toy 3-level tree with fan-out 2: exploration must visit all 8
    /// leaves when nothing prunes.
    #[test]
    fn dfs_enumerates_the_full_tree() {
        let mut seen = Vec::new();
        let out = explore(8, |ch| {
            let mut path = Vec::new();
            for _ in 0..3 {
                match ch.choose(2, None) {
                    Choice::Take(i) => path.push(i),
                    Choice::Abort(_) => return Verdict::Pass,
                }
            }
            seen.push(path);
            Verdict::Pass
        });
        assert_eq!(out.stats.schedules, 8);
        assert_eq!(out.stats.violations, 0);
        assert!(out.stats.exhaustive());
        assert_eq!(seen.len(), 8);
        seen.dedup();
        assert_eq!(seen.len(), 8, "every leaf distinct");
        // DFS order: first leaf all-zeros, last all-ones.
        assert_eq!(seen[0], vec![0, 0, 0]);
        assert_eq!(seen[7], vec![1, 1, 1]);
    }

    #[test]
    fn first_violation_stops_exploration_with_its_script() {
        let out = explore(8, |ch| {
            let mut path = Vec::new();
            for _ in 0..2 {
                match ch.choose(3, None) {
                    Choice::Take(i) => path.push(i as u32),
                    Choice::Abort(_) => return Verdict::Pass,
                }
            }
            if path == [0, 2] {
                Verdict::Violation("boom".into())
            } else {
                Verdict::Pass
            }
        });
        let ce = out.counterexample.expect("violation found");
        assert_eq!(ce.what, "boom");
        assert_eq!(ce.choices, vec![0, 2]);
        // DFS-least: [0,0], [0,1] passed first.
        assert_eq!(out.stats.schedules, 3);
        assert_eq!(out.stats.violations, 1);
    }

    #[test]
    fn state_hash_pruning_merges_commuting_paths() {
        // Three binary decisions whose *multiset* of choices determines
        // the state, so differently-ordered prefixes commute. Without
        // pruning: 8 leaves; with it, the subtree under the merged
        // prefix multiset {0,1} is explored only once.
        let mut leaves = 0u32;
        let out = explore(8, |ch| {
            let mut picked: Vec<u64> = Vec::new();
            for _ in 0..3 {
                picked.sort_unstable();
                let hash = picked.iter().fold(0x9E37 + picked.len() as u64, |a, &x| {
                    a.wrapping_mul(31).wrapping_add(x + 1)
                });
                match ch.choose(2, Some(hash)) {
                    Choice::Take(i) => picked.push(i as u64),
                    Choice::Abort(_) => return Verdict::Pass,
                }
            }
            leaves += 1;
            Verdict::Pass
        });
        assert!(out.stats.pruned > 0, "commuting prefix must prune");
        assert!(
            out.stats.schedules < 8,
            "pruning must cut the leaf count: {:?}",
            out.stats
        );
        assert_eq!(leaves, out.stats.schedules as u32);
    }

    #[test]
    fn depth_cap_is_counted_not_silent() {
        let out = explore(2, |ch| loop {
            match ch.choose(2, None) {
                Choice::Take(_) => {}
                Choice::Abort(_) => return Verdict::Pass,
            }
        });
        assert!(out.stats.depth_capped > 0);
        assert_eq!(out.stats.schedules, 0);
        assert!(!out.stats.exhaustive(), "{:?}", out.stats);
    }

    #[test]
    fn replay_follows_script_and_rejects_divergence() {
        let mut ch = Chooser::replay(vec![1, 0], 16);
        assert_eq!(ch.choose(3, None), Choice::Take(1));
        assert_eq!(ch.choose(2, None), Choice::Take(0));
        assert_eq!(
            ch.choose(2, None),
            Choice::Abort(AbortKind::ReplayDiverged),
            "script exhausted"
        );
        let mut ch = Chooser::replay(vec![5], 16);
        assert_eq!(
            ch.choose(3, None),
            Choice::Abort(AbortKind::ReplayDiverged),
            "choice out of range"
        );
    }

    #[test]
    fn walks_are_seed_deterministic() {
        let walk = |seed| {
            let mut ch = Chooser::walk(seed, 64);
            (0..10)
                .map(|_| match ch.choose(4, None) {
                    Choice::Take(i) => i,
                    Choice::Abort(_) => usize::MAX,
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(walk(7), walk(7));
        assert_ne!(walk(7), walk(8));
    }
}
