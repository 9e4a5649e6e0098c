//! Fleet admission under *systematically* adversarial handshake
//! interleavings.
//!
//! `process_fleet.rs` (in the cluster crate) fires one fixed volley of
//! junk at the listener; here the mischief is a small enumerated
//! vocabulary and the tests sweep every single mischief and every
//! ordered pair of the fire-and-forget ones, each injected *ahead of*
//! a real worker's connection. Because the spawner runs on the fleet
//! thread before `accept_worker`, fire-and-forget connections queue in
//! the listener backlog in script order — the interleaving with the
//! real worker's handshake is systematic, not racy.
//!
//! Invariants pinned, per scenario:
//! * admission sheds the adversary (reject, or admit-then-recover via
//!   respawn) and the run completes **bit-equal** to the in-process
//!   transport;
//! * an adversary that *steals* admission with a valid duplicate
//!   `Hello` under the `fail` policy surfaces as a typed
//!   [`ClusterError::WorkerLost`] promptly — never a hang.

use isasgd_cluster::{
    run, run_fleet_with, run_worker, ClusterConfig, ClusterError, ClusterRun, Message,
    ProcessConfig, Tcp, Transport, WorkerHandle, WorkerLossPolicy, WorkerOptions, WorkerSpawner,
    PROTOCOL_VERSION,
};
use isasgd_core::{
    CommitPolicy, ImportanceScheme, LogisticLoss, Objective, Regularizer, SamplingStrategy,
};
use isasgd_sparse::{Dataset, DatasetBuilder};
use std::io::Write;
use std::net::TcpStream;
use std::sync::mpsc::channel;
use std::sync::{Arc, Mutex};
use std::time::Duration;

fn skewed(n: usize) -> Dataset {
    let mut b = DatasetBuilder::new(8);
    for i in 0..n {
        let norm = if i % 7 == 0 { 5.0 } else { 0.4 };
        let j = (i % 4) as u32;
        let y = if i % 2 == 0 { 1.0 } else { -1.0 };
        b.push_row(&[(j, y * norm), (4 + j, 0.5 * y * norm)], y)
            .unwrap();
    }
    b.finish()
}

fn obj() -> Objective<LogisticLoss> {
    Objective::new(LogisticLoss, Regularizer::None)
}

fn cfg() -> ClusterConfig {
    ClusterConfig {
        nodes: 2,
        rounds: 2,
        local_epochs: 1,
        step_size: 0.3,
        importance: ImportanceScheme::LipschitzSmoothness,
        sampling: SamplingStrategy::Adaptive,
        commit: CommitPolicy::EpochBoundary,
        seed: 0x15A5_6D00,
        ..ClusterConfig::default()
    }
}

fn pc(on_loss: WorkerLossPolicy) -> ProcessConfig {
    ProcessConfig {
        handshake_timeout_ms: 30_000,
        round_timeout_ms: 60_000,
        on_loss,
        ..ProcessConfig::default()
    }
}

/// The adversarial handshake vocabulary.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Mischief {
    /// Correctly framed garbage: valid length prefix, undecodable
    /// payload.
    JunkFrame,
    /// A partial length prefix, then hangup.
    TruncatedFrame,
    /// A well-formed `Hello` announcing a future protocol version.
    WrongVersionHello,
    /// Connect and vanish without a byte.
    InstantClose,
    /// Admission theft: a *valid duplicate* `Hello` (identical to the
    /// real worker's) from a peer that consumes the session stream
    /// until it goes quiet, then dies — the slot is admitted to a
    /// corpse and must be recovered, not hung.
    ImpostorHello,
    /// A valid `Hello` from a peer that dies mid-`DatasetShard`
    /// stream: it reads the `Assign` and then hangs up while the
    /// coordinator is still streaming shard chunks.
    DieMidShard,
}

use Mischief::*;

/// The mischief that completes synchronously on the fleet thread
/// (fire-and-forget writes): its connection is guaranteed to sit in
/// the listener backlog ahead of the real worker's.
const FIRE_AND_FORGET: [Mischief; 4] = [JunkFrame, TruncatedFrame, WrongVersionHello, InstantClose];

fn inflict(m: Mischief, addr: &str) {
    match m {
        JunkFrame => {
            if let Ok(mut s) = TcpStream::connect(addr) {
                let _ = s.write_all(&[6, 0, 0, 0, 0xde, 0xad, 0xbe, 0xef, 0x15, 0xa5]);
            }
        }
        TruncatedFrame => {
            if let Ok(mut s) = TcpStream::connect(addr) {
                let _ = s.write_all(&[9, 0]);
            }
        }
        WrongVersionHello => {
            if let Ok(s) = TcpStream::connect(addr) {
                if let Ok(mut link) = Tcp::new(s) {
                    let _ = link.send(&Message::Hello {
                        version: PROTOCOL_VERSION + 7,
                    });
                }
            }
        }
        InstantClose => {
            let _ = TcpStream::connect(addr);
        }
        // The interactive adversaries must read fleet-side frames, and
        // the fleet only writes them once `accept_worker` runs (after
        // this spawner call returns) — so they get their own threads.
        // Their connections still precede the real worker's.
        ImpostorHello => {
            let addr = addr.to_string();
            std::thread::spawn(move || {
                if let Ok(s) = TcpStream::connect(&addr) {
                    if let Ok(mut link) = Tcp::with_read_timeout(s, Duration::from_secs(1)) {
                        let _ = link.send(&Message::Hello {
                            version: PROTOCOL_VERSION,
                        });
                        // Consume Assign / shard chunks / early round
                        // traffic until the line goes quiet, then die.
                        while link.recv().is_ok() {}
                    }
                }
            });
        }
        DieMidShard => {
            let addr = addr.to_string();
            std::thread::spawn(move || {
                if let Ok(s) = TcpStream::connect(&addr) {
                    if let Ok(mut link) = Tcp::with_read_timeout(s, Duration::from_secs(1)) {
                        let _ = link.send(&Message::Hello {
                            version: PROTOCOL_VERSION,
                        });
                        // One frame (the Assign), then hang up while the
                        // shard chunks are still in flight.
                        let _ = link.recv();
                    }
                }
            });
        }
    }
}

/// A detached worker handle. Under admission theft the slot↔handle
/// pairing shifts (the impostor owns slot k's *connection* while slot
/// k's *handle* belongs to a real worker admitted elsewhere), so a
/// handle that joins its thread on drop would make `recover()` join an
/// active worker mid-round-read — a deadlock. The production
/// `ChildHandle` honors the "never block indefinitely" contract by
/// killing the child after a grace period; a thread cannot be killed,
/// so the thread analogue is: detach here, join everything after the
/// run when every socket is closed and workers exit promptly.
struct DetachedWorker;

impl WorkerHandle for DetachedWorker {}

type Handles = Arc<Mutex<Vec<std::thread::JoinHandle<()>>>>;

/// Runs the scripted mischief ahead of every *initial* worker spawn.
/// Respawn admissions are left clean so recovery converges instead of
/// burning the whole respawn budget on the same adversary.
struct MischiefSpawner {
    script: Vec<Mischief>,
    handles: Handles,
}

impl WorkerSpawner for MischiefSpawner {
    fn spawn(
        &mut self,
        _node: u32,
        addr: &str,
        respawn: bool,
    ) -> Result<Box<dyn WorkerHandle>, ClusterError> {
        if !respawn {
            for &m in &self.script {
                inflict(m, addr);
            }
        }
        let addr = addr.to_string();
        let handle = std::thread::spawn(move || {
            // A short pre-admission read deadline so a *surplus* worker
            // (its slot was won from the backlog by a displaced peer)
            // unblocks itself instead of waiting out the 120 s default.
            let opts = WorkerOptions {
                read_timeout: Duration::from_secs(5),
                ..WorkerOptions::default()
            };
            let _ = run_worker(&addr, &opts);
        });
        self.handles.lock().unwrap().push(handle);
        Ok(Box::new(DetachedWorker))
    }
}

fn run_adversarial(
    ds: &Dataset,
    script: Vec<Mischief>,
    on_loss: WorkerLossPolicy,
) -> Result<ClusterRun, ClusterError> {
    let (ds, cfg, pc) = (ds.clone(), cfg(), pc(on_loss));
    let (tx, rx) = channel();
    std::thread::spawn(move || {
        let handles: Handles = Arc::new(Mutex::new(Vec::new()));
        let spawner = MischiefSpawner {
            script,
            handles: handles.clone(),
        };
        let result = run_fleet_with(&ds, &obj(), &cfg, &pc, spawner);
        // Every fleet socket (links and listener) is closed once
        // run_fleet_with returns, so each worker thread errors out of
        // its read promptly; join them all before reporting so no run
        // leaks threads into the next scenario.
        for h in handles.lock().unwrap().drain(..) {
            let _ = h.join();
        }
        let _ = tx.send(result);
    });
    rx.recv_timeout(Duration::from_secs(120))
        .expect("adversarial fleet run hung")
}

fn assert_undisturbed(tag: &str, clean: &ClusterRun, got: Result<ClusterRun, ClusterError>) {
    let got = got.unwrap_or_else(|e| panic!("{tag}: adversarial run failed: {e}"));
    assert_eq!(
        got.model, clean.model,
        "{tag}: adversary perturbed the model"
    );
    assert_eq!(
        got.trace.points_without_clock(),
        clean.trace.points_without_clock(),
        "{tag}: round traces diverged"
    );
    assert_eq!(
        got.observed_phi_imbalance, clean.observed_phi_imbalance,
        "{tag}: feedback mirror diverged"
    );
}

/// Every mischief in the vocabulary, alone, ahead of each real worker:
/// admission sheds it (or recovers from it) and the run stays bit-equal
/// to the in-process transport.
#[test]
fn every_single_mischief_is_shed_bit_equally() {
    let ds = skewed(120);
    let clean = run(&ds, &obj(), &cfg()).unwrap();
    for m in [
        JunkFrame,
        TruncatedFrame,
        WrongVersionHello,
        InstantClose,
        ImpostorHello,
        DieMidShard,
    ] {
        let got = run_adversarial(&ds, vec![m], WorkerLossPolicy::Respawn);
        assert_undisturbed(&format!("{m:?}"), &clean, got);
    }
}

/// Every ordered pair of fire-and-forget mischief (16 interleavings),
/// plus a representative mixed pair for each interactive adversary.
#[test]
fn mischief_pairs_are_shed_bit_equally() {
    let ds = skewed(120);
    let clean = run(&ds, &obj(), &cfg()).unwrap();
    let mut scripts: Vec<Vec<Mischief>> = Vec::new();
    for a in FIRE_AND_FORGET {
        for b in FIRE_AND_FORGET {
            scripts.push(vec![a, b]);
        }
    }
    scripts.push(vec![JunkFrame, ImpostorHello]);
    scripts.push(vec![WrongVersionHello, DieMidShard]);
    for script in scripts {
        let got = run_adversarial(&ds, script.clone(), WorkerLossPolicy::Respawn);
        assert_undisturbed(&format!("{script:?}"), &clean, got);
    }
}

/// Admission theft under the `fail` policy: when the duplicate-Hello
/// impostor wins the slot and dies, the loss must surface as a typed
/// `WorkerLost` — promptly, never as a hang. (The impostor may instead
/// be rejected at handshake when its hangup races the shard stream; the
/// real worker then completes the run — also a legal shed.)
#[test]
fn admission_theft_under_fail_policy_is_typed_not_hung() {
    let ds = skewed(120);
    let clean = run(&ds, &obj(), &cfg()).unwrap();
    match run_adversarial(&ds, vec![ImpostorHello], WorkerLossPolicy::Fail) {
        Err(ClusterError::WorkerLost { node, .. }) => {
            assert!(node < 2, "loss attributed to a nonexistent slot: {node}");
        }
        Err(other) => panic!("expected WorkerLost, got {other}"),
        Ok(got) => assert_undisturbed("rejected-impostor path", &clean, Ok(got)),
    }
}
