//! `isasgd worker` — one node of the cross-process distributed runtime.
//!
//! Spawned by the coordinator (`isasgd train --cluster-transport
//! process`). The worker owns nothing at launch but the coordinator's
//! address: its node id, training configuration, and the dataset
//! itself all arrive over the wire session handshake. (Hand-launched
//! remote workers speak the same protocol but would race the
//! coordinator's local spawns for admission slots — remote join is a
//! ROADMAP item.)

use crate::opts::Opts;
use isasgd_cluster::{run_worker, WorkerOptions};

/// Runs the command; `main` turns an error into exit 2.
pub fn run(o: &Opts) -> Result<(), String> {
    let connect = o
        .get("connect")
        .ok_or("usage: isasgd worker --connect <host:port> (see --help)")?;
    let die_at_round: Option<u64> = match o.get("die-at-round") {
        None => None,
        Some(v) => Some(
            v.parse()
                .map_err(|_| format!("bad value '{v}' for --die-at-round (expected u64)"))?,
        ),
    };
    let quiet = o.switch("quiet");
    o.finish().map_err(|e| e.to_string())?;
    let opts = WorkerOptions {
        die_at_round,
        ..WorkerOptions::default()
    };
    let report = run_worker(&connect, &opts).map_err(|e| e.to_string())?;
    #[expect(
        clippy::print_stderr,
        reason = "worker status line; workers never install a recorder (timing ships over the wire)"
    )]
    if !quiet {
        eprintln!(
            "[worker {}] session complete after {} rounds",
            report.node, report.rounds
        );
    }
    Ok(())
}

/// Usage string for `--help`.
pub const HELP: &str = "\
isasgd worker --connect <host:port> [flags]

Runs one worker of a distributed training run. The coordinator
(`isasgd train --cluster <k> --cluster-transport process`) spawns these
automatically; there is normally no reason to launch one by hand.

  --connect <addr>     coordinator listener address        (required)
  --die-at-round <r>   chaos hook: abort abruptly at round r (testing;
                       the coordinator's --on-worker-loss policy decides
                       what happens next)
  --quiet              suppress the session-complete line
";

#[cfg(test)]
mod tests {
    use super::*;
    use crate::opts::Opts;

    #[test]
    fn missing_connect_is_an_error() {
        let o = Opts::parse(["worker".to_string()]);
        assert!(run(&o).is_err());
    }

    #[test]
    fn unreachable_coordinator_is_an_error() {
        // Port 1 on loopback: nothing listens there.
        let o = Opts::parse(["worker", "--connect", "127.0.0.1:1"].map(String::from));
        assert!(run(&o).is_err());
    }

    #[test]
    fn bad_die_at_round_is_an_error() {
        let o = Opts::parse(
            [
                "worker",
                "--connect",
                "127.0.0.1:1",
                "--die-at-round",
                "soon",
            ]
            .map(String::from),
        );
        assert!(run(&o).is_err());
    }
}
