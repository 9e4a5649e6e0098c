//! The `.schedule` counterexample format: a compact, hand-rolled
//! binary encoding (wire-codec style — explicit bytes, varints, no
//! serde) of everything needed to re-execute one exact interleaving as
//! an ordinary test: the scenario spec, the expected outcome class,
//! and the choice taken at every decision point.
//!
//! Layout (integers are LEB128 varints unless noted):
//!
//! ```text
//! magic      8 raw bytes  "ISCHED03"
//! nodes, rounds, local_epochs, rows, seed, adaptive (0/1), checkpoint_every
//! faults     flag bits (1=reorder 2=duplicate 4=hold 8=drop), window, budget
//! expected   tag (0=pass 1=expected-deadlock 2=violation)
//! contains   len + utf8   substring a violation's description must contain
//! max_decisions
//! choices    count + one varint per decision
//! ```
//!
//! Varints are read with the wire's canonical decoder, and a flag bit
//! the layout does not name is refused, so every file that parses is
//! one `write_schedule` writes. `ISCHED02` files are refused by name:
//! they carried switches that re-enabled fixed bugs in the threaded
//! runner, which the stepper does not run.

use crate::explore::Chooser;
use crate::scenario::{run_schedule, FaultSpec, Outcome, ScenarioSpec};
use isasgd_cluster::{put_varint, read_varint};

const MAGIC: &[u8; 8] = b"ISCHED03";

/// The outcome class a replayed schedule must reproduce.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Expected {
    /// All invariants hold.
    Pass,
    /// Deadlock with a drop fault having fired.
    ExpectedDeadlock,
    /// An invariant violation (optionally matched by substring).
    Violation,
}

/// One committed counterexample (or regression witness): a scenario
/// plus the exact schedule that drives it to `expected`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScheduleFile {
    /// The scenario to run.
    pub spec: ScenarioSpec,
    /// The per-run decision bound the schedule was found under.
    pub max_decisions: usize,
    /// The outcome class replaying must reproduce.
    pub expected: Expected,
    /// Substring the violation description must contain (empty: any).
    pub contains: String,
    /// The choice at every decision point.
    pub choices: Vec<u32>,
}

/// Serializes `file` to the `.schedule` byte format.
pub fn write_schedule(file: &ScheduleFile) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(MAGIC);
    let s = &file.spec;
    put_varint(&mut out, s.nodes as u64);
    put_varint(&mut out, s.rounds as u64);
    put_varint(&mut out, s.local_epochs as u64);
    put_varint(&mut out, u64::from(s.rows));
    put_varint(&mut out, s.seed);
    put_varint(&mut out, u64::from(s.adaptive));
    put_varint(&mut out, s.checkpoint_every);
    let f = &s.faults;
    let fault_flags = u64::from(f.reorder)
        | u64::from(f.duplicate) << 1
        | u64::from(f.hold) << 2
        | u64::from(f.drop) << 3;
    put_varint(&mut out, fault_flags);
    put_varint(&mut out, u64::from(f.reorder_window));
    put_varint(&mut out, u64::from(f.budget));
    let tag = match file.expected {
        Expected::Pass => 0,
        Expected::ExpectedDeadlock => 1,
        Expected::Violation => 2,
    };
    put_varint(&mut out, tag);
    put_varint(&mut out, file.contains.len() as u64);
    out.extend_from_slice(file.contains.as_bytes());
    put_varint(&mut out, file.max_decisions as u64);
    put_varint(&mut out, file.choices.len() as u64);
    for &c in &file.choices {
        put_varint(&mut out, u64::from(c));
    }
    out
}

/// The fault flag bits the format names; any other is refused.
const FAULT_FLAGS: u64 = 0b1111;

/// Parses the `.schedule` byte format.
pub fn read_schedule(bytes: &[u8]) -> Result<ScheduleFile, String> {
    if bytes.starts_with(b"ISCHED02") {
        return Err(
            "ISCHED02 is a retired .schedule version: its bug-switch field \
                    re-enabled fixes of a threaded runner the checker no longer runs; \
                    this reader takes ISCHED03"
                .into(),
        );
    }
    if bytes.len() < MAGIC.len() || &bytes[..MAGIC.len()] != MAGIC {
        return Err("not a .schedule file (bad magic)".into());
    }
    let mut pos = MAGIC.len();
    let int = |pos: &mut usize| {
        let at = *pos;
        read_varint(bytes, pos).map_err(|e| format!("varint at byte {at}: {e}"))
    };
    let nodes = int(&mut pos)? as usize;
    let rounds = int(&mut pos)? as usize;
    let local_epochs = int(&mut pos)? as usize;
    let rows = u32::try_from(int(&mut pos)?).map_err(|_| "rows out of range".to_string())?;
    let seed = int(&mut pos)?;
    let adaptive = match int(&mut pos)? {
        0 => false,
        1 => true,
        v => return Err(format!("adaptive flag {v} is neither 0 nor 1")),
    };
    let checkpoint_every = int(&mut pos)?;
    let fault_flags = int(&mut pos)?;
    if fault_flags & !FAULT_FLAGS != 0 {
        return Err(format!("unknown fault flag bits {fault_flags:#x}"));
    }
    let reorder_window =
        u8::try_from(int(&mut pos)?).map_err(|_| "window out of range".to_string())?;
    let budget = u8::try_from(int(&mut pos)?).map_err(|_| "budget out of range".to_string())?;
    let expected = match int(&mut pos)? {
        0 => Expected::Pass,
        1 => Expected::ExpectedDeadlock,
        2 => Expected::Violation,
        t => return Err(format!("unknown expected-outcome tag {t}")),
    };
    let contains_len = int(&mut pos)? as usize;
    let end = pos
        .checked_add(contains_len)
        .filter(|&e| e <= bytes.len())
        .ok_or_else(|| "truncated contains string".to_string())?;
    let contains = std::str::from_utf8(&bytes[pos..end])
        .map_err(|_| "contains string is not utf8".to_string())?
        .to_string();
    pos = end;
    let max_decisions = int(&mut pos)? as usize;
    let n_choices = int(&mut pos)? as usize;
    if n_choices > bytes.len() {
        return Err("choice count exceeds file size".into());
    }
    let mut choices = Vec::with_capacity(n_choices);
    for _ in 0..n_choices {
        let c = u32::try_from(int(&mut pos)?).map_err(|_| "choice out of range".to_string())?;
        choices.push(c);
    }
    if pos != bytes.len() {
        return Err(format!(
            "{} trailing bytes after schedule",
            bytes.len() - pos
        ));
    }
    Ok(ScheduleFile {
        spec: ScenarioSpec {
            nodes,
            rounds,
            local_epochs,
            rows,
            seed,
            adaptive,
            checkpoint_every,
            faults: FaultSpec {
                reorder: fault_flags & 1 != 0,
                reorder_window,
                duplicate: fault_flags & 2 != 0,
                hold: fault_flags & 4 != 0,
                drop: fault_flags & 8 != 0,
                budget,
            },
        },
        max_decisions,
        expected,
        contains,
        choices,
    })
}

impl ScheduleFile {
    /// Re-executes the exact committed interleaving and checks that it
    /// reproduces the expected outcome class. `Ok` carries the judged
    /// outcome for further assertions.
    pub fn replay(&self) -> Result<Outcome, String> {
        let chooser = Chooser::replay(self.choices.clone(), self.max_decisions);
        let (outcome, chooser) = run_schedule(&self.spec, chooser);
        if let Some(kind) = chooser.aborted() {
            return Err(format!(
                "replay did not follow the committed schedule ({kind:?}): the code under \
                 test no longer offers these choices"
            ));
        }
        use crate::explore::Verdict;
        match (&self.expected, &outcome.verdict) {
            (Expected::Pass, Verdict::Pass)
            | (Expected::ExpectedDeadlock, Verdict::ExpectedDeadlock) => Ok(outcome),
            (Expected::Violation, Verdict::Violation(what)) => {
                if self.contains.is_empty() || what.contains(&self.contains) {
                    Ok(outcome)
                } else {
                    Err(format!(
                        "replay violated a different invariant: got {what:?}, expected one \
                         containing {:?}",
                        self.contains
                    ))
                }
            }
            (want, got) => Err(format!(
                "replay outcome class mismatch: expected {want:?}, got {got:?}"
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ScheduleFile {
        ScheduleFile {
            spec: ScenarioSpec {
                nodes: 3,
                rounds: 2,
                local_epochs: 1,
                rows: 120,
                seed: 0xDEAD_BEEF,
                adaptive: true,
                checkpoint_every: 2,
                faults: FaultSpec {
                    reorder: true,
                    reorder_window: 3,
                    duplicate: true,
                    hold: false,
                    drop: true,
                    budget: 2,
                },
            },
            max_decisions: 40,
            expected: Expected::Violation,
            contains: "deadlock".into(),
            choices: vec![0, 3, 1, 0, 2, 150],
        }
    }

    #[test]
    fn schedule_files_roundtrip() {
        let f = sample();
        let bytes = write_schedule(&f);
        assert_eq!(read_schedule(&bytes).unwrap(), f);
    }

    #[test]
    fn corrupt_schedules_are_rejected() {
        let f = sample();
        let bytes = write_schedule(&f);
        assert!(read_schedule(&bytes[..4]).is_err(), "bad magic");
        assert!(
            read_schedule(&bytes[..bytes.len() - 1]).is_err(),
            "truncated choices"
        );
        let mut extra = bytes.clone();
        extra.push(0);
        assert!(read_schedule(&extra).is_err(), "trailing bytes");
        let mut old = bytes.clone();
        old[..8].copy_from_slice(b"ISCHED01");
        assert!(
            read_schedule(&old).is_err(),
            "pre-checkpoint format version must be rejected, not misparsed"
        );
        // The bug-switch version is refused by name, not misread as
        // ISCHED03 with its bug field taken for the expected outcome.
        let mut switched = bytes.clone();
        switched[..8].copy_from_slice(b"ISCHED02");
        let err = read_schedule(&switched).unwrap_err();
        assert!(err.contains("ISCHED02"), "{err}");

        // Bytes `write_schedule` never writes are refused too: a varint
        // that overflows u64 or that it would have written shorter, an
        // adaptive flag other than 0/1, and a fault flag bit the format
        // does not name.
        let mut f = sample();
        f.spec.seed = u64::MAX;
        let bytes = write_schedule(&f);
        // Magic, then nodes, rounds, local_epochs and rows: one byte each.
        let seed = 12;
        assert_eq!(
            bytes[seed..seed + 10],
            [0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01]
        );
        let mut wide = bytes.clone();
        wide[seed + 9] = 0x7F;
        assert!(
            read_schedule(&wide).is_err(),
            "a tenth varint byte past bit 63"
        );

        f.spec.seed = 0;
        let bytes = write_schedule(&f);
        let [adaptive, fault_flags] = [seed + 1, seed + 3];
        assert_eq!(
            [bytes[seed], bytes[adaptive], bytes[fault_flags]],
            [0, 1, 0b1011]
        );
        assert_eq!(read_schedule(&bytes).unwrap(), f);
        let mut padded = bytes.clone();
        padded.splice(seed..=seed, [0x80, 0x00]);
        assert!(read_schedule(&padded).is_err(), "non-minimal zero");
        for (at, byte, what) in [
            (adaptive, 2, "adaptive flag 2"),
            (fault_flags, 0b1_1011, "fault flag bit 4"),
        ] {
            let mut bad = bytes.clone();
            bad[at] = byte;
            assert!(read_schedule(&bad).is_err(), "{what}");
        }
    }
}
