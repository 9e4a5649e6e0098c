//! The wire codec of the cluster protocol: the layout is the type.
//!
//! The build environment is offline, so the wire path cannot lean on a
//! serde derive. Instead every wire-visible type has exactly one
//! `Wire` impl — its byte layout, both directions — and a frame's
//! bytes are its tag followed by its fields' layouts in declaration
//! order, unless the `frames!` table marks the frame `custom`:
//!
//! ```text
//! frame    := u32 payload_len ‖ payload          (framing lives in Tcp)
//! payload  := u8 tag ‖ fields…
//! u32/u64  := little-endian fixed width
//! f64      := IEEE-754 bits, little-endian (bit-exact round trips,
//!             including ±0.0, ±inf, and subnormals)
//! bool     := u8 0 | 1
//! usize    := u64 (a commit period; refused if it overflows the host)
//! String   := u32 len ‖ len × UTF-8 byte
//! Vec<T>   := u32 count ‖ count × T
//! (A, B)   := A ‖ B
//! [u64; 4] := 4 × u64
//! enum     := u8 tag ‖ the variant's payload, if it has one (one tag
//!             table per enum, next to `wire_enum!`)
//! struct   := its fields in declaration order (`wire_struct!`)
//! varint   := canonical LEB128 (7 bits per byte, low first; the
//!             shortest encoding is the only accepted one)
//! idxlist  := u32 count ‖ varint first ‖ (count−1) × varint gap
//!             (gap = idx − prev − 1; strictly increasing by
//!             construction, so sortedness needs no re-check)
//! ```
//!
//! Four frames are `custom` — their bytes are *not* their field list —
//! and keep one hand-written `put_*`/`get_*` pair each:
//! [`Message::ModelDelta`] (a gap-coded `idxlist` and a value list that
//! borrows its count), [`Message::DatasetShard`] (rows interleaved with
//! their weights), [`Message::Checkpoint`] (layout version word, sparse
//! sampler state, checksum) and [`Message::Telemetry`] (checksum).
//!
//! Decoding is total: truncated frames, unknown tags, over-declared
//! vector counts, non-minimal varints, and trailing garbage all return
//! a typed [`WireError`] — never a panic, never an unbounded allocation
//! (`Vec<T>` validates its count against the remaining frame bytes at
//! `T::MIN_BYTES` apiece *before* any buffer is reserved).
//! `tests/wire_proptests.rs` pins both directions: every message
//! round-trips bit-exactly, and every strict prefix of a valid encoding
//! (plus arbitrary garbage) decodes to an error.
//!
//! # Adding a frame
//!
//! 1. One entry in the `frames!` table below (`Name = tag { field:
//!    Type, … }`). The table generates [`Message`], [`FrameKind`],
//!    everything that is a function of the frame list, and the frame's
//!    [`Message::encode`] / [`Message::decode`] arms; a reused tag is a
//!    compile error in `FrameKind::from_tag`.
//! 2. Its golden encoding under `tests/golden/` (the test prints the
//!    hex; a frame without a file fails `golden_encodings_are_frozen`).
//! 3. The schema refresh: `cargo run -p isasgd-cluster --example
//!    wire_schema > WIRE_SCHEMA.json`.
//!
//! # Retiring a frame
//!
//! 1. Delete its `frames!` entry and name its tag in the retired list
//!    above the table: a retired tag is never reused, so an old peer's
//!    frame can only ever decode to [`WireError::BadTag`].
//! 2. Bump [`PROTOCOL_VERSION`] and say in its history why.
//! 3. Delete its golden encoding (a `tests/golden/*.hex` that names no
//!    frame kind fails `golden_encodings_are_frozen`) and refresh the
//!    schema as above.
//!
//! A `Wire` impl is needed only for a field *type* the list above does
//! not have yet; a layout that is not "the fields in order" is a newtype
//! with its own impl, or — last resort — a `custom` frame.

use isasgd_losses::{ImportanceScheme, Regularizer};
use isasgd_obs::json::schema_fields;
use isasgd_sampling::{CommitPolicy, SamplingStrategy};
use isasgd_sparse::{Dataset, DatasetBuilder};
use std::ops::Range;

/// Hard ceiling on one frame's payload size (256 MiB). A length prefix
/// beyond this is rejected before allocation — a garbage or hostile
/// stream cannot make the receiver reserve arbitrary memory; under it,
/// `Tcp::recv` grows its buffer only as the payload's bytes arrive.
pub const MAX_FRAME: usize = 1 << 28;

/// Version of the coordinator↔worker session protocol. Carried by
/// [`Message::Hello`]; the accept loop rejects mismatches with a typed
/// [`WireError::Version`] instead of attempting to drive an
/// incompatible peer through the round protocol.
///
/// Version 2 added the bandwidth frames ([`Message::ModelDelta`],
/// [`Message::DatasetShard`]) and the [`SessionConfig::encoding`]
/// field; a v1 peer would mis-parse an Assign frame, so the version
/// gate is load-bearing. Version 3 added the recovery frames
/// ([`Message::Checkpoint`], [`Message::CheckpointAck`]) and the
/// [`SessionConfig::checkpoint_every`] field. Version 4 added the
/// observability frame ([`Message::Telemetry`]) and the
/// [`SessionConfig::telemetry`] field. Version 5 retired the monolithic
/// whole-dataset frame (tag 7, never reused) and dropped the row
/// permutation from the shard-assignment frame: workers are handed
/// their rows, they never rebuild the rearranged dataset. Version 6
/// dropped the observation model from [`SessionConfig`]: workers always
/// observe gradient norms. Version 7 retired the shard-assignment frame
/// (tag 4, never reused) and the round-0 hello barrier it answered: a
/// worker's node id already names its shard, and its rows arrive with
/// it, so the coordinator sends round 1 first. A v6 worker would wait
/// for an assignment that never comes. Version 8 dropped the model
/// replica from the checkpoint state ([`CHECKPOINT_VERSION`] 2): a
/// mixed build is refused here, at the handshake, instead of at its
/// first checkpoint.
pub const PROTOCOL_VERSION: u32 = 8;

/// Version of the [`Message::Checkpoint`] *state layout*, carried
/// inside every checkpoint frame independently of [`PROTOCOL_VERSION`]:
/// a stored blob outlives the connection that produced it, so the
/// receiver re-validates the layout version at decode time instead of
/// trusting the session handshake.
///
/// Version 2 dropped the model replica: the consensus of the round
/// after the checkpoint overwrites it before anything reads it, so a
/// checkpoint's size no longer depends on the model dimension.
pub const CHECKPOINT_VERSION: u32 = 2;

/// How [`Message::ModelUpdate`] traffic is encoded on a socket link.
///
/// Both sides of a [`Tcp`] link track the last model that crossed it in
/// each direction; a delta frame carries only the coordinates whose
/// IEEE-754 bits differ from that base, so bandwidth tracks *what
/// changed* rather than model size. Reconstruction is bitwise
/// (overwrite the base at the listed coordinates), so every encoding
/// choice yields bit-identical training — pinned by the equivalence
/// matrix running under all three variants.
///
/// [`Tcp`]: crate::transport::Tcp
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WireEncoding {
    /// Always ship the full dense model (the v1 wire behavior).
    Dense,
    /// Always ship a sparse delta against the per-link base (the first
    /// model on a fresh link necessarily goes dense — there is no base).
    Delta,
    /// Ship whichever is smaller: the exact payload lengths of the delta
    /// (8 value bytes plus a 1–5 byte gap varint per changed coordinate)
    /// and of the dense frame are compared per update, and dense wins a
    /// tie. A delta stays the shorter frame up to roughly 0.8·dim changed
    /// coordinates.
    #[default]
    Auto,
}

impl WireEncoding {
    /// Parses a CLI name (`dense` | `delta` | `auto`).
    pub fn parse(s: &str) -> Option<WireEncoding> {
        Some(match s {
            "dense" => WireEncoding::Dense,
            "delta" => WireEncoding::Delta,
            "auto" => WireEncoding::Auto,
            _ => return None,
        })
    }

    /// The CLI/log name of this encoding.
    pub fn name(&self) -> &'static str {
        match self {
            WireEncoding::Dense => "dense",
            WireEncoding::Delta => "delta",
            WireEncoding::Auto => "auto",
        }
    }
}

/// Typed decode failures. Garbage never panics the decoder.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The frame ended before a declared field or element count.
    Truncated {
        /// Bytes the decoder still needed.
        needed: usize,
        /// Bytes actually remaining.
        have: usize,
    },
    /// Unknown message tag byte.
    BadTag(u8),
    /// A frame (or its length prefix) exceeds [`MAX_FRAME`].
    FrameTooLarge {
        /// Declared payload length.
        len: usize,
    },
    /// The payload decoded cleanly but bytes were left over — the frame
    /// is not a canonical encoding.
    TrailingBytes {
        /// Number of undecoded trailing bytes.
        extra: usize,
    },
    /// An empty payload (no tag byte).
    Empty,
    /// A sub-enum field (importance scheme, commit policy, …) carried a
    /// tag outside its variant range.
    BadEnum {
        /// Which type was being decoded.
        what: &'static str,
        /// The offending tag byte.
        tag: u8,
    },
    /// A structurally well-formed frame whose contents violate an
    /// invariant (non-UTF-8 string, unsorted dataset row, ±1 label
    /// violation, non-finite feature value, …).
    Invalid {
        /// Which invariant failed.
        what: &'static str,
    },
    /// A [`Message::Hello`] declared a protocol version this build does
    /// not speak.
    Version {
        /// Version the peer announced.
        got: u32,
        /// Version this build speaks ([`PROTOCOL_VERSION`]).
        want: u32,
    },
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated { needed, have } => {
                write!(
                    f,
                    "truncated frame: needed {needed} more bytes, have {have}"
                )
            }
            WireError::BadTag(t) => write!(f, "unknown message tag {t:#04x}"),
            WireError::FrameTooLarge { len } => {
                write!(f, "frame of {len} bytes exceeds the {MAX_FRAME}-byte cap")
            }
            WireError::TrailingBytes { extra } => {
                write!(f, "{extra} trailing bytes after a complete message")
            }
            WireError::Empty => write!(f, "empty frame"),
            WireError::BadEnum { what, tag } => {
                write!(f, "unknown {what} tag {tag:#04x}")
            }
            WireError::Invalid { what } => write!(f, "invalid frame contents: {what}"),
            WireError::Version { got, want } => {
                write!(f, "protocol version {got} (this build speaks {want})")
            }
        }
    }
}

impl std::error::Error for WireError {}

/// `Ok` when a decoded value satisfies its invariant, `Invalid { what }`
/// when it does not.
fn check(ok: bool, what: &'static str) -> Result<(), WireError> {
    if ok {
        Ok(())
    } else {
        Err(WireError::Invalid { what })
    }
}

/// Bounded cursor over a payload; every read is length-checked.
#[derive(Clone)]
struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

#[deny(clippy::indexing_slicing, clippy::cast_possible_truncation)]
impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// `Ok` once the whole payload is consumed: a frame is exactly one
    /// message, so leftover bytes make it non-canonical.
    fn finish(&self) -> Result<(), WireError> {
        match self.remaining() {
            0 => Ok(()),
            extra => Err(WireError::TrailingBytes { extra }),
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let truncated = WireError::Truncated {
            needed: n,
            have: self.remaining(),
        };
        let end = self.pos.checked_add(n).ok_or(truncated.clone())?;
        let s = self.buf.get(self.pos..end).ok_or(truncated)?;
        self.pos = end;
        Ok(s)
    }

    /// A fixed-width field as an owned array, so the number impls below
    /// need neither slice indexing nor a fallible `try_into`.
    fn array<const N: usize>(&mut self) -> Result<[u8; N], WireError> {
        let mut a = [0u8; N];
        a.copy_from_slice(self.take(N)?);
        Ok(a)
    }

    /// A tag byte (frame kind, enum variant, flag).
    fn u8(&mut self) -> Result<u8, WireError> {
        let [b] = self.array::<1>()?;
        Ok(b)
    }

    /// Validates a declared element count against the bytes actually
    /// left, so a hostile count cannot drive an allocation.
    fn count(&mut self, elem_bytes: usize) -> Result<usize, WireError> {
        let n = u32::get(self)? as usize;
        let needed = n.saturating_mul(elem_bytes);
        if self.remaining() < needed {
            return Err(WireError::Truncated {
                needed,
                have: self.remaining(),
            });
        }
        Ok(n)
    }

    /// `n` values that follow an index list and borrow its count instead
    /// of carrying their own; `vet` sees each value as it is read, so an
    /// invalid value is reported ahead of a truncation behind it.
    fn values(
        &mut self,
        n: usize,
        vet: impl Fn(f64) -> Result<(), WireError>,
    ) -> Result<Vec<f64>, WireError> {
        let mut values = Vec::with_capacity(n);
        self.values_into(n, vet, &mut values)?;
        Ok(values)
    }

    /// [`Reader::values`] appended to `out`, a buffer the caller reuses.
    fn values_into(
        &mut self,
        n: usize,
        vet: impl Fn(f64) -> Result<(), WireError>,
        out: &mut Vec<f64>,
    ) -> Result<(), WireError> {
        for _ in 0..n {
            let v = f64::get(self)?;
            vet(v)?;
            out.push(v);
        }
        Ok(())
    }

    /// Reads the FNV-1a word that closes a checksummed frame and checks
    /// it against everything between the tag and the word itself. The
    /// range is in bounds by construction — the reader just consumed
    /// through `pos` — but decode paths never index directly.
    fn checksum(&mut self, short: &'static str, mismatch: &'static str) -> Result<(), WireError> {
        let sum = u64::get(self)?;
        let covered = self.buf.get(1..self.pos - 8);
        check(
            fnv1a(covered.ok_or(WireError::Invalid { what: short })?) == sum,
            mismatch,
        )
    }
}

/// Lint canaries (README, *Static guarantees*): the constructs this
/// file's panic-freedom lints refuse, each under an expectation, so a
/// lint that stops firing here — renamed, or its `clippy.toml` entry
/// gone — fails `-D warnings` instead of passing vacuously.
#[cfg(clippy)]
const _: fn(&[u8]) -> u8 = |v| {
    #[expect(clippy::unwrap_used, reason = "canary")]
    let a = v.first().copied().unwrap();
    #[expect(clippy::expect_used, reason = "canary")]
    let b = v.last().copied().expect("canary");
    #[expect(clippy::indexing_slicing, reason = "canary")]
    let c = v[0];
    #[expect(clippy::panic, reason = "canary")]
    if a == b {
        panic!("canary");
    }
    #[expect(clippy::disallowed_macros, reason = "canary")]
    if b == c {
        assert!(v.is_empty());
        debug_assert!(v.is_empty());
    }
    c
};

/// One wire-visible type's byte layout, both directions — the only
/// place that layout is written down.
trait Wire: Sized {
    /// The fewest bytes any value encodes to: what `Vec<Self>` holds a
    /// declared count against before it allocates.
    const MIN_BYTES: usize;
    /// `(field name, type spelling)` in wire order for a `wire_struct!`
    /// (what [`schema_json`] renders); empty for every other type.
    const FIELDS: &'static [(&'static str, &'static str)] = &[];
    /// Appends the encoding of `self`.
    fn put(&self, out: &mut Vec<u8>);
    /// Reads one value, leaving the reader just past it.
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError>;
}

/// Fixed-width little-endian numbers (`f64` as its IEEE-754 bits).
macro_rules! wire_number {
    ($($ty:ty),*) => {$(
        impl Wire for $ty {
            const MIN_BYTES: usize = std::mem::size_of::<$ty>();
            fn put(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }
            #[deny(clippy::indexing_slicing, clippy::cast_possible_truncation)]
            fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
                Ok(<$ty>::from_le_bytes(r.array()?))
            }
        }
    )*};
}
wire_number!(u32, u64, f64);

impl Wire for bool {
    const MIN_BYTES: usize = 1;
    fn put(&self, out: &mut Vec<u8>) {
        out.push(u8::from(*self));
    }
    #[deny(clippy::indexing_slicing, clippy::cast_possible_truncation)]
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match r.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            tag => Err(WireError::BadEnum { what: "bool", tag }),
        }
    }
}

/// The one `usize` on the wire is [`CommitPolicy::EveryK`]'s period: a
/// `u64`, refused when the receiving platform cannot hold it.
impl Wire for usize {
    const MIN_BYTES: usize = 8;
    fn put(&self, out: &mut Vec<u8>) {
        (*self as u64).put(out);
    }
    #[deny(clippy::indexing_slicing, clippy::cast_possible_truncation)]
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        usize::try_from(u64::get(r)?).map_err(|_| WireError::Invalid {
            what: "commit period exceeds usize",
        })
    }
}

impl Wire for String {
    const MIN_BYTES: usize = 4;
    fn put(&self, out: &mut Vec<u8>) {
        (self.len() as u32).put(out);
        out.extend_from_slice(self.as_bytes());
    }
    #[deny(clippy::indexing_slicing, clippy::cast_possible_truncation)]
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let n = r.count(1)?;
        String::from_utf8(r.take(n)?.to_vec()).map_err(|_| WireError::Invalid {
            what: "non-UTF-8 string",
        })
    }
}

impl Wire for [u64; 4] {
    const MIN_BYTES: usize = 32;
    fn put(&self, out: &mut Vec<u8>) {
        self.iter().for_each(|w| w.put(out));
    }
    #[deny(clippy::indexing_slicing, clippy::cast_possible_truncation)]
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok([u64::get(r)?, u64::get(r)?, u64::get(r)?, u64::get(r)?])
    }
}

impl<A: Wire, B: Wire> Wire for (A, B) {
    const MIN_BYTES: usize = A::MIN_BYTES + B::MIN_BYTES;
    fn put(&self, out: &mut Vec<u8>) {
        self.0.put(out);
        self.1.put(out);
    }
    #[deny(clippy::indexing_slicing, clippy::cast_possible_truncation)]
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok((A::get(r)?, B::get(r)?))
    }
}

impl<T: Wire> Wire for Vec<T> {
    const MIN_BYTES: usize = 4;
    fn put(&self, out: &mut Vec<u8>) {
        (self.len() as u32).put(out);
        self.iter().for_each(|v| v.put(out));
    }
    // Forced into its caller so the element loop keeps the reader's
    // cursor in a register, as the hand-written per-frame loops did: left
    // to the inliner it stays out of line and `decode_dense_gbps` in
    // `bench_wire` drops ~8 %.
    #[inline(always)]
    #[deny(clippy::indexing_slicing, clippy::cast_possible_truncation)]
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let n = r.count(T::MIN_BYTES)?;
        let mut v = Vec::with_capacity(n);
        for _ in 0..n {
            v.push(T::get(r)?);
        }
        Ok(v)
    }
}

/// A session enum's tag table, `tag => Variant` or `tag => Variant
/// { field: Type }` (a tuple variant's field is `0`): the tag byte, then
/// the payload field if the variant has one. Parameterless variants
/// ship the bare tag, so every value has exactly one encoding and
/// `decode ∘ encode` stays the unique fixed point. Both directions and
/// the [`WireError::BadEnum`] arm come from the one table.
macro_rules! wire_enum {
    ($ty:ident, $what:literal {
        $($tag:literal => $variant:ident $({ $field:tt: $fty:ty })?,)*
    }) => {
        impl Wire for $ty {
            const MIN_BYTES: usize = 1;
            fn put(&self, out: &mut Vec<u8>) {
                match self {
                    $($ty::$variant $({ $field: v })? => {
                        out.push($tag);
                        $(<$fty>::put(v, out);)?
                    })*
                }
            }
            #[deny(clippy::indexing_slicing, clippy::cast_possible_truncation)]
            fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
                Ok(match r.u8()? {
                    $($tag => $ty::$variant $({ $field: <$fty>::get(r)? })?,)*
                    tag => return Err(WireError::BadEnum { what: $what, tag }),
                })
            }
        }
    };
}

wire_enum!(ImportanceScheme, "importance scheme" {
    0 => LipschitzSmoothness,
    1 => GradNormBound { radius: f64 },
    2 => Uniform,
    3 => PartiallyBiased { bias: f64 },
});
wire_enum!(SamplingStrategy, "sampling strategy" {
    0 => Uniform,
    1 => Static,
    2 => Adaptive,
});
wire_enum!(CommitPolicy, "commit policy" {
    0 => EpochBoundary,
    1 => EveryK { 0: usize },
});
wire_enum!(Regularizer, "regularizer" {
    0 => None,
    1 => L1 { eta: f64 },
    2 => L2 { eta: f64 },
});
wire_enum!(WireEncoding, "wire encoding" {
    0 => Dense,
    1 => Delta,
    2 => Auto,
});

/// Declares a wire-visible struct whose bytes are its fields in
/// declaration order: the struct, its [`Wire`] impl and the field list
/// the schema renders all come from the one declaration, so none can
/// drift from the others.
macro_rules! wire_struct {
    ($(#[$meta:meta])* pub struct $name:ident {
        $($(#[$fmeta:meta])* pub $field:ident: $ty:ty,)*
    }) => {
        $(#[$meta])*
        pub struct $name {
            $($(#[$fmeta])* pub $field: $ty,)*
        }

        impl Wire for $name {
            const MIN_BYTES: usize = 0 $(+ <$ty>::MIN_BYTES)*;
            const FIELDS: &'static [(&'static str, &'static str)] =
                &[$((stringify!($field), stringify!($ty)),)*];
            fn put(&self, out: &mut Vec<u8>) {
                $(self.$field.put(out);)*
            }
            #[deny(clippy::indexing_slicing, clippy::cast_possible_truncation)]
            fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
                Ok($name { $($field: Wire::get(r)?,)* })
            }
        }
    };
}

wire_struct! {
/// The training assignment a [`Message::Assign`] ships to a
/// freshly-connected worker process: everything a worker runtime needs
/// to run its side of the round protocol in another OS process.
/// Coordinator-only decisions (balance policy, sync strategy)
/// deliberately stay off the wire — the worker receives their *outcome*
/// as the rows of its [`Message::DatasetShard`] stream and the
/// per-round consensus models.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionConfig {
    /// Total node count `numT` (seed-derivation space, not this
    /// worker's id — that is the `worker` field of the Assign frame).
    pub nodes: u32,
    /// Synchronization rounds the run will drive.
    pub rounds: u64,
    /// Local epochs per round.
    pub local_epochs: u32,
    /// Step size λ.
    pub step_size: f64,
    /// Master seed (per-shard draw streams derive from it).
    pub seed: u64,
    /// The coordinator's per-round liveness deadline, in milliseconds
    /// (0 = coordinator default). Workers derive their own read
    /// deadline from it — scaled up by the node count, since a worker
    /// legitimately waits through every peer's round — so a run whose
    /// rounds outlast any fixed constant still keeps liveness checking
    /// proportional instead of spuriously killing healthy workers.
    pub round_timeout_ms: u64,
    /// Importance scheme for static weights / step corrections.
    pub importance: ImportanceScheme,
    /// Sampling strategy the node draws with.
    pub sampling: SamplingStrategy,
    /// Commit policy for adaptive feedback.
    pub commit: CommitPolicy,
    /// Loss name (`Loss::name`): the worker rebuilds the concrete loss
    /// from this tag, so only wire-known losses can run cross-process.
    pub loss: String,
    /// Regularizer bundled into the objective.
    pub reg: Regularizer,
    /// Model-update encoding both sides of the link must agree on
    /// (delta frames only reconstruct against a synchronized base).
    pub encoding: WireEncoding,
    /// Worker checkpoint cadence in rounds (0 = checkpointing off).
    /// Every `checkpoint_every` rounds the worker ships a
    /// [`Message::Checkpoint`] so respawn recovery replays at most one
    /// interval of round traffic instead of the whole session.
    pub checkpoint_every: u64,
    /// When set, workers ship a [`Message::Telemetry`] timing sample
    /// each round. Off by default: telemetry is observability-only and
    /// provably inert (the equivalence tests pin bit-identical models
    /// with it on and off).
    pub telemetry: bool,
}
}

wire_struct! {
/// The per-round timing counters a worker ships inside
/// [`Message::Telemetry`]: wall-time split between useful compute and
/// barrier stalling, plus the round's work volume. Durations come from
/// the worker's own monotonic clock (`isasgd_obs::monotonic_us`), so
/// they are comparable within one worker but not across machines.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WorkerTiming {
    /// Microseconds spent in the local-epoch compute loop: the round's
    /// local epochs and the sampler commits between them. The commit
    /// after the last epoch happens once the round's frames are sent,
    /// outside this span.
    pub compute_us: u64,
    /// Microseconds blocked waiting for the round-start barrier.
    pub barrier_wait_us: u64,
    /// Sample draws performed this round.
    pub rows: u64,
    /// Feedback observations committed this round (0 when the run is
    /// not adaptive).
    pub commits: u64,
}
}

/// The deterministic worker state a [`Message::Checkpoint`] carries:
/// everything that survives a round boundary beyond the session config
/// — the draw stream and the sampler, and nothing sized by the model.
///
/// At a boundary the rest of a worker's state is *derived*: the
/// coordinator owns the model, and the next round's consensus
/// overwrites the whole replica before anything reads it; the draw
/// stream sits at zero emitted draws, and adaptive pending windows are
/// freshly committed — so this struct plus the replayed post-checkpoint
/// traffic reproduces the never-killed run bit-for-bit.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckpointState {
    /// The worker's draw RNG stream state at the boundary.
    pub draw_rng: [u64; 4],
    /// The shard sampler's surviving state.
    pub sampler: CheckpointSampler,
}

/// Sampler state inside a [`CheckpointState`], split by sampler family.
#[derive(Debug, Clone, PartialEq)]
pub enum CheckpointSampler {
    /// Pre-generated sequence samplers (uniform/static): the sequence
    /// RNG plus the current epoch index buffer. Corrections are
    /// config-derived and rebuilt at install, not carried.
    Sequence {
        /// Shard row count (bounds every buffer entry).
        rows: u32,
        /// The sequence generator's RNG state.
        rng: [u64; 4],
        /// The current epoch's index buffer (unsorted draws).
        indices: Vec<u32>,
    },
    /// Adaptive sampler: the live sum-tree weights, encoded sparsely as
    /// the coordinates whose IEEE-754 bits differ from the shard's
    /// static base weights (gap-coded on the wire), plus the commit
    /// counter. Early in a run few rows have re-weighted, so the sparse
    /// form tracks *what adapted* rather than shard size.
    Adaptive {
        /// Shard row count (the dense weight dimensionality).
        rows: u32,
        /// Observation windows folded so far ([`Sampler::commit_version`]).
        ///
        /// [`Sampler::commit_version`]: isasgd_sampling::Sampler::commit_version
        commits: u64,
        /// Strictly increasing coordinates that differ from the static
        /// base weights.
        indices: Vec<u32>,
        /// Live weight values at `indices`, in order.
        weights: Vec<f64>,
    },
}

/// One frame's share of the generated code. The parentheses hold the
/// table's `custom(put, get)` marker or nothing: without a marker the
/// field list *is* the layout and the arm is spelled from it; with one
/// the arm hands over to the frame's hand-written pair.
macro_rules! frame_arm {
    (layout ()) => { "fields" };
    (layout ($put:ident $get:ident)) => { "custom" };
    (put () $out:ident $($field:ident)*) => {{ $($field.put($out);)* }};
    (put ($put:ident $get:ident) $out:ident $($field:ident)*) => { $put($out, $($field),*) };
    (get () $r:ident $name:ident $($field:ident)*) => {
        Message::$name { $($field: Wire::get(&mut $r)?,)* }
    };
    (get ($put:ident $get:ident) $r:ident $name:ident $($field:ident)*) => { $get(&mut $r)? };
}

/// The frame table's expander. From `Name = tag { field: Type, … }`
/// entries (doc comments pass through) it declares [`Message`],
/// [`FrameKind`], every function of the frame *list*, and
/// [`Message::encode`] / [`Message::decode`]: a frame's bytes are its
/// tag, then its fields' [`Wire`] layouts in declaration order. A frame
/// whose bytes are anything else says so — `Name = tag custom(put_fn,
/// get_fn) { … }` — and the two named functions are its layout.
macro_rules! frames {
    ($(
        $(#[$doc:meta])*
        $name:ident = $tag:literal $(custom($put:ident, $get:ident))? {
            $($(#[$fdoc:meta])* $field:ident: $ty:ty,)*
        }
    )*) => {
        /// A typed message of the coordinator↔worker protocol.
        #[derive(Debug, Clone, PartialEq)]
        pub enum Message {
            $($(#[$doc])* $name { $($(#[$fdoc])* $field: $ty,)* },)*
        }

        /// The kind of a wire frame, independent of its payload — the
        /// axis the per-link byte/frame counters are broken down by.
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub enum FrameKind {
            $(#[doc = concat!("[`Message::", stringify!($name), "`]")] $name,)*
        }

        /// Number of distinct frame kinds — the length of per-kind
        /// counter arrays such as
        /// [`LinkStats`](crate::transport::LinkStats).
        pub const FRAME_KINDS: usize = [$($tag,)*].len();

        impl FrameKind {
            /// All kinds, in table (= tag) order; a kind's position here
            /// is its [`FrameKind::index`] (tags have retired gaps,
            /// indices do not).
            pub const ALL: [FrameKind; FRAME_KINDS] = [$(FrameKind::$name,)*];

            /// The leading byte of this kind's encoded payload.
            pub fn tag(&self) -> u8 {
                match self {
                    $(FrameKind::$name => $tag,)*
                }
            }

            /// Classifies an encoded payload by its leading tag byte.
            // Two frames sharing a tag must not compile.
            #[deny(unreachable_patterns)]
            pub fn from_tag(tag: u8) -> Option<FrameKind> {
                match tag {
                    $($tag => Some(FrameKind::$name),)*
                    _ => None,
                }
            }

            /// Display name (matches [`Message::kind`]).
            pub fn name(&self) -> &'static str {
                match self {
                    $(FrameKind::$name => stringify!($name),)*
                }
            }

            /// `(field name, type spelling)` of the frame's fields, in
            /// declaration order.
            pub fn fields(&self) -> &'static [(&'static str, &'static str)] {
                match self {
                    $(FrameKind::$name => &[$((stringify!($field), stringify!($ty)),)*],)*
                }
            }

            /// `"fields"` when [`FrameKind::fields`] is the frame's byte
            /// layout, `"custom"` when the frame is marked otherwise.
            fn layout(&self) -> &'static str {
                match self {
                    $(FrameKind::$name => frame_arm!(layout ($($put $get)?)),)*
                }
            }
        }

        impl Message {
            /// This message's [`FrameKind`].
            pub fn frame_kind(&self) -> FrameKind {
                match self {
                    $(Message::$name { .. } => FrameKind::$name,)*
                }
            }

            /// Appends this message's payload encoding (tag + fields, no
            /// length prefix) to `out`.
            pub fn encode(&self, out: &mut Vec<u8>) {
                out.push(self.frame_kind().tag());
                match self {
                    $(Message::$name { $($field),* } => {
                        frame_arm!(put ($($put $get)?) out $($field)*)
                    })*
                }
            }

            /// Decodes one complete payload. The payload must contain
            /// exactly one message — trailing bytes are an error, so a
            /// canonical encoding is the unique fixed point of
            /// `decode ∘ encode`.
            #[deny(clippy::indexing_slicing, clippy::cast_possible_truncation)]
            pub fn decode(payload: &[u8]) -> Result<Message, WireError> {
                if payload.len() > MAX_FRAME {
                    return Err(WireError::FrameTooLarge { len: payload.len() });
                }
                let mut r = Reader::new(payload);
                let tag = r.u8().map_err(|_| WireError::Empty)?;
                let msg = match FrameKind::from_tag(tag).ok_or(WireError::BadTag(tag))? {
                    $(FrameKind::$name => frame_arm!(get ($($put $get)?) r $name $($field)*),)*
                };
                r.finish()?;
                Ok(msg)
            }
        }
    };
}

// The frame table — the one list of the protocol's frames, in tag
// order. Retired tags must not be reused: tag 4 carried the shard
// assignment of protocol versions 1–6, tag 7 the whole-dataset frame of
// versions 1–4.
frames! {
    /// A dense model: a worker's trained replica flowing up to the
    /// coordinator, or the coordinator's consensus flowing down.
    ModelUpdate = 1 {
        /// Sending node (or addressed worker, coordinator→worker).
        node: u32,
        /// Synchronization round this model belongs to.
        round: u64,
        /// Dense model coordinates.
        model: Vec<f64>,
    }
    /// Per-node importance observations (Alain et al.'s message shape):
    /// what [`ScheduleStream::observe`] scaled for every row the node
    /// visited this round, pre-reduced to the per-row max.
    ///
    /// [`ScheduleStream::observe`]: isasgd_sampling::ScheduleStream::observe
    FeedbackBatch = 2 {
        /// Sending node.
        node: u32,
        /// Round the observations were gathered in.
        round: u64,
        /// `(global_row, scaled_observation)` pairs.
        observations: Vec<(u32, f64)>,
    }
    /// The coordinator's start-of-round barrier.
    RoundBarrier = 3 {
        /// Addressed worker.
        node: u32,
        /// Round being started.
        round: u64,
    }
    /// Session greeting: the first frame a worker process sends after
    /// connecting. The accept loop validates the protocol version
    /// before admitting the connection to the fleet; anything else on a
    /// fresh connection (garbage, a truncated frame, a different
    /// message kind) is a handshake failure and the connection is
    /// dropped without disturbing the accept loop.
    Hello = 5 {
        /// The worker's [`PROTOCOL_VERSION`].
        version: u32,
    }
    /// Session assignment, the coordinator's reply to a valid
    /// [`Message::Hello`]: the worker's node id plus the
    /// [`SessionConfig`] it needs to run the round protocol.
    Assign = 6 {
        /// Node id assigned to this connection (0-based).
        worker: u32,
        /// The run's training configuration subset.
        config: SessionConfig,
    }
    /// A sparse model delta against the last model that crossed this
    /// link in the same direction: only the coordinates whose IEEE-754
    /// bits differ from that base, with their new bit patterns.
    /// Reconstruction is a bitwise overwrite, so a delta-encoded
    /// session is bit-identical to a dense one. Produced and consumed
    /// inside the `Tcp` transport — the round protocol above it only
    /// ever sees the reconstructed [`Message::ModelUpdate`].
    ModelDelta = 8 custom(put_model_delta, get_model_delta) {
        /// Sending node (or addressed worker, coordinator→worker).
        node: u32,
        /// Synchronization round this model belongs to.
        round: u64,
        /// Dense dimensionality of the model being patched (the
        /// receiver's base must match it exactly).
        dim: u32,
        /// Strictly increasing changed coordinates (varint gap-coded on
        /// the wire).
        indices: Vec<u32>,
        /// New IEEE-754 bit patterns at `indices`, in order.
        values: Vec<f64>,
    }
    /// One chunk of a worker's own shard, streamed during fleet
    /// admission after [`Message::Assign`] so a worker process needs no
    /// shared filesystem. Feature values move as raw IEEE-754 bits, so
    /// the worker's rows are bit-identical to the coordinator's.
    /// A worker receives only the rows it owns, each bundled with its
    /// coordinator-computed importance weight (schemes like
    /// `PartiallyBiased` mix in global statistics a shard cannot
    /// recompute locally). Chunks arrive in row order; the receiver
    /// re-validates builder invariants per chunk and bounds every
    /// allocation by the chunk's own declared-and-checked row count.
    DatasetShard = 9 custom(put_dataset_shard, get_dataset_shard) {
        /// Shard index this chunk belongs to (the receiving worker's id).
        shard: u32,
        /// First global row of the whole shard (after reordering).
        shard_start: u32,
        /// Total row count of the whole shard across all chunks.
        shard_rows: u32,
        /// First global row of *this chunk* (`shard_start` +
        /// previously-streamed rows).
        start: u32,
        /// Per-row importance weights, parallel to the chunk's rows.
        weights: Vec<f64>,
        /// The chunk's rows as a dataset with the full feature `dim`.
        chunk: Box<Dataset>,
    }
    /// A worker's periodic state checkpoint (versioned and checksummed):
    /// its draw stream and sampler, no model replica — the next round's
    /// consensus rebuilds that. The coordinator stores the latest blob
    /// per slot and truncates that slot's replay log to the
    /// post-checkpoint suffix, so respawn recovery is bounded by one
    /// checkpoint interval. Receivers absorb duplicates and reordered
    /// stale checkpoints idempotently (only a strictly newer round
    /// replaces the stored blob).
    Checkpoint = 10 custom(put_checkpoint, get_checkpoint) {
        /// Worker that took the checkpoint.
        node: u32,
        /// Round whose boundary the state was captured at.
        round: u64,
        /// The serialized worker state (boxed: dwarfs other frames).
        state: Box<CheckpointState>,
    }
    /// The coordinator's acknowledgement that a [`Message::Checkpoint`]
    /// is stored and the replay log truncated. Purely informational to
    /// the worker (it never blocks on it); dropped by workers that are
    /// past the round.
    CheckpointAck = 11 {
        /// Worker whose checkpoint is acknowledged.
        node: u32,
        /// Round of the stored checkpoint.
        round: u64,
    }
    /// A worker's per-round timing sample (checksummed), shipped before
    /// the round's [`Message::ModelUpdate`] when
    /// [`SessionConfig::telemetry`] is set. Purely observational: the
    /// coordinator's collect loop records it in [`ClusterRun::telemetry`]
    /// on every transport, and no receiver ever acknowledges or blocks
    /// on it.
    ///
    /// [`ClusterRun::telemetry`]: crate::node::ClusterRun::telemetry
    Telemetry = 12 custom(put_telemetry, get_telemetry) {
        /// Worker that measured the sample.
        node: u32,
        /// Round the sample covers.
        round: u64,
        /// The round's timing counters.
        timing: WorkerTiming,
    }
}

impl FrameKind {
    /// Dense 0-based index (position in [`FrameKind::ALL`]) for counter
    /// arrays.
    pub fn index(&self) -> usize {
        *self as usize
    }
}

/// The canonical `WIRE_SCHEMA.json` rendering of the frame table:
/// protocol version, frame cap, every frame's tag, whether its field
/// list is its byte layout (`"fields"`) or it is a `custom` frame, the
/// field list itself, and the [`SessionConfig`] payload. Fixed key
/// order, nothing run-dependent. The committed file at the workspace
/// root is byte-compared against this by `wire_schema_is_frozen`, so no
/// tag, frame or field-shape change lands without a reviewable schema
/// diff.
pub fn schema_json() -> String {
    let frames: Vec<String> = FrameKind::ALL
        .iter()
        .map(|k| {
            format!(
                "    {{\n      \"name\": \"{}\",\n      \"tag\": {},\n      \
                 \"layout\": \"{}\",\n      \"fields\": {}\n    }}",
                k.name(),
                k.tag(),
                k.layout(),
                schema_fields(k.fields(), "      ")
            )
        })
        .collect();
    format!(
        "{{\n  \"format\": 3,\n  \"protocol_version\": {PROTOCOL_VERSION},\n  \
         \"frame_kinds\": {FRAME_KINDS},\n  \"max_frame\": {MAX_FRAME},\n  \
         \"frames\": [\n{}\n  ],\n  \"session_config\": {}\n}}\n",
        frames.join(",\n"),
        schema_fields(SessionConfig::FIELDS, "  ")
    )
}

// --- varint / index-list codec ------------------------------------------
//
// Canonical LEB128: 7 payload bits per byte, least-significant group
// first, high bit = continuation. "Canonical" means the shortest
// encoding is the only accepted one — a redundant trailing 0x00 group
// (e.g. `0x80 0x00` for zero) is rejected, so the decode∘encode
// fixed-point property of the whole codec extends to varint payloads.

/// Appends the canonical LEB128 encoding of `v`.
pub(crate) fn put_varint(out: &mut Vec<u8>, v: u64) {
    varint_bytes(v, |b| out.push(b));
}

/// Hands the canonical LEB128 bytes of `v` to `emit`, low group first.
#[deny(clippy::indexing_slicing, clippy::cast_possible_truncation)]
fn varint_bytes(mut v: u64, mut emit: impl FnMut(u8)) {
    loop {
        let [low, ..] = v.to_le_bytes();
        v >>= 7;
        if v == 0 {
            emit(low & 0x7F);
            return;
        }
        emit(low | 0x80);
    }
}

/// Length of the canonical LEB128 encoding of `v`: one byte per started
/// 7-bit group, and one for zero.
fn varint_len(v: u64) -> usize {
    let bits = 64 - (v | 1).leading_zeros();
    bits.div_ceil(7) as usize
}

#[deny(clippy::indexing_slicing, clippy::cast_possible_truncation)]
fn get_varint(r: &mut Reader<'_>) -> Result<u64, WireError> {
    let mut v: u64 = 0;
    let mut shift = 0u32;
    loop {
        let byte = r.u8()?;
        if shift >= 64 || (shift == 63 && byte & 0x7E != 0) {
            return Err(WireError::Invalid {
                what: "varint overflows u64",
            });
        }
        v |= u64::from(byte & 0x7F) << shift;
        if byte & 0x80 == 0 {
            if byte == 0 && shift != 0 {
                return Err(WireError::Invalid {
                    what: "non-minimal varint",
                });
            }
            return Ok(v);
        }
        shift += 7;
    }
}

/// Appends the gap-coded index list: `u32 count ‖ varint first ‖
/// (count−1) × varint (idx − prev − 1)`. `indices` must be strictly
/// increasing (every caller holds sorted coordinates by construction).
pub fn put_index_list(out: &mut Vec<u8>, indices: &[u32]) {
    (indices.len() as u32).put(out);
    let mut prev: Option<u32> = None;
    for &i in indices {
        match prev {
            None => put_varint(out, u64::from(i)),
            #[expect(
                clippy::disallowed_macros,
                reason = "encode side: checks a caller invariant on our own sorted coordinates, never peer bytes"
            )]
            Some(p) => {
                debug_assert!(i > p, "index list not strictly increasing");
                put_varint(out, u64::from(i) - u64::from(p) - 1);
            }
        }
        prev = Some(i);
    }
}

/// Decodes a gap-coded index list, bounding every index by `dim`.
/// Strict monotonicity holds by construction (each gap adds ≥ 1), so
/// the returned list is always a valid sorted coordinate set.
#[deny(clippy::indexing_slicing, clippy::cast_possible_truncation)]
fn get_index_list(r: &mut Reader<'_>, dim: u64) -> Result<Vec<u32>, WireError> {
    let mut indices = Vec::new();
    get_index_list_into(r, dim, &mut indices)?;
    Ok(indices)
}

/// [`get_index_list`] appended to `out`, a buffer the caller reuses.
#[deny(clippy::indexing_slicing, clippy::cast_possible_truncation)]
fn get_index_list_into(r: &mut Reader<'_>, dim: u64, out: &mut Vec<u32>) -> Result<(), WireError> {
    // Each encoded index is at least one varint byte.
    let n = r.count(1)?;
    out.reserve(n);
    visit_indices(r, n, dim, |i| out.push(i))
}

/// Decodes the `n` gap-coded indices that follow an index list's count,
/// bounding each by `dim` and handing it to `visit` in order — the one
/// index-list decoder, behind [`get_index_list`], the in-place
/// [`apply_model_frame`] and the link encoder's value walk.
#[deny(clippy::indexing_slicing, clippy::cast_possible_truncation)]
fn visit_indices(
    r: &mut Reader<'_>,
    n: usize,
    dim: u64,
    mut visit: impl FnMut(u32),
) -> Result<(), WireError> {
    let mut prev: Option<u64> = None;
    for _ in 0..n {
        let raw = get_varint(r)?;
        let idx = match prev {
            None => raw,
            Some(p) => {
                p.checked_add(1)
                    .and_then(|b| b.checked_add(raw))
                    .ok_or(WireError::Invalid {
                        what: "index list overflows u64",
                    })?
            }
        };
        if idx >= dim {
            return Err(WireError::Invalid {
                what: "index list coordinate out of bounds",
            });
        }
        #[expect(
            clippy::cast_possible_truncation,
            reason = "idx < dim just checked, and every caller passes dim ≤ u32::MAX + 1"
        )]
        visit(idx as u32);
        prev = Some(idx);
    }
    Ok(())
}

// --- sparse model deltas -------------------------------------------------
//
// ModelDelta is `u8 tag ‖ u32 node ‖ u64 round ‖ u32 dim ‖
// idxlist(indices) ‖ nnz × f64 value`: the indices are gap-coded and
// bounded by `dim`, and the values borrow the index list's count.

/// Computes the coordinates (and new bit patterns) where `next` differs
/// from `base` — *bitwise*, never arithmetically, so a delta-encoded
/// model reconstructs bit-identically (−0.0 vs 0.0, NaN payloads and
/// subnormals included). Both slices must be the same length. A
/// worker's adaptive checkpoint ships its sampler weights as this diff
/// against the configured base weights; [`encode_model_frame`]'s bytes
/// are pinned against [`Message::encode`] of the frame built from it.
#[expect(
    clippy::disallowed_macros,
    reason = "encode side: both slices are this process's own vectors, never peer bytes"
)]
pub fn delta_coords(base: &[f64], next: &[f64]) -> (Vec<u32>, Vec<f64>) {
    debug_assert_eq!(base.len(), next.len());
    let mut indices = Vec::new();
    let mut values = Vec::new();
    for (i, (b, n)) in base.iter().zip(next).enumerate() {
        if b.to_bits() != n.to_bits() {
            indices.push(i as u32);
            values.push(*n);
        }
    }
    (indices, values)
}

/// Reconstructs a model from its per-link base and a sparse delta:
/// clone the base, overwrite the listed coordinates with the carried
/// bit patterns. The exact inverse of [`delta_coords`], and how a
/// respawned worker restores its checkpointed sampler weights.
///
/// The delta arrives off the wire, so the checks hold in release
/// builds: returns `None` when the coordinate and value lists disagree
/// in length or any index falls outside `base` (a delta built against
/// a different model dimension than the receiver holds).
#[deny(clippy::indexing_slicing, clippy::cast_possible_truncation)]
pub fn apply_delta(base: &[f64], indices: &[u32], values: &[f64]) -> Option<Vec<f64>> {
    if indices.len() != values.len() {
        return None;
    }
    let mut model = base.to_vec();
    for (&i, &v) in indices.iter().zip(values) {
        *model.get_mut(i as usize)? = v;
    }
    Some(model)
}

// --- round models across a link ------------------------------------------
//
// A `Tcp` link keeps, per direction, the last model that crossed it (its
// base). The two functions below are that path's codec, and neither
// copies a model: the encoder reads the caller's model and the base in
// place, writes the frame bytes straight into the frame buffer and
// advances the base to the model as it writes; the decoder applies a
// received frame to the base in place and walks its own writes back if
// the frame turns out malformed. Their bytes are `Message::encode`'s /
// `Message::decode`'s, so the wire does not change.

/// `u8 tag ‖ u32 node ‖ u64 round ‖ u32 dim`: the bytes a dense
/// [`Message::ModelUpdate`] (its `dim` is the model's count) and a
/// [`Message::ModelDelta`] both start with.
const MODEL_HEAD: usize = 1 + 4 + 8 + 4;

/// Coordinates per changed-bits mask: one `u64`.
const BLOCK: usize = 64;

/// The changed-bits mask of one block: bit `j` is set when coordinate
/// `j` of `model` differs from `base` in its bits. Branch-free: every
/// coordinate is compared, and each compare is a bit.
#[inline]
#[deny(clippy::indexing_slicing, clippy::cast_possible_truncation)]
fn changed_mask(base: &[f64], model: &[f64]) -> u64 {
    base.iter()
        .zip(model)
        .enumerate()
        .fold(0, |mask, (j, (b, m))| {
            mask | u64::from(b.to_bits() != m.to_bits()) << j
        })
}

/// Where the index list of a delta frame being written starts in the
/// frame buffer, and how many indices it holds.
struct DeltaList {
    at: usize,
    n: usize,
}

/// The one pass of the model-frame encoder over both models: appends the
/// head of `node`'s round-`round` frame for `model` and, when `encoding`
/// allows a delta against a `base` of the model's length, the delta's
/// gap-coded index list, one changed-bits mask of [`BLOCK`] coordinates
/// at a time. Under [`WireEncoding::Auto`] the walk stops as soon as the
/// delta can no longer be shorter than the dense frame, and the dense
/// frame is written whole instead (dense wins a tie). Returns the list
/// of a delta, whose values [`put_delta_values`] appends; `None` once a
/// dense frame is complete. A frame over `cap` bytes ([`MAX_FRAME`]
/// outside tests) is refused, with `out` as it was.
#[deny(clippy::indexing_slicing, clippy::cast_possible_truncation)]
fn put_model_frame_head(
    out: &mut Vec<u8>,
    (node, round): (u32, u64),
    model: &[f64],
    base: Option<&[f64]>,
    encoding: WireEncoding,
    cap: usize,
) -> Result<Option<DeltaList>, WireError> {
    let dense_len = MODEL_HEAD + 8 * model.len();
    // A model whose count overflows the frame's u32 fits no frame.
    let Ok(dim) = u32::try_from(model.len()) else {
        return Err(WireError::FrameTooLarge { len: dense_len });
    };
    let start = out.len();
    let head = |out: &mut Vec<u8>, kind: FrameKind| {
        out.push(kind.tag());
        node.put(out);
        round.put(out);
        dim.put(out);
    };
    let base = base.filter(|base| encoding != WireEncoding::Dense && base.len() == model.len());
    if let Some(base) = base {
        head(out, FrameKind::ModelDelta);
        0u32.put(out); // the index count, patched below
        let at = out.len();
        let (mut n, mut next) = (0, 0);
        for (k, (b, m)) in base.chunks(BLOCK).zip(model.chunks(BLOCK)).enumerate() {
            let mut mask = changed_mask(b, m);
            while mask != 0 {
                let i = k * BLOCK + mask.trailing_zeros() as usize;
                mask &= mask - 1;
                varint_bytes((i - next) as u64, |byte| out.push(byte));
                next = i + 1;
                n += 1;
            }
            // The delta only grows from here: once it is no shorter,
            // the dense frame is what auto writes.
            if encoding == WireEncoding::Auto && out.len() - start + 8 * n >= dense_len {
                break;
            }
        }
        let len = out.len() - start + 8 * n;
        if encoding == WireEncoding::Delta || len < dense_len {
            // n ≤ dim, which fits a u32.
            let (true, Ok(count)) = (len <= cap, u32::try_from(n)) else {
                out.truncate(start);
                return Err(WireError::FrameTooLarge { len });
            };
            if let Some(slot) = out.get_mut(at - 4..at) {
                slot.copy_from_slice(&count.to_le_bytes());
            }
            return Ok(Some(DeltaList { at, n }));
        }
        out.truncate(start);
    }
    if dense_len > cap {
        return Err(WireError::FrameTooLarge { len: dense_len });
    }
    out.reserve(dense_len);
    head(out, FrameKind::ModelUpdate);
    model.iter().for_each(|v| v.put(out));
    Ok(None)
}

/// Appends the values of the delta whose index list
/// [`put_model_frame_head`] just wrote, reading the list back, and hands
/// each listed coordinate with its new value to `advance`.
#[deny(clippy::indexing_slicing, clippy::cast_possible_truncation)]
fn put_delta_values(
    out: &mut Vec<u8>,
    list: DeltaList,
    model: &[f64],
    mut advance: impl FnMut(usize, f64),
) -> Result<(), WireError> {
    let end = out.len();
    out.resize(end + 8 * list.n, 0);
    let (frame, values) = out.split_at_mut(end);
    let mut slots = values.chunks_exact_mut(8);
    let mut r = Reader::new(frame.get(list.at..).unwrap_or_default());
    visit_indices(&mut r, list.n, model.len() as u64, |i| {
        let i = i as usize;
        if let (Some(slot), Some(&v)) = (slots.next(), model.get(i)) {
            slot.copy_from_slice(&v.to_le_bytes());
            advance(i, v);
        }
    })
}

/// Appends the payload a link sends for the round model `model` of
/// `node` at `round`, where `base` is the last model sent on the link —
/// and advances `base` to `model`: a [`Message::ModelDelta`] against
/// `base` when `encoding` allows one and `base` has the model's length,
/// a dense [`Message::ModelUpdate`] otherwise. Under
/// [`WireEncoding::Auto`] the shorter frame is written; dense wins a tie.
///
/// One pass reads both models in place, in blocks of 64 coordinates
/// whose changed bits each gather into one mask, and writes each change's
/// gap as it finds it; the values follow from a walk of that list,
/// which also writes each changed coordinate into `base`. A dense frame
/// copies the model into a `base` of its length. So once the frame is
/// written, `base` holds `model` bit for bit — the model the peer holds
/// once it applies the frame — and that is the links' lockstep rule:
/// after every successful send the tx base equals the peer's rx base. A
/// base of another length is read as none and left as it is. The bytes
/// equal [`Message::encode`] of the frame built from [`delta_coords`]
/// (or of the dense update). A payload over [`MAX_FRAME`] is refused
/// before anything is appended or advanced.
#[deny(clippy::indexing_slicing, clippy::cast_possible_truncation)]
pub fn encode_model_frame(
    out: &mut Vec<u8>,
    node: u32,
    round: u64,
    model: &[f64],
    base: Option<&mut [f64]>,
    encoding: WireEncoding,
) -> Result<(), WireError> {
    encode_model_frame_within(out, (node, round), model, base, encoding, MAX_FRAME)
}

/// [`encode_model_frame`] under a frame cap of `cap` bytes.
#[deny(clippy::indexing_slicing, clippy::cast_possible_truncation)]
fn encode_model_frame_within(
    out: &mut Vec<u8>,
    id: (u32, u64),
    model: &[f64],
    mut base: Option<&mut [f64]>,
    encoding: WireEncoding,
    cap: usize,
) -> Result<(), WireError> {
    match put_model_frame_head(out, id, model, base.as_deref(), encoding, cap)? {
        Some(list) => put_delta_values(out, list, model, |i, v| {
            if let Some(slot) = base.as_mut().and_then(|b| b.get_mut(i)) {
                *slot = v;
            }
        }),
        None => {
            if let Some(base) = base.filter(|b| b.len() == model.len()) {
                base.copy_from_slice(model);
            }
            Ok(())
        }
    }
}

/// [`encode_model_frame`] against a base the link shares with others
/// (a coordinator's round consensus): the same frame, and `base` is
/// only read — the link takes the sent model itself as its next base.
#[deny(clippy::indexing_slicing, clippy::cast_possible_truncation)]
pub(crate) fn encode_model_frame_shared(
    out: &mut Vec<u8>,
    node: u32,
    round: u64,
    model: &[f64],
    base: Option<&[f64]>,
    encoding: WireEncoding,
) -> Result<(), WireError> {
    match put_model_frame_head(out, (node, round), model, base, encoding, MAX_FRAME)? {
        Some(list) => put_delta_values(out, list, model, |_, _| {}),
        None => Ok(()),
    }
}

/// An `f64` from its 8 little-endian bytes (a `chunks_exact(8)` item).
fn f64_le(bytes: &[u8]) -> f64 {
    let mut a = [0u8; 8];
    a.copy_from_slice(bytes);
    f64::from_le_bytes(a)
}

/// Swaps a model coordinate with the value in its frame slot.
fn swap_slot(x: &mut f64, slot: &mut [u8]) {
    let v = f64_le(slot);
    slot.copy_from_slice(&x.to_le_bytes());
    *x = v;
}

/// Applies a received round-model payload to `base`, the last model
/// received on the link, and returns the frame's `node`, `round` and the
/// model it now holds. A dense [`Message::ModelUpdate`] replaces the
/// base, reusing its buffer; a [`Message::ModelDelta`] overwrites the
/// coordinates it lists (the in-place [`apply_delta`]) and is refused
/// unless a base of its `dim` exists. Any other frame is a
/// [`WireError::BadTag`].
///
/// The payload is refused exactly when [`Message::decode`] refuses it,
/// and a refused frame leaves `base` as it was. A delta's index list is
/// decoded once: each listed coordinate is swapped with its value slot
/// in the payload as the list is read, so should the list turn out
/// malformed, a second swap of the coordinates already written puts
/// back both `base` and the payload. An applied delta therefore leaves
/// the coordinates' previous values in its value slots: applying the
/// same payload again restores the previous model.
#[deny(clippy::indexing_slicing, clippy::cast_possible_truncation)]
pub fn apply_model_frame<'b>(
    payload: &mut [u8],
    base: &'b mut Option<Vec<f64>>,
) -> Result<(u32, u64, &'b [f64]), WireError> {
    if payload.len() > MAX_FRAME {
        return Err(WireError::FrameTooLarge { len: payload.len() });
    }
    let mut r = Reader::new(payload);
    let tag = r.u8().map_err(|_| WireError::Empty)?;
    let kind = FrameKind::from_tag(tag);
    if !matches!(kind, Some(FrameKind::ModelUpdate | FrameKind::ModelDelta)) {
        return Err(WireError::BadTag(tag));
    }
    let node = u32::get(&mut r)?;
    let round = u64::get(&mut r)?;
    if kind == Some(FrameKind::ModelUpdate) {
        let n = r.count(8)?;
        let values = r.take(8 * n)?;
        r.finish()?;
        let model = base.get_or_insert_with(Vec::new);
        model.clear();
        model.extend(values.chunks_exact(8).map(f64_le));
        return Ok((node, round, model));
    }
    let dim = u32::get(&mut r)?;
    let n = r.count(1)?;
    // The values are the payload's last 8n bytes, and the index list is
    // exactly what lies between the count and them.
    let list_at = r.pos;
    let Some(values_at) = payload
        .len()
        .checked_sub(8 * n)
        .filter(|&at| at >= list_at + n)
    else {
        return Err(WireError::Truncated {
            needed: 9 * n,
            have: payload.len() - list_at,
        });
    };
    let model = match base {
        Some(model) if model.len() == dim as usize => model,
        _ => {
            return Err(WireError::Invalid {
                what: "model delta without a matching base model",
            })
        }
    };
    let (frame, values) = payload.split_at_mut(values_at);
    let list = frame.get(list_at..).unwrap_or_default();
    let swap = |count: usize, values: &mut [u8], model: &mut [f64]| {
        let (mut slots, mut swapped) = (values.chunks_exact_mut(8), 0);
        let mut r = Reader::new(list);
        visit_indices(&mut r, count, u64::from(dim), |i| {
            if let (Some(x), Some(slot)) = (model.get_mut(i as usize), slots.next()) {
                swap_slot(x, slot);
                swapped += 1;
            }
        })
        .and_then(|()| r.finish())
        .map_err(|e| (e, swapped))
    };
    if let Err((e, swapped)) = swap(n, values, model) {
        // Undo: the same swaps over the coordinates already written.
        let _ = swap(swapped, values, model);
        return Err(e);
    }
    Ok((node, round, model))
}

fn put_model_delta(
    out: &mut Vec<u8>,
    node: &u32,
    round: &u64,
    dim: &u32,
    indices: &[u32],
    values: &[f64],
) {
    node.put(out);
    round.put(out);
    dim.put(out);
    put_index_list(out, indices);
    values.iter().for_each(|v| v.put(out));
}

#[deny(clippy::indexing_slicing, clippy::cast_possible_truncation)]
fn get_model_delta(r: &mut Reader<'_>) -> Result<Message, WireError> {
    let node = u32::get(r)?;
    let round = u64::get(r)?;
    let dim = u32::get(r)?;
    let indices = get_index_list(r, u64::from(dim))?;
    let values = r.values(indices.len(), |_| Ok(()))?;
    Ok(Message::ModelDelta {
        node,
        round,
        dim,
        indices,
        values,
    })
}

// --- worker checkpoints and telemetry ------------------------------------
//
// A checkpoint payload is `u8 tag ‖ u32 layout version ‖ u32 node ‖
// u64 round ‖ 4×u64 draw_rng ‖ vec<f64> model ‖ u8 sampler kind ‖
// kind fields ‖ u64 FNV-1a checksum` — the checksum covers everything
// between the tag and itself, so a blob corrupted at rest (the
// coordinator stores checkpoints across respawns) is refused at decode
// instead of silently steering a replacement worker off the
// deterministic path. A telemetry payload is `u8 tag ‖ u32 node ‖
// u64 round ‖ WorkerTiming ‖ u64 FNV-1a checksum`, checksummed for the
// same reason: the sample may sit in coordinator memory for a whole run
// before anyone reads it.

/// FNV-1a 64-bit hash — the checkpoint and telemetry frames' integrity
/// checksum.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

const CKPT_SAMPLER_SEQUENCE: u8 = 0;
const CKPT_SAMPLER_ADAPTIVE: u8 = 1;

fn put_checkpoint(out: &mut Vec<u8>, node: &u32, round: &u64, state: &CheckpointState) {
    let start = out.len();
    CHECKPOINT_VERSION.put(out);
    node.put(out);
    round.put(out);
    state.draw_rng.put(out);
    match &state.sampler {
        CheckpointSampler::Sequence { rows, rng, indices } => {
            out.push(CKPT_SAMPLER_SEQUENCE);
            rows.put(out);
            rng.put(out);
            indices.put(out);
        }
        CheckpointSampler::Adaptive {
            rows,
            commits,
            indices,
            weights,
        } => {
            out.push(CKPT_SAMPLER_ADAPTIVE);
            rows.put(out);
            commits.put(out);
            put_index_list(out, indices);
            weights.iter().for_each(|w| w.put(out));
        }
    }
    fnv1a(&out[start..]).put(out);
}

#[deny(clippy::indexing_slicing, clippy::cast_possible_truncation)]
fn get_checkpoint(r: &mut Reader<'_>) -> Result<Message, WireError> {
    check(
        u32::get(r)? == CHECKPOINT_VERSION,
        "unsupported checkpoint layout version",
    )?;
    let node = u32::get(r)?;
    let round = u64::get(r)?;
    let draw_rng = Wire::get(r)?;
    let sampler = match r.u8()? {
        CKPT_SAMPLER_SEQUENCE => {
            let rows = u32::get(r)?;
            let rng = Wire::get(r)?;
            let indices = Vec::<u32>::get(r)?;
            check(
                indices.iter().all(|&i| i < rows),
                "checkpoint sequence index out of bounds",
            )?;
            CheckpointSampler::Sequence { rows, rng, indices }
        }
        CKPT_SAMPLER_ADAPTIVE => {
            let rows = u32::get(r)?;
            let commits = u64::get(r)?;
            let indices = get_index_list(r, u64::from(rows))?;
            let weights = r.values(indices.len(), |w| {
                check(
                    w.is_finite() && w >= 0.0,
                    "checkpoint weight not finite non-negative",
                )
            })?;
            CheckpointSampler::Adaptive {
                rows,
                commits,
                indices,
                weights,
            }
        }
        tag => {
            return Err(WireError::BadEnum {
                what: "checkpoint sampler kind",
                tag,
            })
        }
    };
    r.checksum(
        "checkpoint frame too short for its checksum",
        "checkpoint checksum mismatch",
    )?;
    let state = Box::new(CheckpointState { draw_rng, sampler });
    Ok(Message::Checkpoint { node, round, state })
}

fn put_telemetry(out: &mut Vec<u8>, node: &u32, round: &u64, timing: &WorkerTiming) {
    let start = out.len();
    node.put(out);
    round.put(out);
    timing.put(out);
    fnv1a(&out[start..]).put(out);
}

#[deny(clippy::indexing_slicing, clippy::cast_possible_truncation)]
fn get_telemetry(r: &mut Reader<'_>) -> Result<Message, WireError> {
    let node = u32::get(r)?;
    let round = u64::get(r)?;
    let timing = WorkerTiming::get(r)?;
    r.checksum(
        "telemetry frame too short for its checksum",
        "telemetry checksum mismatch",
    )?;
    Ok(Message::Telemetry {
        node,
        round,
        timing,
    })
}

// --- shard-streamed dataset transfer ------------------------------------
//
// A shard chunk is `u8 tag ‖ u32 shard ‖ u32 shard_start ‖
// u32 shard_rows ‖ u32 start ‖ u32 dim ‖ u32 rows ‖ rows × row`, and a
// row is `u8 label (0 → −1.0, 1 → +1.0) ‖ f64 weight ‖
// idxlist(indices) ‖ nnz × f64 value`. The weight rides along because
// importance schemes mix in *global* statistics (mean, positive floor)
// that a worker holding only its shard cannot recompute.

/// Soft payload target for one [`Message::DatasetShard`] chunk. Every
/// chunk carries at least one row, so a single row larger than this
/// still moves — in one oversized chunk — but typical admission traffic
/// streams in ~256 KiB frames instead of one dataset-sized allocation.
pub const SHARD_CHUNK_BYTES: usize = 1 << 18;

fn put_shard_row(out: &mut Vec<u8>, indices: &[u32], values: &[f64], label: f64, weight: f64) {
    #[expect(
        clippy::float_cmp,
        reason = "labels are the exact sentinels ±1.0 by Dataset construction"
    )]
    out.push(if label == 1.0 { 1 } else { 0 });
    weight.put(out);
    put_index_list(out, indices);
    values.iter().for_each(|x| x.put(out));
}

/// `u8 tag ‖ u32 shard ‖ u32 shard_start ‖ u32 shard_rows ‖ u32 start ‖
/// u32 dim ‖ u32 rows`: the bytes of a shard chunk before its first row.
const SHARD_HEAD: usize = 1 + 6 * 4;

/// Encoded length of one shard row with these `indices` — what
/// `put_shard_row` appends, counted without writing it: label byte,
/// weight, the gap-coded index list, one f64 per index.
fn shard_row_len(indices: &[u32]) -> usize {
    let mut gaps = 0;
    let mut next = 0u64;
    for &i in indices {
        gaps += varint_len(u64::from(i) - next);
        next = u64::from(i) + 1;
    }
    1 + 8 + 4 + gaps + 8 * indices.len()
}

/// The chunk-boundary rule: whether a chunk holding `rows` rows in
/// `len` payload bytes is closed. Every chunk takes at least one row,
/// then rows until it reaches [`SHARD_CHUNK_BYTES`], so a row wider than
/// that still moves, alone.
fn shard_chunk_full(rows: usize, len: usize) -> bool {
    rows > 0 && len >= SHARD_CHUNK_BYTES
}

/// The payload length of each chunk [`encode_dataset_shard_chunk`]
/// writes for `range`, from a size-only pass over the rows' indices:
/// what the fleet checks against [`MAX_FRAME`] before it binds or
/// spawns anything.
pub(crate) fn dataset_shard_chunk_lens(range: &Range<usize>, data: &Dataset) -> Vec<usize> {
    let mut lens = Vec::new();
    let mut row = range.start;
    while row < range.end {
        let (mut len, mut rows_in_chunk) = (SHARD_HEAD, 0);
        while row < range.end && !shard_chunk_full(rows_in_chunk, len) {
            len += shard_row_len(data.row(row).indices);
            rows_in_chunk += 1;
            row += 1;
        }
        lens.push(len);
    }
    lens
}

/// The one shard-chunk writer, behind both [`Message::encode`] and
/// [`encode_dataset_shard_chunk`]. `out` ends with the frame's tag;
/// this appends `head` (`shard ‖ shard_start ‖ shard_rows ‖ start`),
/// the dim, the row count, and the rows of `data` from `rows.start` on,
/// each with its weight from `weights` (indexed like `data`), until
/// `rows` ends or, when `chunked`, the boundary rule closes the chunk.
/// Returns the row after the chunk's last.
fn put_shard_chunk(
    out: &mut Vec<u8>,
    head: [u32; 4],
    data: &Dataset,
    weights: &[f64],
    rows: Range<usize>,
    chunked: bool,
) -> usize {
    let at = out.len() - 1;
    let [shard, shard_start, shard_rows, start] = head;
    for v in [shard, shard_start, shard_rows, start, data.dim() as u32] {
        v.put(out);
    }
    let count_at = out.len();
    0u32.put(out); // row count, patched below
    let mut row = rows.start;
    while row < rows.end && !(chunked && shard_chunk_full(row - rows.start, out.len() - at)) {
        let r = data.row(row);
        put_shard_row(out, r.indices, r.values, r.label, weights[row]);
        row += 1;
    }
    let count = ((row - rows.start) as u32).to_le_bytes();
    out[count_at..count_at + 4].copy_from_slice(&count);
    row
}

/// A global row id, or a count of rows, as the wire names it: a `u32`.
/// `validate` refuses a dataset of more than `u32::MAX` rows, so every
/// row id and row count of a run fits.
pub(crate) fn wire_row(row: usize) -> u32 {
    #[expect(
        clippy::cast_possible_truncation,
        reason = "validate refuses a dataset of more than u32::MAX rows: a run's row ids and counts fit"
    )]
    let row = row as u32;
    row
}

/// Appends the [`Message::DatasetShard`] chunk of shard `shard` that
/// starts at row `row` to `out` and returns the row after its last: one
/// or more rows, up to [`SHARD_CHUNK_BYTES`] of payload plus one row of
/// overshoot. `range` is the shard's row range into the reordered
/// `data`; `weights` are the reordered per-row importance weights,
/// indexed like `data`. Calling it from `range.start` until it returns
/// `range.end` streams the whole shard through one buffer. Encoding is
/// deterministic, so a shard encoded twice — a first admission and a
/// respawn's — is the same bytes.
pub fn encode_dataset_shard_chunk(
    out: &mut Vec<u8>,
    shard: u32,
    range: &Range<usize>,
    row: usize,
    data: &Dataset,
    weights: &[f64],
) -> usize {
    out.push(FrameKind::DatasetShard.tag());
    let head = [
        shard,
        wire_row(range.start),
        wire_row(range.len()),
        wire_row(row),
    ];
    put_shard_chunk(out, head, data, weights, row..range.end, true)
}

fn put_dataset_shard(
    out: &mut Vec<u8>,
    shard: &u32,
    shard_start: &u32,
    shard_rows: &u32,
    start: &u32,
    weights: &[f64],
    chunk: &Dataset,
) {
    let head = [*shard, *shard_start, *shard_rows, *start];
    put_shard_chunk(out, head, chunk, weights, 0..chunk.n_samples(), false);
}

/// Re-validates every builder invariant per chunk and bounds each
/// allocation by the chunk's own declared-and-checked row count, so
/// admission never reserves a dataset-sized buffer on a peer's say-so.
#[deny(clippy::indexing_slicing, clippy::cast_possible_truncation)]
fn get_dataset_shard(r: &mut Reader<'_>) -> Result<Message, WireError> {
    let shard = u32::get(r)?;
    let shard_start = u32::get(r)?;
    let shard_rows = u32::get(r)?;
    let start = u32::get(r)?;
    let dim = u32::get(r)? as usize;
    // Minimum 13 bytes per row (label byte + weight + nnz count).
    let n = r.count(13)?;
    check(n != 0, "empty dataset shard chunk")?;
    let lo = u64::from(shard_start);
    let hi = lo + u64::from(shard_rows);
    check(
        u64::from(start) >= lo && u64::from(start) + n as u64 <= hi,
        "dataset shard chunk outside its shard range",
    )?;
    let mut weights = Vec::with_capacity(n);
    let mut b = DatasetBuilder::with_capacity(dim, n, 0);
    // Each row is decoded into these two, reused row after row; the
    // builder copies it into the chunk's storage.
    let (mut indices, mut values) = (Vec::new(), Vec::new());
    for _ in 0..n {
        let label = match r.u8()? {
            0 => -1.0,
            1 => 1.0,
            _ => {
                return Err(WireError::Invalid {
                    what: "dataset shard label byte not 0/1",
                })
            }
        };
        let weight = f64::get(r)?;
        check(
            weight.is_finite() && weight > 0.0,
            "dataset shard importance weight not positive finite",
        )?;
        indices.clear();
        values.clear();
        get_index_list_into(r, dim as u64, &mut indices)?;
        r.values_into(
            indices.len(),
            |x| check(x.is_finite(), "non-finite dataset value"),
            &mut values,
        )?;
        weights.push(weight);
        b.push_row_unchecked(&indices, &values, label);
    }
    Ok(Message::DatasetShard {
        shard,
        shard_start,
        shard_rows,
        start,
        weights,
        chunk: Box::new(b.finish()),
    })
}

impl Message {
    /// The payload encoding as a fresh buffer.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode(&mut out);
        out
    }

    /// Short display name of the message kind (logging/tests).
    pub fn kind(&self) -> &'static str {
        self.frame_kind().name()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(m: &Message) {
        let bytes = m.to_bytes();
        let back = Message::decode(&bytes).expect("valid encoding decodes");
        assert_eq!(&back, m);
    }

    /// One representative message per frame kind (exhaustive: a new
    /// frame does not compile until it has a sample). These are also the
    /// messages the committed golden encodings pin.
    fn sample(kind: FrameKind) -> Message {
        match kind {
            FrameKind::ModelUpdate => Message::ModelUpdate {
                node: 3,
                round: 17,
                model: vec![0.0, -0.0, 1.5, f64::MAX, f64::MIN_POSITIVE, -1e-308],
            },
            FrameKind::FeedbackBatch => Message::FeedbackBatch {
                node: u32::MAX,
                round: u64::MAX,
                observations: vec![(0, 1.0), (u32::MAX, f64::INFINITY)],
            },
            FrameKind::RoundBarrier => Message::RoundBarrier { node: 9, round: 2 },
            FrameKind::Hello => Message::Hello {
                version: PROTOCOL_VERSION,
            },
            FrameKind::Assign => Message::Assign {
                worker: 3,
                config: session_configs().swap_remove(1),
            },
            FrameKind::ModelDelta => Message::ModelDelta {
                node: 2,
                round: 7,
                dim: 6,
                indices: vec![1, 4, 5],
                values: vec![0.0, -5e-324, f64::NEG_INFINITY],
            },
            FrameKind::DatasetShard => {
                // A subnormal, an empty row and a signed zero.
                let mut b = DatasetBuilder::new(16);
                b.push_row(&[(0, 1.5), (2, -0.25), (5, 5e-324)], 1.0)
                    .unwrap();
                b.push_row(&[], -1.0).unwrap();
                b.push_row(&[(3, -0.0)], 1.0).unwrap();
                Message::DatasetShard {
                    shard: 1,
                    shard_start: 10,
                    shard_rows: 20,
                    start: 12,
                    weights: vec![1.0, 1.25, 1.5],
                    chunk: Box::new(b.finish()),
                }
            }
            FrameKind::Checkpoint => adaptive_checkpoint(),
            FrameKind::CheckpointAck => Message::CheckpointAck { node: 2, round: 8 },
            FrameKind::Telemetry => telemetry_sample(),
        }
    }

    #[test]
    fn every_variant_roundtrips() {
        for (i, kind) in FrameKind::ALL.into_iter().enumerate() {
            let m = sample(kind);
            roundtrip(&m);
            assert_eq!(m.frame_kind(), kind);
            assert_eq!(m.to_bytes()[0], kind.tag());
            assert_eq!(FrameKind::from_tag(kind.tag()), Some(kind));
            assert_eq!(kind.name(), m.kind());
            assert_eq!(kind.index(), i, "index is the position in ALL");
            if let Some(prev) = i.checked_sub(1) {
                assert!(
                    FrameKind::ALL[prev].tag() < kind.tag(),
                    "table in tag order"
                );
            }
        }
        // Edges and sub-enum arms the per-kind samples do not reach.
        roundtrip(&Message::ModelUpdate {
            node: 0,
            round: 0,
            model: vec![],
        });
        for config in session_configs() {
            roundtrip(&Message::Assign { worker: 3, config });
        }
        roundtrip(&sequence_checkpoint());
        roundtrip(&Message::Telemetry {
            node: u32::MAX,
            round: u64::MAX,
            timing: WorkerTiming {
                compute_us: u64::MAX,
                barrier_wait_us: 0,
                rows: u64::MAX,
                commits: 0,
            },
        });
    }

    /// The field-name schema cannot see a layout change *inside*
    /// `SessionConfig`, `CheckpointState` or `WorkerTiming`; one
    /// committed encoding per frame kind (plus the second checkpoint
    /// sampler family) can. A deliberate layout change bumps
    /// `PROTOCOL_VERSION` and replaces the file with the hex printed here.
    #[test]
    fn golden_encodings_are_frozen() {
        let dir = format!("{}/tests/golden", env!("CARGO_MANIFEST_DIR"));
        let golden: Vec<(String, Message)> = FrameKind::ALL
            .into_iter()
            .map(|k| (k.name().to_string(), sample(k)))
            .chain([("Checkpoint.sequence".to_string(), sequence_checkpoint())])
            .collect();
        for (name, msg) in &golden {
            let hex: String = msg.to_bytes().iter().map(|b| format!("{b:02x}")).collect();
            let path = format!("{dir}/{name}.hex");
            let committed = std::fs::read_to_string(&path).unwrap_or_else(|e| {
                panic!("{path}: {e} — a new frame commits its golden encoding: {hex}")
            });
            assert_eq!(committed.trim_end(), hex, "{name}: byte layout changed");
        }
        // A retired frame takes its golden with it.
        for entry in std::fs::read_dir(&dir).unwrap() {
            let file = entry.unwrap().file_name().into_string().unwrap();
            let Some(name) = file.strip_suffix(".hex") else {
                continue;
            };
            assert!(
                golden.iter().any(|(g, _)| g == name),
                "{dir}/{file} names no frame kind: delete it with its frame"
            );
        }
    }

    fn telemetry_sample() -> Message {
        Message::Telemetry {
            node: 2,
            round: 7,
            timing: WorkerTiming {
                compute_us: 1_234,
                barrier_wait_us: 56,
                rows: 640,
                commits: 80,
            },
        }
    }

    fn sequence_checkpoint() -> Message {
        Message::Checkpoint {
            node: 1,
            round: 4,
            state: Box::new(CheckpointState {
                draw_rng: [1, 2, 3, u64::MAX],
                sampler: CheckpointSampler::Sequence {
                    rows: 6,
                    rng: [9, 8, 7, 6],
                    indices: vec![3, 0, 5, 5, 1, 2],
                },
            }),
        }
    }

    fn adaptive_checkpoint() -> Message {
        Message::Checkpoint {
            node: 0,
            round: 12,
            state: Box::new(CheckpointState {
                draw_rng: [u64::MAX, 0, 1, 2],
                sampler: CheckpointSampler::Adaptive {
                    rows: 4_000_001,
                    commits: 17,
                    indices: vec![0, 129, 4_000_000],
                    weights: vec![0.25, 0.0, 1e300],
                },
            }),
        }
    }

    /// One SessionConfig per sub-enum variant so every codec arm is hit.
    fn session_configs() -> Vec<SessionConfig> {
        let base = SessionConfig {
            nodes: 4,
            rounds: 10,
            local_epochs: 2,
            step_size: 0.5,
            seed: 0x15A5_6D00,
            round_timeout_ms: 120_000,
            importance: ImportanceScheme::LipschitzSmoothness,
            sampling: SamplingStrategy::Static,
            commit: CommitPolicy::EpochBoundary,
            loss: "logistic".into(),
            reg: Regularizer::None,
            encoding: WireEncoding::Dense,
            checkpoint_every: 0,
            telemetry: false,
        };
        vec![
            base.clone(),
            SessionConfig {
                importance: ImportanceScheme::GradNormBound { radius: 1.25 },
                sampling: SamplingStrategy::Adaptive,
                commit: CommitPolicy::EveryK(32),
                loss: "squared hinge".into(),
                reg: Regularizer::L1 { eta: 1e-5 },
                encoding: WireEncoding::Delta,
                checkpoint_every: 4,
                telemetry: true,
                ..base.clone()
            },
            SessionConfig {
                importance: ImportanceScheme::PartiallyBiased { bias: 0.5 },
                sampling: SamplingStrategy::Uniform,
                reg: Regularizer::L2 { eta: 0.01 },
                encoding: WireEncoding::Auto,
                ..base.clone()
            },
            SessionConfig {
                importance: ImportanceScheme::Uniform,
                ..base
            },
        ]
    }

    #[test]
    fn bad_session_enum_tags_are_typed_errors() {
        let m = Message::Assign {
            worker: 0,
            config: session_configs().remove(0),
        };
        let bytes = m.to_bytes();
        // The importance-scheme tag sits right after worker(4) + nodes(4)
        // + rounds(8) + local_epochs(4) + step(8) + seed(8) +
        // round_timeout(8) + the message tag byte.
        let pos = 1 + 4 + 4 + 8 + 4 + 8 + 8 + 8;
        let mut bad = bytes.clone();
        bad[pos] = 0xEE;
        assert!(matches!(
            Message::decode(&bad),
            Err(WireError::BadEnum {
                what: "importance scheme",
                tag: 0xEE
            })
        ));
        // Non-UTF-8 loss name.
        let m2 = Message::Assign {
            worker: 0,
            config: SessionConfig {
                loss: "ab".into(),
                ..session_configs().remove(0)
            },
        };
        let mut bytes = m2.to_bytes();
        let n = bytes.len();
        // The frame ends reg tag (1 byte, Regularizer::None) ‖ encoding
        // (1 byte) ‖ checkpoint_every (8 bytes) ‖ telemetry (1 byte),
        // preceded by the 2-byte loss string; corrupt the loss bytes to
        // invalid UTF-8.
        bytes[n - 12] = 0xFF;
        bytes[n - 13] = 0xFE;
        assert!(matches!(
            Message::decode(&bytes),
            Err(WireError::Invalid {
                what: "non-UTF-8 string"
            })
        ));
        // The telemetry bool closes the frame and only 0/1 are canonical.
        let mut bytes = m.to_bytes();
        let last = bytes.len() - 1;
        bytes[last] = 2;
        assert!(matches!(
            Message::decode(&bytes),
            Err(WireError::BadEnum {
                what: "bool",
                tag: 2
            })
        ));
    }

    #[test]
    fn f64_roundtrips_are_bit_exact() {
        let m = Message::ModelUpdate {
            node: 0,
            round: 0,
            model: vec![-0.0, f64::NEG_INFINITY, 5e-324],
        };
        let Message::ModelUpdate { model, .. } = Message::decode(&m.to_bytes()).unwrap() else {
            panic!("wrong variant")
        };
        assert_eq!(model[0].to_bits(), (-0.0f64).to_bits(), "signed zero kept");
        assert_eq!(model[1], f64::NEG_INFINITY);
        assert_eq!(model[2].to_bits(), 5e-324f64.to_bits(), "subnormal kept");
    }

    #[test]
    fn bad_tag_and_empty_are_typed_errors() {
        assert_eq!(Message::decode(&[]), Err(WireError::Empty));
        assert_eq!(Message::decode(&[0xff]), Err(WireError::BadTag(0xff)));
        assert_eq!(Message::decode(&[0]), Err(WireError::BadTag(0)));
        // Retired tag 7: a well-formed v4 whole-dataset frame (dim 4,
        // zero rows) is as unknown as any other garbage.
        let mut v4_dataset = vec![7u8];
        u32::put(&4, &mut v4_dataset);
        u32::put(&0, &mut v4_dataset);
        assert_eq!(Message::decode(&v4_dataset), Err(WireError::BadTag(7)));
        assert_eq!(FrameKind::from_tag(7), None);
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut bytes = Message::RoundBarrier { node: 1, round: 1 }.to_bytes();
        bytes.push(0xAB);
        assert_eq!(
            Message::decode(&bytes),
            Err(WireError::TrailingBytes { extra: 1 })
        );
    }

    #[test]
    fn over_declared_counts_do_not_allocate() {
        // Every frame that carries a vector: a count of u32::MAX with no
        // bytes behind it must fail the count check — at the element's
        // minimum width — before any reserve. `header` is what sits
        // between the tag and the first count (zeros decode fine, bar
        // the checkpoint's layout version word).
        let mut ckpt_header = CHECKPOINT_VERSION.to_le_bytes().to_vec();
        // node, round, draw_rng, sequence kind, rows, sequence rng
        ckpt_header.extend_from_slice(&[0; 4 + 8 + 32 + 1 + 4 + 32]);
        let cases = [
            (FrameKind::ModelUpdate, vec![0; 4 + 8], 8),
            (FrameKind::FeedbackBatch, vec![0; 4 + 8], 12),
            (FrameKind::ModelDelta, vec![0; 4 + 8 + 4], 1), // ≥ 1 varint byte per index
            (FrameKind::DatasetShard, vec![0; 5 * 4], 13),  // label + weight + nnz count
            (FrameKind::Checkpoint, ckpt_header, 4),
        ];
        for (kind, header, elem_bytes) in cases {
            let mut bytes = vec![kind.tag()];
            bytes.extend_from_slice(&header);
            u32::put(&u32::MAX, &mut bytes); // declared count
            assert_eq!(
                Message::decode(&bytes),
                Err(WireError::Truncated {
                    needed: u32::MAX as usize * elem_bytes,
                    have: 0
                }),
                "{}",
                kind.name()
            );
        }
    }

    /// What every [`Wire`] impl owes its callers, checked on one value:
    /// the encoding is never shorter than `MIN_BYTES` (the bound `Vec<T>`
    /// trusts before allocating), `get` inverts `put` and stops exactly
    /// where `put` stopped, and no strict prefix decodes.
    fn wire_laws<T: Wire + PartialEq + std::fmt::Debug>(x: T) {
        let ty = std::any::type_name::<T>();
        let mut bytes = Vec::new();
        x.put(&mut bytes);
        assert!(bytes.len() >= T::MIN_BYTES, "{ty}: {x:?} under MIN_BYTES");
        let written = bytes.len();
        bytes.push(0xAA); // a neighbour's byte `get` must leave alone
        let mut r = Reader::new(&bytes);
        let back = T::get(&mut r).unwrap_or_else(|e| panic!("{ty}: {x:?}: {e}"));
        assert_eq!(back, x, "{ty}");
        assert_eq!(r.pos, written, "{ty}: {x:?} read past (or short of) itself");
        for cut in 0..written {
            assert!(
                matches!(
                    T::get(&mut Reader::new(&bytes[..cut])),
                    Err(WireError::Truncated { .. })
                ),
                "{ty}: {x:?}: prefix of {cut} bytes"
            );
        }
    }

    #[test]
    fn every_wire_type_keeps_the_wire_laws() {
        wire_laws(u32::MAX);
        wire_laws(u64::MAX);
        wire_laws(-5e-324f64);
        wire_laws(false);
        wire_laws(true);
        wire_laws(usize::MAX);
        wire_laws(String::new());
        wire_laws("squared hinge — ŷ".to_string());
        wire_laws([0, 1, u64::MAX, 3]);
        wire_laws((u32::MAX, f64::NEG_INFINITY));
        wire_laws(Vec::<f64>::new());
        wire_laws(vec![0.0, 1.5, f64::MAX]);
        wire_laws(vec![(0u32, 1u32), (1, u32::MAX)]);
        wire_laws(vec![(7u32, 0.25f64)]);
        wire_laws(vec!["a".to_string(), String::new()]);
        // Every variant of the five session enums, and both structs.
        for c in session_configs() {
            wire_laws(c.importance);
            wire_laws(c.sampling);
            wire_laws(c.commit);
            wire_laws(c.reg);
            wire_laws(c.encoding);
            wire_laws(c);
        }
        wire_laws(WorkerTiming {
            compute_us: u64::MAX,
            barrier_wait_us: 0,
            rows: 640,
            commits: 80,
        });
    }

    #[test]
    fn every_strict_prefix_is_truncated() {
        let bytes = Message::ModelUpdate {
            node: 1,
            round: 2,
            model: vec![1.0, 2.0, 3.0],
        }
        .to_bytes();
        for cut in 0..bytes.len() {
            assert!(
                Message::decode(&bytes[..cut]).is_err(),
                "prefix of {cut} bytes must not decode"
            );
        }
    }

    // --- varint / index-list ---------------------------------------------

    fn varint_roundtrip(v: u64) -> usize {
        let mut out = Vec::new();
        put_varint(&mut out, v);
        let mut r = Reader::new(&out);
        assert_eq!(get_varint(&mut r).unwrap(), v, "varint {v}");
        assert_eq!(r.remaining(), 0);
        out.len()
    }

    #[test]
    fn varint_boundary_values_roundtrip_minimally() {
        assert_eq!(varint_roundtrip(0), 1);
        assert_eq!(varint_roundtrip(127), 1); // 2^7 − 1
        assert_eq!(varint_roundtrip(128), 2); // 2^7
        assert_eq!(varint_roundtrip(16_383), 2); // 2^14 − 1
        assert_eq!(varint_roundtrip(16_384), 3); // 2^14
        assert_eq!(varint_roundtrip(u64::from(u32::MAX)), 5);
        assert_eq!(varint_roundtrip(u64::MAX), 10);
    }

    #[test]
    fn non_minimal_varints_are_rejected() {
        // `0x80 0x00` is a redundant encoding of zero.
        for bad in [&[0x80u8, 0x00][..], &[0x81, 0x00], &[0xFF, 0x80, 0x00]] {
            let mut r = Reader::new(bad);
            assert!(
                matches!(get_varint(&mut r), Err(WireError::Invalid { .. })),
                "{bad:?} must be rejected as non-minimal"
            );
        }
    }

    #[test]
    fn varint_overflow_is_a_typed_error() {
        // 10 continuation bytes followed by a 2-bit final group: > 64 bits.
        let mut bytes = vec![0xFFu8; 9];
        bytes.push(0x7F);
        let mut r = Reader::new(&bytes);
        assert!(matches!(get_varint(&mut r), Err(WireError::Invalid { .. })));
        // 11 bytes always overflow.
        let mut bytes = vec![0x80u8; 10];
        bytes.push(0x01);
        let mut r = Reader::new(&bytes);
        assert!(matches!(get_varint(&mut r), Err(WireError::Invalid { .. })));
    }

    #[test]
    fn index_lists_gap_code_and_bound_check() {
        let indices = vec![0u32, 1, 129, 4_000_000, u32::MAX - 1];
        let mut out = Vec::new();
        put_index_list(&mut out, &indices);
        let mut r = Reader::new(&out);
        let back = get_index_list(&mut r, u64::from(u32::MAX)).unwrap();
        assert_eq!(back, indices);
        // The same bytes against a small dim are rejected.
        let mut r = Reader::new(&out);
        assert!(matches!(
            get_index_list(&mut r, 130),
            Err(WireError::Invalid { .. })
        ));
    }

    // --- model deltas ----------------------------------------------------

    /// A refused encode appends nothing and leaves the base as it was:
    /// a delta and a dense frame each one byte over the cap.
    #[test]
    fn a_refused_encode_leaves_frame_and_base_as_they_were() {
        let base: Vec<f64> = (0..70).map(|i| f64::from(i) - 3.5).collect();
        let mut next = base.clone();
        next[2] = -0.0;
        next[69] = f64::from_bits(0x7FF8_0000_0000_0042);
        let delta_len = MODEL_HEAD + 4 + 2 + 2 * 8;
        let dense_len = MODEL_HEAD + 8 * 70;
        for (encoding, len) in [
            (WireEncoding::Delta, delta_len),
            (WireEncoding::Auto, delta_len),
            (WireEncoding::Dense, dense_len),
        ] {
            let mut held = base.clone();
            let mut out = vec![0xCD];
            let refused = encode_model_frame_within(
                &mut out,
                (1, 2),
                &next,
                Some(&mut held),
                encoding,
                len - 1,
            );
            assert_eq!(
                refused,
                Err(WireError::FrameTooLarge { len }),
                "{encoding:?}"
            );
            assert_eq!(out, [0xCD], "{encoding:?}: nothing appended");
            let bits = |m: &[f64]| m.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&held), bits(&base), "{encoding:?}: base untouched");
            // At the cap the same frame goes out and the base advances.
            encode_model_frame_within(&mut out, (1, 2), &next, Some(&mut held), encoding, len)
                .unwrap();
            assert_eq!(out.len(), 1 + len);
            assert_eq!(bits(&held), bits(&next), "{encoding:?}: base advanced");
        }
    }

    #[test]
    fn delta_roundtrip_reconstructs_bit_exactly() {
        let base = vec![0.0, -0.0, 1.5, f64::MAX, 5e-324, -3.25];
        let next = vec![0.0, 0.0, 1.5, f64::MAX, -5e-324, f64::NEG_INFINITY];
        let (indices, values) = delta_coords(&base, &next);
        // −0.0 → 0.0 is a bit change and must be carried.
        assert_eq!(indices, vec![1, 4, 5]);
        let rebuilt =
            apply_delta(&base, &indices, &values).expect("delta from delta_coords is in bounds");
        for (a, b) in rebuilt.iter().zip(&next) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        roundtrip(&Message::ModelDelta {
            node: 2,
            round: 7,
            dim: base.len() as u32,
            indices,
            values,
        });
        roundtrip(&Message::ModelDelta {
            node: 0,
            round: 1,
            dim: 10,
            indices: vec![],
            values: vec![],
        });
    }

    /// The checks in [`apply_delta`] hold in release builds: a delta
    /// whose coordinates outrun the receiver's base, or whose index and
    /// value lists disagree in length, is refused instead of panicking.
    #[test]
    fn apply_delta_refuses_malformed_deltas() {
        let base = vec![1.0, 2.0, 3.0];
        // Index == base.len() is out of bounds.
        assert_eq!(apply_delta(&base, &[3], &[9.0]), None);
        // Far out of bounds.
        assert_eq!(apply_delta(&base, &[u32::MAX], &[9.0]), None);
        // Length mismatch in either direction.
        assert_eq!(apply_delta(&base, &[0, 1], &[9.0]), None);
        assert_eq!(apply_delta(&base, &[0], &[9.0, 8.0]), None);
        // The empty delta is the identity.
        assert_eq!(apply_delta(&base, &[], &[]), Some(base.clone()));
        // A partial failure must not have been applied halfway — the
        // refusal happens before any caller-visible state changes.
        assert_eq!(apply_delta(&base, &[2, 3], &[7.0, 9.0]), None);
    }

    /// `Reader::take` survives a length that would overflow `pos + n`.
    #[test]
    fn reader_take_survives_overflowing_lengths() {
        let buf = [0u8; 4];
        let mut r = Reader::new(&buf);
        assert!(matches!(
            r.take(usize::MAX),
            Err(WireError::Truncated { .. })
        ));
        // Position is untouched by the failed take.
        assert_eq!(u32::get(&mut r).unwrap(), 0);
    }

    #[test]
    fn model_delta_rejects_out_of_dim_indices() {
        let m = Message::ModelDelta {
            node: 0,
            round: 1,
            dim: 4,
            indices: vec![1, 5],
            values: vec![1.0, 2.0],
        };
        assert!(matches!(
            Message::decode(&m.to_bytes()),
            Err(WireError::Invalid { .. })
        ));
    }

    // --- shard-streamed dataset ------------------------------------------

    #[test]
    fn dataset_shard_chunks_roundtrip_and_cover_the_shard() {
        let mut b = DatasetBuilder::new(16);
        for i in 0..40u32 {
            let y = if i % 2 == 0 { 1.0 } else { -1.0 };
            match i {
                // Subnormal and signed-zero values and an empty row
                // must survive bitwise too.
                12 => b.push_row(&[(0, 1.5), (2, -0.25), (5, 5e-324)], y),
                13 => b.push_row(&[], y),
                14 => b.push_row(&[(3, -0.0)], y),
                _ => b.push_row(&[(i % 16, 0.5 + f64::from(i))], y),
            }
            .unwrap();
        }
        let ds = b.finish();
        let weights: Vec<f64> = (0..40).map(|i| 1.0 + i as f64 * 0.25).collect();
        let range = 10..30;
        let (mut bytes, mut row, mut rows_seen) = (Vec::new(), range.start, 0usize);
        while row < range.end {
            bytes.clear();
            row = encode_dataset_shard_chunk(&mut bytes, 1, &range, row, &ds, &weights);
            let msg = Message::decode(&bytes).expect("chunk decodes");
            // Chunks are canonical: re-encoding is byte-identical.
            assert_eq!(msg.to_bytes(), bytes);
            let Message::DatasetShard {
                shard,
                shard_start,
                shard_rows,
                start,
                weights: w,
                chunk,
            } = msg
            else {
                panic!("wrong variant")
            };
            assert_eq!(shard, 1);
            assert_eq!(shard_start, 10);
            assert_eq!(shard_rows, 20);
            assert_eq!(start as usize, 10 + rows_seen);
            assert_eq!(chunk.dim(), ds.dim());
            for (i, row) in chunk.rows().enumerate() {
                let global = start as usize + i;
                let orig = ds.row(global);
                assert_eq!(row.indices, orig.indices);
                let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(
                    bits(row.values),
                    bits(orig.values),
                    "row {global} values must be bit-exact"
                );
                assert_eq!(row.label, orig.label);
                assert_eq!(w[i].to_bits(), weights[global].to_bits());
            }
            rows_seen += chunk.n_samples();
        }
        assert_eq!(rows_seen, 20, "chunks cover the shard exactly once");
    }

    /// A whole-shard encoder written out without the one-chunk
    /// encoder or its boundary rule: the byte oracle of both.
    fn reference_chunks(
        shard: u32,
        range: std::ops::Range<usize>,
        data: &Dataset,
        weights: &[f64],
    ) -> Vec<Vec<u8>> {
        let mut chunks = Vec::new();
        let mut row = range.start;
        while row < range.end {
            let mut out = vec![FrameKind::DatasetShard.tag()];
            shard.put(&mut out);
            (range.start as u32).put(&mut out);
            (range.len() as u32).put(&mut out);
            (row as u32).put(&mut out);
            (data.dim() as u32).put(&mut out);
            let count_at = out.len();
            0u32.put(&mut out);
            let mut rows_in_chunk = 0u32;
            while row < range.end && (rows_in_chunk == 0 || out.len() < SHARD_CHUNK_BYTES) {
                let r = data.row(row);
                put_shard_row(&mut out, r.indices, r.values, r.label, weights[row]);
                rows_in_chunk += 1;
                row += 1;
            }
            out[count_at..count_at + 4].copy_from_slice(&rows_in_chunk.to_le_bytes());
            chunks.push(out);
        }
        chunks
    }

    #[test]
    fn streamed_shard_chunks_are_the_reference_bytes_and_sized_exactly() {
        // Rows of 96 coordinates with gaps whose varints take one to
        // three bytes: three full chunks and a tail.
        let mut b = DatasetBuilder::new(2_000_000);
        for i in 0..1_200u32 {
            let pairs: Vec<(u32, f64)> = (0..96u32)
                .map(|j| (j * j * 200 + i % 7, f64::from(i) - f64::from(j) * 0.5))
                .collect();
            b.push_row(&pairs, if i % 3 == 0 { 1.0 } else { -1.0 })
                .unwrap();
        }
        let wide = (SHARD_CHUNK_BYTES / 8) + 64;
        let pairs: Vec<(u32, f64)> = (0..wide as u32).map(|i| (i, 1.0)).collect();
        b.push_row(&pairs, 1.0).unwrap();
        b.push_row(&[], -1.0).unwrap();
        // Empty rows take 13 bytes: this many fill a chunk to exactly
        // SHARD_CHUNK_BYTES, the length at which the rule closes it.
        let exact = (SHARD_CHUNK_BYTES - SHARD_HEAD) / 13;
        assert_eq!(SHARD_HEAD + 13 * exact, SHARD_CHUNK_BYTES);
        for i in 0..exact + 5 {
            b.push_row(&[], if i % 2 == 0 { 1.0 } else { -1.0 })
                .unwrap();
        }
        let ds = b.finish();
        let weights: Vec<f64> = (0..ds.n_samples()).map(|i| 0.5 + i as f64).collect();
        for row in ds.rows() {
            let mut out = Vec::new();
            put_shard_row(&mut out, row.indices, row.values, row.label, 1.0);
            assert_eq!(shard_row_len(row.indices), out.len());
        }
        let n = ds.n_samples();
        // An empty range, a one-row shard, the multi-chunk body, the
        // wider-than-a-chunk row alone and with its neighbours, and the
        // empty rows, whose first chunk ends at exactly the target.
        for range in [5..5, 7..8, 0..1_200, 1_200..1_201, 1_190..1_202, 1_202..n] {
            let want = reference_chunks(3, range.clone(), &ds, &weights);
            assert_eq!(want.is_empty(), range.is_empty());
            if range.start == 1_202 {
                assert_eq!(want[0].len(), SHARD_CHUNK_BYTES);
            }
            // One reused buffer, appended to behind bytes it must keep.
            let mut buf = Vec::new();
            let mut row = range.start;
            for (i, chunk) in want.iter().enumerate() {
                buf.clear();
                buf.extend_from_slice(b"kept");
                row = encode_dataset_shard_chunk(&mut buf, 3, &range, row, &ds, &weights);
                assert_eq!(&buf[..4], b"kept");
                assert_eq!(&buf[4..], &chunk[..], "{range:?}: chunk {i} differs");
            }
            assert_eq!(row, range.end, "{range:?}: rows left after the last chunk");
            let lens: Vec<usize> = want.iter().map(Vec::len).collect();
            assert_eq!(dataset_shard_chunk_lens(&range, &ds), lens, "{range:?}");
        }
        assert!(reference_chunks(3, 0..1_200, &ds, &weights).len() > 3);
    }

    #[test]
    fn oversized_rows_still_stream_one_per_chunk() {
        // A row bigger than SHARD_CHUNK_BYTES moves alone.
        let dim = (SHARD_CHUNK_BYTES / 8) + 64;
        let pairs: Vec<(u32, f64)> = (0..dim as u32).map(|i| (i, 1.0)).collect();
        let mut b = DatasetBuilder::new(dim);
        b.push_row(&pairs, 1.0).unwrap();
        b.push_row(&[(0, 2.0)], -1.0).unwrap();
        let ds = b.finish();
        let (mut bytes, mut row, mut chunks) = (Vec::new(), 0, 0);
        while row < 2 {
            bytes.clear();
            row = encode_dataset_shard_chunk(&mut bytes, 0, &(0..2), row, &ds, &[1.0, 2.0]);
            assert!(Message::decode(&bytes).is_ok());
            chunks += 1;
        }
        assert_eq!(chunks, 2, "huge row forces a chunk break");
        // A chunk frame built by hand is written whole, past the target:
        // only the streaming encoder closes chunks.
        roundtrip(&Message::DatasetShard {
            shard: 0,
            shard_start: 0,
            shard_rows: 2,
            start: 0,
            weights: vec![1.0, 2.0],
            chunk: Box::new(ds),
        });
    }

    #[test]
    fn malformed_shard_frames_are_typed_errors() {
        let mk_header = |rows: u32| {
            let mut bytes = vec![FrameKind::DatasetShard.tag()];
            u32::put(&0, &mut bytes); // shard
            u32::put(&4, &mut bytes); // shard_start
            u32::put(&8, &mut bytes); // shard_rows
            u32::put(&4, &mut bytes); // start
            u32::put(&4, &mut bytes); // dim
            u32::put(&rows, &mut bytes);
            bytes
        };
        // Empty chunk.
        let bytes = mk_header(0);
        assert!(matches!(
            Message::decode(&bytes),
            Err(WireError::Invalid { .. })
        ));
        // Bad label byte.
        let mut bytes = mk_header(1);
        bytes.push(7);
        f64::put(&1.0, &mut bytes);
        u32::put(&0, &mut bytes);
        assert!(matches!(
            Message::decode(&bytes),
            Err(WireError::Invalid { .. })
        ));
        // Non-positive weight.
        let mut bytes = mk_header(1);
        bytes.push(1);
        f64::put(&0.0, &mut bytes);
        u32::put(&0, &mut bytes);
        assert!(matches!(
            Message::decode(&bytes),
            Err(WireError::Invalid { .. })
        ));
        // Chunk escapes its shard range: start+rows > shard_start+shard_rows.
        let mut bytes = vec![FrameKind::DatasetShard.tag()];
        u32::put(&0, &mut bytes);
        u32::put(&4, &mut bytes); // shard_start
        u32::put(&1, &mut bytes); // shard_rows
        u32::put(&4, &mut bytes); // start
        u32::put(&4, &mut bytes); // dim
        u32::put(&2, &mut bytes); // rows
        for label in [0u8, 1] {
            bytes.push(label);
            f64::put(&1.0, &mut bytes);
            u32::put(&0, &mut bytes);
        }
        assert!(matches!(
            Message::decode(&bytes),
            Err(WireError::Invalid { .. })
        ));
        // Over-declared row count fails before allocation.
        let bytes = mk_header(u32::MAX);
        assert!(matches!(
            Message::decode(&bytes),
            Err(WireError::Truncated { .. })
        ));
    }

    // --- worker checkpoints ----------------------------------------------

    #[test]
    fn checkpoint_frames_are_checksummed() {
        for m in [sequence_checkpoint(), adaptive_checkpoint()] {
            let bytes = m.to_bytes();
            // Flipping any single payload byte between the tag and the
            // checksum must be caught (by the checksum if nothing
            // structural rejects it first) — never accepted, never a
            // panic.
            for pos in 1..bytes.len() {
                let mut bad = bytes.clone();
                bad[pos] ^= 0x01;
                assert!(
                    Message::decode(&bad).is_err(),
                    "bit flip at byte {pos} must not decode"
                );
            }
        }
    }

    #[test]
    fn checkpoint_truncations_are_typed_errors() {
        for m in [sequence_checkpoint(), adaptive_checkpoint()] {
            let bytes = m.to_bytes();
            for cut in 0..bytes.len() {
                assert!(
                    Message::decode(&bytes[..cut]).is_err(),
                    "prefix of {cut} bytes must not decode"
                );
            }
            let mut extra = bytes.clone();
            extra.push(0);
            assert!(matches!(
                Message::decode(&extra),
                Err(WireError::TrailingBytes { .. })
            ));
        }
    }

    // --- telemetry samples -----------------------------------------------

    #[test]
    fn telemetry_frames_are_checksummed() {
        let bytes = telemetry_sample().to_bytes();
        // Flipping any single byte between the tag and the checksum must
        // be caught by the checksum — never accepted, never a panic.
        for pos in 1..bytes.len() {
            let mut bad = bytes.clone();
            bad[pos] ^= 0x01;
            assert!(
                Message::decode(&bad).is_err(),
                "bit flip at byte {pos} must not decode"
            );
        }
    }

    #[test]
    fn telemetry_truncations_are_typed_errors() {
        let bytes = telemetry_sample().to_bytes();
        for cut in 0..bytes.len() {
            assert!(
                Message::decode(&bytes[..cut]).is_err(),
                "prefix of {cut} bytes must not decode"
            );
        }
        let mut extra = bytes.clone();
        extra.push(0);
        assert!(matches!(
            Message::decode(&extra),
            Err(WireError::TrailingBytes { .. })
        ));
    }

    #[test]
    fn telemetry_checksum_mismatch_is_a_typed_error() {
        let mut bytes = telemetry_sample().to_bytes();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF; // corrupt the checksum itself
        assert_eq!(
            Message::decode(&bytes),
            Err(WireError::Invalid {
                what: "telemetry checksum mismatch"
            })
        );
    }

    /// A blob of another layout is refused by its version word before
    /// its contents are read: the next layout's, and a well-formed
    /// version-1 blob, which carried the model replica after the draw
    /// RNG.
    #[test]
    fn wrong_checkpoint_layout_version_is_refused() {
        let bytes = sequence_checkpoint().to_bytes();
        let mut next = bytes.clone();
        // The layout version is the u32 right after the tag.
        next[1..5].copy_from_slice(&(CHECKPOINT_VERSION + 1).to_le_bytes());
        // node, round and draw_rng, then the replica, then the sampler.
        let (head, sampler) = bytes[5..bytes.len() - 8].split_at(4 + 8 + 32);
        let mut v1 = vec![FrameKind::Checkpoint.tag()];
        1u32.put(&mut v1);
        v1.extend_from_slice(head);
        vec![0.5f64, -1.0].put(&mut v1);
        v1.extend_from_slice(sampler);
        fnv1a(&v1[1..]).put(&mut v1);
        for bad in [next, v1] {
            assert_eq!(
                Message::decode(&bad),
                Err(WireError::Invalid {
                    what: "unsupported checkpoint layout version"
                })
            );
        }
    }

    #[test]
    fn malformed_checkpoint_contents_are_typed_errors() {
        let encode_with = |sampler: CheckpointSampler| {
            Message::Checkpoint {
                node: 0,
                round: 1,
                state: Box::new(CheckpointState {
                    draw_rng: [1, 2, 3, 4],
                    sampler,
                }),
            }
            .to_bytes()
        };
        // Sequence index ≥ rows.
        let bytes = encode_with(CheckpointSampler::Sequence {
            rows: 4,
            rng: [1, 2, 3, 4],
            indices: vec![0, 4],
        });
        assert_eq!(
            Message::decode(&bytes),
            Err(WireError::Invalid {
                what: "checkpoint sequence index out of bounds"
            })
        );
        // Non-finite / negative adaptive weights.
        for w in [f64::NAN, f64::INFINITY, -1.0] {
            let bytes = encode_with(CheckpointSampler::Adaptive {
                rows: 4,
                commits: 0,
                indices: vec![2],
                weights: vec![w],
            });
            assert_eq!(
                Message::decode(&bytes),
                Err(WireError::Invalid {
                    what: "checkpoint weight not finite non-negative"
                })
            );
        }
        // Adaptive delta coordinate ≥ rows (gap-coded bound check).
        let bytes = encode_with(CheckpointSampler::Adaptive {
            rows: 4,
            commits: 0,
            indices: vec![9],
            weights: vec![1.0],
        });
        assert!(matches!(
            Message::decode(&bytes),
            Err(WireError::Invalid { .. })
        ));
        // Bad sampler kind tag: corrupt the kind byte of a valid frame.
        // It sits after tag(1) + version(4) + node(4) + round(8) +
        // draw_rng(32).
        let mut bytes = encode_with(CheckpointSampler::Sequence {
            rows: 1,
            rng: [1, 2, 3, 4],
            indices: vec![0],
        });
        bytes[1 + 4 + 4 + 8 + 32] = 0xEE;
        assert!(matches!(
            Message::decode(&bytes),
            Err(WireError::BadEnum {
                what: "checkpoint sampler kind",
                tag: 0xEE
            }) | Err(WireError::Invalid { .. })
        ));
        // Over-declared counts fail before allocation.
        let mut bytes = vec![FrameKind::Checkpoint.tag()];
        u32::put(&CHECKPOINT_VERSION, &mut bytes);
        u32::put(&0, &mut bytes); // node
        u64::put(&1, &mut bytes); // round
        for w in [1u64, 2, 3, 4] {
            u64::put(&w, &mut bytes);
        }
        bytes.push(CKPT_SAMPLER_SEQUENCE);
        u32::put(&u32::MAX, &mut bytes); // rows
        for w in [5u64, 6, 7, 8] {
            u64::put(&w, &mut bytes);
        }
        u32::put(&u32::MAX, &mut bytes); // declared sequence index count
        assert!(matches!(
            Message::decode(&bytes),
            Err(WireError::Truncated { .. })
        ));
    }
}
