//! Property tests on the wire codec: every message round-trips
//! bit-exactly, and the decoder is total — truncated, garbage, and
//! mutated frames return a typed `WireError`, never a panic and never
//! an unbounded allocation.

#![allow(
    clippy::disallowed_macros,
    clippy::disallowed_methods,
    clippy::disallowed_types,
    reason = "../clippy.toml binds the library's non-test code; tests assert, time and receive freely"
)]

use isasgd_cluster::{
    apply_delta, apply_model_frame, delta_coords, encode_model_frame, tcp_loopback_links,
    Broadcast, CheckpointSampler, CheckpointState, FrameKind, Message, SessionConfig, Tcp,
    Transport, WireEncoding, WireError, WorkerTiming, PROTOCOL_VERSION,
};
use isasgd_core::{CommitPolicy, ImportanceScheme, Regularizer, SamplingStrategy};
use isasgd_sparse::DatasetBuilder;
use proptest::prelude::*;
use std::sync::Arc;

/// NaN-free f64 values including the nasty edges: ±0.0, ±inf,
/// subnormals, and the extremes of the normal range. (NaN is excluded
/// only because `PartialEq` would make the round-trip assertion
/// vacuous; the codec itself moves raw bits.)
fn arb_f64() -> impl Strategy<Value = f64> {
    prop_oneof![
        -1e300f64..1e300,
        Just(0.0),
        Just(-0.0),
        Just(f64::INFINITY),
        Just(f64::NEG_INFINITY),
        Just(f64::MAX),
        Just(f64::MIN),
        Just(f64::MIN_POSITIVE),
        Just(5e-324), // smallest subnormal
    ]
}

fn arb_model_update() -> impl Strategy<Value = Message> {
    (
        0u32..=u32::MAX,
        0u64..=u64::MAX,
        prop::collection::vec(arb_f64(), 0..64),
    )
        .prop_map(|(node, round, model)| Message::ModelUpdate { node, round, model })
}

/// Feedback batches including empty ones and max-shard-index rows.
fn arb_feedback_batch() -> impl Strategy<Value = Message> {
    (
        0u32..=u32::MAX,
        0u64..=u64::MAX,
        prop::collection::vec(
            prop_oneof![0u32..1 << 20, Just(u32::MAX)]
                .prop_flat_map(|row| arb_f64().prop_map(move |obs| (row, obs))),
            0..48,
        ),
    )
        .prop_map(|(node, round, observations)| Message::FeedbackBatch {
            node,
            round,
            observations,
        })
}

fn arb_round_barrier() -> impl Strategy<Value = Message> {
    (0u32..=u32::MAX, 0u64..=u64::MAX)
        .prop_map(|(node, round)| Message::RoundBarrier { node, round })
}

fn arb_hello() -> impl Strategy<Value = Message> {
    prop_oneof![Just(PROTOCOL_VERSION), 0u32..=u32::MAX]
        .prop_map(|version| Message::Hello { version })
}

fn arb_importance() -> impl Strategy<Value = ImportanceScheme> {
    prop_oneof![
        Just(ImportanceScheme::LipschitzSmoothness),
        arb_f64().prop_map(|radius| ImportanceScheme::GradNormBound { radius }),
        Just(ImportanceScheme::Uniform),
        arb_f64().prop_map(|bias| ImportanceScheme::PartiallyBiased { bias }),
    ]
}

/// Loss-name strings: the two real names plus arbitrary ASCII junk (the
/// codec ships any string; semantic validation is the session layer's).
fn arb_loss_name() -> impl Strategy<Value = String> {
    prop_oneof![
        Just("logistic".to_string()),
        Just("squared hinge".to_string()),
        prop::collection::vec(0u8..26, 0..12)
            .prop_map(|v| v.into_iter().map(|c| (b'a' + c) as char).collect()),
    ]
}

fn arb_session_config() -> impl Strategy<Value = SessionConfig> {
    // The vendored proptest stand-in caps tuple strategies at arity 4;
    // nest the fields in groups instead.
    (
        (0u32..=u32::MAX, 0u64..=u64::MAX, 0u32..=u32::MAX, arb_f64()),
        (
            0u64..=u64::MAX,
            0u64..=u64::MAX,
            0u64..=u64::MAX,
            arb_importance(),
        ),
        (
            prop_oneof![
                Just(SamplingStrategy::Uniform),
                Just(SamplingStrategy::Static),
                Just(SamplingStrategy::Adaptive),
            ],
            prop_oneof![
                Just(CommitPolicy::EpochBoundary),
                (0usize..1 << 20).prop_map(CommitPolicy::EveryK),
            ],
            prop_oneof![
                Just(WireEncoding::Dense),
                Just(WireEncoding::Delta),
                Just(WireEncoding::Auto),
            ],
        ),
        (
            arb_loss_name(),
            prop_oneof![
                Just(Regularizer::None),
                arb_f64().prop_map(|eta| Regularizer::L1 { eta }),
                arb_f64().prop_map(|eta| Regularizer::L2 { eta }),
            ],
            prop_oneof![Just(false), Just(true)],
        ),
    )
        .prop_map(
            |(
                (nodes, rounds, local_epochs, step_size),
                (seed, round_timeout_ms, checkpoint_every, importance),
                (sampling, commit, encoding),
                (loss, reg, telemetry),
            )| SessionConfig {
                nodes,
                rounds,
                local_epochs,
                step_size,
                seed,
                round_timeout_ms,
                importance,
                sampling,
                commit,
                loss,
                reg,
                encoding,
                checkpoint_every,
                telemetry,
            },
        )
}

fn arb_assign() -> impl Strategy<Value = Message> {
    (0u32..=u32::MAX, arb_session_config())
        .prop_map(|(worker, config)| Message::Assign { worker, config })
}

/// Sparse model deltas: a strictly increasing coordinate set bounded by
/// `dim` (so every generated frame is decodable), with nasty-edge f64
/// payloads. `dim` includes `u32::MAX` so the gap-coded varints exercise
/// their widest encodings.
fn arb_model_delta() -> impl Strategy<Value = Message> {
    (
        0u32..=u32::MAX,
        0u64..=u64::MAX,
        prop_oneof![1u32..4096, Just(u32::MAX)],
    )
        .prop_flat_map(|(node, round, dim)| {
            (
                Just(node),
                Just(round),
                Just(dim),
                prop::collection::vec(0..dim, 0..32),
            )
        })
        .prop_flat_map(|(node, round, dim, mut raw)| {
            raw.sort_unstable();
            raw.dedup();
            let indices = raw;
            let n = indices.len();
            (
                Just(node),
                Just(round),
                Just(dim),
                (Just(indices), prop::collection::vec(arb_f64(), n..n + 1)),
            )
        })
        .prop_map(
            |(node, round, dim, (indices, values))| Message::ModelDelta {
                node,
                round,
                dim,
                indices,
                values,
            },
        )
}

/// Any f64 bit pattern the wire must carry: the nasty edges above plus
/// NaNs with payloads (compared through their bits, never `==`).
fn arb_bits_f64() -> impl Strategy<Value = f64> {
    prop_oneof![
        arb_f64(),
        (0u64..=u64::MAX).prop_map(f64::from_bits),
        Just(f64::NAN),
        Just(f64::from_bits(0xFFF0_0000_0000_0001)), // negative signalling NaN
    ]
}

/// `(base, next)` model pairs: no coordinate changed, every coordinate
/// changed, or a random mix (about half) — the three shapes the delta
/// encoder and `auto`'s size rule must get right. Dimensions reach past
/// 128 so gaps take two-byte varints.
fn arb_model_pair() -> impl Strategy<Value = (Vec<f64>, Vec<f64>)> {
    (
        prop::collection::vec((arb_bits_f64(), arb_bits_f64(), 0u8..2), 0..300),
        0u8..3,
    )
        .prop_map(|(coords, shape)| {
            coords
                .into_iter()
                .map(|(b, n, keep)| {
                    let changed = if n.to_bits() == b.to_bits() {
                        f64::from_bits(b.to_bits() ^ 1)
                    } else {
                        n
                    };
                    match (shape, keep) {
                        (0, _) | (2, 0) => (b, b),
                        _ => (b, changed),
                    }
                })
                .unzip()
        })
}

/// Shard-stream chunks with a consistent header: `start` sits inside
/// `[shard_start, shard_start + shard_rows)` and the chunk's rows fit
/// the declared shard. Weights are strictly positive finite (the
/// decoder's invariant), labels ±1.
fn arb_dataset_shard() -> impl Strategy<Value = Message> {
    (
        (0u32..=u32::MAX, 0u32..1024, 0u32..8, 0u32..8),
        prop::collection::vec(
            (
                prop::collection::btree_map(0u32..32, -10.0f64..10.0, 0..6),
                0u8..2,
                1e-3f64..10.0,
            ),
            1..12,
        ),
    )
        .prop_map(|((shard, shard_start, before, after), rows)| {
            let n = rows.len() as u32;
            let mut b = DatasetBuilder::new(32);
            let mut weights = Vec::with_capacity(rows.len());
            for (pairs, pos, w) in rows {
                let pairs: Vec<(u32, f64)> = pairs.into_iter().collect();
                b.push_row(&pairs, if pos == 1 { 1.0 } else { -1.0 })
                    .unwrap();
                weights.push(w);
            }
            Message::DatasetShard {
                shard,
                shard_start,
                shard_rows: before + n + after,
                start: shard_start + before,
                weights,
                chunk: Box::new(b.finish()),
            }
        })
}

fn arb_rng_state() -> impl Strategy<Value = [u64; 4]> {
    prop::collection::vec(0u64..=u64::MAX, 4).prop_map(|v| [v[0], v[1], v[2], v[3]])
}

/// Checkpoint sampler states satisfying the decoder's invariants:
/// sequence indices in-shard, adaptive overrides strictly increasing
/// with parallel finite non-negative weights (0.0 and subnormals
/// included — exact zeroes are legitimate committed weights).
fn arb_weight() -> impl Strategy<Value = f64> {
    prop_oneof![0.0f64..1e300, Just(0.0), Just(5e-324), Just(f64::MAX)]
}

fn arb_checkpoint_sampler() -> impl Strategy<Value = CheckpointSampler> {
    prop_oneof![
        (1u32..4096, arb_rng_state()).prop_flat_map(|(rows, rng)| {
            prop::collection::vec(0..rows, 0..32)
                .prop_map(move |indices| CheckpointSampler::Sequence { rows, rng, indices })
        }),
        (1u32..4096, 0u64..=u64::MAX).prop_flat_map(|(rows, commits)| {
            prop::collection::vec(0..rows, 0..32).prop_flat_map(move |mut raw| {
                raw.sort_unstable();
                raw.dedup();
                let n = raw.len();
                (Just(raw), prop::collection::vec(arb_weight(), n..n + 1)).prop_map(
                    move |(indices, weights)| CheckpointSampler::Adaptive {
                        rows,
                        commits,
                        indices,
                        weights,
                    },
                )
            })
        }),
    ]
}

fn arb_checkpoint() -> impl Strategy<Value = Message> {
    (
        (0u32..=u32::MAX, 0u64..=u64::MAX, arb_rng_state()),
        arb_checkpoint_sampler(),
    )
        .prop_map(|((node, round, draw_rng), sampler)| Message::Checkpoint {
            node,
            round,
            state: Box::new(CheckpointState { draw_rng, sampler }),
        })
}

fn arb_checkpoint_ack() -> impl Strategy<Value = Message> {
    (0u32..=u32::MAX, 0u64..=u64::MAX)
        .prop_map(|(node, round)| Message::CheckpointAck { node, round })
}

/// Telemetry frames across the full field ranges (durations and counts
/// are unconstrained u64s on the wire; semantics live with the
/// consumer).
fn arb_telemetry() -> impl Strategy<Value = Message> {
    (
        (0u32..=u32::MAX, 0u64..=u64::MAX),
        (0u64..=u64::MAX, 0u64..=u64::MAX),
        (0u64..=u64::MAX, 0u64..=u64::MAX),
    )
        .prop_map(
            |((node, round), (compute_us, barrier_wait_us), (rows, commits))| Message::Telemetry {
                node,
                round,
                timing: WorkerTiming {
                    compute_us,
                    barrier_wait_us,
                    rows,
                    commits,
                },
            },
        )
}

fn arb_message() -> impl Strategy<Value = Message> {
    prop_oneof![
        arb_model_update(),
        arb_feedback_batch(),
        arb_round_barrier(),
        arb_hello(),
        arb_assign(),
        arb_model_delta(),
        arb_dataset_shard(),
        arb_checkpoint(),
        arb_checkpoint_ack(),
        arb_telemetry(),
    ]
}

/// The committed schema is what the frame table renders, byte for
/// byte: no tag, frame or field-shape change lands without a
/// reviewable `WIRE_SCHEMA.json` diff.
#[test]
fn wire_schema_is_frozen() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../WIRE_SCHEMA.json");
    assert_eq!(
        std::fs::read_to_string(path).expect(path),
        isasgd_cluster::wire::schema_json(),
        "WIRE_SCHEMA.json drifted — review the protocol diff, then refresh it with \
         `cargo run -p isasgd-cluster --example wire_schema > WIRE_SCHEMA.json`"
    );
    assert_eq!(
        FrameKind::ALL.map(|k| k.name()),
        [
            "ModelUpdate",
            "FeedbackBatch",
            "RoundBarrier",
            "Hello",
            "Assign",
            "ModelDelta",
            "DatasetShard",
            "Checkpoint",
            "CheckpointAck",
            "Telemetry"
        ],
        "frames are declared in tag order"
    );
}

/// `auto` sends the shorter frame, not the one a changed-count rule
/// guesses: with 40 % of 1 000 coordinates changed (gaps of 0 and 3, one
/// varint byte each) the delta is 21 + 400 × 9 = 3 621 bytes against the
/// dense 8 017, so the link sends a delta — and the model still arrives
/// bit for bit.
#[test]
fn auto_sends_a_delta_while_it_is_the_shorter_frame() {
    let (mut coord, mut worker) = tcp_loopback_links(1, "127.0.0.1:0").unwrap().pop().unwrap();
    coord.set_encoding(WireEncoding::Auto);
    worker.set_encoding(WireEncoding::Auto);
    let base: Vec<f64> = (0..1000).map(|i| f64::from(i) * 0.25).collect();
    let next: Vec<f64> = (base.iter().enumerate())
        .map(|(i, &v)| if i % 5 < 2 { -v - 1.0 } else { v })
        .collect();
    for (round, model) in [(1, &base), (2, &next)] {
        let msg = Message::ModelUpdate {
            node: 0,
            round,
            model: model.clone(),
        };
        coord.send(&msg).unwrap();
        assert_eq!(worker.recv().unwrap(), msg);
    }
    let stats = coord.link_stats();
    assert_eq!(stats.tx_frames[FrameKind::ModelUpdate.index()], 1);
    assert_eq!(stats.tx_frames[FrameKind::ModelDelta.index()], 1);
    assert_eq!(stats.tx_bytes_for(FrameKind::ModelDelta), 4 + 3621);
}

/// The frame `encode_model_frame` writes for `(base, next)` under
/// `encoding`, checked against the oracles: `Message::encode` of the
/// dense update and of `delta_coords`' delta, `auto` taking the shorter
/// and dense on a tie. The encoder advances its copy of `base` to
/// `next`, and the frame applied to another copy does the same, bit for
/// bit.
fn encoded_as_the_oracles_encode(base: &[f64], next: &[f64], encoding: WireEncoding) -> Vec<u8> {
    let (indices, values) = delta_coords(base, next);
    let dense = Message::ModelUpdate {
        node: 3,
        round: 9,
        model: next.to_vec(),
    }
    .to_bytes();
    let delta = Message::ModelDelta {
        node: 3,
        round: 9,
        dim: next.len() as u32,
        indices,
        values,
    }
    .to_bytes();
    let want = match encoding {
        WireEncoding::Dense => &dense,
        WireEncoding::Delta => &delta,
        WireEncoding::Auto if delta.len() < dense.len() => &delta,
        WireEncoding::Auto => &dense,
    };
    let mut got = Vec::new();
    let mut tx = base.to_vec();
    encode_model_frame(&mut got, 3, 9, next, Some(&mut tx), encoding).unwrap();
    assert!(
        got == *want,
        "{encoding:?}, dim {}: bytes differ",
        next.len()
    );
    let bits = |m: &[f64]| m.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&tx), bits(next), "the tx base advanced to the model");
    let mut held = Some(base.to_vec());
    let (_, _, model) = apply_model_frame(&mut got.clone(), &mut held).unwrap();
    assert_eq!(bits(model), bits(next));
    got
}

/// The link encoder's 64-coordinate blocks at their edges: dims that
/// end a block early, exactly, one past it and two blocks past it, and
/// 2^20 + 3; changes only on the first and last coordinate of each
/// block, on every coordinate, on none; gaps of 2^14, whose varints
/// take three bytes, and one of 2^20 across empty blocks.
#[test]
fn the_link_encoder_is_exact_at_block_edges() {
    for dim in [1usize, 63, 64, 65, 129, (1 << 20) + 3] {
        let base: Vec<f64> = (0..dim).map(|i| i as f64 * 0.5 - 7.0).collect();
        let changed = |at: &dyn Fn(usize) -> bool| -> Vec<f64> {
            (base.iter().enumerate())
                .map(|(i, &v)| if at(i) { -v - 0.25 } else { v })
                .collect()
        };
        let edges = changed(&|i| i % 64 == 0 || i % 64 == 63 || i + 1 == dim);
        let all = changed(&|_| true);
        // Gaps of 2^14: the first three-byte varint.
        let wide_gaps = changed(&|i| i % ((1 << 14) + 1) == 0 || i + 1 == dim);
        let far = changed(&|i| i == 5 || i == (1 << 20) + 6 || i + 1 == dim);
        for next in [&edges, &all, &wide_gaps, &far, &base] {
            for encoding in [WireEncoding::Dense, WireEncoding::Delta, WireEncoding::Auto] {
                encoded_as_the_oracles_encode(&base, next, encoding);
            }
        }
    }
    // A gap of 2^20 crosses 16 384 empty blocks and takes three bytes.
    let base = vec![1.0; (1 << 20) + 3];
    let mut next = base.clone();
    next[1] = 2.0;
    next[(1 << 20) + 2] = 3.0;
    let frame = encoded_as_the_oracles_encode(&base, &next, WireEncoding::Delta);
    assert_eq!(frame.len(), 17 + 4 + (1 + 3) + 2 * 8);
    // The tie: five coordinates, four changed with one-byte gaps, make a
    // delta of 17 + 4 + 4 + 32 = 57 bytes, the dense frame's length —
    // and auto sends dense.
    let base = [1.0, 2.0, 3.0, 4.0, 5.0];
    let next = [1.5, 2.5, 3.5, 4.5, 5.0];
    let frame = encoded_as_the_oracles_encode(&base, &next, WireEncoding::Auto);
    assert_eq!(frame.len(), 57);
    assert_eq!(frame[0], FrameKind::ModelUpdate.tag());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1))]

    /// One case of many draws: the generator behind every property
    /// below must reach every frame kind, or those properties silently
    /// stop covering a frame.
    #[test]
    fn arb_message_produces_every_kind(msgs in prop::collection::vec(arb_message(), 512..513)) {
        for kind in FrameKind::ALL {
            prop_assert!(
                msgs.iter().any(|m| m.frame_kind() == kind),
                "arb_message never generated {}",
                kind.name()
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// decode ∘ encode is the identity, bit-exactly (f64 payloads are
    /// compared through their bit patterns so -0.0 and subnormals count).
    #[test]
    fn every_message_roundtrips(msg in arb_message()) {
        let bytes = msg.to_bytes();
        let back = Message::decode(&bytes);
        prop_assert_eq!(back.as_ref(), Ok(&msg));
        // Bit-exact f64s, not just PartialEq-equal:
        if let (Ok(Message::ModelUpdate { model: a, .. }), Message::ModelUpdate { model: b, .. }) =
            (&back, &msg)
        {
            for (x, y) in a.iter().zip(b) {
                prop_assert_eq!(x.to_bits(), y.to_bits());
            }
        }
        // Canonical: re-encoding the decoded message reproduces the bytes.
        prop_assert_eq!(back.unwrap().to_bytes(), bytes);
    }

    /// Every strict prefix of a valid encoding fails to decode — the
    /// decoder never accepts a truncated frame.
    #[test]
    fn strict_prefixes_never_decode(msg in arb_message()) {
        let bytes = msg.to_bytes();
        for cut in 0..bytes.len() {
            prop_assert!(
                Message::decode(&bytes[..cut]).is_err(),
                "prefix of {} / {} bytes decoded",
                cut,
                bytes.len()
            );
        }
    }

    /// Fuzz: feeding arbitrary bytes to the decoder is total — it
    /// returns `Ok` or a typed error, and anything it accepts is a
    /// canonical encoding (re-encodes to the same bytes).
    #[test]
    fn garbage_never_panics(bytes in prop::collection::vec(0u8..=255, 0..256)) {
        match Message::decode(&bytes) {
            Ok(msg) => prop_assert_eq!(msg.to_bytes(), bytes, "accepted a non-canonical frame"),
            Err(
                WireError::Truncated { .. }
                | WireError::BadTag(_)
                | WireError::TrailingBytes { .. }
                | WireError::FrameTooLarge { .. }
                | WireError::Empty
                | WireError::BadEnum { .. }
                | WireError::Invalid { .. }
                | WireError::Version { .. },
            ) => {}
        }
        // Retired tag 7 (the whole-dataset frame of protocol versions
        // 1–4) is an unknown tag whatever follows it.
        let mut retired = vec![7u8];
        retired.extend_from_slice(&bytes);
        prop_assert_eq!(Message::decode(&retired), Err(WireError::BadTag(7)));
    }

    /// Fuzz with a valid prefix: random byte prefixes glued in front of
    /// (or spliced into) a valid message must not panic the decoder.
    #[test]
    fn prefixed_garbage_never_panics(
        msg in arb_message(),
        junk in prop::collection::vec(0u8..=255, 1..32),
    ) {
        let valid = msg.to_bytes();
        let mut spliced = junk.clone();
        spliced.extend_from_slice(&valid);
        let _ = Message::decode(&spliced);
        let mut appended = valid;
        appended.extend_from_slice(&junk);
        // Appending junk must be rejected (trailing bytes) — a framed
        // stream cannot silently swallow extra payload.
        prop_assert!(Message::decode(&appended).is_err());
    }

    /// Single-byte corruption anywhere in a frame is total: either a
    /// typed error or a decoded message (flips in value bytes are
    /// legitimate different values) — never a panic or runaway alloc.
    #[test]
    fn bit_flips_never_panic(msg in arb_message(), pos_seed in 0usize..4096, flip in 1u8..=255) {
        let mut bytes = msg.to_bytes();
        if bytes.is_empty() {
            return Ok(());
        }
        let pos = pos_seed % bytes.len();
        bytes[pos] ^= flip;
        let _ = Message::decode(&bytes);
    }

    /// `apply_delta(base, delta_coords(base, next)) == next` bit-exactly
    /// for arbitrary models — including ±0.0, ±inf, and subnormal
    /// coordinates — and the delta itself survives the wire unchanged.
    #[test]
    fn delta_encode_apply_is_the_identity(
        pairs in prop::collection::vec((arb_f64(), arb_f64()), 0..64),
    ) {
        let base: Vec<f64> = pairs.iter().map(|p| p.0).collect();
        let next: Vec<f64> = pairs.iter().map(|p| p.1).collect();
        let (indices, values) = delta_coords(&base, &next);
        let rebuilt = apply_delta(&base, &indices, &values).expect("delta from delta_coords is in bounds");
        prop_assert_eq!(rebuilt.len(), next.len());
        for (a, b) in rebuilt.iter().zip(&next) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
        let msg = Message::ModelDelta {
            node: 0,
            round: 0,
            dim: base.len() as u32,
            indices,
            values,
        };
        let back = Message::decode(&msg.to_bytes());
        prop_assert_eq!(back.as_ref(), Ok(&msg));
        if let Ok(Message::ModelDelta { values: v, .. }) = &back {
            if let Message::ModelDelta { values: w, .. } = &msg {
                for (x, y) in v.iter().zip(w) {
                    prop_assert_eq!(x.to_bits(), y.to_bits());
                }
            }
        }
    }

    /// The borrowed encoder writes, byte for byte, what `Message::encode`
    /// writes for the frame built from `delta_coords` (or the dense
    /// update), under every encoding; `auto` picks the shorter of the
    /// two, dense on a tie. The in-place decoder leaves the base equal
    /// to `apply_delta`'s result, bit for bit. Pairs cover ±0.0, NaN
    /// payloads, subnormals, no change and every coordinate changed.
    #[test]
    fn borrowed_encoder_and_in_place_decoder_match_the_oracles(
        (base, next) in arb_model_pair(),
        node in 0u32..=u32::MAX,
        round in 0u64..=u64::MAX,
    ) {
        let bits = |m: &[f64]| m.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let (indices, values) = delta_coords(&base, &next);
        let rebuilt = apply_delta(&base, &indices, &values).expect("in bounds");
        let dense = Message::ModelUpdate { node, round, model: next.clone() }.to_bytes();
        let delta = Message::ModelDelta {
            node,
            round,
            dim: next.len() as u32,
            indices,
            values,
        }
        .to_bytes();
        let shorter = if delta.len() < dense.len() { &delta } else { &dense };
        for (encoding, want) in [
            (WireEncoding::Dense, &dense),
            (WireEncoding::Delta, &delta),
            (WireEncoding::Auto, shorter),
        ] {
            let mut out = vec![0xAB];
            let mut tx = base.clone();
            encode_model_frame(&mut out, node, round, &next, Some(&mut tx), encoding).unwrap();
            prop_assert_eq!(&out[0], &0xAB, "appends, never overwrites");
            prop_assert_eq!(&out[1..], &want[..], "{:?}", encoding);
            prop_assert_eq!(bits(&tx), bits(&next), "{:?}: base advanced", encoding);
            // No base: dense whatever the encoding.
            out.clear();
            encode_model_frame(&mut out, node, round, &next, None, encoding).unwrap();
            prop_assert_eq!(&out, &dense);
        }

        let mut held = Some(base.clone());
        let mut payload = delta.clone();
        let (n, r, model) = apply_model_frame(&mut payload, &mut held).unwrap();
        prop_assert_eq!((n, r), (node, round));
        prop_assert_eq!(bits(model), bits(&rebuilt));
        prop_assert_eq!(bits(&rebuilt), bits(&next));
        // The applied payload now holds the previous values: applied
        // again, it restores the base.
        let (_, _, model) = apply_model_frame(&mut payload, &mut held).unwrap();
        prop_assert_eq!(bits(model), bits(&base));
        let mut held = Some(base.clone());
        let (_, _, model) = apply_model_frame(&mut dense.clone(), &mut held).unwrap();
        prop_assert_eq!(bits(model), bits(&next));
        // A dense frame needs no base; a delta refuses to go without one.
        let mut none = None;
        prop_assert!(apply_model_frame(&mut dense.clone(), &mut none).is_ok());
        let mut none = None;
        prop_assert!(apply_model_frame(&mut delta.clone(), &mut none).is_err());
        prop_assert_eq!(none, None);
    }

    /// The in-place decoder refuses exactly what `Message::decode`
    /// refuses, and a refused frame leaves the base as it was: every
    /// strict prefix and every single-byte corruption of a valid delta.
    #[test]
    fn a_refused_frame_changes_no_coordinate(
        (base, next) in arb_model_pair(),
        pos_seed in 0usize..4096,
        flip in 1u8..=255,
    ) {
        let bits = |m: &[f64]| m.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let mut frame = Vec::new();
        encode_model_frame(&mut frame, 1, 2, &next, Some(&mut base.clone()), WireEncoding::Delta)
            .unwrap();
        let pos = pos_seed % frame.len();
        let mut flipped = frame.clone();
        flipped[pos] ^= flip;
        for bytes in (0..frame.len()).map(|cut| &frame[..cut]).chain([&flipped[..]]) {
            let mut held = Some(base.clone());
            let decoded = Message::decode(bytes);
            let mut payload = bytes.to_vec();
            match apply_model_frame(&mut payload, &mut held) {
                Ok(_) => prop_assert!(decoded.is_ok(), "accepted what decode refuses"),
                Err(_) => {
                    prop_assert_eq!(bits(held.as_deref().unwrap()), bits(&base));
                    prop_assert_eq!(&payload[..], bytes, "the payload is put back too");
                }
            }
        }
    }

    /// Varint boundary indices (0, 2^7, 2^14, and the widest encodable
    /// coordinate) gap-code through a ModelDelta frame and come back
    /// exactly, at any payload.
    #[test]
    fn varint_boundary_indices_roundtrip(values in prop::collection::vec(arb_f64(), 6..7)) {
        let indices = vec![0u32, 127, 128, 16_384, 1 << 20, u32::MAX - 1];
        let msg = Message::ModelDelta {
            node: 1,
            round: 2,
            dim: u32::MAX,
            indices,
            values,
        };
        let back = Message::decode(&msg.to_bytes());
        prop_assert_eq!(back.as_ref(), Ok(&msg));
    }
}

/// Where a link's tx base stands before a broadcast: on the model the
/// previous broadcast shared, on a model of its own, or nowhere (a
/// fresh or respawned link).
#[derive(Debug, Clone, Copy)]
enum LinkBase {
    Shared,
    Own,
    Missing,
}

fn arb_encoding() -> impl Strategy<Value = WireEncoding> {
    prop_oneof![
        Just(WireEncoding::Dense),
        Just(WireEncoding::Delta),
        Just(WireEncoding::Auto),
    ]
}

/// `(previous broadcast, a link's own model, next broadcast)` of one
/// dim, and one to four links, each with its base and encoding.
type BroadcastCase = (Vec<f64>, Vec<f64>, Vec<f64>, Vec<(LinkBase, WireEncoding)>);

fn arb_broadcast() -> impl Strategy<Value = BroadcastCase> {
    arb_model_pair().prop_flat_map(|(prev, next)| {
        let dim = prev.len();
        let link = (
            prop_oneof![
                Just(LinkBase::Shared),
                Just(LinkBase::Own),
                Just(LinkBase::Missing)
            ],
            arb_encoding(),
        );
        (
            Just(prev),
            prop::collection::vec(arb_bits_f64(), dim..=dim),
            Just(next),
            prop::collection::vec(link, 1..=4),
        )
    })
}

/// The next frame on a raw socket: its payload, length prefix read off.
fn read_payload(peer: &mut std::net::TcpStream) -> Vec<u8> {
    use std::io::Read;
    let mut len = [0u8; 4];
    peer.read_exact(&mut len).unwrap();
    let mut payload = vec![0u8; u32::from_le_bytes(len) as usize];
    peer.read_exact(&mut payload).unwrap();
    payload
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// A broadcast writes every link the bytes `encode_model_frame`
    /// writes for that link alone — node id, base and encoding its own —
    /// whether the links' bases are shared, their own or missing, and
    /// every peer that applies what it read holds the sent model bit for
    /// bit. Two rounds: after the first broadcast every non-dense link
    /// shares its base.
    #[test]
    fn a_broadcast_writes_each_link_its_own_frame(
        (prev, own, next, links) in arb_broadcast(),
    ) {
        let bits = |m: &[f64]| m.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut ends: Vec<(Tcp, std::net::TcpStream)> = links
            .iter()
            .map(|&(_, encoding)| {
                let peer = std::net::TcpStream::connect(addr).unwrap();
                let mut tcp = Tcp::new(listener.accept().unwrap().0).unwrap();
                tcp.set_encoding(encoding);
                (tcp, peer)
            })
            .collect();
        // Each link's tx base as the test tracks it, and each peer's rx
        // base as it applies what it reads.
        let mut tx: Vec<Option<Vec<f64>>> = vec![None; links.len()];
        let mut rx: Vec<Option<Vec<f64>>> = vec![None; links.len()];
        let mut frame = Vec::new();
        let prev: Arc<[f64]> = Arc::from(prev);
        let mut broadcast = Broadcast::new(1, &prev, &mut frame);
        for (k, ((base, encoding), (tcp, peer))) in links.iter().zip(&mut ends).enumerate() {
            let node = k as u32;
            let sent = match base {
                LinkBase::Shared => {
                    tcp.send_broadcast(node, &mut broadcast).unwrap();
                    &prev[..]
                }
                LinkBase::Own => {
                    tcp.send_model(node, 1, &own).unwrap();
                    &own[..]
                }
                LinkBase::Missing => continue,
            };
            apply_model_frame(&mut read_payload(peer), &mut rx[k]).unwrap();
            tx[k] = (*encoding != WireEncoding::Dense).then(|| sent.to_vec());
        }
        drop(broadcast);
        for (round, model) in [(2, Arc::<[f64]>::from(next)), (3, prev.clone())] {
            let mut broadcast = Broadcast::new(round, &model, &mut frame);
            for (k, (tcp, _)) in ends.iter_mut().enumerate() {
                tcp.send_broadcast(k as u32, &mut broadcast).unwrap();
            }
            drop(broadcast);
            for (k, ((_, encoding), (_, peer))) in links.iter().zip(&mut ends).enumerate() {
                let mut want = Vec::new();
                encode_model_frame(&mut want, k as u32, round, &model, tx[k].as_deref_mut(), *encoding)
                    .unwrap();
                let mut got = read_payload(peer);
                prop_assert!(got == want, "round {}, link {}: bytes differ", round, k);
                let (node, r, held) = apply_model_frame(&mut got, &mut rx[k]).unwrap();
                prop_assert_eq!((node, r), (k as u32, round));
                prop_assert_eq!(bits(held), bits(&model), "round {}, link {}", round, k);
                if *encoding == WireEncoding::Dense {
                    tx[k] = None;
                } else if tx[k].is_none() {
                    tx[k] = Some(model.to_vec());
                }
            }
        }
    }
}
