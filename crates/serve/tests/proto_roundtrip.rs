//! Property tests for the daemon frame protocol: every generated frame
//! survives encode→decode and the stream envelope, and no corruption —
//! truncation or bit flips, at any position — ever escapes as a panic
//! or a silently different frame.

use std::io::Cursor;

use confluence_serve::protocol::{self, RecvError};
use confluence_serve::{EngineStats, ErrorCode, Frame};
use confluence_store::{Decode, Encode};
use proptest::prelude::*;

fn arb_blob() -> impl Strategy<Value = Vec<u8>> {
    prop::collection::vec((0u64..256).prop_map(|b| b as u8), 0..48)
}

fn arb_stats() -> impl Strategy<Value = EngineStats> {
    (
        (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()),
        (any::<u64>(), any::<u64>(), any::<u64>()),
    )
        .prop_map(
            |(
                (requests, executed, hits, disk_hits),
                (remote_hits, remote_round_trips, remote_bytes),
            )| EngineStats {
                requests,
                executed,
                hits,
                disk_hits,
                remote_hits,
                remote_round_trips,
                remote_bytes,
            },
        )
}

fn arb_error_code() -> impl Strategy<Value = ErrorCode> {
    prop_oneof![
        Just(ErrorCode::ProtoMismatch),
        Just(ErrorCode::SchemaMismatch),
        Just(ErrorCode::ConfigMismatch),
        Just(ErrorCode::MalformedFrame),
        Just(ErrorCode::MalformedJob),
        Just(ErrorCode::JobFailed),
    ]
}

fn arb_frame() -> impl Strategy<Value = Frame> {
    prop_oneof![
        (any::<u32>(), any::<u32>(), any::<u64>()).prop_map(|(proto, schema, fingerprint)| {
            Frame::Hello {
                proto,
                schema,
                fingerprint,
            }
        }),
        (any::<u32>(), any::<u32>()).prop_map(|(proto, schema)| Frame::HelloAck { proto, schema }),
        (any::<u64>(), prop::collection::vec(arb_blob(), 0..6))
            .prop_map(|(batch_id, jobs)| Frame::SubmitBatch { batch_id, jobs }),
        (0u32..10_000, arb_blob())
            .prop_map(|(job_idx, output)| Frame::JobResult { job_idx, output }),
        (any::<u64>(), arb_stats())
            .prop_map(|(batch_id, stats)| Frame::BatchDone { batch_id, stats }),
        (arb_error_code(), prop::collection::vec(0u8..128, 0..32)).prop_map(|(code, msg)| {
            Frame::Error {
                code,
                message: msg.into_iter().map(|b| (b % 94 + 33) as char).collect(),
            }
        }),
        (0u32..8, prop::collection::vec(arb_blob(), 0..6))
            .prop_map(|(ttl, keys)| Frame::FetchResults { ttl, keys }),
        (any::<u32>(), arb_blob()).prop_map(|(idx, entry)| Frame::FetchHit { idx, entry }),
        (any::<u32>(), any::<u32>()).prop_map(|(hits, misses)| Frame::FetchDone { hits, misses }),
    ]
}

proptest! {
    #[test]
    fn every_frame_roundtrips(frame in arb_frame()) {
        let bytes = frame.to_bytes();
        prop_assert_eq!(Frame::from_bytes(&bytes).unwrap(), frame);
    }

    #[test]
    fn frame_sequences_roundtrip_through_the_envelope(
        frames in prop::collection::vec(arb_frame(), 0..5),
    ) {
        let mut buf = Vec::new();
        for frame in &frames {
            protocol::send(&mut buf, frame).unwrap();
        }
        let mut r = Cursor::new(buf);
        for frame in &frames {
            prop_assert_eq!(&protocol::recv(&mut r).unwrap(), frame);
        }
        prop_assert!(matches!(protocol::recv(&mut r), Err(RecvError::Closed)));
    }

    /// Truncating a framed stream anywhere yields a typed error (or, at
    /// an exact frame boundary, a clean Closed) — never a panic and
    /// never a wrong frame.
    #[test]
    fn truncation_never_panics(frame in arb_frame(), cut_seed in any::<u64>()) {
        let mut buf = Vec::new();
        protocol::send(&mut buf, &frame).unwrap();
        let cut = (cut_seed % buf.len() as u64) as usize; // strict prefix
        let mut r = Cursor::new(&buf[..cut]);
        match protocol::recv(&mut r) {
            Ok(decoded) => {
                return Err(format!("truncation at {cut} decoded as {decoded:?}"));
            }
            Err(RecvError::Closed) => prop_assert_eq!(cut, 0),
            Err(RecvError::Io(_) | RecvError::Envelope(_) | RecvError::Malformed(_)) => {}
        }
    }

    /// A single flipped bit anywhere in a framed stream is always caught
    /// — by the length cap, the checksum, or mid-frame EOF.
    #[test]
    fn bit_flips_never_decode(frame in arb_frame(), pos_seed in any::<u64>(), bit in 0u32..8) {
        let mut buf = Vec::new();
        protocol::send(&mut buf, &frame).unwrap();
        let pos = (pos_seed % buf.len() as u64) as usize;
        buf[pos] ^= 1 << bit;
        let mut r = Cursor::new(&buf);
        match protocol::recv(&mut r) {
            Ok(decoded) => {
                return Err(format!("flip at byte {pos} bit {bit} decoded as {decoded:?}"));
            }
            Err(RecvError::Closed) => {
                return Err(format!("flip at byte {pos} bit {bit} read as clean close"));
            }
            Err(RecvError::Io(_) | RecvError::Envelope(_) | RecvError::Malformed(_)) => {}
        }
    }

    /// Raw garbage bytes fed straight to the frame decoder (no envelope)
    /// also never panic — the server decodes payloads only after the
    /// checksum verifies, but the decoder must hold on its own.
    #[test]
    fn raw_garbage_never_panics(bytes in arb_blob()) {
        let _ = Frame::from_bytes(&bytes);
    }
}
