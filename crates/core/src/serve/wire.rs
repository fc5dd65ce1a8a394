//! Wire protocol of the distributed campaign service.
//!
//! Frames are length-prefixed JSON: a 4-byte big-endian payload length
//! followed by that many bytes of UTF-8 JSON. JSON keeps the protocol
//! inspectable with `nc`/`tcpdump` and reuses the vendored serde stack,
//! whose `f64` encoding is shortest-roundtrip and therefore bit-exact —
//! a [`CellResult`] survives the wire unchanged, which the distributed
//! == serial equivalence guarantee depends on.
//!
//! The conversation is strictly client-driven request/response:
//!
//! ```text
//! worker                        coordinator
//!   Hello{version, worker}  ->
//!                           <-  Welcome{version, config, cells} | Reject
//!   Lease{want}             ->
//!                           <-  Leases{grants} | Wait{ms} | Done
//!   Submit{lease, hash,     ->
//!          key, result}
//!                           <-  Accepted{lease} | Rejected{lease, reason}
//!   Bye                     ->
//!                           <-  Bye
//! ```
//!
//! Version skew is rejected at `Hello` time, before any study state is
//! exchanged.

use crate::study::{CellKey, CellResult, StudyConfig};
use serde::{Deserialize, Serialize};
use std::io::{Read, Write};

/// Protocol revision; bumped whenever a frame's shape changes. A worker
/// and coordinator with different versions refuse to talk rather than
/// mis-deserialize each other.
pub const PROTOCOL_VERSION: u32 = 1;

/// Upper bound on one frame's payload, protecting both sides from a
/// corrupt or hostile length prefix. A full paper-grid `StudyConfig` and
/// the largest `CellResult` are each well under a megabyte.
pub const MAX_FRAME: usize = 64 << 20;

/// Starting capacity of a frame's payload buffer; larger frames grow it
/// as their bytes arrive. Also the cap on a peer's `Hello`, read before
/// anything is known about the peer.
pub(crate) const READ_CAP: usize = 64 << 10;

/// One leased cell: everything a worker needs to execute it and submit
/// the result back under the right address.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LeaseGrant {
    /// Coordinator-unique lease id; quoted back in the `Submit`.
    pub lease: u64,
    /// The grid coordinate to execute.
    pub key: CellKey,
    /// The coordinator's content hash for the cell (see
    /// [`crate::cell_config_hash`]); the worker re-derives and
    /// cross-checks it, so a mismatched coordinator is caught before any
    /// injection work is spent.
    pub hash: String,
    /// Coordinator-clock deadline (milliseconds since it started serving).
    /// Informational for the worker: past it, the cell may be re-leased.
    pub deadline_ms: u64,
}

/// Worker → coordinator messages.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Request {
    /// Opens the conversation; `worker` is a display name for telemetry.
    Hello {
        /// Must equal [`PROTOCOL_VERSION`].
        version: u32,
        /// Worker display name (made unique per connection server-side).
        worker: String,
    },
    /// Asks for up to `want` cells to execute.
    Lease {
        /// Maximum number of grants the worker can take right now.
        want: usize,
    },
    /// Returns one executed cell.
    Submit {
        /// The lease id from the grant.
        lease: u64,
        /// The grant's content hash, echoed back.
        hash: String,
        /// The grant's cell key, echoed back.
        key: CellKey,
        /// The measured cell.
        result: CellResult,
    },
    /// Ends the conversation.
    Bye,
}

/// Coordinator → worker messages.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Response {
    /// Accepts a `Hello`: the full study configuration (workers derive
    /// everything — sources, compile flags, seeds — from it) and the grid
    /// size, for progress display.
    Welcome {
        /// Coordinator's [`PROTOCOL_VERSION`].
        version: u32,
        /// The study the worker will execute cells of.
        config: StudyConfig,
        /// Total cells in the plan.
        cells: usize,
    },
    /// Refuses a `Hello` (version skew).
    Reject {
        /// Human-readable refusal.
        reason: String,
    },
    /// Grants zero or more cells in response to `Lease`.
    Leases {
        /// The granted cells, in plan order.
        grants: Vec<LeaseGrant>,
    },
    /// Nothing grantable right now (every remaining cell is leased out);
    /// retry after `ms` milliseconds. The coordinator holds such a `Lease`
    /// until its lease board changes or 100 ms pass, and then sends
    /// `ms: 0`: ask again now. A held `Lease` is answered `Done` as soon as
    /// the study completes.
    Wait {
        /// Suggested retry delay.
        ms: u64,
    },
    /// Every cell is complete; the worker should say `Bye`.
    Done,
    /// A `Submit` passed verification and was persisted.
    Accepted {
        /// The submitted lease id.
        lease: u64,
    },
    /// A `Submit` failed verification and was discarded.
    Rejected {
        /// The submitted lease id.
        lease: u64,
        /// What the verification objected to.
        reason: String,
    },
    /// Acknowledges the worker's `Bye`.
    Bye,
}

/// Serializes `msg` as one length-prefixed JSON frame, handed to the
/// writer in a single `write_all`: a length prefix written on its own
/// would leave the payload behind Nagle's algorithm until the peer's
/// delayed ACK, on every round trip.
///
/// # Errors
///
/// Propagates write failures; an over-[`MAX_FRAME`] payload is an
/// `InvalidData` error (nothing is written).
pub fn write_frame<T: Serialize>(w: &mut impl Write, msg: &T) -> std::io::Result<()> {
    let json = serde_json::to_string(msg)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
    if json.len() > MAX_FRAME {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("frame of {} bytes exceeds MAX_FRAME", json.len()),
        ));
    }
    let mut frame = Vec::with_capacity(4 + json.len());
    frame.extend_from_slice(&(json.len() as u32).to_be_bytes());
    frame.extend_from_slice(json.as_bytes());
    w.write_all(&frame)?;
    w.flush()
}

/// Reads and deserializes one length-prefixed JSON frame.
///
/// # Errors
///
/// `UnexpectedEof` when the peer closed the connection (clean or not,
/// including mid-payload), `InvalidData` for an oversized length prefix
/// or a payload that is not valid `T`, and any underlying read failure
/// (including a read-timeout `WouldBlock`/`TimedOut`, which callers treat
/// as a dead peer).
pub fn read_frame<T: Deserialize>(r: &mut impl Read) -> std::io::Result<T> {
    read_frame_within(r, MAX_FRAME)
}

/// [`read_frame`] with a tighter cap: a length prefix above `cap` bytes is
/// `InvalidData` before any of its payload is read.
pub(crate) fn read_frame_within<T: Deserialize>(
    r: &mut impl Read,
    cap: usize,
) -> std::io::Result<T> {
    let mut len = [0u8; 4];
    r.read_exact(&mut len)?;
    let len = u32::from_be_bytes(len) as usize;
    if len > cap {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("frame length {len} exceeds the {cap}-byte cap"),
        ));
    }
    // Grow with what arrives, not with what the peer declares: a length
    // prefix alone cannot make this side allocate `MAX_FRAME` bytes.
    let mut payload = Vec::with_capacity(len.min(READ_CAP));
    r.take(len as u64).read_to_end(&mut payload)?;
    if payload.len() < len {
        return Err(std::io::Error::new(
            std::io::ErrorKind::UnexpectedEof,
            "failed to fill whole buffer",
        ));
    }
    let json = std::str::from_utf8(&payload)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
    serde_json::from_str(json)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use softerr_cc::OptLevel;
    use softerr_workloads::Workload;

    #[test]
    fn frames_roundtrip_through_a_buffer() {
        let msgs = vec![
            Request::Hello {
                version: PROTOCOL_VERSION,
                worker: "w0".into(),
            },
            Request::Lease { want: 3 },
            Request::Bye,
        ];
        let mut buf = Vec::new();
        for m in &msgs {
            write_frame(&mut buf, m).unwrap();
        }
        let mut r = buf.as_slice();
        for m in &msgs {
            let back: Request = read_frame(&mut r).unwrap();
            assert_eq!(&back, m);
        }
        // The stream is fully consumed; one more read is a clean EOF.
        assert_eq!(
            read_frame::<Request>(&mut r).unwrap_err().kind(),
            std::io::ErrorKind::UnexpectedEof
        );
    }

    /// A raw frame: the big-endian length prefix, then `payload`.
    fn raw_frame(payload: &[u8]) -> Vec<u8> {
        let mut frame = (payload.len() as u32).to_be_bytes().to_vec();
        frame.extend_from_slice(payload);
        frame
    }

    #[test]
    fn deeply_nested_frames_are_rejected_not_a_stack_overflow() {
        let frame = raw_frame(&vec![b'['; 1 << 20]);
        let err = read_frame::<Request>(&mut frame.as_slice()).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("nesting"), "{err}");
        // Nesting within the cap still parses.
        let nested = format!("{}{}", "[".repeat(100), "]".repeat(100));
        let value: serde::Value = read_frame(&mut raw_frame(nested.as_bytes()).as_slice()).unwrap();
        let mut depth = 0;
        let mut v = &value;
        while let serde::Value::Array(items) = v {
            depth += 1;
            match items.first() {
                Some(inner) => v = inner,
                None => break,
            }
        }
        assert_eq!(depth, 100);
    }

    #[test]
    fn study_config_survives_the_wire_bit_exactly() {
        let cfg = StudyConfig::default();
        let msg = Response::Welcome {
            version: PROTOCOL_VERSION,
            config: cfg.clone(),
            cells: 64,
        };
        let mut buf = Vec::new();
        write_frame(&mut buf, &msg).unwrap();
        let back: Response = read_frame(&mut buf.as_slice()).unwrap();
        match back {
            Response::Welcome { config, cells, .. } => {
                assert_eq!(config, cfg, "config must roundtrip exactly");
                assert_eq!(cells, 64);
            }
            other => panic!("expected Welcome, got {other:?}"),
        }
    }

    /// Counts `write` calls; accepts every byte of each.
    struct CountingWriter {
        writes: usize,
        bytes: Vec<u8>,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_frame_is_one_write() {
        let mut w = CountingWriter {
            writes: 0,
            bytes: Vec::new(),
        };
        let msg = Request::Lease { want: 2 };
        write_frame(&mut w, &msg).unwrap();
        assert_eq!(w.writes, 1, "length prefix and payload go out together");
        let back: Request = read_frame(&mut w.bytes.as_slice()).unwrap();
        assert_eq!(back, msg);
    }

    #[test]
    fn oversized_length_prefix_is_rejected() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&u32::MAX.to_be_bytes());
        buf.extend_from_slice(b"garbage");
        assert_eq!(
            read_frame::<Request>(&mut buf.as_slice())
                .unwrap_err()
                .kind(),
            std::io::ErrorKind::InvalidData
        );
    }

    /// A reader that records the largest buffer it is asked to fill and
    /// the bytes it handed out.
    struct Probe<'a> {
        data: &'a [u8],
        largest: usize,
        consumed: usize,
    }

    impl<'a> Probe<'a> {
        fn new(data: &'a [u8]) -> Probe<'a> {
            Probe {
                data,
                largest: 0,
                consumed: 0,
            }
        }
    }

    impl Read for Probe<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            self.largest = self.largest.max(buf.len());
            let n = self.data.read(buf)?;
            self.consumed += n;
            Ok(n)
        }
    }

    #[test]
    fn a_declared_length_allocates_nothing_until_its_bytes_arrive() {
        let mut data = (MAX_FRAME as u32).to_be_bytes().to_vec();
        data.extend_from_slice(&[b' '; 10]);
        let mut probe = Probe::new(&data);
        let err = read_frame::<Request>(&mut probe).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof);
        assert!(
            probe.largest <= READ_CAP,
            "asked for {} bytes before they arrived",
            probe.largest
        );

        // A well-formed `Hello` of READ_CAP + 1 bytes: `read_frame` takes
        // it, while the `Hello` cap refuses it before reading its payload.
        let named = |worker: String| Request::Hello {
            version: PROTOCOL_VERSION,
            worker,
        };
        let empty = serde_json::to_string(&named(String::new())).unwrap().len();
        let hello = named("w".repeat(READ_CAP + 1 - empty));
        let mut data = Vec::new();
        write_frame(&mut data, &hello).unwrap();
        assert_eq!(data.len(), 4 + READ_CAP + 1);
        assert_eq!(read_frame::<Request>(&mut data.as_slice()).unwrap(), hello);
        let mut probe = Probe::new(&data);
        let err = read_frame_within::<Request>(&mut probe, READ_CAP).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert_eq!(probe.consumed, 4, "only the length prefix was read");
    }

    #[test]
    fn grants_roundtrip() {
        let msg = Response::Leases {
            grants: vec![LeaseGrant {
                lease: 7,
                key: CellKey {
                    machine: "Cortex-A15-like".into(),
                    workload: Workload::Qsort,
                    level: OptLevel::O2,
                },
                hash: "00deadbeef00cafe".into(),
                deadline_ms: 60_000,
            }],
        };
        let mut buf = Vec::new();
        write_frame(&mut buf, &msg).unwrap();
        let back: Response = read_frame(&mut buf.as_slice()).unwrap();
        assert_eq!(back, msg);
    }
}
