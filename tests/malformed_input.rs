//! Hostile bytes at the two places the program reads input it did not
//! write itself: a wire frame ([`read_frame`]) and a result-store cell
//! file ([`ResultStore::load`]).
//!
//! The corpus: random bytes, every truncation of valid frames and cell
//! files, length prefixes beyond the data or above [`MAX_FRAME`],
//! well-formed JSON of the wrong message type, nesting deeper than the
//! parser's 128 levels, and payloads that are not UTF-8. Nothing may
//! panic; a frame must be refused with `Err`, and a cell file must be a
//! miss that is counted, and quarantined where the file could be read.

use proptest::prelude::*;
use softerr::serve::{read_frame, write_frame, LeaseGrant, Request, Response, MAX_FRAME};
use softerr::{CellKey, CellResult, OptLevel, ResultStore, StudyConfig, Workload};
use std::path::PathBuf;

fn key() -> CellKey {
    CellKey {
        machine: "Cortex-A15-like".into(),
        workload: Workload::Qsort,
        level: OptLevel::O2,
    }
}

fn cell() -> CellResult {
    CellResult {
        golden_cycles: 7908,
        golden_retired: 12037,
        code_words: 300,
        campaigns: vec![],
    }
}

/// `payload` behind a big-endian length prefix, as `write_frame` sends it.
fn framed(payload: &[u8]) -> Vec<u8> {
    let mut frame = (payload.len() as u32).to_be_bytes().to_vec();
    frame.extend_from_slice(payload);
    frame
}

fn frame_of<T: serde::Serialize>(msg: &T) -> Vec<u8> {
    let mut frame = Vec::new();
    write_frame(&mut frame, msg).expect("frame");
    frame
}

/// One valid frame of every message kind, each side of the wire.
fn valid_frames() -> Vec<Vec<u8>> {
    let requests = [
        Request::Hello {
            version: 1,
            worker: "w0".into(),
        },
        Request::Lease { want: 2 },
        Request::Submit {
            lease: 3,
            hash: "00ff00ff00ff00ff".into(),
            key: key(),
            result: cell(),
        },
        Request::Bye,
    ];
    let responses = [
        Response::Welcome {
            version: 1,
            config: StudyConfig::quick(1),
            cells: 64,
        },
        Response::Reject {
            reason: "version".into(),
        },
        Response::Leases {
            grants: vec![LeaseGrant {
                lease: 4,
                key: key(),
                hash: "00ff00ff00ff00ff".into(),
                deadline_ms: 60_000,
            }],
        },
        Response::Wait { ms: 100 },
        Response::Done,
        Response::Accepted { lease: 5 },
        Response::Rejected {
            lease: 6,
            reason: "forged".into(),
        },
        Response::Bye,
    ];
    requests
        .iter()
        .map(frame_of)
        .chain(responses.iter().map(frame_of))
        .collect()
}

/// Well-formed JSON that is no message of either side: other wire and
/// store types, scalars, and objects naming no variant. (Messages of one
/// side are tried against the other in `frames_of_the_other_side_are_refused`.)
fn wrong_json() -> Vec<Vec<u8>> {
    [
        serde_json::to_string(&cell()).unwrap(),
        serde_json::to_string(&key()).unwrap(),
        serde_json::to_string(&StudyConfig::quick(1)).unwrap(),
        "null".into(),
        "true".into(),
        "-17".into(),
        "3.5e300".into(),
        "\"Goodbye\"".into(),
        "[]".into(),
        "[1, 2, 3]".into(),
        "{}".into(),
        r#"{"Lease": {"want": -1}}"#.into(),
        r#"{"Lease": {"want": "many"}}"#.into(),
        r#"{"Hello": {"version": 1}}"#.into(),
        r#"{"Hello": {"version": 1, "worker": "w"}, "Bye": null}"#.into(),
        r#"{"Submit": []}"#.into(),
        r#"{"Teleport": {"to": "mars"}}"#.into(),
    ]
    .into_iter()
    .map(String::into_bytes)
    .collect()
}

/// `depth` nested arrays (or objects) around `0`.
fn nested(depth: usize, arrays: bool) -> Vec<u8> {
    let (open, close) = if arrays {
        ("[", "]")
    } else {
        (r#"{"a":"#, "}")
    };
    format!("{}0{}", open.repeat(depth), close.repeat(depth)).into_bytes()
}

/// Byte streams a frame decoder must refuse, one strategy per kind.
fn hostile_frames() -> impl Strategy<Value = Vec<u8>> {
    let valid = valid_frames();
    let wrong = wrong_json();
    prop_oneof![
        // Random bytes, length prefix included.
        prop::collection::vec(any::<u8>(), 0..300),
        // Random payload bytes behind an honest length prefix.
        prop::collection::vec(any::<u8>(), 0..300).prop_map(|p| framed(&p)),
        // A length prefix beyond the data that follows it.
        (prop::collection::vec(any::<u8>(), 0..300), 1u32..100_000).prop_map(|(p, extra)| {
            let mut frame = (p.len() as u32 + extra).to_be_bytes().to_vec();
            frame.extend_from_slice(&p);
            frame
        }),
        // A length prefix above MAX_FRAME.
        (
            MAX_FRAME as u32 + 1..u32::MAX,
            prop::collection::vec(any::<u8>(), 0..64)
        )
            .prop_map(|(len, p)| {
                let mut frame = len.to_be_bytes().to_vec();
                frame.extend_from_slice(&p);
                frame
            }),
        // Nesting deeper than the parser's 128 levels.
        (129usize..4096, any::<bool>()).prop_map(|(depth, arrays)| framed(&nested(depth, arrays))),
        // A valid frame whose payload holds a byte that is not UTF-8.
        (0..valid.len(), any::<usize>(), 0u8..13).prop_map(move |(i, at, k)| {
            let mut frame = valid[i].clone();
            let at = 4 + at % (frame.len() - 4);
            // 0xc0, 0xc1 and 0xf5..=0xff appear nowhere in UTF-8.
            frame[at] = if k < 2 { 0xc0 + k } else { 0xf3 + k };
            frame
        }),
        // Well-formed JSON of the wrong type.
        (0..wrong.len()).prop_map(move |i| framed(&wrong[i])),
    ]
}

/// Whether `bytes` are refused as a frame by both sides of the wire.
fn refused(bytes: &[u8]) -> bool {
    read_frame::<Request>(&mut &bytes[..]).is_err()
        && read_frame::<Response>(&mut &bytes[..]).is_err()
}

fn temp_store(tag: &str) -> (PathBuf, ResultStore) {
    let dir = std::env::temp_dir().join(format!("softerr-malformed-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let store = ResultStore::open(&dir).expect("store");
    (dir, store)
}

const HASH: &str = "0123456789abcdef";

/// Writes `bytes` as the cell file of [`HASH`] and loads it: the load must
/// miss, and count either a quarantine (the file was read but is no valid
/// cell) or a read error (the file could not be read as text).
fn check_cell_file(store: &ResultStore, bytes: &[u8]) -> Result<(), TestCaseError> {
    let path = store.root().join("cells").join(format!("{HASH}.json"));
    std::fs::write(&path, bytes).expect("write cell file");
    let (misses, quarantined, read_errors) =
        (store.misses(), store.quarantined(), store.read_errors());
    prop_assert!(
        store.load(HASH, &key()).is_none(),
        "a hostile cell file was served"
    );
    prop_assert_eq!(store.misses(), misses + 1);
    prop_assert_eq!(
        (store.quarantined() - quarantined) + (store.read_errors() - read_errors),
        1
    );
    if store.quarantined() > quarantined {
        prop_assert!(!path.exists(), "a quarantined file stays in place");
    }
    std::fs::remove_file(&path).ok();
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn hostile_frames_are_refused(bytes in hostile_frames()) {
        prop_assert!(refused(&bytes), "accepted {} hostile bytes", bytes.len());
    }

    #[test]
    fn hostile_cell_files_miss_and_are_counted(bytes in hostile_frames()) {
        let (dir, store) = temp_store("prop");
        // The frame corpus as file bodies: with and without the prefix.
        check_cell_file(&store, &bytes)?;
        check_cell_file(&store, bytes.get(4..).unwrap_or(&[]))?;
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn every_truncation_of_a_valid_frame_is_refused() {
    for frame in valid_frames() {
        assert!(!refused(&frame), "the corpus frames are valid");
        for cut in 0..frame.len() {
            assert!(
                refused(&frame[..cut]),
                "a frame cut to {cut} of {} bytes was accepted",
                frame.len()
            );
        }
    }
}

#[test]
fn frames_of_the_other_side_are_refused() {
    // `Bye` is a message of both sides; every other variant belongs to one.
    let requests = valid_frames().into_iter().take(3);
    for frame in requests {
        assert!(read_frame::<Request>(&mut &frame[..]).is_ok());
        assert!(read_frame::<Response>(&mut &frame[..]).is_err());
    }
    for frame in valid_frames().into_iter().skip(4).take(7) {
        assert!(read_frame::<Response>(&mut &frame[..]).is_ok());
        assert!(read_frame::<Request>(&mut &frame[..]).is_err());
    }
}

#[test]
fn every_truncation_of_a_valid_cell_file_misses_and_is_quarantined() {
    let (dir, store) = temp_store("cut");
    store.save(HASH, &key(), &cell()).expect("save");
    let path = store.root().join("cells").join(format!("{HASH}.json"));
    let valid = std::fs::read(&path).expect("saved cell");
    assert_eq!(
        store.load(HASH, &key()),
        Some(cell()),
        "the saved cell loads"
    );
    for cut in 0..valid.len() {
        check_cell_file(&store, &valid[..cut]).unwrap_or_else(|e| panic!("cut {cut}: {e}"));
    }
    // Cell files are ASCII JSON, so every truncation is read and quarantined.
    assert_eq!(store.quarantined(), valid.len() as u64);
    assert_eq!(store.read_errors(), 0);
    std::fs::remove_dir_all(&dir).ok();
}
