//! Never-panic properties for the parsers that read input from outside the
//! process: the server's request line, a campaign checkpoint being resumed,
//! and the vendored JSON parser under both. Each must turn any string or
//! byte sequence into a value or an error, never a panic or a crash.

use std::path::PathBuf;

use proptest::prelude::*;
use serde::Value;
use swifi_campaign::{CampaignEngine, CampaignOptions, CheckpointHeader, RunRecord, RunStatus};
use swifi_server::protocol::{parse_request, render_request, CampaignRequest, Driver, Request};

/// Fragments that steer random text towards the parsers' interesting
/// paths: JSON punctuation, escapes, literals, numbers and the protocol's
/// field names.
const PIECES: &[&str] = &[
    "{",
    "}",
    "[",
    "]",
    "\"",
    ":",
    ",",
    " ",
    "\n",
    "\\",
    "\\u",
    "\\ud83d",
    "\\ude00",
    "d800",
    "null",
    "true",
    "false",
    "-",
    "0",
    "1",
    "9",
    "e",
    "E",
    ".",
    "+",
    "18446744073709551616",
    "-9223372036854775809",
    "1e999",
    "\"type\"",
    "\"submit\"",
    "\"ping\"",
    "\"driver\"",
    "\"class\"",
    "\"shards\"",
    "\"inputs\"",
    "\"pool\"",
    "\"seed\"",
    "\"phase\"",
    "\"index\"",
    "\"status\"",
    "\"Ok\"",
    "\"Abnormal\"",
    "é",
    "😀",
    "\u{0}",
];

/// Random text: a mix of `PIECES` and arbitrary characters.
fn arb_text() -> impl Strategy<Value = String> {
    proptest::collection::vec((0usize..PIECES.len() + 8, any::<char>()), 0..64).prop_map(|parts| {
        parts
            .into_iter()
            .map(|(k, c)| {
                PIECES
                    .get(k)
                    .map_or_else(|| c.to_string(), |p| p.to_string())
            })
            .collect()
    })
}

/// Damage `text`: overwrite bytes, splice in junk, then truncate. The
/// result need not be UTF-8.
fn garble(text: &str, flips: &[(usize, u8)], junk: &[u8], junk_at: usize, cut: usize) -> Vec<u8> {
    let mut bytes = text.as_bytes().to_vec();
    if !bytes.is_empty() {
        for &(at, b) in flips {
            let n = bytes.len();
            bytes[at % n] = b;
        }
    }
    let at = junk_at % (bytes.len() + 1);
    bytes.splice(at..at, junk.iter().copied());
    bytes.truncate(cut % (bytes.len() + 1));
    bytes
}

fn valid_submit(seed: u64, shards: u64, inputs: usize) -> Request {
    Request::Submit(CampaignRequest {
        driver: Driver::Class,
        target: "JB.team11".to_string(),
        seed,
        inputs,
        mutants: 4,
        shards,
        pool: 2,
        want_trace: false,
        want_metrics: true,
    })
}

fn temp_path(tag: &str) -> PathBuf {
    static NEXT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "swifi-hostile-{tag}-{}-{n}.jsonl",
        std::process::id()
    ))
}

/// A well-formed checkpoint of the `p` phase: header plus three records.
fn valid_checkpoint(header: &CheckpointHeader) -> String {
    let mut text = serde_json::to_string(header).unwrap() + "\n";
    for index in 0..3u64 {
        let status = if index == 1 {
            RunStatus::Abnormal {
                message: "boom".to_string(),
                detail: "item 1".to_string(),
            }
        } else {
            RunStatus::Ok(index * 10)
        };
        let record = RunRecord {
            phase: "p".to_string(),
            index,
            elapsed_micros: 5,
            status,
        };
        text += &(serde_json::to_string(&record).unwrap() + "\n");
    }
    text
}

/// Nesting far deeper than any legitimate document: the parser must
/// refuse it with an error instead of overflowing the stack.
#[test]
fn deeply_nested_json_is_an_error() {
    for open in ["[", "{\"a\":"] {
        let text = open.repeat(200_000);
        assert!(serde_json::from_str::<Value>(&text).is_err(), "{open}");
        assert!(parse_request(&text).is_err(), "{open}");
    }
    let nested = "[".repeat(64) + &"]".repeat(64);
    assert!(serde_json::from_str::<Value>(&nested).is_ok());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The vendored JSON parser never panics, on text or on lossily
    /// decoded bytes, and whatever it accepts renders to text that parses
    /// and renders back to the same text.
    #[test]
    fn json_parser_never_panics(
        text in arb_text(),
        bytes in proptest::collection::vec(any::<u8>(), 0..64),
    ) {
        for input in [text, String::from_utf8_lossy(&bytes).into_owned()] {
            if let Ok(v) = serde_json::from_str::<Value>(&input) {
                let text = serde_json::to_string(&v).unwrap();
                let again = serde_json::from_str::<Value>(&text).unwrap();
                prop_assert_eq!(serde_json::to_string(&again).unwrap(), text);
            }
        }
    }

    /// `parse_request` answers every line with a request or an error, and
    /// an accepted submission respects the server's limits.
    #[test]
    fn request_parser_never_panics(
        text in arb_text(),
        seed in any::<u64>(),
        shards in 1u64..=1024,
        inputs in 1usize..=30_000,
        flips in proptest::collection::vec((any::<usize>(), any::<u8>()), 0..4),
        junk in arb_text(),
        junk_at in any::<usize>(),
        cut in any::<usize>(),
    ) {
        let valid = valid_submit(seed, shards, inputs);
        let line = render_request(&valid);
        prop_assert_eq!(parse_request(&line), Ok(valid));
        let damaged = garble(&line, &flips, junk.as_bytes(), junk_at, cut);
        for input in [text, String::from_utf8_lossy(&damaged).into_owned()] {
            if let Ok(Request::Submit(req)) = parse_request(&input) {
                prop_assert!((1..=1024).contains(&req.shards), "shards {}", req.shards);
                prop_assert!((1..=30_000).contains(&req.inputs), "inputs {}", req.inputs);
            }
        }
    }
}

proptest! {
    // Each case writes a file and may start a worker pool.
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Resuming a campaign from a garbled or truncated checkpoint either
    /// refuses it or replays and reruns every item; it never panics.
    #[test]
    fn checkpoint_resume_never_panics(
        flips in proptest::collection::vec((any::<usize>(), any::<u8>()), 0..4),
        junk in proptest::collection::vec(any::<u8>(), 0..24),
        junk_at in any::<usize>(),
        cut in any::<usize>(),
        text_junk in arb_text(),
    ) {
        let header = CheckpointHeader::new("section6:JB.team11", 7, 3);
        let file = valid_checkpoint(&header);
        let junk = if junk_at % 2 == 0 { junk } else { text_junk.into_bytes() };
        let damaged = garble(&file, &flips, &junk, junk_at, cut);
        let path = temp_path("resume");
        std::fs::write(&path, &damaged).unwrap();
        let opts = CampaignOptions::with_checkpoint(&path, true);
        if let Ok(mut engine) = CampaignEngine::new(header, &opts) {
            let items = [0u64, 1, 2, 3];
            let phase = engine.run_phase(
                "p",
                &items,
                || (),
                |_, _, x| x * 10,
                |i, _| format!("item {i}"),
            );
            if let Ok((records, _)) = phase {
                prop_assert_eq!(records.len(), items.len());
            }
        }
        let _ = std::fs::remove_file(&path);
    }
}
