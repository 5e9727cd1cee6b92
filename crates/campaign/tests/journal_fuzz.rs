//! Property tests of torn-tail replay: however a log of framed records is
//! cut or corrupted, `replay_bytes` returns a prefix of the records that
//! were written — never a panic, never a record that was not written.

use proptest::prelude::*;
use sfi_campaign::journal::{frame, replay_bytes};
use sfi_campaign::json::Json;

/// A record like the ones the logs carry: numbers, decimal-string ids,
/// flags, escaped and non-ASCII text, nested arrays, of varied length.
fn record() -> impl Strategy<Value = Json> {
    (
        0u32..100_000,
        any::<u64>(),
        any::<bool>(),
        prop::sample::select(vec!["", "cell", "a \"quoted\" \\ line\n", "ü∑€", "{[,]}"]),
        0usize..48,
        prop::collection::vec(0u32..1000, 0..6),
    )
        .prop_map(|(n, id, flag, text, pad, values)| {
            Json::obj([
                ("cell", Json::Num(n as f64)),
                ("job", Json::Str(id.to_string())),
                ("stopped_early", Json::Bool(flag)),
                ("text", Json::Str(format!("{text}{}", "x".repeat(pad)))),
                (
                    "trials",
                    Json::Arr(values.into_iter().map(|v| Json::Num(v as f64)).collect()),
                ),
            ])
        })
}

/// The framed log of `records` and the end offset of every frame.
fn framed(records: &[Json]) -> (Vec<u8>, Vec<usize>) {
    let mut bytes = Vec::new();
    let mut ends = Vec::new();
    for record in records {
        bytes.extend_from_slice(&frame(record));
        ends.push(bytes.len());
    }
    (bytes, ends)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn a_cut_at_any_offset_replays_exactly_the_whole_records_before_it(
        records in prop::collection::vec(record(), 0..8),
    ) {
        let (bytes, ends) = framed(&records);
        for cut in 0..=bytes.len() {
            let (replayed, warning) = replay_bytes(&bytes[..cut]);
            let whole = ends.iter().filter(|&&end| end <= cut).count();
            prop_assert_eq!(&replayed[..], &records[..whole], "cut at {}", cut);
            let at_boundary = cut == 0 || ends.contains(&cut);
            prop_assert_eq!(warning.is_none(), at_boundary, "cut at {}", cut);
        }
    }

    #[test]
    fn a_flipped_byte_anywhere_keeps_only_the_records_before_it(
        records in prop::collection::vec(record(), 1..8),
        mask in 1u8..255,
    ) {
        let (bytes, ends) = framed(&records);
        for at in 0..bytes.len() {
            let mut corrupt = bytes.clone();
            corrupt[at] ^= mask;
            let (replayed, warning) = replay_bytes(&corrupt);
            let intact = ends.iter().filter(|&&end| end <= at).count();
            prop_assert_eq!(&replayed[..], &records[..intact], "flip at {}", at);
            prop_assert!(warning.is_some(), "flip at {} goes unreported", at);
        }
    }
}
