//! Doc-sync test for `docs/PROTOCOL.md`.
//!
//! The protocol document is frozen v1 reference material, so it must not
//! drift from the implementation.  This test extracts every JSON example
//! from the document — each `{...}` line inside a fenced ```json block,
//! plus every `→` (client) and `←` (server) line of the transcript — and
//! round-trips it through the real wire types: the example must decode
//! (as a [`Request`] or [`Response`]) and re-encode to exactly the same
//! JSON value.  It also checks *coverage*: every request type, every
//! response type and every error code the implementation knows must
//! appear among the document's examples.

use sfi_core::json::Json;
use sfi_serve::protocol::{Request, Response};
use sfi_serve::wire::CampaignDef;
use std::path::PathBuf;

fn protocol_doc() -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../docs/PROTOCOL.md");
    std::fs::read_to_string(&path)
        .unwrap_or_else(|err| panic!("cannot read {}: {err}", path.display()))
}

/// One extracted example and where it may appear.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Direction {
    /// From a ```json block: either side of the conversation.
    Either,
    /// A transcript `→` line: must be a client request.
    ClientToServer,
    /// A transcript `←` line: must be a server response.
    ServerToClient,
}

fn extract_examples(doc: &str) -> Vec<(usize, Direction, String)> {
    let mut examples = Vec::new();
    let mut in_json_block = false;
    for (number, line) in doc.lines().enumerate() {
        let line_no = number + 1;
        let trimmed = line.trim();
        if trimmed.starts_with("```") {
            in_json_block = trimmed == "```json";
            continue;
        }
        if in_json_block && trimmed.starts_with('{') {
            examples.push((line_no, Direction::Either, trimmed.to_string()));
        } else if let Some(rest) = trimmed.strip_prefix('→') {
            examples.push((line_no, Direction::ClientToServer, rest.trim().to_string()));
        } else if let Some(rest) = trimmed.strip_prefix('←') {
            examples.push((line_no, Direction::ServerToClient, rest.trim().to_string()));
        }
    }
    examples
}

/// Decodes `doc` as a request and checks the re-encoding is identical;
/// returns the request's wire type name on success.
fn round_trips_as_request(doc: &Json) -> Option<&'static str> {
    let request = Request::from_json(doc).ok()?;
    (request.to_json() == *doc).then_some(match request {
        Request::Ping => "ping",
        Request::Submit(_) => "submit",
        Request::Status(_) => "status",
        Request::Stream(_) => "stream",
        Request::Result(_) => "result",
        Request::Poff(_) => "poff",
        Request::Metrics => "metrics",
        Request::Events { .. } => "events",
        Request::Trace { .. } => "trace",
        Request::Cancel(_) => "cancel",
        Request::Drain => "drain",
        Request::Shutdown => "shutdown",
    })
}

/// Decodes `doc` as a response and checks the re-encoding is identical;
/// returns `(wire type name, error code)` on success.
fn round_trips_as_response(doc: &Json) -> Option<(&'static str, Option<&'static str>)> {
    let response = Response::from_json(doc).ok()?;
    (response.to_json() == *doc).then(|| match response {
        Response::Pong(_) => ("pong", None),
        Response::Submitted { .. } => ("submitted", None),
        Response::Status(_) => ("status", None),
        Response::Cell { .. } => ("cell", None),
        Response::End { .. } => ("end", None),
        Response::ResultDoc { .. } => ("result", None),
        Response::Poff(_) => ("poff", None),
        Response::Metrics { .. } => ("metrics", None),
        Response::Events { .. } => ("events", None),
        Response::Trace { .. } => ("trace", None),
        Response::Cancelled { .. } => ("cancelled", None),
        Response::DrainStarted { .. } => ("drain_started", None),
        Response::Bye => ("bye", None),
        Response::Error { code, .. } => ("error", Some(code.as_str())),
    })
}

#[test]
fn every_json_example_in_the_protocol_doc_round_trips_through_the_wire_types() {
    let doc = protocol_doc();
    let examples = extract_examples(&doc);
    assert!(
        examples.len() >= 25,
        "the protocol document should carry a rich example set, found {}",
        examples.len()
    );

    let mut request_kinds = Vec::new();
    let mut response_kinds = Vec::new();
    let mut error_codes = Vec::new();
    for (line_no, direction, text) in &examples {
        let parsed = Json::parse(text).unwrap_or_else(|err| {
            panic!("docs/PROTOCOL.md:{line_no}: example is not valid JSON ({err}): {text}")
        });
        let as_request = round_trips_as_request(&parsed);
        let as_response = round_trips_as_response(&parsed);
        match direction {
            Direction::ClientToServer => {
                let kind = as_request.unwrap_or_else(|| {
                    panic!(
                        "docs/PROTOCOL.md:{line_no}: → example must round-trip as a \
                         Request: {text}"
                    )
                });
                request_kinds.push(kind);
            }
            Direction::ServerToClient => {
                let (kind, code) = as_response.unwrap_or_else(|| {
                    panic!(
                        "docs/PROTOCOL.md:{line_no}: ← example must round-trip as a \
                         Response: {text}"
                    )
                });
                response_kinds.push(kind);
                error_codes.extend(code);
            }
            Direction::Either => {
                match (as_request, as_response) {
                    (Some(kind), _) => request_kinds.push(kind),
                    (None, Some((kind, code))) => {
                        response_kinds.push(kind);
                        error_codes.extend(code);
                    }
                    // A frame always carries "type"; an object without it
                    // is a bare campaign definition (the `spec` payload),
                    // which must round-trip through the wire codec too.
                    (None, None) if parsed.get("type").is_none() => {
                        let def = CampaignDef::from_json(&parsed).unwrap_or_else(|err| {
                            panic!(
                                "docs/PROTOCOL.md:{line_no}: bare example must decode \
                                 as a campaign definition ({err}): {text}"
                            )
                        });
                        assert_eq!(
                            def.to_json(),
                            parsed,
                            "docs/PROTOCOL.md:{line_no}: campaign definition must \
                             re-encode identically"
                        );
                        def.instantiate().unwrap_or_else(|err| {
                            panic!(
                                "docs/PROTOCOL.md:{line_no}: documented campaign must \
                                 instantiate ({err})"
                            )
                        });
                    }
                    (None, None) => panic!(
                        "docs/PROTOCOL.md:{line_no}: example round-trips as neither a \
                         Request nor a Response: {text}"
                    ),
                }
            }
        }
    }

    // Coverage: the document must exercise the complete vocabulary.
    for kind in [
        "ping", "submit", "status", "stream", "result", "poff", "metrics", "events", "trace",
        "cancel", "drain", "shutdown",
    ] {
        assert!(
            request_kinds.contains(&kind),
            "docs/PROTOCOL.md carries no example of the '{kind}' request"
        );
    }
    for kind in [
        "pong",
        "submitted",
        "status",
        "cell",
        "end",
        "result",
        "poff",
        "metrics",
        "events",
        "trace",
        "cancelled",
        "drain_started",
        "bye",
        "error",
    ] {
        assert!(
            response_kinds.contains(&kind),
            "docs/PROTOCOL.md carries no example of the '{kind}' response"
        );
    }
    for code in [
        "bad_request",
        "unknown_job",
        "quota_exceeded",
        "result_evicted",
        "no_result",
        "result_too_large",
        "shutting_down",
        "draining",
    ] {
        assert!(
            error_codes.contains(&code),
            "docs/PROTOCOL.md carries no error example with code '{code}'"
        );
    }
}

#[test]
fn the_documented_limits_match_the_implementation() {
    let doc = protocol_doc();
    // The limits table quotes the implementation constants; if one moves,
    // the document must move with it.
    for (name, value) in [
        ("max frame bytes", sfi_serve::protocol::MAX_FRAME_BYTES),
        ("max cells", sfi_serve::wire::MAX_CELLS),
        ("max benchmarks", sfi_serve::wire::MAX_BENCHMARKS),
        ("max trials per cell", sfi_serve::wire::MAX_TRIALS_PER_CELL),
        ("max trials per job", sfi_serve::wire::MAX_JOB_TRIALS),
        ("max client id bytes", sfi_serve::wire::MAX_CLIENT_ID_BYTES),
        ("max program words", sfi_serve::wire::MAX_PROGRAM_WORDS),
        (
            "max guest dmem words",
            sfi_serve::wire::MAX_GUEST_DMEM_WORDS,
        ),
    ] {
        // Accept the thousands-separated spelling used in prose tables.
        let plain = value.to_string();
        let spaced = plain
            .as_bytes()
            .rchunks(3)
            .rev()
            .map(|chunk| std::str::from_utf8(chunk).unwrap())
            .collect::<Vec<_>>()
            .join(" ");
        assert!(
            doc.contains(&plain) || doc.contains(&spaced),
            "docs/PROTOCOL.md must quote the current value of {name} ({plain})"
        );
    }
}
