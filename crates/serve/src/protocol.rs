//! The daemon's line protocol: requests in, replies out.
//!
//! One request per line, one reply per line, both JSON objects. The
//! request names an `op`; replies are `{"ok":true,...}` on success and
//! `{"ok":false,"error":CODE,"detail":MSG}` on failure, where `CODE` is
//! one of the stable [`ErrorCode`] strings clients dispatch on.
//!
//! Two plain-text escapes — `GET /health` and `GET /metrics` — answer
//! with the same JSON bodies so a curl or a load-balancer probe works
//! without speaking the protocol.

use std::borrow::Cow;
use std::fmt::Write as _;

use rsz_core::Config;
use rsz_offline::{Decoder, SnapshotError};
use rsz_online::Rung;

use crate::json::{self, Json, JsonRef};
use crate::spec::{GridSpec, TenantSpec};

/// Stable error codes. Clients retry on [`ErrorCode::Overloaded`],
/// surface [`ErrorCode::Quarantined`] with its detail, and treat the
/// rest as request bugs or tenant-fatal conditions.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ErrorCode {
    /// The line was not a well-formed request (attributed to no tenant).
    BadRequest,
    /// The named tenant is not registered.
    UnknownTenant,
    /// The request was well-formed but its payload is invalid for this
    /// tenant (non-finite load, load beyond fleet capacity, seq gap).
    Input,
    /// The tenant's controller failed (panic caught at the step
    /// boundary, solver error).
    Solver,
    /// The tenant's WAL and history log do not add up (see
    /// `QuarantineReason::WalCorrupt`).
    WalCorrupt,
    /// Admission control shed this request; retry with backoff.
    Overloaded,
    /// The tenant is quarantined; the detail carries the reason and the
    /// earliest retry time.
    Quarantined,
    /// This daemon is a replica (or mid-promotion) and does not accept
    /// writes; retry against the primary — or another peer, if the
    /// primary is what just died.
    NotPrimary,
}

impl ErrorCode {
    /// The wire string for this code.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorCode::BadRequest => "bad_request",
            ErrorCode::UnknownTenant => "unknown_tenant",
            ErrorCode::Input => "input",
            ErrorCode::Solver => "solver",
            ErrorCode::WalCorrupt => "wal_corrupt",
            ErrorCode::Overloaded => "overloaded",
            ErrorCode::Quarantined => "quarantined",
            ErrorCode::NotPrimary => "not_primary",
        }
    }

    /// Parse a wire string back into a code (client side).
    #[must_use]
    pub fn parse(s: &str) -> Option<Self> {
        Some(match s {
            "bad_request" => ErrorCode::BadRequest,
            "unknown_tenant" => ErrorCode::UnknownTenant,
            "input" => ErrorCode::Input,
            "solver" => ErrorCode::Solver,
            "wal_corrupt" => ErrorCode::WalCorrupt,
            "overloaded" => ErrorCode::Overloaded,
            "quarantined" => ErrorCode::Quarantined,
            "not_primary" => ErrorCode::NotPrimary,
            _ => return None,
        })
    }
}

/// A parsed request line. A tenant name borrows from the line unless it
/// was written with escapes.
#[derive(Clone, Debug, PartialEq)]
pub enum Request<'a> {
    /// Create (or idempotently re-attach to) a tenant.
    Register { tenant: Cow<'a, str>, spec: TenantSpec },
    /// One telemetry tick. A load that arrived malformed (JSON cannot
    /// carry NaN; clients send null/strings instead) parses to NaN here
    /// and fails load validation downstream — attributed to the tenant,
    /// as a poisoned trace should be.
    Tick { tenant: Cow<'a, str>, seq: u64, load: f64 },
    /// Legacy combined health probe (liveness + a tenant summary).
    Health,
    /// Pure liveness: is the process up and answering?
    Livez,
    /// Readiness: role, replication lag, quarantined tenants — what an
    /// external supervisor gates traffic and failover on.
    Readyz,
    /// Counter export.
    Metrics,
    /// Orderly daemon stop (stop admission, flush + fsync WALs, final
    /// snapshots, close listeners).
    Shutdown,
    /// Replication pull: a replica reports how many ticks it holds per
    /// tenant (`have`) and the primary answers with the WAL frames it
    /// is missing plus recent state fingerprints.
    ReplSync {
        /// The requesting replica's self-chosen identifier (logged and
        /// echoed, not interpreted).
        replica: String,
        /// `(tenant, accepted-tick count)` pairs the replica holds.
        have: Vec<(String, u64)>,
        /// Tenants the replica can never apply (quarantined there as
        /// diverged): the reply ships them no frames. Empty when the
        /// request has no `stuck` array.
        stuck: Vec<String>,
    },
}

/// Why a line failed to parse as a [`Request`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    /// Always a request-shape problem, never a tenant payload problem.
    pub detail: String,
}

/// Parse one request line. Accepts the JSON protocol plus the
/// `GET /health` / `GET /metrics` plain-text escapes. The line is read
/// as a borrowing [`JsonRef`] tree, so a tick allocates only that tree's
/// member list.
pub fn parse_request(line: &str) -> Result<Request<'_>, ParseError> {
    let line = line.trim();
    match line {
        "GET /health" | "GET /health HTTP/1.1" | "GET /health HTTP/1.0" => {
            return Ok(Request::Health)
        }
        "GET /livez" | "GET /livez HTTP/1.1" | "GET /livez HTTP/1.0" => return Ok(Request::Livez),
        "GET /readyz" | "GET /readyz HTTP/1.1" | "GET /readyz HTTP/1.0" => {
            return Ok(Request::Readyz)
        }
        "GET /metrics" | "GET /metrics HTTP/1.1" | "GET /metrics HTTP/1.0" => {
            return Ok(Request::Metrics)
        }
        _ => {}
    }
    let v = json::parse_borrowed(line)
        .map_err(|e| ParseError { detail: format!("not a JSON request: {e}") })?;
    let op = v
        .get("op")
        .and_then(JsonRef::as_str)
        .ok_or_else(|| ParseError { detail: "missing string field `op`".into() })?;
    match op {
        "register" => {
            let tenant = req_tenant(&v)?;
            let fleet = v
                .get("fleet")
                .and_then(JsonRef::as_str)
                .ok_or_else(|| ParseError { detail: "register needs a `fleet` string".into() })?
                .to_owned();
            let algo = v.get("algo").and_then(JsonRef::as_str).unwrap_or("b").to_owned();
            // `engine` and `cache` are retired solver flags: recorded
            // verbatim in the spec (WAL bytes and fingerprints stay
            // stable), ignored by `build_controller`.
            let engine = v.get("engine").and_then(JsonRef::as_bool).unwrap_or(true);
            let cache = v.get("cache").and_then(JsonRef::as_bool).unwrap_or(false);
            let grid = match v.get("grid").and_then(JsonRef::as_str) {
                None => GridSpec::Full,
                Some(s) => GridSpec::parse(s).map_err(|detail| ParseError { detail })?,
            };
            let deadline_us = match v.get("deadline_us") {
                None | Some(JsonRef::Null) => None,
                Some(d) => Some(d.as_u64().ok_or_else(|| ParseError {
                    detail: "`deadline_us` must be a non-negative integer".into(),
                })?),
            };
            let snapshot_every = match v.get("snapshot_every") {
                None | Some(JsonRef::Null) => 0,
                Some(d) => d.as_u64().ok_or_else(|| ParseError {
                    detail: "`snapshot_every` must be a non-negative integer".into(),
                })? as usize,
            };
            Ok(Request::Register {
                tenant,
                spec: TenantSpec { fleet, algo, engine, cache, grid, deadline_us, snapshot_every },
            })
        }
        "tick" => {
            let tenant = req_tenant(&v)?;
            let seq = v
                .get("seq")
                .and_then(JsonRef::as_u64)
                .ok_or_else(|| ParseError { detail: "tick needs an integer `seq`".into() })?;
            // A missing or non-numeric load is the tenant's data being
            // bad, not the request being unparseable: map it to NaN so
            // it flows through load validation and quarantines the
            // tenant instead of bouncing as bad_request.
            let load = v.get("load").and_then(JsonRef::as_f64).unwrap_or(f64::NAN);
            Ok(Request::Tick { tenant, seq, load })
        }
        "health" => Ok(Request::Health),
        "livez" => Ok(Request::Livez),
        "readyz" => Ok(Request::Readyz),
        "metrics" => Ok(Request::Metrics),
        "shutdown" => Ok(Request::Shutdown),
        "repl.sync" => {
            let replica = v
                .get("replica")
                .and_then(JsonRef::as_str)
                .ok_or_else(|| ParseError { detail: "repl.sync needs a `replica` string".into() })?
                .to_owned();
            let have = match v.get("have") {
                None | Some(JsonRef::Null) => Vec::new(),
                Some(JsonRef::Obj(fields)) => {
                    let mut have = Vec::with_capacity(fields.len());
                    for (tenant, count) in fields {
                        let n = count.as_u64().ok_or_else(|| ParseError {
                            detail: format!("repl.sync `have.{tenant}` must be an integer"),
                        })?;
                        have.push((tenant.to_string(), n));
                    }
                    have
                }
                Some(_) => {
                    return Err(ParseError { detail: "repl.sync `have` must be an object".into() })
                }
            };
            let stuck = match v.get("stuck") {
                None => Vec::new(),
                Some(JsonRef::Arr(items)) => items
                    .iter()
                    .map(|t| {
                        t.as_str().map(str::to_owned).ok_or_else(|| ParseError {
                            detail: "repl.sync `stuck` entries must be strings".into(),
                        })
                    })
                    .collect::<Result<_, _>>()?,
                Some(_) => {
                    return Err(ParseError { detail: "repl.sync `stuck` must be an array".into() })
                }
            };
            Ok(Request::ReplSync { replica, have, stuck })
        }
        other => Err(ParseError { detail: format!("unknown op `{other}`") }),
    }
}

fn req_tenant<'a>(v: &JsonRef<'a>) -> Result<Cow<'a, str>, ParseError> {
    let Some(JsonRef::Str(name)) = v.get("tenant") else {
        return Err(ParseError { detail: "missing string field `tenant`".into() });
    };
    if name.is_empty() || name.len() > 128 {
        return Err(ParseError { detail: "tenant name must be 1..=128 bytes".into() });
    }
    if !name.bytes().all(|b| b.is_ascii_alphanumeric() || b == b'-' || b == b'_' || b == b'.') {
        return Err(ParseError { detail: "tenant name may only contain [A-Za-z0-9._-]".into() });
    }
    Ok(name.clone())
}

/// `{"ok":false,"error":CODE,"detail":MSG}` as a reply line.
#[must_use]
pub fn error_line(code: ErrorCode, detail: &str) -> String {
    json::obj(vec![
        ("ok", Json::Bool(false)),
        ("error", json::s(code.as_str())),
        ("detail", json::s(detail)),
    ])
    .to_line()
}

/// The successful reply to a tick: the decided configuration, echoing
/// the sequence number, flagged when it replays an already-committed
/// decision, with the degradation rung that produced it —
/// `{"ok":true,"seq":7,"config":[2,1],"rung":"exact","replayed":false}`.
/// Written straight into one string sized for the longest such line;
/// the integers print as the owned [`Json`] tree would print them as
/// numbers (every `seq` a request can carry is at most `2^53`).
#[must_use]
pub fn decision_line(seq: u64, config: &Config, rung: Rung, replayed: bool) -> String {
    // The fixed text is 52 bytes; a `u64` takes at most 20 digits, a
    // rung 6 bytes, a `bool` 5, and each `u32` count 10 plus a comma.
    let counts = config.counts();
    let mut out = String::with_capacity(83 + 11 * counts.len());
    let _ = write!(out, r#"{{"ok":true,"seq":{seq},"config":["#);
    for (i, c) in counts.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{c}");
    }
    let _ = write!(out, r#"],"rung":"{}","replayed":{replayed}}}"#, rung_str(rung));
    out
}

/// Wire name of a degradation rung.
#[must_use]
pub fn rung_str(rung: Rung) -> &'static str {
    match rung {
        Rung::Exact => "exact",
        Rung::Coarse => "coarse",
        Rung::Hold => "hold",
    }
}

/// Shared codec helpers for serve payloads.
pub mod wire {
    use super::{Decoder, SnapshotError};

    /// Read a length-prefixed UTF-8 string; `bad` is the corruption
    /// message used when the bytes are not UTF-8.
    pub fn take_str(dec: &mut Decoder<'_>, bad: &'static str) -> Result<String, SnapshotError> {
        std::str::from_utf8(dec.take_bytes()?)
            .map(str::to_owned)
            .map_err(|_| SnapshotError::Corrupt(bad))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_parse_with_defaults() {
        let r = parse_request(r#"{"op":"register","tenant":"t1","fleet":"cpu-gpu:3,1"}"#).unwrap();
        match r {
            Request::Register { tenant, spec } => {
                assert_eq!(tenant, "t1");
                assert_eq!(spec.algo, "b");
                assert!(spec.engine);
                assert!(!spec.cache);
                assert_eq!(spec.grid, GridSpec::Full);
                assert_eq!(spec.deadline_us, None);
            }
            other => panic!("wrong request: {other:?}"),
        }
        let r = parse_request(r#"{"op":"tick","tenant":"t1","seq":7,"load":2.5}"#).unwrap();
        assert_eq!(r, Request::Tick { tenant: "t1".into(), seq: 7, load: 2.5 });
        assert_eq!(parse_request("GET /health").unwrap(), Request::Health);
        assert_eq!(parse_request("GET /metrics HTTP/1.1").unwrap(), Request::Metrics);
        assert_eq!(parse_request("GET /livez").unwrap(), Request::Livez);
        assert_eq!(parse_request("GET /readyz HTTP/1.0").unwrap(), Request::Readyz);
    }

    #[test]
    fn repl_sync_parses_and_rejects_malformed_have() {
        let r = parse_request(
            r#"{"op":"repl.sync","replica":"r1","have":{"t1":5,"t2":0},"stuck":["t2"]}"#,
        )
        .unwrap();
        match r {
            Request::ReplSync { replica, have, stuck } => {
                assert_eq!(replica, "r1");
                assert_eq!(have, vec![("t1".to_owned(), 5), ("t2".to_owned(), 0)]);
                assert_eq!(stuck, vec!["t2".to_owned()]);
            }
            other => panic!("wrong request: {other:?}"),
        }
        // `have` and `stuck` may be absent (a cold replica knows nothing
        // yet; an older one never sends `stuck`).
        let r = parse_request(r#"{"op":"repl.sync","replica":"r1"}"#).unwrap();
        assert!(
            matches!(r, Request::ReplSync { ref have, ref stuck, .. } if have.is_empty() && stuck.is_empty()),
            "{r:?}"
        );
        for bad in [
            r#"{"op":"repl.sync"}"#,
            r#"{"op":"repl.sync","replica":"r1","have":[1]}"#,
            r#"{"op":"repl.sync","replica":"r1","have":{"t":"x"}}"#,
            r#"{"op":"repl.sync","replica":"r1","stuck":"t"}"#,
            r#"{"op":"repl.sync","replica":"r1","stuck":{"t":1}}"#,
            r#"{"op":"repl.sync","replica":"r1","stuck":null}"#,
            r#"{"op":"repl.sync","replica":"r1","stuck":["t",2]}"#,
        ] {
            assert!(parse_request(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn malformed_lines_are_bad_requests_not_panics() {
        for line in [
            "",
            "{",
            "null",
            "[1,2]",
            r#"{"op":"warp"}"#,
            r#"{"op":"tick"}"#,
            r#"{"op":"tick","tenant":"t"}"#,
            r#"{"op":"tick","tenant":"","seq":0}"#,
            r#"{"op":"tick","tenant":"a b","seq":0}"#,
            r#"{"op":"register","tenant":"t"}"#,
            r#"{"op":"register","tenant":"t","fleet":"x","grid":"mesh"}"#,
            r#"{"op":"register","tenant":"t","fleet":"x","deadline_us":-3}"#,
        ] {
            assert!(parse_request(line).is_err(), "{line:?} should be rejected");
        }
    }

    /// The rejection tests' malformed lines, each with the detail the
    /// reply carries: reading through the borrowing tree changed none.
    #[test]
    fn malformed_lines_keep_their_error_details() {
        for (line, detail) in [
            ("", "not a JSON request: expected a value at byte 0"),
            ("{", "not a JSON request: expected '\"' at byte 1"),
            ("null", "missing string field `op`"),
            ("[1,2]", "missing string field `op`"),
            (r#"{"op":"warp"}"#, "unknown op `warp`"),
            (r#"{"op":"tick"}"#, "missing string field `tenant`"),
            (r#"{"op":"tick","tenant":"t"}"#, "tick needs an integer `seq`"),
            (r#"{"op":"tick","tenant":"","seq":0}"#, "tenant name must be 1..=128 bytes"),
            (
                r#"{"op":"tick","tenant":"a b","seq":0}"#,
                "tenant name may only contain [A-Za-z0-9._-]",
            ),
            (r#"{"op":"register","tenant":"t"}"#, "register needs a `fleet` string"),
            (
                r#"{"op":"register","tenant":"t","fleet":"x","grid":"mesh"}"#,
                "unknown grid `mesh` (expected `full` or `gamma:G`)",
            ),
            (
                r#"{"op":"register","tenant":"t","fleet":"x","deadline_us":-3}"#,
                "`deadline_us` must be a non-negative integer",
            ),
            (r#"{"op":"repl.sync"}"#, "repl.sync needs a `replica` string"),
            (
                r#"{"op":"repl.sync","replica":"r1","have":[1]}"#,
                "repl.sync `have` must be an object",
            ),
            (
                r#"{"op":"repl.sync","replica":"r1","have":{"t":"x"}}"#,
                "repl.sync `have.t` must be an integer",
            ),
            (
                r#"{"op":"repl.sync","replica":"r1","stuck":"t"}"#,
                "repl.sync `stuck` must be an array",
            ),
            (
                r#"{"op":"repl.sync","replica":"r1","stuck":{"t":1}}"#,
                "repl.sync `stuck` must be an array",
            ),
            (
                r#"{"op":"repl.sync","replica":"r1","stuck":null}"#,
                "repl.sync `stuck` must be an array",
            ),
            (
                r#"{"op":"repl.sync","replica":"r1","stuck":["t",2]}"#,
                "repl.sync `stuck` entries must be strings",
            ),
        ] {
            assert_eq!(parse_request(line).unwrap_err().detail, detail, "{line:?}");
        }
    }

    #[test]
    fn poisoned_loads_become_nan_ticks_not_bad_requests() {
        for line in [
            r#"{"op":"tick","tenant":"t","seq":0,"load":null}"#,
            r#"{"op":"tick","tenant":"t","seq":0,"load":"NaN"}"#,
            r#"{"op":"tick","tenant":"t","seq":0}"#,
        ] {
            match parse_request(line).unwrap() {
                Request::Tick { load, .. } => assert!(load.is_nan(), "{line}"),
                other => panic!("wrong request: {other:?}"),
            }
        }
        // JSON can spell infinity as an overflow literal; it parses and
        // then fails load validation downstream.
        match parse_request(r#"{"op":"tick","tenant":"t","seq":0,"load":1e999}"#).unwrap() {
            Request::Tick { load, .. } => assert!(load.is_infinite()),
            other => panic!("wrong request: {other:?}"),
        }
    }

    #[test]
    fn error_codes_round_trip() {
        for code in [
            ErrorCode::BadRequest,
            ErrorCode::UnknownTenant,
            ErrorCode::Input,
            ErrorCode::Solver,
            ErrorCode::WalCorrupt,
            ErrorCode::Overloaded,
            ErrorCode::Quarantined,
            ErrorCode::NotPrimary,
        ] {
            assert_eq!(ErrorCode::parse(code.as_str()), Some(code));
        }
        assert_eq!(ErrorCode::parse("teapot"), None);
        let line = error_line(ErrorCode::Overloaded, "queue full");
        let v = crate::json::parse(&line).unwrap();
        assert_eq!(v.get("ok").and_then(Json::as_bool), Some(false));
        assert_eq!(v.get("error").and_then(Json::as_str), Some("overloaded"));
    }
}
