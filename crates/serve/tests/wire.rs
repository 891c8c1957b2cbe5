//! The tick's wire path against references built on the owned JSON tree.
//!
//! `parse_request` reads a line through the borrowing `JsonRef` tree and
//! `decision_line` writes its reply straight into one string. Both are
//! checked here against test-local references that go through the owned
//! `Json` instead (`json::parse` to read, `json::obj` to write), on
//! tick, register and `repl.sync` lines with escaped strings and
//! duplicate keys, and on every reply shape a tick can produce.

use std::borrow::Cow;

use proptest::prelude::*;
use rsz_core::Config;
use rsz_online::Rung;
use rsz_serve::json::{self, Json};
use rsz_serve::protocol::{decision_line, parse_request, rung_str};
use rsz_serve::{GridSpec, Request, TenantSpec};

/// A tick reply as the owned tree renders it.
fn reference_reply(seq: u64, counts: &[u32], rung: Rung, replayed: bool) -> String {
    json::obj(vec![
        ("ok", Json::Bool(true)),
        ("seq", json::n(seq as f64)),
        ("config", Json::Arr(counts.iter().map(|&c| json::n(f64::from(c))).collect())),
        ("rung", json::s(rung_str(rung))),
        ("replayed", Json::Bool(replayed)),
    ])
    .to_line()
}

/// A well-formed tick, register or `repl.sync` line's request, read off
/// the owned tree (the last of duplicate keys winning, as `Json::get`
/// reads it).
fn reference_request(line: &str) -> Request<'static> {
    let v = json::parse(line).expect("a generated line is JSON");
    let text = |key: &str| v.get(key).and_then(Json::as_str).map(str::to_owned);
    let int = |key: &str| v.get(key).and_then(Json::as_u64);
    let tenant = || Cow::Owned(text("tenant").expect("a tenant"));
    match text("op").as_deref() {
        Some("tick") => Request::Tick {
            tenant: tenant(),
            seq: int("seq").expect("a seq"),
            load: v.get("load").and_then(Json::as_f64).expect("a finite load"),
        },
        Some("register") => Request::Register {
            tenant: tenant(),
            spec: TenantSpec {
                fleet: text("fleet").expect("a fleet"),
                algo: text("algo").unwrap_or_else(|| "b".into()),
                engine: v.get("engine").and_then(Json::as_bool).unwrap_or(true),
                cache: v.get("cache").and_then(Json::as_bool).unwrap_or(false),
                grid: text("grid").map_or(GridSpec::Full, |g| GridSpec::parse(&g).unwrap()),
                deadline_us: int("deadline_us"),
                snapshot_every: int("snapshot_every").map_or(0, |n| n as usize),
            },
        },
        Some("repl.sync") => Request::ReplSync {
            replica: text("replica").expect("a replica"),
            have: match v.get("have") {
                Some(Json::Obj(members)) => {
                    members.iter().map(|(k, n)| (k.clone(), n.as_u64().unwrap())).collect()
                }
                _ => Vec::new(),
            },
            stuck: match v.get("stuck") {
                Some(Json::Arr(items)) => {
                    items.iter().map(|t| t.as_str().unwrap().to_owned()).collect()
                }
                _ => Vec::new(),
            },
        },
        other => panic!("not a generated op: {other:?}"),
    }
}

/// `s` as a JSON string literal, escaping character `i` as `\uXXXX`
/// (a surrogate pair beyond the BMP) when `escape[i % len]` is set, and
/// always where JSON requires it.
fn quote(s: &str, escape: &[bool]) -> String {
    let mut out = String::from('"');
    for (i, c) in s.chars().enumerate() {
        let chosen = !escape.is_empty() && escape[i % escape.len()];
        match c {
            '"' if !chosen => out.push_str("\\\""),
            '\\' if !chosen => out.push_str("\\\\"),
            '\n' if !chosen => out.push_str("\\n"),
            c if chosen || (c as u32) < 0x20 => {
                let mut units = [0u16; 2];
                for unit in c.encode_utf16(&mut units) {
                    out.push_str(&format!("\\u{unit:04X}"));
                }
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Characters a tenant name may hold.
const NAME: &[u8] = b"ABCxyz0189._-";
/// Characters of free-form strings (fleet, replica): every escape JSON
/// has, multi-byte text, and plain bytes.
const FREE: [char; 14] =
    ['a', 'Z', ':', ',', '"', '\\', '/', '\n', '\t', '\u{1}', 'é', '→', '😀', ' '];

fn name() -> impl Strategy<Value = String> {
    prop::collection::vec(0..NAME.len(), 1..=12)
        .prop_map(|ix| ix.into_iter().map(|i| char::from(NAME[i])).collect())
}

fn free_text() -> impl Strategy<Value = String> {
    prop::collection::vec(0..FREE.len(), 0..=16)
        .prop_map(|ix| ix.into_iter().map(|i| FREE[i]).collect())
}

fn escapes() -> impl Strategy<Value = Vec<bool>> {
    prop::collection::vec((0u8..4).prop_map(|b| b == 0), 0..=6)
}

/// One object member: its key, and the raw JSON text of its value.
type Member = (String, String);

/// The object `{...}` of `members` (placed in the order of `rank`),
/// each key written with `escape`d characters, after decoy members that
/// repeat some keys with other values: the real ones come later, so
/// they win.
fn object(members: &[Member], rank: &[u32], decoys: &[(usize, usize)], escape: &[bool]) -> String {
    const DECOYS: [&str; 5] = ["null", "\"x\"", "-1", "[1]", "{\"k\":2}"];
    let mut order: Vec<usize> = (0..members.len()).collect();
    order.sort_by_key(|&i| rank.get(i).copied().unwrap_or(0));
    let decoys = decoys.iter().map(|&(m, d)| (members[m % members.len()].0.clone(), DECOYS[d]));
    let fields: Vec<String> = decoys
        .map(|(k, v)| format!("{}:{v}", quote(&k, escape)))
        .chain(order.iter().map(|&i| format!("{}:{}", quote(&members[i].0, escape), members[i].1)))
        .collect();
    format!("{{{}}}", fields.join(","))
}

fn decoys() -> impl Strategy<Value = Vec<(usize, usize)>> {
    prop::collection::vec((0usize..16, 0usize..5), 0..=3)
}

fn ranks() -> impl Strategy<Value = Vec<u32>> {
    prop::collection::vec(0u32..100, 10)
}

#[test]
fn a_decision_line_is_pinned_byte_for_byte() {
    assert_eq!(
        decision_line(7, &Config::new(vec![2, 1]), Rung::Exact, false),
        r#"{"ok":true,"seq":7,"config":[2,1],"rung":"exact","replayed":false}"#
    );
    assert_eq!(
        decision_line(1 << 53, &Config::new(vec![0, 4_294_967_295, 3]), Rung::Coarse, true),
        r#"{"ok":true,"seq":9007199254740992,"config":[0,4294967295,3],"rung":"coarse","replayed":true}"#
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Every reply a tick can produce, byte for byte.
    #[test]
    fn decision_lines_match_the_owned_rendering(
        seq in 0u64..=(1 << 53),
        counts in prop::collection::vec(prop_oneof![0u32..=16, 0u32..=u32::MAX], 1..=4),
        rung in 0usize..3,
        replayed in 0u8..2,
    ) {
        let rung = [Rung::Exact, Rung::Coarse, Rung::Hold][rung];
        let replayed = replayed == 1;
        prop_assert_eq!(
            decision_line(seq, &Config::new(counts.clone()), rung, replayed),
            reference_reply(seq, &counts, rung, replayed)
        );
    }

    #[test]
    fn tick_lines_parse_as_the_owned_tree_reads_them(
        tenant in name(),
        seq in 0u64..=(1 << 53),
        load in prop_oneof![0.0..8.0_f64, 0.0..1e9_f64],
        shape in (ranks(), decoys(), escapes(), escapes()),
    ) {
        let (rank, decoy, key_escape, name_escape) = shape;
        let members = [
            ("op".to_owned(), "\"tick\"".to_owned()),
            ("tenant".to_owned(), quote(&tenant, &name_escape)),
            ("seq".to_owned(), seq.to_string()),
            ("load".to_owned(), format!("{load}")),
        ];
        let line = object(&members, &rank, &decoy, &key_escape);
        prop_assert_eq!(parse_request(&line), Ok(reference_request(&line)));
    }

    #[test]
    fn register_lines_parse_as_the_owned_tree_reads_them(
        tenant in name(),
        fleet in free_text(),
        options in (0usize..5, 0u8..3, 0u8..3, 0usize..3, 0u64..5000, 0u64..64),
        present in prop::collection::vec(0u8..2, 6),
        shape in (ranks(), decoys(), escapes(), escapes()),
    ) {
        let (rank, decoy, key_escape, text_escape) = shape;
        let (algo, engine, cache, grid, deadline, every) = options;
        let mut members = vec![
            ("op".to_owned(), "\"register\"".to_owned()),
            ("tenant".to_owned(), quote(&tenant, &text_escape)),
            ("fleet".to_owned(), quote(&fleet, &text_escape)),
        ];
        let bools = ["true", "false", "null"];
        let optional = [
            ("algo", quote(["a", "b", "c:0.5", "lcp", "rhc:4"][algo], &text_escape)),
            ("engine", bools[usize::from(engine)].to_owned()),
            ("cache", bools[usize::from(cache)].to_owned()),
            ("grid", quote(["full", "gamma:1.5", "gamma:2"][grid], &text_escape)),
            ("deadline_us", if deadline % 7 == 0 { "null".into() } else { deadline.to_string() }),
            ("snapshot_every", if every % 5 == 0 { "null".into() } else { every.to_string() }),
        ];
        for ((key, value), on) in optional.into_iter().zip(&present) {
            if *on == 1 {
                members.push((key.to_owned(), value));
            }
        }
        let line = object(&members, &rank, &decoy, &key_escape);
        prop_assert_eq!(parse_request(&line), Ok(reference_request(&line)));
    }

    #[test]
    fn repl_sync_lines_parse_as_the_owned_tree_reads_them(
        replica in free_text(),
        have in prop::collection::vec((name(), 0u64..=(1 << 53)), 0..=4),
        stuck in prop::collection::vec(name(), 0..=3),
        present in (0u8..2, 0u8..2),
        shape in (ranks(), decoys(), escapes(), escapes()),
    ) {
        let (rank, decoy, key_escape, text_escape) = shape;
        let mut members = vec![
            ("op".to_owned(), "\"repl.sync\"".to_owned()),
            ("replica".to_owned(), quote(&replica, &text_escape)),
        ];
        if present.0 == 1 {
            let fields: Vec<String> =
                have.iter().map(|(t, n)| format!("{}:{n}", quote(t, &text_escape))).collect();
            members.push(("have".to_owned(), format!("{{{}}}", fields.join(","))));
        }
        if present.1 == 1 {
            let items: Vec<String> = stuck.iter().map(|t| quote(t, &text_escape)).collect();
            members.push(("stuck".to_owned(), format!("[{}]", items.join(","))));
        }
        let line = object(&members, &rank, &decoy, &key_escape);
        prop_assert_eq!(parse_request(&line), Ok(reference_request(&line)));
    }
}
