//! Tests that pin the JSON codec (`vendor/serde`): the bytes every
//! persisted and served type encodes to, what decodes, and that no input
//! panics the decoder.
//!
//! 1. **Golden literals.** The constants below were written by the
//!    tree-building encoder this codec replaced (commit `2cb38e3`);
//!    today's encoder must reproduce each byte for byte and decode it to
//!    an equal value.
//! 2. **Round trips** of random values of every derive shape, with the
//!    tree printer as the reference for the typed writer.
//! 3. **Mutations** of valid payloads: `Ok` or `Err`, never a panic, and
//!    `Ok` only for texts the untyped parser accepts too.

use std::collections::BTreeMap;

use cqd2::cq::{ConjunctiveQuery, Database};
use cqd2::engine::catalog::Catalog;
use cqd2::engine::server::wire::{
    ErrorCode, WireDbStats, WireError, WireHistogram, WireResult, WireSpan, WireStats, WireTrace,
};
use cqd2::engine::store::{load_plans, save_plans};
use cqd2::engine::{Answer, Engine};
use proptest::prelude::*;
use serde::{json, Deserialize, Serialize};

// ---- 1. golden literals ---------------------------------------------

#[rustfmt::skip]
mod golden {
    pub const RESULT_BOOL: &str = "{\"request\":3,\"index\":1,\"answer\":{\"Bool\":[true]},\"strategy\":\"ghd-yannakakis\",\"cache_hit\":true,\"prepared_hit\":false,\"planning_ns\":0,\"execution_ns\":12345,\"server_micros\":640,\"trace\":null}";
    pub const RESULT_COUNT: &str = "{\"request\":3,\"index\":1,\"answer\":{\"Count\":[18446744073709551615]},\"strategy\":\"ghd-yannakakis\",\"cache_hit\":true,\"prepared_hit\":false,\"planning_ns\":0,\"execution_ns\":12345,\"server_micros\":640,\"trace\":null}";
    pub const RESULT_BIG_COUNT: &str = "{\"request\":3,\"index\":1,\"answer\":{\"Count\":[\"18446744073709551620\"]},\"strategy\":\"ghd-yannakakis\",\"cache_hit\":true,\"prepared_hit\":false,\"planning_ns\":0,\"execution_ns\":12345,\"server_micros\":640,\"trace\":null}";
    pub const RESULT_TUPLES_TRACED: &str = "{\"request\":3,\"index\":1,\"answer\":{\"Tuples\":[[[1,2],[],[18446744073709551615,0,10]]]},\"strategy\":\"ghd-yannakakis\",\"cache_hit\":true,\"prepared_hit\":false,\"planning_ns\":0,\"execution_ns\":12345,\"server_micros\":640,\"trace\":{\"total_micros\":27,\"spans\":[{\"phase\":\"queue_wait\",\"micros\":12,\"detail\":null},{\"phase\":\"plan\",\"micros\":15,\"detail\":\"ghd-yannakakis (enumerate | cache hit | prepared \\\"miss\\\")\\t\\\\\"}]}}";
    pub const RESULT_NO_TUPLES: &str = "{\"request\":3,\"index\":1,\"answer\":{\"Tuples\":[[]]},\"strategy\":\"ghd-yannakakis\",\"cache_hit\":true,\"prepared_hit\":false,\"planning_ns\":0,\"execution_ns\":12345,\"server_micros\":640,\"trace\":null}";
    pub const ERROR: &str = "{\"request\":null,\"code\":\"Overloaded\",\"message\":\"request queue full (64 pending batches) — retry later\\n\",\"line\":2,\"queue_depth\":64,\"queue_capacity\":64}";
    pub const STATS: &str = "{\"request\":11,\"uptime_micros\":5000000,\"connections\":9,\"active_connections\":2,\"frames\":40,\"batches\":12,\"queries\":31,\"answered\":30,\"rejected_overload\":1,\"parse_errors\":0,\"protocol_errors\":0,\"internal_errors\":0,\"prepared_hits\":25,\"prepared_misses\":6,\"reloads\":1,\"rejected_unauthorized\":0,\"store_errors\":0,\"bags_rewritten\":3,\"bags_total\":90,\"delta_batches\":2,\"facts_inserted\":40,\"facts_deleted\":8,\"bags_remat\":4,\"delta_errors\":1,\"queue_depth\":0,\"queue_high_water\":3,\"queue_capacity\":64,\"databases\":[{\"name\":\"main\",\"epoch\":1,\"batches\":12,\"queries\":31,\"errors\":0,\"overloads\":1,\"prepared_hits\":25,\"prepared_misses\":6,\"bags_rewritten\":3,\"bags_total\":90,\"delta_batches\":2,\"facts_inserted\":40,\"facts_deleted\":8,\"bags_remat\":4,\"latency\":{\"count\":4,\"p50_micros\":200,\"p90_micros\":4000,\"p99_micros\":4000,\"max_micros\":4000,\"mean_micros\":1150}}],\"server_micros\":45}";
    pub const DATABASE: &str = "{\"relations\":{\"R\":{\"arity\":2,\"tuples\":[[1,2],[2,3]]},\"S\":{\"arity\":1,\"tuples\":[[18446744073709551615]]},\"U\":{\"arity\":0,\"tuples\":[[]]}}}";
    pub const DATABASE_PRETTY: &str = "{\n  \"relations\": {\n    \"R\": {\n      \"arity\": 2,\n      \"tuples\": [\n        [\n          1,\n          2\n        ],\n        [\n          2,\n          3\n        ]\n      ]\n    },\n    \"S\": {\n      \"arity\": 1,\n      \"tuples\": [\n        [\n          18446744073709551615\n        ]\n      ]\n    },\n    \"U\": {\n      \"arity\": 0,\n      \"tuples\": [\n        []\n      ]\n    }\n  }\n}";
    pub const SPILL: &str = "{\"version\":3,\"plans\":[{\"representative\":{\"vertex_names\":[\"?x\",\"?y\",\"?z\"],\"edge_names\":[\"R#0\",\"S#1\",\"T#2\"],\"edges\":[[[0],[1]],[[1],[2]],[[0],[2]]],\"incidence\":[[[0],[2]],[[0],[1]],[[1],[2]]]},\"ghd\":{\"td\":{\"bags\":[[[0],[1],[2]],[[1],[2]],[[2]]],\"tree\":[[0,1],[1,2]]},\"covers\":[[[0],[1]],[[1]],[[1]]]},\"ghd_exact\":true,\"jigsaw_dilution\":null,\"jigsaw_n\":0,\"hard_regime\":false,\"num_edges\":3,\"notes\":[\"exact ghw = 2\"],\"planning_micros\":42}]}";
}

fn result(answer: Answer, trace: Option<WireTrace>) -> WireResult {
    WireResult {
        request: 3,
        index: 1,
        answer,
        strategy: "ghd-yannakakis".to_string(),
        cache_hit: true,
        prepared_hit: false,
        planning_ns: 0,
        execution_ns: 12_345,
        server_micros: 640,
        trace,
    }
}

fn trace() -> WireTrace {
    WireTrace {
        total_micros: 27,
        spans: vec![
            WireSpan {
                phase: "queue_wait".to_string(),
                micros: 12,
                detail: None,
            },
            WireSpan {
                phase: "plan".to_string(),
                micros: 15,
                detail: Some(
                    "ghd-yannakakis (enumerate | cache hit | prepared \"miss\")\t\\".to_string(),
                ),
            },
        ],
    }
}

fn stats() -> WireStats {
    WireStats {
        request: 11,
        uptime_micros: 5_000_000,
        connections: 9,
        active_connections: 2,
        frames: 40,
        batches: 12,
        queries: 31,
        answered: 30,
        rejected_overload: 1,
        parse_errors: 0,
        protocol_errors: 0,
        internal_errors: 0,
        prepared_hits: 25,
        prepared_misses: 6,
        reloads: 1,
        rejected_unauthorized: 0,
        store_errors: 0,
        bags_rewritten: 3,
        bags_total: 90,
        delta_batches: 2,
        facts_inserted: 40,
        facts_deleted: 8,
        bags_remat: 4,
        delta_errors: 1,
        queue_depth: 0,
        queue_high_water: 3,
        queue_capacity: 64,
        databases: vec![WireDbStats {
            name: "main".to_string(),
            epoch: 1,
            batches: 12,
            queries: 31,
            errors: 0,
            overloads: 1,
            prepared_hits: 25,
            prepared_misses: 6,
            bags_rewritten: 3,
            bags_total: 90,
            delta_batches: 2,
            facts_inserted: 40,
            facts_deleted: 8,
            bags_remat: 4,
            latency: WireHistogram {
                count: 4,
                p50_micros: 200,
                p90_micros: 4000,
                p99_micros: 4000,
                max_micros: 4000,
                mean_micros: 1150,
            },
        }],
        server_micros: 45,
    }
}

/// `value` encodes to exactly `golden`, and `golden` decodes to `value`.
fn pinned<T: Serialize + Deserialize + PartialEq + std::fmt::Debug>(value: &T, golden: &str) {
    assert_eq!(json::to_string(value), golden);
    assert_eq!(&json::from_str::<T>(golden).unwrap(), value);
}

#[test]
fn wire_payloads_encode_to_the_bytes_they_always_did() {
    pinned(&result(Answer::Bool(true), None), golden::RESULT_BOOL);
    let count = Answer::Count(u128::from(u64::MAX));
    pinned(&result(count, None), golden::RESULT_COUNT);
    let big = Answer::Count(u128::from(u64::MAX) + 5);
    pinned(&result(big, None), golden::RESULT_BIG_COUNT);
    let tuples = Answer::Tuples(vec![vec![1, 2], vec![], vec![u64::MAX, 0, 10]]);
    pinned(&result(tuples, Some(trace())), golden::RESULT_TUPLES_TRACED);
    pinned(
        &result(Answer::Tuples(vec![]), None),
        golden::RESULT_NO_TUPLES,
    );
    let error = WireError {
        request: None,
        code: ErrorCode::Overloaded,
        message: "request queue full (64 pending batches) — retry later\n".to_string(),
        line: Some(2),
        queue_depth: Some(64),
        queue_capacity: Some(64),
    };
    pinned(&error, golden::ERROR);
    pinned(&stats(), golden::STATS);
}

#[test]
fn a_json_database_encodes_to_the_bytes_it_always_did() {
    let mut db = Database::default();
    db.insert("R", &[2, 3]);
    db.insert("R", &[1, 2]);
    db.insert("S", &[u64::MAX]);
    db.insert("U", &[]);
    pinned(&db, golden::DATABASE);
    assert_eq!(json::to_string_pretty(&db), golden::DATABASE_PRETTY);
    assert_eq!(
        json::from_str::<Database>(golden::DATABASE_PRETTY).unwrap(),
        db
    );
}

/// The plan spill's records are private to the store: pin them through
/// the file. Loading the old encoder's spill and saving it again gives
/// the same bytes back.
#[test]
fn a_plan_spill_survives_load_and_save_byte_for_byte() {
    let path = std::env::temp_dir().join(format!("cqd2-codec-spill-{}.json", std::process::id()));
    std::fs::write(&path, golden::SPILL).unwrap();
    let catalog = Catalog::new();
    catalog
        .publish_str("a", "R(1, 2)\nS(2, 3)\nT(3, 1)\n")
        .unwrap();
    let engine = Engine::default();
    assert_eq!(load_plans(&path, &engine).unwrap(), 1);
    assert_eq!(save_plans(&path, &engine).unwrap(), 1);
    assert_eq!(std::fs::read_to_string(&path).unwrap(), golden::SPILL);
    // The loaded plan is the triangle's: preparing it is a cache hit.
    let triangle = ConjunctiveQuery::parse(&[
        ("R", &["?x", "?y"]),
        ("S", &["?y", "?z"]),
        ("T", &["?z", "?x"]),
    ]);
    let session = engine.session_in(&catalog, "a").unwrap();
    assert!(session.prepare(&triangle).unwrap().cache_hit());
    let _ = std::fs::remove_file(&path);
}

/// The `Result` example in `docs/PROTOCOL.md` is a payload this codec
/// decodes, and each answer shape the prose spells out decodes to the
/// answer it names.
#[test]
fn the_protocol_docs_result_example_decodes() {
    const PROTOCOL: &str = include_str!("../docs/PROTOCOL.md");
    let example = PROTOCOL
        .split("```json")
        .skip(1)
        .filter_map(|block| block.split("```").next())
        .find(|block| block.contains("\"answer\""))
        .expect("PROTOCOL.md shows a Result payload");
    let result: WireResult = json::from_str(example).unwrap_or_else(|e| panic!("{e}: {example}"));
    assert_eq!(result.answer, Answer::Count(2));
    assert_eq!((result.request, result.trace), (3, None));
    for (text, answer) in [
        ("{\"Bool\": [true]}", Answer::Bool(true)),
        (
            "{\"Count\": [\"18446744073709551620\"]}",
            Answer::Count(u128::from(u64::MAX) + 5),
        ),
        (
            "{\"Tuples\": [[[1, 2, 3], [1, 2, 4]]]}",
            Answer::Tuples(vec![vec![1, 2, 3], vec![1, 2, 4]]),
        ),
        ("{\"Tuples\": [[[]]]}", Answer::Tuples(vec![vec![]])),
    ] {
        assert!(
            PROTOCOL.contains(text),
            "PROTOCOL.md no longer shows {text}"
        );
        assert_eq!(json::from_str::<Answer>(text).unwrap(), answer, "{text}");
    }
    assert!(json::from_str::<Answer>("{\"Count\": 2}").is_err());
}

// ---- 2. round trips of the derive shapes ----------------------------

#[derive(Serialize, Deserialize, Debug, Clone, PartialEq)]
struct Point {
    x: u32,
    y: Vec<i32>,
}

#[derive(Serialize, Deserialize, Debug, Clone, PartialEq)]
struct Wrapper(u32, String);

#[derive(Serialize, Deserialize, Debug, Clone, PartialEq)]
struct Marker;

#[derive(Serialize, Deserialize, Debug, Clone, PartialEq)]
enum Shape {
    Dot,
    Line(u32, u32),
    Poly { sides: Vec<u32>, closed: bool },
}

/// One of everything the derives and the container impls support.
#[derive(Serialize, Deserialize, Debug, Clone, PartialEq)]
struct Everything {
    point: Point,
    wrapper: Wrapper,
    marker: Marker,
    shapes: Vec<Shape>,
    nested: Vec<Option<Vec<Option<i64>>>>,
    map: BTreeMap<String, (u64, String)>,
    count: u128,
    ratio: f64,
    flag: bool,
}

/// splitmix64, so a case is a function of its seed alone.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    /// Small values, boundary values and arbitrary ones.
    fn int(&mut self) -> u64 {
        match self.below(4) {
            0 => self.below(10),
            1 => {
                [0, u64::MAX, u64::MAX - 1, 1 << 63, (1 << 63) - 1, 1 << 32][self.below(6) as usize]
            }
            _ => self.next() >> self.below(64),
        }
    }

    fn string(&mut self) -> String {
        const ALPHABET: [char; 16] = [
            'a', 'Z', '0', ' ', '"', '\\', '/', '\n', '\r', '\t', '\u{0}', '\u{1f}', '\u{7f}', 'é',
            '€', '😀',
        ];
        (0..self.below(12))
            .map(|_| ALPHABET[self.below(16) as usize])
            .collect()
    }

    fn vec<T>(&mut self, max: u64, mut item: impl FnMut(&mut Rng) -> T) -> Vec<T> {
        (0..self.below(max)).map(|_| item(self)).collect()
    }

    fn shape(&mut self) -> Shape {
        match self.below(3) {
            0 => Shape::Dot,
            1 => Shape::Line(self.int() as u32, self.int() as u32),
            _ => Shape::Poly {
                sides: self.vec(5, |r| r.int() as u32),
                closed: self.below(2) == 0,
            },
        }
    }

    fn everything(&mut self) -> Everything {
        Everything {
            point: Point {
                x: self.int() as u32,
                y: self.vec(5, |r| r.int() as i32),
            },
            wrapper: Wrapper(self.int() as u32, self.string()),
            marker: Marker,
            shapes: self.vec(4, Rng::shape),
            nested: self.vec(4, |r| {
                (r.below(3) > 0).then(|| r.vec(4, |r| (r.below(3) > 0).then(|| r.int() as i64)))
            }),
            map: self
                .vec(4, |r| (r.string(), (r.int(), r.string())))
                .into_iter()
                .collect(),
            count: u128::from(self.int()) << self.below(65),
            // Halves: every one prints and reads back exactly.
            ratio: (self.int() as i32) as f64 / 2.0,
            flag: self.below(2) == 0,
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn every_derive_shape_round_trips_and_matches_the_tree_printer(seed in any::<u64>()) {
        let value = Rng(seed).everything();
        let text = json::to_string(&value);
        prop_assert_eq!(&json::from_str::<Everything>(&text).unwrap(), &value);
        // The tree printer is the reference for the typed writer.
        let tree = json::parse(&text).unwrap();
        prop_assert_eq!(&json::to_string(&tree), &text);
        // Indented text is the same document.
        let pretty = json::to_string_pretty(&value);
        prop_assert_eq!(&json::parse(&pretty).unwrap(), &tree);
        prop_assert_eq!(&json::from_str::<Everything>(&pretty).unwrap(), &value);
    }
}

// ---- 3. mutations ---------------------------------------------------

/// Seeds of the mutation corpus: one text per `Answer` variant and per
/// optional-field state, plus the widest admin payload.
const CORPUS: [&str; 7] = [
    golden::RESULT_BOOL,
    golden::RESULT_COUNT,
    golden::RESULT_BIG_COUNT,
    golden::RESULT_TUPLES_TRACED,
    golden::RESULT_NO_TUPLES,
    golden::ERROR,
    golden::STATS,
];

/// One seeded edit of `text`: a byte flip, a truncation, an inserted
/// bracket or quote, or a digit run past `u64`.
fn mutate(text: &str, rng: &mut Rng) -> String {
    let mut bytes = text.as_bytes().to_vec();
    if bytes.is_empty() {
        return String::new();
    }
    let at = rng.below(bytes.len() as u64) as usize;
    match rng.below(5) {
        0 => bytes[at] ^= 1 << rng.below(8),
        1 => bytes.truncate(at),
        2 => {
            const INSERTS: &[u8] = b"[]{}\",:\\-e. \n";
            bytes.insert(at, INSERTS[rng.below(INSERTS.len() as u64) as usize]);
        }
        3 => {
            let digits = "9".repeat(1 + rng.below(40) as usize);
            bytes.splice(at..at, digits.bytes());
        }
        _ => {
            let to = at + rng.below((bytes.len() - at) as u64) as usize;
            bytes.drain(at..to);
        }
    }
    // A flip may leave the text non-UTF-8; a frame with such a payload
    // never reaches the decoder, so repair it the lossy way.
    String::from_utf8_lossy(&bytes).into_owned()
}

#[test]
fn mutated_payloads_decode_or_fail_but_never_panic() {
    let mut rng = Rng(0x5eed_c0de);
    let (mut accepted, mut rejected) = (0u32, 0u32);
    for round in 0..2_000 {
        for (i, seed) in CORPUS.iter().enumerate() {
            let mut text = mutate(seed, &mut rng);
            if round % 4 == 3 {
                text = mutate(&text, &mut rng);
            }
            let typed_ok = match i {
                0..=4 => json::from_str::<WireResult>(&text).is_ok(),
                5 => json::from_str::<WireError>(&text).is_ok(),
                _ => json::from_str::<WireStats>(&text).is_ok(),
            };
            if typed_ok {
                // The typed reader checks the syntax of everything it
                // skips: what it accepts is valid JSON.
                assert!(json::parse(&text).is_ok(), "typed Ok, parse Err: {text}");
                accepted += 1;
            } else {
                rejected += 1;
            }
        }
    }
    assert_eq!(accepted + rejected, 14_000);
    // The corpus exercises both outcomes, not just the error paths.
    assert!(
        accepted > 500 && rejected > 5_000,
        "{accepted} / {rejected}"
    );
}
