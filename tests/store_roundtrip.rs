//! Round-trip property tests for the `.cqds` snapshot store
//! (`cqd2::engine::store`, format in `docs/SNAPSHOT.md`).
//!
//! The contract under test: for *any* database — empty relations,
//! duplicate-heavy inserts, wide and narrow arities, `u64` extremes —
//! `encode_snapshot` → `decode_snapshot` reproduces
//!
//! 1. the database **bit-identically** at the kernel level (the
//!    persisted column sections equal the `FlatRelation` buffers the
//!    evaluator would build from the loaded tuples),
//! 2. the statistics exactly as a fresh stats pass would compute them
//!    (so the publish-time stats skip is sound), and
//! 3. the same answers to queries as both the original database and a
//!    text (`render_database`/`parse_database`) round-trip of it.

use cqd2::cq::eval::{count_naive, enumerate_naive};
use cqd2::cq::generate::{canonical_query, planted_database};
use cqd2::cq::{Database, FlatRelation, Var};
use cqd2::engine::store::{
    decode_snapshot, encode_snapshot, inspect_bytes, read_snapshot, write_snapshot,
};
use cqd2::engine::textio::{parse_database, render_database};
use cqd2::hypergraph::generators::{hyperchain, hypercycle};

/// xorshift64* — deterministic, dependency-free test randomness.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Rng {
        Rng(seed.wrapping_mul(2685821657736338717).max(1))
    }

    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(2685821657736338717)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }
}

/// One random constant, biased toward collisions (duplicate-heavy
/// relations) and toward the `u64` extremes the fixed-width columns
/// must carry losslessly.
fn random_value(rng: &mut Rng) -> u64 {
    match rng.below(10) {
        0 => 0,
        1 => u64::MAX,
        2 => u64::MAX - 1,
        3 => 1 << 63,
        _ => rng.below(6),
    }
}

/// A random database: up to 6 relations spanning arity 1..=7, each
/// either empty, tiny, or duplicate-heavy. Deterministic per seed.
fn random_db(seed: u64) -> Database {
    let mut rng = Rng::new(seed);
    let mut db = Database::new();
    let relations = rng.below(7) as usize;
    for i in 0..relations {
        let name = format!("Rel{i}");
        let arity = 1 + rng.below(7) as usize;
        if rng.below(4) == 0 {
            // Explicitly empty relation: present in the schema (and the
            // snapshot TOC) with zero rows.
            db.insert_sorted_relation(&name, arity, Vec::new())
                .expect("fresh name");
            continue;
        }
        let rows = rng.below(40) as usize;
        for _ in 0..rows {
            let tuple: Vec<u64> = (0..arity).map(|_| random_value(&mut rng)).collect();
            // `insert` dedups, so collision-heavy draws exercise the
            // duplicate path for free.
            db.insert(&name, &tuple);
        }
    }
    db
}

#[test]
fn randomized_databases_round_trip_bit_identically() {
    for seed in 0..64u64 {
        let db = random_db(seed);
        let bytes = encode_snapshot(&db);
        let file =
            decode_snapshot(&bytes).unwrap_or_else(|e| panic!("seed {seed}: decode failed: {e}"));

        // Logical equality of the whole database.
        assert_eq!(file.db, db, "seed {seed}: database mismatch");
        assert_eq!(file.flags, 0, "seed {seed}: fresh snapshots carry no flags");

        // Stats persisted in the file equal a from-scratch stats pass —
        // the publish-time skip must be unobservable.
        assert_eq!(file.stats, db.stats(), "seed {seed}: stats mismatch");

        // Kernel-level bit identity: the buffer the loaded relation
        // holds equals the FlatRelation buffer the kernel builds from
        // the original rows.
        for (name, rel) in db.relations() {
            let vars: Vec<Var> = (0..rel.arity as u32).map(Var).collect();
            let original = FlatRelation::from_rows(vars, &rel.tuples.to_tuples());
            let loaded = file.db.relation(name).expect("relation survives");
            assert_eq!(
                original.data(),
                loaded.tuples.data(),
                "seed {seed}: column buffer for `{name}` not bit-identical"
            );
        }

        // Encoding is deterministic: same database, same bytes.
        assert_eq!(
            encode_snapshot(&file.db),
            bytes,
            "seed {seed}: re-encode is not byte-identical"
        );

        // And the summary agrees with the database it describes.
        let summary = inspect_bytes(&bytes).expect("fresh snapshot inspects");
        assert_eq!(summary.relations.len(), db.relations().count());
        assert_eq!(summary.total_tuples as usize, db.size());
        assert_eq!(summary.file_len as usize, bytes.len());
    }
}

#[test]
fn round_trip_preserves_query_answers_differentially() {
    let shapes = [hyperchain(4, 2), hypercycle(5, 2)];
    for (i, h) in shapes.iter().enumerate() {
        let q = canonical_query(h);
        for seed in 0..8u64 {
            let db = planted_database(&q, 4, 6, seed);

            // Route A: binary snapshot round-trip.
            let snap = decode_snapshot(&encode_snapshot(&db)).expect("round trip");
            // Route B: text round-trip (the pre-store persistence path).
            let text = parse_database(&render_database(&db)).expect("text round trip");

            let expected_count = count_naive(&q, &db);
            assert_eq!(
                count_naive(&q, &snap.db),
                expected_count,
                "shape {i} seed {seed}: count differs after snapshot round-trip"
            );
            assert_eq!(
                count_naive(&q, &text),
                expected_count,
                "shape {i} seed {seed}: count differs after text round-trip"
            );

            let mut expected = enumerate_naive(&q, &db);
            expected.sort_unstable();
            let mut from_snap = enumerate_naive(&q, &snap.db);
            from_snap.sort_unstable();
            assert_eq!(
                from_snap, expected,
                "shape {i} seed {seed}: answers differ after snapshot round-trip"
            );
        }
    }
}

/// `encode_snapshot` of [`golden_db`] as written by the encoder **before**
/// the database moved to flat buffers (the `Vec<Vec<u64>>` row store at
/// commit c7dc547): 64-byte header, four TOC entries, sections at 0x100
/// (`Edge`), 0x140 (`Empty`, `Tri`) and 0x180 (`Unit`, zero bytes).
#[rustfmt::skip]
const GOLDEN_V1: [u8; 384] = [
    0x43, 0x51, 0x44, 0x32, 0x53, 0x4e, 0x41, 0x50, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x04, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x80, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x5d, 0xcc, 0xfb, 0x0b, 0x38, 0x24, 0x9f, 0xcb, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x48, 0xfe, 0xb8, 0x44, 0xdc, 0xf3, 0x42, 0x14,
    0x04, 0x00, 0x00, 0x00, 0x45, 0x64, 0x67, 0x65, 0x02, 0x00, 0x00, 0x00, 0x03, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x05, 0x00, 0x00, 0x00,
    0x45, 0x6d, 0x70, 0x74, 0x79, 0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x40, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x03, 0x00, 0x00, 0x00, 0x54, 0x72, 0x69,
    0x03, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x40, 0x01, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x04, 0x00, 0x00, 0x00,
    0x55, 0x6e, 0x69, 0x74, 0x00, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x80, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff,
    0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x04, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x07, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x08, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x09, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
];

/// Two relations of different arity, one empty relation, and one
/// nullary relation holding the empty tuple.
fn golden_db() -> Database {
    let mut db = Database::new();
    db.insert_all("Edge", &[vec![3, 4], vec![1, 2], vec![1, u64::MAX]]);
    db.insert("Tri", &[7, 8, 9]);
    db.insert_sorted_relation("Empty", 2, Vec::new())
        .expect("fresh");
    db.insert("Unit", &[]);
    db
}

#[test]
fn format_version_1_bytes_are_pinned_in_both_directions() {
    // No other test fixes absolute bytes: this one proves a `.cqds`
    // written before the in-memory layout changed still loads, and that
    // today's writer produces the very same file.
    let db = golden_db();
    assert_eq!(encode_snapshot(&db), GOLDEN_V1, "writer drifted from v1");
    let file = decode_snapshot(&GOLDEN_V1).expect("a pre-refactor snapshot loads");
    assert_eq!(file.db, db);
    assert_eq!(file.stats, db.stats());
    assert_eq!(file.flags, 0);
    let unit = file.db.relation("Unit").expect("nullary relation survives");
    assert_eq!((unit.arity, unit.tuples.len()), (0, 1));
    assert!(unit.tuples.data().is_empty());
}

#[test]
fn file_round_trip_with_empty_and_extreme_databases() {
    let dir = std::env::temp_dir();
    let path = dir.join(format!("cqd2-roundtrip-{}.cqds", std::process::id()));
    let path = path.to_str().expect("temp path is UTF-8");

    // The empty database is a valid (header-only) snapshot.
    let empty = Database::new();
    write_snapshot(path, &empty).expect("write empty");
    let back = read_snapshot(path).expect("read empty");
    assert_eq!(back.db, empty);
    assert_eq!(back.stats, empty.stats());

    // A database of only-empty relations plus one extreme-valued row.
    let mut db = Database::new();
    db.insert_sorted_relation("Empty", 3, Vec::new())
        .expect("fresh");
    db.insert_sorted_relation("AlsoEmpty", 1, Vec::new())
        .expect("fresh");
    db.insert("Extreme", &[u64::MAX, 0, u64::MAX - 1, 1 << 63]);
    // Nullary relations: the buffer is empty either way, only the row
    // count tells "no tuple" from "the empty tuple".
    db.insert_sorted_relation("False", 0, Vec::new())
        .expect("fresh");
    db.insert_sorted_relation("True", 0, vec![Vec::new()])
        .expect("fresh");
    write_snapshot(path, &db).expect("write");
    let back = read_snapshot(path).expect("read");
    assert_eq!(back.db, db);
    assert_eq!(back.stats, db.stats());
    assert_eq!(
        back.db
            .relation("Extreme")
            .expect("present")
            .tuples
            .to_tuples(),
        vec![vec![u64::MAX, 0, u64::MAX - 1, 1 << 63]]
    );
    for (name, rows) in [("False", 0), ("True", 1)] {
        let rel = back.db.relation(name).expect("present");
        assert_eq!((rel.arity, rel.tuples.len()), (0, rows), "{name}");
        assert_eq!(back.stats.relation(name).expect("stats").cardinality, rows);
    }

    std::fs::remove_file(path).ok();
}
