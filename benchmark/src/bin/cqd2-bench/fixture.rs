//! Seeded inputs: the two databases, the query texts of each
//! workload, and the `delta_mix` update feed. The seed drives the data,
//! the text order, the rename suffixes and the delta contents; the
//! *structures* (chain lengths, the 48 degree-2 hypergraphs) are fixed,
//! because planner cost is heavy-tailed across structures and a
//! seed-dependent structure set would make seeds incomparable.

use std::collections::BTreeSet;

use cqd2::cq::generate::canonical_query;
use cqd2::cq::{ConjunctiveQuery, Database};
use cqd2::engine::Workload;
use cqd2::hypergraph::generators::{hyperchain, random_degree_bounded};

/// Relations `R0..R7` of the chain fixtures.
pub const CHAIN_RELATIONS: usize = 8;
/// Degree-2 structures in `mixed20k` (the paper's class, §4).
pub const MIXED_STRUCTURES: u64 = 48;

/// xorshift64* — the same generator `engine_delta`'s fixture uses, so
/// the ledger's `chain160k` is that fixture with a seedable state.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Rng {
        // splitmix64 of (seed, stream): distinct streams for data, text
        // order and deltas, and never the all-zero xorshift state.
        let mut z = seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(stream.wrapping_mul(0xBF58_476D_1CE4_E5B9))
            .wrapping_add(0x94D0_49BB_1331_11EB);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        Rng((z ^ (z >> 31)) | 1)
    }

    pub fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(2685821657736338717)
    }

    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

/// One query text as a client sends it: a one-query batch.
#[derive(Clone)]
pub struct Text {
    /// Short name for reports, e.g. `@count chain(8)`.
    pub label: String,
    /// The `Query` frame payload (`@directive` line + `Q:` line).
    pub batch: String,
    /// The same payload with `@trace` in front (the traced run).
    pub traced: String,
    pub workload: Workload,
    pub query: ConjunctiveQuery,
    /// Relation indices when the query is a chain `R_a .. R_b` over
    /// `chain160k` (what the chain oracle evaluates).
    pub chain: Option<Vec<usize>>,
    /// Texts with equal `class` are the same query up to variable names
    /// (one oracle evaluation serves the class).
    pub class: usize,
}

fn text(
    name: &str,
    query: ConjunctiveQuery,
    workload: Workload,
    chain: Option<Vec<usize>>,
    class: usize,
) -> Text {
    let directive = cqd2::engine::server::wire::directive_for(workload);
    let batch = format!("{directive}\nQ: {}\n", query.display());
    Text {
        label: format!("{directive} {name}"),
        traced: format!("@trace\n{batch}"),
        batch,
        workload,
        query,
        chain,
        class,
    }
}

/// `rows` sorted-distinct random tuples of `arity` over `[0, domain)`.
fn random_rows(rng: &mut Rng, rows: usize, arity: usize, domain: u64) -> Vec<Vec<u64>> {
    let set: BTreeSet<Vec<u64>> = (0..rows)
        .map(|_| (0..arity).map(|_| rng.below(domain)).collect())
        .collect();
    set.into_iter().collect()
}

/// `R0..R7`, each `rows` sorted-distinct pairs over `[0, domain)`.
/// `chain160k` is `chain_db(seed, 20_000, 30_000)`; the oracle
/// self-check uses the 1/20 scale of the same seed.
pub fn chain_db(seed: u64, rows: usize, domain: u64) -> Database {
    let mut rng = Rng::new(seed, 1);
    let mut db = Database::new();
    for r in 0..CHAIN_RELATIONS {
        db.insert_sorted_relation(&format!("R{r}"), 2, random_rows(&mut rng, rows, 2, domain))
            .expect("fresh relation, sorted distinct rows");
    }
    db
}

/// The chain query `R_start(..) ∧ … ∧ R_{start+len-1}(..)` with
/// variables `?{prefix}{i}`.
fn chain_query(start: usize, len: usize, prefix: &str) -> ConjunctiveQuery {
    let mut q = canonical_query(&hyperchain(len, 2));
    for (i, atom) in q.atoms.iter_mut().enumerate() {
        atom.relation = format!("R{}", start + i);
    }
    for (i, name) in q.var_names.iter_mut().enumerate() {
        *name = format!("{prefix}{i}");
    }
    q
}

fn chain_text(k: usize, workload: Workload) -> Text {
    text(
        &format!("chain({k})"),
        chain_query(0, k, "v"),
        workload,
        Some((0..k).collect()),
        k,
    )
}

/// `warm_point`: chain(k), k ∈ {2,3,4,6,8} × `@count` / `@boolean`.
pub fn warm_point_texts() -> Vec<Text> {
    let mut out = Vec::new();
    for k in [2, 3, 4, 6, 8] {
        out.push(chain_text(k, Workload::Count));
        out.push(chain_text(k, Workload::Boolean));
    }
    out
}

/// `enum_stream`: three unlimited enumerations of growing width and
/// shrinking answer, plus one `limit 100` that pays the same semijoin
/// reduction for a tiny reply.
pub fn enum_stream_texts() -> Vec<Text> {
    vec![
        chain_text(2, Workload::Enumerate { limit: None }),
        chain_text(4, Workload::Enumerate { limit: None }),
        chain_text(8, Workload::Enumerate { limit: None }),
        chain_text(2, Workload::Enumerate { limit: Some(100) }),
    ]
}

/// `delta_mix` reader cycle.
pub fn delta_mix_texts() -> Vec<Text> {
    vec![
        chain_text(8, Workload::Count),
        chain_text(4, Workload::Count),
        chain_text(8, Workload::Boolean),
    ]
}

/// `mixed20k`: `R0..R7` × 300 rows over domain 200, plus, for each of
/// the 48 degree-2 structures `s`, its relations `S<s>_R<e>` × 40 rows
/// over domain 12.
pub fn mixed_db(seed: u64) -> Database {
    let mut rng = Rng::new(seed, 2);
    let mut db = Database::new();
    for r in 0..CHAIN_RELATIONS {
        db.insert_sorted_relation(&format!("R{r}"), 2, random_rows(&mut rng, 300, 2, 200))
            .expect("fresh relation, sorted distinct rows");
    }
    for s in 0..MIXED_STRUCTURES {
        for atom in &structure_query(s).atoms {
            let rows = random_rows(&mut rng, 40, atom.terms.len(), 12);
            db.insert_sorted_relation(&atom.relation, atom.terms.len(), rows)
                .expect("fresh relation, sorted distinct rows");
        }
    }
    db
}

/// The canonical query of degree-2 structure `s`, over its own
/// relations `S<s>_R<e>`.
fn structure_query(s: u64) -> ConjunctiveQuery {
    let mut q = canonical_query(&random_degree_bounded(10, 3, 2, 0.7, s));
    for atom in &mut q.atoms {
        atom.relation = format!("S{s}_{}", atom.relation);
    }
    q
}

/// `cold_plan`: 27 sub-chains (start < 6, length ≥ 2) × 8 variable
/// renamings — isomorphic structures under distinct texts — plus the 48
/// degree-2 structures × `@count` / `@boolean`; 312 texts against a
/// 64-entry prepared cache and a 16-entry plan cache.
pub fn cold_plan_texts(seed: u64) -> Vec<Text> {
    let mut rng = Rng::new(seed, 3);
    let mut out = Vec::new();
    let mut class = 0;
    for start in 0..6 {
        for len in 2..=(CHAIN_RELATIONS - start) {
            for _ in 0..8 {
                let prefix = format!("x{:04x}_", rng.below(1 << 16));
                let workload = if rng.below(2) == 0 {
                    Workload::Count
                } else {
                    Workload::Boolean
                };
                out.push(text(
                    &format!("R{start}..R{}", start + len - 1),
                    chain_query(start, len, &prefix),
                    workload,
                    None,
                    class,
                ));
            }
            class += 1;
        }
    }
    for s in 0..MIXED_STRUCTURES {
        let q = structure_query(s);
        let name = format!("S{s}");
        out.push(text(&name, q.clone(), Workload::Count, None, class));
        out.push(text(&name, q, Workload::Boolean, None, class));
        class += 1;
    }
    rng.shuffle(&mut out);
    out
}

/// Pairs of one chain relation, as the oracle and the delta feed see
/// them.
pub fn pairs(db: &Database, r: usize) -> Vec<(u64, u64)> {
    db.relation(&format!("R{r}"))
        .expect("chain relation")
        .tuples
        .iter()
        .map(|t| (t[0], t[1]))
        .collect()
}

/// One update of the open-loop feed.
pub struct DeltaStep {
    /// The `@insert` / `@delete` script (what goes in the `Delta`
    /// frame, and what the model database applies).
    pub script: String,
    /// Facts the script really changes (every line is a real change).
    pub facts: u64,
}

/// The `delta_mix` feed: step `i` inserts 8 pairs that are absent from
/// its relation and deletes the 8 that step `i-16` inserted, so the
/// database size is stationary and every line is a real change. Steps
/// alternate `R7` / `R3`, which dirties different bag spines.
pub fn delta_feed(seed: u64, db: &Database, domain: u64, steps: usize) -> Vec<DeltaStep> {
    let mut rng = Rng::new(seed, 4);
    let targets = [7usize, 3usize];
    let mut present: Vec<BTreeSet<(u64, u64)>> = targets
        .iter()
        .map(|&r| pairs(db, r).into_iter().collect())
        .collect();
    let mut inserted: Vec<Vec<(u64, u64)>> = Vec::with_capacity(steps);
    let mut out = Vec::with_capacity(steps);
    for i in 0..steps {
        let t = i % 2;
        let rel = targets[t];
        let mut fresh = Vec::with_capacity(8);
        while fresh.len() < 8 {
            let p = (rng.below(domain), rng.below(domain));
            if present[t].insert(p) {
                fresh.push(p);
            }
        }
        let mut script = String::from("@insert\n");
        for (a, b) in &fresh {
            script.push_str(&format!("R{rel}({a}, {b})\n"));
        }
        let mut facts = 8;
        if i >= 16 {
            script.push_str("@delete\n");
            for p in &inserted[i - 16] {
                present[t].remove(p);
                script.push_str(&format!("R{rel}({}, {})\n", p.0, p.1));
            }
            facts += 8;
        }
        inserted.push(fresh);
        out.push(DeltaStep { script, facts });
    }
    out
}
