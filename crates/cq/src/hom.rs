//! Homomorphisms between queries, cores, and semantic ghw (Section 4.3).
//!
//! A homomorphism `h : q₁ → q₂` maps variables of `q₁` to terms of `q₂`
//! (constants map to themselves) such that every atom of `q₁` becomes an
//! atom of `q₂`. Two CQs are (Boolean-)equivalent iff homomorphisms exist
//! both ways; the *core* is the minimal retract, and the semantic
//! generalized hypertree width is `ghw(core(q))` (Barceló et al.,
//! reference \[4\] of the paper).
//!
//! The search is not a second evaluator: by Chandra–Merlin the
//! homomorphisms `q₁ → q₂` are exactly the answers of `q₁` over `q₂`'s
//! *canonical database* (one fact per atom, every term frozen to a
//! value), so the naive evaluator's backtracking join enumerates them.

use crate::database::Database;
use crate::eval::backtrack;
use crate::query::{Atom, ConjunctiveQuery, Term, Var};
use cqd2_decomp::widths::ghw_exact;
use std::collections::{HashMap, HashSet};

/// The canonical database's relation for `atom`. The arity is part of
/// the name: a query (unlike a [`Database`]) may use one symbol at two
/// arities, and such atoms never match each other.
fn frozen_relation(atom: &Atom) -> String {
    format!("{}/{}", atom.relation, atom.terms.len())
}

/// The first homomorphism `q1 → q2` (a map from `q1`'s variables to
/// terms of `q2`) that `accept`s, searched as the answers of `q1` over
/// `q2`'s canonical database.
fn first_homomorphism(
    q1: &ConjunctiveQuery,
    q2: &ConjunctiveQuery,
    accept: &dyn Fn(&[Term]) -> bool,
) -> Option<Vec<Term>> {
    // A term of `q2` freezes to its index in this list; a constant `q2`
    // never mentions has no image, so it freezes to a value no fact holds.
    let mut terms: Vec<Term> = q2.vars().map(Term::Var).collect();
    for t in q2.atoms.iter().flat_map(|a| &a.terms) {
        if !terms.contains(t) {
            terms.push(*t);
        }
    }
    let value = |t: &Term| terms.iter().position(|u| u == t).unwrap_or(usize::MAX) as u64;
    let mut canonical = Database::new();
    for atom in &q2.atoms {
        let fact: Vec<u64> = atom.terms.iter().map(value).collect();
        canonical.insert(&frozen_relation(atom), &fact);
    }
    // `q1` keeps its variables and freezes its constants like `q2`'s.
    let freeze = |t: &Term| match t {
        Term::Var(_) => *t,
        Term::Const(_) => Term::Const(value(t)),
    };
    let atoms = q1.atoms.iter().map(|atom| Atom {
        relation: frozen_relation(atom),
        terms: atom.terms.iter().map(freeze).collect(),
    });
    let frozen = ConjunctiveQuery {
        atoms: atoms.collect(),
        var_names: q1.var_names.clone(),
    };
    let mut found = None;
    backtrack(&frozen, &canonical, &mut |answer| {
        let hom: Vec<Term> = answer.iter().map(|&v| terms[v as usize]).collect();
        if accept(&hom) {
            found = Some(hom);
        }
        found.is_none()
    });
    found
}

/// Find a homomorphism from `q1` to `q2`, as a map from `q1`'s variables
/// to terms of `q2`.
pub fn find_homomorphism(q1: &ConjunctiveQuery, q2: &ConjunctiveQuery) -> Option<Vec<Term>> {
    first_homomorphism(q1, q2, &|_| true)
}

/// The image of `atom` under a total variable mapping.
fn map_atom(atom: &Atom, mapping: &[Term]) -> Atom {
    let image = |t: &Term| match t {
        Term::Const(_) => *t,
        Term::Var(v) => mapping[v.idx()],
    };
    Atom {
        relation: atom.relation.clone(),
        terms: atom.terms.iter().map(image).collect(),
    }
}

/// Are `q1` and `q2` Boolean-equivalent (homomorphically equivalent)?
pub fn equivalent(q1: &ConjunctiveQuery, q2: &ConjunctiveQuery) -> bool {
    find_homomorphism(q1, q2).is_some() && find_homomorphism(q2, q1).is_some()
}

/// Compute the core of `q`: repeatedly find a proper endomorphism (one
/// whose atom image is a strict subset) and restrict to its image.
pub fn core_of(q: &ConjunctiveQuery) -> ConjunctiveQuery {
    let mut cur = q.clone();
    while let Some(mapping) = proper_endomorphism(&cur) {
        cur = image_query(&cur, &mapping);
    }
    cur
}

/// Search for an endomorphism of `q` whose atom image has fewer atoms.
fn proper_endomorphism(q: &ConjunctiveQuery) -> Option<Vec<Term>> {
    first_homomorphism(q, q, &|hom| {
        let image: HashSet<Atom> = q.atoms.iter().map(|a| map_atom(a, hom)).collect();
        image.len() < q.atoms.len()
    })
}

/// The query induced by applying `mapping` to `q` and deduplicating
/// atoms; variables not in the image are dropped and remaining variables
/// renumbered.
fn image_query(q: &ConjunctiveQuery, mapping: &[Term]) -> ConjunctiveQuery {
    let mut atoms: Vec<Atom> = Vec::new();
    for image in q.atoms.iter().map(|a| map_atom(a, mapping)) {
        if !atoms.contains(&image) {
            atoms.push(image);
        }
    }
    let mut renum: HashMap<Var, Var> = HashMap::new();
    let mut var_names: Vec<String> = Vec::new();
    for a in &mut atoms {
        for t in &mut a.terms {
            if let Term::Var(v) = t {
                let nv = *renum.entry(*v).or_insert_with(|| {
                    let nv = Var(var_names.len() as u32);
                    var_names.push(q.var_names[v.idx()].clone());
                    nv
                });
                *t = Term::Var(nv);
            }
        }
    }
    ConjunctiveQuery { atoms, var_names }
}

/// Semantic generalized hypertree width: `ghw(core(q))` (Section 4.3).
/// `None` when the core's hypergraph exceeds the exact-solver cap.
pub fn semantic_ghw(q: &ConjunctiveQuery) -> Option<usize> {
    let core = core_of(q);
    ghw_exact(&core.hypergraph())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_hom_exists() {
        let q = ConjunctiveQuery::parse(&[("R", &["?x", "?y"]), ("S", &["?y", "?z"])]);
        assert!(find_homomorphism(&q, &q).is_some());
    }

    #[test]
    fn hom_respects_relations() {
        let q1 = ConjunctiveQuery::parse(&[("R", &["?x", "?y"])]);
        let q2 = ConjunctiveQuery::parse(&[("S", &["?a", "?b"])]);
        assert!(find_homomorphism(&q1, &q2).is_none());
    }

    #[test]
    fn hom_onto_smaller() {
        // R(x,y) ∧ R(y,z) maps into R(a,a) (a self-loop).
        let q1 = ConjunctiveQuery::parse(&[("R", &["?x", "?y"]), ("R", &["?y", "?z"])]);
        let q2 = ConjunctiveQuery::parse(&[("R", &["?a", "?a"])]);
        assert!(find_homomorphism(&q1, &q2).is_some());
        assert!(find_homomorphism(&q2, &q1).is_none());
    }

    #[test]
    fn constants_must_be_preserved() {
        let q1 = ConjunctiveQuery::parse(&[("R", &["?x", "3"])]);
        let q2 = ConjunctiveQuery::parse(&[("R", &["?a", "4"])]);
        assert!(find_homomorphism(&q1, &q2).is_none());
        let q3 = ConjunctiveQuery::parse(&[("R", &["?a", "3"])]);
        assert!(find_homomorphism(&q1, &q3).is_some());
    }

    #[test]
    fn variables_may_land_on_constants_and_arities_never_mix() {
        // The canonical database freezes constants too, so `?x ↦ 3` is a
        // homomorphism — and an endomorphism the core retracts along.
        let q1 = ConjunctiveQuery::parse(&[("R", &["?x", "?y"])]);
        let q2 = ConjunctiveQuery::parse(&[("R", &["3", "?a"])]);
        let h = find_homomorphism(&q1, &q2).expect("x ↦ 3, y ↦ a");
        assert_eq!(h, vec![Term::Const(3), Term::Var(Var(0))]);
        let q = ConjunctiveQuery::parse(&[("R", &["?x", "4"]), ("R", &["3", "4"])]);
        assert_eq!(core_of(&q).atoms.len(), 1);
        // One symbol at two arities is two relations, not a panic.
        let unary = ConjunctiveQuery::parse(&[("R", &["?x"])]);
        let mixed = ConjunctiveQuery::parse(&[("R", &["?a", "?b"]), ("R", &["?c"])]);
        assert!(find_homomorphism(&unary, &mixed).is_some());
        assert!(find_homomorphism(&mixed, &unary).is_none());
    }

    #[test]
    fn core_removes_redundant_atom() {
        // E(x,y) ∧ E(z,y): z ↦ x retracts to a single atom.
        let q = ConjunctiveQuery::parse(&[("E", &["?x", "?y"]), ("E", &["?z", "?y"])]);
        let c = core_of(&q);
        assert_eq!(c.atoms.len(), 1);
        assert!(equivalent(&q, &c));
    }

    #[test]
    fn triangle_is_its_own_core() {
        let q = ConjunctiveQuery::parse(&[
            ("E", &["?x", "?y"]),
            ("E", &["?y", "?z"]),
            ("E", &["?z", "?x"]),
        ]);
        let c = core_of(&q);
        assert_eq!(c.atoms.len(), 3);
    }

    #[test]
    fn path_retracts_into_loop() {
        // E(x,y) ∧ E(y,z) ∧ E(z,w) with an extra loop E(v,v): everything
        // maps onto the loop; core = E(v,v).
        let q = ConjunctiveQuery::parse(&[
            ("E", &["?x", "?y"]),
            ("E", &["?y", "?z"]),
            ("E", &["?z", "?w"]),
            ("E", &["?v", "?v"]),
        ]);
        let c = core_of(&q);
        assert_eq!(c.atoms.len(), 1);
        assert!(c.atoms[0].has_repeated_vars());
    }

    #[test]
    fn semantic_ghw_drops_with_redundancy() {
        // A cycle query with a "shortcut" atom making it retract to a
        // path: sem-ghw < ghw. Here: C4 cycle + the chord atoms that
        // allow folding... simpler: redundant second cycle.
        let q = ConjunctiveQuery::parse(&[
            ("E", &["?x", "?y"]),
            ("E", &["?y", "?z"]),
            ("F", &["?z", "?x"]),
            // Redundant copy with fresh variables:
            ("E", &["?a", "?b"]),
            ("E", &["?b", "?c"]),
        ]);
        let c = core_of(&q);
        assert_eq!(c.atoms.len(), 3);
        assert_eq!(semantic_ghw(&q), Some(2));
    }

    #[test]
    fn equivalence_is_symmetric_and_reflexive() {
        let q = ConjunctiveQuery::parse(&[("R", &["?x", "?y"])]);
        let q2 = ConjunctiveQuery::parse(&[("R", &["?a", "?b"]), ("R", &["?c", "?d"])]);
        assert!(equivalent(&q, &q));
        assert!(equivalent(&q, &q2));
        assert!(equivalent(&q2, &q));
    }
}
