//! The reference row-store relation: one `Vec<u64>` per tuple.
//!
//! A [`VRelation`] associates each column with a query variable; all
//! operators align on variables, so join conditions never need to be
//! spelled out. Binding an atom against a database resolves constants and
//! repeated variables up front, after which every evaluator deals only
//! with distinct-variable columns.
//!
//! The evaluators themselves run on the columnar
//! [`crate::flat::FlatRelation`] kernel; this row store is kept as the
//! obviously-correct **reference implementation** that the differential
//! tests (`tests/kernel_differential.rs`) and the `relation_ops`
//! micro-benchmarks compare the kernel against. Its operators dedup
//! after every step and allocate per tuple — exactly the costs the flat
//! kernel exists to avoid.

use crate::database::Database;
use crate::query::{Atom, Term, Var};
use std::collections::HashMap;

/// A relation whose columns are query variables.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VRelation {
    /// Column variables (distinct).
    pub vars: Vec<Var>,
    /// Tuples, each of length `vars.len()`.
    pub tuples: Vec<Vec<u64>>,
}

impl VRelation {
    /// The relation over no variables containing the empty tuple
    /// (the join identity).
    pub fn unit() -> VRelation {
        VRelation {
            vars: vec![],
            tuples: vec![vec![]],
        }
    }

    /// Is the relation empty (no tuples)?
    pub fn is_empty(&self) -> bool {
        self.tuples.is_empty()
    }

    /// Bind `atom` against `db`: select tuples matching the atom's
    /// constants and repeated variables, and project to one column per
    /// distinct variable. A missing relation yields the empty result.
    pub fn bind(atom: &Atom, db: &Database) -> VRelation {
        let vars = atom.vars();
        let Some(stored) = db.relation(&atom.relation) else {
            return VRelation {
                vars,
                tuples: vec![],
            };
        };
        // Positions of the first occurrence of each variable.
        let mut first_pos: Vec<usize> = Vec::with_capacity(vars.len());
        for v in &vars {
            let p = atom
                .terms
                .iter()
                .position(|t| matches!(t, Term::Var(w) if w == v))
                .expect("var occurs");
            first_pos.push(p);
        }
        let mut tuples = Vec::new();
        'tup: for t in stored.tuples.iter() {
            if t.len() != atom.terms.len() {
                continue;
            }
            // Constants must match; repeated variables must agree.
            let mut assignment: HashMap<Var, u64> = HashMap::new();
            for (i, term) in atom.terms.iter().enumerate() {
                match term {
                    Term::Const(c) => {
                        if t[i] != *c {
                            continue 'tup;
                        }
                    }
                    Term::Var(v) => match assignment.get(v) {
                        Some(&val) => {
                            if val != t[i] {
                                continue 'tup;
                            }
                        }
                        None => {
                            assignment.insert(*v, t[i]);
                        }
                    },
                }
            }
            tuples.push(first_pos.iter().map(|&p| t[p]).collect());
        }
        let mut rel = VRelation { vars, tuples };
        rel.dedup();
        rel
    }

    /// Remove duplicate tuples.
    pub fn dedup(&mut self) {
        self.tuples.sort_unstable();
        self.tuples.dedup();
    }

    /// Natural join on shared variables (hash join on the smaller side).
    pub fn join(&self, other: &VRelation) -> VRelation {
        let shared: Vec<Var> = self
            .vars
            .iter()
            .copied()
            .filter(|v| other.vars.contains(v))
            .collect();
        let self_key: Vec<usize> = shared
            .iter()
            .map(|v| self.vars.iter().position(|w| w == v).expect("shared"))
            .collect();
        let other_key: Vec<usize> = shared
            .iter()
            .map(|v| other.vars.iter().position(|w| w == v).expect("shared"))
            .collect();
        let other_extra: Vec<usize> = (0..other.vars.len())
            .filter(|i| !shared.contains(&other.vars[*i]))
            .collect();
        // Hash the right side.
        let mut index: HashMap<Vec<u64>, Vec<usize>> = HashMap::new();
        for (i, t) in other.tuples.iter().enumerate() {
            let key: Vec<u64> = other_key.iter().map(|&p| t[p]).collect();
            index.entry(key).or_default().push(i);
        }
        let mut vars = self.vars.clone();
        vars.extend(other_extra.iter().map(|&i| other.vars[i]));
        let mut tuples = Vec::new();
        for t in &self.tuples {
            let key: Vec<u64> = self_key.iter().map(|&p| t[p]).collect();
            if let Some(matches) = index.get(&key) {
                for &j in matches {
                    let mut out = t.clone();
                    out.extend(other_extra.iter().map(|&p| other.tuples[j][p]));
                    tuples.push(out);
                }
            }
        }
        let mut rel = VRelation { vars, tuples };
        rel.dedup();
        rel
    }

    /// Project to `keep` (order taken from `keep`; unknown variables are
    /// an error).
    pub fn project(&self, keep: &[Var]) -> VRelation {
        let pos: Vec<usize> = keep
            .iter()
            .map(|v| {
                self.vars
                    .iter()
                    .position(|w| w == v)
                    .expect("projection variable must exist")
            })
            .collect();
        let mut rel = VRelation {
            vars: keep.to_vec(),
            tuples: self
                .tuples
                .iter()
                .map(|t| pos.iter().map(|&p| t[p]).collect())
                .collect(),
        };
        rel.dedup();
        rel
    }

    /// Semijoin: keep the tuples of `self` that join with some tuple of
    /// `other`.
    pub fn semijoin(&self, other: &VRelation) -> VRelation {
        let shared: Vec<Var> = self
            .vars
            .iter()
            .copied()
            .filter(|v| other.vars.contains(v))
            .collect();
        if shared.is_empty() {
            return if other.is_empty() {
                VRelation {
                    vars: self.vars.clone(),
                    tuples: vec![],
                }
            } else {
                self.clone()
            };
        }
        let self_key: Vec<usize> = shared
            .iter()
            .map(|v| self.vars.iter().position(|w| w == v).expect("shared"))
            .collect();
        let other_key: Vec<usize> = shared
            .iter()
            .map(|v| other.vars.iter().position(|w| w == v).expect("shared"))
            .collect();
        let keys: std::collections::HashSet<Vec<u64>> = other
            .tuples
            .iter()
            .map(|t| other_key.iter().map(|&p| t[p]).collect())
            .collect();
        VRelation {
            vars: self.vars.clone(),
            tuples: self
                .tuples
                .iter()
                .filter(|t| keys.contains(&self_key.iter().map(|&p| t[p]).collect::<Vec<u64>>()))
                .cloned()
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::ConjunctiveQuery;

    fn v(i: u32) -> Var {
        Var(i)
    }

    #[test]
    fn bind_handles_constants_and_repeats() {
        let mut db = Database::new();
        db.insert_all(
            "R",
            &[vec![1, 1, 5], vec![1, 2, 5], vec![2, 2, 7], vec![3, 3, 5]],
        );
        let q = ConjunctiveQuery::parse(&[("R", &["?x", "?x", "5"])]);
        let rel = VRelation::bind(&q.atoms[0], &db);
        assert_eq!(rel.vars.len(), 1);
        assert_eq!(rel.tuples, vec![vec![1], vec![3]]);
    }

    #[test]
    fn bind_missing_relation_is_empty() {
        let db = Database::new();
        let q = ConjunctiveQuery::parse(&[("R", &["?x"])]);
        assert!(VRelation::bind(&q.atoms[0], &db).is_empty());
    }

    #[test]
    fn join_on_shared_variable() {
        let a = VRelation {
            vars: vec![v(0), v(1)],
            tuples: vec![vec![1, 2], vec![2, 3]],
        };
        let b = VRelation {
            vars: vec![v(1), v(2)],
            tuples: vec![vec![2, 10], vec![2, 11], vec![9, 12]],
        };
        let j = a.join(&b);
        assert_eq!(j.vars, vec![v(0), v(1), v(2)]);
        assert_eq!(j.tuples, vec![vec![1, 2, 10], vec![1, 2, 11]]);
    }

    #[test]
    fn join_without_shared_is_product() {
        let a = VRelation {
            vars: vec![v(0)],
            tuples: vec![vec![1], vec![2]],
        };
        let b = VRelation {
            vars: vec![v(1)],
            tuples: vec![vec![7], vec![8]],
        };
        assert_eq!(a.join(&b).tuples.len(), 4);
    }

    #[test]
    fn join_with_unit() {
        let a = VRelation {
            vars: vec![v(0)],
            tuples: vec![vec![1]],
        };
        assert_eq!(a.join(&VRelation::unit()), a);
        assert_eq!(VRelation::unit().join(&a).tuples, a.tuples);
    }

    #[test]
    fn project_dedups() {
        let a = VRelation {
            vars: vec![v(0), v(1)],
            tuples: vec![vec![1, 2], vec![1, 3]],
        };
        let p = a.project(&[v(0)]);
        assert_eq!(p.tuples, vec![vec![1]]);
    }

    #[test]
    fn semijoin_filters() {
        let a = VRelation {
            vars: vec![v(0), v(1)],
            tuples: vec![vec![1, 2], vec![2, 3]],
        };
        let b = VRelation {
            vars: vec![v(1)],
            tuples: vec![vec![2]],
        };
        let s = a.semijoin(&b);
        assert_eq!(s.tuples, vec![vec![1, 2]]);
        // Disjoint semijoin: nonempty other keeps everything.
        let c = VRelation {
            vars: vec![v(9)],
            tuples: vec![vec![5]],
        };
        assert_eq!(a.semijoin(&c).tuples.len(), 2);
        // Disjoint semijoin with empty other: empties.
        let e = VRelation {
            vars: vec![v(9)],
            tuples: vec![],
        };
        assert!(a.semijoin(&e).is_empty());
    }
}
