//! The reverse-walk of a dilution sequence: the heart of Theorem 3.4.

use crate::error::ReductionError;
use crate::instance::Instance;
use cqd2_cq::Database;
use cqd2_dilution::{DilutionOp, DilutionSequence};
use cqd2_hypergraph::{EdgeId, Hypergraph, OpTrace, VertexId};

/// Result of running the reduction, with per-step accounting for the
/// `‖D_{i-1}‖ ≤ c · degree(H) · ‖D_i‖` bound of the proof.
#[derive(Debug, Clone)]
pub struct ReductionReport {
    /// The reduced instance `(p, D_p)` over the dilution's start
    /// hypergraph `H`.
    pub instance: Instance,
    /// Database weight (`Σ arity × |tuples|`) after each reverse step,
    /// ending with the weight of `D_p`; `step_weights[0]` is `‖D_q‖`.
    pub step_weights: Vec<usize>,
    /// For each vertex of `M` (the dilution result), the vertex of `H`
    /// that survives onto it — the projection `π_{vars(q)}` of the
    /// theorem.
    pub projection: Vec<u32>,
}

/// Run the Theorem 3.4 reduction: given the dilution run of `seq` on `h`
/// ending in hypergraph `M`, and an instance bound to `M`, produce an
/// instance bound to `h` whose answers project (parsimoniously) onto the
/// original's.
pub fn reduce_along(
    h: &Hypergraph,
    seq: &DilutionSequence,
    instance_m: &Instance,
) -> Result<ReductionReport, ReductionError> {
    let run = seq.run(h)?;
    let m = run.result();
    if !instance_m.is_bound_to(m) {
        return Err(ReductionError::NotBound);
    }
    let mut cur = instance_m.clone();
    let mut weights = vec![cur.db_weight()];
    let mut next_star = cur.max_constant() + 1;

    for i in (0..seq.ops.len()).rev() {
        let h_i = &run.hypergraphs[i];
        let h_next = &run.hypergraphs[i + 1];
        let trace = &run.traces[i];
        let op = seq.ops[i];
        cur = reverse_step(h_i, h_next, trace, op, &cur, i, &mut next_star)?;
        debug_assert!(cur.is_bound_to(h_i));
        weights.push(cur.db_weight());
    }

    let total = run.total_trace();
    let mut projection = vec![u32::MAX; m.num_vertices()];
    for v in h.vertices() {
        if let Some(u) = total.vertex_map[v.idx()] {
            projection[u.idx()] = v.0;
        }
    }
    debug_assert!(projection.iter().all(|&p| p != u32::MAX));
    Ok(ReductionReport {
        instance: cur,
        step_weights: weights,
        projection,
    })
}

/// Reverse one dilution step: from an instance bound to `h_next`
/// (= `op(h_i)`) to an instance bound to `h_i`.
fn reverse_step(
    h_i: &Hypergraph,
    h_next: &Hypergraph,
    trace: &OpTrace,
    op: DilutionOp,
    inst: &Instance,
    level: usize,
    next_star: &mut u64,
) -> Result<Instance, ReductionError> {
    let prefix = format!("L{level}_");
    let mut db = Database::new();

    // Tuples of the h_next atom for edge `e_next` (none if it has no
    // relation).
    let tuples_of = |e_next: EdgeId| {
        let rel = &inst.query.atoms[e_next.idx()].relation;
        let stored = inst.db.relation(rel).into_iter();
        stored.flat_map(|r| r.tuples.iter())
    };
    // Column position of h_i-vertex `u` (mapped through `trace`) within
    // the sorted vertex list of `e_next`.
    let col_of = |u: VertexId, e_next: EdgeId| -> Result<usize, ReductionError> {
        let mapped = trace.vertex_map[u.idx()].ok_or_else(|| {
            ReductionError::Replay(format!("vertex v{} vanished unexpectedly", u.0))
        })?;
        h_next.edge(e_next).binary_search(&mapped).map_err(|_| {
            ReductionError::Replay(format!("vertex v{} not in image edge e{}", u.0, e_next.0))
        })
    };
    // Plain copy of edge `e` of h_i from its image edge (variables
    // relabelled; used for all unaffected atoms).
    let copy_relabel = |db: &mut Database, e: EdgeId| -> Result<(), ReductionError> {
        let e_next = trace.edge_map[e.idx()]
            .ok_or_else(|| ReductionError::Replay("copied edge vanished".into()))?;
        let cols: Vec<usize> = h_i
            .edge(e)
            .iter()
            .map(|&u| col_of(u, e_next))
            .collect::<Result<_, _>>()?;
        let name = format!("{prefix}{}", e.idx());
        for t in tuples_of(e_next) {
            let row: Vec<u64> = cols.iter().map(|&c| t[c]).collect();
            db.insert(&name, &row);
        }
        Ok(())
    };

    match op {
        DilutionOp::DeleteVertex(v) => {
            let star0 = *next_star;
            *next_star += 1;
            for e in h_i.edge_ids() {
                if h_i.edge_contains(e, v) {
                    // S_e = R_pre(e) × {(★0)} at v's position.
                    let e_next = trace.edge_map[e.idx()]
                        .ok_or_else(|| ReductionError::Replay("edge vanished".into()))?;
                    let name = format!("{prefix}{}", e.idx());
                    let positions: Vec<Option<usize>> = h_i
                        .edge(e)
                        .iter()
                        .map(|&u| {
                            if u == v {
                                Ok(None)
                            } else {
                                col_of(u, e_next).map(Some)
                            }
                        })
                        .collect::<Result<_, ReductionError>>()?;
                    for t in tuples_of(e_next) {
                        let row: Vec<u64> = positions
                            .iter()
                            .map(|p| match p {
                                Some(c) => t[*c],
                                None => star0,
                            })
                            .collect();
                        db.insert(&name, &row);
                    }
                } else {
                    copy_relabel(&mut db, e)?;
                }
            }
        }
        DilutionOp::MergeOnVertex(v) => {
            let iv: Vec<EdgeId> = h_i.incident_edges(v).to_vec();
            if iv.is_empty() {
                return Err(ReductionError::Replay(
                    "merge on isolated vertex in replay".into(),
                ));
            }
            let em = trace.edge_map[iv[0].idx()]
                .ok_or_else(|| ReductionError::Replay("merged edge vanished".into()))?;
            let base_tuples: Vec<Vec<u64>> = tuples_of(em).map(<[u64]>::to_vec).collect();
            // R': extend each tuple by a distinct key constant for v.
            let keys: Vec<u64> = (0..base_tuples.len() as u64)
                .map(|t| *next_star + t)
                .collect();
            *next_star += base_tuples.len() as u64;
            for e in h_i.edge_ids() {
                if iv.contains(&e) {
                    let name = format!("{prefix}{}", e.idx());
                    let positions: Vec<Option<usize>> = h_i
                        .edge(e)
                        .iter()
                        .map(|&u| {
                            if u == v {
                                Ok(None)
                            } else {
                                col_of(u, em).map(Some)
                            }
                        })
                        .collect::<Result<_, ReductionError>>()?;
                    for (ti, t) in base_tuples.iter().enumerate() {
                        let row: Vec<u64> = positions
                            .iter()
                            .map(|p| match p {
                                Some(c) => t[*c],
                                None => keys[ti],
                            })
                            .collect();
                        db.insert(&name, &row);
                    }
                } else {
                    copy_relabel(&mut db, e)?;
                }
            }
        }
        DilutionOp::DeleteSubedge(f) => {
            // All other edges copy identically (the trace is the identity
            // on them); the deleted subedge is recreated as a projection
            // of a superset edge.
            for e in h_i.edge_ids() {
                if e == f {
                    let sup = h_i
                        .edge_ids()
                        .find(|&g| g != f && h_i.edge_proper_subset(f, g))
                        .ok_or_else(|| {
                            ReductionError::Replay("deleted edge has no superset".into())
                        })?;
                    let sup_next = trace.edge_map[sup.idx()]
                        .ok_or_else(|| ReductionError::Replay("superset vanished".into()))?;
                    let cols: Vec<usize> = h_i
                        .edge(f)
                        .iter()
                        .map(|&u| col_of(u, sup_next))
                        .collect::<Result<_, _>>()?;
                    let name = format!("{prefix}{}", f.idx());
                    for t in tuples_of(sup_next) {
                        let row: Vec<u64> = cols.iter().map(|&c| t[c]).collect();
                        db.insert(&name, &row);
                    }
                } else {
                    copy_relabel(&mut db, e)?;
                }
            }
        }
    }
    Ok(Instance::canonical(h_i, db, &prefix))
}

/// Theoretical per-step bound from the proof: the reduction multiplies the
/// database weight by at most `c · degree(H)` per step. Returns the
/// maximum observed per-step growth factor of a report.
pub fn max_step_growth(report: &ReductionReport) -> f64 {
    report
        .step_weights
        .windows(2)
        .map(|w| {
            if w[0] == 0 {
                1.0
            } else {
                w[1] as f64 / w[0] as f64
            }
        })
        .fold(1.0_f64, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::verify_reduction;
    use cqd2_cq::generate::random_database;
    use cqd2_hypergraph::generators::{hyperchain, hypercycle};
    use cqd2_hypergraph::VertexId;

    fn canonical_instance(h: &Hypergraph, seed: u64, prefix: &str) -> Instance {
        let tmp = Instance::canonical(h, Database::new(), prefix);
        let db = random_database(&tmp.query, 5, 20, seed);
        Instance::canonical(h, db, prefix)
    }

    #[test]
    fn reverse_single_vertex_deletion() {
        let h = hyperchain(2, 3);
        let seq = DilutionSequence {
            ops: vec![DilutionOp::DeleteVertex(VertexId(0))],
        };
        let m = seq.apply(&h).unwrap();
        for seed in 0..4 {
            let inst = canonical_instance(&m, seed, "Q");
            let report = reduce_along(&h, &seq, &inst).unwrap();
            verify_reduction(&inst, &report).unwrap();
        }
    }

    #[test]
    fn reverse_single_merge() {
        let h = hypercycle(4, 2);
        // Merge on vertex 0 (degree 2): fuses two edges.
        let seq = DilutionSequence {
            ops: vec![DilutionOp::MergeOnVertex(VertexId(0))],
        };
        let m = seq.apply(&h).unwrap();
        for seed in 0..4 {
            let inst = canonical_instance(&m, seed, "Q");
            let report = reduce_along(&h, &seq, &inst).unwrap();
            verify_reduction(&inst, &report).unwrap();
        }
    }

    #[test]
    fn reverse_subedge_deletion() {
        let h = Hypergraph::new(4, &[vec![0, 1, 2], vec![0, 1], vec![2, 3]]).unwrap();
        let seq = DilutionSequence {
            ops: vec![DilutionOp::DeleteSubedge(cqd2_hypergraph::EdgeId(1))],
        };
        let m = seq.apply(&h).unwrap();
        for seed in 0..4 {
            let inst = canonical_instance(&m, seed, "Q");
            let report = reduce_along(&h, &seq, &inst).unwrap();
            verify_reduction(&inst, &report).unwrap();
        }
    }

    #[test]
    fn multi_step_sequences_verify() {
        let h = hypercycle(5, 3);
        let seq = DilutionSequence {
            ops: vec![
                DilutionOp::MergeOnVertex(VertexId(0)),
                DilutionOp::DeleteVertex(VertexId(0)),
                DilutionOp::DeleteVertex(VertexId(3)),
            ],
        };
        let m = seq.apply(&h).unwrap();
        for seed in 0..4 {
            let inst = canonical_instance(&m, seed, "Q");
            let report = reduce_along(&h, &seq, &inst).unwrap();
            verify_reduction(&inst, &report).unwrap();
            // Blowup bound sanity: each step grows by at most
            // ~degree(H)+1 cells-per-cell.
            assert!(max_step_growth(&report) <= (h.max_degree() + 2) as f64);
        }
    }

    #[test]
    fn unsatisfiable_instances_stay_unsatisfiable() {
        let h = hyperchain(3, 2);
        let seq = DilutionSequence {
            ops: vec![DilutionOp::MergeOnVertex(VertexId(1))],
        };
        let m = seq.apply(&h).unwrap();
        // Empty database: no solutions on either side.
        let inst = Instance::canonical(&m, Database::new(), "Q");
        let report = reduce_along(&h, &seq, &inst).unwrap();
        verify_reduction(&inst, &report).unwrap();
        assert!(!cqd2_cq::bcq_naive(
            &report.instance.query,
            &report.instance.db
        ));
    }
}
