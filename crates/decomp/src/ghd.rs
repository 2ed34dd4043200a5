//! Generalized hypertree decompositions (GHDs).
//!
//! A GHD `⟨T, (B_u), (λ_u)⟩` is a tree decomposition together with, for
//! every node `u`, an explicit edge cover `λ_u ⊆ E(H)` of the bag `B_u`
//! (paper, Appendix C). Its width is `max_u |λ_u|`; the minimum width over
//! all GHDs of `H` is `ghw(H)`.

use cqd2_hypergraph::{EdgeId, Hypergraph, VertexId};

use crate::cover::{exact_cover, greedy_cover, is_cover};
use crate::tree_decomposition::{TdError, TreeDecomposition};

/// A generalized hypertree decomposition.
#[derive(Debug, Clone, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct Ghd {
    /// The underlying tree decomposition.
    pub td: TreeDecomposition,
    /// `covers[u]` is the edge cover `λ_u` of bag `u`.
    pub covers: Vec<Vec<EdgeId>>,
}

/// Reasons a GHD can be invalid.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GhdError {
    /// The underlying tree decomposition is invalid.
    Td(TdError),
    /// `covers` has the wrong length.
    CoverCountMismatch,
    /// Bag `u` is not covered by `λ_u`.
    BagNotCovered(usize),
    /// A cover references an edge outside the hypergraph.
    UnknownEdge(u32),
}

impl std::fmt::Display for GhdError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GhdError::Td(e) => write!(f, "invalid tree decomposition: {e}"),
            GhdError::CoverCountMismatch => write!(f, "covers.len() != bags.len()"),
            GhdError::BagNotCovered(u) => write!(f, "bag {u} not covered by its λ"),
            GhdError::UnknownEdge(e) => write!(f, "cover references unknown edge e{e}"),
        }
    }
}

impl std::error::Error for GhdError {}

impl Ghd {
    /// The width `max_u |λ_u|` (0 for a single empty bag).
    pub fn width(&self) -> usize {
        self.covers.iter().map(Vec::len).max().unwrap_or(0)
    }

    /// Validate against `h`: the tree decomposition must be valid and every
    /// bag covered by its `λ`.
    pub fn validate(&self, h: &Hypergraph) -> Result<(), GhdError> {
        self.td.validate(h).map_err(GhdError::Td)?;
        if self.covers.len() != self.td.bags.len() {
            return Err(GhdError::CoverCountMismatch);
        }
        for (u, cover) in self.covers.iter().enumerate() {
            for e in cover {
                if e.idx() >= h.num_edges() {
                    return Err(GhdError::UnknownEdge(e.0));
                }
            }
            if !is_cover(h, &self.td.bags[u], cover) {
                return Err(GhdError::BagNotCovered(u));
            }
        }
        Ok(())
    }

    /// Drop every bag contained in a neighbouring bag, hanging its other
    /// neighbours on that neighbour, until no such bag is left. The
    /// result is still a GHD of the same hypergraph — each edge lies in
    /// the containing bag, and each vertex's bag set stays connected
    /// through it — and it is no wider: the remaining bags keep their
    /// `λ`. Evaluation materializes one relation per bag, so a
    /// contained bag only costs a projection, a dedup and one more node
    /// in every tree pass. A chain `e_1, …, e_k` from an elimination
    /// order, for one, ends in the leaf `{v_k} ⊆ e_k`.
    pub fn drop_contained_bags(mut self) -> Ghd {
        let contained = |bags: &[Vec<VertexId>], u: usize, w: usize| {
            bags[u].iter().all(|v| bags[w].binary_search(v).is_ok())
        };
        while let Some((u, w)) = self
            .td
            .tree
            .iter()
            .flat_map(|&(a, b)| [(a, b), (b, a)])
            .find(|&(u, w)| contained(&self.td.bags, u, w))
        {
            self.td
                .tree
                .retain(|&edge| edge != (u, w) && edge != (w, u));
            self.td.bags.remove(u);
            self.covers.remove(u);
            // `u`'s other neighbours move to `w`; nodes above `u` shift
            // down one.
            let renumber = |x: usize| {
                let x = if x == u { w } else { x };
                if x > u {
                    x - 1
                } else {
                    x
                }
            };
            for edge in &mut self.td.tree {
                *edge = (renumber(edge.0), renumber(edge.1));
            }
        }
        self
    }

    /// The trivial GHD: [`TreeDecomposition::trivial`]'s one bag of every
    /// vertex, with `λ` = every edge, so its width is `|E|`. Every
    /// hypergraph has it, and Prop. 2.2 over it is the naive join.
    ///
    /// `λ` lists the edges in connected order: each edge shares a vertex
    /// with an earlier one wherever its connected component allows, so a
    /// join folded in cover order meets a cross product only between
    /// components.
    pub fn trivial(h: &Hypergraph) -> Ghd {
        let mut order: Vec<EdgeId> = Vec::with_capacity(h.num_edges());
        let mut placed = vec![false; h.num_edges()];
        let mut seen = vec![false; h.num_vertices()];
        loop {
            let mut unplaced = h.edge_ids().filter(|e| !placed[e.idx()]);
            let Some(first) = unplaced.next() else {
                break;
            };
            let next = std::iter::once(first)
                .chain(unplaced)
                .find(|&e| h.edge(e).iter().any(|v| seen[v.idx()]))
                .unwrap_or(first);
            placed[next.idx()] = true;
            for v in h.edge(next) {
                seen[v.idx()] = true;
            }
            order.push(next);
        }
        Ghd {
            td: TreeDecomposition::trivial(h),
            covers: vec![order],
        }
    }

    /// Equip a tree decomposition with minimum-cardinality covers
    /// (exact per-bag set cover). The GHD's width is then the `ρ`-width of
    /// the given decomposition.
    pub fn from_td_exact(h: &Hypergraph, td: TreeDecomposition) -> Ghd {
        let covers = td.bags.iter().map(|b| exact_cover(h, b)).collect();
        Ghd { td, covers }
    }

    /// Equip a tree decomposition with greedy covers (fast, possibly
    /// suboptimal width).
    pub fn from_td_greedy(h: &Hypergraph, td: TreeDecomposition) -> Ghd {
        let covers = td.bags.iter().map(|b| greedy_cover(h, b)).collect();
        Ghd { td, covers }
    }

    /// The bag of node `u`.
    pub fn bag(&self, u: usize) -> &[VertexId] {
        &self.td.bags[u]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vid(v: u32) -> VertexId {
        VertexId(v)
    }

    #[test]
    fn chain_ghd_width_one() {
        use cqd2_hypergraph::generators::hyperchain;
        let h = hyperchain(4, 3);
        // One node per edge, chained: bags = edges.
        let bags: Vec<Vec<VertexId>> = h.edge_ids().map(|e| h.edge(e).to_vec()).collect();
        let tree = (0..bags.len() - 1).map(|i| (i, i + 1)).collect();
        let td = TreeDecomposition { bags, tree };
        let ghd = Ghd::from_td_exact(&h, td);
        ghd.validate(&h).unwrap();
        assert_eq!(ghd.width(), 1);
    }

    #[test]
    fn trivial_ghd_is_valid_full_width_and_connected_per_component() {
        // Two components, {5,6} and the path 0-1-2-3-4 listed out of
        // order, plus the empty edge a ground atom makes.
        let h = Hypergraph::new(
            7,
            &[
                vec![5, 6],
                vec![0, 1],
                vec![],
                vec![3, 4],
                vec![1, 2],
                vec![2, 3],
            ],
        )
        .unwrap();
        let ghd = Ghd::trivial(&h);
        ghd.validate(&h).unwrap();
        crate::verify::verify_ghd(&h, &ghd).unwrap();
        assert_eq!(ghd.width(), h.num_edges());
        assert_eq!(ghd.td.bags, vec![h.vertices().collect::<Vec<_>>()]);
        let cover = &ghd.covers[0];
        let mut sorted = cover.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, h.edge_ids().collect::<Vec<_>>());
        // An edge that shares no vertex with an earlier one opens a
        // component no earlier edge touched.
        let components = h.connected_components();
        let component = |v: VertexId| components.iter().position(|c| c.contains(&v));
        for (i, &e) in cover.iter().enumerate() {
            let earlier: Vec<VertexId> = cover[..i]
                .iter()
                .flat_map(|&f| h.edge(f))
                .copied()
                .collect();
            if h.edge(e).iter().any(|v| earlier.contains(v)) {
                continue;
            }
            for v in h.edge(e) {
                assert!(
                    earlier.iter().all(|&w| component(w) != component(*v)),
                    "λ = {cover:?} leaves its component at {e:?}"
                );
            }
        }
        assert_eq!(
            cover.iter().map(|e| e.0).collect::<Vec<_>>(),
            [0, 1, 4, 5, 3, 2]
        );

        // No vertices at all: a query of ground atoms only.
        let ground = Hypergraph::new(0, &[vec![]]).unwrap();
        let ghd = Ghd::trivial(&ground);
        ghd.validate(&ground).unwrap();
        crate::verify::verify_ghd(&ground, &ghd).unwrap();
        assert_eq!(ghd.width(), 1);
    }

    #[test]
    fn contained_bags_are_dropped_and_their_neighbours_rehung() {
        // Path 0-1-2-3 plus a hub edge {1, 4}; bags {1} and {2} sit
        // between their supersets, {3} hangs off {2, 3}.
        let h = Hypergraph::new(5, &[vec![0, 1], vec![1, 2], vec![2, 3], vec![1, 4]]).unwrap();
        let bags: Vec<Vec<VertexId>> = [&[1][..], &[0, 1], &[1, 2], &[2], &[2, 3], &[3], &[1, 4]]
            .iter()
            .map(|b| b.iter().map(|&v| vid(v)).collect())
            .collect();
        let tree = vec![(0, 1), (0, 2), (2, 3), (3, 4), (4, 5), (0, 6)];
        let ghd = Ghd::from_td_exact(&h, TreeDecomposition { bags, tree });
        ghd.validate(&h).unwrap();
        let width = ghd.width();
        let normal = ghd.drop_contained_bags();
        normal.validate(&h).unwrap();
        crate::verify::verify_ghd(&h, &normal).unwrap();
        assert_eq!(normal.width(), width);
        let mut bags = normal.td.bags.clone();
        bags.sort();
        let edges: Vec<Vec<VertexId>> = h.edge_ids().map(|e| h.edge(e).to_vec()).collect();
        let mut expected = edges.clone();
        expected.sort();
        assert_eq!(bags, expected, "one bag per edge is left");
        // Nothing left to drop: normalizing again changes nothing.
        assert_eq!(normal.clone().drop_contained_bags(), normal);
        // A single bag and the trivial GHD stay as they are.
        let trivial = Ghd::trivial(&h);
        assert_eq!(trivial.clone().drop_contained_bags(), trivial);
    }

    #[test]
    fn invalid_cover_detected() {
        let h = Hypergraph::new(3, &[vec![0, 1], vec![1, 2]]).unwrap();
        let td = TreeDecomposition::trivial(&h);
        let ghd = Ghd {
            td,
            covers: vec![vec![EdgeId(0)]], // does not cover vertex 2
        };
        assert_eq!(ghd.validate(&h), Err(GhdError::BagNotCovered(0)));
    }

    #[test]
    fn unknown_edge_detected() {
        let h = Hypergraph::new(2, &[vec![0, 1]]).unwrap();
        let ghd = Ghd {
            td: TreeDecomposition::trivial(&h),
            covers: vec![vec![EdgeId(7)]],
        };
        assert_eq!(ghd.validate(&h), Err(GhdError::UnknownEdge(7)));
    }

    #[test]
    fn cover_count_mismatch_detected() {
        let h = Hypergraph::new(2, &[vec![0, 1]]).unwrap();
        let ghd = Ghd {
            td: TreeDecomposition::trivial(&h),
            covers: vec![],
        };
        assert_eq!(ghd.validate(&h), Err(GhdError::CoverCountMismatch));
    }

    #[test]
    fn trivial_td_cover_width_is_rho_of_everything() {
        let h = Hypergraph::new(4, &[vec![0, 1], vec![2, 3], vec![1, 2]]).unwrap();
        let ghd = Ghd::from_td_exact(&h, TreeDecomposition::trivial(&h));
        ghd.validate(&h).unwrap();
        assert_eq!(ghd.width(), 2); // {0,1} and {2,3} cover all four vertices
        let _ = vid(0);
    }
}
