//! Directed acyclic graph over attribute nodes.

/// A DAG on `n` nodes, stored as sorted parent lists per node.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Dag {
    parents: Vec<Vec<usize>>,
}

impl Dag {
    /// The empty graph on `n` nodes.
    pub fn empty(n: usize) -> Dag {
        Dag {
            parents: vec![Vec::new(); n],
        }
    }

    /// Builds a DAG from explicit edges `(parent, child)`.
    ///
    /// # Panics
    ///
    /// Panics if an edge index is out of range, an edge is duplicated, or
    /// the edges form a cycle.
    pub fn from_edges(n: usize, edges: &[(usize, usize)]) -> Dag {
        let mut dag = Dag::empty(n);
        for &(p, c) in edges {
            assert!(
                dag.try_add_edge(p, c),
                "edge ({p}, {c}) is invalid, duplicated, or creates a cycle"
            );
        }
        dag
    }

    /// Number of nodes.
    #[inline]
    pub fn n_nodes(&self) -> usize {
        self.parents.len()
    }

    /// Sorted parents of `node`.
    #[inline]
    pub fn parents(&self, node: usize) -> &[usize] {
        &self.parents[node]
    }

    /// Total number of edges.
    pub fn n_edges(&self) -> usize {
        self.parents.iter().map(Vec::len).sum()
    }

    /// Whether edge `parent -> child` exists.
    pub fn has_edge(&self, parent: usize, child: usize) -> bool {
        self.parents[child].binary_search(&parent).is_ok()
    }

    /// Adds `parent -> child` if it keeps the graph a simple DAG; returns
    /// whether the edge was added.
    pub fn try_add_edge(&mut self, parent: usize, child: usize) -> bool {
        if parent >= self.n_nodes() || child >= self.n_nodes() || parent == child {
            return false;
        }
        if self.has_edge(parent, child) || self.reaches(child, parent) {
            return false;
        }
        let pos = self.parents[child].binary_search(&parent).unwrap_err();
        self.parents[child].insert(pos, parent);
        true
    }

    /// Removes `parent -> child`; returns whether it existed.
    pub fn remove_edge(&mut self, parent: usize, child: usize) -> bool {
        match self.parents[child].binary_search(&parent) {
            Ok(pos) => {
                self.parents[child].remove(pos);
                true
            }
            Err(_) => false,
        }
    }

    /// Whether `to` is reachable from `from` following edges forward.
    pub fn reaches(&self, from: usize, to: usize) -> bool {
        if from == to {
            return true;
        }
        // Walk backwards from `to` through parents.
        let mut stack = vec![to];
        let mut seen = vec![false; self.n_nodes()];
        seen[to] = true;
        while let Some(v) = stack.pop() {
            for &p in &self.parents[v] {
                if p == from {
                    return true;
                }
                if !seen[p] {
                    seen[p] = true;
                    stack.push(p);
                }
            }
        }
        false
    }

    /// Sorted children of every node, indexed by node.
    pub(crate) fn children(&self) -> Vec<Vec<usize>> {
        let mut children = vec![Vec::new(); self.n_nodes()];
        for c in 0..self.n_nodes() {
            for &p in &self.parents[c] {
                children[p].push(c);
            }
        }
        children
    }

    /// The Markov blanket of `node`, sorted: its parents, its children and
    /// its children's other parents. Given values for all of them, `node`
    /// is independent of every other node.
    pub(crate) fn markov_blanket(&self, node: usize) -> Vec<usize> {
        let mut blanket: Vec<usize> = self.parents[node].clone();
        for c in 0..self.n_nodes() {
            if self.has_edge(node, c) {
                blanket.push(c);
                blanket.extend(self.parents[c].iter().filter(|&&p| p != node));
            }
        }
        blanket.sort_unstable();
        blanket.dedup();
        blanket
    }

    /// A topological order (parents before children).
    pub fn topological_order(&self) -> Vec<usize> {
        let n = self.n_nodes();
        let mut remaining_parents: Vec<usize> = (0..n).map(|v| self.parents[v].len()).collect();
        let children = self.children();
        let mut ready: Vec<usize> = (0..n).filter(|&v| remaining_parents[v] == 0).collect();
        let mut order = Vec::with_capacity(n);
        while let Some(v) = ready.pop() {
            order.push(v);
            for &c in &children[v] {
                remaining_parents[c] -= 1;
                if remaining_parents[c] == 0 {
                    ready.push(c);
                }
            }
        }
        debug_assert_eq!(order.len(), n, "graph must be acyclic");
        order
    }

    /// All edges as `(parent, child)` pairs.
    pub fn edges(&self) -> Vec<(usize, usize)> {
        let mut out = Vec::with_capacity(self.n_edges());
        for c in 0..self.n_nodes() {
            for &p in &self.parents[c] {
                out.push((p, c));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_remove_and_query() {
        let mut g = Dag::empty(4);
        assert!(g.try_add_edge(0, 1));
        assert!(g.try_add_edge(1, 2));
        assert!(!g.try_add_edge(0, 1), "duplicate rejected");
        assert!(!g.try_add_edge(2, 0), "cycle rejected");
        assert!(!g.try_add_edge(1, 1), "self-loop rejected");
        assert!(g.has_edge(0, 1));
        assert_eq!(g.n_edges(), 2);
        assert!(g.remove_edge(0, 1));
        assert!(!g.remove_edge(0, 1));
    }

    #[test]
    fn reachability() {
        let g = Dag::from_edges(5, &[(0, 1), (1, 2), (3, 2)]);
        assert!(g.reaches(0, 2));
        assert!(!g.reaches(2, 0));
        assert!(g.reaches(3, 2));
        assert!(!g.reaches(0, 4));
        assert!(g.reaches(4, 4));
    }

    #[test]
    fn topological_order_is_valid() {
        let g = Dag::from_edges(6, &[(0, 2), (1, 2), (2, 3), (3, 4), (1, 5)]);
        let order = g.topological_order();
        assert_eq!(order.len(), 6);
        let pos: Vec<usize> = {
            let mut p = vec![0; 6];
            for (i, &v) in order.iter().enumerate() {
                p[v] = i;
            }
            p
        };
        for (p, c) in g.edges() {
            assert!(pos[p] < pos[c], "edge ({p},{c}) violates topo order");
        }
    }

    #[test]
    fn children_and_markov_blanket() {
        // 0 -> 2 <- 1, 2 -> 3, 4 isolated.
        let g = Dag::from_edges(5, &[(0, 2), (1, 2), (2, 3)]);
        assert_eq!(
            g.children(),
            vec![vec![2], vec![2], vec![3], vec![], vec![]]
        );
        assert_eq!(g.markov_blanket(0), vec![1, 2], "child plus co-parent");
        assert_eq!(g.markov_blanket(2), vec![0, 1, 3]);
        assert_eq!(g.markov_blanket(3), vec![2]);
        assert!(g.markov_blanket(4).is_empty());
    }

    #[test]
    #[should_panic(expected = "creates a cycle")]
    fn from_edges_panics_on_cycle() {
        let _ = Dag::from_edges(3, &[(0, 1), (1, 2), (2, 0)]);
    }
}
