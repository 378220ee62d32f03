//! Primary functions: the units the ARK scheduler reasons about.
//!
//! Section III-A: every HE op decomposes into (I)NTT, BConv,
//! automorphism, and other element-wise functions, plus data movement
//! (HBM loads, NoC all-to-all exchanges for the distribution switches).
//! A compiled workload is a dependence graph of these nodes; each node
//! carries its work amount in the natural unit of its resource.

/// Hardware resources a primary function occupies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Resource {
    /// NTT units (work: butterfly multiplies).
    Nttu,
    /// Base-conversion units (work: MACs).
    BconvU,
    /// Automorphism units (work: words).
    AutoU,
    /// Multiply-add units (work: words).
    Madu,
    /// Off-chip memory (work: words).
    Hbm,
    /// Network-on-chip (work: words).
    Noc,
}

/// Kind of data an HBM transfer carries (for the traffic breakdown of
/// Fig. 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DataKind {
    /// Evaluation keys.
    Evk,
    /// Plaintext operands of PMult/PAdd.
    Plaintext,
    /// Ciphertext spill/fill and miscellaneous.
    Other,
}

/// One primary-function node.
#[derive(Debug, Clone, Copy)]
pub struct PfNode {
    /// The resource this node runs on.
    pub resource: Resource,
    /// Work in the resource's unit (butterflies, MACs, or words).
    pub work: u64,
    /// HBM transfers carry their data kind; `None` elsewhere.
    pub data: Option<DataKind>,
    /// Fixed pipeline latency added to the bandwidth term (cycles).
    pub latency: u64,
}

/// Node identifier in a [`PfGraph`].
pub type NodeId = usize;

/// A dependence graph of primary functions in program order.
///
/// Dependencies always point backwards (to earlier nodes), so a single
/// in-order pass is a valid topological traversal. Edges are stored in
/// compressed-sparse-row form: node `id` depends on
/// `deps[dep_start[id]..dep_start[id + 1]]`, so the whole graph is three
/// flat arrays however many nodes it has.
#[derive(Debug)]
pub struct PfGraph {
    nodes: Vec<PfNode>,
    /// `nodes.len() + 1` offsets into `deps`, the first of them 0.
    dep_start: Vec<usize>,
    deps: Vec<NodeId>,
    evk_hits: u64,
    evk_misses: u64,
}

impl Default for PfGraph {
    fn default() -> Self {
        Self::with_capacity(0, 0)
    }
}

impl PfGraph {
    /// An empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty graph with room for `nodes` nodes and `edges` edges.
    pub fn with_capacity(nodes: usize, edges: usize) -> Self {
        let mut dep_start = Vec::with_capacity(nodes + 1);
        dep_start.push(0);
        Self {
            nodes: Vec::with_capacity(nodes),
            dep_start,
            deps: Vec::with_capacity(edges),
            evk_hits: 0,
            evk_misses: 0,
        }
    }

    /// Adds a node with dependencies on earlier nodes.
    ///
    /// # Panics
    ///
    /// Panics if a dependency refers to this or a later node.
    pub fn push(&mut self, node: PfNode, deps: &[NodeId]) -> NodeId {
        let id = self.nodes.len();
        for &d in deps {
            assert!(d < id, "dependency {d} must precede node {id}");
        }
        self.nodes.push(node);
        self.deps.extend_from_slice(deps);
        self.dep_start.push(self.deps.len());
        id
    }

    /// The nodes in program order.
    pub fn nodes(&self) -> &[PfNode] {
        &self.nodes
    }

    /// Dependencies of a node.
    pub fn deps(&self, id: NodeId) -> &[NodeId] {
        &self.deps[self.dep_start[id]..self.dep_start[id + 1]]
    }

    /// Edge count.
    pub fn edge_count(&self) -> usize {
        self.deps.len()
    }

    /// Node count.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when no nodes exist.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Total work on a resource.
    pub fn total_work(&self, resource: Resource) -> u64 {
        self.nodes
            .iter()
            .filter(|n| n.resource == resource)
            .map(|n| n.work)
            .sum()
    }

    /// Total HBM words of a data kind.
    pub fn hbm_words(&self, kind: DataKind) -> u64 {
        self.nodes
            .iter()
            .filter(|n| n.resource == Resource::Hbm && n.data == Some(kind))
            .map(|n| n.work)
            .sum()
    }

    /// Key-switches whose evaluation key the compiler found resident in
    /// the scratchpad (no HBM load emitted).
    pub fn evk_hits(&self) -> u64 {
        self.evk_hits
    }

    /// Key-switches that had to load their evaluation key from HBM.
    pub fn evk_misses(&self) -> u64 {
        self.evk_misses
    }

    /// Records the outcome of one evk-cache access during lowering.
    pub(crate) fn count_evk_access(&mut self, hit: bool) {
        if hit {
            self.evk_hits += 1;
        } else {
            self.evk_misses += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn node(resource: Resource, work: u64) -> PfNode {
        PfNode {
            resource,
            work,
            data: None,
            latency: 0,
        }
    }

    #[test]
    fn graph_accounting() {
        let mut g = PfGraph::new();
        let a = g.push(node(Resource::Nttu, 100), &[]);
        let b = g.push(node(Resource::BconvU, 200), &[a]);
        g.push(node(Resource::Nttu, 50), &[b]);
        assert_eq!(g.len(), 3);
        assert_eq!(g.total_work(Resource::Nttu), 150);
        assert_eq!(g.total_work(Resource::BconvU), 200);
        assert_eq!(g.deps(0), &[] as &[NodeId]);
        assert_eq!(g.deps(1), &[0]);
        assert_eq!(g.deps(2), &[1]);
        assert_eq!(g.edge_count(), 2);
    }

    #[test]
    #[should_panic(expected = "must precede")]
    fn forward_dependency_rejected() {
        let mut g = PfGraph::new();
        g.push(node(Resource::Nttu, 1), &[5]);
    }

    #[test]
    fn hbm_kind_accounting() {
        let mut g = PfGraph::new();
        g.push(
            PfNode {
                resource: Resource::Hbm,
                work: 1000,
                data: Some(DataKind::Evk),
                latency: 0,
            },
            &[],
        );
        g.push(
            PfNode {
                resource: Resource::Hbm,
                work: 500,
                data: Some(DataKind::Plaintext),
                latency: 0,
            },
            &[],
        );
        assert_eq!(g.hbm_words(DataKind::Evk), 1000);
        assert_eq!(g.hbm_words(DataKind::Plaintext), 500);
        assert_eq!(g.hbm_words(DataKind::Other), 0);
    }
}
