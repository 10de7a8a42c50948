//! Second-order regression trees with histogram split finding.
//!
//! Trees are grown depth-first on per-sample gradient/hessian pairs with the
//! XGBoost gain criterion
//!
//! ```text
//! gain = GL²/(HL+λ) + GR²/(HR+λ) − G²/(H+λ)
//! ```
//!
//! and leaf weights `−G/(H+λ)`. Split candidates are bin boundaries produced
//! by [`crate::dataset::Binner`]; the chosen split stores the raw cut value
//! so prediction needs only the original (unbinned) feature vector.

use crate::dataset::{BinnedDataset, Binner, Dataset};
use serde::{Deserialize, Error, Serialize, Value};

/// The five parallel arrays of [`Tree::to_flat_parts`]:
/// `(feature, threshold, left, right, gain)`.
pub type FlatParts = (Vec<u32>, Vec<f64>, Vec<u32>, Vec<u32>, Vec<f64>);

/// Tree-growing hyper-parameters.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct TreeParams {
    /// Maximum tree depth (root = depth 0; `max_depth = 6` as in the paper).
    pub max_depth: usize,
    /// L2 regularization λ on leaf weights.
    pub lambda: f64,
    /// Minimum hessian sum per child.
    pub min_child_weight: f64,
    /// Minimum samples per leaf.
    pub min_samples_leaf: usize,
    /// Minimum gain required to split.
    pub min_gain: f64,
}

impl Default for TreeParams {
    fn default() -> Self {
        Self {
            max_depth: 6,
            lambda: 1.0,
            min_child_weight: 1.0,
            min_samples_leaf: 1,
            min_gain: 1e-8,
        }
    }
}

/// Rows a batched walk pushes through a tree in lockstep. Eight overlaps
/// enough dependent node loads to hide their latency; four and sixteen
/// were both measurably slower (DESIGN §9).
const BLOCK: usize = 8;

/// Packed arena node. A split sends a row left iff
/// `x[feature] <= threshold`. A leaf's children point at itself and its
/// weight sits in `threshold`, so a walk that has reached it stays put
/// whatever it compares; `feature` is 0 there, a column any row that
/// reached the leaf through a split has.
#[derive(Debug, Clone, Copy)]
struct Node {
    threshold: f64,
    feature: u32,
    left: u32,
    right: u32,
}

const _: () = assert!(std::mem::size_of::<Node>() == 24);

impl Node {
    fn leaf(at: u32, weight: f64) -> Self {
        Node {
            threshold: weight,
            feature: 0,
            left: at,
            right: at,
        }
    }

    /// Children after their parent (`from_flat_parts` enforces it), so
    /// only a leaf loops back to its own index.
    fn is_leaf(&self, at: usize) -> bool {
        self.left as usize == at
    }
}

/// A trained regression tree: one arena of packed nodes, root first,
/// children after their parent.
#[derive(Debug, Clone)]
pub struct Tree {
    nodes: Vec<Node>,
    /// Split gains parallel to `nodes` (0 at leaves), kept out of the
    /// walked nodes because only feature importance reads them.
    gains: Vec<f64>,
    /// Longest root-to-leaf path; every walk takes exactly this many steps.
    depth: usize,
}

/// The serde image of a node, an externally tagged enum, so JSON snapshots
/// have the `{"nodes":[{"Split":…},{"Leaf":…}]}` shape existing artefacts
/// use.
#[derive(Serialize, Deserialize)]
enum NodeImage {
    Leaf {
        weight: f64,
    },
    Split {
        feature: u32,
        threshold: f64,
        gain: f64,
        left: u32,
        right: u32,
    },
}

#[derive(Serialize, Deserialize)]
struct TreeImage {
    nodes: Vec<NodeImage>,
}

impl Serialize for Tree {
    fn to_value(&self) -> Value {
        let nodes = self
            .flat_nodes()
            .map(|(feature, threshold, left, right, gain)| {
                if feature == u32::MAX {
                    NodeImage::Leaf { weight: threshold }
                } else {
                    NodeImage::Split {
                        feature,
                        threshold,
                        gain,
                        left,
                        right,
                    }
                }
            })
            .collect();
        TreeImage { nodes }.to_value()
    }
}

impl Deserialize for Tree {
    /// Restores through [`Tree::from_flat_parts`], so a JSON tree passes
    /// the same structural check as a store-restored one.
    fn from_value(v: &Value) -> Result<Self, Error> {
        let image = TreeImage::from_value(v)?;
        let (feature, threshold, left, right, gain) =
            collect_parts(image.nodes.iter().map(|node| match *node {
                NodeImage::Leaf { weight } => (u32::MAX, weight, 0, 0, 0.0),
                NodeImage::Split {
                    feature,
                    threshold,
                    gain,
                    left,
                    right,
                } => (feature, threshold, left, right, gain),
            }));
        Tree::from_flat_parts(&feature, &threshold, &left, &right, &gain)
            .ok_or_else(|| Error::custom("Tree: nodes do not form a tree"))
    }
}

/// Unzips exported nodes into the five arrays of [`FlatParts`].
fn collect_parts(nodes: impl ExactSizeIterator<Item = (u32, f64, u32, u32, f64)>) -> FlatParts {
    let n = nodes.len();
    let mut parts: FlatParts = (
        Vec::with_capacity(n),
        Vec::with_capacity(n),
        Vec::with_capacity(n),
        Vec::with_capacity(n),
        Vec::with_capacity(n),
    );
    for (f, t, l, r, g) in nodes {
        parts.0.push(f);
        parts.1.push(t);
        parts.2.push(l);
        parts.3.push(r);
        parts.4.push(g);
    }
    parts
}

impl Tree {
    /// Fits a tree on the given gradient/hessian pairs over the rows in
    /// `indices`. `columns` restricts split search to a feature subset
    /// (column subsampling); pass all columns for no subsampling.
    #[allow(clippy::too_many_arguments)]
    pub fn fit(
        data: &Dataset,
        binned: &BinnedDataset,
        binner: &Binner,
        grads: &[f64],
        hess: &[f64],
        indices: &[usize],
        columns: &[usize],
        params: &TreeParams,
    ) -> Self {
        // lint:allow(no-panic): train-pipeline invariant — gradient and hessian vectors are built in lockstep by the booster
        assert_eq!(grads.len(), hess.len());
        // lint:allow(no-panic): fit is gated on a non-empty dataset upstream (to_dataset returns None when empty)
        assert!(!indices.is_empty(), "cannot fit a tree on zero rows");
        let _ = data; // kept in the signature for API symmetry with predict paths
        let mut tree = Tree {
            nodes: Vec::new(),
            gains: Vec::new(),
            depth: 0,
        };
        let mut idx = indices.to_vec();
        let n = idx.len();
        tree.build(
            binned, binner, grads, hess, &mut idx, 0, n, 0, columns, params,
        );
        tree.nodes.shrink_to_fit();
        tree.gains.shrink_to_fit();
        tree
    }

    /// Creates a single-leaf tree with a constant output.
    pub fn constant(weight: f64) -> Self {
        Tree {
            nodes: vec![Node::leaf(0, weight)],
            gains: vec![0.0],
            depth: 0,
        }
    }

    /// Number of nodes.
    pub fn n_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Number of leaves.
    pub fn n_leaves(&self) -> usize {
        self.nodes
            .iter()
            .enumerate()
            .filter(|(at, n)| n.is_leaf(*at))
            .count()
    }

    /// Adds each split's gain to `into[feature]` (gain-based feature
    /// importance, as reported by XGBoost's `total_gain`).
    ///
    /// # Panics
    /// Panics if a split references a feature outside `into`.
    pub fn accumulate_importance(&self, into: &mut [f64]) {
        for (at, (node, gain)) in self.nodes.iter().zip(&self.gains).enumerate() {
            if !node.is_leaf(at) {
                into[node.feature as usize] += gain.max(0.0);
            }
        }
    }

    /// The nodes as `(feature, threshold, left, right, gain)` in the
    /// exported form: leaves tagged `feature = u32::MAX` with zero children
    /// and zero gain.
    fn flat_nodes(&self) -> impl ExactSizeIterator<Item = (u32, f64, u32, u32, f64)> + '_ {
        self.nodes
            .iter()
            .zip(&self.gains)
            .enumerate()
            .map(|(at, (n, &gain))| {
                if n.is_leaf(at) {
                    (u32::MAX, n.threshold, 0, 0, 0.0)
                } else {
                    (n.feature, n.threshold, n.left, n.right, gain)
                }
            })
    }

    /// Exports the arena as five parallel arrays for the artefact store:
    /// `(feature, threshold, left, right, gain)`. Leaves are tagged
    /// `feature = u32::MAX`, with the leaf weight in the threshold slot,
    /// zero children and zero gain. The inverse is
    /// [`Tree::from_flat_parts`]; a round trip is bit-exact.
    pub fn to_flat_parts(&self) -> FlatParts {
        collect_parts(self.flat_nodes())
    }

    /// Rebuilds a tree from [`Tree::to_flat_parts`] arrays. Returns `None`
    /// on malformed input: mismatched lengths, zero nodes, a leaf with
    /// nonzero children, a split child index that is out of bounds or not
    /// strictly greater than its parent, or a non-root node without
    /// exactly one parent. The arena is built depth-first, so children
    /// always follow their parent; enforcing that, and one parent per
    /// node, makes the input a tree whose depth is well defined, so the
    /// fixed-depth walk ends on a leaf.
    pub fn from_flat_parts(
        feature: &[u32],
        threshold: &[f64],
        left: &[u32],
        right: &[u32],
        gain: &[f64],
    ) -> Option<Self> {
        let n = feature.len();
        if n == 0
            || n > u32::MAX as usize
            || threshold.len() != n
            || left.len() != n
            || right.len() != n
            || gain.len() != n
        {
            return None;
        }
        // Depth of each node once its parent has been seen; `None` until then.
        let mut level: Vec<Option<usize>> = vec![None; n];
        level[0] = Some(0);
        let mut nodes = Vec::with_capacity(n);
        let mut gains = Vec::with_capacity(n);
        let mut depth = 0;
        for at in 0..n {
            // Every parent precedes its child, so an unseen node is an orphan.
            let d = level[at]?;
            if feature[at] == u32::MAX {
                if left[at] != 0 || right[at] != 0 {
                    return None;
                }
                nodes.push(Node::leaf(at as u32, threshold[at]));
                gains.push(0.0);
                depth = depth.max(d);
            } else {
                for child in [left[at] as usize, right[at] as usize] {
                    if child <= at || child >= n || level[child].is_some() {
                        return None;
                    }
                    level[child] = Some(d + 1);
                }
                nodes.push(Node {
                    threshold: threshold[at],
                    feature: feature[at],
                    left: left[at],
                    right: right[at],
                });
                gains.push(gain[at]);
            }
        }
        Some(Tree {
            nodes,
            gains,
            depth,
        })
    }

    /// Predicts the leaf weight for a raw (unbinned) feature row.
    pub fn predict(&self, row: &[f64]) -> f64 {
        let [weight] = self.walk([row]);
        weight
    }

    /// Folds each row's leaf weight into its accumulator, in row order:
    /// `fold(&mut acc[i], leaf(rows[i]))`. Blocks of [`BLOCK`] rows walk the
    /// tree in lockstep; the tail walks one row at a time. Both run the one
    /// kernel, so every row gets the same leaf as [`Tree::predict`].
    pub(crate) fn fold_leaves<R: AsRef<[f64]>>(
        &self,
        rows: &[R],
        acc: &mut [f64],
        fold: impl Fn(&mut f64, f64),
    ) {
        debug_assert_eq!(rows.len(), acc.len());
        let mut row_blocks = rows.chunks_exact(BLOCK);
        let mut acc_blocks = acc.chunks_exact_mut(BLOCK);
        for (block, out) in (&mut row_blocks).zip(&mut acc_blocks) {
            let leaves: [f64; BLOCK] = self.walk(std::array::from_fn(|k| block[k].as_ref()));
            for (a, weight) in out.iter_mut().zip(leaves) {
                fold(a, weight);
            }
        }
        for (row, a) in row_blocks
            .remainder()
            .iter()
            .zip(acc_blocks.into_remainder())
        {
            fold(a, self.predict(row.as_ref()));
        }
    }

    /// The traversal kernel: `B` rows take exactly `depth` branch-free steps
    /// each, interleaved so their dependent node loads overlap. A row whose
    /// leaf is shallower than `depth` self-loops on it for the spare steps.
    /// NaN compares false, so it goes right, as in any `<=` walk.
    fn walk<const B: usize>(&self, rows: [&[f64]; B]) -> [f64; B] {
        let mut at = [0u32; B];
        for _ in 0..self.depth {
            for (i, row) in at.iter_mut().zip(rows) {
                let node = self.nodes[*i as usize];
                *i = if row[node.feature as usize] <= node.threshold {
                    node.left
                } else {
                    node.right
                };
            }
        }
        at.map(|i| self.nodes[i as usize].threshold)
    }

    /// Recursively builds the subtree over `idx[start..end]`, returning the
    /// arena index of the created node. Partitions `idx` in place.
    #[allow(clippy::too_many_arguments)]
    fn build(
        &mut self,
        binned: &BinnedDataset,
        binner: &Binner,
        grads: &[f64],
        hess: &[f64],
        idx: &mut Vec<usize>,
        start: usize,
        end: usize,
        depth: usize,
        columns: &[usize],
        params: &TreeParams,
    ) -> u32 {
        let rows = &idx[start..end];
        let g_sum: f64 = rows.iter().map(|&r| grads[r]).sum();
        let h_sum: f64 = rows.iter().map(|&r| hess[r]).sum();
        let leaf_weight = -g_sum / (h_sum + params.lambda);

        let make_leaf = |tree: &mut Tree| -> u32 {
            let at = tree.nodes.len() as u32;
            tree.nodes.push(Node::leaf(at, leaf_weight));
            tree.gains.push(0.0);
            tree.depth = tree.depth.max(depth);
            at
        };

        if depth >= params.max_depth
            || rows.len() < 2 * params.min_samples_leaf
            || rows.len() < 2
            || h_sum < 2.0 * params.min_child_weight
        {
            return make_leaf(self);
        }

        // Best split search over bin histograms.
        let parent_score = g_sum * g_sum / (h_sum + params.lambda);
        let mut best: Option<(usize, u8, f64)> = None; // (feature, bin, gain)
        let mut hist_g = [0.0f64; Binner::MAX_BINS];
        let mut hist_h = [0.0f64; Binner::MAX_BINS];
        let mut hist_c = [0usize; Binner::MAX_BINS];

        for &c in columns {
            let n_bins = binner.n_bins(c);
            if n_bins < 2 {
                continue; // constant feature
            }
            hist_g[..n_bins].fill(0.0);
            hist_h[..n_bins].fill(0.0);
            hist_c[..n_bins].fill(0);
            for &r in rows {
                let b = binned.bin(r, c) as usize;
                hist_g[b] += grads[r];
                hist_h[b] += hess[r];
                hist_c[b] += 1;
            }
            let mut gl = 0.0;
            let mut hl = 0.0;
            let mut cl = 0usize;
            // Split after bin b (left = bins 0..=b); last bin can't split.
            for b in 0..n_bins - 1 {
                gl += hist_g[b];
                hl += hist_h[b];
                cl += hist_c[b];
                let gr = g_sum - gl;
                let hr = h_sum - hl;
                let cr = rows.len() - cl;
                if cl < params.min_samples_leaf
                    || cr < params.min_samples_leaf
                    || hl < params.min_child_weight
                    || hr < params.min_child_weight
                {
                    continue;
                }
                let gain =
                    gl * gl / (hl + params.lambda) + gr * gr / (hr + params.lambda) - parent_score;
                if gain > params.min_gain && best.map(|(_, _, g)| gain > g).unwrap_or(true) {
                    best = Some((c, b as u8, gain));
                }
            }
        }

        let Some((feature, bin, gain)) = best else {
            return make_leaf(self);
        };

        // Partition idx[start..end] in place: bin <= split bin goes left.
        let mut mid = start;
        let mut i = start;
        let mut j = end;
        while i < j {
            if binned.bin(idx[i], feature) <= bin {
                idx.swap(i, mid);
                mid += 1;
                i += 1;
            } else {
                j -= 1;
                idx.swap(i, j);
            }
        }
        debug_assert!(mid > start && mid < end, "split produced an empty child");

        let threshold = binner.cuts(feature)[bin as usize];
        let node_pos = self.nodes.len();
        // Placeholder; children indices patched after recursion.
        self.nodes.push(Node {
            threshold,
            feature: feature as u32,
            left: 0,
            right: 0,
        });
        self.gains.push(gain);
        let left = self.build(
            binned,
            binner,
            grads,
            hess,
            idx,
            start,
            mid,
            depth + 1,
            columns,
            params,
        );
        let right = self.build(
            binned,
            binner,
            grads,
            hess,
            idx,
            mid,
            end,
            depth + 1,
            columns,
            params,
        );
        let node = &mut self.nodes[node_pos];
        node.left = left;
        node.right = right;
        node_pos as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Fits a tree directly on squared-error gradients of targets
    /// (pred = 0 start, grad = -y, hess = 1): the leaf weights then equal
    /// regularized leaf means of y.
    fn fit_on_targets(data: &Dataset, params: &TreeParams) -> Tree {
        let binner = Binner::fit(data, 32);
        let binned = binner.transform(data);
        let grads: Vec<f64> = data.targets().iter().map(|&y| -y).collect();
        let hess = vec![1.0; data.n_rows()];
        let indices: Vec<usize> = (0..data.n_rows()).collect();
        let columns: Vec<usize> = (0..data.n_cols()).collect();
        Tree::fit(
            data, &binned, &binner, &grads, &hess, &indices, &columns, params,
        )
    }

    fn step_data() -> Dataset {
        // y = 0 for x < 50, y = 10 for x >= 50.
        let rows: Vec<Vec<f64>> = (0..100).map(|i| vec![i as f64]).collect();
        let targets: Vec<f64> = (0..100).map(|i| if i < 50 { 0.0 } else { 10.0 }).collect();
        Dataset::from_rows(&rows, &targets)
    }

    #[test]
    fn learns_a_step_function() {
        let data = step_data();
        let tree = fit_on_targets(&data, &TreeParams::default());
        assert!(tree.n_leaves() >= 2);
        let lo = tree.predict(&[10.0]);
        let hi = tree.predict(&[90.0]);
        assert!(lo < 1.0, "lo={lo}");
        assert!(hi > 9.0, "hi={hi}");
    }

    #[test]
    fn constant_tree() {
        let t = Tree::constant(3.5);
        assert_eq!(t.predict(&[1.0, 2.0]), 3.5);
        assert_eq!(t.n_nodes(), 1);
    }

    #[test]
    fn depth_zero_yields_single_leaf() {
        let data = step_data();
        let params = TreeParams {
            max_depth: 0,
            ..Default::default()
        };
        let tree = fit_on_targets(&data, &params);
        assert_eq!(tree.n_nodes(), 1);
        // Leaf = regularized mean of y: 500/(100+1)
        let w = tree.predict(&[0.0]);
        assert!((w - 500.0 / 101.0).abs() < 1e-9);
    }

    #[test]
    fn respects_max_depth() {
        // Noisy-ish data that wants many splits.
        let rows: Vec<Vec<f64>> = (0..256).map(|i| vec![i as f64]).collect();
        let targets: Vec<f64> = (0..256).map(|i| ((i * 7919) % 97) as f64).collect();
        let data = Dataset::from_rows(&rows, &targets);
        for depth in [1usize, 2, 3] {
            let params = TreeParams {
                max_depth: depth,
                ..Default::default()
            };
            let tree = fit_on_targets(&data, &params);
            assert!(
                tree.n_leaves() <= 1 << depth,
                "depth {depth}: {} leaves",
                tree.n_leaves()
            );
        }
    }

    #[test]
    fn min_samples_leaf_enforced() {
        let data = step_data();
        let params = TreeParams {
            min_samples_leaf: 60, // each child would need >= 60 of 100 rows: impossible
            ..Default::default()
        };
        let tree = fit_on_targets(&data, &params);
        assert_eq!(tree.n_leaves(), 1);
    }

    #[test]
    fn constant_target_produces_single_leaf() {
        let rows: Vec<Vec<f64>> = (0..50).map(|i| vec![i as f64]).collect();
        let data = Dataset::from_rows(&rows, &vec![7.0; 50]);
        let tree = fit_on_targets(&data, &TreeParams::default());
        assert_eq!(tree.n_leaves(), 1, "no gain available on constant target");
    }

    #[test]
    fn column_subset_restricts_splits() {
        // Feature 0 is informative, feature 1 is noise; restrict to column 1.
        let rows: Vec<Vec<f64>> = (0..100).map(|i| vec![i as f64, (i % 3) as f64]).collect();
        let targets: Vec<f64> = (0..100).map(|i| if i < 50 { 0.0 } else { 10.0 }).collect();
        let data = Dataset::from_rows(&rows, &targets);
        let binner = Binner::fit(&data, 32);
        let binned = binner.transform(&data);
        let grads: Vec<f64> = targets.iter().map(|&y| -y).collect();
        let hess = vec![1.0; 100];
        let indices: Vec<usize> = (0..100).collect();
        let tree = Tree::fit(
            &data,
            &binned,
            &binner,
            &grads,
            &hess,
            &indices,
            &[1],
            &TreeParams::default(),
        );
        // Splitting on the noise column can't separate the step cleanly:
        // prediction at x0=10 and x0=90 with identical x1 must be equal.
        assert_eq!(tree.predict(&[10.0, 1.0]), tree.predict(&[90.0, 1.0]));
    }

    #[test]
    fn two_feature_interaction() {
        // y = 5 iff x0 > 50 and x1 > 50 — needs depth 2.
        let mut rows = Vec::new();
        let mut targets = Vec::new();
        for a in 0..20 {
            for b in 0..20 {
                let x0 = a as f64 * 5.0;
                let x1 = b as f64 * 5.0;
                rows.push(vec![x0, x1]);
                targets.push(if x0 > 50.0 && x1 > 50.0 { 5.0 } else { 0.0 });
            }
        }
        let data = Dataset::from_rows(&rows, &targets);
        let tree = fit_on_targets(&data, &TreeParams::default());
        assert!(tree.predict(&[80.0, 80.0]) > 4.0);
        assert!(tree.predict(&[80.0, 10.0]) < 1.0);
        assert!(tree.predict(&[10.0, 80.0]) < 1.0);
    }

    #[test]
    fn flat_parts_round_trip_is_bit_exact() {
        let data = step_data();
        let tree = fit_on_targets(&data, &TreeParams::default());
        let (f, t, l, r, g) = tree.to_flat_parts();
        let back = Tree::from_flat_parts(&f, &t, &l, &r, &g).unwrap();
        assert_eq!(back.n_nodes(), tree.n_nodes());
        assert_eq!(back.n_leaves(), tree.n_leaves());
        for x in [0.0, 10.0, 49.0, 50.0, 51.0, 99.0] {
            assert_eq!(
                back.predict(&[x]).to_bits(),
                tree.predict(&[x]).to_bits(),
                "x={x}"
            );
        }
        let mut imp_a = vec![0.0; 1];
        let mut imp_b = vec![0.0; 1];
        tree.accumulate_importance(&mut imp_a);
        back.accumulate_importance(&mut imp_b);
        assert_eq!(imp_a[0].to_bits(), imp_b[0].to_bits());
    }

    #[test]
    fn from_flat_parts_rejects_malformed() {
        // Length mismatch.
        assert!(Tree::from_flat_parts(&[u32::MAX], &[1.0, 2.0], &[0], &[0], &[0.0]).is_none());
        // Zero nodes.
        assert!(Tree::from_flat_parts(&[], &[], &[], &[], &[]).is_none());
        // Split child out of bounds.
        assert!(
            Tree::from_flat_parts(&[0, u32::MAX], &[1.0, 2.0], &[1, 0], &[9, 0], &[0.5, 0.0])
                .is_none()
        );
        // Split child pointing backwards (cycle).
        assert!(Tree::from_flat_parts(
            &[0, 0, u32::MAX],
            &[1.0, 1.0, 2.0],
            &[1, 0, 0],
            &[2, 2, 0],
            &[0.5, 0.5, 0.0]
        )
        .is_none());
        // Leaf with nonzero children.
        assert!(Tree::from_flat_parts(&[u32::MAX], &[1.0], &[1], &[0], &[0.0]).is_none());
        // Node 2 has two parents (0 and 1).
        let leaf = u32::MAX;
        assert!(Tree::from_flat_parts(
            &[0, 0, leaf, leaf],
            &[1.0, 1.0, 2.0, 3.0],
            &[1, 2, 0, 0],
            &[2, 3, 0, 0],
            &[0.5, 0.5, 0.0, 0.0]
        )
        .is_none());
        // Node 3 has no parent.
        assert!(Tree::from_flat_parts(
            &[0, leaf, leaf, leaf],
            &[1.0, 1.0, 2.0, 3.0],
            &[1, 0, 0, 0],
            &[2, 0, 0, 0],
            &[0.5, 0.0, 0.0, 0.0]
        )
        .is_none());
    }

    #[test]
    fn depth_is_the_longest_root_to_leaf_path() {
        // A ramp over 32 bins wants every split a depth cap up to 5 allows.
        let rows: Vec<Vec<f64>> = (0..256).map(|i| vec![i as f64]).collect();
        let targets: Vec<f64> = (0..256).map(|i| i as f64).collect();
        let data = Dataset::from_rows(&rows, &targets);
        for max_depth in [0usize, 1, 2, 3, 4] {
            let params = TreeParams {
                max_depth,
                ..Default::default()
            };
            let tree = fit_on_targets(&data, &params);
            assert_eq!(tree.depth, max_depth);
            assert_eq!(tree.nodes.capacity(), tree.nodes.len());
            let (f, t, l, r, g) = tree.to_flat_parts();
            let back = Tree::from_flat_parts(&f, &t, &l, &r, &g).unwrap();
            assert_eq!(back.depth, tree.depth);
        }
        assert_eq!(Tree::constant(1.0).depth, 0);
    }

    proptest! {
        #[test]
        fn prop_prediction_bounded_by_target_range(
            pairs in proptest::collection::vec((-100.0f64..100.0, -50.0f64..50.0), 10..100),
            probe in -100.0f64..100.0,
        ) {
            let rows: Vec<Vec<f64>> = pairs.iter().map(|p| vec![p.0]).collect();
            let targets: Vec<f64> = pairs.iter().map(|p| p.1).collect();
            let data = Dataset::from_rows(&rows, &targets);
            let tree = fit_on_targets(&data, &TreeParams::default());
            let lo = targets.iter().cloned().fold(f64::INFINITY, f64::min);
            let hi = targets.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            let p = tree.predict(&[probe]);
            // Leaf weights are shrunk means, so they stay within (even inside) range.
            prop_assert!(p >= lo - 1e-9 && p <= hi + 1e-9, "p={} not in [{}, {}]", p, lo, hi);
        }

        #[test]
        fn prop_deterministic(
            pairs in proptest::collection::vec((0.0f64..100.0, 0.0f64..10.0), 5..50),
        ) {
            let rows: Vec<Vec<f64>> = pairs.iter().map(|p| vec![p.0]).collect();
            let targets: Vec<f64> = pairs.iter().map(|p| p.1).collect();
            let data = Dataset::from_rows(&rows, &targets);
            let t1 = fit_on_targets(&data, &TreeParams::default());
            let t2 = fit_on_targets(&data, &TreeParams::default());
            for x in [0.0, 25.0, 50.0, 75.0, 100.0] {
                prop_assert_eq!(t1.predict(&[x]), t2.predict(&[x]));
            }
        }
    }
}
