//! Critical-path filtering of a slice (paper Section 3.5).
//!
//! The relaxation indexes its state by position in the slice's sorted
//! node list. Each `(consumer, producer)` edge is mapped once to a pair of
//! node indices; an edge with an endpoint outside the slice contributes
//! nothing and is dropped. `lat`, `up` and `down` are plain `f64` vectors,
//! relaxed in sorted edge order, so every addition and comparison happens
//! in the same sequence as in the `HashMap`-keyed relaxation this
//! replaced. That version lives on in this module's tests as the oracle:
//! a proptest requires equal kept sets on random cyclic slices, and
//! `tests/slicer_oracle.rs` pins the kept sets of every workload's slices.

use crate::Slice;
use crisp_isa::{Pc, Program};
use std::collections::{HashMap, HashSet};

/// Latency model for critical-path analysis (paper Section 3.5): fixed
/// latencies per the processor implementation, except loads, which use the
/// per-PC average memory access time measured during profiling.
#[derive(Clone, Debug, Default)]
pub struct LatencyModel {
    amat: HashMap<Pc, f64>,
    default_load_latency: f64,
}

impl LatencyModel {
    /// Creates a model with measured per-load AMATs; loads without a
    /// measurement fall back to `default_load_latency` (an L1 hit).
    pub fn new(amat: HashMap<Pc, f64>, default_load_latency: f64) -> LatencyModel {
        LatencyModel {
            amat,
            default_load_latency,
        }
    }

    /// The latency assigned to the instruction at `pc`.
    pub fn latency(&self, program: &Program, pc: Pc) -> f64 {
        let inst = program.inst(pc);
        if inst.is_load() {
            *self
                .amat
                .get(&pc)
                .unwrap_or(&self.default_load_latency.max(1.0))
        } else {
            f64::from(inst.op.latency())
        }
    }
}

/// Filters a slice down to the instructions lying on (near-)critical paths
/// of its latency-weighted DAG.
///
/// For each slice instruction the analysis computes the longest
/// latency-weighted path from any leaf, through that instruction, to the
/// root (the delinquent load / branch). Instructions whose best path is at
/// least `keep_fraction` of the overall critical path survive; the rest
/// are dropped so they do not occupy scheduler priority (Section 3.5's
/// answer to slices that would fill the whole reservation station).
///
/// Loop-carried slices make the static edge set cyclic; path lengths are
/// computed by bounded relaxation, which converges to the acyclic longest
/// path and merely saturates on cycles.
///
/// The root is always retained. `keep_fraction` is clamped to `[0, 1]`.
///
/// # Panics
///
/// Panics if the slice is non-empty and does not contain its root.
pub fn critical_path_filter(
    program: &Program,
    slice: &Slice,
    model: &LatencyModel,
    keep_fraction: f64,
) -> HashSet<Pc> {
    let keep_fraction = keep_fraction.clamp(0.0, 1.0);
    let mut kept = HashSet::new();
    if slice.pcs.is_empty() {
        return kept;
    }
    kept.insert(slice.root);
    let nodes: Vec<Pc> = {
        let mut v: Vec<Pc> = slice.pcs.iter().copied().collect();
        v.sort_unstable();
        v
    };
    let node = |pc: Pc| nodes.binary_search(&pc).ok();
    let lat: Vec<f64> = nodes.iter().map(|&pc| model.latency(program, pc)).collect();
    // Relaxation is bounded, so on cyclic (loop-carried) edge sets the
    // saturated values depend on edge visit order. Sort so the result is a
    // pure function of the slice, not of `HashSet` iteration order; the
    // index map is monotone, so the pairs keep that order.
    let edges: Vec<(usize, usize)> = {
        let mut v: Vec<(Pc, Pc)> = slice.edges.iter().copied().collect();
        v.sort_unstable();
        v.into_iter()
            .filter_map(|(consumer, producer)| Some((node(consumer)?, node(producer)?)))
            .collect()
    };

    // `up[n]`: longest path latency from n (inclusive) up to the root,
    // following producer→consumer direction. `down[n]`: longest chain
    // strictly below n towards the leaves.
    let root = node(slice.root).expect("the root is a slice node");
    let mut up = vec![f64::NEG_INFINITY; nodes.len()];
    up[root] = lat[root];
    let mut down = vec![0.0; nodes.len()];

    // Bounded relaxation (handles loop-carried cycles gracefully).
    let rounds = nodes.len().min(64) + 1;
    for _ in 0..rounds {
        let mut changed = false;
        for &(consumer, producer) in &edges {
            if up[consumer] == f64::NEG_INFINITY {
                continue;
            }
            let lp = lat[producer];
            let candidate = up[consumer] + lp;
            if candidate > up[producer] + 1e-9 {
                up[producer] = candidate;
                changed = true;
            }
            // down: producer chains extend the consumer's downward reach.
            let cand_down = down[producer] + lp;
            if cand_down > down[consumer] + 1e-9 {
                down[consumer] = cand_down;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }

    let best = (0..nodes.len())
        .filter(|&n| up[n] != f64::NEG_INFINITY)
        .map(|n| up[n] + down[n])
        .fold(0.0f64, f64::max);
    if best <= 0.0 {
        return kept;
    }
    for (n, &pc) in nodes.iter().enumerate() {
        if up[n] == f64::NEG_INFINITY {
            continue; // disconnected from the root (stale edge)
        }
        if up[n] + down[n] >= keep_fraction * best - 1e-9 {
            kept.insert(pc);
        }
    }
    kept
}

#[cfg(test)]
mod tests {
    use super::*;
    use crisp_isa::{AluOp, ProgramBuilder, Reg};
    use proptest::prelude::*;

    fn r(i: u8) -> Reg {
        Reg::new(i)
    }

    /// The `HashMap`-keyed relaxation the index vectors replaced, kept as
    /// their oracle.
    fn hashmap_filter(
        program: &Program,
        slice: &Slice,
        model: &LatencyModel,
        keep_fraction: f64,
    ) -> HashSet<Pc> {
        let keep_fraction = keep_fraction.clamp(0.0, 1.0);
        let mut kept = HashSet::new();
        if slice.pcs.is_empty() {
            return kept;
        }
        kept.insert(slice.root);
        let nodes: Vec<Pc> = {
            let mut v: Vec<Pc> = slice.pcs.iter().copied().collect();
            v.sort_unstable();
            v
        };
        let lat: HashMap<Pc, f64> = nodes
            .iter()
            .map(|&pc| (pc, model.latency(program, pc)))
            .collect();
        let edges: Vec<(Pc, Pc)> = {
            let mut v: Vec<(Pc, Pc)> = slice.edges.iter().copied().collect();
            v.sort_unstable();
            v
        };
        let mut up: HashMap<Pc, f64> = nodes.iter().map(|&n| (n, f64::NEG_INFINITY)).collect();
        up.insert(slice.root, lat[&slice.root]);
        let mut down: HashMap<Pc, f64> = nodes.iter().map(|&n| (n, 0.0)).collect();
        let rounds = nodes.len().min(64) + 1;
        for _ in 0..rounds {
            let mut changed = false;
            for &(consumer, producer) in &edges {
                let (Some(&upc), Some(&lp)) = (up.get(&consumer), lat.get(&producer)) else {
                    continue;
                };
                if upc == f64::NEG_INFINITY {
                    continue;
                }
                let candidate = upc + lp;
                let entry = up.get_mut(&producer).expect("node present");
                if candidate > *entry + 1e-9 {
                    *entry = candidate;
                    changed = true;
                }
                let cand_down = down[&producer] + lp;
                let entry = down.get_mut(&consumer).expect("node present");
                if cand_down > *entry + 1e-9 {
                    *entry = cand_down;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
        let best = nodes
            .iter()
            .filter(|&&n| up[&n] != f64::NEG_INFINITY)
            .map(|&n| up[&n] + down[&n])
            .fold(0.0f64, f64::max);
        if best <= 0.0 {
            return kept;
        }
        for &n in &nodes {
            if up[&n] == f64::NEG_INFINITY {
                continue;
            }
            if up[&n] + down[&n] >= keep_fraction * best - 1e-9 {
                kept.insert(n);
            }
        }
        kept
    }

    /// Instructions in [`mixed_program`].
    const PROGRAM_LEN: u32 = 48;

    /// Load AMATs, with ties against each other and the ALU latencies.
    const AMATS: [f64; 5] = [0.5, 1.0, 3.0, 4.0, 200.0];

    /// A load at every third PC, then an add (latency 1) and a multiply
    /// (latency 3).
    fn mixed_program() -> Program {
        let mut b = ProgramBuilder::new();
        for pc in 0..PROGRAM_LEN {
            match pc % 3 {
                0 => b.load(r(1), r(2), 0, 8),
                1 => b.alu_ri(AluOp::Add, r(1), r(1), 1),
                _ => b.mul(r(1), r(1), r(2)),
            };
        }
        b.halt();
        b.build()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// On random slices of up to 40 nodes, the index vectors keep
        /// exactly the oracle's set at keep fractions 0, 0.5, 0.9, 1 and
        /// a random one. Edge ends index the node list modulo its length
        /// plus three, and the three indices past its end name PCs outside
        /// the slice; random edges among the nodes close cycles and
        /// self-loops, and `dag` keeps only edges to a lower PC. Loads draw
        /// their AMAT from a small set with ties, or stay unmeasured.
        #[test]
        fn index_vectors_match_the_hashmap_relaxation(
            nodes in proptest::collection::vec(0u32..PROGRAM_LEN, 1..41),
            ends in proptest::collection::vec((0usize..1024, 0usize..1024), 0..120),
            amat in proptest::collection::vec(
                0usize..AMATS.len() + 1,
                PROGRAM_LEN as usize..PROGRAM_LEN as usize + 1,
            ),
            default_amat in 0usize..AMATS.len(),
            dag in any::<bool>(),
            random_keep in 0u32..1001,
        ) {
            let program = mixed_program();
            let end = |i: usize| {
                let i = i % (nodes.len() + 3);
                nodes.get(i).copied().unwrap_or(PROGRAM_LEN + i as u32)
            };
            let slice = Slice {
                root: nodes[0],
                pcs: nodes.iter().copied().collect(),
                instances: 1,
                mean_dynamic_len: 0.0,
                edges: ends
                    .iter()
                    .map(|&(c, p)| (end(c), end(p)))
                    .filter(|&(c, p)| !dag || p < c)
                    .collect(),
            };
            let model = LatencyModel::new(
                (0..PROGRAM_LEN)
                    .filter(|&pc| pc % 3 == 0 && amat[pc as usize] < AMATS.len())
                    .map(|pc| (pc, AMATS[amat[pc as usize]]))
                    .collect(),
                AMATS[default_amat],
            );
            for keep in [0.0, 0.5, 0.9, 1.0, f64::from(random_keep) / 1000.0] {
                prop_assert_eq!(
                    critical_path_filter(&program, &slice, &model, keep),
                    hashmap_filter(&program, &slice, &model, keep),
                    "keep {}", keep
                );
            }
        }
    }

    /// Diamond: two address paths into one load; the slow path contains a
    /// missing load (AMAT 200), the fast path a single add.
    fn diamond() -> (Program, Slice, LatencyModel) {
        let mut b = ProgramBuilder::new();
        b.li(r(1), 0x1000); // 0 (shared source)
        b.load(r(2), r(1), 0, 8); // 1: slow path (delinquent, AMAT 200)
        b.alu_ri(AluOp::Add, r(3), r(1), 8); // 2: fast path
        b.alu_rr(AluOp::Add, r(4), r(2), r(3)); // 3: join (address)
        let root = b.load(r(5), r(4), 0, 8); // 4: root load
        b.halt();
        let p = b.build();
        let slice = Slice {
            root,
            pcs: [0, 1, 2, 3, 4].into_iter().collect(),
            instances: 1,
            mean_dynamic_len: 5.0,
            edges: [(4u32, 3u32), (3, 1), (3, 2), (1, 0), (2, 0)]
                .into_iter()
                .collect(),
        };
        let model = LatencyModel::new([(1u32, 200.0)].into_iter().collect(), 4.0);
        (p, slice, model)
    }

    #[test]
    fn keeps_full_slice_at_fraction_zero() {
        let (p, s, m) = diamond();
        let kept = critical_path_filter(&p, &s, &m, 0.0);
        assert_eq!(kept.len(), 5);
    }

    #[test]
    fn drops_fast_path_at_high_fraction() {
        let (p, s, m) = diamond();
        let kept = critical_path_filter(&p, &s, &m, 0.9);
        assert!(kept.contains(&4), "root always kept");
        assert!(kept.contains(&3));
        assert!(kept.contains(&1), "slow (critical) path kept");
        assert!(kept.contains(&0));
        assert!(!kept.contains(&2), "fast path dropped");
    }

    #[test]
    fn root_kept_even_for_empty_edges() {
        let mut b = ProgramBuilder::new();
        let root = b.load(r(1), Reg::ZERO, 0x40, 8);
        b.halt();
        let p = b.build();
        let s = Slice {
            root,
            pcs: [root].into_iter().collect(),
            instances: 1,
            mean_dynamic_len: 1.0,
            edges: HashSet::new(),
        };
        let kept = critical_path_filter(&p, &s, &LatencyModel::default(), 0.8);
        assert_eq!(kept.len(), 1);
        assert!(kept.contains(&root));
    }

    #[test]
    fn empty_slice_yields_empty_set() {
        let mut b = ProgramBuilder::new();
        b.halt();
        let p = b.build();
        let s = Slice {
            root: 0,
            pcs: HashSet::new(),
            instances: 0,
            mean_dynamic_len: 0.0,
            edges: HashSet::new(),
        };
        assert!(critical_path_filter(&p, &s, &LatencyModel::default(), 0.5).is_empty());
    }

    #[test]
    fn cyclic_slice_terminates_and_keeps_cycle_nodes() {
        // Loop-carried pointer chase: load depends on itself.
        let mut b = ProgramBuilder::new();
        b.li(r(1), 0x1000); // 0
        let root = b.load(r(1), r(1), 0, 8); // 1: self-edge
        b.halt();
        let p = b.build();
        let s = Slice {
            root,
            pcs: [0, 1].into_iter().collect(),
            instances: 1,
            mean_dynamic_len: 2.0,
            edges: [(1u32, 1u32), (1, 0)].into_iter().collect(),
        };
        let kept = critical_path_filter(&p, &s, &LatencyModel::default(), 0.5);
        assert!(kept.contains(&1));
        assert!(kept.contains(&0));
    }

    #[test]
    fn latency_model_uses_amat_for_loads_only() {
        let mut b = ProgramBuilder::new();
        b.alu_ri(AluOp::Add, r(1), r(1), 1); // 0
        b.load(r(2), r(1), 0, 8); // 1
        b.load(r(3), r(1), 8, 8); // 2 (unmeasured)
        b.halt();
        let p = b.build();
        let m = LatencyModel::new([(1u32, 150.0)].into_iter().collect(), 4.0);
        assert_eq!(m.latency(&p, 0), 1.0);
        assert_eq!(m.latency(&p, 1), 150.0);
        assert_eq!(m.latency(&p, 2), 4.0);
    }

    #[test]
    fn fraction_is_clamped() {
        let (p, s, m) = diamond();
        let kept_lo = critical_path_filter(&p, &s, &m, -3.0);
        let kept_hi = critical_path_filter(&p, &s, &m, 7.0);
        assert_eq!(kept_lo.len(), 5);
        assert!(kept_hi.contains(&s.root));
    }
}
