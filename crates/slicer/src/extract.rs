//! Backward slice extraction (paper Section 3.3).
//!
//! The walk keys its working state by integers: the trace positions it
//! has visited, the static PCs of the instance it is walking, how many
//! instances each PC appeared in, and the `(consumer, producer)` edges.
//! These sets hash through `IntHasher`, one multiply per word, instead
//! of SipHash, and the visited set and frontier are reused across a
//! root's instances. The result converts to the public [`Slice`] field
//! types once per root. `tests/slicer_oracle.rs` pins the slices of every
//! workload, blessed on the SipHash-keyed walk this replaced.

use crate::DepGraph;
use crisp_isa::{ConfigError, Pc, Program, Trace};
use std::collections::{HashMap, HashSet, VecDeque};
use std::hash::{BuildHasherDefault, Hasher};

/// Hashes the walk's integer keys (trace positions, PCs and PC pairs)
/// with one multiply-and-rotate per word, as rustc's Fx hash does. The
/// keys are dense integers from the trace, not attacker input, so the
/// flood resistance SipHash buys is not needed.
#[derive(Clone, Copy, Default)]
struct IntHasher(u64);

impl Hasher for IntHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u32(u32::from(b));
        }
    }

    fn write_u32(&mut self, n: u32) {
        self.0 = (self.0.rotate_left(5) ^ u64::from(n)).wrapping_mul(0x517c_c1b7_2722_0a95);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

type IntSet<T> = HashSet<T, BuildHasherDefault<IntHasher>>;
type IntMap<K, V> = HashMap<K, V, BuildHasherDefault<IntHasher>>;

/// Configuration of the slice extractor.
#[derive(Clone, Copy, Debug)]
pub struct SliceConfig {
    /// How many dynamic instances of each root to slice (the paper slices
    /// every instance in a 100M-instruction trace; sampling instances and
    /// unioning their static slices converges quickly).
    pub instances_per_root: usize,
    /// Hard cap on dynamic slice nodes explored per instance — load slices
    /// "can contain thousands of instructions" (Section 3.5); the cap
    /// bounds the walk on pathological chains.
    pub max_nodes_per_instance: usize,
    /// Follow store→load dependencies through memory (CRISP: true; the
    /// IBDA baseline's defining limitation is that it cannot).
    pub follow_memory_deps: bool,
    /// Drop slice instructions that appear in fewer than this fraction of
    /// the sampled instances — the paper's "filtering out uncommon code
    /// paths" step (Section 4.1). The root is always kept.
    pub min_instance_fraction: f64,
}

impl SliceConfig {
    /// Validates the extraction knobs: nonzero sampling/walk bounds and an
    /// instance-fraction filter in `[0, 1]`.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] naming the first offending field.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.instances_per_root == 0 {
            return Err(ConfigError::new(
                "instances_per_root",
                "must be nonzero (got 0): no instances means no slices",
            ));
        }
        if self.max_nodes_per_instance == 0 {
            return Err(ConfigError::new(
                "max_nodes_per_instance",
                "must be nonzero (got 0): the walk could never leave the root",
            ));
        }
        if !self.min_instance_fraction.is_finite()
            || !(0.0..=1.0).contains(&self.min_instance_fraction)
        {
            return Err(ConfigError::new(
                "min_instance_fraction",
                format!(
                    "must be a fraction in [0, 1] (got {})",
                    self.min_instance_fraction
                ),
            ));
        }
        Ok(())
    }
}

impl Default for SliceConfig {
    fn default() -> SliceConfig {
        SliceConfig {
            instances_per_root: 16,
            max_nodes_per_instance: 50_000,
            follow_memory_deps: true,
            min_instance_fraction: 0.1,
        }
    }
}

/// The backward slice of one root instruction (a delinquent load or a
/// hard-to-predict branch).
#[derive(Clone, Debug)]
pub struct Slice {
    /// The root instruction.
    pub root: Pc,
    /// Static instructions in the union of the sampled instance slices
    /// (includes the root).
    pub pcs: HashSet<Pc>,
    /// Number of dynamic instances sliced.
    pub instances: usize,
    /// Mean dynamic slice length over the sampled instances (Figure 4's
    /// metric).
    pub mean_dynamic_len: f64,
    /// Producer edges among slice PCs, as `(consumer, producer)` pairs —
    /// the DAG input for critical-path filtering.
    pub edges: HashSet<(Pc, Pc)>,
}

/// Every dynamic instance of every static instruction, in trace order:
/// the root-instance index slice extraction starts from. Building it is
/// two passes over the trace, so callers that slice roots one at a time
/// build it once per trace instead of rescanning the trace per root.
#[derive(Clone, Debug)]
pub struct InstanceIndex {
    /// `seqs[starts[pc]..starts[pc + 1]]` are the instances of `pc`.
    starts: Vec<u32>,
    seqs: Vec<u32>,
}

impl InstanceIndex {
    /// Indexes `trace`, a trace of `program` (a counting sort by PC).
    ///
    /// # Panics
    ///
    /// Panics if the trace is longer than `u32::MAX` records or holds a
    /// PC outside `program`.
    pub fn build(program: &Program, trace: &Trace) -> InstanceIndex {
        assert!(trace.len() < u32::MAX as usize, "trace too long");
        let mut starts = vec![0u32; program.len() + 1];
        for rec in trace {
            starts[rec.pc as usize + 1] += 1;
        }
        for pc in 1..starts.len() {
            starts[pc] += starts[pc - 1];
        }
        let mut next = starts.clone();
        let mut seqs = vec![0u32; trace.len()];
        for (seq, rec) in trace.iter().enumerate() {
            let slot = &mut next[rec.pc as usize];
            seqs[*slot as usize] = seq as u32;
            *slot += 1;
        }
        InstanceIndex { starts, seqs }
    }

    /// The dynamic positions of `pc`, oldest first.
    pub fn instances(&self, pc: Pc) -> &[u32] {
        let pc = pc as usize;
        match (self.starts.get(pc), self.starts.get(pc + 1)) {
            (Some(&start), Some(&end)) => &self.seqs[start as usize..end as usize],
            _ => &[],
        }
    }
}

/// Extracts backward slices for each root PC using the frontier algorithm
/// of paper Section 3.3 — [`extract_slice`] over one [`InstanceIndex`].
///
/// See the crate-level example.
pub fn extract_slices(
    program: &Program,
    trace: &Trace,
    graph: &DepGraph,
    roots: &[Pc],
    config: &SliceConfig,
) -> Vec<Slice> {
    assert!(
        roots.iter().all(|&r| (r as usize) < program.len()),
        "root pc outside program"
    );
    let index = InstanceIndex::build(program, trace);
    roots
        .iter()
        .map(|&root| extract_slice(trace, graph, &index, root, config))
        .collect()
}

/// Extracts the backward slice of one root PC.
///
/// The walk starts at each sampled dynamic instance of the root (the last
/// `instances_per_root`: later instances have deeper history to slice
/// through) and repeatedly expands the oldest unexplored ancestor,
/// terminating a path when (1) the ancestor is already in the slice, (2)
/// the operand is a constant (no producer), or (3) the beginning of the
/// trace is reached. (The paper's rule (3), system-call returns, has no
/// analogue in the mini-ISA.)
pub fn extract_slice(
    trace: &Trace,
    graph: &DepGraph,
    index: &InstanceIndex,
    root: Pc,
    config: &SliceConfig,
) -> Slice {
    let mut appearances: IntMap<Pc, usize> = IntMap::default();
    let mut edges: IntSet<(Pc, Pc)> = IntSet::default();
    let mut walk = Walk::default();
    let seqs = index.instances(root);
    let take = seqs.len().min(config.instances_per_root);
    let sampled = &seqs[seqs.len() - take..];
    let mut total_len = 0usize;
    for &start in sampled {
        total_len += walk.slice_instance(trace, graph, start, config, &mut edges);
        for &pc in &walk.pcs {
            *appearances.entry(pc).or_insert(0) += 1;
        }
    }
    // Section 4.1: drop uncommon code paths — instructions seen in only a
    // small fraction of the sampled instances.
    let min_count = ((config.min_instance_fraction * take as f64).ceil() as usize).max(1);
    let mut pcs: IntSet<Pc> = appearances
        .into_iter()
        .filter(|&(_, n)| n >= min_count)
        .map(|(pc, _)| pc)
        .collect();
    if !seqs.is_empty() {
        pcs.insert(root);
    }
    let edges: HashSet<(Pc, Pc)> = edges
        .into_iter()
        .filter(|(c, p)| pcs.contains(c) && pcs.contains(p))
        .collect();
    Slice {
        root,
        instances: take,
        mean_dynamic_len: if take == 0 {
            0.0
        } else {
            total_len as f64 / take as f64
        },
        pcs: pcs.into_iter().collect(),
        edges,
    }
}

/// One dynamic instance's walk state, cleared and reused across a
/// root's instances so each walk starts from warm allocations.
#[derive(Default)]
struct Walk {
    /// Frontier of unexplored dynamic instances (Section 3.3).
    frontier: VecDeque<u32>,
    visited: IntSet<u32>,
    /// Static PCs of the instance's dynamic slice.
    pcs: IntSet<Pc>,
}

impl Walk {
    /// Walks the instance at `start` backwards, leaving its static PCs in
    /// `self.pcs` and adding its edges to `edges`; returns the dynamic
    /// slice length.
    fn slice_instance(
        &mut self,
        trace: &Trace,
        graph: &DepGraph,
        start: u32,
        config: &SliceConfig,
        edges: &mut IntSet<(Pc, Pc)>,
    ) -> usize {
        self.frontier.clear();
        self.visited.clear();
        self.pcs.clear();
        self.frontier.push_back(start);
        self.visited.insert(start);
        let mut count = 0usize;

        while let Some(seq) = self.frontier.pop_front() {
            count += 1;
            if count > config.max_nodes_per_instance {
                break;
            }
            let consumer_pc = trace.record(u64::from(seq)).pc;
            self.pcs.insert(consumer_pc);
            let mem_prod = if config.follow_memory_deps {
                graph.mem_producer(u64::from(seq))
            } else {
                None
            };
            for prod in graph
                .reg_producers(u64::from(seq))
                .iter()
                .flatten()
                .copied()
                .chain(mem_prod)
            {
                let prod_pc = trace.record(u64::from(prod)).pc;
                edges.insert((consumer_pc, prod_pc));
                // Termination rule: ancestor already explored (covers the
                // recursive loop-carried case of Figure 3). Constants and
                // the trace start terminate naturally (no producer link).
                if self.visited.insert(prod) {
                    self.frontier.push_back(prod);
                }
            }
        }
        count
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crisp_emu::{Emulator, Memory};
    use crisp_isa::{AluOp, Cond, ProgramBuilder, Reg};

    #[test]
    fn slice_config_validation() {
        SliceConfig::default().validate().expect("defaults ok");
        let c = SliceConfig {
            instances_per_root: 0,
            ..SliceConfig::default()
        };
        assert_eq!(c.validate().unwrap_err().field, "instances_per_root");
        let c = SliceConfig {
            max_nodes_per_instance: 0,
            ..SliceConfig::default()
        };
        assert_eq!(c.validate().unwrap_err().field, "max_nodes_per_instance");
        let c = SliceConfig {
            min_instance_fraction: -0.5,
            ..SliceConfig::default()
        };
        assert_eq!(c.validate().unwrap_err().field, "min_instance_fraction");
    }

    fn r(i: u8) -> Reg {
        Reg::new(i)
    }

    fn slices_for(p: &Program, t: &Trace, roots: &[Pc], config: &SliceConfig) -> Vec<Slice> {
        let g = DepGraph::build(p, t);
        extract_slices(p, t, &g, roots, config)
    }

    #[test]
    fn straight_line_address_chain() {
        let mut b = ProgramBuilder::new();
        b.li(r(2), 0x1000); // 0
        b.alu_ri(AluOp::Add, r(1), r(2), 8); // 1
        let load = b.load(r(3), r(1), 0, 8); // 2
        b.halt();
        let p = b.build();
        let t = Emulator::new(&p, Memory::new()).run(100);
        let s = &slices_for(&p, &t, &[load], &SliceConfig::default())[0];
        assert_eq!(s.root, load);
        let mut expect: Vec<Pc> = vec![0, 1, 2];
        let mut got: Vec<Pc> = s.pcs.iter().copied().collect();
        got.sort_unstable();
        expect.sort_unstable();
        assert_eq!(got, expect);
        assert_eq!(s.instances, 1);
        assert!(s.mean_dynamic_len >= 3.0);
    }

    #[test]
    fn forward_dependencies_are_excluded() {
        // Figure 3's point: instructions that only *consume* the load are
        // not in its slice.
        let mut b = ProgramBuilder::new();
        b.li(r(1), 0x1000); // 0
        let load = b.load(r(2), r(1), 0, 8); // 1
        b.alu_ri(AluOp::Add, r(3), r(2), 1); // 2: consumer, NOT in slice
        b.halt();
        let p = b.build();
        let t = Emulator::new(&p, Memory::new()).run(100);
        let s = &slices_for(&p, &t, &[load], &SliceConfig::default())[0];
        assert!(s.pcs.contains(&0));
        assert!(s.pcs.contains(&load));
        assert!(!s.pcs.contains(&2));
    }

    #[test]
    fn recursive_pointer_chase_terminates() {
        // cur = cur->next in a loop: the slice is {li, load} plus loop
        // control never enters (no data dep), and recursion terminates via
        // the already-visited rule.
        let mut mem = Memory::new();
        for i in 0..64u64 {
            mem.write_u64(0x1000 + i * 64, 0x1000 + ((i + 1) % 64) * 64);
        }
        let mut b = ProgramBuilder::new();
        b.li(r(1), 0x1000); // 0
        b.li(r(2), 40); // 1
        let top = b.label();
        b.bind(top);
        let load = b.load(r(1), r(1), 0, 8); // 2
        b.alu_ri(AluOp::Sub, r(2), r(2), 1); // 3
        b.branch(Cond::Ne, r(2), Reg::ZERO, top); // 4
        b.halt();
        let p = b.build();
        let t = Emulator::new(&p, Memory::new().clone()).run(1000);
        let _ = mem;
        let s = &slices_for(&p, &t, &[load], &SliceConfig::default())[0];
        // Slice: the load itself (recursively) and the initial li.
        assert!(s.pcs.contains(&load));
        assert!(s.pcs.contains(&0));
        assert!(!s.pcs.contains(&3), "loop counter not in address slice");
        assert!(!s.pcs.contains(&4), "branch not in address slice");
    }

    #[test]
    fn dependency_through_memory_is_followed() {
        // Spill/reload: slicing through the stack finds the original
        // producer — the paper's key advantage over IBDA.
        let mut b = ProgramBuilder::new();
        b.li(r(30), 0x8000); // 0: stack pointer
        b.li(r(2), 0x4000); // 1: address source
        b.store(r(30), 0, r(2), 8); // 2: spill r2
        b.li(r(2), 0); // 3: clobber r2
        b.load(r(4), r(30), 0, 8); // 4: reload
        let load = b.load(r(5), r(4), 0, 8); // 5: delinquent
        b.halt();
        let p = b.build();
        let t = Emulator::new(&p, Memory::new()).run(100);

        let with_mem = &slices_for(&p, &t, &[load], &SliceConfig::default())[0];
        assert!(with_mem.pcs.contains(&1), "must reach the spilled producer");
        assert!(with_mem.pcs.contains(&2), "spill store in slice");

        let no_mem = SliceConfig {
            follow_memory_deps: false,
            ..SliceConfig::default()
        };
        let without = &slices_for(&p, &t, &[load], &no_mem)[0];
        assert!(
            !without.pcs.contains(&1),
            "register-only slicing must miss the memory-carried producer"
        );
    }

    #[test]
    fn branch_slice_contains_condition_chain() {
        let mut b = ProgramBuilder::new();
        b.li(r(1), 0x1000); // 0
        b.load(r(2), r(1), 0, 8); // 1
        b.alu_ri(AluOp::And, r(3), r(2), 1); // 2
        let skip = b.label();
        let branch = b.branch(Cond::Eq, r(3), Reg::ZERO, skip); // 3
        b.nop(); // 4
        b.bind(skip);
        b.halt();
        let p = b.build();
        let t = Emulator::new(&p, Memory::new()).run(100);
        let s = &slices_for(&p, &t, &[branch], &SliceConfig::default())[0];
        for pc in [0, 1, 2, 3] {
            assert!(s.pcs.contains(&pc), "missing pc {pc}");
        }
        assert!(!s.pcs.contains(&4));
    }

    #[test]
    fn instance_sampling_unions_paths() {
        // A load whose address alternates between two producers across
        // iterations: sampling multiple instances captures both.
        let mut mem = Memory::new();
        mem.write_u64(0x2000, 7);
        mem.write_u64(0x3000, 9);
        let mut b = ProgramBuilder::new();
        b.li(r(5), 4); // 0: counter
        let top = b.label();
        let even = b.label();
        let join = b.label();
        b.bind(top);
        b.alu_ri(AluOp::And, r(6), r(5), 1); // 1
        b.branch(Cond::Eq, r(6), Reg::ZERO, even); // 2
        b.li(r(1), 0x2000); // 3 (odd path)
        b.jump(join); // 4
        b.bind(even);
        b.li(r(1), 0x3000); // 5 (even path)
        b.bind(join);
        let load = b.load(r(2), r(1), 0, 8); // 6
        b.alu_ri(AluOp::Sub, r(5), r(5), 1); // 7
        b.branch(Cond::Ne, r(5), Reg::ZERO, top); // 8
        b.halt();
        let p = b.build();
        let t = Emulator::new(&p, mem).run(1000);
        let s = &slices_for(&p, &t, &[load], &SliceConfig::default())[0];
        assert!(s.pcs.contains(&3), "odd-path producer sampled");
        assert!(s.pcs.contains(&5), "even-path producer sampled");
        assert_eq!(s.instances, 4);
    }

    #[test]
    fn node_cap_bounds_exploration() {
        // A long serial chain with a tiny cap: the walk stops early.
        let mut b = ProgramBuilder::new();
        b.li(r(1), 0);
        for _ in 0..100 {
            b.alu_ri(AluOp::Add, r(1), r(1), 1);
        }
        let load = b.load(r(2), r(1), 0x1000, 8);
        b.halt();
        let p = b.build();
        let t = Emulator::new(&p, Memory::new()).run(1000);
        let cfg = SliceConfig {
            max_nodes_per_instance: 10,
            ..SliceConfig::default()
        };
        let s = &slices_for(&p, &t, &[load], &cfg)[0];
        assert!(s.pcs.len() <= 11);
        assert!(s.mean_dynamic_len <= 11.0);
    }

    #[test]
    fn instance_index_lists_each_pc_in_trace_order() {
        let mut b = ProgramBuilder::new();
        b.li(r(5), 3); // 0
        let top = b.label();
        b.bind(top);
        b.alu_ri(AluOp::Sub, r(5), r(5), 1); // 1
        b.branch(Cond::Ne, r(5), Reg::ZERO, top); // 2
        b.halt(); // 3
        let p = b.build();
        let t = Emulator::new(&p, Memory::new()).run(100);
        let index = InstanceIndex::build(&p, &t);
        assert_eq!(index.instances(0), &[0]);
        assert_eq!(index.instances(1), &[1, 3, 5]);
        assert_eq!(index.instances(2), &[2, 4, 6]);
        assert!(index.instances(99).is_empty(), "outside the program");
    }

    #[test]
    fn unexecuted_root_yields_empty_slice() {
        let mut b = ProgramBuilder::new();
        let done = b.label();
        b.jump(done); // 0
        b.load(r(1), r(2), 0, 8); // 1: dead code
        b.bind(done);
        b.halt();
        let p = b.build();
        let t = Emulator::new(&p, Memory::new()).run(100);
        let s = &slices_for(&p, &t, &[1], &SliceConfig::default())[0];
        assert!(s.pcs.is_empty());
        assert_eq!(s.instances, 0);
        assert_eq!(s.mean_dynamic_len, 0.0);
    }

    #[test]
    fn edges_connect_consumers_to_producers() {
        let mut b = ProgramBuilder::new();
        b.li(r(2), 0x1000); // 0
        b.alu_ri(AluOp::Add, r(1), r(2), 8); // 1
        let load = b.load(r(3), r(1), 0, 8); // 2
        b.halt();
        let p = b.build();
        let t = Emulator::new(&p, Memory::new()).run(100);
        let s = &slices_for(&p, &t, &[load], &SliceConfig::default())[0];
        assert!(s.edges.contains(&(2, 1)));
        assert!(s.edges.contains(&(1, 0)));
        assert!(!s.edges.contains(&(0, 1)));
    }

    #[test]
    fn uncommon_paths_are_filtered() {
        // The load's address comes from producer A on 15 of 16 sampled
        // iterations and from producer B on one: B is an uncommon path.
        let mut b = ProgramBuilder::new();
        b.li(r(5), 32); // 0: counter
        let top = b.label();
        let rare = b.label();
        let join = b.label();
        b.bind(top);
        b.alu_ri(AluOp::And, r(6), r(5), 15); // 1
        b.branch(Cond::Eq, r(6), Reg::ZERO, rare); // 2
        b.li(r(1), 0x2000); // 3: common producer
        b.jump(join); // 4
        b.bind(rare);
        b.li(r(1), 0x3000); // 5: rare producer (1 in 16)
        b.bind(join);
        let load = b.load(r(2), r(1), 0, 8); // 6
        b.alu_ri(AluOp::Sub, r(5), r(5), 1); // 7
        b.branch(Cond::Ne, r(5), Reg::ZERO, top); // 8
        b.halt();
        let p = b.build();
        let t = Emulator::new(&p, Memory::new()).run(10_000);

        let strict = SliceConfig {
            min_instance_fraction: 0.2,
            instances_per_root: 16,
            ..SliceConfig::default()
        };
        let s = &slices_for(&p, &t, &[load], &strict)[0];
        assert!(s.pcs.contains(&3), "common producer kept");
        assert!(!s.pcs.contains(&5), "uncommon path dropped");

        let keep_all = SliceConfig {
            min_instance_fraction: 0.0,
            instances_per_root: 16,
            ..SliceConfig::default()
        };
        let s2 = &slices_for(&p, &t, &[load], &keep_all)[0];
        assert!(s2.pcs.contains(&5), "fraction 0 keeps everything sampled");
    }
}
