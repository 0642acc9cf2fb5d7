use crate::cache::FillOutcome;
use crate::registry::MAX_PREFETCHERS;
use crate::{
    line_of, Cache, CacheConfig, CacheStats, Dram, DramConfig, DramStats, Prefetcher,
    PrefetcherRegistry, PrefetcherSpec, LINE_BYTES, PF_OTHER,
};
use std::collections::HashMap;

/// Which level served an access.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum HitLevel {
    /// Served by the first-level cache.
    L1,
    /// Served by the last-level cache.
    Llc,
    /// Served by DRAM (an LLC miss).
    Dram,
}

/// The outcome of one memory access.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AccessResult {
    /// Access latency in core cycles.
    pub latency: u64,
    /// The level that served the access (in-flight merges report the level
    /// the original miss went to).
    pub level: HitLevel,
}

impl AccessResult {
    /// The cycle at which the data is available, given the access started
    /// at `now`.
    pub fn ready_at(&self, now: u64) -> u64 {
        now + self.latency
    }
}

/// Full configuration of the memory hierarchy.
#[derive(Clone, Copy, Debug)]
pub struct HierarchyConfig {
    /// L1 instruction cache geometry.
    pub l1i: CacheConfig,
    /// L1 data cache geometry.
    pub l1d: CacheConfig,
    /// Last-level cache geometry.
    pub llc: CacheConfig,
    /// L1I hit latency (cycles).
    pub l1i_latency: u64,
    /// L1D hit latency (cycles).
    pub l1d_latency: u64,
    /// LLC hit latency (cycles).
    pub llc_latency: u64,
    /// DRAM model parameters.
    pub dram: DramConfig,
    /// Data-prefetcher selection spec (resolved through the
    /// [`PrefetcherRegistry`]); Table 1 uses `bop+stream`.
    pub prefetcher: PrefetcherSpec,
    /// Maximum prefetches issued per demand access.
    pub max_prefetches_per_access: usize,
}

impl HierarchyConfig {
    /// The paper's Table 1 uncore: 32 KiB 8-way L1I (3 cycles), 32 KiB
    /// 8-way L1D (4 cycles), 1 MiB LLC (36 cycles; 16-way here so set
    /// counts stay powers of two vs. the paper's 20-way), DDR4-2400 with
    /// one channel, BOP + Stream prefetching.
    pub fn skylake_like() -> HierarchyConfig {
        HierarchyConfig {
            l1i: CacheConfig::new(32 * 1024, 8, LINE_BYTES),
            l1d: CacheConfig::new(32 * 1024, 8, LINE_BYTES),
            llc: CacheConfig::new(1024 * 1024, 16, LINE_BYTES),
            l1i_latency: 3,
            l1d_latency: 4,
            llc_latency: 36,
            dram: DramConfig::default(),
            prefetcher: PrefetcherSpec::default(),
            max_prefetches_per_access: 4,
        }
    }

    /// Validates every cache geometry, the latency ordering and the
    /// prefetcher spec (against the built-in registry).
    ///
    /// # Errors
    ///
    /// Returns a message naming the offending level, latency or spec.
    pub fn validate(&self) -> Result<(), String> {
        self.l1i.validate().map_err(|e| format!("l1i: {e}"))?;
        self.l1d.validate().map_err(|e| format!("l1d: {e}"))?;
        self.llc.validate().map_err(|e| format!("llc: {e}"))?;
        if self.l1i_latency == 0 || self.l1d_latency == 0 || self.llc_latency == 0 {
            return Err(format!(
                "cache latencies must be nonzero (l1i {}, l1d {}, llc {})",
                self.l1i_latency, self.l1d_latency, self.llc_latency
            ));
        }
        if self.llc_latency < self.l1d_latency || self.llc_latency < self.l1i_latency {
            return Err(format!(
                "llc_latency ({}) must not be lower than the L1 latencies ({}, {})",
                self.llc_latency, self.l1i_latency, self.l1d_latency
            ));
        }
        PrefetcherRegistry::builtin()
            .build(&self.prefetcher)
            .map_err(|e| format!("prefetcher: {e}"))?;
        Ok(())
    }
}

impl Default for HierarchyConfig {
    fn default() -> HierarchyConfig {
        HierarchyConfig::skylake_like()
    }
}

/// Effectiveness counters of one prefetcher unit: the raw inputs to
/// accuracy (`useful / issued`), timeliness (`1 - late / useful`) and the
/// pollution rate (`polluting / issued`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PrefetchEffect {
    /// Prefetch fills issued to DRAM by this unit.
    pub issued: u64,
    /// Issued prefetches later consumed by a demand access.
    pub useful: u64,
    /// Useful prefetches whose demand arrived before the fill completed
    /// (the prefetch hid only part of the miss latency).
    pub late: u64,
    /// Prefetched lines evicted without ever being demanded.
    pub polluting: u64,
}

crisp_words::fields! { PrefetchEffect { issued, useful, late, polluting } }

impl PrefetchEffect {
    /// Element-wise sum.
    pub fn add(&mut self, other: &PrefetchEffect) {
        self.issued += other.issued;
        self.useful += other.useful;
        self.late += other.late;
        self.polluting += other.polluting;
    }
}

/// Aggregated counters of the hierarchy.
#[derive(Clone, Copy, Debug, Default)]
pub struct MemStats {
    /// Demand loads observed.
    pub loads: u64,
    /// Demand stores observed.
    pub stores: u64,
    /// Instruction fetch accesses observed.
    pub fetches: u64,
    /// Demand loads that missed the LLC (went to DRAM).
    pub load_llc_misses: u64,
    /// Demand loads that merged into an in-flight fill.
    pub load_merges: u64,
    /// Prefetch fills issued to DRAM.
    pub prefetches_issued: u64,
    /// Per-unit effectiveness counters, indexed by the prefetcher's
    /// position in the spec (unused slots stay zero).
    pub prefetch: [PrefetchEffect; MAX_PREFETCHERS],
    /// L1I stats snapshot.
    pub l1i: CacheStats,
    /// L1D stats snapshot.
    pub l1d: CacheStats,
    /// LLC stats snapshot.
    pub llc: CacheStats,
    /// DRAM stats snapshot.
    pub dram: DramStats,
}

crisp_words::fields! { MemStats {
    loads, stores, fetches, load_llc_misses, load_merges, prefetches_issued, l1i, l1d, llc,
    prefetch, dram
} }

impl MemStats {
    /// Effectiveness counters summed across every configured unit.
    pub fn prefetch_totals(&self) -> PrefetchEffect {
        let mut t = PrefetchEffect::default();
        for e in &self.prefetch {
            t.add(e);
        }
        t
    }
}

/// An MSHR-style in-flight fill: completion cycle, the level the miss
/// went to, and the prefetch source tag (0 = demand fill).
type InflightFill = (u64, HitLevel, u8);

/// The three-level memory hierarchy plus DRAM and prefetchers.
///
/// See the crate-level example. All `now` arguments are core-cycle times;
/// the hierarchy is a passive timing oracle — it never advances time
/// itself, so it composes with any core model. Data prefetchers are
/// resolved from [`HierarchyConfig::prefetcher`] through a
/// [`PrefetcherRegistry`] and drive per-unit issued/useful/late/polluting
/// counters exposed via [`MemStats::prefetch`].
pub struct MemoryHierarchy {
    config: HierarchyConfig,
    l1i: Cache,
    l1d: Cache,
    llc: Cache,
    dram: Dram,
    prefetchers: Vec<Box<dyn Prefetcher>>,
    effects: [PrefetchEffect; MAX_PREFETCHERS],
    /// MSHR-style in-flight fills: line -> (ready cycle, original level,
    /// prefetch source).
    inflight: HashMap<u64, InflightFill>,
    /// Tagged prefetch candidates of the current access: (line, source).
    scratch: Vec<(u64, u8)>,
    /// Per-unit candidate buffer reused across accesses.
    unit_out: Vec<u64>,
    loads: u64,
    stores: u64,
    fetches: u64,
    load_llc_misses: u64,
    load_merges: u64,
    prefetches_issued: u64,
}

impl MemoryHierarchy {
    /// Builds the hierarchy from a configuration, resolving the
    /// prefetcher spec against the built-in registry.
    ///
    /// # Panics
    ///
    /// Panics if the spec does not resolve; validate the configuration
    /// first (or use [`MemoryHierarchy::try_new`]).
    pub fn new(config: HierarchyConfig) -> MemoryHierarchy {
        MemoryHierarchy::try_new(config, &PrefetcherRegistry::builtin())
            .unwrap_or_else(|e| panic!("invalid hierarchy config: {e}"))
    }

    /// Builds the hierarchy, resolving the prefetcher spec against a
    /// caller-supplied registry (which may carry plugin mechanisms).
    ///
    /// # Errors
    ///
    /// Returns a message if the spec does not resolve in `registry`.
    pub fn try_new(
        config: HierarchyConfig,
        registry: &PrefetcherRegistry,
    ) -> Result<MemoryHierarchy, String> {
        let prefetchers = registry.build(&config.prefetcher)?;
        Ok(MemoryHierarchy {
            l1i: Cache::new(config.l1i),
            l1d: Cache::new(config.l1d),
            llc: Cache::new(config.llc),
            dram: Dram::new(config.dram),
            prefetchers,
            effects: [PrefetchEffect::default(); MAX_PREFETCHERS],
            inflight: HashMap::new(),
            scratch: Vec::new(),
            unit_out: Vec::new(),
            loads: 0,
            stores: 0,
            fetches: 0,
            load_llc_misses: 0,
            load_merges: 0,
            prefetches_issued: 0,
            config,
        })
    }

    /// The hierarchy's configuration.
    pub fn config(&self) -> &HierarchyConfig {
        &self.config
    }

    /// The configured prefetcher unit names, in spec (and counter-slot)
    /// order.
    pub fn prefetcher_names(&self) -> Vec<&'static str> {
        self.prefetchers.iter().map(|p| p.name()).collect()
    }

    /// The counter slot of a way/fill source tag, if it belongs to a
    /// registry unit (FDIP and injected prefetches carry [`PF_OTHER`]).
    fn effect_slot(pf: u8) -> Option<usize> {
        (pf >= 1 && usize::from(pf) <= MAX_PREFETCHERS).then(|| usize::from(pf) - 1)
    }

    fn credit_useful(&mut self, pf: u8, late: bool) {
        if let Some(slot) = Self::effect_slot(pf) {
            self.effects[slot].useful += 1;
            if late {
                self.effects[slot].late += 1;
            }
        }
    }

    fn note_fill(&mut self, fill: FillOutcome) {
        if let (Some(evicted), Some(pf)) = (fill.evicted, fill.evicted_unused_prefetch) {
            if let Some(slot) = Self::effect_slot(pf) {
                self.effects[slot].polluting += 1;
            }
            // The victim may still be in flight: clear its tag so the same
            // prefetch cannot also be credited useful on a later merge.
            if let Some(f) = self.inflight.get_mut(&evicted) {
                f.2 = 0;
            }
        }
    }

    /// A demand load of the 64-byte line containing `addr` by the
    /// instruction at `pc`, starting at cycle `now`.
    pub fn load(&mut self, addr: u64, pc: u64, now: u64) -> AccessResult {
        self.loads += 1;
        let line = line_of(addr);
        if self.l1d.access(line) {
            // The line may be present (filled at request time) but still in
            // flight from DRAM: merge into the outstanding fill.
            if let Some(res) = self.check_inflight(line, now, self.config.l1d_latency) {
                return res;
            }
            return AccessResult {
                latency: self.config.l1d_latency,
                level: HitLevel::L1,
            };
        }
        // Train prefetchers on the L1-miss stream.
        self.train_prefetchers(line, pc);
        let result = self.miss_path(line, addr, now, true);
        self.issue_prefetches(now);
        result
    }

    /// A demand store to the line containing `addr`.
    ///
    /// Stores are write-allocate but their latency is absorbed by the
    /// store buffer: the returned latency is always the L1 latency, while
    /// any required fill proceeds in the background (and occupies DRAM
    /// banks).
    pub fn store(&mut self, addr: u64, pc: u64, now: u64) -> AccessResult {
        self.stores += 1;
        let line = line_of(addr);
        if !self.l1d.access(line) {
            self.train_prefetchers(line, pc);
            let _ = self.miss_path(line, addr, now, false);
            self.issue_prefetches(now);
        }
        AccessResult {
            latency: self.config.l1d_latency,
            level: HitLevel::L1,
        }
    }

    /// An instruction fetch of the line containing byte address `addr`.
    pub fn fetch(&mut self, addr: u64, now: u64) -> AccessResult {
        self.fetches += 1;
        let line = line_of(addr);
        if self.l1i.access(line) {
            if let Some(res) = self.check_inflight(line, now, self.config.l1i_latency) {
                return res;
            }
            return AccessResult {
                latency: self.config.l1i_latency,
                level: HitLevel::L1,
            };
        }
        if let Some(res) = self.check_inflight(line, now, self.config.l1i_latency) {
            let fill = self.l1i.fill_pf(line, 0);
            self.note_fill(fill);
            return res;
        }
        let out = self.llc.access_pf(line);
        if out.hit {
            if let Some(pf) = out.prefetch_src {
                self.credit_useful(pf, false);
            }
            let fill = self.l1i.fill_pf(line, 0);
            self.note_fill(fill);
            return AccessResult {
                latency: self.config.l1i_latency + self.config.llc_latency,
                level: HitLevel::Llc,
            };
        }
        let done = self.dram.request(addr, now + self.config.llc_latency);
        let fill = self.llc.fill_pf(line, 0);
        self.note_fill(fill);
        let fill = self.l1i.fill_pf(line, 0);
        self.note_fill(fill);
        self.inflight.insert(line, (done, HitLevel::Dram, 0));
        AccessResult {
            latency: done - now,
            level: HitLevel::Dram,
        }
    }

    /// Prefetches the instruction line containing `addr` into L1I (used by
    /// the FDIP frontend). No demand counters are touched: the LLC lookup
    /// lands in the prefetch probe/miss counters.
    pub fn prefetch_inst(&mut self, addr: u64, now: u64) {
        let line = line_of(addr);
        if self.l1i.probe(line) || self.inflight.contains_key(&line) {
            return;
        }
        if self.llc.access_prefetch(line) {
            let fill = self.l1i.fill_pf(line, PF_OTHER);
            self.note_fill(fill);
            let ready = now + self.config.l1i_latency + self.config.llc_latency;
            self.inflight.insert(line, (ready, HitLevel::Llc, PF_OTHER));
            return;
        }
        let done = self.dram.request(addr, now + self.config.llc_latency);
        let fill = self.llc.fill_pf(line, PF_OTHER);
        self.note_fill(fill);
        let fill = self.l1i.fill_pf(line, PF_OTHER);
        self.note_fill(fill);
        self.inflight.insert(line, (done, HitLevel::Dram, PF_OTHER));
        self.prefetches_issued += 1;
    }

    /// Prefetches the data line containing `addr` into the LLC (software
    /// or experiment-driven prefetch injection).
    pub fn prefetch_data(&mut self, addr: u64, now: u64) {
        let line = line_of(addr);
        if self.llc.probe(line) || self.inflight.contains_key(&line) {
            return;
        }
        let done = self.dram.request(addr, now + self.config.llc_latency);
        let fill = self.llc.fill_pf(line, PF_OTHER);
        self.note_fill(fill);
        self.inflight.insert(line, (done, HitLevel::Dram, PF_OTHER));
        self.prefetches_issued += 1;
    }

    fn check_inflight(&mut self, line: u64, now: u64, l1_lat: u64) -> Option<AccessResult> {
        if let Some(&(ready, level, pf)) = self.inflight.get(&line) {
            if ready > now {
                self.load_merges += 1;
                if pf != 0 {
                    // A demand merged into an in-flight prefetch: the
                    // prefetch was useful but late (it hid only part of
                    // the miss latency). Claim the tag so neither the
                    // cache hit nor the eviction recounts it.
                    self.credit_useful(pf, true);
                    self.inflight.insert(line, (ready, level, 0));
                    self.llc.claim_prefetch(line);
                }
                return Some(AccessResult {
                    latency: (ready - now).max(l1_lat),
                    level,
                });
            }
            self.inflight.remove(&line);
        }
        None
    }

    fn miss_path(&mut self, line: u64, addr: u64, now: u64, is_load: bool) -> AccessResult {
        if let Some(res) = self.check_inflight(line, now, self.config.l1d_latency) {
            let fill = self.l1d.fill_pf(line, 0);
            self.note_fill(fill);
            return res;
        }
        let out = self.llc.access_pf(line);
        if out.hit {
            if let Some(pf) = out.prefetch_src {
                // Timely useful prefetch: the demand found the line
                // resident in the LLC.
                self.credit_useful(pf, false);
            }
            let fill = self.l1d.fill_pf(line, 0);
            self.note_fill(fill);
            return AccessResult {
                latency: self.config.l1d_latency + self.config.llc_latency,
                level: HitLevel::Llc,
            };
        }
        if is_load {
            self.load_llc_misses += 1;
        }
        let done = self.dram.request(addr, now + self.config.llc_latency);
        let fill = self.llc.fill_pf(line, 0);
        self.note_fill(fill);
        let fill = self.l1d.fill_pf(line, 0);
        self.note_fill(fill);
        self.inflight.insert(line, (done, HitLevel::Dram, 0));
        for p in &mut self.prefetchers {
            p.on_fill(line);
        }
        AccessResult {
            latency: done - now,
            level: HitLevel::Dram,
        }
    }

    fn train_prefetchers(&mut self, line: u64, pc: u64) {
        self.scratch.clear();
        for (i, p) in self.prefetchers.iter_mut().enumerate() {
            self.unit_out.clear();
            p.on_access(line, pc, false, &mut self.unit_out);
            let src = i as u8 + 1;
            self.scratch.extend(self.unit_out.iter().map(|&l| (l, src)));
        }
        self.scratch.truncate(self.config.max_prefetches_per_access);
    }

    fn issue_prefetches(&mut self, now: u64) {
        // The candidates were collected by `train_prefetchers`.
        let candidates = std::mem::take(&mut self.scratch);
        for &(line, src) in &candidates {
            if self.llc.probe(line) || self.inflight.contains_key(&line) {
                continue;
            }
            let addr = line * LINE_BYTES;
            let done = self.dram.request(addr, now + self.config.llc_latency);
            let fill = self.llc.fill_pf(line, src);
            self.note_fill(fill);
            self.inflight.insert(line, (done, HitLevel::Dram, src));
            if let Some(slot) = Self::effect_slot(src) {
                self.effects[slot].issued += 1;
            }
            self.prefetches_issued += 1;
        }
        self.scratch = candidates;
        // Bound the MSHR map: drop long-completed fills occasionally.
        if self.inflight.len() > 4096 {
            self.inflight.retain(|_, (ready, _, _)| *ready > now);
        }
    }

    /// Number of in-flight (MSHR-style) fills currently tracked. The map
    /// self-bounds at 4096 entries; the simulator's invariant checker uses
    /// this to assert leak-freedom at drain.
    pub fn inflight_fills(&self) -> usize {
        self.inflight.len()
    }

    /// Number of tracked fills whose data was already ready at `now` —
    /// stale entries awaiting lazy cleanup. Anything beyond the lazy-sweep
    /// bound indicates a leak.
    pub fn stale_inflight_fills(&self, now: u64) -> usize {
        self.inflight
            .values()
            .filter(|&&(ready, _, _)| ready <= now)
            .count()
    }

    /// A snapshot of all counters.
    pub fn stats(&self) -> MemStats {
        MemStats {
            loads: self.loads,
            stores: self.stores,
            fetches: self.fetches,
            load_llc_misses: self.load_llc_misses,
            load_merges: self.load_merges,
            prefetches_issued: self.prefetches_issued,
            prefetch: self.effects,
            l1i: self.l1i.stats(),
            l1d: self.l1d.stats(),
            llc: self.llc.stats(),
            dram: self.dram.stats(),
        }
    }
}

impl std::fmt::Debug for MemoryHierarchy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MemoryHierarchy")
            .field("config", &self.config)
            .field("prefetchers", &self.prefetcher_names())
            .field("inflight", &self.inflight.len())
            .field("loads", &self.loads)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn with_spec(spec: &str) -> MemoryHierarchy {
        MemoryHierarchy::new(HierarchyConfig {
            prefetcher: PrefetcherSpec::new(spec).unwrap(),
            ..HierarchyConfig::skylake_like()
        })
    }

    fn no_prefetch() -> MemoryHierarchy {
        with_spec("none")
    }

    #[test]
    fn cold_load_goes_to_dram_then_hits_l1() {
        let mut m = no_prefetch();
        let r1 = m.load(0x100000, 1, 0);
        assert_eq!(r1.level, HitLevel::Dram);
        assert!(r1.latency > m.config().llc_latency);
        let r2 = m.load(0x100000, 1, r1.ready_at(0));
        assert_eq!(r2.level, HitLevel::L1);
        assert_eq!(r2.latency, m.config().l1d_latency);
    }

    #[test]
    fn llc_hit_after_l1_eviction() {
        let mut m = no_prefetch();
        // Fill L1D (32 KiB / 64 B = 512 lines) beyond capacity with one set.
        // Lines that alias to set 0 in L1 (64 sets): stride 64 lines.
        let base = 0x40_0000u64;
        let mut t = 0;
        for i in 0..16u64 {
            let r = m.load(base + i * 64 * 64 * 64, 1, t);
            t = r.ready_at(t) + 1;
        }
        // First line evicted from L1 (8 ways) but still in LLC.
        let r = m.load(base, 1, t);
        assert_eq!(r.level, HitLevel::Llc);
        assert_eq!(r.latency, m.config().l1d_latency + m.config().llc_latency);
    }

    #[test]
    fn inflight_merge_returns_partial_latency() {
        let mut m = no_prefetch();
        let r1 = m.load(0x200000, 1, 0);
        assert_eq!(r1.level, HitLevel::Dram);
        // A second load to the same line 10 cycles later must not pay the
        // full DRAM latency again, and must not hit L1 instantly: the line
        // is physically filled only at r1.ready_at(0).
        let merge = m.load(0x200000 + 8, 3, 10);
        assert_eq!(merge.level, HitLevel::Dram);
        assert_eq!(merge.latency, r1.latency - 10);
        assert_eq!(m.stats().load_merges, 1);
        assert_eq!(m.stats().load_llc_misses, 1);
        // After the fill lands, it is a plain L1 hit.
        let after = m.load(0x200000, 4, r1.ready_at(0));
        assert_eq!(after.level, HitLevel::L1);
    }

    #[test]
    fn store_latency_hidden_by_store_buffer() {
        let mut m = no_prefetch();
        let r = m.store(0x500000, 9, 0);
        assert_eq!(r.latency, m.config().l1d_latency);
        // But the line was allocated: next load hits.
        let r2 = m.load(0x500000, 9, 500);
        assert_eq!(r2.level, HitLevel::L1);
        assert_eq!(m.stats().stores, 1);
    }

    #[test]
    fn fetch_uses_l1i_latency() {
        let mut m = no_prefetch();
        let r1 = m.fetch(0x1000, 0);
        assert_eq!(r1.level, HitLevel::Dram);
        let r2 = m.fetch(0x1000, r1.ready_at(0));
        assert_eq!(r2.level, HitLevel::L1);
        assert_eq!(r2.latency, m.config().l1i_latency);
        assert_eq!(m.stats().fetches, 2);
    }

    #[test]
    fn inst_prefetch_hides_fetch_latency() {
        let mut m = no_prefetch();
        m.prefetch_inst(0x2000, 0);
        // After the prefetch completes, the demand fetch is an L1 hit.
        let r = m.fetch(0x2000, 1000);
        assert_eq!(r.level, HitLevel::L1);
    }

    #[test]
    fn inst_prefetch_probes_stay_out_of_demand_misses() {
        let mut m = no_prefetch();
        m.prefetch_inst(0x2000, 0);
        m.prefetch_inst(0x4000, 0);
        let s = m.stats();
        assert_eq!(s.llc.accesses, 0, "FDIP probes must not count as demand");
        assert_eq!(s.llc.misses, 0);
        assert_eq!(s.llc.prefetch_probes, 2);
        assert_eq!(s.llc.prefetch_misses, 2);
    }

    #[test]
    fn data_prefetch_turns_miss_into_llc_hit() {
        let mut m = no_prefetch();
        m.prefetch_data(0x700000, 0);
        let r = m.load(0x700000, 4, 1000);
        assert_eq!(r.level, HitLevel::Llc);
        assert_eq!(m.stats().prefetches_issued, 1);
        // Injected prefetches are not attributed to any registry unit.
        assert_eq!(m.stats().prefetch_totals(), PrefetchEffect::default());
    }

    #[test]
    fn stream_prefetcher_covers_sequential_misses() {
        let mut with_pf = with_spec("stream");
        let mut without = no_prefetch();
        let mut lat_pf = 0u64;
        let mut lat_no = 0u64;
        let mut t = 0u64;
        for i in 0..256u64 {
            let addr = 0x100_0000 + i * 64;
            lat_pf += with_pf.load(addr, 7, t).latency;
            lat_no += without.load(addr, 7, t).latency;
            t += 400; // enough time for prefetches to land
        }
        assert!(
            lat_pf < lat_no / 2,
            "stream prefetching should slash sequential miss latency: {lat_pf} vs {lat_no}"
        );
    }

    #[test]
    fn effectiveness_counters_track_a_covered_stream() {
        let mut m = with_spec("stream");
        let mut t = 0u64;
        for i in 0..256u64 {
            let _ = m.load(0x100_0000 + i * 64, 7, t).latency;
            t += 400;
        }
        let e = m.stats().prefetch[0];
        assert!(e.issued > 50, "stream should issue steadily: {e:?}");
        assert!(e.useful > 50, "covered stream means useful fills: {e:?}");
        assert!(e.useful <= e.issued, "conservation: {e:?}");
        assert!(e.late <= e.useful, "conservation: {e:?}");
        // Slot 1 is unconfigured and must stay silent.
        assert_eq!(m.stats().prefetch[1], PrefetchEffect::default());
    }

    #[test]
    fn late_prefetches_detected_on_fast_demand() {
        let mut m = with_spec("stream");
        // March with no time between accesses: prefetches cannot complete
        // before the next demand arrives, so useful fills are late merges.
        for i in 0..64u64 {
            m.load(0x100_0000 + i * 64, 7, 0);
        }
        let e = m.stats().prefetch[0];
        assert!(
            e.late > 0,
            "zero-latency marching must produce late merges: {e:?}"
        );
        assert!(
            m.stats().load_merges >= e.late,
            "late prefetches are a subset of merges"
        );
    }

    #[test]
    fn pollution_counted_when_unused_prefetches_evict() {
        // A small LLC and an aggressive stride stream that turns right
        // before consuming its prefetches.
        let mut m = MemoryHierarchy::new(HierarchyConfig {
            llc: CacheConfig::new(16 * 1024, 4, LINE_BYTES),
            prefetcher: PrefetcherSpec::new("stride:degree=8").unwrap(),
            max_prefetches_per_access: 8,
            ..HierarchyConfig::skylake_like()
        });
        let mut t = 0u64;
        // Phase 1: strided loads spraying prefetches.
        for i in 0..64u64 {
            m.load(0x10_0000 + i * 64 * 7, 0x40, t);
            t += 500;
        }
        // Phase 2: a dense unrelated working set that thrashes the LLC.
        for i in 0..2048u64 {
            m.load(0x900_0000 + i * 64, 0x99, t);
            t += 500;
        }
        let e = m.stats().prefetch[0];
        assert!(
            e.polluting > 0,
            "thrashing must evict unused prefetches: {e:?}"
        );
    }

    #[test]
    fn pointer_chase_defeats_prefetchers() {
        // Irregular (hashed) addresses: prefetching should not help, which
        // is exactly the gap CRISP targets.
        let mut with_pf = MemoryHierarchy::new(HierarchyConfig::skylake_like());
        let mut t = 0u64;
        let mut x = 987654321u64;
        let mut dram_hits = 0;
        for _ in 0..200 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            let addr = (x >> 20) & 0x3FFF_FFC0;
            let r = with_pf.load(addr, 11, t);
            if r.level == HitLevel::Dram {
                dram_hits += 1;
            }
            t = r.ready_at(t);
        }
        assert!(
            dram_hits > 150,
            "irregular stream must stay DRAM-bound: {dram_hits}/200"
        );
    }

    #[test]
    fn stats_snapshot_consistency() {
        let mut m = no_prefetch();
        m.load(0x1000, 1, 0);
        m.store(0x2000, 2, 10);
        m.fetch(0x3000, 20);
        let s = m.stats();
        assert_eq!(s.loads, 1);
        assert_eq!(s.stores, 1);
        assert_eq!(s.fetches, 1);
        assert_eq!(s.l1d.accesses, 2);
        assert_eq!(s.l1i.accesses, 1);
        assert!(s.dram.requests >= 3);
    }

    #[test]
    fn invalid_spec_is_rejected_by_validate_and_try_new() {
        let cfg = HierarchyConfig {
            prefetcher: PrefetcherSpec::new("warpdrive").unwrap(),
            ..HierarchyConfig::skylake_like()
        };
        assert!(cfg.validate().unwrap_err().contains("warpdrive"));
        assert!(MemoryHierarchy::try_new(cfg, &PrefetcherRegistry::builtin()).is_err());
    }

    #[test]
    fn ghb_prefetcher_covers_strided_misses() {
        let mut with_pf = with_spec("ghb");
        let mut without = no_prefetch();
        let mut lat_pf = 0u64;
        let mut lat_no = 0u64;
        let mut t = 0u64;
        // Stride of 3 lines: too wide for L1 spatial locality, easy for
        // delta correlation.
        for i in 0..256u64 {
            let addr = 0x200_0000 + i * 192;
            lat_pf += with_pf.load(addr, 9, t).latency;
            lat_no += without.load(addr, 9, t).latency;
            t += 400;
        }
        assert!(
            lat_pf < lat_no * 3 / 4,
            "GHB should cover a strided miss stream: {lat_pf} vs {lat_no}"
        );
    }

    #[test]
    fn zoo_prefetchers_cover_their_native_patterns() {
        // ghbw and spp on a strided stream; sisb on a repeating pointer
        // chain. Each must beat the no-prefetch hierarchy.
        for (spec, addrs) in [
            (
                "ghbw",
                (0..256u64)
                    .map(|i| 0x300_0000 + i * 192)
                    .collect::<Vec<_>>(),
            ),
            (
                "spp",
                (0..256u64)
                    .map(|i| 0x400_0000 + (i / 32) * 4096 + (i % 32) * 128)
                    .collect(),
            ),
            ("sisb:tu=4096,map=65536", {
                // A pointer chain of 32 Ki distinct lines — twice the LLC —
                // so revisits miss all the way to DRAM without prefetching.
                // Multiplying by an odd constant mod 2^15 is a bijection,
                // so every chain element is unique.
                let chain: Vec<u64> = (0..32768u64)
                    .map(|i| 0x500_0000 / 64 + ((i * 2654435761) % 32768))
                    .map(|l| l * 64)
                    .collect();
                (0..3).flat_map(|_| chain.clone()).collect()
            }),
        ] {
            let mut with_pf = with_spec(spec);
            let mut without = no_prefetch();
            let (mut lat_pf, mut lat_no, mut t) = (0u64, 0u64, 0u64);
            for &addr in &addrs {
                lat_pf += with_pf.load(addr, 9, t).latency;
                lat_no += without.load(addr, 9, t).latency;
                t += 400;
            }
            assert!(
                lat_pf < lat_no,
                "{spec} should beat no-prefetch on its native pattern: {lat_pf} vs {lat_no}"
            );
            let e = with_pf.stats().prefetch[0];
            assert!(e.useful > 0, "{spec} should have useful prefetches: {e:?}");
            assert!(e.useful <= e.issued, "{spec} conservation: {e:?}");
        }
    }
}
