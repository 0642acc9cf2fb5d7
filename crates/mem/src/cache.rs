/// Geometry of one cache level.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub capacity: u64,
    /// Associativity (ways per set).
    pub ways: usize,
    /// Line size in bytes.
    pub line_bytes: u64,
}

impl CacheConfig {
    /// A convenience constructor.
    ///
    /// # Panics
    ///
    /// Panics if the geometry does not produce a power-of-two set count.
    pub fn new(capacity: u64, ways: usize, line_bytes: u64) -> CacheConfig {
        CacheConfig::try_new(capacity, ways, line_bytes)
            .unwrap_or_else(|e| panic!("set count must be a power of two: {e}"))
    }

    /// A validating constructor.
    ///
    /// # Errors
    ///
    /// Returns a message describing the first rejected geometry parameter.
    pub fn try_new(capacity: u64, ways: usize, line_bytes: u64) -> Result<CacheConfig, String> {
        let c = CacheConfig {
            capacity,
            ways,
            line_bytes,
        };
        c.validate()?;
        Ok(c)
    }

    /// Validates the geometry: nonzero parameters, a line-aligned capacity
    /// and a power-of-two set count (the index function is a mask).
    ///
    /// # Errors
    ///
    /// Returns a message describing the first rejected parameter.
    pub fn validate(&self) -> Result<(), String> {
        if self.capacity == 0 {
            return Err("capacity must be nonzero".into());
        }
        if self.ways == 0 {
            return Err("associativity (ways) must be nonzero".into());
        }
        if self.line_bytes == 0 || !self.line_bytes.is_power_of_two() {
            return Err(format!(
                "line size must be a nonzero power of two (got {})",
                self.line_bytes
            ));
        }
        let way_bytes = self.ways as u64 * self.line_bytes;
        if !self.capacity.is_multiple_of(way_bytes) {
            return Err(format!(
                "capacity {} is not a multiple of ways x line bytes ({way_bytes})",
                self.capacity
            ));
        }
        if !self.sets().is_power_of_two() {
            return Err(format!(
                "set count {} (capacity {} / ways {} / line {}) is not a power of two",
                self.sets(),
                self.capacity,
                self.ways,
                self.line_bytes
            ));
        }
        Ok(())
    }

    /// Number of sets implied by the geometry.
    pub fn sets(&self) -> usize {
        (self.capacity / (self.ways as u64 * self.line_bytes)) as usize
    }
}

/// Hit/miss counters of one cache level.
///
/// `accesses`/`misses` count *demand* lookups only; lookups made on behalf
/// of a prefetcher go to `prefetch_probes`/`prefetch_misses` so MPKI
/// computed from the demand counters is not inflated by prefetch traffic.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Demand lookup count.
    pub accesses: u64,
    /// Demand misses.
    pub misses: u64,
    /// Lines filled by prefetches.
    pub prefetch_fills: u64,
    /// Demand hits on lines brought in by prefetch (prefetch usefulness).
    pub prefetch_hits: u64,
    /// Lookups made on behalf of a prefetcher (FDIP probes, injected
    /// prefetches) — kept out of the demand `accesses` count.
    pub prefetch_probes: u64,
    /// Prefetch lookups that missed — kept out of the demand `misses`
    /// count so demand MPKI stays honest.
    pub prefetch_misses: u64,
}

impl CacheStats {
    /// Miss ratio in `[0, 1]`.
    pub fn miss_ratio(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses as f64
        }
    }
}

/// Prefetch-source tag for a fill that was not triggered by a spec
/// prefetcher: an FDIP instruction prefetch.
pub const PF_OTHER: u8 = u8::MAX;

/// The outcome of a tagged demand lookup ([`Cache::access_pf`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AccessOutcome {
    /// Whether the line was present.
    pub hit: bool,
    /// If the hit consumed a prefetched line: the fill's source tag
    /// (`1..` = spec unit index + 1, [`PF_OTHER`] = untracked).
    pub prefetch_src: Option<u8>,
}

/// The outcome of a tagged fill ([`Cache::fill_pf`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FillOutcome {
    /// The evicted line, if the set was full.
    pub evicted: Option<u64>,
    /// If the evicted line was a never-used prefetch: its source tag.
    /// This is the cache-pollution signal per prefetcher.
    pub evicted_unused_prefetch: Option<u8>,
}

#[derive(Clone, Copy, Debug)]
struct Way {
    tag: u64,
    stamp: u64,
    valid: bool,
    /// 0 = demand fill; `k` = prefetch fill with source tag `k` (cleared
    /// on the first demand hit).
    pf: u8,
}

crisp_words::fields! { CacheStats {
    accesses, misses, prefetch_fills, prefetch_hits, prefetch_probes, prefetch_misses
} }

/// A set-associative cache with true-LRU replacement.
///
/// The cache tracks *presence* only — data lives in the functional
/// emulator; timing lives in [`crate::MemoryHierarchy`]. Lines brought in
/// by prefetch are flagged so usefulness can be measured.
///
/// # Example
///
/// ```
/// use crisp_mem::{Cache, CacheConfig};
/// let mut c = Cache::new(CacheConfig::new(32 * 1024, 8, 64));
/// let line = 0x40;
/// assert!(!c.access(line));
/// c.fill(line, false);
/// assert!(c.access(line));
/// ```
#[derive(Clone, Debug)]
pub struct Cache {
    sets: Vec<Vec<Way>>,
    ways: usize,
    set_mask: u64,
    stamp: u64,
    stats: CacheStats,
}

impl Cache {
    /// Builds a cache from its geometry.
    pub fn new(config: CacheConfig) -> Cache {
        let sets = config.sets();
        Cache {
            sets: vec![Vec::with_capacity(config.ways); sets],
            ways: config.ways,
            set_mask: sets as u64 - 1,
            stamp: 0,
            stats: CacheStats::default(),
        }
    }

    #[inline]
    fn set_index(&self, line: u64) -> usize {
        (line & self.set_mask) as usize
    }

    /// Looks up `line` (a *line* address, not a byte address), updating LRU
    /// and counters. Returns whether it hit.
    pub fn access(&mut self, line: u64) -> bool {
        self.access_pf(line).hit
    }

    /// A demand lookup that also reports whether the hit consumed a
    /// prefetched line, and from which source. The prefetch tag is cleared
    /// on the first demand hit so usefulness is counted exactly once.
    pub fn access_pf(&mut self, line: u64) -> AccessOutcome {
        self.stamp += 1;
        self.stats.accesses += 1;
        let set = self.set_index(line);
        for w in &mut self.sets[set] {
            if w.valid && w.tag == line {
                w.stamp = self.stamp;
                let mut src = None;
                if w.pf != 0 {
                    src = Some(w.pf);
                    w.pf = 0;
                    self.stats.prefetch_hits += 1;
                }
                return AccessOutcome {
                    hit: true,
                    prefetch_src: src,
                };
            }
        }
        self.stats.misses += 1;
        AccessOutcome {
            hit: false,
            prefetch_src: None,
        }
    }

    /// A lookup made on behalf of a prefetcher: updates LRU like a real
    /// access but counts into the prefetch probe/miss counters, keeping the
    /// demand miss stream (and MPKI derived from it) honest.
    pub fn access_prefetch(&mut self, line: u64) -> bool {
        self.stamp += 1;
        self.stats.prefetch_probes += 1;
        let set = self.set_index(line);
        for w in &mut self.sets[set] {
            if w.valid && w.tag == line {
                w.stamp = self.stamp;
                return true;
            }
        }
        self.stats.prefetch_misses += 1;
        false
    }

    /// Clears the prefetch tag of `line` (if present and still tagged),
    /// returning the old source tag. Used when a demand access merges into
    /// an in-flight prefetch fill: the prefetch was useful (counted here,
    /// once) but the line's tag must not be double-counted later.
    pub fn claim_prefetch(&mut self, line: u64) -> Option<u8> {
        let set = self.set_index(line);
        for w in &mut self.sets[set] {
            if w.valid && w.tag == line && w.pf != 0 {
                let src = w.pf;
                w.pf = 0;
                self.stats.prefetch_hits += 1;
                return Some(src);
            }
        }
        None
    }

    /// Probes for `line` without updating LRU or counters.
    pub fn probe(&self, line: u64) -> bool {
        let set = self.set_index(line);
        self.sets[set].iter().any(|w| w.valid && w.tag == line)
    }

    /// Fills `line`, evicting the LRU way if the set is full. Returns the
    /// evicted line, if any. `prefetched` marks prefetch fills (with the
    /// untracked [`PF_OTHER`] source tag).
    pub fn fill(&mut self, line: u64, prefetched: bool) -> Option<u64> {
        self.fill_pf(line, if prefetched { PF_OTHER } else { 0 })
            .evicted
    }

    /// Fills `line` with an explicit prefetch-source tag (`0` = demand
    /// fill), reporting the evicted line and — when the victim was a
    /// never-used prefetch — the victim's source tag (pollution signal).
    pub fn fill_pf(&mut self, line: u64, pf: u8) -> FillOutcome {
        self.stamp += 1;
        if pf != 0 {
            self.stats.prefetch_fills += 1;
        }
        let stamp = self.stamp;
        let ways = self.ways;
        let set_idx = self.set_index(line);
        let set = &mut self.sets[set_idx];
        if let Some(w) = set.iter_mut().find(|w| w.valid && w.tag == line) {
            w.stamp = stamp;
            return FillOutcome {
                evicted: None,
                evicted_unused_prefetch: None,
            };
        }
        let new_way = Way {
            tag: line,
            stamp,
            valid: true,
            pf,
        };
        if set.len() < ways {
            set.push(new_way);
            FillOutcome {
                evicted: None,
                evicted_unused_prefetch: None,
            }
        } else {
            let victim = set.iter_mut().min_by_key(|w| w.stamp).expect("full set");
            let evicted = victim.tag;
            let unused_pf = (victim.valid && victim.pf != 0).then_some(victim.pf);
            *victim = new_way;
            FillOutcome {
                evicted: Some(evicted),
                evicted_unused_prefetch: unused_pf,
            }
        }
    }

    /// Invalidates `line` if present; returns whether it was present.
    pub fn invalidate(&mut self, line: u64) -> bool {
        let set = self.set_index(line);
        for w in &mut self.sets[set] {
            if w.valid && w.tag == line {
                w.valid = false;
                return true;
            }
        }
        false
    }

    /// The level's counters.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Cache {
        // 4 sets x 2 ways.
        Cache::new(CacheConfig::new(8 * 64, 2, 64))
    }

    #[test]
    fn cold_miss_then_hit_after_fill() {
        let mut c = small();
        assert!(!c.access(5));
        c.fill(5, false);
        assert!(c.access(5));
        assert_eq!(c.stats().accesses, 2);
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn lru_eviction_order() {
        let mut c = small();
        // Lines 0, 4, 8 all map to set 0 (4 sets).
        c.fill(0, false);
        c.fill(4, false);
        assert!(c.access(0)); // 4 becomes LRU
        assert_eq!(c.fill(8, false), Some(4));
        assert!(c.probe(0));
        assert!(!c.probe(4));
        assert!(c.probe(8));
    }

    #[test]
    fn refill_of_present_line_evicts_nothing() {
        let mut c = small();
        c.fill(1, false);
        assert_eq!(c.fill(1, false), None);
    }

    #[test]
    fn probe_does_not_touch_stats_or_lru() {
        let mut c = small();
        c.fill(0, false);
        c.fill(4, false);
        let before = c.stats();
        assert!(c.probe(0));
        assert_eq!(c.stats(), before);
        // LRU untouched by probe: 0 is still older, so it gets evicted.
        assert_eq!(c.fill(8, false), Some(0));
    }

    #[test]
    fn prefetch_usefulness_counted_once() {
        let mut c = small();
        c.fill(3, true);
        assert!(c.access(3));
        assert!(c.access(3));
        let s = c.stats();
        assert_eq!(s.prefetch_fills, 1);
        assert_eq!(s.prefetch_hits, 1);
    }

    #[test]
    fn invalidate_removes_line() {
        let mut c = small();
        c.fill(7, false);
        assert!(c.invalidate(7));
        assert!(!c.probe(7));
        assert!(!c.invalidate(7));
    }

    #[test]
    fn miss_ratio_computation() {
        let mut c = small();
        c.access(1); // miss
        c.fill(1, false);
        c.access(1); // hit
        assert!((c.stats().miss_ratio() - 0.5).abs() < 1e-12);
        assert_eq!(CacheStats::default().miss_ratio(), 0.0);
    }

    #[test]
    fn geometry_sets() {
        let cfg = CacheConfig::new(32 * 1024, 8, 64);
        assert_eq!(cfg.sets(), 64);
        let llc = CacheConfig::new(1024 * 1024, 16, 64);
        assert_eq!(llc.sets(), 1024);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bad_geometry_rejected() {
        let _ = CacheConfig::new(3 * 64, 1, 64);
    }

    #[test]
    fn tagged_fill_reports_source_on_demand_hit() {
        let mut c = small();
        c.fill_pf(3, 2);
        let out = c.access_pf(3);
        assert!(out.hit);
        assert_eq!(out.prefetch_src, Some(2));
        // Tag cleared: a second hit is a plain demand hit.
        assert_eq!(c.access_pf(3).prefetch_src, None);
        assert_eq!(c.stats().prefetch_hits, 1);
    }

    #[test]
    fn unused_prefetch_eviction_reports_pollution_source() {
        let mut c = small();
        c.fill_pf(0, 3); // prefetch from source 3, never demanded
        c.fill_pf(4, 0);
        let out = c.fill_pf(8, 0); // set 0 full: evicts LRU (line 0)
        assert_eq!(out.evicted, Some(0));
        assert_eq!(out.evicted_unused_prefetch, Some(3));
        // A demanded prefetch is no longer pollution when evicted.
        let mut c = small();
        c.fill_pf(0, 3);
        c.access(0);
        c.fill_pf(4, 0);
        c.access(4);
        let out = c.fill_pf(8, 0);
        assert_eq!(out.evicted_unused_prefetch, None);
    }

    #[test]
    fn prefetch_probes_stay_out_of_demand_counters() {
        let mut c = small();
        assert!(!c.access_prefetch(9));
        c.fill_pf(9, 1);
        assert!(c.access_prefetch(9));
        let s = c.stats();
        assert_eq!((s.accesses, s.misses), (0, 0));
        assert_eq!((s.prefetch_probes, s.prefetch_misses), (2, 1));
    }

    #[test]
    fn claim_prefetch_consumes_the_tag_once() {
        let mut c = small();
        c.fill_pf(5, 2);
        assert_eq!(c.claim_prefetch(5), Some(2));
        assert_eq!(c.claim_prefetch(5), None);
        assert_eq!(c.stats().prefetch_hits, 1);
        assert_eq!(c.claim_prefetch(100), None, "absent line claims nothing");
    }
}
