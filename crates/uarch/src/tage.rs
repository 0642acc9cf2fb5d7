use crate::{DirectionPredictor, SatCounter};

/// Configuration of a [`Tage`] predictor.
///
/// Defaults model the TAGE predictor of the paper's Table 1 baseline: a
/// bimodal base plus 6 tagged components with geometric history lengths.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TageConfig {
    /// Number of tagged components.
    pub num_tables: usize,
    /// Entries in the bimodal base predictor (power of two).
    pub base_entries: usize,
    /// Entries per tagged table (power of two).
    pub table_entries: usize,
    /// Tag width in bits (≤ 14).
    pub tag_bits: u32,
    /// Shortest history length.
    pub min_hist: u32,
    /// Longest history length.
    pub max_hist: u32,
    /// Updates between useful-counter resets.
    pub u_reset_period: u64,
}

impl Default for TageConfig {
    fn default() -> TageConfig {
        TageConfig {
            num_tables: 6,
            base_entries: 1 << 13,
            table_entries: 1 << 10,
            tag_bits: 10,
            min_hist: 5,
            max_hist: 640,
            u_reset_period: 1 << 18,
        }
    }
}

impl TageConfig {
    /// The geometric history length of tagged table `i` (0-based).
    pub fn history_length(&self, i: usize) -> u32 {
        if self.num_tables == 1 {
            return self.min_hist;
        }
        let ratio = (self.max_hist as f64 / self.min_hist as f64)
            .powf(i as f64 / (self.num_tables - 1) as f64);
        (self.min_hist as f64 * ratio).round() as u32
    }
}

/// Folded (compressed) history register, per Seznec's TAGE
/// implementations: an `orig_len`-bit history folded down to
/// `comp_len` bits by cyclic XOR, updated incrementally in O(1).
#[derive(Clone, Debug)]
struct FoldedHistory {
    comp: u32,
    comp_len: u32,
    orig_len: u32,
    out_point: u32,
}

impl FoldedHistory {
    fn new(orig_len: u32, comp_len: u32) -> FoldedHistory {
        FoldedHistory {
            comp: 0,
            comp_len,
            orig_len,
            out_point: orig_len % comp_len,
        }
    }

    /// Shifts in `new_bit`; `old_bit` is the bit leaving the original
    /// history window.
    fn update(&mut self, new_bit: bool, old_bit: bool) {
        self.comp = (self.comp << 1) | u32::from(new_bit);
        self.comp ^= u32::from(old_bit) << self.out_point;
        self.comp ^= self.comp >> self.comp_len;
        self.comp &= (1u32 << self.comp_len) - 1;
        let _ = self.orig_len;
    }
}

#[derive(Clone, Copy, Debug, Default)]
struct TageEntry {
    tag: u16,
    ctr: SatCounter,
    useful: u8,
}

/// The TAGE conditional-branch predictor (Seznec, "A case for
/// (partially)-tagged geometric history length predictors", JILP 2006).
///
/// A bimodal base table provides the default prediction; tagged components
/// indexed by hashes of geometrically increasing history lengths override it
/// when they hold a matching tag. Allocation happens on mispredictions into
/// longer-history components, guarded by per-entry useful counters.
///
/// See the crate-level example for usage.
#[derive(Clone, Debug)]
pub struct Tage {
    config: TageConfig,
    base: Vec<SatCounter>,
    tables: Vec<Vec<TageEntry>>,
    hist_lens: Vec<u32>,
    index_fold: Vec<FoldedHistory>,
    tag_fold0: Vec<FoldedHistory>,
    tag_fold1: Vec<FoldedHistory>,
    /// Circular buffer of raw outcome bits, newest at `hist_pos`.
    history: Vec<bool>,
    hist_pos: usize,
    use_alt_on_na: SatCounter,
    lfsr: u32,
    updates: u64,
    // Per-prediction bookkeeping (filled by `predict`, consumed by `update`).
    last: PredState,
}

#[derive(Clone, Copy, Debug, Default)]
struct PredState {
    provider: Option<usize>,
    provider_idx: usize,
    alt_provider: Option<usize>,
    alt_idx: usize,
    base_idx: usize,
    provider_pred: bool,
    alt_pred: bool,
    final_pred: bool,
    provider_weak: bool,
    indices: [usize; 16],
    tags: [u16; 16],
}

impl Tage {
    /// Creates a TAGE predictor from a configuration.
    ///
    /// # Panics
    ///
    /// Panics if table sizes are not powers of two or `num_tables > 16`.
    pub fn new(config: TageConfig) -> Tage {
        assert!(config.base_entries.is_power_of_two());
        assert!(config.table_entries.is_power_of_two());
        assert!(config.num_tables <= 16, "at most 16 tagged tables");
        assert!(config.tag_bits <= 14);
        let hist_lens: Vec<u32> = (0..config.num_tables)
            .map(|i| config.history_length(i))
            .collect();
        let index_bits = config.table_entries.trailing_zeros();
        let index_fold = hist_lens
            .iter()
            .map(|&l| FoldedHistory::new(l, index_bits))
            .collect();
        let tag_fold0 = hist_lens
            .iter()
            .map(|&l| FoldedHistory::new(l, config.tag_bits))
            .collect();
        let tag_fold1 = hist_lens
            .iter()
            .map(|&l| FoldedHistory::new(l, config.tag_bits - 1))
            .collect();
        Tage {
            base: vec![SatCounter::new(2, 0); config.base_entries],
            tables: vec![vec![TageEntry::default(); config.table_entries]; config.num_tables],
            history: vec![false; config.max_hist as usize + 1],
            hist_pos: 0,
            hist_lens,
            index_fold,
            tag_fold0,
            tag_fold1,
            use_alt_on_na: SatCounter::new(4, 0),
            lfsr: 0xACE1,
            updates: 0,
            last: PredState::default(),
            config,
        }
    }

    /// Creates a TAGE predictor with the default (Table 1) configuration.
    pub fn default_config() -> Tage {
        Tage::new(TageConfig::default())
    }

    /// The predictor's configuration.
    pub fn config(&self) -> &TageConfig {
        &self.config
    }

    fn index(&self, pc: u64, table: usize) -> usize {
        let mask = self.config.table_entries - 1;
        let fold = self.index_fold[table].comp as u64;
        let h = pc ^ (pc >> 4) ^ fold ^ ((table as u64) << 3);
        (h as usize) & mask
    }

    fn tag(&self, pc: u64, table: usize) -> u16 {
        let t0 = self.tag_fold0[table].comp;
        let t1 = self.tag_fold1[table].comp;
        let mask = (1u32 << self.config.tag_bits) - 1;
        (((pc as u32) ^ t0 ^ (t1 << 1)) & mask) as u16
    }

    fn base_index(&self, pc: u64) -> usize {
        (pc as usize) & (self.config.base_entries - 1)
    }

    fn rand(&mut self) -> u32 {
        // 16-bit Fibonacci LFSR: deterministic allocation randomness.
        let bit = (self.lfsr ^ (self.lfsr >> 2) ^ (self.lfsr >> 3) ^ (self.lfsr >> 5)) & 1;
        self.lfsr = (self.lfsr >> 1) | (bit << 15);
        self.lfsr
    }

    fn push_history(&mut self, taken: bool) {
        self.hist_pos = (self.hist_pos + 1) % self.history.len();
        self.history[self.hist_pos] = taken;
        for i in 0..self.config.num_tables {
            let len = self.hist_lens[i] as usize;
            // The bit that just left table i's history window.
            let old_pos = (self.hist_pos + self.history.len() - len) % self.history.len();
            let old_bit = self.history[old_pos];
            self.index_fold[i].update(taken, old_bit);
            self.tag_fold0[i].update(taken, old_bit);
            self.tag_fold1[i].update(taken, old_bit);
        }
    }
}

impl DirectionPredictor for Tage {
    fn predict(&mut self, pc: u64) -> bool {
        let mut st = PredState {
            base_idx: self.base_index(pc),
            ..Default::default()
        };
        for t in 0..self.config.num_tables {
            st.indices[t] = self.index(pc, t);
            st.tags[t] = self.tag(pc, t);
        }
        // Longest matching component provides; next longest is alternate.
        for t in (0..self.config.num_tables).rev() {
            let e = &self.tables[t][st.indices[t]];
            if e.tag == st.tags[t] && e.useful != u8::MAX {
                if st.provider.is_none() {
                    st.provider = Some(t);
                    st.provider_idx = st.indices[t];
                    st.provider_pred = e.ctr.is_taken();
                    st.provider_weak = e.ctr.is_weak();
                } else if st.alt_provider.is_none() {
                    st.alt_provider = Some(t);
                    st.alt_idx = st.indices[t];
                    st.alt_pred = e.ctr.is_taken();
                    break;
                }
            }
        }
        if st.alt_provider.is_none() {
            st.alt_pred = self.base[st.base_idx].is_taken();
        }
        st.final_pred = match st.provider {
            Some(_) => {
                if st.provider_weak && self.use_alt_on_na.is_taken() {
                    st.alt_pred
                } else {
                    st.provider_pred
                }
            }
            None => st.alt_pred,
        };
        self.last = st;
        st.final_pred
    }

    fn update(&mut self, _pc: u64, taken: bool, pred: bool) {
        let st = self.last;
        self.updates += 1;

        match st.provider {
            Some(t) => {
                // Track whether trusting weak providers pays off.
                if st.provider_weak && st.provider_pred != st.alt_pred {
                    self.use_alt_on_na.train(st.alt_pred == taken);
                }
                let e = &mut self.tables[t][st.provider_idx];
                e.ctr = {
                    let mut c = e.ctr;
                    c.train(taken);
                    c
                };
                // Useful counter: provider differed from alternate.
                if st.provider_pred != st.alt_pred {
                    let e = &mut self.tables[t][st.provider_idx];
                    if st.provider_pred == taken {
                        e.useful = (e.useful + 1).min(3);
                    } else {
                        e.useful = e.useful.saturating_sub(1);
                    }
                }
                // Train the alternate too when the provider entry is new.
                if st.provider_weak {
                    match st.alt_provider {
                        Some(a) => {
                            let ea = &mut self.tables[a][st.alt_idx];
                            let mut c = ea.ctr;
                            c.train(taken);
                            ea.ctr = c;
                        }
                        None => self.base[st.base_idx].train(taken),
                    }
                }
            }
            None => self.base[st.base_idx].train(taken),
        }

        // Allocate a new entry on misprediction, in a longer-history table.
        if pred != taken {
            let start = st.provider.map_or(0, |t| t + 1);
            if start < self.config.num_tables {
                // Choose among candidate tables with u == 0; prefer shorter
                // history with 2:1 odds (standard TAGE allocation).
                let mut free: Vec<usize> = (start..self.config.num_tables)
                    .filter(|&t| self.tables[t][st.indices[t]].useful == 0)
                    .collect();
                if free.is_empty() {
                    for t in start..self.config.num_tables {
                        let e = &mut self.tables[t][st.indices[t]];
                        e.useful = e.useful.saturating_sub(1);
                    }
                } else {
                    let pick = if free.len() > 1 && self.rand() & 1 == 0 {
                        free.remove(0)
                    } else {
                        free[0]
                    };
                    let e = &mut self.tables[pick][st.indices[pick]];
                    e.tag = st.tags[pick];
                    e.ctr = SatCounter::new(3, if taken { 0 } else { -1 });
                    e.useful = 0;
                }
            }
        }

        // Periodic graceful reset of useful counters.
        if self.updates.is_multiple_of(self.config.u_reset_period) {
            for table in &mut self.tables {
                for e in table.iter_mut() {
                    e.useful >>= 1;
                }
            }
        }

        self.push_history(taken);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_pattern(tage: &mut Tage, pc: u64, pattern: &[bool], reps: usize) -> (u64, u64) {
        let mut total = 0;
        let mut wrong = 0;
        for rep in 0..reps {
            for &taken in pattern {
                let pred = tage.predict(pc);
                // Only count accuracy in the second half (after warm-up).
                if rep * 2 >= reps {
                    total += 1;
                    if pred != taken {
                        wrong += 1;
                    }
                }
                tage.update(pc, taken, pred);
            }
        }
        (wrong, total)
    }

    #[test]
    fn history_lengths_are_geometric_and_monotonic() {
        let c = TageConfig::default();
        let mut prev = 0;
        for i in 0..c.num_tables {
            let l = c.history_length(i);
            assert!(l > prev, "history lengths must increase");
            prev = l;
        }
        assert_eq!(c.history_length(0), c.min_hist);
        assert_eq!(c.history_length(c.num_tables - 1), c.max_hist);
    }

    #[test]
    fn learns_strong_bias() {
        let mut t = Tage::default_config();
        let (wrong, total) = run_pattern(&mut t, 0x1234, &[true], 200);
        assert!(wrong * 100 <= total, "biased branch: {wrong}/{total}");
    }

    #[test]
    fn learns_short_periodic_pattern() {
        let mut t = Tage::default_config();
        let pattern = [true, true, false, true, false, false];
        let (wrong, total) = run_pattern(&mut t, 0x777, &pattern, 400);
        assert!(
            (wrong as f64) < total as f64 * 0.10,
            "period-6 pattern should be learnable: {wrong}/{total}"
        );
    }

    #[test]
    fn learns_long_correlation_beyond_bimodal() {
        // Loop-exit style branch with period 24: taken 23x, not-taken 1x.
        let mut t = Tage::default_config();
        let mut pattern = vec![true; 23];
        pattern.push(false);
        let (wrong, total) = run_pattern(&mut t, 0xBEEF, &pattern, 300);
        // Bimodal alone would miss every exit: ~4.2% floor. TAGE should
        // learn the loop count through its longer-history components.
        assert!(
            (wrong as f64) < total as f64 * 0.02,
            "loop-exit pattern: {wrong}/{total}"
        );
    }

    #[test]
    fn random_outcomes_do_not_crash_and_hover_near_chance() {
        let mut t = Tage::default_config();
        // Deterministic pseudo-random outcome stream.
        let mut x = 0x12345678u64;
        let mut wrong = 0;
        let n = 4000;
        for _ in 0..n {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let taken = (x >> 63) == 1;
            let pred = t.predict(0xAAA);
            if pred != taken {
                wrong += 1;
            }
            t.update(0xAAA, taken, pred);
        }
        let rate = wrong as f64 / n as f64;
        assert!(rate > 0.3 && rate < 0.7, "random stream accuracy: {rate}");
    }

    #[test]
    fn multiple_branches_coexist() {
        let mut t = Tage::default_config();
        for _ in 0..500 {
            for (pc, taken) in [(0x10u64, true), (0x20, false), (0x30, true)] {
                let pred = t.predict(pc);
                t.update(pc, taken, pred);
            }
        }
        assert!(t.predict(0x10));
        assert!(!t.predict(0x20));
        assert!(t.predict(0x30));
    }

    #[test]
    fn folded_history_stays_in_range() {
        let mut f = FoldedHistory::new(131, 10);
        let mut x = 1u32;
        for i in 0..10_000 {
            x = x.wrapping_mul(1103515245).wrapping_add(12345);
            f.update(x & 1 == 1, x & 2 == 2);
            assert!(f.comp < (1 << 10), "iteration {i}");
        }
    }

    #[test]
    fn beats_bimodal_on_loop_exits() {
        use crate::Bimodal;
        let mut pattern = vec![true; 15];
        pattern.push(false);

        let mut tage = Tage::default_config();
        let (tage_wrong, _) = run_pattern(&mut tage, 0x5050, &pattern, 300);

        let mut bim = Bimodal::new(1 << 13);
        let mut bim_wrong = 0;
        for rep in 0..300 {
            for &taken in &pattern {
                let pred = bim.predict(0x5050);
                if rep >= 150 && pred != taken {
                    bim_wrong += 1;
                }
                bim.update(0x5050, taken, pred);
            }
        }
        assert!(
            tage_wrong < bim_wrong / 4,
            "TAGE ({tage_wrong}) should decisively beat bimodal ({bim_wrong})"
        );
    }

    #[test]
    fn tage_beats_gshare_on_long_loops() {
        use crate::Gshare;
        // Loop exit with period 30: a 12-bit gshare sees an all-taken
        // history at every point and cannot locate the exit; TAGE's
        // 34-bit-history component can.
        let mut pattern = vec![true; 29];
        pattern.push(false);

        let mut tage = Tage::default_config();
        let (tage_wrong, total) = run_pattern(&mut tage, 0x9191, &pattern, 400);

        let mut gs = Gshare::new(1 << 12, 12);
        let mut gs_wrong = 0;
        for rep in 0..400 {
            for &taken in &pattern {
                let pred = gs.predict(0x9191);
                if rep >= 200 && pred != taken {
                    gs_wrong += 1;
                }
                gs.update(0x9191, taken, pred);
            }
        }
        assert!(
            tage_wrong * 2 < gs_wrong.max(1),
            "TAGE {tage_wrong}/{total} should beat gshare {gs_wrong}"
        );
    }
}
