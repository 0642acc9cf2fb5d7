/// A hardware data prefetcher observing the demand-access stream below L1.
///
/// Implementations append candidate *line* addresses to `out`; the
/// hierarchy issues them as prefetch fills into the LLC (and optionally
/// L1).
pub(crate) trait Prefetcher {
    /// Observes a demand access to `line` (a line address) by the load or
    /// store at `pc`. `l1_hit` tells whether L1 already had the line
    /// (prefetchers typically train on the miss stream only).
    fn on_access(&mut self, line: u64, pc: u64, l1_hit: bool, out: &mut Vec<u64>);

    /// Human-readable name for reports.
    fn name(&self) -> &'static str;

    /// Observes a completed demand fill of `line` (default no-op). BOP
    /// trains its recent-requests table here; most prefetchers ignore it.
    fn on_fill(&mut self, _line: u64) {}
}

/// A classic multi-stream sequential prefetcher.
///
/// Tracks up to `max_streams` active streams; a miss within `window` lines
/// ahead of a stream head advances the stream and prefetches `degree`
/// lines ahead. New miss addresses allocate streams (LRU replacement).
#[derive(Clone, Debug)]
pub(crate) struct StreamPrefetcher {
    streams: Vec<StreamEntry>,
    max_streams: usize,
    window: u64,
    degree: u64,
    stamp: u64,
}

#[derive(Clone, Copy, Debug)]
struct StreamEntry {
    head: u64,
    dir: i64,
    confidence: u8,
    stamp: u64,
}

impl StreamPrefetcher {
    /// Creates a stream prefetcher; Table 1's "Stream" companion to BOP.
    pub fn new(max_streams: usize, window: u64, degree: u64) -> StreamPrefetcher {
        assert!(max_streams > 0 && degree > 0);
        StreamPrefetcher {
            streams: Vec::with_capacity(max_streams),
            max_streams,
            window,
            degree,
            stamp: 0,
        }
    }
}

impl Prefetcher for StreamPrefetcher {
    fn on_access(&mut self, line: u64, _pc: u64, l1_hit: bool, out: &mut Vec<u64>) {
        if l1_hit {
            return;
        }
        self.stamp += 1;
        let stamp = self.stamp;
        // Try to match an existing stream in either direction.
        for s in &mut self.streams {
            let delta = line as i64 - s.head as i64;
            let in_window = if s.dir >= 0 {
                delta > 0 && delta <= self.window as i64
            } else {
                delta < 0 && -delta <= self.window as i64
            };
            if in_window || (s.confidence == 0 && delta.unsigned_abs() <= self.window) {
                if s.confidence == 0 {
                    s.dir = if delta >= 0 { 1 } else { -1 };
                }
                s.head = line;
                s.confidence = (s.confidence + 1).min(3);
                s.stamp = stamp;
                if s.confidence >= 2 {
                    for k in 1..=self.degree {
                        let next = line as i64 + s.dir * k as i64;
                        if next >= 0 {
                            out.push(next as u64);
                        }
                    }
                }
                return;
            }
        }
        // Allocate a new stream.
        let entry = StreamEntry {
            head: line,
            dir: 1,
            confidence: 0,
            stamp,
        };
        if self.streams.len() < self.max_streams {
            self.streams.push(entry);
        } else if let Some(victim) = self.streams.iter_mut().min_by_key(|s| s.stamp) {
            *victim = entry;
        }
    }

    fn name(&self) -> &'static str {
        "stream"
    }
}

/// A per-PC stride prefetcher (reference predictor table).
#[derive(Clone, Debug)]
pub(crate) struct StridePrefetcher {
    table: Vec<StrideEntry>,
    mask: u64,
    degree: u64,
}

#[derive(Clone, Copy, Debug, Default)]
struct StrideEntry {
    pc_tag: u64,
    last: u64,
    stride: i64,
    confidence: u8,
}

impl StridePrefetcher {
    /// Creates a stride prefetcher with `entries` table slots (power of
    /// two) issuing `degree` prefetches ahead.
    pub fn new(entries: usize, degree: u64) -> StridePrefetcher {
        assert!(entries.is_power_of_two());
        StridePrefetcher {
            table: vec![StrideEntry::default(); entries],
            mask: entries as u64 - 1,
            degree,
        }
    }
}

impl Prefetcher for StridePrefetcher {
    fn on_access(&mut self, line: u64, pc: u64, _l1_hit: bool, out: &mut Vec<u64>) {
        let e = &mut self.table[(pc & self.mask) as usize];
        if e.pc_tag != pc {
            *e = StrideEntry {
                pc_tag: pc,
                last: line,
                stride: 0,
                confidence: 0,
            };
            return;
        }
        let stride = line as i64 - e.last as i64;
        if stride != 0 && stride == e.stride {
            e.confidence = (e.confidence + 1).min(3);
        } else {
            e.confidence = e.confidence.saturating_sub(1);
            e.stride = stride;
        }
        e.last = line;
        if e.confidence >= 2 && e.stride != 0 {
            for k in 1..=self.degree {
                let next = line as i64 + e.stride * k as i64;
                if next >= 0 {
                    out.push(next as u64);
                }
            }
        }
    }

    fn name(&self) -> &'static str {
        "stride"
    }
}

/// The Best-Offset prefetcher (Michaud, HPCA 2016) — Table 1's "BOP".
///
/// BOP learns one global best offset `D` by testing candidate offsets
/// against a recent-requests (RR) table: if line `X - d` was recently
/// filled when `X` is demanded, offset `d` earns a point. At the end of a
/// scoring round the best-scoring offset becomes the prefetch offset; a
/// weak best score turns prefetching off (the original's "BAD_SCORE"
/// throttle).
#[derive(Clone, Debug)]
pub(crate) struct Bop {
    offsets: Vec<i64>,
    scores: Vec<u32>,
    test_idx: usize,
    round: u32,
    best_offset: i64,
    active: bool,
    rr: Vec<u64>,
    rr_mask: u64,
    max_rounds: u32,
    score_max: u32,
    bad_score: u32,
}

impl Bop {
    /// The candidate offset list of the original design, truncated to 64
    /// lines: every integer of the form 2^i · 3^j · 5^k.
    pub fn default_offsets() -> Vec<i64> {
        let mut v: Vec<i64> = (1..=64)
            .filter(|&n| {
                let mut m = n;
                for f in [2, 3, 5] {
                    while m % f == 0 {
                        m /= f;
                    }
                }
                m == 1
            })
            .collect();
        v.sort_unstable();
        v
    }

    /// Creates a BOP with the standard parameters (256-entry RR table,
    /// SCORE_MAX 31, ROUND_MAX 100, BAD_SCORE 1).
    pub fn new() -> Bop {
        Bop::with_params(Bop::default_offsets(), 256, 31, 100, 1)
    }

    /// Fully parameterised constructor.
    ///
    /// # Panics
    ///
    /// Panics if `rr_entries` is not a power of two or `offsets` is empty.
    pub fn with_params(
        offsets: Vec<i64>,
        rr_entries: usize,
        score_max: u32,
        max_rounds: u32,
        bad_score: u32,
    ) -> Bop {
        assert!(rr_entries.is_power_of_two());
        assert!(!offsets.is_empty());
        let n = offsets.len();
        Bop {
            offsets,
            scores: vec![0; n],
            test_idx: 0,
            round: 0,
            best_offset: 1,
            active: true,
            rr: vec![u64::MAX; rr_entries],
            rr_mask: rr_entries as u64 - 1,
            max_rounds,
            score_max,
            bad_score,
        }
    }

    /// The currently selected prefetch offset (lines).
    #[cfg(test)]
    pub fn best_offset(&self) -> i64 {
        self.best_offset
    }

    /// Whether prefetching is currently enabled (best score was above the
    /// bad-score threshold in the last learning phase).
    #[cfg(test)]
    pub fn is_active(&self) -> bool {
        self.active
    }

    /// Records a completed fill of `line` into the RR table. The hierarchy
    /// calls this for demand fills (with the base address `line`), giving
    /// the learner its timeliness signal.
    pub fn on_fill(&mut self, line: u64) {
        let idx = (line ^ (line >> 8)) & self.rr_mask;
        self.rr[idx as usize] = line;
    }

    fn rr_contains(&self, line: u64) -> bool {
        let idx = (line ^ (line >> 8)) & self.rr_mask;
        self.rr[idx as usize] == line
    }

    fn finish_round(&mut self) {
        let (best_i, &best_s) = self
            .scores
            .iter()
            .enumerate()
            .max_by_key(|&(_, s)| *s)
            .expect("non-empty offsets");
        self.best_offset = self.offsets[best_i];
        self.active = best_s > self.bad_score;
        self.scores.iter_mut().for_each(|s| *s = 0);
        self.round = 0;
        self.test_idx = 0;
    }
}

impl Prefetcher for Bop {
    fn on_access(&mut self, line: u64, _pc: u64, l1_hit: bool, out: &mut Vec<u64>) {
        if l1_hit {
            return;
        }
        // Learning: test the next candidate offset against the RR table.
        let d = self.offsets[self.test_idx];
        let base = line as i64 - d;
        if base >= 0 && self.rr_contains(base as u64) {
            self.scores[self.test_idx] += 1;
            if self.scores[self.test_idx] >= self.score_max {
                self.finish_round();
            }
        }
        if self.round > 0 || self.test_idx + 1 < self.offsets.len() {
            self.test_idx += 1;
            if self.test_idx == self.offsets.len() {
                self.test_idx = 0;
                self.round += 1;
                if self.round >= self.max_rounds {
                    self.finish_round();
                }
            }
        } else {
            self.test_idx += 1;
            if self.test_idx == self.offsets.len() {
                self.test_idx = 0;
                self.round += 1;
            }
        }
        // Prefetch with the current best offset.
        if self.active {
            let target = line as i64 + self.best_offset;
            if target >= 0 {
                out.push(target as u64);
            }
        }
    }

    fn name(&self) -> &'static str {
        "bop"
    }

    fn on_fill(&mut self, line: u64) {
        Bop::on_fill(self, line);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_detects_ascending_sequence() {
        let mut p = StreamPrefetcher::new(4, 4, 2);
        let mut out = Vec::new();
        for line in 100..110u64 {
            out.clear();
            p.on_access(line, 0, false, &mut out);
        }
        assert_eq!(out, vec![110, 111]);
    }

    #[test]
    fn stream_detects_descending_sequence() {
        let mut p = StreamPrefetcher::new(4, 4, 2);
        let mut out = Vec::new();
        for line in (50..60u64).rev() {
            out.clear();
            p.on_access(line, 0, false, &mut out);
        }
        assert_eq!(out, vec![49, 48]);
    }

    #[test]
    fn stream_ignores_l1_hits() {
        let mut p = StreamPrefetcher::new(4, 4, 2);
        let mut out = Vec::new();
        for line in 0..10u64 {
            p.on_access(line, 0, true, &mut out);
        }
        assert!(out.is_empty());
    }

    #[test]
    fn stream_tracks_multiple_streams() {
        let mut p = StreamPrefetcher::new(4, 4, 1);
        let mut out = Vec::new();
        for i in 0..6u64 {
            p.on_access(1000 + i, 0, false, &mut out);
            p.on_access(9000 + i, 0, false, &mut out);
        }
        out.clear();
        p.on_access(1006, 0, false, &mut out);
        p.on_access(9006, 0, false, &mut out);
        assert_eq!(out, vec![1007, 9007]);
    }

    #[test]
    fn stride_learns_constant_stride_per_pc() {
        let mut p = StridePrefetcher::new(64, 2);
        let mut out = Vec::new();
        for i in 0..6u64 {
            out.clear();
            p.on_access(10 + 3 * i, 0x40, false, &mut out);
        }
        assert_eq!(out, vec![28, 31]);
    }

    #[test]
    fn stride_resets_on_pc_conflict() {
        let mut p = StridePrefetcher::new(1, 2);
        let mut out = Vec::new();
        p.on_access(0, 0x1, false, &mut out);
        p.on_access(100, 0x2, false, &mut out); // evicts tag 0x1
        p.on_access(3, 0x1, false, &mut out); // fresh entry, no prefetch
        assert!(out.is_empty());
    }

    #[test]
    fn stride_irregular_pattern_stays_quiet() {
        let mut p = StridePrefetcher::new(64, 2);
        let mut out = Vec::new();
        for &line in &[5u64, 99, 3, 1000, 42, 7] {
            p.on_access(line, 0x40, false, &mut out);
        }
        assert!(out.is_empty(), "no confident stride should emerge");
    }

    #[test]
    fn bop_offset_list_is_235_smooth() {
        let offs = Bop::default_offsets();
        assert!(offs.contains(&1));
        assert!(offs.contains(&8));
        assert!(offs.contains(&15));
        assert!(!offs.contains(&7));
        assert!(!offs.contains(&14));
        assert!(offs.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn bop_learns_dominant_offset() {
        let mut p = Bop::new();
        let mut out = Vec::new();
        // Access stream with constant stride 4 lines; fills lag behind.
        let mut line = 1000u64;
        for _ in 0..3000 {
            out.clear();
            p.on_access(line, 0, false, &mut out);
            p.on_fill(line);
            line += 4;
        }
        assert!(p.is_active());
        assert_eq!(p.best_offset(), 4);
    }

    #[test]
    fn bop_goes_inactive_on_random_stream() {
        let mut p = Bop::with_params(Bop::default_offsets(), 256, 31, 20, 1);
        let mut out = Vec::new();
        let mut x = 123456789u64;
        for _ in 0..5000 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            let line = x >> 40;
            out.clear();
            p.on_access(line, 0, false, &mut out);
            p.on_fill(line);
        }
        assert!(!p.is_active(), "random stream should disable BOP");
    }

    #[test]
    fn bop_emits_prefetch_with_best_offset() {
        let mut p = Bop::new();
        let mut out = Vec::new();
        p.on_access(100, 0, false, &mut out);
        // Initial best offset is 1 and active.
        assert_eq!(out, vec![101]);
    }
}

/// A Global History Buffer (GHB) delta-correlation prefetcher
/// (Nesbit & Smith, HPCA 2004) — the third prefetcher the paper's
/// methodology section mentions evaluating.
///
/// A FIFO of recent miss line addresses is threaded per *index* (here the
/// load PC) through linked pointers; on each miss the last two deltas are
/// matched against history and the following deltas are prefetched.
#[derive(Clone, Debug)]
pub(crate) struct Ghb {
    /// Circular global history of (line, previous-entry-with-same-index).
    buffer: Vec<(u64, Option<usize>)>,
    head: usize,
    filled: bool,
    /// Index table: pc -> most recent GHB entry.
    index: Vec<Option<(u64, usize)>>,
    index_mask: u64,
    degree: usize,
}

impl Ghb {
    /// Creates a GHB with `entries` history slots and an `index_entries`
    /// PC-index table, prefetching `degree` deltas ahead.
    ///
    /// # Panics
    ///
    /// Panics if `index_entries` is not a power of two or sizes are zero.
    pub fn new(entries: usize, index_entries: usize, degree: usize) -> Ghb {
        assert!(entries > 0 && degree > 0);
        assert!(index_entries.is_power_of_two());
        Ghb {
            buffer: vec![(0, None); entries],
            head: 0,
            filled: false,
            index: vec![None; index_entries],
            index_mask: index_entries as u64 - 1,
            degree,
        }
    }

    /// Walks the per-PC chain from `start`, newest first, yielding line
    /// addresses (bounded by the buffer size and chain validity).
    fn chain(&self, start: usize) -> Vec<u64> {
        let mut out = Vec::new();
        let mut cur = Some(start);
        let mut guard = 0;
        while let Some(i) = cur {
            out.push(self.buffer[i].0);
            cur = self.buffer[i].1;
            guard += 1;
            if guard >= self.buffer.len() {
                break;
            }
        }
        out
    }
}

impl Prefetcher for Ghb {
    fn on_access(&mut self, line: u64, pc: u64, l1_hit: bool, out: &mut Vec<u64>) {
        if l1_hit {
            return;
        }
        let slot = (pc & self.index_mask) as usize;
        // Link the new entry into the pc's chain, invalidating stale links
        // (an entry is stale once the ring has lapped it).
        let prev = match self.index[slot] {
            Some((tag, at)) if tag == pc => Some(at),
            _ => None,
        };
        self.buffer[self.head] = (line, prev);
        self.index[slot] = Some((pc, self.head));
        let inserted = self.head;
        self.head = (self.head + 1) % self.buffer.len();
        if self.head == 0 {
            self.filled = true;
        }
        let _ = self.filled;

        // Delta correlation: chain = [line, a, b, c, ...] newest-first.
        let chain = self.chain(inserted);
        if chain.len() < 3 {
            return;
        }
        let d1 = chain[0].wrapping_sub(chain[1]) as i64;
        let d2 = chain[1].wrapping_sub(chain[2]) as i64;
        // Find the same (d2, d1) pair earlier in history; replay what
        // followed it.
        for w in 2..chain.len().saturating_sub(1) {
            let e1 = chain[w - 1].wrapping_sub(chain[w]) as i64;
            let e2 = chain[w].wrapping_sub(chain[w + 1]) as i64;
            if e1 == d1 && e2 == d2 {
                // Replay deltas moving toward the present.
                let mut next = chain[0] as i64;
                for k in (0..w.saturating_sub(1)).rev() {
                    let d = chain[k].wrapping_sub(chain[k + 1]) as i64;
                    next += d;
                    if next >= 0 {
                        out.push(next as u64);
                    }
                    if out.len() >= self.degree {
                        return;
                    }
                }
                return;
            }
        }
    }

    fn name(&self) -> &'static str {
        "ghb"
    }
}

#[cfg(test)]
mod ghb_tests {
    use super::*;

    #[test]
    fn constant_stride_is_replayed() {
        let mut g = Ghb::new(256, 64, 4);
        let mut out = Vec::new();
        for i in 0..12u64 {
            out.clear();
            g.on_access(100 + 7 * i, 0x40, false, &mut out);
        }
        assert!(
            out.contains(&(100 + 7 * 12)),
            "stride-7 continuation expected, got {out:?}"
        );
    }

    #[test]
    fn repeating_delta_pattern_is_learned() {
        // Deltas +3, +5 alternating: classic delta correlation.
        let mut g = Ghb::new(256, 64, 2);
        let mut line = 1000u64;
        let mut out = Vec::new();
        let deltas = [3u64, 5];
        for i in 0..20 {
            out.clear();
            g.on_access(line, 0x88, false, &mut out);
            line += deltas[i % 2];
        }
        // After the last access the next delta in the pattern is known.
        assert!(!out.is_empty(), "pattern should be recognised");
    }

    #[test]
    fn random_stream_stays_mostly_quiet() {
        let mut g = Ghb::new(128, 64, 4);
        let mut out_total = 0;
        let mut x = 0x1234_5678u64;
        let mut out = Vec::new();
        for _ in 0..200 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            out.clear();
            g.on_access(x >> 33, 0x10, false, &mut out);
            out_total += out.len();
        }
        assert!(
            out_total < 60,
            "random stream should rarely match: {out_total}"
        );
    }

    #[test]
    fn l1_hits_are_ignored() {
        let mut g = Ghb::new(64, 16, 2);
        let mut out = Vec::new();
        for i in 0..10u64 {
            g.on_access(i, 0, true, &mut out);
        }
        assert!(out.is_empty());
    }

    #[test]
    fn distinct_pcs_use_distinct_chains() {
        let mut g = Ghb::new(256, 64, 2);
        let mut out = Vec::new();
        for i in 0..10u64 {
            g.on_access(1000 + 4 * i, 0x1, false, &mut out);
            g.on_access(9000 + 9 * i, 0x2, false, &mut out);
        }
        out.clear();
        g.on_access(1000 + 4 * 10, 0x1, false, &mut out);
        assert!(
            out.iter().all(|&l| l < 5000),
            "chains must not mix: {out:?}"
        );
    }
}
