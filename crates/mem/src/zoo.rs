//! The competitor prefetcher zoo: the three classic table-based designs
//! CRISP is evaluated against beyond the Table 1 baseline — a GHB
//! stride/width prefetcher (Nesbit & Smith, HPCA 2004), SISB temporal
//! streaming (Wu et al., MICRO 2019 lineage), and SPP signature-path
//! prefetching with path-confidence throttling (Kim et al., MICRO 2016).
//!
//! Every design is table-bounded and deterministic.

use crate::prefetch::Prefetcher;

/// Folds a signed line delta into a small hash key.
#[inline]
fn delta_key(delta: i64) -> u64 {
    (delta as u64) ^ ((delta as u64) >> 17)
}

/// A Global History Buffer prefetcher in its stride/width configuration:
/// the global miss stream lives in a ring buffer whose entries are linked
/// per *delta* through an address-index table. On a miss, the chain of
/// past occurrences of the current delta is walked `width` entries back,
/// and from each occurrence up to `depth` of the misses that historically
/// followed it are replayed (rebased to the current line). When the delta
/// has no history yet, a stride fallback prefetches `degree` lines ahead
/// at the observed delta.
#[derive(Clone, Debug)]
pub struct GhbWidth {
    /// Ring of recent miss lines; `prev` links the previous occurrence of
    /// the same delta.
    buffer: Vec<GhbwEntry>,
    head: usize,
    live: usize,
    last_line: u64,
    has_last: bool,
    /// Address-index table: delta -> most recent ring entry with it.
    ait: Vec<Option<AitEntry>>,
    ait_mask: u64,
    width: usize,
    depth: usize,
    degree: usize,
}

#[derive(Clone, Copy, Debug)]
struct GhbwEntry {
    line: u64,
    valid: bool,
    prev: Option<usize>,
}

#[derive(Clone, Copy, Debug)]
struct AitEntry {
    delta: i64,
    at: usize,
}

impl GhbWidth {
    /// Creates a GHB stride/width prefetcher.
    ///
    /// # Panics
    ///
    /// Panics if `ait_entries` is not a power of two or any size is zero.
    pub fn new(
        entries: usize,
        ait_entries: usize,
        width: usize,
        depth: usize,
        degree: usize,
    ) -> GhbWidth {
        assert!(entries > 0 && width > 0 && depth > 0 && degree > 0);
        assert!(ait_entries.is_power_of_two());
        GhbWidth {
            buffer: vec![
                GhbwEntry {
                    line: 0,
                    valid: false,
                    prev: None
                };
                entries
            ],
            head: 0,
            live: 0,
            last_line: 0,
            has_last: false,
            ait: vec![None; ait_entries],
            ait_mask: ait_entries as u64 - 1,
            width,
            depth,
            degree,
        }
    }

    /// The ring index of the entry `k` steps after `at` in stream order,
    /// if it exists and is not past the write cursor.
    fn successor(&self, at: usize, k: usize) -> Option<usize> {
        let n = self.buffer.len();
        let idx = (at + k) % n;
        // Entries at or past the head are either the oldest (about to be
        // overwritten) or unwritten; walking into them would replay lines
        // out of stream order.
        let dist_at = (self.head + n - 1 - at) % n; // age of `at` (0 = newest)
        let dist_idx = (self.head + n - 1 - idx) % n;
        (self.buffer[idx].valid && dist_idx < dist_at).then_some(idx)
    }
}

impl Prefetcher for GhbWidth {
    fn on_access(&mut self, line: u64, _pc: u64, l1_hit: bool, out: &mut Vec<u64>) {
        if l1_hit {
            return;
        }
        if !self.has_last {
            self.has_last = true;
            self.last_line = line;
            return;
        }
        let delta = line as i64 - self.last_line as i64;
        self.last_line = line;
        if delta == 0 {
            return;
        }
        let slot = (delta_key(delta) & self.ait_mask) as usize;
        let prev = match self.ait[slot] {
            // `a.at == head` means the index points at the slot we are
            // about to overwrite (a lapped entry): treat as no history.
            Some(a) if a.delta == delta && a.at != self.head && self.buffer[a.at].valid => {
                Some(a.at)
            }
            _ => None,
        };
        self.buffer[self.head] = GhbwEntry {
            line,
            valid: true,
            prev,
        };
        self.ait[slot] = Some(AitEntry {
            delta,
            at: self.head,
        });
        self.head = (self.head + 1) % self.buffer.len();
        self.live = (self.live + 1).min(self.buffer.len());

        // Width: consult up to `width` past occurrences of this delta,
        // newest first; depth: replay the misses that followed each,
        // rebased onto the current line.
        let mut cur = prev;
        let mut consulted = 0;
        let mut emitted = false;
        while let Some(at) = cur {
            if consulted >= self.width {
                break;
            }
            consulted += 1;
            let base = self.buffer[at].line;
            for k in 1..=self.depth {
                let Some(succ) = self.successor(at, k) else {
                    break;
                };
                let shift = self.buffer[succ].line as i64 - base as i64;
                let cand = line as i64 + shift;
                if cand >= 0 && shift != 0 {
                    out.push(cand as u64);
                    emitted = true;
                }
            }
            cur = self.buffer[at].prev;
            if cur == Some(at) {
                break;
            }
        }
        if !emitted {
            // Stride fallback: no usable history for this delta yet.
            for k in 1..=self.degree {
                let cand = line as i64 + delta * k as i64;
                if cand >= 0 {
                    out.push(cand as u64);
                }
            }
        }
    }

    fn name(&self) -> &'static str {
        "ghbw"
    }
}

/// SISB-style temporal streaming: a training unit maps each load PC to the
/// last miss line it produced; when the same PC misses again, the pair
/// (previous line -> current line) is recorded in a mapping cache. On a
/// miss, the mapping cache is chained up to `degree` steps ahead from the
/// current line, replaying arbitrary (pointer-chasing) temporal streams
/// that stride/delta prefetchers cannot express.
#[derive(Clone, Debug)]
pub struct Sisb {
    /// Training unit: pc -> last miss line (direct-mapped, tag = pc).
    tu: Vec<Option<(u64, u64)>>,
    tu_mask: u64,
    /// Mapping cache: line -> successor line (direct-mapped, tag = line).
    map: Vec<Option<(u64, u64)>>,
    map_mask: u64,
    degree: usize,
}

#[inline]
fn line_slot(line: u64, mask: u64) -> usize {
    ((line ^ (line >> 13)) & mask) as usize
}

impl Sisb {
    /// Creates a SISB prefetcher with a `tu_entries` training unit and a
    /// `map_entries` mapping cache, chaining `degree` predictions.
    ///
    /// # Panics
    ///
    /// Panics if the table sizes are not powers of two or `degree` is 0.
    pub fn new(tu_entries: usize, map_entries: usize, degree: usize) -> Sisb {
        assert!(tu_entries.is_power_of_two() && map_entries.is_power_of_two());
        assert!(degree > 0);
        Sisb {
            tu: vec![None; tu_entries],
            tu_mask: tu_entries as u64 - 1,
            map: vec![None; map_entries],
            map_mask: map_entries as u64 - 1,
            degree,
        }
    }
}

impl Prefetcher for Sisb {
    fn on_access(&mut self, line: u64, pc: u64, l1_hit: bool, out: &mut Vec<u64>) {
        if l1_hit {
            return;
        }
        // Train: record last->current for this PC's miss stream.
        let slot = (pc & self.tu_mask) as usize;
        if let Some((tag, last)) = self.tu[slot] {
            if tag == pc && last != line {
                self.map[line_slot(last, self.map_mask)] = Some((last, line));
            }
        }
        self.tu[slot] = Some((pc, line));
        // Predict: chain the mapping cache forward.
        let mut cur = line;
        for _ in 0..self.degree {
            match self.map[line_slot(cur, self.map_mask)] {
                Some((tag, next)) if tag == cur && next != line => {
                    out.push(next);
                    cur = next;
                }
                _ => break,
            }
        }
    }

    fn name(&self) -> &'static str {
        "sisb"
    }
}

/// Lines per 4 KiB page (64 B lines).
const PAGE_LINES: u64 = 64;
/// Signature width (bits) and mask.
const SIG_BITS: u32 = 12;
const SIG_MASK: u16 = (1 << SIG_BITS) - 1;
/// Delta slots per pattern-table entry.
const PT_WAYS: usize = 4;
/// Counter saturation point; on reaching it an entry's counters halve.
const C_SAT: u16 = 255;

/// Compresses a signed in-page delta into the signature hash key.
#[inline]
fn sig_advance(sig: u16, delta: i16) -> u16 {
    ((sig << 3) ^ (delta as u16 & 0x3F)) & SIG_MASK
}

/// SPP: signature-path prefetching with path-confidence throttling. Each
/// page's recent delta history is compressed into a signature; a pattern
/// table maps signatures to observed next deltas with confidence
/// counters. Prefetching walks the signature path speculatively,
/// multiplying per-step confidences (modulated by a global
/// issued-vs-useful accuracy register) and stops when the path confidence
/// drops below the throttle threshold or the page boundary is crossed.
#[derive(Clone, Debug)]
pub struct Spp {
    /// Signature table: page -> (signature, last offset).
    st: Vec<Option<StEntry>>,
    st_mask: u64,
    /// Pattern table: signature -> delta candidates with confidences.
    pt: Vec<PtEntry>,
    pt_mask: u64,
    /// Prefetch filter: recently issued lines (u64::MAX = empty slot).
    filter: Vec<u64>,
    filter_mask: u64,
    /// Global accuracy register: prefetches issued / proven useful.
    pf_issued: u64,
    pf_useful: u64,
    max_depth: usize,
    /// Path-confidence floor, per-mille.
    threshold: u64,
}

#[derive(Clone, Copy, Debug)]
struct StEntry {
    page: u64,
    sig: u16,
    last_off: u8,
}

#[derive(Clone, Copy, Debug, Default)]
struct PtSlot {
    delta: i16,
    c_delta: u16,
}

#[derive(Clone, Copy, Debug, Default)]
struct PtEntry {
    c_sig: u16,
    slots: [PtSlot; PT_WAYS],
}

impl PtEntry {
    fn train(&mut self, delta: i16) {
        self.c_sig += 1;
        if let Some(s) = self
            .slots
            .iter_mut()
            .find(|s| s.c_delta > 0 && s.delta == delta)
        {
            s.c_delta += 1;
        } else {
            let victim = self
                .slots
                .iter_mut()
                .min_by_key(|s| s.c_delta)
                .expect("PT_WAYS > 0");
            *victim = PtSlot { delta, c_delta: 1 };
        }
        if self.c_sig >= C_SAT {
            self.c_sig /= 2;
            for s in &mut self.slots {
                s.c_delta /= 2;
            }
        }
    }

    /// The highest-confidence delta (ties break toward the lowest slot
    /// index, keeping selection deterministic).
    fn best(&self) -> Option<PtSlot> {
        self.slots
            .iter()
            .filter(|s| s.c_delta > 0)
            .max_by_key(|s| s.c_delta)
            .copied()
    }
}

impl Spp {
    /// Creates an SPP prefetcher.
    ///
    /// # Panics
    ///
    /// Panics if any table size is not a power of two, `max_depth` is 0,
    /// or `threshold` exceeds 1000 (per-mille).
    pub fn new(
        st_entries: usize,
        pt_entries: usize,
        filter_entries: usize,
        max_depth: usize,
        threshold: u64,
    ) -> Spp {
        assert!(st_entries.is_power_of_two());
        assert!(pt_entries.is_power_of_two());
        assert!(filter_entries.is_power_of_two());
        assert!(max_depth > 0 && threshold <= 1000);
        Spp {
            st: vec![None; st_entries],
            st_mask: st_entries as u64 - 1,
            pt: vec![PtEntry::default(); pt_entries],
            pt_mask: pt_entries as u64 - 1,
            filter: vec![u64::MAX; filter_entries],
            filter_mask: filter_entries as u64 - 1,
            pf_issued: 0,
            pf_useful: 0,
            max_depth,
            threshold,
        }
    }

    /// The global accuracy estimate in per-mille (1000 until the issued
    /// count is large enough to be meaningful).
    fn global_accuracy(&self) -> u64 {
        if self.pf_issued < 32 {
            1000
        } else {
            (1000 * self.pf_useful / self.pf_issued).min(1000)
        }
    }
}

impl Prefetcher for Spp {
    fn on_access(&mut self, line: u64, _pc: u64, l1_hit: bool, out: &mut Vec<u64>) {
        if l1_hit {
            return;
        }
        // Global accuracy: a demand miss on a line we recently issued a
        // prefetch for proves that prefetch useful.
        let fslot = ((line ^ (line >> 11)) & self.filter_mask) as usize;
        if self.filter[fslot] == line {
            self.filter[fslot] = u64::MAX;
            self.pf_useful += 1;
        }
        let page = line / PAGE_LINES;
        let off = (line % PAGE_LINES) as u8;
        let slot = ((page ^ (page >> 9)) & self.st_mask) as usize;
        let mut sig = u16::from(off) & SIG_MASK;
        match self.st[slot] {
            Some(e) if e.page == page => {
                let delta = i16::from(off) - i16::from(e.last_off);
                if delta == 0 {
                    return;
                }
                self.pt[(u64::from(e.sig) & self.pt_mask) as usize].train(delta);
                sig = sig_advance(e.sig, delta);
            }
            _ => {}
        }
        self.st[slot] = Some(StEntry {
            page,
            sig,
            last_off: off,
        });

        // Lookahead: walk the signature path while the multiplied
        // (accuracy-modulated) confidence stays above the throttle floor.
        let ga = self.global_accuracy();
        let mut cur_sig = sig;
        let mut base = line;
        let mut path_conf = 1000u64;
        for _ in 0..self.max_depth {
            let Some(best) = self.pt[(u64::from(cur_sig) & self.pt_mask) as usize].best() else {
                break;
            };
            let entry = &self.pt[(u64::from(cur_sig) & self.pt_mask) as usize];
            let c_sig = u64::from(entry.c_sig).max(1);
            let conf = path_conf * u64::from(best.c_delta) / c_sig;
            let conf = conf * ga / 1000;
            if conf < self.threshold {
                break;
            }
            let cand = base as i64 + i64::from(best.delta);
            if cand < 0 || (cand as u64) / PAGE_LINES != page {
                break; // physical prefetching stops at the page boundary
            }
            let cand = cand as u64;
            let fslot = ((cand ^ (cand >> 11)) & self.filter_mask) as usize;
            if self.filter[fslot] != cand {
                self.filter[fslot] = cand;
                self.pf_issued += 1;
                out.push(cand);
            }
            base = cand;
            cur_sig = sig_advance(cur_sig, best.delta);
            path_conf = conf;
        }
    }

    fn name(&self) -> &'static str {
        "spp"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn misses(p: &mut dyn Prefetcher, lines: &[u64], pc: u64) -> Vec<u64> {
        let mut out = Vec::new();
        for &l in lines {
            out.clear();
            p.on_access(l, pc, false, &mut out);
        }
        out
    }

    #[test]
    fn ghbw_replays_constant_stride() {
        let mut g = GhbWidth::new(256, 256, 3, 3, 3);
        let lines: Vec<u64> = (0..12).map(|i| 1000 + 5 * i).collect();
        let out = misses(&mut g, &lines, 0x40);
        assert!(
            out.contains(&(1000 + 5 * 12)),
            "stride-5 continuation expected, got {out:?}"
        );
    }

    #[test]
    fn ghbw_stride_fallback_on_cold_delta() {
        let mut g = GhbWidth::new(256, 256, 3, 3, 3);
        let out = misses(&mut g, &[100, 107], 0x40);
        // Delta 7 has no history: fallback prefetches 7 ahead, degree 3.
        assert_eq!(out, vec![114, 121, 128]);
    }

    #[test]
    fn ghbw_width_replays_what_followed() {
        // Pattern: after delta +2 the stream historically jumps +10.
        let mut g = GhbWidth::new(256, 256, 3, 3, 3);
        let lines = [100u64, 102, 112, 200, 202];
        let out = misses(&mut g, &lines, 0x1);
        assert!(
            out.contains(&212),
            "the +10 follower of delta +2 should replay rebased: {out:?}"
        );
    }

    #[test]
    fn sisb_learns_temporal_chains() {
        let mut s = Sisb::new(64, 1024, 3);
        // An irregular but repeating pointer chain from one PC.
        let chain = [900u64, 17, 5000, 333, 900, 17, 5000, 333];
        misses(&mut s, &chain, 0x20);
        // On revisiting the chain head, the successors replay.
        let mut out = Vec::new();
        s.on_access(900, 0x20, false, &mut out);
        assert_eq!(out, vec![17, 5000, 333]);
    }

    #[test]
    fn sisb_distinct_pcs_do_not_cross_train() {
        let mut s = Sisb::new(64, 1024, 2);
        misses(&mut s, &[10, 20, 10, 20], 0x1);
        let out = misses(&mut s, &[10], 0x2);
        // PC 0x2 sees line 10 fresh, but the mapping cache is shared by
        // design (temporal streams are PC-agnostic once learned).
        assert_eq!(out, vec![20]);
    }

    #[test]
    fn sisb_ignores_l1_hits() {
        let mut s = Sisb::new(64, 1024, 2);
        let mut out = Vec::new();
        for l in [1u64, 2, 1, 2] {
            s.on_access(l, 0x9, true, &mut out);
        }
        assert!(out.is_empty());
    }

    #[test]
    fn spp_learns_in_page_stride() {
        let mut p = Spp::new(64, 1024, 256, 8, 250);
        // Stride +2 within one page, repeated enough to build confidence.
        let lines: Vec<u64> = (0..20).map(|i| 64 * 7 + 2 * i).collect();
        let out = misses(&mut p, &lines, 0x4);
        // Earlier misses already issued (and filtered) the near lookahead,
        // so the final miss extends the frontier past the accessed stream —
        // strictly ahead, still inside page 7.
        let last = 64 * 7 + 2 * 19;
        assert!(
            !out.is_empty() && out.iter().all(|&l| l > last && l / 64 == 7),
            "in-page stride should prefetch ahead: {out:?}"
        );
    }

    #[test]
    fn spp_throttles_on_random_offsets() {
        let mut p = Spp::new(64, 1024, 256, 8, 250);
        let mut x = 0xDEAD_BEEFu64;
        let mut issued = 0usize;
        let mut out = Vec::new();
        for _ in 0..400 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            let line = 64 * (x % 8) + ((x >> 32) % 64); // 8 pages, random offsets
            out.clear();
            p.on_access(line, 0x4, false, &mut out);
            issued += out.len();
        }
        assert!(
            issued < 400,
            "path confidence must throttle on noise: {issued} issued"
        );
    }

    #[test]
    fn spp_stays_inside_the_page() {
        let mut p = Spp::new(64, 1024, 256, 8, 250);
        // Stride +8 marching toward the page end.
        let lines: Vec<u64> = (0..8).map(|i| 64 * 3 + 8 * i).collect();
        let out = misses(&mut p, &lines, 0x4);
        assert!(
            out.iter().all(|&l| l / 64 == 3),
            "prefetches must not cross the page: {out:?}"
        );
    }

    #[test]
    fn spp_counter_saturation_halves() {
        let mut e = PtEntry::default();
        for _ in 0..C_SAT {
            e.train(2);
        }
        assert!(e.c_sig < C_SAT, "saturation must halve the counters");
        assert!(e.best().expect("slot").c_delta > 0);
    }
}
