//! Pipeline-viewer renderings of flight-recorder events: the Kanata
//! export ([`render_kanata`]) and the text lanes of `crisp pipeview`
//! ([`render_pipeview`]).
//!
//! The Kanata text follows the Kanata 0004 command format the Konata
//! viewer parses: a `Kanata<TAB>0004` header, `C=`/`C` cycle commands, and
//! per-instruction `I` (begin), `L` (label), `S` (stage start) and `R`
//! (retire) commands. Stage starts implicitly end the previous stage in
//! the same lane, so the exporter never needs `E` commands.

use crate::recorder::{EventKind, TraceEvent};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// The format header line.
pub const KANATA_HEADER: &str = "Kanata\t0004";

/// Filters applied at export: only instructions with at least one event in
/// the cycle window (and, when set, a matching PC) are emitted.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceFilter {
    /// First cycle of the window (inclusive).
    pub min_cycle: u64,
    /// Last cycle of the window (inclusive).
    pub max_cycle: u64,
    /// When set, keep only instructions at this PC.
    pub pc: Option<u64>,
}

impl Default for TraceFilter {
    fn default() -> TraceFilter {
        TraceFilter {
            min_cycle: 0,
            max_cycle: u64::MAX,
            pc: None,
        }
    }
}

impl TraceFilter {
    fn keeps(&self, events: &[TraceEvent]) -> bool {
        let in_window = events
            .iter()
            .any(|e| e.cycle >= self.min_cycle && e.cycle <= self.max_cycle);
        let pc_ok = self.pc.is_none_or(|pc| events.iter().any(|e| e.pc == pc));
        in_window && pc_ok
    }
}

/// Renders flight-recorder events as a Kanata 0004 pipeline-viewer trace.
///
/// Events are regrouped by instruction and re-sorted by cycle, so the
/// recorder's completion events (stamped with their *future* cycle at
/// issue time) land in the right place. Instructions that pass the filter
/// are emitted whole.
pub fn render_kanata(events: &[TraceEvent], filter: &TraceFilter) -> String {
    // Group events per instruction (seq is program order).
    let mut per_inst: BTreeMap<u64, Vec<TraceEvent>> = BTreeMap::new();
    for e in events {
        per_inst.entry(e.seq).or_default().push(*e);
    }
    per_inst.retain(|_, evs| filter.keeps(evs));

    // Flatten into (cycle, order, command) lines. `order` keeps commands
    // of one cycle deterministic: instruction begin before stages, by seq.
    let mut commands: Vec<(u64, u64, u8, String)> = Vec::new();
    for (&seq, evs) in &per_inst {
        let mut evs = evs.clone();
        evs.sort_by_key(|e| (e.cycle, e.kind.code()));
        let first = evs[0];
        commands.push((first.cycle, seq, 0, format!("I\t{seq}\t{seq}\t0")));
        commands.push((
            first.cycle,
            seq,
            1,
            format!("L\t{seq}\t0\tseq={seq} pc={:#x}", first.pc),
        ));
        for e in &evs {
            match e.kind {
                EventKind::Retire => {
                    commands.push((e.cycle, seq, 2, format!("R\t{seq}\t{seq}\t0")));
                }
                EventKind::Redirect => {
                    commands.push((
                        e.cycle,
                        seq,
                        2,
                        format!("L\t{seq}\t1\tmispredict redirect at cycle {}", e.cycle),
                    ));
                }
                kind => {
                    commands.push((e.cycle, seq, 2, format!("S\t{seq}\t0\t{}", kind.label())));
                    if kind == EventKind::Complete {
                        if let Some(fill) = e.fill {
                            commands.push((
                                e.cycle,
                                seq,
                                3,
                                format!("L\t{seq}\t1\tfill={}", fill.label()),
                            ));
                        }
                    }
                }
            }
        }
    }
    commands.sort_by_key(|a| (a.0, a.1, a.2));

    let mut out = String::new();
    out.push_str(KANATA_HEADER);
    out.push('\n');
    let mut current_cycle: Option<u64> = None;
    for (cycle, _, _, cmd) in commands {
        match current_cycle {
            None => {
                let _ = writeln!(out, "C=\t{cycle}");
            }
            Some(c) if cycle > c => {
                let _ = writeln!(out, "C\t{}", cycle - c);
            }
            _ => {}
        }
        current_cycle = Some(cycle);
        out.push_str(&cmd);
        out.push('\n');
    }
    out
}

/// Renders the instructions whose sequence numbers fall in `[from, to)`
/// as gem5-O3-pipeview-style text, one lane per instruction in sequence
/// order, time flowing rightward from the earliest fetch in the window:
/// `f` fetch, `d` dispatch wait, `i` issue, `=` executing, `.`
/// completed and waiting to retire, `r` retire.
///
/// An instruction is drawn only when `events` hold all five of its stage
/// events: it retired, and the ring evicted none of them. Redirect
/// events are not drawn.
pub fn render_pipeview(events: &[TraceEvent], from: u64, to: u64) -> String {
    // Per instruction: its pc and the fetch, dispatch, issue, complete
    // and retire cycles.
    let mut stages: BTreeMap<u64, (u64, [Option<u64>; 5])> = BTreeMap::new();
    for e in events.iter().filter(|e| (from..to).contains(&e.seq)) {
        let stage = match e.kind {
            EventKind::Fetch => 0,
            EventKind::Dispatch => 1,
            EventKind::Issue => 2,
            EventKind::Complete => 3,
            EventKind::Retire => 4,
            EventKind::Redirect => continue,
        };
        stages.entry(e.seq).or_insert((e.pc, [None; 5])).1[stage] = Some(e.cycle);
    }
    let window: Vec<(u64, u64, [u64; 5])> = stages
        .into_iter()
        .filter_map(|(seq, (pc, cycles))| {
            let [Some(f), Some(d), Some(i), Some(c), Some(r)] = cycles else {
                return None;
            };
            Some((seq, pc, [f, d, i, c, r]))
        })
        .collect();
    let Some(origin) = window.iter().map(|&(_, _, [fetch, ..])| fetch).min() else {
        return String::new();
    };
    let mut out = String::new();
    for (seq, pc, [fetch, dispatch, issue, complete, retire]) in window {
        let col = |c: u64| (c - origin) as usize;
        let width = col(retire) + 1;
        let mut lane = vec![b' '; width];
        for (a, b, ch) in [
            (fetch, dispatch, b'f'),
            (dispatch, issue, b'd'),
            (issue + 1, complete, b'='),
            (complete, retire, b'.'),
        ] {
            for slot in lane.iter_mut().take(col(b).min(width)).skip(col(a)) {
                *slot = ch;
            }
        }
        lane[col(issue).min(width - 1)] = b'i';
        lane[width - 1] = b'r';
        let lane = String::from_utf8(lane).expect("ascii");
        let _ = writeln!(out, "{seq:>6} pc{pc:<5} |{lane}");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::FillLevel;

    fn ev(cycle: u64, seq: u64, pc: u64, kind: EventKind, fill: Option<FillLevel>) -> TraceEvent {
        TraceEvent {
            cycle,
            seq,
            pc,
            kind,
            fill,
        }
    }

    fn tiny_trace() -> Vec<TraceEvent> {
        vec![
            ev(0, 0, 0x40, EventKind::Fetch, None),
            ev(5, 0, 0x40, EventKind::Dispatch, None),
            ev(6, 0, 0x40, EventKind::Issue, None),
            ev(40, 0, 0x40, EventKind::Complete, Some(FillLevel::Dram)),
            ev(41, 0, 0x40, EventKind::Retire, None),
            ev(1, 1, 0x44, EventKind::Fetch, None),
            ev(6, 1, 0x44, EventKind::Dispatch, None),
            ev(7, 1, 0x44, EventKind::Issue, None),
            ev(8, 1, 0x44, EventKind::Complete, None),
            ev(42, 1, 0x44, EventKind::Retire, None),
        ]
    }

    #[test]
    fn header_and_cycle_commands_are_well_formed() {
        let s = render_kanata(&tiny_trace(), &TraceFilter::default());
        let mut lines = s.lines();
        assert_eq!(lines.next().unwrap(), KANATA_HEADER);
        assert_eq!(lines.next().unwrap(), "C=\t0");
        assert!(s.contains("I\t0\t0\t0"));
        assert!(s.contains("S\t0\t0\tF"));
        assert!(s.contains("S\t0\t0\tCm"));
        assert!(s.contains("L\t0\t1\tfill=DRAM"));
        assert!(s.contains("R\t1\t1\t0"));
        // Cycle deltas must be monotone: replaying C=/C never rewinds.
        let mut cycle = 0u64;
        for line in s.lines().skip(1) {
            let mut parts = line.split('\t');
            match parts.next().unwrap() {
                "C=" => cycle = parts.next().unwrap().parse().unwrap(),
                "C" => cycle += parts.next().unwrap().parse::<u64>().unwrap(),
                _ => {}
            }
        }
        assert_eq!(cycle, 42);
    }

    #[test]
    fn filters_drop_whole_instructions() {
        let all = tiny_trace();
        let windowed = render_kanata(
            &all,
            &TraceFilter {
                min_cycle: 42,
                max_cycle: u64::MAX,
                pc: None,
            },
        );
        // Only seq 1 has an event at cycle >= 42; seq 0's last is 41.
        assert!(!windowed.contains("I\t0\t0\t0"), "{windowed}");
        assert!(windowed.contains("I\t1\t1\t0"));
        // But the kept instruction is emitted whole, from its fetch.
        assert!(windowed.contains("S\t1\t0\tF"));

        let by_pc = render_kanata(
            &all,
            &TraceFilter {
                pc: Some(0x40),
                ..TraceFilter::default()
            },
        );
        assert!(by_pc.contains("I\t0\t0\t0"));
        assert!(!by_pc.contains("I\t1\t1\t0"));
    }

    #[test]
    fn pipeview_renders_lanes_in_window() {
        let mut events = Vec::new();
        for (seq, pc, cycles) in [(0, 7, [10, 15, 16, 20, 22]), (1, 8, [11, 15, 17, 18, 22])] {
            let kinds = [
                EventKind::Fetch,
                EventKind::Dispatch,
                EventKind::Issue,
                EventKind::Complete,
                EventKind::Retire,
            ];
            for (cycle, kind) in cycles.into_iter().zip(kinds) {
                events.push(ev(cycle, seq, pc, kind, None));
            }
        }
        events.push(ev(19, 1, 8, EventKind::Redirect, None));
        // Still in flight: no retire event, so no lane.
        events.push(ev(12, 2, 9, EventKind::Fetch, None));
        assert_eq!(
            render_pipeview(&events, 0, 3),
            "     0 pc7     |fffffdi===..r\n     1 pc8     | ffffddi....r\n"
        );
        // The window selects by sequence number, and draws from its own
        // earliest fetch.
        assert_eq!(
            render_pipeview(&events, 1, 2),
            "     1 pc8     |ffffddi....r\n"
        );
        assert!(render_pipeview(&events, 5, 9).is_empty());
    }

    #[test]
    fn empty_input_is_just_the_header() {
        assert_eq!(
            render_kanata(&[], &TraceFilter::default()),
            format!("{KANATA_HEADER}\n")
        );
    }
}
