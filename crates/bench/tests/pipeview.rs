//! Output pin for `crisp pipeview`, which draws its lanes from the flight
//! recorder's events.
//!
//! The digests are FNV-1a over the binary's whole stdout. They were
//! blessed with the build whose simulator kept a separate per-instruction
//! timestamp table for the viewer, so a pass shows the recorder-drawn
//! lanes are byte-identical to that table's.

use std::process::Command;

const BIN: &str = env!("CARGO_BIN_EXE_crisp");

/// `(workload, --crisp, FNV-1a of stdout)` at `-n 3000 --from 2500 --len 100`.
const BLESSED: [(&str, bool, u64); 4] = [
    ("pointer_chase", false, 0x224f8e7dd2ccbf7c),
    ("pointer_chase", true, 0xca062433098a3344),
    ("mcf", false, 0x5f046837e8f83f70),
    ("mcf", true, 0x77ae047df92f2890),
];

fn digest(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

#[test]
fn pipeview_output_is_pinned() {
    for (workload, crisp, want) in BLESSED {
        let mut args = vec!["pipeview", workload];
        if crisp {
            args.push("--crisp");
        }
        args.extend(["-n", "3000", "--from", "2500", "--len", "100"]);
        let out = Command::new(BIN).args(&args).output().expect("spawn crisp");
        assert!(
            out.status.success(),
            "crisp {args:?}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let text = String::from_utf8_lossy(&out.stdout);
        // A header, a blank line, then one lane per instruction.
        assert_eq!(text.lines().count(), 102, "crisp {args:?}:\n{text}");
        assert_eq!(digest(&out.stdout), want, "crisp {args:?}:\n{text}");
    }
}
