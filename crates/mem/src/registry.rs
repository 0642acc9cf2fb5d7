//! The prefetcher units and the spec that selects them: the closed
//! table of the seven units with their options, and the
//! `NAME[:k=v,…][+NAME…]` grammar used by `--prefetcher` across the CLI,
//! config and sweep planner.
//!
//! A spec selects up to [`MAX_PREFETCHERS`] units composed side by side
//! (the paper's baseline is `bop+stream`); `none` disables data
//! prefetching. The units are a closed set — the Table 1 baseline and
//! the prefzoo competitors — and a spec is checked in full when it is
//! made, so every [`PrefetcherSpec`] builds.

use crate::prefetch::{Bop, Ghb, Prefetcher, StreamPrefetcher, StridePrefetcher};
use crate::zoo::{GhbWidth, Sisb, Spp};

/// Maximum prefetcher units one hierarchy composes (effectiveness
/// counters are sized by this).
pub const MAX_PREFETCHERS: usize = 4;

/// Maximum spec string length in bytes (the spec is stored inline so
/// `HierarchyConfig` stays `Copy`).
pub const SPEC_CAP: usize = 56;

/// Largest table size an option accepts, in entries. With it, the
/// largest unit's tables stay under 64 MiB.
const MAX_ENTRIES: u64 = 1 << 20;

/// Largest degree, depth, width, window or stream count an option
/// accepts: one 4 KiB page of 64-byte lines. These bound the candidates
/// a unit emits, or the entries it scans, on every access.
const MAX_REACH: u64 = 64;

/// What an option value must be, beyond nonzero.
enum Check {
    /// A table size of at most [`MAX_ENTRIES`].
    Size,
    /// A power-of-two table size of at most [`MAX_ENTRIES`].
    Pow2,
    /// A count of at most [`MAX_REACH`].
    Reach,
    /// A per-mille fraction.
    PerMille,
}

/// One unit option: its key, its default and its check.
struct Opt(&'static str, u64, Check);

/// The zoo: every unit name with its options, in the order its
/// constructor takes them (and the order [`PrefetcherSpec::build`]
/// reads them).
const UNITS: [(&str, &[Opt]); 7] = {
    use Check::{PerMille, Pow2, Reach, Size};
    [
        (
            "stream",
            &[
                Opt("streams", 16, Reach),
                Opt("window", 4, Reach),
                Opt("degree", 2, Reach),
            ],
        ),
        (
            "stride",
            &[Opt("entries", 256, Pow2), Opt("degree", 2, Reach)],
        ),
        ("bop", &[]),
        (
            "ghb",
            &[
                Opt("entries", 512, Size),
                Opt("index", 256, Pow2),
                Opt("degree", 4, Reach),
            ],
        ),
        (
            "ghbw",
            &[
                Opt("entries", 256, Size),
                Opt("ait", 256, Pow2),
                Opt("width", 3, Reach),
                Opt("depth", 3, Reach),
                Opt("degree", 3, Reach),
            ],
        ),
        (
            "sisb",
            &[
                Opt("tu", 256, Pow2),
                Opt("map", 4096, Pow2),
                Opt("degree", 3, Reach),
            ],
        ),
        (
            "spp",
            &[
                Opt("st", 256, Pow2),
                Opt("pt", 4096, Pow2),
                Opt("filter", 1024, Pow2),
                Opt("depth", 8, Reach),
                Opt("threshold", 250, PerMille),
            ],
        ),
    ]
};

/// Most options any unit takes.
const MAX_OPTS: usize = 5;

/// One unit of a checked spec: its name, its options and their values,
/// in [`UNITS`] order.
struct Unit {
    name: &'static str,
    opts: &'static [Opt],
    args: [u64; MAX_OPTS],
}

/// A prefetcher selection spec: a bounded inline string of the form
/// `NAME[:k=v,…]` joined by `+`, e.g. `bop+stream` or `spp:depth=4`.
/// Every spec names known units with valid options: the checks run when
/// the spec is made. It keeps the text as given, so `stride` and
/// `stride:degree=2` are distinct specs that build the same unit.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct PrefetcherSpec {
    len: u8,
    buf: [u8; SPEC_CAP],
}

impl PrefetcherSpec {
    /// Parses and checks a spec.
    ///
    /// # Errors
    ///
    /// Rejects empty, over-long, or non-printable-ASCII text, `none`
    /// composed with other units, more than [`MAX_PREFETCHERS`] units,
    /// repeated or unknown units, and malformed, unknown, zero or
    /// out-of-range options.
    pub fn new(s: &str) -> Result<PrefetcherSpec, String> {
        if s.is_empty() {
            return Err("prefetcher spec must not be empty".into());
        }
        if s.len() > SPEC_CAP {
            return Err(format!("prefetcher spec `{s}` exceeds {SPEC_CAP} bytes"));
        }
        if !s.bytes().all(|b| b.is_ascii_graphic()) {
            return Err(format!(
                "prefetcher spec `{s}` must be printable ASCII without spaces"
            ));
        }
        parse(s)?;
        let mut buf = [0u8; SPEC_CAP];
        buf[..s.len()].copy_from_slice(s.as_bytes());
        Ok(PrefetcherSpec {
            len: s.len() as u8,
            buf,
        })
    }

    /// The spec text.
    pub fn as_str(&self) -> &str {
        std::str::from_utf8(&self.buf[..self.len as usize]).expect("validated ASCII")
    }

    /// Builds the units this spec selects, in spec order.
    pub(crate) fn build(&self) -> Vec<Box<dyn Prefetcher>> {
        let units = parse(self.as_str()).expect("a spec is checked when it is made");
        units
            .into_iter()
            .map(|Unit { name, args: a, .. }| -> Box<dyn Prefetcher> {
                // Every value is at most `MAX_ENTRIES`, so no cast truncates.
                match name {
                    "stream" => Box::new(StreamPrefetcher::new(a[0] as usize, a[1], a[2])),
                    "stride" => Box::new(StridePrefetcher::new(a[0] as usize, a[1])),
                    "bop" => Box::new(Bop::new()),
                    "ghb" => Box::new(Ghb::new(a[0] as usize, a[1] as usize, a[2] as usize)),
                    "ghbw" => Box::new(GhbWidth::new(
                        a[0] as usize,
                        a[1] as usize,
                        a[2] as usize,
                        a[3] as usize,
                        a[4] as usize,
                    )),
                    "sisb" => Box::new(Sisb::new(a[0] as usize, a[1] as usize, a[2] as usize)),
                    "spp" => Box::new(Spp::new(
                        a[0] as usize,
                        a[1] as usize,
                        a[2] as usize,
                        a[3] as usize,
                        a[4],
                    )),
                    _ => unreachable!("`{name}` is not a unit"),
                }
            })
            .collect()
    }
}

impl Default for PrefetcherSpec {
    /// The paper's Table 1 baseline: BOP + Stream.
    fn default() -> PrefetcherSpec {
        PrefetcherSpec::new("bop+stream").expect("static spec")
    }
}

impl std::fmt::Debug for PrefetcherSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "PrefetcherSpec({})", self.as_str())
    }
}

impl std::fmt::Display for PrefetcherSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

impl std::str::FromStr for PrefetcherSpec {
    type Err = String;

    fn from_str(s: &str) -> Result<PrefetcherSpec, String> {
        PrefetcherSpec::new(s)
    }
}

/// Parses a spec's units, in spec order (none for `none`).
///
/// # Errors
///
/// Everything [`PrefetcherSpec::new`] rejects beyond the text checks.
fn parse(s: &str) -> Result<Vec<Unit>, String> {
    if s == "none" {
        return Ok(Vec::new());
    }
    let names: Vec<&str> = s.split('+').collect();
    if names.len() > MAX_PREFETCHERS {
        return Err(format!(
            "prefetcher spec `{s}` selects {} units, maximum {MAX_PREFETCHERS}",
            names.len()
        ));
    }
    let mut units: Vec<Unit> = Vec::with_capacity(names.len());
    for unit in names {
        let (name, opts) = unit.split_once(':').unwrap_or((unit, ""));
        if name == "none" {
            return Err(format!(
                "prefetcher spec `{s}`: `none` cannot be composed with other units"
            ));
        }
        if units.iter().any(|u| u.name == name) {
            return Err(format!("prefetcher spec `{s}` repeats unit `{name}`"));
        }
        let &(name, keys) = UNITS.iter().find(|(n, _)| *n == name).ok_or_else(|| {
            let known: Vec<&str> = UNITS.iter().map(|(n, _)| *n).collect();
            format!(
                "unknown prefetcher `{name}` (known: none, {})",
                known.join(", ")
            )
        })?;
        units.push(Unit {
            name,
            opts: keys,
            args: read_opts(name, keys, opts)?,
        });
    }
    // The bounds are checked last, so a spec that also breaks another
    // rule is rejected for that rule.
    for u in &units {
        for (Opt(key, _, check), &v) in u.opts.iter().zip(&u.args) {
            let max = match check {
                Check::Size | Check::Pow2 => MAX_ENTRIES,
                Check::Reach => MAX_REACH,
                Check::PerMille => continue,
            };
            if v > max {
                return Err(format!(
                    "prefetcher `{}` option `{key}` ({v}) must be at most {max}",
                    u.name
                ));
            }
        }
    }
    Ok(units)
}

/// Parses a `k=v[,k=v…]` option string into integer pairs.
///
/// # Errors
///
/// Rejects malformed pairs and non-integer values.
fn parse_opts(opts: &str) -> Result<Vec<(&str, u64)>, String> {
    if opts.is_empty() {
        return Ok(Vec::new());
    }
    opts.split(',')
        .map(|kv| {
            let (k, v) = kv
                .split_once('=')
                .ok_or_else(|| format!("option `{kv}` is not of the form k=v"))?;
            let v: u64 = v
                .parse()
                .map_err(|_| format!("option `{k}` value `{v}` is not an integer"))?;
            Ok((k, v))
        })
        .collect()
}

/// Reads one unit's option string against its declared keys, starting
/// from their defaults.
///
/// # Errors
///
/// Rejects options given to a unit without any, unknown keys, zero
/// values, sizes that must be powers of two and are not, and per-mille
/// values above 1000.
fn read_opts(unit: &str, keys: &[Opt], opts: &str) -> Result<[u64; MAX_OPTS], String> {
    if keys.is_empty() && !opts.is_empty() {
        return Err(format!(
            "prefetcher `{unit}` takes no options (got `{opts}`)"
        ));
    }
    let mut args = [0; MAX_OPTS];
    for (arg, Opt(_, default, _)) in args.iter_mut().zip(keys) {
        *arg = *default;
    }
    for (k, v) in parse_opts(opts)? {
        let Some(i) = keys.iter().position(|Opt(key, ..)| *key == k) else {
            let known: Vec<&str> = keys.iter().map(|Opt(key, ..)| *key).collect();
            return Err(format!(
                "prefetcher `{unit}` has no option `{k}` (known: {})",
                known.join(", ")
            ));
        };
        if v == 0 {
            return Err(format!("prefetcher `{unit}` option `{k}` must be nonzero"));
        }
        args[i] = v;
    }
    for (Opt(key, _, check), &v) in keys.iter().zip(&args) {
        match check {
            Check::Pow2 if !v.is_power_of_two() => {
                return Err(format!(
                    "prefetcher `{unit}` option `{key}` ({v}) must be a power of two"
                ));
            }
            Check::PerMille if v > 1000 => {
                return Err(format!(
                    "prefetcher `{unit}` option `{key}` ({v}) is per-mille (max 1000)"
                ));
            }
            _ => {}
        }
    }
    Ok(args)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(s: &str) -> PrefetcherSpec {
        PrefetcherSpec::new(s).unwrap()
    }

    #[test]
    fn spec_bounds_and_charset() {
        assert!(PrefetcherSpec::new("").is_err());
        assert!(PrefetcherSpec::new("a b").is_err());
        assert!(PrefetcherSpec::new(&"x".repeat(SPEC_CAP + 1)).is_err());
        assert_eq!(spec("bop+stream").as_str(), "bop+stream");
        assert_eq!(PrefetcherSpec::default(), spec("bop+stream"));
    }

    #[test]
    fn builtin_builds_every_unit_and_the_baseline() {
        for (name, _) in UNITS {
            let built = spec(name).build();
            assert_eq!(built.len(), 1, "{name}");
            assert_eq!(built[0].name(), name);
        }
        let base = PrefetcherSpec::default().build();
        assert_eq!(base.len(), 2);
        assert_eq!(base[0].name(), "bop");
        assert_eq!(base[1].name(), "stream");
        assert!(spec("none").build().is_empty());
    }

    #[test]
    fn options_are_parsed_and_validated() {
        // Accepted specs keep their text as given.
        for good in [
            "stride:degree=4",
            "spp:depth=4,threshold=100",
            "spp:depth=4+stride",
            "sisb:tu=4096,map=65536",
            "stride:degree=8",
            "stride:degree=2,degree=4",
            "bop:",
            "none",
        ] {
            let s = spec(good);
            assert_eq!(s.to_string(), good);
            assert_eq!(format!("{s:?}"), format!("PrefetcherSpec({good})"));
        }
        let known = "(known: none, stream, stride, bop, ghb, ghbw, sisb, spp)";
        for (bad, message) in [
            ("", "prefetcher spec must not be empty".to_string()),
            (
                "a b",
                "prefetcher spec `a b` must be printable ASCII without spaces".into(),
            ),
            (
                "stride:degree=0",
                "prefetcher `stride` option `degree` must be nonzero".into(),
            ),
            (
                "stride:entries=3",
                "prefetcher `stride` option `entries` (3) must be a power of two".into(),
            ),
            (
                "stride:bogus=1",
                "prefetcher `stride` has no option `bogus` (known: entries, degree)".into(),
            ),
            (
                "stride:degree",
                "option `degree` is not of the form k=v".into(),
            ),
            (
                "stride:,degree=2",
                "option `` is not of the form k=v".into(),
            ),
            (
                "stride:degree=x",
                "option `degree` value `x` is not an integer".into(),
            ),
            (
                "stream:streams=-1",
                "option `streams` value `-1` is not an integer".into(),
            ),
            (
                "bop:rr=8",
                "prefetcher `bop` takes no options (got `rr=8`)".into(),
            ),
            (
                "spp:threshold=2000",
                "prefetcher `spp` option `threshold` (2000) is per-mille (max 1000)".into(),
            ),
            (
                "spp:st=3,threshold=2000",
                "prefetcher `spp` option `st` (3) must be a power of two".into(),
            ),
            (
                "sisb:map=5",
                "prefetcher `sisb` option `map` (5) must be a power of two".into(),
            ),
            ("wat", format!("unknown prefetcher `wat` {known}")),
            ("stream+", format!("unknown prefetcher `` {known}")),
            (
                "wat+stride:degree=0",
                format!("unknown prefetcher `wat` {known}"),
            ),
            (
                "stride:degree=0+wat",
                "prefetcher `stride` option `degree` must be nonzero".into(),
            ),
            (
                "none+stream",
                "prefetcher spec `none+stream`: `none` cannot be composed with other units".into(),
            ),
            (
                "stream+stream",
                "prefetcher spec `stream+stream` repeats unit `stream`".into(),
            ),
            (
                "bop+stream+stride+ghb+spp",
                "prefetcher spec `bop+stream+stride+ghb+spp` selects 5 units, maximum 4".into(),
            ),
            // A bound is checked after every other rule, in every unit.
            (
                "stride:degree=65+wat",
                format!("unknown prefetcher `wat` {known}"),
            ),
            (
                "stride:entries=3,degree=65",
                "prefetcher `stride` option `entries` (3) must be a power of two".into(),
            ),
        ] {
            assert_eq!(
                PrefetcherSpec::new(bad).unwrap_err(),
                message,
                "`{bad}` is rejected when parsed"
            );
        }
    }

    #[test]
    fn every_numeric_option_is_bounded() {
        for (name, opts) in UNITS {
            for Opt(key, _, check) in opts {
                let (max, over) = match check {
                    Check::Size => (MAX_ENTRIES, MAX_ENTRIES + 1),
                    Check::Pow2 => (MAX_ENTRIES, 2 * MAX_ENTRIES),
                    Check::Reach => (MAX_REACH, MAX_REACH + 1),
                    Check::PerMille => continue,
                };
                let at = format!("{name}:{key}={max}");
                assert_eq!(PrefetcherSpec::new(&at).map(|s| s.to_string()), Ok(at));
                assert_eq!(
                    PrefetcherSpec::new(&format!("{name}:{key}={over}")).unwrap_err(),
                    format!("prefetcher `{name}` option `{key}` ({over}) must be at most {max}")
                );
            }
        }
        assert_eq!(
            PrefetcherSpec::new("stream:streams=4611686018427387904").unwrap_err(),
            "prefetcher `stream` option `streams` (4611686018427387904) must be at most 64"
        );
    }
}
