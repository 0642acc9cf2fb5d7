//! The pluggable prefetcher registry: maps unit names (`bop`, `spp`, …)
//! to factories over the [`Prefetcher`] trait, and parses the
//! `NAME[:k=v,…][+NAME…]` spec grammar used by `--prefetcher` across the
//! CLI, config and sweep planner.
//!
//! A spec selects up to [`MAX_PREFETCHERS`] units composed side by side
//! (the paper's baseline is `bop+stream`); `none` disables data
//! prefetching. Downstream crates can [`PrefetcherRegistry::register`]
//! their own mechanisms — semantic/forecast-slice or helper-thread
//! prefetchers plug in without touching the hierarchy.

use crate::prefetch::{Bop, Ghb, Prefetcher, StreamPrefetcher, StridePrefetcher};
use crate::zoo::{GhbWidth, Sisb, Spp};

/// Maximum prefetcher units one hierarchy composes (effectiveness
/// counters are sized by this).
pub const MAX_PREFETCHERS: usize = 4;

/// Maximum spec string length in bytes (the spec is stored inline so
/// `HierarchyConfig` stays `Copy`).
pub const SPEC_CAP: usize = 56;

/// A prefetcher selection spec: a bounded inline string of the form
/// `NAME[:k=v,…]` joined by `+`, e.g. `bop+stream` or `spp:depth=4`.
/// Validation against known unit names happens in
/// [`PrefetcherRegistry::build`]; this type only bounds and normalises
/// the raw text.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct PrefetcherSpec {
    len: u8,
    buf: [u8; SPEC_CAP],
}

impl PrefetcherSpec {
    /// Wraps a raw spec string.
    ///
    /// # Errors
    ///
    /// Rejects empty, over-long, or non-printable-ASCII specs (name
    /// resolution is the registry's job).
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

    /// Whether this spec selects no data prefetching.
    pub fn is_none(&self) -> bool {
        self.as_str() == "none"
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

/// Parses a `k=v[,k=v…]` option string into integer pairs.
///
/// # Errors
///
/// Rejects malformed pairs and non-integer values.
pub fn parse_opts(opts: &str) -> Result<Vec<(&str, u64)>, String> {
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

/// Reads integer options against a declared key set with defaults.
///
/// # Errors
///
/// Rejects unknown keys and zero values.
fn read_opts(unit: &str, opts: &str, keys: &mut [(&str, &mut u64)]) -> Result<(), String> {
    for (k, v) in parse_opts(opts)? {
        let Some(slot) = keys.iter_mut().find(|(name, _)| *name == k) else {
            let known: Vec<&str> = keys.iter().map(|(n, _)| *n).collect();
            return Err(format!(
                "prefetcher `{unit}` has no option `{k}` (known: {})",
                known.join(", ")
            ));
        };
        if v == 0 {
            return Err(format!("prefetcher `{unit}` option `{k}` must be nonzero"));
        }
        *slot.1 = v;
    }
    Ok(())
}

fn pow2(unit: &str, key: &str, v: u64) -> Result<usize, String> {
    if v.is_power_of_two() {
        Ok(v as usize)
    } else {
        Err(format!(
            "prefetcher `{unit}` option `{key}` ({v}) must be a power of two"
        ))
    }
}

/// A prefetcher factory: builds a unit from its option string.
pub type PrefetcherFactory = Box<dyn Fn(&str) -> Result<Box<dyn Prefetcher>, String> + Send + Sync>;

struct RegistryEntry {
    name: String,
    help: String,
    factory: PrefetcherFactory,
}

/// The name-to-factory registry behind the `--prefetcher` axis.
pub struct PrefetcherRegistry {
    entries: Vec<RegistryEntry>,
}

impl PrefetcherRegistry {
    /// An empty registry (use [`PrefetcherRegistry::builtin`] for the
    /// standard zoo).
    pub fn new() -> PrefetcherRegistry {
        PrefetcherRegistry {
            entries: Vec::new(),
        }
    }

    /// The built-in zoo: `stream`, `stride`, `bop`, `ghb`, `ghbw`,
    /// `sisb` and `spp`.
    pub fn builtin() -> PrefetcherRegistry {
        let mut r = PrefetcherRegistry::new();
        let must = |r: &mut PrefetcherRegistry, name: &str, help: &str, f: PrefetcherFactory| {
            r.register(name, help, f).expect("builtin names are unique");
        };
        must(
            &mut r,
            "stream",
            "multi-stream sequential (streams=16, window=4, degree=2)",
            Box::new(|opts| {
                let (mut streams, mut window, mut degree) = (16, 4, 2);
                read_opts(
                    "stream",
                    opts,
                    &mut [
                        ("streams", &mut streams),
                        ("window", &mut window),
                        ("degree", &mut degree),
                    ],
                )?;
                Ok(Box::new(StreamPrefetcher::new(
                    streams as usize,
                    window,
                    degree,
                )))
            }),
        );
        must(
            &mut r,
            "stride",
            "per-PC stride, reference prediction table (entries=256, degree=2)",
            Box::new(|opts| {
                let (mut entries, mut degree) = (256, 2);
                read_opts(
                    "stride",
                    opts,
                    &mut [("entries", &mut entries), ("degree", &mut degree)],
                )?;
                let entries = pow2("stride", "entries", entries)?;
                Ok(Box::new(StridePrefetcher::new(entries, degree)))
            }),
        );
        must(
            &mut r,
            "bop",
            "best-offset (Michaud HPCA'16); no options",
            Box::new(|opts| {
                if !opts.is_empty() {
                    return Err(format!("prefetcher `bop` takes no options (got `{opts}`)"));
                }
                Ok(Box::new(Bop::new()))
            }),
        );
        must(
            &mut r,
            "ghb",
            "GHB PC/delta-correlation (entries=512, index=256, degree=4)",
            Box::new(|opts| {
                let (mut entries, mut index, mut degree) = (512, 256, 4);
                read_opts(
                    "ghb",
                    opts,
                    &mut [
                        ("entries", &mut entries),
                        ("index", &mut index),
                        ("degree", &mut degree),
                    ],
                )?;
                let index = pow2("ghb", "index", index)?;
                Ok(Box::new(Ghb::new(entries as usize, index, degree as usize)))
            }),
        );
        must(
            &mut r,
            "ghbw",
            "GHB stride/width, delta-indexed (entries=256, ait=256, width=3, depth=3, degree=3)",
            Box::new(|opts| {
                let (mut entries, mut ait, mut width, mut depth, mut degree) = (256, 256, 3, 3, 3);
                read_opts(
                    "ghbw",
                    opts,
                    &mut [
                        ("entries", &mut entries),
                        ("ait", &mut ait),
                        ("width", &mut width),
                        ("depth", &mut depth),
                        ("degree", &mut degree),
                    ],
                )?;
                let ait = pow2("ghbw", "ait", ait)?;
                Ok(Box::new(GhbWidth::new(
                    entries as usize,
                    ait,
                    width as usize,
                    depth as usize,
                    degree as usize,
                )))
            }),
        );
        must(
            &mut r,
            "sisb",
            "SISB temporal streaming (tu=256, map=4096, degree=3)",
            Box::new(|opts| {
                let (mut tu, mut map, mut degree) = (256, 4096, 3);
                read_opts(
                    "sisb",
                    opts,
                    &mut [("tu", &mut tu), ("map", &mut map), ("degree", &mut degree)],
                )?;
                let tu = pow2("sisb", "tu", tu)?;
                let map = pow2("sisb", "map", map)?;
                Ok(Box::new(Sisb::new(tu, map, degree as usize)))
            }),
        );
        must(
            &mut r,
            "spp",
            "SPP signature-path with path-confidence throttle \
             (st=256, pt=4096, filter=1024, depth=8, threshold=250)",
            Box::new(|opts| {
                let (mut st, mut pt, mut filter, mut depth, mut threshold) =
                    (256, 4096, 1024, 8, 250);
                read_opts(
                    "spp",
                    opts,
                    &mut [
                        ("st", &mut st),
                        ("pt", &mut pt),
                        ("filter", &mut filter),
                        ("depth", &mut depth),
                        ("threshold", &mut threshold),
                    ],
                )?;
                let st = pow2("spp", "st", st)?;
                let pt = pow2("spp", "pt", pt)?;
                let filter = pow2("spp", "filter", filter)?;
                if threshold > 1000 {
                    return Err(format!(
                        "prefetcher `spp` option `threshold` ({threshold}) is per-mille (max 1000)"
                    ));
                }
                Ok(Box::new(Spp::new(
                    st,
                    pt,
                    filter,
                    depth as usize,
                    threshold,
                )))
            }),
        );
        r
    }

    /// Registers a new unit name.
    ///
    /// # Errors
    ///
    /// Rejects duplicate or malformed names (lowercase alphanumeric,
    /// `none` and `+`/`:` reserved by the spec grammar).
    pub fn register(
        &mut self,
        name: &str,
        help: &str,
        factory: PrefetcherFactory,
    ) -> Result<(), String> {
        if name.is_empty()
            || !name
                .bytes()
                .all(|b| b.is_ascii_lowercase() || b.is_ascii_digit())
        {
            return Err(format!(
                "prefetcher name `{name}` must be lowercase alphanumeric"
            ));
        }
        if name == "none" {
            return Err("prefetcher name `none` is reserved".into());
        }
        if self.entries.iter().any(|e| e.name == name) {
            return Err(format!("prefetcher `{name}` is already registered"));
        }
        self.entries.push(RegistryEntry {
            name: name.to_string(),
            help: help.to_string(),
            factory,
        });
        Ok(())
    }

    /// The registered unit names with their one-line descriptions, in
    /// registration order.
    pub fn entries(&self) -> impl Iterator<Item = (&str, &str)> {
        self.entries
            .iter()
            .map(|e| (e.name.as_str(), e.help.as_str()))
    }

    /// Builds the prefetcher selection a spec describes, in spec order.
    ///
    /// # Errors
    ///
    /// Rejects unknown unit names, malformed options, `none` composed
    /// with other units, duplicate units and selections longer than
    /// [`MAX_PREFETCHERS`].
    pub fn build(&self, spec: &PrefetcherSpec) -> Result<Vec<Box<dyn Prefetcher>>, String> {
        let s = spec.as_str();
        if s == "none" {
            return Ok(Vec::new());
        }
        let units: Vec<&str> = s.split('+').collect();
        if units.len() > MAX_PREFETCHERS {
            return Err(format!(
                "prefetcher spec `{s}` selects {} units, maximum {MAX_PREFETCHERS}",
                units.len()
            ));
        }
        let mut built: Vec<Box<dyn Prefetcher>> = Vec::with_capacity(units.len());
        let mut seen: Vec<&str> = Vec::with_capacity(units.len());
        for unit in units {
            let (name, opts) = unit.split_once(':').unwrap_or((unit, ""));
            if name == "none" {
                return Err(format!(
                    "prefetcher spec `{s}`: `none` cannot be composed with other units"
                ));
            }
            if seen.contains(&name) {
                return Err(format!("prefetcher spec `{s}` repeats unit `{name}`"));
            }
            seen.push(name);
            let entry = self
                .entries
                .iter()
                .find(|e| e.name == name)
                .ok_or_else(|| {
                    let known: Vec<&str> = self.entries.iter().map(|e| e.name.as_str()).collect();
                    format!(
                        "unknown prefetcher `{name}` (known: none, {})",
                        known.join(", ")
                    )
                })?;
            built.push((entry.factory)(opts)?);
        }
        Ok(built)
    }
}

impl Default for PrefetcherRegistry {
    fn default() -> PrefetcherRegistry {
        PrefetcherRegistry::builtin()
    }
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
        assert!(spec("none").is_none());
        assert!(!spec("spp").is_none());
    }

    #[test]
    fn builtin_builds_every_unit_and_the_baseline() {
        let r = PrefetcherRegistry::builtin();
        for (name, _) in r.entries() {
            let built = r.build(&spec(name)).unwrap();
            assert_eq!(built.len(), 1, "{name}");
            assert_eq!(built[0].name(), name);
        }
        let base = r.build(&PrefetcherSpec::default()).unwrap();
        assert_eq!(base.len(), 2);
        assert_eq!(base[0].name(), "bop");
        assert_eq!(base[1].name(), "stream");
        assert!(r.build(&spec("none")).unwrap().is_empty());
    }

    #[test]
    fn options_are_parsed_and_validated() {
        let r = PrefetcherRegistry::builtin();
        assert_eq!(r.build(&spec("stride:degree=4")).unwrap().len(), 1);
        assert_eq!(
            r.build(&spec("spp:depth=4,threshold=100")).unwrap().len(),
            1
        );
        for bad in [
            "stride:degree=0",
            "stride:entries=3",
            "stride:bogus=1",
            "stride:degree",
            "stride:degree=x",
            "bop:rr=8",
            "spp:threshold=2000",
            "wat",
            "none+stream",
            "stream+stream",
            "bop+stream+stride+ghb+spp",
        ] {
            assert!(r.build(&spec(bad)).is_err(), "`{bad}` should be rejected");
        }
    }

    #[test]
    fn plugins_register_and_resolve() {
        #[derive(Debug)]
        struct Noop;
        impl Prefetcher for Noop {
            fn on_access(&mut self, _: u64, _: u64, _: bool, _: &mut Vec<u64>) {}
            fn name(&self) -> &'static str {
                "noop"
            }
        }
        let mut r = PrefetcherRegistry::builtin();
        r.register("noop", "does nothing", Box::new(|_| Ok(Box::new(Noop))))
            .unwrap();
        assert_eq!(r.build(&spec("noop+stream")).unwrap().len(), 2);
        assert!(r
            .register("noop", "dup", Box::new(|_| Ok(Box::new(Noop))))
            .is_err());
        assert!(r
            .register("None", "bad case", Box::new(|_| Ok(Box::new(Noop))))
            .is_err());
        assert!(r
            .register("none", "reserved", Box::new(|_| Ok(Box::new(Noop))))
            .is_err());
    }
}
