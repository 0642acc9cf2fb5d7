//! `crisp` — the command-line front end to the CRISP reproduction.
//!
//! ```text
//! crisp list
//! crisp trace <workload> [--ref] [-n INSTRS] [-o FILE]
//! crisp profile <workload> [-n INSTRS] [--check]
//! crisp simulate <workload> [--ref] [--scheduler crisp|oldest|random] [-n INSTRS] [--check]
//!                [--pipe-trace FILE] [--trace-from CYCLE] [--trace-to CYCLE] [--trace-pc PC]
//!                [--stalls K]
//! crisp pipeline <workload> [--fast] [--loads-only|--branches-only] [--check]
//! crisp pipeview <workload> [--crisp] [-n INSTRS] [--from SEQ] [--len COUNT]
//! crisp obs summarize <FILE...>
//! crisp obs spans <spans.jsonl...>
//! crisp cache stats|verify|gc|evict <KEY> --store DIR [--max-age-days D] [--max-entries N]
//! crisp submit <TARGET...> --addr HOST:PORT [--fast|--tiny] [--workloads A,B,C]
//!                          [--prefetcher SPEC]
//! crisp status <JOB> --addr HOST:PORT
//! crisp result <JOB> --addr HOST:PORT
//! crisp watch <JOB> --addr HOST:PORT [--interval-ms MS] [--follow]
//! ```
//!
//! The `submit`/`status`/`result`/`watch` subcommands talk to a
//! `crisp-serve` daemon over its HTTP job API, with bounded jittered
//! retries on transient failures (connect errors, 429 queue-full, 503
//! draining). `submit` is idempotent: resubmitting the same sweep
//! coalesces onto the existing job id. `watch` survives daemon
//! restarts: on connection reset/refused it reconnects with jittered
//! backoff and resumes from the last seen state; with `--follow` it
//! streams the job's live NDJSON events (`GET /jobs/ID/events`) to
//! stdout, resuming the stream from its cursor after a reconnect.
//!
//! Exit codes: `0` success, `2` usage/parse error, `3` unknown workload,
//! `4` rejected configuration, `5` runtime failure (emulation/simulation,
//! including watchdog-detected deadlocks, `--check` violations,
//! `crisp cache verify` finding corrupt entries, a job API call failing
//! for good, or a watched/fetched job finishing `failed`).

use crisp_bench::ExperimentScale;
use crisp_core::{
    build, run_crisp_pipeline, ClassifierConfig, CrispError, Input, PipelineConfig, SchedulerKind,
    SimConfig, SimError, SliceMode, Table, Traced, Workload,
};
use crisp_emu::Emulator;
use crisp_obs::{parse_jsonl, render_kanata, summarize, TraceFilter};
use crisp_profile::{classify_branches, classify_loads, ProfileSummary};
use crisp_sim::Simulator;
use std::process::ExitCode;

const EXIT_USAGE: u8 = 2;
const EXIT_UNKNOWN_WORKLOAD: u8 = 3;
const EXIT_BAD_CONFIG: u8 = 4;
const EXIT_RUNTIME: u8 = 5;

/// A CLI failure: what to print and which exit code to die with.
struct Failure {
    code: u8,
    message: String,
}

impl Failure {
    fn usage(message: impl Into<String>) -> Failure {
        Failure {
            code: EXIT_USAGE,
            message: message.into(),
        }
    }
}

impl From<CrispError> for Failure {
    fn from(e: CrispError) -> Failure {
        let code = match &e {
            CrispError::UnknownWorkload(_) => EXIT_UNKNOWN_WORKLOAD,
            CrispError::Config(_) => EXIT_BAD_CONFIG,
            _ => EXIT_RUNTIME,
        };
        let message = match &e {
            CrispError::UnknownWorkload(_) => format!("{e}\n{}", workload_listing()),
            _ => e.to_string(),
        };
        Failure { code, message }
    }
}

impl From<SimError> for Failure {
    fn from(e: SimError) -> Failure {
        Failure::from(CrispError::from(e))
    }
}

fn workload_listing() -> String {
    format!(
        "registered workloads: {}",
        crisp_core::all_names().join(", ")
    )
}

fn usage_text() -> String {
    format!(
        "usage:\n  crisp list\n  crisp trace <workload> [--ref] [-n INSTRS] [-o FILE]\n  \
         crisp profile <workload> [-n INSTRS] [--check]\n  \
         crisp simulate <workload> [--ref] [--scheduler crisp|oldest|random] [-n INSTRS] [--check]\n  \
         \x20              [--pipe-trace FILE] [--trace-from CYCLE] [--trace-to CYCLE] [--trace-pc PC] [--stalls K]\n  \
         crisp pipeline <workload> [--fast] [--loads-only|--branches-only] [--check]\n  \
         crisp pipeview <workload> [--crisp] [-n INSTRS] [--from SEQ] [--len COUNT]\n  \
         crisp obs summarize <FILE...>\n  \
         crisp obs spans <spans.jsonl...>\n  \
         crisp cache stats|verify|gc|evict <KEY> --store DIR [--max-age-days D] [--max-entries N]\n  \
         crisp submit <TARGET...> --addr HOST:PORT [--fast|--tiny] [--workloads A,B,C]\n  \
         \x20                 [--prefetcher SPEC]\n  \
         crisp status <JOB> --addr HOST:PORT\n  \
         crisp result <JOB> --addr HOST:PORT\n  \
         crisp watch <JOB> --addr HOST:PORT [--interval-ms MS] [--follow]\n\
         exit codes: 0 ok, 2 usage, 3 unknown workload, 4 bad config, 5 runtime failure\n{}",
        workload_listing()
    )
}

struct Args {
    positional: Vec<String>,
    flags: Vec<String>,
    n: u64,
    from: Option<u64>,
    len: Option<u64>,
    out: Option<String>,
    scheduler: SchedulerKind,
    pipe_trace: Option<String>,
    trace_from: Option<u64>,
    trace_to: Option<u64>,
    trace_pc: Option<u64>,
    stalls: Option<usize>,
    store: Option<String>,
    max_age: Option<std::time::Duration>,
    max_entries: Option<usize>,
    addr: Option<String>,
    workloads: Option<Vec<String>>,
    prefetcher: Option<String>,
    interval_ms: u64,
}

impl Args {
    fn has(&self, flag: &str) -> bool {
        self.flags.iter().any(|f| f == flag)
    }

    /// Rejects flags a subcommand does not understand — a typo must not
    /// silently fall through to default behaviour.
    fn allow_flags(&self, cmd: &str, allowed: &[&str]) -> Result<(), Failure> {
        for f in &self.flags {
            if !allowed.contains(&f.as_str()) {
                return Err(Failure::usage(format!(
                    "unknown flag for `crisp {cmd}`: {f}"
                )));
            }
        }
        Ok(())
    }
}

fn parse(args: &[String]) -> Result<Args, Failure> {
    let mut out = Args {
        positional: Vec::new(),
        flags: Vec::new(),
        n: 200_000,
        from: None,
        len: None,
        out: None,
        scheduler: SchedulerKind::OldestReadyFirst,
        pipe_trace: None,
        trace_from: None,
        trace_to: None,
        trace_pc: None,
        stalls: None,
        store: None,
        max_age: None,
        max_entries: None,
        addr: None,
        workloads: None,
        prefetcher: None,
        interval_ms: 500,
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .ok_or_else(|| Failure::usage(format!("{name} requires a value")))
        };
        match a.as_str() {
            "-n" => {
                let v = value("-n")?;
                out.n = v
                    .parse()
                    .map_err(|_| Failure::usage(format!("-n expects a count, got `{v}`")))?;
            }
            "--from" => {
                let v = value("--from")?;
                out.from = Some(v.parse().map_err(|_| {
                    Failure::usage(format!("--from expects a sequence number, got `{v}`"))
                })?);
            }
            "--len" => {
                let v = value("--len")?;
                out.len =
                    Some(v.parse().map_err(|_| {
                        Failure::usage(format!("--len expects a count, got `{v}`"))
                    })?);
            }
            "-o" => out.out = Some(value("-o")?.clone()),
            "--scheduler" => {
                let v = value("--scheduler")?;
                out.scheduler = match v.as_str() {
                    "crisp" => SchedulerKind::Crisp,
                    "oldest" => SchedulerKind::OldestReadyFirst,
                    "random" => SchedulerKind::RandomReady,
                    other => {
                        return Err(Failure::usage(format!(
                            "--scheduler expects crisp|oldest|random, got `{other}`"
                        )));
                    }
                };
            }
            "--pipe-trace" => out.pipe_trace = Some(value("--pipe-trace")?.clone()),
            "--trace-from" => {
                let v = value("--trace-from")?;
                out.trace_from = Some(v.parse().map_err(|_| {
                    Failure::usage(format!("--trace-from expects a cycle, got `{v}`"))
                })?);
            }
            "--trace-to" => {
                let v = value("--trace-to")?;
                out.trace_to = Some(v.parse().map_err(|_| {
                    Failure::usage(format!("--trace-to expects a cycle, got `{v}`"))
                })?);
            }
            "--trace-pc" => {
                let v = value("--trace-pc")?;
                out.trace_pc = Some(parse_pc(v)?);
            }
            "--stalls" => {
                let v = value("--stalls")?;
                out.stalls = Some(v.parse::<usize>().ok().filter(|k| *k > 0).ok_or_else(|| {
                    Failure::usage(format!("--stalls expects a positive count, got `{v}`"))
                })?);
            }
            "--store" => out.store = Some(value("--store")?.clone()),
            "--addr" => out.addr = Some(value("--addr")?.clone()),
            "--workloads" => {
                let v = value("--workloads")?;
                out.workloads = Some(
                    v.split(',')
                        .map(|s| s.trim().to_string())
                        .filter(|s| !s.is_empty())
                        .collect(),
                );
            }
            "--prefetcher" => {
                out.prefetcher = Some(value("--prefetcher")?.to_string());
            }
            "--interval-ms" => {
                let v = value("--interval-ms")?;
                out.interval_ms = v.parse::<u64>().ok().filter(|ms| *ms > 0).ok_or_else(|| {
                    Failure::usage(format!(
                        "--interval-ms expects positive milliseconds, got `{v}`"
                    ))
                })?;
            }
            "--max-age-days" => {
                let v = value("--max-age-days")?;
                out.max_age = Some(
                    v.parse::<f64>()
                        .ok()
                        .and_then(|d| std::time::Duration::try_from_secs_f64(d * 86_400.0).ok())
                        .ok_or_else(|| {
                            Failure::usage(format!("--max-age-days expects days, got `{v}`"))
                        })?,
                );
            }
            "--max-entries" => {
                let v = value("--max-entries")?;
                out.max_entries = Some(v.parse::<usize>().map_err(|_| {
                    Failure::usage(format!("--max-entries expects a count, got `{v}`"))
                })?);
            }
            f if f.starts_with('-') => out.flags.push(f.to_string()),
            p => out.positional.push(p.to_string()),
        }
    }
    Ok(out)
}

/// Parses a PC argument: hex with a `0x` prefix, decimal otherwise.
fn parse_pc(v: &str) -> Result<u64, Failure> {
    let parsed = match v.strip_prefix("0x").or_else(|| v.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => v.parse(),
    };
    parsed.map_err(|_| {
        Failure::usage(format!(
            "--trace-pc expects a PC (hex or decimal), got `{v}`"
        ))
    })
}

fn input_of(args: &Args) -> Input {
    if args.has("--ref") {
        Input::Ref
    } else {
        Input::Train
    }
}

fn workload_arg(args: &Args, cmd: &str) -> Result<String, Failure> {
    match args.positional.as_slice() {
        [name] => Ok(name.clone()),
        [] => Err(Failure::usage(format!(
            "`crisp {cmd}` needs a workload name\n{}",
            workload_listing()
        ))),
        extra => Err(Failure::usage(format!(
            "`crisp {cmd}` takes one workload, got: {}",
            extra.join(" ")
        ))),
    }
}

/// `name` built for `input` and emulated for `n` instructions. The
/// memory image moves into the emulator and is freed with it.
fn trace_workload(name: &str, input: Input, n: u64) -> Result<Traced, Failure> {
    let Workload {
        program, memory, ..
    } = build(name, input).map_err(|e| Failure::from(CrispError::from(e)))?;
    let trace = Emulator::new(&program, memory).run(n);
    Ok(Traced { program, trace })
}

fn base_sim_config(args: &Args) -> Result<SimConfig, Failure> {
    let mut cfg = SimConfig::skylake();
    cfg.check_invariants = args.has("--check");
    cfg.validate().map_err(CrispError::from)?;
    Ok(cfg)
}

fn run(cmd: &str, args: &Args) -> Result<(), Failure> {
    match cmd {
        "list" => {
            args.allow_flags(cmd, &[])?;
            let mut t = Table::new(vec!["workload", "reproduces"]);
            for w in crisp_core::build_all(Input::Train) {
                t.row(vec![w.name.to_string(), w.description.to_string()]);
            }
            println!("{t}");
            Ok(())
        }
        "trace" => {
            args.allow_flags(cmd, &["--ref"])?;
            let name = workload_arg(args, cmd)?;
            let Traced { program, trace } = trace_workload(&name, input_of(args), args.n)?;
            let stats = trace.stats(&program);
            println!("{name}: {stats}");
            if let Some(path) = &args.out {
                trace.save(path).map_err(|e| Failure {
                    code: EXIT_RUNTIME,
                    message: format!("failed to write {path}: {e}"),
                })?;
                println!("wrote {path} ({} records)", trace.len());
            }
            Ok(())
        }
        "profile" => {
            args.allow_flags(cmd, &["--check"])?;
            let name = workload_arg(args, cmd)?;
            let Traced { program, trace } = trace_workload(&name, Input::Train, args.n)?;
            let mut cfg = base_sim_config(args)?;
            cfg.collect_pc_stats = true;
            let res = Simulator::try_new(cfg)?.try_run(&program, &trace, None)?;
            let summary = ProfileSummary::from_result(&res);
            println!(
                "{name}: IPC {:.3}, load fraction {:.2}, LLC load MPKI {:.2}, branch MPKI {:.2}",
                summary.ipc,
                summary.load_fraction,
                res.llc_load_mpki(),
                res.branch_mpki()
            );
            let classifier = ClassifierConfig::default();
            let mut t = Table::new(vec!["load pc", "miss ratio", "AMAT", "MLP", "miss share"]);
            for d in classify_loads(&res, &classifier) {
                t.row(vec![
                    format!("{}", d.pc),
                    format!("{:.2}", d.llc_miss_ratio),
                    format!("{:.0}", d.amat),
                    format!("{:.1}", d.mlp),
                    format!("{:.2}", d.miss_contribution),
                ]);
            }
            println!("\ndelinquent loads:\n{t}");
            let mut t = Table::new(vec!["branch pc", "mispredict ratio", "execs"]);
            for b in classify_branches(&res, &classifier) {
                t.row(vec![
                    format!("{}", b.pc),
                    format!("{:.2}", b.mispredict_ratio),
                    format!("{}", b.execs),
                ]);
            }
            println!("hard branches:\n{t}");
            Ok(())
        }
        "simulate" => {
            args.allow_flags(cmd, &["--ref", "--check"])?;
            if args.pipe_trace.is_none()
                && (args.trace_from.is_some() || args.trace_to.is_some() || args.trace_pc.is_some())
            {
                return Err(Failure::usage(
                    "--trace-from/--trace-to/--trace-pc filter a --pipe-trace export; \
                     pass --pipe-trace FILE",
                ));
            }
            let name = workload_arg(args, cmd)?;
            let Traced { program, trace } = trace_workload(&name, input_of(args), args.n)?;
            let mut cfg = base_sim_config(args)?.with_scheduler(args.scheduler);
            if args.pipe_trace.is_some() {
                // Enough ring for the tail of any CLI-scale run: the
                // export keeps the newest events when the ring wraps.
                cfg.tracer_capacity = Some(1 << 18);
            }
            cfg.stall_attribution = args.stalls.is_some();
            // A bare scheduler swap without annotation: criticality comes
            // from the pipeline; here everything-critical approximates it.
            let critical = vec![true; program.len()];
            let map = (args.scheduler == SchedulerKind::Crisp).then_some(critical.as_slice());
            let res = Simulator::try_new(cfg)?.try_run(&program, &trace, map)?;
            println!(
                "{name} [{:?}]: IPC {:.3} over {} cycles; ROB-head stalls {:.1}%, \
                 branch MPKI {:.2}, LLC load MPKI {:.2}",
                args.scheduler,
                res.ipc(),
                res.cycles,
                res.rob_head_stall_cycles as f64 / res.cycles.max(1) as f64 * 100.0,
                res.branch_mpki(),
                res.llc_load_mpki()
            );
            if let Some(path) = &args.pipe_trace {
                let filter = TraceFilter {
                    min_cycle: args.trace_from.unwrap_or(0),
                    max_cycle: args.trace_to.unwrap_or(u64::MAX),
                    pc: args.trace_pc,
                };
                let events = res.tracer.events();
                let rendered = render_kanata(&events, &filter);
                std::fs::write(path, &rendered).map_err(|e| Failure {
                    code: EXIT_RUNTIME,
                    message: format!("failed to write {path}: {e}"),
                })?;
                println!(
                    "wrote {path} ({} recorded events, {} trace lines)",
                    events.len(),
                    rendered.lines().count().saturating_sub(1)
                );
            }
            if let Some(k) = args.stalls {
                println!("\nstall attribution (top {k} PCs):");
                print!("{}", res.stall_table.render_top_k(k));
            }
            Ok(())
        }
        "obs" => {
            args.allow_flags(cmd, &[])?;
            let (sub, files) = args.positional.split_first().ok_or_else(|| {
                Failure::usage("`crisp obs` needs a subcommand: summarize | spans")
            })?;
            if files.is_empty() {
                return Err(Failure::usage(format!(
                    "`crisp obs {sub}` needs at least one input file"
                )));
            }
            let read = |path: &String| {
                std::fs::read_to_string(path).map_err(|e| Failure {
                    code: EXIT_RUNTIME,
                    message: format!("failed to read {path}: {e}"),
                })
            };
            match sub.as_str() {
                "summarize" => {
                    for (i, path) in files.iter().enumerate() {
                        let samples = parse_jsonl(&read(path)?).map_err(|e| Failure {
                            code: EXIT_RUNTIME,
                            message: format!("{path}: {e}"),
                        })?;
                        if i > 0 {
                            println!();
                        }
                        println!("{path}:");
                        print!("{}", summarize(&samples));
                    }
                    Ok(())
                }
                "spans" => {
                    // Cross-process span tree from a job's spans.jsonl
                    // (<data>/jobs/<id>/spans.jsonl under crisp-serve).
                    for (i, path) in files.iter().enumerate() {
                        let spans = crisp_harness::load_spans(&read(path)?);
                        if spans.is_empty() {
                            return Err(Failure {
                                code: EXIT_RUNTIME,
                                message: format!("{path}: no spans found"),
                            });
                        }
                        if i > 0 {
                            println!();
                        }
                        println!("{path}:");
                        print!("{}", crisp_obs::render_spans(&spans));
                    }
                    Ok(())
                }
                other => Err(Failure::usage(format!(
                    "unknown `crisp obs` subcommand: {other} (expected: summarize | spans)"
                ))),
            }
        }
        "pipeview" => {
            args.allow_flags(cmd, &["--crisp"])?;
            let name = workload_arg(args, cmd)?;
            let n = args.n.min(20_000);
            let from = args.from.unwrap_or(n / 2);
            let len = args.len.unwrap_or(40);
            let to = from.checked_add(len).ok_or_else(|| {
                Failure::usage(format!("--from {from} plus --len {len} overflows"))
            })?;
            let Traced { program, trace } = trace_workload(&name, Input::Train, n)?;
            let mut cfg = SimConfig::skylake();
            // Room for every event of the run: five stages per instruction
            // plus at most one redirect (and a nonzero ring when n is 0).
            cfg.tracer_capacity = Some(6 * n as usize + 1);
            cfg.collect_pc_stats = false;
            let use_crisp = args.has("--crisp");
            if use_crisp {
                cfg.scheduler = SchedulerKind::Crisp;
            }
            let critical = vec![true; program.len()];
            let map = use_crisp.then_some(critical.as_slice());
            let res = Simulator::try_new(cfg)?.try_run(&program, &trace, map)?;
            println!(
                "{name} [{}] seq {from}..{} (f=fetch d=dispatch-wait i=issue ==execute .=await-retire r=retire)\n",
                if use_crisp { "CRISP" } else { "OOO" },
                to
            );
            print!(
                "{}",
                crisp_obs::render_pipeview(&res.tracer.events(), from, to)
            );
            Ok(())
        }
        "pipeline" => {
            args.allow_flags(
                cmd,
                &["--fast", "--loads-only", "--branches-only", "--check"],
            )?;
            if args.has("--loads-only") && args.has("--branches-only") {
                return Err(Failure::usage(
                    "--loads-only and --branches-only are mutually exclusive",
                ));
            }
            let name = workload_arg(args, cmd)?;
            let mut cfg = if args.has("--fast") {
                PipelineConfig::quick()
            } else {
                PipelineConfig::paper()
            };
            if args.has("--loads-only") {
                cfg.mode = SliceMode::LoadsOnly;
            }
            if args.has("--branches-only") {
                cfg.mode = SliceMode::BranchesOnly;
            }
            cfg.sim.check_invariants = args.has("--check");
            let r = run_crisp_pipeline(&name, &cfg)?;
            println!(
                "{name}: baseline IPC {:.3} -> CRISP IPC {:.3} ({:+.2}%); \
                 {} delinquent loads, {} hard branches, {} tagged instructions \
                 ({:.1}% static, {:.2}% dynamic footprint overhead)",
                r.baseline.ipc(),
                r.crisp.ipc(),
                r.speedup_pct(),
                r.delinquent.len(),
                r.hard_branches.len(),
                r.map.count(),
                r.map.static_ratio() * 100.0,
                r.footprint.dynamic_overhead_pct()
            );
            Ok(())
        }
        "cache" => {
            args.allow_flags(cmd, &[])?;
            run_cache(args)
        }
        "submit" | "status" | "result" | "watch" => run_serve(cmd, args),
        other => Err(Failure::usage(format!(
            "unknown subcommand: {other}\n{}",
            usage_text()
        ))),
    }
}

/// `crisp cache stats|verify|gc|evict` — operate on a content-addressed
/// result store created by `crisp-bench --store DIR`.
fn run_cache(args: &Args) -> Result<(), Failure> {
    let store_failure = |e: crisp_store::StoreError| Failure {
        code: EXIT_RUNTIME,
        message: format!("cache: {e}"),
    };
    let (sub, rest) = args.positional.split_first().ok_or_else(|| {
        Failure::usage("`crisp cache` needs a subcommand: stats, verify, gc, evict")
    })?;
    let dir = args
        .store
        .as_ref()
        .ok_or_else(|| Failure::usage(format!("`crisp cache {sub}` needs --store DIR")))?;
    let store = crisp_store::Store::open(std::path::Path::new(dir)).map_err(store_failure)?;
    match sub.as_str() {
        "stats" => {
            if !rest.is_empty() {
                return Err(Failure::usage("`crisp cache stats` takes no arguments"));
            }
            let s = store.stats().map_err(store_failure)?;
            let mut t = Table::new(vec!["metric", "value"]);
            t.row(vec!["entries".into(), s.entries.to_string()]);
            t.row(vec!["bytes".into(), s.bytes.to_string()]);
            t.row(vec!["recorded hits".into(), s.hits.to_string()]);
            t.row(vec!["quarantined".into(), s.quarantined.to_string()]);
            t.row(vec!["tmp debris".into(), s.debris.to_string()]);
            println!("{dir}:\n{t}");
            Ok(())
        }
        "verify" => {
            if !rest.is_empty() {
                return Err(Failure::usage("`crisp cache verify` takes no arguments"));
            }
            let r = store.verify().map_err(store_failure)?;
            println!(
                "{dir}: {} entr{} checked, {} ok, {} quarantined",
                r.checked,
                if r.checked == 1 { "y" } else { "ies" },
                r.ok,
                r.quarantined.len()
            );
            if r.quarantined.is_empty() {
                return Ok(());
            }
            // A dirty scrub is a runtime failure so CI can gate on it.
            let mut message = String::new();
            for (path, err) in &r.quarantined {
                message.push_str(&format!("quarantined {}: {err}\n", path.display()));
            }
            message.push_str("cache verify: store had corrupt entries");
            Err(Failure {
                code: EXIT_RUNTIME,
                message,
            })
        }
        "gc" => {
            if !rest.is_empty() {
                return Err(Failure::usage("`crisp cache gc` takes no arguments"));
            }
            let policy = crisp_store::GcPolicy {
                max_age: args.max_age,
                max_entries: args.max_entries,
            };
            if policy.max_age.is_none() && policy.max_entries.is_none() {
                return Err(Failure::usage(
                    "`crisp cache gc` needs --max-age-days and/or --max-entries",
                ));
            }
            let r = store.gc(policy).map_err(store_failure)?;
            println!(
                "{dir}: {} scanned, {} evicted, {} bytes reclaimed",
                r.scanned, r.evicted, r.reclaimed_bytes
            );
            Ok(())
        }
        "evict" => {
            let [key] = rest else {
                return Err(Failure::usage("`crisp cache evict` takes one KEY (hex)"));
            };
            let key = crisp_store::parse_key(key)
                .ok_or_else(|| Failure::usage(format!("not a store key: `{key}`")))?;
            // Evicting an absent key succeeds: the goal state is reached.
            let removed = store.evict(key);
            println!(
                "{key:032x}: {}",
                if removed { "evicted" } else { "not present" }
            );
            Ok(())
        }
        other => Err(Failure::usage(format!(
            "unknown `crisp cache` subcommand: {other} (expected: stats, verify, gc, evict)"
        ))),
    }
}

/// `crisp submit|status|result|watch` — the job-API client side of a
/// `crisp-serve` daemon. Transient failures retry with bounded jittered
/// backoff inside [`crisp_serve::Client`]; hard failures exit 5.
fn run_serve(cmd: &str, args: &Args) -> Result<(), Failure> {
    use crisp_obs::json::Value;
    use crisp_serve::{Client, ClientConfig, SubmitRequest};

    let addr = args
        .addr
        .as_ref()
        .ok_or_else(|| Failure::usage(format!("`crisp {cmd}` needs --addr HOST:PORT")))?;
    let client = Client::new(ClientConfig {
        addr: addr.clone(),
        ..ClientConfig::default()
    });
    let api_failure = |e: crisp_serve::ClientError| Failure {
        code: EXIT_RUNTIME,
        message: format!("{cmd}: {e}"),
    };
    let field = |v: &Value, name: &str| {
        v.get(name)
            .map(|f| match f {
                Value::Str(s) => s.clone(),
                other => other.encode(),
            })
            .unwrap_or_else(|| "?".to_string())
    };
    let job_arg = || -> Result<String, Failure> {
        match args.positional.as_slice() {
            [id] => Ok(id.clone()),
            _ => Err(Failure::usage(format!(
                "`crisp {cmd}` takes one job id (32 hex digits)"
            ))),
        }
    };
    // Prints a finished job's result document; failed jobs exit 5 so
    // scripts and CI can gate on job health.
    let print_result = |v: &Value| -> Result<(), Failure> {
        let state = field(v, "state");
        eprintln!(
            "job {}: {state}, {} completed, {} failed, store {} hit(s) / {} computed",
            field(v, "id"),
            field(v, "completed"),
            field(v, "failed"),
            field(v, "store_hits"),
            field(v, "store_computed"),
        );
        let rendered = field(v, "rendered");
        if !rendered.is_empty() && rendered != "?" {
            print!("{rendered}");
        }
        if state == "failed" {
            return Err(Failure {
                code: EXIT_RUNTIME,
                message: format!("job finished failed: {}", field(v, "error")),
            });
        }
        Ok(())
    };

    match cmd {
        "submit" => {
            args.allow_flags(cmd, &["--fast", "--tiny"])?;
            if args.positional.is_empty() {
                return Err(Failure::usage(
                    "`crisp submit` needs at least one target (e.g. fig11, table1)",
                ));
            }
            let scale = if args.has("--tiny") {
                ExperimentScale::Tiny
            } else if args.has("--fast") {
                ExperimentScale::Fast
            } else {
                ExperimentScale::Full
            };
            let ack = client
                .submit(&SubmitRequest {
                    targets: args.positional.clone(),
                    workloads: args.workloads.clone(),
                    scale: scale.name().to_string(),
                    prefetcher: args.prefetcher.clone(),
                })
                .map_err(api_failure)?;
            println!(
                "job {} {} ({} cell(s), {} warm in store{})",
                field(&ack, "id"),
                field(&ack, "state"),
                field(&ack, "cells"),
                field(&ack, "warm_cells"),
                if ack.get("coalesced") == Some(&Value::Bool(true)) {
                    ", coalesced onto existing job"
                } else {
                    ""
                }
            );
            Ok(())
        }
        "status" => {
            args.allow_flags(cmd, &[])?;
            let status = client.status(&job_arg()?).map_err(api_failure)?;
            println!("{}", status.encode());
            Ok(())
        }
        "result" => {
            args.allow_flags(cmd, &[])?;
            let id = job_arg()?;
            match client.result(&id).map_err(api_failure)? {
                Some(v) => print_result(&v),
                None => {
                    println!("job {id}: still pending (poll again or use `crisp watch`)");
                    Ok(())
                }
            }
        }
        "watch" => {
            args.allow_flags(cmd, &["--follow"])?;
            let id = job_arg()?;
            let follow = args.has("--follow");
            // Daemon restarts are survivable: transient failures (reset,
            // refused, drain) reconnect with jittered backoff and resume
            // from the last seen state. Only a long unbroken run of
            // failures — or a hard 4xx — exits nonzero.
            let backoff = crisp_serve::RetryPolicy {
                max_retries: 30,
                base: std::time::Duration::from_millis(200),
                cap: std::time::Duration::from_secs(5),
            };
            let seed = crisp_harness::fnv1a64(&id);
            let finish = || -> Result<(), Failure> {
                let v = client
                    .result(&id)
                    .map_err(api_failure)?
                    .ok_or_else(|| Failure {
                        code: EXIT_RUNTIME,
                        message: format!("job {id} finished but its result is missing"),
                    })?;
                print_result(&v)
            };
            let mut consecutive: u32 = 0;
            let mut last = String::new();
            let mut cursor = 0usize; // event lines already streamed
            loop {
                let transient = if follow {
                    match client.follow(&id, cursor, &mut |event: &Value| {
                        println!("{}", event.encode());
                    }) {
                        Ok((delivered, ended)) => {
                            cursor += delivered;
                            consecutive = 0;
                            if ended {
                                return finish();
                            }
                            // Dropped mid-stream: reconnect from cursor.
                            std::thread::sleep(std::time::Duration::from_millis(100));
                            None
                        }
                        Err(e @ crisp_serve::ClientError::Rejected { .. }) => {
                            return Err(api_failure(e))
                        }
                        Err(e) => Some(e.to_string()),
                    }
                } else {
                    match client.status(&id) {
                        Ok(status) => {
                            consecutive = 0;
                            let state = field(&status, "state");
                            if state != last {
                                eprintln!("job {id}: {state}");
                                last = state.clone();
                            }
                            if state == "done" || state == "failed" {
                                return finish();
                            }
                            std::thread::sleep(std::time::Duration::from_millis(args.interval_ms));
                            None
                        }
                        Err(e @ crisp_serve::ClientError::Rejected { .. }) => {
                            return Err(api_failure(e))
                        }
                        Err(e) => Some(e.to_string()),
                    }
                };
                if let Some(why) = transient {
                    consecutive += 1;
                    if consecutive > backoff.max_retries {
                        return Err(Failure {
                            code: EXIT_RUNTIME,
                            message: format!(
                                "watch: gave up after {consecutive} reconnect attempts: {why}"
                            ),
                        });
                    }
                    eprintln!("job {id}: daemon unreachable ({why}); reconnecting");
                    std::thread::sleep(backoff.delay(consecutive, seed));
                }
            }
        }
        _ => unreachable!("run_serve called for {cmd}"),
    }
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = raw.split_first() else {
        eprintln!("{}", usage_text());
        return ExitCode::from(EXIT_USAGE);
    };
    let args = match parse(rest) {
        Ok(a) => a,
        Err(f) => {
            eprintln!("{}", f.message);
            return ExitCode::from(f.code);
        }
    };
    match run(cmd, &args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(f) => {
            eprintln!("{}", f.message);
            ExitCode::from(f.code)
        }
    }
}
