//! `serve`: one closed-loop client submitting seeded jobs to an
//! in-process `crisp-serve` daemon — the HTTP layer, job registry,
//! journal and result store do most of the work here.

use crate::probe::{self, StageTimes};
use crate::report::{Digest, Outcome};
use crate::stats::{geomean, geomean_speedup_pct, median, p50, percentile};
use crate::{timed_passes, Opts, SplitMix};
use crisp_bench::cells::catalog;
use crisp_bench::render::render_figure;
use crisp_bench::sweep::{build_jobs, run_supervised_sweep, sweep_spec, SweepConfig};
use crisp_bench::ExperimentScale;
use crisp_harness::json::Value;
use crisp_harness::{cell_key, cell_key_material, EventSink, JobOutcome, SpanScope};
use crisp_serve::{
    run_daemon, Client, ClientConfig, DaemonConfig, ExecCtx, ExecResult, JobPlan, JobRecord,
    Registry, SubmitRequest,
};
use crisp_sim::{CancelToken, PrefetcherSpec};
use crisp_store::{write_entry, CellEntry, Store};
use std::collections::BTreeMap;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Kernels the jobs draw from: cheap pipelines with a clear CRISP gain.
const POOL: [&str; 6] = ["cactus", "img_dnn", "lbm", "nab", "namd", "xhpcg"];
/// Single-pipeline targets: one `run_crisp_pipeline` per cell.
const TARGETS: [&str; 2] = ["fig11", "fig12"];
/// Prefetcher overrides whose cells are pre-seeded (`None` is the
/// default zoo).
const WARM_PF: [Option<&str>; 1] = [None];
/// Prefetcher overrides whose cells start cold: each of these cells is
/// computed and published by exactly one job.
const COLD_PF: [&str; 2] = ["stride", "spp"];
/// Jobs per pass, and how many of them repeat an earlier request.
const JOBS: usize = 120;
const DUPLICATES: usize = 20;
/// Set-up repetitions; `setup_s` is their median.
const SETUPS: usize = 3;

/// What kind of work a job carries.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Every cell pre-seeded: the service path.
    Warm,
    /// One cell not in the store: computed and published.
    Cold,
    /// A verbatim repeat of an earlier request: the coalescing path.
    Duplicate,
}

/// One generated submission.
#[derive(Clone, Debug, PartialEq)]
pub struct Job {
    pub kind: Kind,
    pub request: SubmitRequest,
}

fn request(target: &str, kernels: Vec<String>, pf: Option<&str>) -> SubmitRequest {
    SubmitRequest {
        targets: vec![target.to_string()],
        workloads: Some(kernels),
        scale: "tiny".to_string(),
        prefetcher: pf.map(str::to_string),
    }
}

/// The seeded job sequence. The shares are fixed — 24 cold jobs (every
/// cold cell once), 76 distinct warm requests, 20 duplicates — so every
/// seed carries the same amount of compute; the seed picks the warm
/// kernel subsets, the order, and which requests repeat.
pub fn traffic(seed: u64) -> Vec<Job> {
    let mut rng = SplitMix::new(seed);
    let mut distinct: Vec<Job> = Vec::new();
    for t in TARGETS {
        for k in POOL {
            for pf in COLD_PF {
                distinct.push(Job {
                    kind: Kind::Cold,
                    request: request(t, vec![k.to_string()], Some(pf)),
                });
            }
        }
    }
    let mut warm: Vec<Job> = Vec::new();
    for t in TARGETS {
        for pf in WARM_PF {
            for mask in 1..(1u32 << POOL.len()) {
                let kernels = (0..POOL.len())
                    .filter(|i| mask & (1 << i) != 0)
                    .map(|i| POOL[i].to_string())
                    .collect();
                warm.push(Job {
                    kind: Kind::Warm,
                    request: request(t, kernels, pf),
                });
            }
        }
    }
    rng.shuffle(&mut warm);
    distinct.extend(warm.into_iter().take(JOBS - DUPLICATES - distinct.len()));
    rng.shuffle(&mut distinct);

    let mut dup_slot = vec![false; JOBS];
    let mut placed = 0;
    while placed < DUPLICATES {
        let slot = 1 + rng.below(JOBS - 1);
        if !dup_slot[slot] {
            dup_slot[slot] = true;
            placed += 1;
        }
    }
    let mut seq: Vec<Job> = Vec::with_capacity(JOBS);
    let mut fresh = distinct.into_iter();
    for is_dup in dup_slot {
        let earlier: Vec<&Job> = seq.iter().filter(|j| j.kind != Kind::Duplicate).collect();
        let job = if is_dup && !earlier.is_empty() {
            Job {
                kind: Kind::Duplicate,
                request: earlier[rng.below(earlier.len())].request.clone(),
            }
        } else {
            fresh.next().expect("enough distinct jobs")
        };
        seq.push(job);
    }
    seq
}

/// The sweep a submission describes, canonicalized the way the
/// `crisp-serve` binary does it, so reordered requests coalesce.
fn sweep_config(request: &SubmitRequest) -> Result<SweepConfig, String> {
    let prefetcher = match &request.prefetcher {
        Some(spec) => Some(
            spec.parse::<PrefetcherSpec>()
                .map_err(|e| format!("bad prefetcher: {e}"))?,
        ),
        None => None,
    };
    let workloads = request.workloads.clone().map(|mut w| {
        w.sort();
        w.dedup();
        w
    });
    Ok(SweepConfig {
        scale: ExperimentScale::Tiny,
        targets: TARGETS
            .iter()
            .filter(|t| request.targets.iter().any(|r| r == *t))
            .map(|t| t.to_string())
            .collect(),
        workloads,
        prefetcher,
        progress: false,
        ..SweepConfig::default()
    })
}

fn plan(request: &SubmitRequest) -> Result<JobPlan, String> {
    let cfg = sweep_config(request)?;
    if cfg.targets.is_empty() {
        return Err("no known target".into());
    }
    Ok(JobPlan {
        request: SubmitRequest {
            targets: cfg.targets.clone(),
            workloads: cfg.workloads.clone(),
            scale: request.scale.clone(),
            prefetcher: cfg.prefetcher.map(|p| p.to_string()),
        },
        spec: sweep_spec(&cfg),
        cells: build_jobs(&cfg)
            .iter()
            .map(|j| cell_key(&j.id, &j.spec))
            .collect(),
    })
}

/// The daemon's executor: one in-process sweep worker over the shared
/// store, with the live event file `GET /jobs/<id>/events` tails. Traced
/// runs also hang the supervisor's cell spans under the job's execute
/// span.
fn exec(record: &JobRecord, ctx: &ExecCtx, traced: bool) -> Result<ExecResult, String> {
    let mut cfg = sweep_config(&record.request)?;
    cfg.workers = 1;
    cfg.manifest = Some(ctx.manifest.clone());
    cfg.resume = ctx.resume;
    cfg.store = Some(ctx.store.clone());
    cfg.stop = Some(ctx.stop.clone());
    cfg.heartbeat = Some(Duration::from_millis(250));
    if traced {
        cfg.spans = Some(SpanScope {
            path: ctx.spans.clone(),
            trace: ctx.trace.clone(),
            parent: ctx.span_parent,
        });
    }
    let events = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(ctx.manifest.with_file_name("events.jsonl"))
        .map_err(|e| format!("events file: {e}"))?;
    let events = Mutex::new(events);
    cfg.events = Some(EventSink::new(move |event: &Value| {
        if let Ok(mut f) = events.lock() {
            let _ = writeln!(f, "{}", event.encode());
        }
    }));
    let out = run_supervised_sweep(&cfg).map_err(|e| e.to_string())?;
    Ok(ExecResult {
        rendered: out.rendered,
        completed: out.report.completed(),
        failed: out.report.failed(),
        interrupted: out.report.interrupted,
        store_hits: out.report.store_hits,
        store_computed: out.report.store_computed,
        ..ExecResult::default()
    })
}

/// Cell outcomes of an in-process sweep, keyed by prefetcher override —
/// the reference every served table must equal.
type Reference = BTreeMap<Option<String>, BTreeMap<String, JobOutcome>>;

fn reference_sweep(
    pf: Option<&str>,
) -> Result<(SweepConfig, BTreeMap<String, JobOutcome>), String> {
    let mut cfg = sweep_config(&SubmitRequest {
        targets: TARGETS.iter().map(|t| t.to_string()).collect(),
        workloads: Some(POOL.iter().map(|k| k.to_string()).collect()),
        scale: "tiny".into(),
        prefetcher: pf.map(str::to_string),
    })?;
    cfg.workers = 2;
    let out = run_supervised_sweep(&cfg).map_err(|e| e.to_string())?;
    if out.report.failed() > 0 || out.report.completed() != TARGETS.len() * POOL.len() {
        return Err(format!("reference sweep (pf {pf:?}) failed"));
    }
    Ok((cfg, out.report.outcomes))
}

/// Set-up: compute the warm cells in-process and write them as store
/// entries with a fixed creation time, so every run starts from the
/// same store bytes. Records the cells' outcomes in `reference` and
/// returns a digest of the store's bytes.
fn seed_store(dir: &Path, reference: &mut Reference) -> Result<String, String> {
    let mut digest = Digest::default();
    let store = Store::open(dir).map_err(|e| e.to_string())?;
    for pf in WARM_PF {
        let (cfg, outcomes) = reference_sweep(pf)?;
        for job in build_jobs(&cfg) {
            let Some(JobOutcome::Completed { payload, .. }) = outcomes.get(&job.id) else {
                return Err(format!("seed cell {} missing", job.id));
            };
            let key = cell_key(&job.id, &job.spec);
            let path = store.entry_path(key);
            std::fs::create_dir_all(path.parent().expect("entry has a directory"))
                .map_err(|e| e.to_string())?;
            let entry = CellEntry {
                key,
                created_unix: 0,
                spec: cell_key_material(&job.id, &job.spec),
                payload: payload.clone(),
            };
            write_entry(&path, &entry).map_err(|e| e.to_string())?;
            digest.bytes(&std::fs::read(&path).map_err(|e| e.to_string())?);
        }
        reference.insert(pf.map(str::to_string), outcomes);
    }
    Ok(digest.hex())
}

fn copy_dir(from: &Path, to: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        let dest = to.join(entry.file_name());
        if entry.file_type()?.is_dir() {
            copy_dir(&entry.path(), &dest)?;
        } else {
            std::fs::copy(entry.path(), dest)?;
        }
    }
    Ok(())
}

struct Daemon {
    addr: String,
    data: PathBuf,
    store: PathBuf,
    shutdown: CancelToken,
    thread: JoinHandle<Result<(), String>>,
}

/// Starts a daemon over a fresh registry and a copy of the seeded store.
fn start_daemon(template: &Path, dir: &Path, traced: bool) -> Result<Daemon, String> {
    let data = dir.join("data");
    let store = dir.join("store");
    copy_dir(template, &store).map_err(|e| format!("copy store: {e}"))?;
    let cfg = DaemonConfig {
        data_dir: data.clone(),
        store_dir: Some(store.clone()),
        ..DaemonConfig::default()
    };
    let shutdown = CancelToken::new();
    let token = shutdown.clone();
    let thread = std::thread::spawn(move || {
        run_daemon(
            &cfg,
            &plan,
            &move |r: &JobRecord, c: &ExecCtx| exec(r, c, traced),
            &token,
        )
    });
    let endpoint = data.join("endpoint");
    let deadline = Instant::now() + Duration::from_secs(10);
    let addr = loop {
        match std::fs::read_to_string(&endpoint) {
            Ok(s) if !s.is_empty() => break s,
            _ if Instant::now() >= deadline || thread.is_finished() => {
                shutdown.cancel();
                let why = thread.join().map_or_else(
                    |_| "daemon panicked".to_string(),
                    |r| r.err().unwrap_or_else(|| "no endpoint".into()),
                );
                return Err(format!("daemon did not start: {why}"));
            }
            _ => std::thread::sleep(Duration::from_millis(1)),
        }
    };
    Ok(Daemon {
        addr,
        data,
        store,
        shutdown,
        thread,
    })
}

impl Daemon {
    fn stop(self) -> Result<(), String> {
        self.shutdown.cancel();
        self.thread
            .join()
            .map_err(|_| "daemon thread panicked".to_string())?
    }
}

/// What one job returned.
struct Served {
    ms: f64,
    submit_ms: f64,
    id: u128,
    coalesced: bool,
    result: Value,
}

fn serve_job(client: &Client, job: &Job) -> Result<Served, String> {
    let t = Instant::now();
    let ack = client.submit(&job.request).map_err(|e| e.to_string())?;
    let submit_ms = t.elapsed().as_secs_f64() * 1e3;
    let id_hex = ack
        .get("id")
        .and_then(Value::as_str)
        .ok_or("ack without id")?
        .to_string();
    let id = u128::from_str_radix(&id_hex, 16).map_err(|e| e.to_string())?;
    let coalesced = matches!(ack.get("coalesced"), Some(Value::Bool(true)));
    let mut from = 0;
    let result = loop {
        let (delivered, ended) = client
            .follow(&id_hex, from, &mut |_| {})
            .map_err(|e| e.to_string())?;
        from += delivered;
        if ended {
            if let Some(doc) = client.result(&id_hex).map_err(|e| e.to_string())? {
                break doc;
            }
        }
    };
    Ok(Served {
        ms: t.elapsed().as_secs_f64() * 1e3,
        submit_ms,
        id,
        coalesced,
        result,
    })
}

/// The tables an in-process sweep of the same cells renders.
fn expected_tables(reference: &Reference, request: &SubmitRequest) -> Result<String, String> {
    let cfg = sweep_config(request)?;
    let outcomes = reference
        .get(&request.prefetcher)
        .ok_or("no reference for this prefetcher")?;
    let mut out = String::new();
    for t in &cfg.targets {
        let cells = catalog(
            t,
            cfg.scale,
            cfg.workloads.as_deref(),
            cfg.prefetcher.as_ref(),
        );
        out.push_str(&render_figure(t, &cells, outcomes));
        out.push_str("\n\n");
    }
    Ok(out)
}

struct PassOut {
    wall_s: f64,
    served: Vec<Served>,
    data: PathBuf,
    store: PathBuf,
    stats: Value,
}

/// One pass: a fresh daemon over a copy of the seeded store, the job
/// sequence (the timed region), then a drain and a store scrub.
fn pass(
    out: &mut Outcome,
    template: &Path,
    dir: &Path,
    traced: bool,
    jobs: &[Job],
    reference: &Reference,
) -> Result<PassOut, String> {
    let daemon = start_daemon(template, dir, traced)?;
    let client = Client::new(ClientConfig {
        addr: daemon.addr.clone(),
        ..ClientConfig::default()
    });
    let mut served = Vec::with_capacity(jobs.len());
    let mut wrong = Vec::new();
    let t = Instant::now();
    for job in jobs {
        match serve_job(&client, job) {
            Ok(s) => served.push((job, s)),
            Err(e) => wrong.push(format!("job {:?}: {e}", job.request)),
        }
    }
    let wall_s = t.elapsed().as_secs_f64();
    out.attempted += jobs.len() as u64;
    for (job, s) in &served {
        let rendered = s.result.get("rendered").and_then(Value::as_str);
        let done = s.result.get("state").and_then(Value::as_str) == Some("done");
        if !done || rendered != Some(expected_tables(reference, &job.request)?.as_str()) {
            wrong.push(format!("job {:?}: wrong or failed result", job.request));
        }
    }
    out.failed += wrong.len() as u64;
    out.problems.extend(wrong);
    let stats = client.stats().map_err(|e| e.to_string())?;
    let (data, store) = (daemon.data.clone(), daemon.store.clone());
    daemon.stop()?;
    let scrub = Store::open(&store)
        .and_then(|s| s.verify())
        .map_err(|e| e.to_string())?;
    out.check(scrub.quarantined.is_empty(), || {
        format!("store verify quarantined {:?}", scrub.quarantined)
    });
    Ok(PassOut {
        wall_s,
        served: served.into_iter().map(|(_, s)| s).collect(),
        data,
        store,
        stats,
    })
}

/// Per-layer metrics from the daemon's registry, spans and store.
fn layer_metrics(out: &mut Outcome, p: &PassOut) -> Result<(), String> {
    let registry = Registry::open(&p.data)?;
    let (mut hits, mut misses, mut journal, mut retries) = (0.0, 0.0, 0u64, 0u32);
    let (mut queue, mut execute) = (Vec::new(), Vec::new());
    let (mut cells_busy, mut exec_busy) = (0.0, 0.0);
    for f in ["fig11", "fig12"] {
        out.set(&format!("cells.{f}_s"), 0.0);
    }
    for s in p.served.iter().filter(|s| !s.coalesced) {
        let num = |k: &str| s.result.get(k).and_then(Value::as_f64).unwrap_or(0.0);
        hits += num("store_hits");
        misses += num("store_computed");
        let manifest = registry.manifest_path(s.id);
        journal += std::fs::metadata(&manifest).map_or(0, |m| m.len());
        if let Ok(m) = crisp_harness::load_manifest(&manifest) {
            retries += m.completed.values().map(|(_, _, a)| a - 1).sum::<u32>();
            retries += m.failed_attempts.values().sum::<u32>();
        }
        let text = std::fs::read_to_string(registry.spans_path(s.id)).unwrap_or_default();
        for span in crisp_harness::load_spans(&text) {
            let secs = span.end_ns.saturating_sub(span.start_ns) as f64 / 1e9;
            match span.name.as_str() {
                "queue" => queue.push(secs * 1e3),
                n if n.starts_with("execute") => {
                    execute.push(secs * 1e3);
                    exec_busy += secs;
                }
                n => {
                    if let Some((fig, _)) = n.strip_prefix("cell ").and_then(|n| n.split_once('/'))
                    {
                        cells_busy += secs;
                        out.add(&format!("cells.{fig}_s"), secs);
                    }
                }
            }
        }
    }
    out.set("store.hits", hits);
    out.set("store.misses", misses);
    out.set("store.hit_ratio", hits / (hits + misses).max(1.0));
    let stats = Store::open(&p.store)
        .and_then(|s| s.stats())
        .map_err(|e| e.to_string())?;
    out.set("store.quarantined", stats.quarantined as f64);
    out.set("store.bytes", stats.bytes as f64);
    out.set("harness.journal_bytes", journal as f64);
    out.set("harness.retries", f64::from(retries));
    out.set("cells.busy_s", cells_busy);
    out.set("harness.idle_s", exec_busy - cells_busy);
    out.set("serve.queue_ms", p50(&queue).unwrap_or(0.0));
    out.set("serve.execute_ms", p50(&execute).unwrap_or(0.0));
    let submit: Vec<f64> = p.served.iter().map(|s| s.submit_ms).collect();
    out.set("serve.submit_ms", p50(&submit).unwrap_or(0.0));
    out.set(
        "serve.coalesced",
        p.served.iter().filter(|s| s.coalesced).count() as f64,
    );
    out.set(
        "serve.rejected",
        p.stats
            .get("rejected_busy")
            .and_then(Value::as_f64)
            .unwrap_or(0.0),
    );
    Ok(())
}

pub fn run(opts: &Opts) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let jobs = traffic(opts.seed);
    if !opts.traced {
        // The simulated metrics of the pipelines behind every cold job.
        let (mut ipcs, mut gains) = (Vec::new(), Vec::new());
        for k in POOL {
            let p = probe::probe(k, &probe::tiny(), false, &mut StageTimes::default())
                .map_err(|e| e.to_string())?;
            let [_, ooo, crisp] = &p.sims[..] else {
                return Err(format!("{k}: probe ran {} simulations", p.sims.len()));
            };
            ipcs.push(ooo.result.ipc());
            gains.push(crisp.result.speedup_over(&ooo.result));
        }
        out.set("ooo_ipc", geomean(&ipcs).unwrap_or(0.0));
        out.set(
            "crisp_speedup_pct",
            geomean_speedup_pct(&gains).unwrap_or(0.0),
        );
    }
    let mut setups = Vec::new();
    let mut digests = Vec::new();
    let mut reference = Reference::new();
    let template = opts.work.join("template");
    for i in 0..if opts.traced { 1 } else { SETUPS } {
        let t = Instant::now();
        let dir = opts.work.join(format!("seed-{i}"));
        reference.clear();
        digests.push(seed_store(&dir, &mut reference)?);
        let daemon = start_daemon(&dir, &opts.work.join(format!("warmup-{i}")), false)?;
        setups.push(t.elapsed().as_secs_f64());
        daemon.stop()?;
        if i == 0 {
            std::fs::rename(&dir, &template).map_err(|e| e.to_string())?;
        }
    }
    out.check(digests.windows(2).all(|w| w[0] == w[1]), || {
        format!("seeded store bytes differ between set-ups: {digests:?}")
    });
    println!("digest seeded-store {}", digests[0]);
    for pf in COLD_PF {
        let (_, outcomes) = reference_sweep(Some(pf))?;
        reference.insert(Some(pf.to_string()), outcomes);
    }

    let mut n = 0;
    // A traced run needs one untraced pass, for the overhead ratio.
    let (seconds, min) = if opts.traced {
        (0.0, 1)
    } else {
        (opts.seconds, 2)
    };
    let untraced = timed_passes(seconds, min, |_| {
        n += 1;
        let dir = opts.work.join(format!("pass-{n}"));
        pass(&mut out, &template, &dir, false, &jobs, &reference)
    })?;
    let walls: Vec<f64> = untraced.iter().map(|(_, p)| p.wall_s).collect();
    let ms: Vec<f64> = untraced
        .iter()
        .flat_map(|(_, p)| p.served.iter().map(|s| s.ms))
        .collect();
    println!("jobs timed: {} over {} pass(es)", ms.len(), walls.len());

    if opts.traced {
        let traced = pass(
            &mut out,
            &template,
            &opts.work.join("traced"),
            true,
            &jobs,
            &reference,
        )?;
        let wall_u = median(&walls).unwrap_or(traced.wall_s);
        out.set("obs.trace_overhead_ratio", traced.wall_s / wall_u - 1.0);
        out.set("serve.jobs", ms.len() as f64);
        out.set("serve.job_p90_ms", percentile(&ms, 90.0).unwrap_or(0.0));
        layer_metrics(&mut out, &traced)?;
        return Ok(out);
    }
    out.set("setup_s", median(&setups).unwrap_or(0.0));
    out.set("wall_s", median(&walls).unwrap_or(0.0));
    out.set(
        "job_p50_ms",
        p50(&ms).ok_or("too few latency samples for a median")?,
    );

    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_seed_gives_one_sequence() {
        let a = traffic(1);
        assert_eq!(a, traffic(1));
        assert_ne!(a, traffic(2));
        assert_eq!(a.len(), JOBS);
        let count = |k: Kind| a.iter().filter(|j| j.kind == k).count();
        assert_eq!(
            count(Kind::Cold),
            TARGETS.len() * POOL.len() * COLD_PF.len()
        );
        assert_eq!(count(Kind::Duplicate), DUPLICATES);
        assert_ne!(a[0].kind, Kind::Duplicate);
        // Every non-duplicate request is new; every duplicate repeats one.
        let mut seen: Vec<&SubmitRequest> = Vec::new();
        for j in &a {
            let known = seen.contains(&&j.request);
            assert_eq!(known, j.kind == Kind::Duplicate, "{j:?}");
            seen.push(&j.request);
        }
        let mut d = Digest::default();
        for j in &a {
            d.bytes(j.request.encode().as_bytes());
        }
        assert_eq!(d.hex(), PINNED_SEED_1, "the seed-1 sequence changed");
    }

    const PINNED_SEED_1: &str = "1051204ff0ea7ae7";
}
