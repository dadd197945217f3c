//! `served-mix`: an in-process job server (2 workers) with 2 closed-loop
//! clients submitting a seeded mix of small-footprint jobs. Simulation is
//! cheap here, so queueing, protocol and cache costs become visible.
//!
//! The run proceeds in rounds. Each round holds a fixed mix — one cold job
//! (a new offset `j`, so a new store is warmed), thirteen store hits (a
//! warmed offset under a new stratified-sampler seed) and six cache hits
//! (an exact repeat) — in seeded order, split between the two clients, each of
//! which submits its next job only when the previous result is back. Jobs
//! only target stores and results completed in earlier rounds, so each
//! job's class — and hence the `source` the server must report — is fixed
//! before the round starts.

use std::collections::BTreeMap;
use std::thread::JoinHandle;
use std::time::Instant;

use smarts_ckpt::MappedStore;
use smarts_core::{SamplerKind, SmartsSim};
use smarts_exec::{replay_store_sampled, sample_pipeline_saving, Executor, ParallelMode};
use smarts_server::{
    canonical_report_line, json::Json, machine_for, params_for, sampled_report_line, Client,
    JobSpec, Server, ServerConfig, ShutdownSummary,
};
use smarts_workloads::{find, SplitMix64};

use crate::batch::{sampled_ci_pct, systematic_ci_pct};
use crate::check::{same, table_row, Gate, Reference};
use crate::metrics::Metrics;
use crate::trace::{median, percentile, percentile_supported, ratio, summarize_roots, Tracer};
use crate::{Ctx, Outcome};

/// hashp-2 at twice its suite length, n≈100: a pool large enough that a
/// stratified pass selects a strict subset, and ~78 offsets `j` for cold
/// jobs.
const NAME: &str = "served-mix";
const BENCH: &str = "hashp-2";
const SCALE: f64 = 2.0;
const N: u64 = 100;
const WORKERS: usize = 2;
const CLIENTS: usize = 2;
/// Offsets warmed during setup, so the first round has store and cache
/// hits to draw from.
const SETUP_OFFSETS: usize = 2;
/// One round's mix: a minority cold, mostly store hits, the rest cache
/// hits. Cold jobs take ~6× a store hit, so at 1 in 20 the p90 latency
/// lies inside the store-hit population instead of on the edge between
/// two classes, where it would jump from run to run.
const ROUND: [(Class, usize); 3] = [(Class::Cold, 1), (Class::Store, 13), (Class::Cache, 6)];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Class {
    Cold,
    Store,
    Cache,
}

impl Class {
    /// The `source` the server must report for a job of this class.
    fn source(self) -> &'static str {
        match self {
            Class::Cold => "cold",
            Class::Store => "store",
            Class::Cache => "cache",
        }
    }
}

#[derive(Debug, Clone)]
struct Job {
    /// Stamped on the job's spans.
    id: u64,
    class: Class,
    spec: JobSpec,
}

fn systematic(offset: u64) -> JobSpec {
    JobSpec {
        bench: BENCH.to_string(),
        scale: SCALE,
        n: N,
        offset,
        ..JobSpec::default()
    }
}

/// A spec's identity for grouping (JobSpec has float fields, so no `Ord`).
fn key(spec: &JobSpec) -> String {
    spec.to_json().to_line()
}

/// The seeded job mix.
struct Schedule {
    rng: SplitMix64,
    fresh: Vec<u64>,
    warmed: Vec<u64>,
    served: Vec<JobSpec>,
    sampler_seed: u64,
    next_id: u64,
}

impl Schedule {
    fn new(seed: u64) -> Result<Self, String> {
        let interval = params_for(&systematic(0), &machine_for(&systematic(0)))?.interval;
        let mut rng = SplitMix64::new(seed ^ 0x5345_5256_4544_4d49); // "SERVEDMI"
        let mut fresh: Vec<u64> = (0..interval).collect();
        rng.shuffle(&mut fresh);
        let sampler_seed = rng.next_u64();
        Ok(Schedule {
            rng,
            fresh,
            warmed: Vec::new(),
            served: Vec::new(),
            sampler_seed,
            next_id: 0,
        })
    }

    fn job(&mut self, class: Class, spec: JobSpec) -> Job {
        self.next_id += 1;
        Job {
            id: self.next_id,
            class,
            spec,
        }
    }

    fn cold(&mut self) -> Option<Job> {
        let offset = self.fresh.pop()?;
        Some(self.job(Class::Cold, systematic(offset)))
    }

    fn pick<T: Clone>(rng: &mut SplitMix64, from: &[T]) -> T {
        from[rng.next_below(from.len() as u64) as usize].clone()
    }

    /// The next round's jobs in submission order, or `None` once no
    /// fresh offset is left for its cold job.
    fn round(&mut self) -> Option<Vec<Job>> {
        let mut jobs = Vec::new();
        for class in ROUND
            .iter()
            .flat_map(|&(class, count)| std::iter::repeat_n(class, count))
        {
            jobs.push(match class {
                Class::Cold => self.cold()?,
                Class::Store => {
                    self.sampler_seed = self.sampler_seed.wrapping_add(1);
                    let spec = JobSpec {
                        sampler: SamplerKind::Stratified,
                        seed: self.sampler_seed,
                        ..systematic(Self::pick(&mut self.rng, &self.warmed))
                    };
                    self.job(class, spec)
                }
                Class::Cache => {
                    let spec = Self::pick(&mut self.rng, &self.served);
                    self.job(class, spec)
                }
            });
        }
        self.rng.shuffle(&mut jobs);
        Some(jobs)
    }

    /// Makes a finished round's stores and results available to later
    /// rounds.
    fn complete(&mut self, jobs: &[Job]) {
        for job in jobs {
            if job.class == Class::Cold {
                self.warmed.push(job.spec.offset);
            }
            if job.class != Class::Cache {
                self.served.push(job.spec.clone());
            }
        }
    }
}

/// What a client saw of one job.
#[derive(Debug, Clone)]
struct Served {
    class: Class,
    spec: JobSpec,
    source: String,
    line: String,
    latency_s: f64,
    traced: bool,
}

/// Submits one job, waits for it over `watch`, fetches its result.
/// With a tracer, the `watch` state transitions become spans.
fn serve_one(client: &mut Client, job: &Job, tr: Option<&mut Tracer>) -> Result<Served, String> {
    let start = Instant::now();
    let traced = tr.is_some();
    let (source, line) = match tr {
        None => {
            let id = client.submit(&job.spec)?;
            client.watch(&id, |_| {})?;
            client.result(&id)?
        }
        Some(tr) => {
            tr.set_request(job.id);
            let root = tr.begin("job");
            let outcome = traced_exchange(client, job, tr);
            tr.end(root, 0);
            outcome?
        }
    };
    Ok(Served {
        class: job.class,
        spec: job.spec.clone(),
        source,
        line,
        latency_s: start.elapsed().as_secs_f64(),
        traced,
    })
}

/// The traced exchange: every span it opens is closed before an error
/// propagates.
fn traced_exchange(
    client: &mut Client,
    job: &Job,
    tr: &mut Tracer,
) -> Result<(String, String), String> {
    let id = tr.span("server.submit", || (client.submit(&job.spec), 1))?;
    let after_submit = tr.now_ns();
    let watch = tr.begin("server.watch");
    let mut events: Vec<(u64, String)> = Vec::new();
    let clock = &*tr;
    let watched = client.watch(&id, |event| {
        let state = event.get("state").and_then(Json::as_str).unwrap_or("");
        events.push((clock.now_ns(), state.to_string()));
    });
    record_transitions(tr, after_submit, &events);
    tr.end(watch, events.len() as u64);
    watched?;
    tr.span("server.result", || (client.result(&id), 1))
}

/// Turns the client-side times of `watch` events into queue, warm and
/// replay spans.
fn record_transitions(tr: &mut Tracer, after_submit: u64, events: &[(u64, String)]) {
    let first = |pred: &dyn Fn(&str) -> bool| events.iter().find(|(_, s)| pred(s)).map(|e| e.0);
    let Some(end) = events.last().map(|e| e.0) else {
        return;
    };
    let left_queue = first(&|s| s != "queued").unwrap_or(end);
    tr.record("server.queue", after_submit, left_queue, 1);
    let replaying = first(&|s| s == "replaying");
    if let Some(warming) = first(&|s| s == "warming") {
        let until = first(&|s| s != "queued" && s != "warming").unwrap_or(end);
        tr.record("server.warm", warming, until, 1);
    }
    if let Some(replaying) = replaying {
        tr.record("server.replay", replaying, end, 1);
    }
}

/// One bound server with its clients.
struct Rig {
    clients: Vec<Client>,
    serve: JoinHandle<Result<ShutdownSummary, String>>,
}

impl Rig {
    fn stop(mut self) -> Result<(), String> {
        self.clients[0].shutdown()?;
        drop(self.clients);
        let summary = self
            .serve
            .join()
            .map_err(|_| "server thread panicked".to_string())??;
        if summary.abandoned.is_empty() {
            Ok(())
        } else {
            Err(format!("server abandoned jobs {:?}", summary.abandoned))
        }
    }
}

/// Binds a server over a fresh store directory, connects the clients,
/// and warms the setup offsets through cold jobs.
fn setup(ctx: &Ctx, attempt: usize, schedule: &mut Schedule) -> Result<(Rig, Vec<Served>), String> {
    let server = Server::bind(&ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        store_dir: ctx.work.join(format!("served-stores-{attempt}")),
        workers: WORKERS,
        ..ServerConfig::default()
    })?;
    let addr = server.local_addr().to_string();
    let serve = std::thread::spawn(move || server.serve());
    let mut clients = Vec::with_capacity(CLIENTS);
    for _ in 0..CLIENTS {
        clients.push(Client::connect(&addr)?);
    }
    let mut rig = Rig { clients, serve };
    let mut warm = || -> Result<Vec<Served>, String> {
        let mut warmed = Vec::new();
        let mut jobs = Vec::new();
        for _ in 0..SETUP_OFFSETS {
            let job = schedule
                .cold()
                .ok_or("the design has too few offsets for setup")?;
            let served = serve_one(&mut rig.clients[0], &job, None)?;
            if served.source != "cold" {
                return Err(format!("setup job served from {}", served.source));
            }
            warmed.push(served);
            jobs.push(job);
        }
        schedule.complete(&jobs);
        Ok(warmed)
    };
    match warm() {
        Ok(warmed) => Ok((rig, warmed)),
        Err(e) => {
            let _ = rig.stop();
            Err(e)
        }
    }
}

/// Runs one round: each client serves its share of the jobs in order.
/// Returns the round's wall and what was served.
fn run_round(
    rig: &mut Rig,
    jobs: &[Job],
    tracers: Option<&mut [Tracer]>,
) -> (f64, Vec<Result<Served, String>>) {
    let start = Instant::now();
    let mut per_client: Vec<Vec<&Job>> = vec![Vec::new(); CLIENTS];
    for (i, job) in jobs.iter().enumerate() {
        per_client[i % CLIENTS].push(job);
    }
    let mut tracers: Vec<Option<&mut Tracer>> = match tracers {
        Some(t) => t.iter_mut().map(Some).collect(),
        None => (0..CLIENTS).map(|_| None).collect(),
    };
    let results: Vec<Vec<Result<Served, String>>> = std::thread::scope(|s| {
        let handles: Vec<_> = rig
            .clients
            .iter_mut()
            .zip(per_client)
            .zip(tracers.iter_mut())
            .map(|((client, mine), tr)| {
                s.spawn(move || {
                    mine.into_iter()
                        .map(|job| serve_one(client, job, tr.as_deref_mut()))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    (
        start.elapsed().as_secs_f64(),
        results.into_iter().flatten().collect(),
    )
}

fn stat(stats: &Json, field: &str) -> f64 {
    stats.get(field).and_then(Json::as_u64).unwrap_or(0) as f64
}

/// Expected `(line, achieved CI %)` per spec key.
type References = BTreeMap<String, (String, f64)>;

/// One-shot references: each distinct spec served, computed in-process
/// through the product entry points (`sample_pipeline_saving` per offset,
/// then `replay_store_sampled` on that store per sampler seed), on two
/// threads.
fn one_shot(ctx: &Ctx, specs: &[JobSpec]) -> Result<References, String> {
    let mut by_offset: BTreeMap<u64, Vec<&JobSpec>> = BTreeMap::new();
    for spec in specs {
        by_offset.entry(spec.offset).or_default().push(spec);
    }
    let groups: Vec<(u64, Vec<&JobSpec>)> = by_offset.into_iter().collect();
    let halves: Vec<Result<References, String>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..2)
            .map(|half| {
                let mine: Vec<&(u64, Vec<&JobSpec>)> =
                    groups.iter().skip(half).step_by(2).collect();
                s.spawn(move || {
                    let mut out = BTreeMap::new();
                    for (offset, group) in mine {
                        one_shot_offset(ctx, *offset, group, &mut out)?;
                    }
                    Ok(out)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("reference thread panicked"))
            .collect()
    });
    let mut out = BTreeMap::new();
    for half in halves {
        out.extend(half?);
    }
    Ok(out)
}

fn one_shot_offset(
    ctx: &Ctx,
    offset: u64,
    group: &[&JobSpec],
    out: &mut References,
) -> Result<(), String> {
    let exec = Executor::new(1)
        .map_err(|e| e.to_string())?
        .with_mode(ParallelMode::Pipeline);
    let base = systematic(offset);
    let cfg = machine_for(&base);
    let sim = SmartsSim::new(cfg.clone());
    let params = params_for(&base, &cfg)?;
    let bench = find(BENCH)
        .ok_or("served benchmark missing from the suite")?
        .scaled(base.scale);
    let path = ctx.work.join(format!("one-shot-{offset}.ck"));
    let saved = sample_pipeline_saving(&exec, &sim, &bench, base.scale, &params, &path)
        .map_err(|e| e.to_string())?;
    out.insert(
        key(&base),
        (
            canonical_report_line(&saved.report.report),
            systematic_ci_pct(&saved.report.report),
        ),
    );
    let store = MappedStore::open(&path, &cfg).map_err(|e| e.to_string())?;
    for spec in group
        .iter()
        .filter(|s| s.sampler != SamplerKind::Systematic)
    {
        let sampled = replay_store_sampled(&exec, &sim, &store, &spec.sampler_spec())
            .map_err(|e| e.to_string())?;
        out.insert(
            key(spec),
            (sampled_report_line(&sampled), sampled_ci_pct(&sampled)),
        );
    }
    drop(store);
    let _ = std::fs::remove_file(&path);
    Ok(())
}

/// The digest table rows of `seed`: the one-shot reports of the offsets
/// set-up warms.
pub fn record_digests(ctx: &Ctx) -> Result<Vec<String>, String> {
    let mut schedule = Schedule::new(ctx.seed)?;
    let mut rows = Vec::new();
    for _ in 0..SETUP_OFFSETS {
        let job = schedule.cold().ok_or("the design has too few offsets")?;
        let mut out = References::new();
        one_shot_offset(ctx, job.spec.offset, &[&job.spec], &mut out)?;
        let (line, _) = &out[&key(&job.spec)];
        rows.push(table_row(
            NAME,
            ctx.seed,
            &format!("j{}", job.spec.offset),
            line,
        ));
    }
    Ok(rows)
}

/// Runs the served-mix workload.
pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let ((mut rig, mut served, mut schedule), setups) = crate::repeat_setup(
        |attempt| {
            let mut schedule = Schedule::new(ctx.seed)?;
            let (rig, warmed) = setup(ctx, attempt, &mut schedule)?;
            Ok((rig, warmed, schedule))
        },
        |(old, _, _)| old.stop(),
    )?;
    let setup_jobs = served.len();

    let before = rig.clients[0].stats()?;
    let mut walls = Vec::new();
    let mut traced_walls = Vec::new();
    let mut tracers: Vec<Tracer> = (0..CLIENTS).map(|_| Tracer::new(ctx.epoch)).collect();
    let budget = if ctx.trace {
        ctx.seconds / 2.0
    } else {
        ctx.seconds
    };
    let mut exhausted = false;
    let mut gate = Gate::default();
    // Peak RSS of set-up plus one round, as one invocation sees it.
    let mut peak_rss = None;
    for traced in [false, true] {
        if traced && !ctx.trace {
            break;
        }
        let phase = Instant::now();
        while phase.elapsed().as_secs_f64() < budget {
            let Some(jobs) = schedule.round() else {
                exhausted = true;
                break;
            };
            let (wall, results) = run_round(&mut rig, &jobs, traced.then_some(&mut tracers[..]));
            let mut round_ok = true;
            for result in results {
                match result {
                    Ok(s) => served.push(s),
                    Err(e) => {
                        round_ok = false;
                        gate.record(Err(e));
                    }
                }
            }
            if round_ok {
                if traced {
                    traced_walls.push(wall);
                } else {
                    walls.push(wall);
                }
            }
            schedule.complete(&jobs);
            if peak_rss.is_none() {
                peak_rss = Some(crate::host::peak_rss_mib()?);
            }
        }
    }
    let after = rig.clients[0].stats()?;
    rig.stop()?;

    // Correctness: every served line equals the one-shot line of its
    // spec, and every job came from the path its class implies.
    let mut distinct: BTreeMap<String, JobSpec> = BTreeMap::new();
    for s in &served {
        distinct
            .entry(key(&s.spec))
            .or_insert_with(|| s.spec.clone());
    }
    let specs: Vec<JobSpec> = distinct.into_values().collect();
    let reference = one_shot(ctx, &specs)?;
    let mut pinned = Reference::load(NAME, ctx.seed);
    let mut ci = Vec::new();
    for (i, s) in served.iter().enumerate() {
        let (want, ci_pct) = reference
            .get(&key(&s.spec))
            .ok_or("no one-shot reference for a served spec")?;
        let outcome = if s.source != s.class.source() {
            Err(format!(
                "job offset {} seed {}: served from {}, expected {}",
                s.spec.offset,
                s.spec.seed,
                s.source,
                s.class.source()
            ))
        } else {
            same(&format!("served {} job", s.source), &s.line, want)
        };
        if i < setup_jobs {
            // Set-up jobs are checked like the rest, and their reports
            // against the recorded table too, but are not measured work.
            gate.record(outcome.and_then(|()| pinned.check(&format!("j{}", s.spec.offset), want)));
            continue;
        }
        ci.push(*ci_pct);
        gate.record(outcome);
    }

    let measured = &served[setup_jobs..];
    let latencies: Vec<f64> = measured.iter().map(|s| s.latency_s).collect();
    let all_walls: f64 = walls.iter().chain(&traced_walls).sum();
    let mut m = Metrics::default();
    m.set("setup_s", median(&setups));
    m.set("wall_s", median(&walls));
    m.set("jobs_per_s", ratio(latencies.len() as f64, all_walls));
    m.set("job_p50_ms", 1e3 * median(&latencies));
    m.set("job_p90_ms", 1e3 * percentile(&latencies, 0.9));
    m.set("peak_rss_mib", peak_rss.unwrap_or(0.0));
    m.set("ci_halfwidth_pct", median(&ci));
    m.set("bench.latency_samples", latencies.len() as f64);

    let mut tracer = Tracer::new(ctx.epoch);
    if ctx.trace {
        for t in tracers {
            tracer.absorb(t);
        }
        layer_metrics(&tracer, measured, &walls, &traced_walls, &mut m);
        let jobs = latencies.len() as f64;
        m.set(
            "server.cache_hit_frac",
            ratio(
                stat(&after, "cache_hits") - stat(&before, "cache_hits"),
                jobs,
            ),
        );
        m.set(
            "server.store_hit_frac",
            ratio(
                stat(&after, "store_hits") - stat(&before, "store_hits"),
                jobs,
            ),
        );
        m.set(
            "server.warm_passes",
            stat(&after, "warm_passes") - stat(&before, "warm_passes"),
        );
    }
    let mut notes = vec![
        format!(
            "setup {:.3}s median of {:?}",
            median(&setups),
            setups.iter().map(|s| format!("{s:.3}")).collect::<Vec<_>>()
        ),
        format!(
            "rounds {} untraced + {} traced, {} jobs measured; p90 over {} jobs {} supported (needs 10 beyond it)",
            walls.len(),
            traced_walls.len(),
            latencies.len(),
            latencies.len(),
            if percentile_supported(latencies.len(), 0.9) { "is" } else { "is NOT" }
        ),
        format!("one-shot references: {} distinct specs", specs.len()),
    ];
    if exhausted {
        notes.push("the design ran out of fresh offsets before the time was up".to_string());
    }
    notes.extend(gate.notes().iter().map(|n| format!("FAILED: {n}")));
    Ok(Outcome {
        gate,
        metrics: m,
        tracer: ctx.trace.then_some(tracer),
        notes,
    })
}

fn layer_metrics(
    tracer: &Tracer,
    measured: &[Served],
    walls: &[f64],
    traced_walls: &[f64],
    m: &mut Metrics,
) {
    let roots = summarize_roots(tracer.spans(), "job");
    // The state and exchange spans are leaves: self time is duration.
    let per_layer = |name: &str| -> Vec<f64> {
        roots
            .iter()
            .filter_map(|r| r.layers.get(name).map(|l| l.self_s))
            .collect()
    };
    for (layer, metric) in [
        ("server.submit", "server.submit_p50_ms"),
        ("server.queue", "server.queue_p50_ms"),
        ("server.warm", "server.warm_p50_ms"),
        ("server.replay", "server.replay_p50_ms"),
        ("server.result", "server.result_p50_ms"),
    ] {
        m.set(metric, 1e3 * median(&per_layer(layer)));
    }
    m.set(
        "server.queue_p90_ms",
        1e3 * percentile(&per_layer("server.queue"), 0.9),
    );
    // Latency by class, over the traced half's jobs.
    let traced_jobs: Vec<&Served> = measured.iter().filter(|s| s.traced).collect();
    for (class, metric) in [
        (Class::Cold, "server.cold_p50_ms"),
        (Class::Store, "server.store_p50_ms"),
        (Class::Cache, "server.cache_p50_ms"),
    ] {
        let lat: Vec<f64> = traced_jobs
            .iter()
            .filter(|s| s.class == class)
            .map(|s| s.latency_s)
            .collect();
        m.set(metric, 1e3 * median(&lat));
    }
    let unattributed: f64 = roots.iter().map(|r| r.unattributed_s).sum();
    let rooted: f64 = roots.iter().map(|r| r.wall_s).sum();
    m.set("trace.unattributed_frac", ratio(unattributed, rooted));
    m.set(
        "trace.overhead_frac",
        ratio(median(traced_walls), median(walls)) - 1.0,
    );
}
