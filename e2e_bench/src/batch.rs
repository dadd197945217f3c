//! The three in-process batch workloads and their shared run loop.
//!
//! Each workload has two implementations of one iteration:
//!
//! * **untraced** — the product entry point (`SmartsSim::sample`,
//!   `sample_pipeline_saving`, `replay_store`, `replay_store_sampled`);
//!   end-to-end numbers come only from these;
//! * **traced** — the same work re-driven through the finer public calls
//!   the entry point is made of, with a span around each layer. Its
//!   reports must be byte-identical to the untraced ones.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use smarts_ckpt::{CkptWriter, IsaId, MappedStore, StoreMeta};
use smarts_core::{
    FunctionalEngine, ModeInstructions, SampleReport, SamplerKind, SamplerSpec, SamplingParams,
    SmartsError, SmartsSim, SpeedupModel, UnitCheckpoint, UnitReplay, UnitSample, Warming,
};
use smarts_exec::{
    replay_store, replay_store_sampled, sample_pipeline_saving, Executor, ParallelMode,
    ParallelReport, PipelineStats, SampledReplay,
};
use smarts_isa::Program;
use smarts_server::{canonical_report_line, sampled_report_line};
use smarts_stats::{Confidence, SamplerPhase};
use smarts_uarch::{MachineConfig, Pipeline, WarmState};
use smarts_workloads::{find, Benchmark, LoadedBenchmark, Spec};

use crate::check::{fnv64, same, Gate, Reference};
use crate::metrics::Metrics;
use crate::trace::{layer_sum, median, percentile, ratio, summarize_roots, RootSummary, Tracer};
use crate::{Ctx, Outcome};

/// cold-sample: phased-1's phase structure over 140 phases (~42M
/// instructions) at n≈300 — long enough that functional warming
/// dominates, as in the paper's own runs.
const COLD_PHASES: u64 = 140;
const COLD_N: u64 = 300;

/// warm-save and replay-sweep: chase-1's 262,144-node pointer chase
/// (2 MiB of nodes, a footprint larger than the 1 MiB L2) at n≈50.
const CHASE_N: u64 = 50;

/// An 8-way machine with a narrower core: the warm geometry (caches,
/// TLBs, predictor) is unchanged, so an 8-way store replays on it.
fn narrowed(name: &'static str, width: u32, ruu: u32, lsq: u32) -> MachineConfig {
    let mut cfg = MachineConfig::eight_way();
    cfg.name = name;
    cfg.fetch_width = width;
    cfg.decode_width = width;
    cfg.issue_width = width;
    cfg.commit_width = width;
    cfg.ruu_size = ruu;
    cfg.lsq_size = lsq;
    cfg
}

fn phased(seed: u64) -> Benchmark {
    Benchmark::new(
        "phased-1",
        Spec::Phased {
            small: 64,
            large: 262_144,
            steps_per_phase: 100_000,
            phases: COLD_PHASES,
            seed,
        },
    )
}

/// chase-1 with the run's seed. The seed only permutes the node ring in
/// memory; the program is the suite's, so a store replay (which rebuilds
/// the program from the suite by name) runs the same code.
fn chase(seed: u64) -> Benchmark {
    Benchmark::new(
        "chase-1",
        Spec::Chase {
            nodes: 262_144,
            steps: 400_000,
            seed,
        },
    )
}

/// The sparse pass: a pilot of 8 lets the stratified sampler stop after
/// about 30 of the store's 51 records, so skipped records still cost
/// their place on the delta chain.
fn sweep_sampler(seed: u64) -> SamplerSpec {
    SamplerSpec {
        kind: SamplerKind::Stratified,
        seed,
        pilot: 8,
        ..SamplerSpec::systematic()
    }
}

fn err<E: std::fmt::Display>(e: E) -> String {
    e.to_string()
}

/// Achieved CPI half-width of a systematic report, % of the mean, at 3σ.
pub fn systematic_ci_pct(report: &SampleReport) -> f64 {
    report
        .cpi()
        .achieved_epsilon(Confidence::THREE_SIGMA)
        .map_or(0.0, |e| e * 100.0)
}

/// Achieved CPI half-width of a sampled replay, % of its estimate.
pub fn sampled_ci_pct(sampled: &SampledReplay) -> f64 {
    100.0 * ratio(sampled.estimate.half_width, sampled.estimate.mean)
}

/// What one iteration produced: a canonical line per config and the
/// achieved intervals.
#[derive(Debug, Default)]
pub struct Iteration {
    lines: Vec<(&'static str, String)>,
    ci_pct: Vec<f64>,
}

impl Iteration {
    fn push_systematic(&mut self, config: &'static str, report: &SampleReport) {
        self.lines.push((config, canonical_report_line(report)));
        self.ci_pct.push(systematic_ci_pct(report));
    }

    fn push_sampled(&mut self, config: &'static str, sampled: &SampledReplay) {
        self.lines.push((config, sampled_report_line(sampled)));
        self.ci_pct.push(sampled_ci_pct(sampled));
    }
}

/// One batch workload.
trait Batch: Sized {
    const NAME: &'static str;
    /// Loads programs and warms whatever stores iterations read.
    fn setup(ctx: &Ctx, attempt: usize, tr: &mut Tracer) -> Result<Self, String>;
    /// Untimed housekeeping before each iteration.
    fn prepare(&mut self) {}
    /// One iteration through the product entry point.
    fn untraced(&mut self) -> Result<Iteration, String>;
    /// The same iteration re-driven layer by layer.
    fn traced(&mut self, tr: &mut Tracer) -> Result<Iteration, String>;
    /// Cross-path identities beyond the digest gate.
    fn cross_check(&mut self, _it: &Iteration) -> Result<(), String> {
        Ok(())
    }
    /// Rate probes for the traced run (plain and warming functional
    /// simulation of the workload's program).
    fn probe(&self, tr: &mut Tracer);
    /// Workload-specific per-layer values known outside the spans.
    fn extras(&self, _m: &mut Metrics) {}
    /// `U + W` of the sampling design, for the §3.4 model.
    fn unit_plus_warming(&self) -> u64;
}

/// Plain and warming fast-forward over the whole stream, under a
/// `probe` root, so the §3.4 model gets measured `S_F` and `S_FW`.
fn probe_rates(tr: &mut Tracer, loaded: &LoadedBenchmark, with_warming: bool) {
    let root = tr.begin("probe");
    tr.span("probe.ff", || {
        let mut engine = FunctionalEngine::new(loaded.clone());
        let n = engine.fast_forward(u64::MAX - 1);
        ((), n)
    });
    if with_warming {
        tr.span("probe.ff_warm", || {
            let mut engine = FunctionalEngine::new(loaded.clone());
            let mut warm = WarmState::new(&MachineConfig::eight_way());
            let n = engine.fast_forward_warming(u64::MAX - 1, &mut warm);
            ((), n)
        });
    }
    tr.end(root, 0);
}

/// `SmartsSim::replay_checkpoint`, re-driven with a span per layer.
fn traced_replay(
    tr: &mut Tracer,
    sim: &SmartsSim,
    program: &Program,
    params: &SamplingParams,
    checkpoint: &UnitCheckpoint,
) -> UnitReplay {
    let (mut engine, mut warm, mut pipeline) = tr.span("core.restore", || {
        let engine =
            FunctionalEngine::from_snapshot(program.clone(), checkpoint.snapshot().clone());
        (
            (
                engine,
                checkpoint.warm().clone(),
                Pipeline::new(sim.config()),
            ),
            1,
        )
    });
    let warm_commits = checkpoint.unit_start().saturating_sub(engine.position());
    let warm_run = tr.span("uarch.detail_warm", || {
        let run = pipeline.run(&mut warm, &mut engine, warm_commits, false);
        let n = run.instructions;
        (run, n)
    });
    let measured = tr.span("uarch.measure", || {
        let run = pipeline.run(&mut warm, &mut engine, params.unit_size, true);
        let n = run.instructions;
        (run, n)
    });
    if measured.instructions < params.unit_size {
        return UnitReplay::Partial {
            detailed_warmed: warm_run.instructions,
            measured: measured.instructions,
        };
    }
    let cpi = measured.cpi();
    let epi = sim
        .energy()
        .energy_per_instruction(&measured.counters, measured.cycles);
    UnitReplay::Complete {
        sample: Box::new(UnitSample {
            start_instr: checkpoint.unit_start(),
            cycles: measured.cycles,
            instructions: measured.instructions,
            cpi,
            epi,
            counters: measured.counters,
        }),
        detailed_warmed: warm_run.instructions,
    }
}

/// The exec crate's deterministic merge: stream order, accounting up to
/// and including the first partial unit.
fn merge(mut outcomes: Vec<(usize, UnitReplay)>) -> (Vec<UnitSample>, ModeInstructions) {
    outcomes.sort_unstable_by_key(|(index, _)| *index);
    let mut units = Vec::with_capacity(outcomes.len());
    let mut instructions = ModeInstructions::default();
    for (_, replay) in outcomes {
        replay.account(&mut instructions);
        match replay {
            UnitReplay::Complete { sample, .. } => units.push(*sample),
            UnitReplay::Partial { .. } => break,
        }
    }
    (units, instructions)
}

fn traced_merge(
    tr: &mut Tracer,
    params: &SamplingParams,
    outcomes: Vec<(usize, UnitReplay)>,
) -> Result<SampleReport, String> {
    let report = tr.span("core.merge", || {
        let (units, instructions) = merge(outcomes);
        let n = units.len() as u64;
        let report = (!units.is_empty()).then(|| {
            SampleReport::from_units(*params, units, instructions, Duration::ZERO, Duration::ZERO)
        });
        (report, n)
    });
    report.ok_or_else(|| err(SmartsError::EmptySample))
}

// ---------------------------------------------------------------- cold-sample

/// `cold-sample`: one-shot `SmartsSim::sample` — no checkpoint, store or
/// server work; the bypass workload for every store-layer change.
pub struct ColdSample {
    sim: SmartsSim,
    bench: Benchmark,
    params: SamplingParams,
}

impl Batch for ColdSample {
    const NAME: &'static str = "cold-sample";

    fn setup(ctx: &Ctx, _attempt: usize, tr: &mut Tracer) -> Result<Self, String> {
        let bench = phased(ctx.seed);
        let sim = SmartsSim::new(MachineConfig::eight_way());
        // Set-up loads the program once; `SmartsSim::sample` loads it
        // again inside every iteration, as a one-shot run does.
        tr.span("workloads.load", || (bench.load(), 0));
        let params = SamplingParams::paper_defaults(sim.config(), bench.approx_len(), COLD_N)
            .map_err(err)?;
        Ok(ColdSample { sim, bench, params })
    }

    fn untraced(&mut self) -> Result<Iteration, String> {
        let report = self.sim.sample(&self.bench, &self.params).map_err(err)?;
        let mut it = Iteration::default();
        it.push_systematic("8way", &report);
        Ok(it)
    }

    /// `SmartsSim::sample`, step by step.
    fn traced(&mut self, tr: &mut Tracer) -> Result<Iteration, String> {
        let params = self.params;
        params.validate().map_err(err)?;
        let loaded = tr.span("workloads.load", || (self.bench.load(), 0));
        let (u, w, k) = (params.unit_size, params.detailed_warming, params.interval);
        let mut engine = FunctionalEngine::new(loaded);
        let mut warm = WarmState::new(self.sim.config());
        let mut units = Vec::new();
        let mut instructions = ModeInstructions::default();
        let mut unit_index = params.offset;
        loop {
            if params
                .max_units
                .is_some_and(|max| units.len() as u64 >= max)
            {
                break;
            }
            let unit_start = unit_index * u;
            if engine.position() >= unit_start + u {
                unit_index += k;
                continue;
            }
            let warm_start = unit_start.saturating_sub(w);
            let ff = tr.span("core.ff_warm", || {
                let n = match params.warming {
                    Warming::None => engine.fast_forward(warm_start),
                    Warming::Functional => engine.fast_forward_warming(warm_start, &mut warm),
                };
                (n, n)
            });
            instructions.fast_forwarded += ff;
            if engine.finished() {
                break;
            }
            let (mut pipeline, warm_run) = tr.span("uarch.detail_warm", || {
                let mut pipeline = Pipeline::new(self.sim.config());
                let commits = unit_start.saturating_sub(engine.position());
                let run = pipeline.run(&mut warm, &mut engine, commits, false);
                let n = run.instructions;
                ((pipeline, run), n)
            });
            let measured = tr.span("uarch.measure", || {
                let run = pipeline.run(&mut warm, &mut engine, u, true);
                let n = run.instructions;
                (run, n)
            });
            instructions.detailed_warmed += warm_run.instructions;
            instructions.measured += measured.instructions;
            if measured.instructions < u {
                break;
            }
            let cpi = measured.cpi();
            let epi = self
                .sim
                .energy()
                .energy_per_instruction(&measured.counters, measured.cycles);
            units.push(UnitSample {
                start_instr: unit_start,
                cycles: measured.cycles,
                instructions: measured.instructions,
                cpi,
                epi,
                counters: measured.counters,
            });
            unit_index += k;
        }
        let report = tr.span("core.merge", || {
            let n = units.len() as u64;
            let report = (!units.is_empty()).then(|| {
                SampleReport::from_units(
                    params,
                    units,
                    instructions,
                    Duration::ZERO,
                    Duration::ZERO,
                )
            });
            (report, n)
        });
        let report = report.ok_or_else(|| err(SmartsError::EmptySample))?;
        let mut it = Iteration::default();
        it.push_systematic("8way", &report);
        Ok(it)
    }

    fn probe(&self, tr: &mut Tracer) {
        probe_rates(tr, &self.bench.load(), false);
    }

    fn unit_plus_warming(&self) -> u64 {
        self.params.detailed_per_unit()
    }
}

// ---------------------------------------------------------------- warm-save

/// `warm-save`: `sample_pipeline_saving` on the large-footprint chase —
/// the store's write side (capture, encode, write).
pub struct WarmSave {
    sim: SmartsSim,
    bench: Benchmark,
    params: SamplingParams,
    exec: Executor,
    path: PathBuf,
    store_digest: Option<u64>,
    store_bytes: u64,
    records: u64,
}

impl WarmSave {
    /// Every iteration must write the same store bytes, traced or not.
    fn check_store(&mut self) -> Result<(), String> {
        let bytes = std::fs::read(&self.path).map_err(|e| format!("cannot read store: {e}"))?;
        let digest = fnv64(&bytes);
        self.store_bytes = bytes.len() as u64;
        match self.store_digest {
            Some(want) if want != digest => Err(format!(
                "store bytes digest {digest:016x}, expected {want:016x}"
            )),
            _ => {
                self.store_digest = Some(digest);
                Ok(())
            }
        }
    }
}

impl Batch for WarmSave {
    const NAME: &'static str = "warm-save";

    fn setup(ctx: &Ctx, attempt: usize, tr: &mut Tracer) -> Result<Self, String> {
        let bench = chase(ctx.seed);
        let sim = SmartsSim::new(MachineConfig::eight_way());
        // Set-up loads the program once; `sample_pipeline_saving` loads it
        // again inside every save, as a one-shot run does.
        tr.span("workloads.load", || (bench.load(), 0));
        let params = SamplingParams::paper_defaults(sim.config(), bench.approx_len(), CHASE_N)
            .map_err(err)?;
        let exec = Executor::new(1)
            .map_err(err)?
            .with_mode(ParallelMode::Pipeline);
        Ok(WarmSave {
            sim,
            bench,
            params,
            exec,
            path: ctx.work.join(format!("warm-save-{attempt}.ck")),
            store_digest: None,
            store_bytes: 0,
            records: 0,
        })
    }

    fn prepare(&mut self) {
        let _ = std::fs::remove_file(&self.path);
    }

    fn untraced(&mut self) -> Result<Iteration, String> {
        let saved = sample_pipeline_saving(
            &self.exec,
            &self.sim,
            &self.bench,
            1.0,
            &self.params,
            &self.path,
        )
        .map_err(err)?;
        self.records = saved.write.records;
        let mut it = Iteration::default();
        it.push_systematic("8way", &saved.report.report);
        Ok(it)
    }

    /// `sample_pipeline_saving` with its producer and consumer run in
    /// one thread, unit by unit.
    fn traced(&mut self, tr: &mut Tracer) -> Result<Iteration, String> {
        let params = self.params;
        params.validate().map_err(err)?;
        let loaded = tr.span("workloads.load", || (self.bench.load(), 0));
        let meta = StoreMeta {
            params,
            benchmark: self.bench.name().to_string(),
            scale: 1.0,
            isa: IsaId::Builtin,
        };
        let mut writer = tr
            .span("ckpt.append", || {
                (CkptWriter::create(&self.path, self.sim.config(), &meta), 0)
            })
            .map_err(err)?;
        let program = loaded.program.clone();
        let mut engine = FunctionalEngine::new(loaded);
        let mut warm = WarmState::new(self.sim.config());
        let mut outcomes = Vec::new();
        let mut unit_index = params.offset;
        loop {
            if params
                .max_units
                .is_some_and(|max| outcomes.len() as u64 >= max)
            {
                break;
            }
            let unit_start = unit_index * params.unit_size;
            let warm_start = unit_start.saturating_sub(params.detailed_warming);
            tr.span("core.ff_warm", || {
                let n = match params.warming {
                    Warming::None => engine.fast_forward(warm_start),
                    Warming::Functional => engine.fast_forward_warming(warm_start, &mut warm),
                };
                ((), n)
            });
            if engine.finished() {
                break;
            }
            if engine.position() > unit_start {
                unit_index += params.interval;
                continue;
            }
            let checkpoint = tr.span("core.capture", || {
                let snapshot = engine.snapshot();
                (
                    UnitCheckpoint::from_parts(unit_start, snapshot, warm.clone()),
                    1,
                )
            });
            tr.span("ckpt.append", || (writer.append(&checkpoint), 1))
                .map_err(err)?;
            let outcome = traced_replay(tr, &self.sim, &program, &params, &checkpoint);
            outcomes.push((outcomes.len(), outcome));
            unit_index += params.interval;
        }
        if outcomes.is_empty() {
            return Err(err(SmartsError::EmptySample));
        }
        let write = tr
            .span("ckpt.append", || (writer.finish(), 0))
            .map_err(err)?;
        self.records = write.records;
        let report = traced_merge(tr, &params, outcomes)?;
        let mut it = Iteration::default();
        it.push_systematic("8way", &report);
        Ok(it)
    }

    fn cross_check(&mut self, _it: &Iteration) -> Result<(), String> {
        self.check_store()
    }

    fn probe(&self, tr: &mut Tracer) {
        probe_rates(tr, &self.bench.load(), false);
    }

    fn extras(&self, m: &mut Metrics) {
        m.set(
            "ckpt.store_mib",
            self.store_bytes as f64 / (1u64 << 20) as f64,
        );
        m.set(
            "ckpt.bytes_per_unit",
            ratio(self.store_bytes as f64, self.records as f64),
        );
    }

    fn unit_plus_warming(&self) -> u64 {
        self.params.detailed_per_unit()
    }
}

// ---------------------------------------------------------------- replay-sweep

const SWEEP_CONFIGS: [&str; 3] = ["8way", "4wide", "2wide"];

/// `replay-sweep`: one chase store, warmed in setup, replayed under three
/// cores sharing the 8-way warm geometry plus one stratified pass — the
/// store's read side and the paper's design-study use.
pub struct ReplaySweep {
    sims: Vec<SmartsSim>,
    spec: SamplerSpec,
    exec: Executor,
    path: PathBuf,
    bench: Benchmark,
    params: SamplingParams,
    /// The report `sample_pipeline_saving` printed while warming the
    /// store: the 8-way replay must reproduce it.
    saved_line: String,
    store_bytes: u64,
    records: u64,
    selected: u64,
}

/// Decodes one record through `cursor` inside a `ckpt.decode` span whose
/// count is the number of delta records the cursor had to apply.
fn traced_decode(
    tr: &mut Tracer,
    cursor: &mut smarts_ckpt::StoreCursor<'_>,
    index: usize,
    cfg: &MachineConfig,
) -> Result<UnitCheckpoint, String> {
    let id = tr.begin("ckpt.decode");
    let before = cursor.position();
    let checkpoint = cursor
        .flat_at(index)
        .map_err(err)
        .and_then(|flat| flat.rebuild(cfg).map_err(err));
    let decoded = if index + 1 >= before {
        index + 1 - before
    } else {
        index + 1
    };
    tr.end(id, decoded as u64);
    checkpoint
}

impl ReplaySweep {
    fn traced_open(
        &self,
        tr: &mut Tracer,
        cfg: &MachineConfig,
    ) -> Result<(MappedStore, Program), String> {
        let store = tr
            .span("ckpt.open", || (MappedStore::open(&self.path, cfg), 0))
            .map_err(err)?;
        if let Some(damage) = store.damage() {
            return Err(format!("store damaged: {damage}"));
        }
        let meta = store.meta().clone();
        // The replay entry points rebuild the program from the suite by
        // the store's recorded name and scale.
        let loaded = tr.span("workloads.load", || {
            (
                find(&meta.benchmark).map(|b| b.scaled(meta.scale).load()),
                0,
            )
        });
        let program = loaded
            .ok_or_else(|| format!("unknown benchmark {}", meta.benchmark))?
            .program;
        Ok((store, program))
    }

    /// `replay_store` at one worker, record by record.
    fn traced_full(&self, tr: &mut Tracer, sim: &SmartsSim) -> Result<SampleReport, String> {
        let (store, program) = self.traced_open(tr, sim.config())?;
        let params = store.meta().params;
        let mut cursor = store.cursor();
        let mut outcomes = Vec::with_capacity(store.len());
        for index in 0..store.len() {
            let checkpoint = traced_decode(tr, &mut cursor, index, sim.config())?;
            outcomes.push((
                index,
                traced_replay(tr, sim, &program, &params, &checkpoint),
            ));
        }
        traced_merge(tr, &params, outcomes)
    }

    /// `replay_store_sampled` at one worker, phase by phase.
    fn traced_sampled(&mut self, tr: &mut Tracer) -> Result<SampledReplay, String> {
        let sim = &self.sims[0];
        let (store, program) = self.traced_open(tr, sim.config())?;
        let meta = store.meta().clone();
        let params = meta.params;
        let pool = store.len() as u64;
        let mut sampler = tr
            .span("stats.select", || (self.spec.build(pool), 0))
            .map_err(err)?;
        let mut all = Vec::new();
        loop {
            let phase = tr
                .span("stats.select", || (sampler.next_phase(), 0))
                .map_err(err)?;
            let SamplerPhase::Measure(units) = phase else {
                break;
            };
            let mut picks: Vec<usize> = units.iter().map(|&u| u as usize).collect();
            picks.sort_unstable();
            // Each phase decodes through a fresh cursor, as the entry
            // point's per-phase workers do.
            let mut cursor = store.cursor();
            let mut phase_outcomes = Vec::with_capacity(picks.len());
            for index in picks {
                let checkpoint = traced_decode(tr, &mut cursor, index, sim.config())?;
                phase_outcomes.push((
                    index,
                    traced_replay(tr, sim, &program, &params, &checkpoint),
                ));
            }
            tr.span("stats.select", || {
                for (index, outcome) in &phase_outcomes {
                    if let UnitReplay::Complete { sample, .. } = outcome {
                        sampler.observe(*index as u64, sample.cpi);
                    }
                }
                ((), 0)
            });
            all.extend(phase_outcomes);
        }
        let estimate = tr
            .span("stats.select", || (sampler.estimate(), 0))
            .map_err(err)?;
        let mut measured: Vec<u64> = all.iter().map(|(i, _)| *i as u64).collect();
        measured.sort_unstable();
        self.selected = measured.len() as u64;
        let report = traced_merge(tr, &params, all)?;
        Ok(SampledReplay {
            report: ParallelReport {
                report,
                mode: ParallelMode::Checkpoint,
                jobs: 1,
                workers: Vec::new(),
                build_wall: Duration::ZERO,
                parallel_wall: Duration::ZERO,
                pipeline: Some(PipelineStats {
                    depth: 0,
                    producer_wall: Duration::ZERO,
                    emitted: measured.len() as u64,
                    peak_resident_checkpoints: 0,
                    peak_resident_bytes: 0,
                }),
                shard: None,
            },
            meta,
            spec: self.spec,
            estimate,
            measured,
        })
    }
}

impl Batch for ReplaySweep {
    const NAME: &'static str = "replay-sweep";

    fn setup(ctx: &Ctx, attempt: usize, tr: &mut Tracer) -> Result<Self, String> {
        let bench = chase(ctx.seed);
        let sims = vec![
            SmartsSim::new(MachineConfig::eight_way()),
            SmartsSim::new(narrowed("4-wide", 4, 64, 32)),
            SmartsSim::new(narrowed("2-wide", 2, 32, 16)),
        ];
        let params = SamplingParams::paper_defaults(sims[0].config(), bench.approx_len(), CHASE_N)
            .map_err(err)?;
        let exec = Executor::new(1)
            .map_err(err)?
            .with_mode(ParallelMode::Pipeline);
        let path = ctx.work.join(format!("replay-sweep-{attempt}.ck"));
        let saved = tr
            .span("setup.warm_store", || {
                let saved = sample_pipeline_saving(&exec, &sims[0], &bench, 1.0, &params, &path);
                (saved, 0)
            })
            .map_err(err)?;
        Ok(ReplaySweep {
            sims,
            spec: sweep_sampler(ctx.seed),
            exec,
            path,
            bench,
            params,
            saved_line: canonical_report_line(&saved.report.report),
            store_bytes: saved.write.bytes,
            records: saved.write.records,
            selected: 0,
        })
    }

    fn untraced(&mut self) -> Result<Iteration, String> {
        let mut it = Iteration::default();
        for (config, sim) in SWEEP_CONFIGS.into_iter().zip(&self.sims) {
            let replayed = replay_store(&self.exec, sim, &self.path).map_err(err)?;
            if let Some(damage) = replayed.damage {
                return Err(format!("store damaged: {damage}"));
            }
            it.push_systematic(config, &replayed.report.report);
        }
        let store = MappedStore::open(&self.path, self.sims[0].config()).map_err(err)?;
        let sampled =
            replay_store_sampled(&self.exec, &self.sims[0], &store, &self.spec).map_err(err)?;
        self.selected = sampled.measured.len() as u64;
        it.push_sampled("stratified", &sampled);
        Ok(it)
    }

    fn traced(&mut self, tr: &mut Tracer) -> Result<Iteration, String> {
        let mut it = Iteration::default();
        for (config, sim) in SWEEP_CONFIGS.into_iter().zip(&self.sims) {
            let report = self.traced_full(tr, sim)?;
            it.push_systematic(config, &report);
        }
        let sampled = self.traced_sampled(tr)?;
        it.push_sampled("stratified", &sampled);
        Ok(it)
    }

    fn cross_check(&mut self, it: &Iteration) -> Result<(), String> {
        let eight = &it.lines[0].1;
        same("8-way replay vs warm-save report", eight, &self.saved_line)
    }

    fn probe(&self, tr: &mut Tracer) {
        probe_rates(tr, &self.bench.load(), true);
    }

    fn extras(&self, m: &mut Metrics) {
        m.set(
            "ckpt.store_mib",
            self.store_bytes as f64 / (1u64 << 20) as f64,
        );
        m.set(
            "ckpt.bytes_per_unit",
            ratio(self.store_bytes as f64, self.records as f64),
        );
        m.set(
            "stats.units_selected_frac",
            ratio(self.selected as f64, self.records as f64),
        );
    }

    fn unit_plus_warming(&self) -> u64 {
        self.params.detailed_per_unit()
    }
}

// ---------------------------------------------------------------- run loop

/// Runs a batch workload by name.
pub fn run(ctx: &Ctx, workload: &str) -> Result<Outcome, String> {
    match workload {
        ColdSample::NAME => drive::<ColdSample>(ctx),
        WarmSave::NAME => drive::<WarmSave>(ctx),
        ReplaySweep::NAME => drive::<ReplaySweep>(ctx),
        other => Err(format!("unknown batch workload {other}")),
    }
}

/// Prints the digest table rows of every batch workload for `seed`.
pub fn record_digests(ctx: &Ctx) -> Result<Vec<String>, String> {
    fn rows<B: Batch>(ctx: &Ctx) -> Result<Vec<String>, String> {
        let mut tr = Tracer::new(Instant::now());
        let mut w = B::setup(ctx, 0, &mut tr)?;
        w.prepare();
        let it = w.untraced()?;
        w.cross_check(&it)?;
        Ok(it
            .lines
            .iter()
            .map(|(config, line)| crate::check::table_row(B::NAME, ctx.seed, config, line))
            .collect())
    }
    let mut out = rows::<ColdSample>(ctx)?;
    out.extend(rows::<WarmSave>(ctx)?);
    out.extend(rows::<ReplaySweep>(ctx)?);
    Ok(out)
}

/// Checks one iteration: digests, cross-path identities, and — for a
/// traced iteration — byte identity with the untraced run's lines.
fn verify<B: Batch>(
    w: &mut B,
    reference: &mut Reference,
    it: &Iteration,
    untraced: Option<&Iteration>,
) -> Result<(), String> {
    for (config, line) in &it.lines {
        reference.check(config, line)?;
    }
    if let Some(base) = untraced {
        for ((config, a), (_, b)) in it.lines.iter().zip(&base.lines) {
            same(&format!("{config}: traced vs untraced"), a, b)?;
        }
    }
    w.cross_check(it)
}

fn drive<B: Batch>(ctx: &Ctx) -> Result<Outcome, String> {
    let mut tr = Tracer::new(ctx.epoch);
    let (mut w, setups) = crate::repeat_setup(
        |attempt| {
            let root = tr.begin("setup");
            let w = B::setup(ctx, attempt, &mut tr);
            tr.end(root, 0);
            w
        },
        |_| Ok(()),
    )?;
    let mut reference = Reference::load(B::NAME, ctx.seed);
    let mut gate = Gate::default();
    let budget = if ctx.trace {
        ctx.seconds / 2.0
    } else {
        ctx.seconds
    };

    // Untraced iterations: the end-to-end numbers.
    let mut walls = Vec::new();
    let mut first: Option<Iteration> = None;
    // Peak RSS as one invocation sees it: set-up plus one iteration. Later
    // iterations can only add allocator arenas a one-shot run never has.
    let mut peak_rss = None;
    let phase = Instant::now();
    while (walls.is_empty() && gate.attempted < 3) || phase.elapsed().as_secs_f64() < budget {
        w.prepare();
        let start = Instant::now();
        let result = w.untraced();
        let wall = start.elapsed().as_secs_f64();
        match result.and_then(|it| verify(&mut w, &mut reference, &it, None).map(|()| it)) {
            Ok(it) => {
                walls.push(wall);
                first.get_or_insert(it);
                if peak_rss.is_none() {
                    peak_rss = Some(crate::host::peak_rss_mib()?);
                }
                gate.record(Ok(()));
            }
            Err(e) => gate.record(Err(e)),
        }
    }

    // Traced iterations: the per-layer numbers.
    let mut traced_walls = Vec::new();
    if ctx.trace {
        let phase = Instant::now();
        let mut request = 0;
        while (traced_walls.is_empty() && request < 3) || phase.elapsed().as_secs_f64() < budget {
            request += 1;
            w.prepare();
            tr.set_request(request);
            let root = tr.begin("iter");
            let start = Instant::now();
            let result = w.traced(&mut tr);
            let wall = start.elapsed().as_secs_f64();
            tr.end(root, 0);
            let checked = result.and_then(|it| verify(&mut w, &mut reference, &it, first.as_ref()));
            if checked.is_ok() {
                traced_walls.push(wall);
            }
            gate.record(checked);
        }
        w.probe(&mut tr);
    }

    let mut m = Metrics::default();
    m.set("setup_s", median(&setups));
    m.set("wall_s", median(&walls));
    m.set("jobs_per_s", ratio(walls.len() as f64, walls.iter().sum()));
    m.set("job_p50_ms", 1e3 * median(&walls));
    m.set("job_p90_ms", 1e3 * percentile(&walls, 0.9));
    m.set("peak_rss_mib", peak_rss.unwrap_or(0.0));
    m.set(
        "ci_halfwidth_pct",
        median(first.as_ref().map_or(&[][..], |it| &it.ci_pct)),
    );
    m.set("bench.latency_samples", walls.len() as f64);
    if ctx.trace {
        layer_metrics(&tr, &walls, &traced_walls, w.unit_plus_warming(), &mut m);
        w.extras(&mut m);
    }
    let mut notes = vec![
        format!(
            "setup {:.3}s median of {:?}",
            median(&setups),
            setups.iter().map(|s| format!("{s:.3}")).collect::<Vec<_>>()
        ),
        format!(
            "untraced iterations {} (walls s: {:?}); traced {}",
            walls.len(),
            walls.iter().map(|s| format!("{s:.3}")).collect::<Vec<_>>(),
            traced_walls.len()
        ),
        format!(
            "digest reference: {} config(s) pinned by the recorded table, the rest by the first iteration",
            reference.pinned()
        ),
    ];
    notes.extend(gate.notes().iter().map(|n| format!("FAILED: {n}")));
    Ok(Outcome {
        gate,
        metrics: m,
        tracer: ctx.trace.then_some(tr),
        notes,
    })
}

/// Median over roots of one layer's self seconds.
fn median_layer(roots: &[RootSummary], name: &str) -> f64 {
    let per_root: Vec<f64> = roots
        .iter()
        .map(|r| r.layers.get(name).map_or(0.0, |l| l.self_s))
        .collect();
    median(&per_root)
}

/// Reduces the traced run's spans to the per-layer metrics.
fn layer_metrics(
    tr: &Tracer,
    walls: &[f64],
    traced_walls: &[f64],
    unit_plus_warming: u64,
    m: &mut Metrics,
) {
    let spans = tr.spans();
    let roots = summarize_roots(spans, "iter");
    let probes = summarize_roots(spans, "probe");
    let loads: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == "workloads.load")
        .map(|s| s.duration_ns() as f64 * 1e-9)
        .collect();
    m.set("workloads.load_s", median(&loads));

    for (layer, metric) in [
        ("core.ff_warm", "core.ff_warm_s"),
        ("core.capture", "core.capture_s"),
        ("ckpt.append", "ckpt.append_s"),
        ("ckpt.open", "ckpt.open_s"),
        ("ckpt.decode", "ckpt.decode_s"),
        ("core.restore", "core.restore_s"),
        ("stats.select", "stats.select_s"),
        ("uarch.detail_warm", "uarch.detail_warm_s"),
        ("uarch.measure", "uarch.measure_s"),
        ("core.merge", "core.merge_s"),
    ] {
        m.set(metric, median_layer(&roots, layer));
    }

    let ff = layer_sum(&probes, "probe.ff");
    let ff_mips = ratio(ff.count as f64, ff.self_s) / 1e6;
    m.set("core.ff_mips", ff_mips);
    let in_iters = layer_sum(&roots, "core.ff_warm");
    let warm = if in_iters.count > 0 {
        in_iters
    } else {
        layer_sum(&probes, "probe.ff_warm")
    };
    let warm_mips = ratio(warm.count as f64, warm.self_s) / 1e6;
    m.set("core.ff_warm_mips", warm_mips);

    let capture = layer_sum(&roots, "core.capture");
    m.set(
        "core.capture_us_per_unit",
        1e6 * ratio(capture.self_s, capture.count as f64),
    );
    let append = layer_sum(&roots, "ckpt.append");
    m.set(
        "ckpt.append_us_per_unit",
        1e6 * ratio(append.self_s, append.count as f64),
    );
    let decode = layer_sum(&roots, "ckpt.decode");
    m.set(
        "ckpt.decode_us_per_unit",
        1e6 * ratio(decode.self_s, decode.spans as f64),
    );
    m.set(
        "ckpt.records_decoded_per_replayed",
        ratio(decode.count as f64, decode.spans as f64),
    );
    let detail = layer_sum(&roots, "uarch.detail_warm");
    let measure = layer_sum(&roots, "uarch.measure");
    m.set(
        "uarch.detail_warm_kips",
        ratio(detail.count as f64, detail.self_s) / 1e3,
    );
    m.set(
        "uarch.measure_kips",
        ratio(measure.count as f64, measure.self_s) / 1e3,
    );

    let layered: Vec<f64> = roots.iter().map(|r| r.wall_s - r.unattributed_s).collect();
    m.set(
        "exec.wall_over_layers",
        ratio(median(walls), median(&layered)),
    );
    let unattributed: f64 = roots.iter().map(|r| r.unattributed_s).sum();
    let rooted: f64 = roots.iter().map(|r| r.wall_s).sum();
    m.set("trace.unattributed_frac", ratio(unattributed, rooted));
    m.set(
        "trace.overhead_frac",
        ratio(median(traced_walls), median(walls)) - 1.0,
    );

    // §3.4: predicted wall from this run's measured S_F, S_FW and S_D.
    let detailed_instr = (detail.count + measure.count) as f64;
    let detailed_mips = ratio(detailed_instr, detail.self_s + measure.self_s) / 1e6;
    let per_root = roots.len().max(1) as f64;
    let stream = (in_iters.count as f64 + detailed_instr) / per_root;
    let rates_ordered = ff_mips > 0.0
        && warm_mips > 0.0
        && detailed_mips > 0.0
        && warm_mips <= ff_mips
        && detailed_mips <= ff_mips;
    if rates_ordered && stream > 0.0 && unit_plus_warming > 0 {
        let model = SpeedupModel::from_measured_rates(ff_mips, warm_mips, detailed_mips);
        let units = detailed_instr / per_root / unit_plus_warming as f64;
        let rate = model.functional_warming_rate(units, unit_plus_warming as f64, 0.0, stream);
        let predicted = SpeedupModel::runtime_seconds(rate, stream, ff_mips);
        m.set(
            "model.predicted_over_measured",
            ratio(predicted, median(walls)),
        );
    }
}
