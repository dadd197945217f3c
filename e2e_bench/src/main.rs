//! End-to-end SMARTS benchmark.
//!
//! ```text
//! cargo run --release --manifest-path e2e_bench/Cargo.toml -- \
//!     --workload <cold-sample|warm-save|replay-sweep|served-mix> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. `--trace 0` measures the product entry
//! points and prints the end-to-end metrics; `--trace 1` re-drives the
//! same work layer by layer and prints the per-layer metrics, writing its
//! spans to `.bench_work/traces/`. The last line of standard output is
//! the JSON result. See `e2e_bench/README.md`.
//!
//! `--record-digests <first-seed> <last-seed>` prints the correctness
//! gate's digest table rows for a seed range instead (for
//! `e2e_bench/digests.tsv`).

mod batch;
mod check;
mod host;
mod metrics;
mod served;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use check::Gate;
use metrics::Metrics;
use trace::Tracer;

/// Set-up runs at least `SETUP_MIN` times, then again until
/// `SETUP_BUDGET_S` has passed (at most `SETUP_MAX` times); `setup_s` is
/// the median, so a cheap set-up is timed often enough to be steady.
const SETUP_MIN: usize = 3;
const SETUP_MAX: usize = 40;
const SETUP_BUDGET_S: f64 = 1.0;

/// The workloads, in `BENCHMARK.json` order.
const WORKLOADS: [&str; 4] = ["cold-sample", "warm-save", "replay-sweep", "served-mix"];

/// One run's settings.
pub struct Ctx {
    /// Input seed.
    pub seed: u64,
    /// Measured seconds (split evenly between untraced and traced
    /// iterations in a traced run).
    pub seconds: f64,
    /// Whether this is the traced run.
    pub trace: bool,
    /// Scratch directory for stores, removed when the run ends.
    pub work: PathBuf,
    /// Common epoch of every span.
    pub epoch: Instant,
}

/// What every workload's run hands back.
pub struct Outcome {
    /// Attempted and failed operations.
    pub gate: Gate,
    /// Every metric measured.
    pub metrics: Metrics,
    /// The spans of a traced run.
    pub tracer: Option<Tracer>,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
}

/// Repeats `setup` as the `SETUP_*` constants say, handing each
/// superseded state to `retire`. Returns the last state and every
/// set-up's duration in seconds.
pub fn repeat_setup<T>(
    mut setup: impl FnMut(usize) -> Result<T, String>,
    mut retire: impl FnMut(T) -> Result<(), String>,
) -> Result<(T, Vec<f64>), String> {
    let started = Instant::now();
    let mut times = Vec::new();
    let mut last = None;
    while times.len() < SETUP_MIN
        || (times.len() < SETUP_MAX && started.elapsed().as_secs_f64() < SETUP_BUDGET_S)
    {
        let start = Instant::now();
        let state = setup(times.len())?;
        times.push(start.elapsed().as_secs_f64());
        if let Some(old) = last.replace(state) {
            retire(old)?;
        }
    }
    Ok((last.expect("set up at least once"), times))
}

enum Command {
    Run {
        workload: String,
        seed: u64,
        seconds: f64,
        trace: bool,
    },
    Record {
        first: u64,
        last: u64,
    },
}

fn parse_args(args: &[String]) -> Result<Command, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        let number = |v: &String| {
            v.parse::<u64>()
                .map_err(|_| format!("{flag}: `{v}` is not a whole number"))
        };
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                if !WORKLOADS.contains(&v.as_str()) {
                    return Err(format!("unknown workload `{v}` (one of {WORKLOADS:?})"));
                }
                workload = Some(v.clone());
            }
            "--seed" => seed = Some(number(value()?)?),
            "--seconds" => {
                let s = number(value()?)?;
                if s == 0 {
                    return Err("--seconds must be at least 1".to_string());
                }
                seconds = Some(s as f64);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not `{v}`")),
                })
            }
            "--record-digests" => {
                let first = number(value()?)?;
                let last = number(value()?)?;
                return Ok(Command::Record { first, last });
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(Command::Run {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// The benchmark's scratch root, inside the checkout it runs from.
fn work_root() -> PathBuf {
    PathBuf::from(".bench_work")
}

fn run(workload: &str, ctx: &Ctx) -> Result<Outcome, String> {
    match workload {
        "served-mix" => served::run(ctx),
        batch_workload => batch::run(ctx, batch_workload),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let command = match parse_args(&args) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let work = work_root().join(format!("run-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("error: cannot create {}: {e}", work.display());
        return ExitCode::from(1);
    }
    let result = match command {
        Command::Record { first, last } => (first..=last).try_for_each(|seed| {
            let ctx = Ctx {
                seed,
                seconds: 0.0,
                trace: false,
                work: work.clone(),
                epoch: Instant::now(),
            };
            let mut rows = batch::record_digests(&ctx)?;
            rows.extend(served::record_digests(&ctx)?);
            rows.iter().for_each(|r| println!("{r}"));
            Ok(())
        }),
        Command::Run {
            workload,
            seed,
            seconds,
            trace,
        } => {
            let ctx = Ctx {
                seed,
                seconds,
                trace,
                work: work.clone(),
                epoch: Instant::now(),
            };
            run(&workload, &ctx).and_then(|outcome| report(&workload, &ctx, outcome))
        }
    };
    let _ = std::fs::remove_dir_all(&work);
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(1)
        }
    }
}

/// Prints the run's notes and result line; a traced run also writes its
/// spans.
fn report(workload: &str, ctx: &Ctx, mut outcome: Outcome) -> Result<(), String> {
    let host = host::measure();
    outcome.metrics.set("host.nproc", host.nproc as f64);
    outcome
        .metrics
        .set("host.two_thread_ratio", host.two_thread_ratio);
    println!(
        "workload {workload} seed {} seconds {} trace {}",
        ctx.seed, ctx.seconds, ctx.trace as u8
    );
    println!(
        "host: nproc {} two-thread throughput ratio {:.2} (2.00 = two cores, 1.00 = one)",
        host.nproc, host.two_thread_ratio
    );
    for note in &outcome.notes {
        println!("{note}");
    }
    if let Some(tracer) = &outcome.tracer {
        let dir = work_root().join("traces");
        let path = dir.join(format!("{workload}-seed{}.jsonl", ctx.seed));
        std::fs::create_dir_all(&dir)
            .and_then(|()| {
                let mut out = std::io::BufWriter::new(std::fs::File::create(&path)?);
                tracer.write_jsonl(&mut out)?;
                std::io::Write::flush(&mut out)
            })
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        println!(
            "spans: {} written to {}",
            tracer.spans().len(),
            path.display()
        );
    }
    let gate = &outcome.gate;
    let correct = gate.failed == 0 && gate.attempted > 0;
    println!(
        "{}",
        metrics::result_line(
            correct,
            gate.attempted.max(1),
            gate.failed,
            &outcome.metrics.to_json(ctx.trace)
        )
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let Ok(Command::Run {
            workload,
            seed,
            seconds,
            trace,
        }) = parse_args(&args(
            "--workload warm-save --seed 7 --seconds 10 --trace 1",
        ))
        else {
            panic!("did not parse");
        };
        assert_eq!(
            (workload.as_str(), seed, seconds, trace),
            ("warm-save", 7, 10.0, true)
        );
    }

    #[test]
    fn refuses_bad_arguments() {
        for bad in [
            "--workload nope --seed 1 --seconds 1 --trace 0",
            "--workload warm-save --seed x --seconds 1 --trace 0",
            "--workload warm-save --seed 1 --seconds 0 --trace 0",
            "--workload warm-save --seed 1 --seconds 1 --trace 2",
            "--workload warm-save --seed 1 --seconds 1",
            "--bogus",
        ] {
            assert!(parse_args(&args(bad)).is_err(), "{bad}");
        }
    }
}
