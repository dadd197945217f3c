//! Host facts recorded with every run, so that numbers from parallel
//! paths are read against what the host can actually run in parallel.

use std::time::Instant;

use smarts_core::FunctionalEngine;
use smarts_workloads::{find, LoadedBenchmark};

use crate::trace::median;

/// What the host offers to two threads.
#[derive(Debug, Clone, Copy)]
pub struct HostFacts {
    /// `std::thread::available_parallelism`.
    pub nproc: usize,
    /// Throughput of two concurrent copies of a CPU-bound functional
    /// simulation relative to one copy alone: 2.0 means two full cores,
    /// 1.0 means the two threads share one.
    pub two_thread_ratio: f64,
}

fn fast_forward_once(loaded: &LoadedBenchmark) -> f64 {
    let start = Instant::now();
    let mut engine = FunctionalEngine::new(loaded.clone());
    std::hint::black_box(engine.fast_forward(u64::MAX - 1));
    start.elapsed().as_secs_f64()
}

/// Measures [`HostFacts`]: three solo runs against three concurrent pairs.
pub fn measure() -> HostFacts {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let loaded = find("loopy-1")
        .expect("loopy-1 is in the suite")
        .scaled(2.0)
        .load();
    let solo: Vec<f64> = (0..3).map(|_| fast_forward_once(&loaded)).collect();
    let pair: Vec<f64> = (0..3)
        .map(|_| {
            let start = Instant::now();
            std::thread::scope(|s| {
                let a = s.spawn(|| fast_forward_once(&loaded));
                let b = s.spawn(|| fast_forward_once(&loaded));
                a.join().expect("probe thread panicked");
                b.join().expect("probe thread panicked");
            });
            start.elapsed().as_secs_f64()
        })
        .collect();
    HostFacts {
        nproc,
        two_thread_ratio: 2.0 * median(&solo) / median(&pair),
    }
}

/// Peak resident set of this process, MiB (`VmHWM`).
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read process status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| "process status has no VmHWM line".to_string())
}
