//! Host facts recorded with every run as diagnostics, so that a slow run
//! can be explained: CPU count, kernel ISA and path, calibrated cut-off,
//! cache sizes, steal time and peak resident set.

use std::fs;

use ata::kernels::calibrate::tuned_for;
use ata::kernels::micro::micro_path_for;
use ata::kernels::simd;

use crate::report::Json;

/// Aggregate CPU time counters from the first line of `/proc/stat`.
#[derive(Debug, Clone, Copy)]
pub struct CpuTimes {
    total: u64,
    steal: u64,
}

pub fn cpu_times() -> Option<CpuTimes> {
    let stat = fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal ...
    Some(CpuTimes {
        total: fields.iter().take(8).sum(),
        steal: *fields.get(7)?,
    })
}

/// Share of all CPU time between two readings that the hypervisor stole.
pub fn steal_frac(from: Option<CpuTimes>, to: Option<CpuTimes>) -> f64 {
    match (from, to) {
        (Some(a), Some(b)) if b.total > a.total => {
            (b.steal - a.steal) as f64 / (b.total - a.total) as f64
        }
        _ => f64::NAN,
    }
}

/// Peak resident set of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Size in bytes of the level-`level` unified or data cache of CPU 0.
fn cache_bytes(level: u32) -> Option<u64> {
    for index in 0..8 {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{index}");
        let read = |f: &str| fs::read_to_string(format!("{dir}/{f}")).ok();
        let Some(lvl) = read("level") else { break };
        if lvl.trim().parse() != Ok(level) || read("type")?.trim() == "Instruction" {
            continue;
        }
        let size = read("size")?;
        let size = size.trim();
        let (num, mult) = match size.strip_suffix('K') {
            Some(k) => (k, 1 << 10),
            None => match size.strip_suffix('M') {
                Some(m) => (m, 1 << 20),
                None => (size, 1),
            },
        };
        return num.parse::<u64>().ok().map(|n| n * mult);
    }
    None
}

/// Facts that hold for the whole process.
pub fn facts() -> Json {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let mib = |b: Option<u64>| b.map_or(Json::Num(f64::NAN), |b| Json::Num(b as f64 / 1048576.0));
    Json::obj([
        ("nproc", Json::Num(nproc as f64)),
        ("isa", Json::str(simd::detected().name())),
        ("micro_path_f64", Json::str(micro_path_for::<f64>().name())),
        (
            "base_words_f64",
            Json::Num(tuned_for::<f64>().base_words as f64),
        ),
        ("l2_mib", mib(cache_bytes(2))),
        ("l3_mib", mib(cache_bytes(3))),
    ])
}
