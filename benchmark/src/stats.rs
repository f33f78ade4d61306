//! Order statistics and the host readings every result carries.

use std::fs;

/// Nearest-rank `q`-quantile of an ascending slice: the smallest sample
/// of rank `⌈q·n⌉`, so every value returned was observed. 0.0 when empty.
pub fn nearest_rank(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let n = sorted.len();
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    sorted[rank - 1]
}

/// Median and quartiles (nearest-rank) of a sample set.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub p99: f64,
}

/// Summarises `values` (any order).
pub fn summarize(values: &[f64]) -> Summary {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    Summary {
        n: sorted.len(),
        q1: nearest_rank(&sorted, 0.25),
        median: nearest_rank(&sorted, 0.5),
        q3: nearest_rank(&sorted, 0.75),
        p99: nearest_rank(&sorted, 0.99),
    }
}

/// Aggregate CPU time counters from the first (`cpu `) line of
/// `/proc/stat`, in clock ticks.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CpuTimes {
    pub total: u64,
    /// User, nice, system, irq and softirq time: the CPUs running.
    pub busy: u64,
    pub steal: u64,
}

/// Parses the aggregate `cpu` line of a `/proc/stat` text: the fields are
/// user, nice, system, idle, iowait, irq, softirq, steal, guest,
/// guest_nice. Guest time is already counted in user/nice, so it is left
/// out of the total.
pub fn parse_proc_stat(text: &str) -> Option<CpuTimes> {
    let line = text.lines().find(|l| l.starts_with("cpu "))?;
    let fields: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .map(str::parse)
        .collect::<Result<_, _>>()
        .ok()?;
    if fields.len() < 8 {
        return None;
    }
    Some(CpuTimes {
        total: fields.iter().take(8).sum(),
        busy: fields[0] + fields[1] + fields[2] + fields[5] + fields[6],
        steal: fields[7],
    })
}

/// The host's CPU counters now (zeros where `/proc/stat` is unreadable).
pub fn read_proc_stat() -> CpuTimes {
    fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|t| parse_proc_stat(&t))
        .unwrap_or_default()
}

/// Share of all CPU time between two readings that the hypervisor stole.
pub fn steal_frac(before: CpuTimes, after: CpuTimes) -> f64 {
    let total = after.total.saturating_sub(before.total);
    if total == 0 {
        return 0.0;
    }
    after.steal.saturating_sub(before.steal) as f64 / total as f64
}

/// Share of the time the CPUs wanted to run between two readings that the
/// hypervisor stole: steal over busy + steal. An idle CPU is never
/// stolen from, so this is the slowdown work on the CPUs saw, even on a
/// mostly idle host where the share of all time stolen is small.
pub fn steal_of_demand(before: CpuTimes, after: CpuTimes) -> f64 {
    let steal = after.steal.saturating_sub(before.steal);
    let demand = after.busy.saturating_sub(before.busy) + steal;
    if demand == 0 {
        return 0.0;
    }
    steal as f64 / demand as f64
}

/// Linux's user-visible clock tick (`sysconf(_SC_CLK_TCK)` is 100 on
/// every mainstream architecture).
const CLK_TCK: f64 = 100.0;

/// User + system CPU seconds this process has used, all threads included.
pub fn process_cpu_s() -> f64 {
    let Ok(text) = fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // Fields after the parenthesised command name start at field 3
    // (state); utime and stime are fields 14 and 15.
    let Some((_, rest)) = text.rsplit_once(')') else {
        return 0.0;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| fields.get(i).and_then(|v| v.parse::<u64>().ok());
    match (ticks(11), ticks(12)) {
        (Some(u), Some(s)) => (u + s) as f64 / CLK_TCK,
        _ => 0.0,
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let text = fs::read_to_string("/proc/self/status").unwrap_or_default();
    text.lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The CPU model string from `/proc/cpuinfo`.
pub fn cpu_model() -> String {
    fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|t| {
            t.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, m)| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_summary_on_fixed_samples() {
        // 1..=10 in scrambled order: quartiles at ranks 3, 5, 8.
        let s = summarize(&[7.0, 2.0, 10.0, 1.0, 5.0, 3.0, 9.0, 4.0, 8.0, 6.0]);
        assert_eq!(s.n, 10);
        assert_eq!((s.q1, s.median, s.q3, s.p99), (3.0, 5.0, 8.0, 10.0));
        // Every returned value is an observed sample, never interpolated.
        let s = summarize(&[1.0, 4.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.0, 1.0, 4.0));
        assert_eq!(summarize(&[]).median, 0.0);
        let sorted: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(nearest_rank(&sorted, 0.99), 99.0);
        assert_eq!(nearest_rank(&sorted, 1.0), 100.0);
        assert_eq!(nearest_rank(&sorted, 0.0), 1.0);
    }

    #[test]
    fn proc_stat_steal_parser_on_a_fixed_sample() {
        let before = "cpu  100 5 50 800 10 0 5 30 7 0\n\
                      cpu0 50 2 25 400 5 0 2 15 3 0\nintr 12345\n";
        let after = "cpu  160 5 70 900 10 0 5 80 9 0\n\
                     cpu0 80 2 35 450 5 0 2 40 4 0\n";
        let a = parse_proc_stat(before).expect("parse");
        let b = parse_proc_stat(after).expect("parse");
        assert_eq!(
            a,
            CpuTimes {
                total: 1000,
                busy: 160,
                steal: 30
            }
        );
        assert_eq!(
            b,
            CpuTimes {
                total: 1230,
                busy: 240,
                steal: 80
            }
        );
        // 50 stolen ticks out of 230 elapsed, and out of the 80 + 50 the
        // CPUs wanted to run.
        assert!((steal_frac(a, b) - 50.0 / 230.0).abs() < 1e-15);
        assert!((steal_of_demand(a, b) - 50.0 / 130.0).abs() < 1e-15);
        assert_eq!(steal_frac(b, b), 0.0);
        assert_eq!(steal_of_demand(b, b), 0.0);
        assert!(parse_proc_stat("cpu0 1 2 3\n").is_none());
        assert!(parse_proc_stat("cpu  1 2 x 4 5 6 7 8\n").is_none());
    }
}
