//! Host accounting: CPU time from `/proc/<self|thread-self>/stat`, peak
//! memory, the environment header, and the sample statistics (median,
//! quartiles, geometric mean) every reported figure goes through.

use std::time::Instant;

/// User and system CPU time, in nanoseconds.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CpuTimes {
    pub user_ns: u64,
    pub sys_ns: u64,
}

impl std::ops::Add for CpuTimes {
    type Output = CpuTimes;

    fn add(self, other: CpuTimes) -> CpuTimes {
        CpuTimes {
            user_ns: self.user_ns + other.user_ns,
            sys_ns: self.sys_ns + other.sys_ns,
        }
    }
}

impl CpuTimes {
    pub fn total_ns(self) -> u64 {
        self.user_ns + self.sys_ns
    }

    /// `self − earlier`, saturating at zero per field.
    pub fn since(self, earlier: CpuTimes) -> CpuTimes {
        CpuTimes {
            user_ns: self.user_ns.saturating_sub(earlier.user_ns),
            sys_ns: self.sys_ns.saturating_sub(earlier.sys_ns),
        }
    }
}

/// Parses `utime` and `stime` (fields 14 and 15, in clock ticks) out of
/// a `/proc/*/stat` line and converts them to nanoseconds.
///
/// Field 2 is the command name in parentheses and may itself contain
/// spaces and `)`, so fields are counted from the **last** `)`.
pub fn parse_stat(text: &str, ticks_per_s: u64) -> Option<CpuTimes> {
    let after_comm = &text[text.rfind(')')? + 1..];
    // Fields after the command name start at field 3 (`state`).
    let mut fields = after_comm.split_whitespace().skip(14 - 3);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    let ns_per_tick = 1_000_000_000 / ticks_per_s.max(1);
    Some(CpuTimes {
        user_ns: utime * ns_per_tick,
        sys_ns: stime * ns_per_tick,
    })
}

/// The kernel's clock-tick rate (`AT_CLKTCK` from the auxiliary vector),
/// or the Linux default of 100 when it cannot be read.
pub fn ticks_per_s() -> u64 {
    const AT_CLKTCK: u64 = 17;
    std::fs::read("/proc/self/auxv")
        .ok()
        .and_then(|bytes| auxv_value(&bytes, AT_CLKTCK))
        .filter(|&t| t > 0)
        .unwrap_or(100)
}

/// Looks up `key` in a native-endian 64-bit auxiliary vector.
fn auxv_value(bytes: &[u8], key: u64) -> Option<u64> {
    let word = |c: &[u8]| u64::from_ne_bytes(c.try_into().expect("8-byte chunk"));
    bytes
        .chunks_exact(16)
        .map(|pair| (word(&pair[..8]), word(&pair[8..])))
        .take_while(|&(k, _)| k != 0)
        .find(|&(k, _)| k == key)
        .map(|(_, v)| v)
}

fn read_stat(path: &str) -> CpuTimes {
    std::fs::read_to_string(path)
        .ok()
        .and_then(|text| parse_stat(&text, ticks_per_s()))
        .unwrap_or_default()
}

/// CPU time of the whole process (all threads, live and joined).
pub fn process_cpu() -> CpuTimes {
    read_stat("/proc/self/stat")
}

/// CPU time of the calling thread only.
pub fn thread_cpu() -> CpuTimes {
    read_stat("/proc/thread-self/stat")
}

/// Peak resident set size (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    red_telemetry::peak_rss_kb().map_or(0.0, |kb| kb as f64 / 1024.0)
}

/// Wall time since `t`, in nanoseconds.
pub fn elapsed_ns(t: Instant) -> f64 {
    t.elapsed().as_nanos() as f64
}

/// Median of `v` (mean of the middle pair for even lengths); 0 when empty.
pub fn median(v: &[f64]) -> f64 {
    quartiles(v).1
}

/// First quartile, median and third quartile by the "exclusive" method
/// (Python's `statistics.quantiles(v, n=4)`), with the median taken
/// directly. A single sample is its own quartiles; empty input is zeros.
pub fn quartiles(v: &[f64]) -> (f64, f64, f64) {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    match n {
        0 => return (0.0, 0.0, 0.0),
        1 => return (s[0], s[0], s[0]),
        _ => {}
    }
    let mid = if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    };
    let q = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    (q(1), mid, q(3))
}

/// Geometric mean of strictly positive values; `None` when empty or when
/// any value is not positive.
pub fn geomean(v: &[f64]) -> Option<f64> {
    if v.is_empty() || v.iter().any(|&x| x <= 0.0 || !x.is_finite()) {
        return None;
    }
    Some((v.iter().map(|x| x.ln()).sum::<f64>() / v.len() as f64).exp())
}

/// The environment header printed before every result: the figures a
/// host number cannot be read without.
pub fn env_header() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    format!(
        "{{\"nproc\":{nproc},\"cpu\":\"{}\",\"rustc\":\"{}\",\"commit\":\"{}\",\"profile\":\"{}\"}}",
        red_bench::json_escape(&cpu),
        red_bench::json_escape(env!("HOSTBENCH_RUSTC")),
        red_bench::json_escape(&git_commit()),
        red_bench::json_escape(env!("HOSTBENCH_PROFILE")),
    )
}

/// The checked-out commit, read from `.git` in the working directory
/// (loose or packed ref), or `"unknown"` outside a git checkout.
fn git_commit() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok();
    let Some(head) = read(".git/HEAD") else {
        return "unknown".to_string();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    read(&format!(".git/{reference}"))
        .map(|s| s.trim().to_string())
        .or_else(|| {
            read(".git/packed-refs")?
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next())
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stat_line(comm: &str, utime: u64, stime: u64) -> String {
        // pid (comm) state ppid pgrp session tty tpgid flags minflt
        // cminflt majflt cmajflt utime stime cutime cstime ...
        format!("4242 ({comm}) R 1 4242 4242 0 -1 4194304 120 0 0 0 {utime} {stime} 7 9 20 0 1 0")
    }

    #[test]
    fn stat_fields_convert_ticks_to_ns() {
        let t = parse_stat(&stat_line("hostbench", 250, 40), 100).unwrap();
        assert_eq!(t.user_ns, 2_500_000_000);
        assert_eq!(t.sys_ns, 400_000_000);
        assert_eq!(t.total_ns(), 2_900_000_000);
    }

    #[test]
    fn stat_comm_with_spaces_and_parens_is_skipped() {
        for comm in ["a b c", "x) 9 9 (y", "))", "(", "tab\there"] {
            let t = parse_stat(&stat_line(comm, 3, 5), 100).unwrap();
            assert_eq!((t.user_ns, t.sys_ns), (30_000_000, 50_000_000), "{comm:?}");
        }
    }

    #[test]
    fn stat_garbage_is_none() {
        assert_eq!(parse_stat("", 100), None);
        assert_eq!(parse_stat("1 (x) R 1 2", 100), None);
        assert_eq!(parse_stat("no parens at all 1 2 3", 100), None);
    }

    #[test]
    fn live_stat_files_parse() {
        let before = process_cpu();
        let mut x = 0u64;
        for i in 0..2_000_000u64 {
            x = x.wrapping_mul(31).wrapping_add(i);
        }
        std::hint::black_box(x);
        assert!(process_cpu().total_ns() >= before.total_ns());
        assert!(thread_cpu().total_ns() <= process_cpu().total_ns());
        assert!(ticks_per_s() > 0);
    }

    #[test]
    fn since_saturates() {
        let a = CpuTimes {
            user_ns: 5,
            sys_ns: 1,
        };
        let b = CpuTimes {
            user_ns: 3,
            sys_ns: 4,
        };
        assert_eq!(
            a.since(b),
            CpuTimes {
                user_ns: 2,
                sys_ns: 0
            }
        );
    }

    #[test]
    fn auxv_lookup_stops_at_terminator() {
        let mut bytes = Vec::new();
        for (k, v) in [(6u64, 4096u64), (17, 250), (0, 0), (17, 999)] {
            bytes.extend_from_slice(&k.to_ne_bytes());
            bytes.extend_from_slice(&v.to_ne_bytes());
        }
        assert_eq!(auxv_value(&bytes, 17), Some(250));
        assert_eq!(auxv_value(&bytes, 33), None);
    }

    #[test]
    fn median_odd_even_and_empty() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[4.0]), 4.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), (1.5, 3.0, 4.5));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), (0.75, 1.5, 2.25));
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0, 7.0));
    }

    #[test]
    fn geomean_of_ratios() {
        let g = geomean(&[2.0, 8.0]).unwrap();
        assert!((g - 4.0).abs() < 1e-12);
        assert!((geomean(&[3.0]).unwrap() - 3.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), None);
        assert_eq!(geomean(&[1.0, 0.0]), None);
        assert_eq!(geomean(&[1.0, -2.0]), None);
    }
}
