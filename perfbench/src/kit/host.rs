//! Host calibration: what this machine can do, so per-layer numbers
//! have floors to be read against. Nothing here calls into the crates
//! under measurement.

use std::hint::black_box;
use std::sync::Barrier;
use std::time::Instant;

/// Worker threads every parallel measurement uses: `min(nproc, 4)`.
pub fn threads() -> usize {
    std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1)
        .min(4)
}

fn status_kib(field: &str) -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Peak resident set size of this process so far (`VmHWM`), in MiB.
/// Falls back to the current size, then to 0, where `/proc` is absent.
pub fn peak_rss_mib() -> f64 {
    status_kib("VmHWM:")
        .or_else(|| status_kib("VmRSS:"))
        .unwrap_or(0.0)
        / 1024.0
}

fn parse_size(text: &str) -> Option<usize> {
    let t = text.trim();
    let (digits, scale) = match t.chars().last()? {
        'K' | 'k' => (&t[..t.len() - 1], 1 << 10),
        'M' | 'm' => (&t[..t.len() - 1], 1 << 20),
        'G' | 'g' => (&t[..t.len() - 1], 1 << 30),
        _ => (t, 1),
    };
    digits.parse::<usize>().ok().map(|n| n * scale)
}

/// Size in bytes of the last-level cache CPU 0 reports (32 MiB if the
/// host does not say).
pub fn llc_bytes() -> usize {
    (0..8)
        .filter_map(|i| {
            let path = format!("/sys/devices/system/cpu/cpu0/cache/index{i}/size");
            parse_size(&std::fs::read_to_string(path).ok()?)
        })
        .max()
        .unwrap_or(32 << 20)
}

/// Installed memory in bytes (8 GiB if the host does not say).
pub fn ram_bytes() -> usize {
    std::fs::read_to_string("/proc/meminfo")
        .ok()
        .and_then(|m| {
            let line = m.lines().find(|l| l.starts_with("MemTotal:"))?.to_string();
            line.split_whitespace().nth(1)?.parse::<usize>().ok()
        })
        .map_or(8 << 30, |kib| kib << 10)
}

/// Total bytes of the three arrays the DRAM triad runs over: four times
/// the reported last-level cache, capped at an eighth of memory and at
/// 512 MiB (first-touch page faults on a larger set cost the traced run
/// seconds it does not have).
pub fn dram_triad_bytes() -> usize {
    (4 * llc_bytes()).min(ram_bytes() / 8).min(512 << 20)
}

/// Single-thread STREAM triad `a = b + s·c` over three arrays totalling
/// `total_bytes`; returns the median GB/s over `passes` timed passes
/// after one untimed pass. Bytes are computed as 24 per element (two
/// reads and one write, write-allocate traffic not counted).
pub fn triad_gbps(total_bytes: usize, passes: usize) -> f64 {
    let len = (total_bytes / 24).max(1024);
    let b = vec![1.0f64; len];
    let c = vec![2.0f64; len];
    let mut a = vec![0.0f64; len];
    let mut samples = Vec::with_capacity(passes);
    for pass in 0..=passes {
        let s = 1.0 + pass as f64;
        let t0 = Instant::now();
        for ((ai, bi), ci) in a.iter_mut().zip(&b).zip(&c) {
            *ai = bi + s * ci;
        }
        black_box(&mut a);
        let dt = t0.elapsed().as_secs_f64();
        if pass > 0 {
            samples.push(24.0 * len as f64 / dt / 1e9);
        }
    }
    super::stats::median(&samples)
}

/// Median microseconds to spawn and join `threads` scoped threads that
/// do nothing — what a backend pays each time it re-enters
/// `thread::scope`.
pub fn spawn_join_us(threads: usize, repeats: usize) -> f64 {
    let mut samples = Vec::with_capacity(repeats);
    for r in 0..repeats + 1 {
        let t0 = Instant::now();
        std::thread::scope(|scope| {
            for _ in 0..threads {
                scope.spawn(|| black_box(0u64));
            }
        });
        let dt = t0.elapsed().as_secs_f64();
        if r > 0 {
            samples.push(dt * 1e6);
        }
    }
    super::stats::median(&samples)
}

/// Microseconds per `std::sync::Barrier` round trip with `threads`
/// participants (mean over `rounds` back-to-back waits).
pub fn barrier_us(threads: usize, rounds: usize) -> f64 {
    let barrier = Barrier::new(threads);
    let t0 = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| {
                for _ in 0..rounds {
                    barrier.wait();
                }
            });
        }
    });
    t0.elapsed().as_secs_f64() * 1e6 / rounds as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sizes_parse() {
        assert_eq!(parse_size("32K\n"), Some(32 << 10));
        assert_eq!(parse_size("260M"), Some(260 << 20));
        assert_eq!(parse_size("4096"), Some(4096));
        assert_eq!(parse_size("x"), None);
    }

    #[test]
    fn calibration_returns_positive_numbers() {
        assert!((1..=4).contains(&threads()));
        assert!(triad_gbps(3 << 20, 2) > 0.0);
        assert!(spawn_join_us(2, 3) > 0.0);
        assert!(barrier_us(2, 50) > 0.0);
        assert!(dram_triad_bytes() >= 1 << 20);
    }
}
