//! Measurement primitives: order statistics, the process memory counter, and
//! the interference counters every run reports.

use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Median of `xs` (mean of the two middle values for an even count).
///
/// # Panics
/// On an empty slice: every caller measures at least one sample.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank quantile `q` in `[0, 1]` of `xs`.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    assert!(!xs.is_empty(), "quantile of no samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// The highest of p99, p95, p90 and p80 that leaves at least ten samples
/// beyond it, as `(percentile, value)`; the median when even p90 does not.
pub fn tail(xs: &[f64]) -> (f64, f64) {
    for p in [99.0, 95.0, 90.0, 80.0] {
        let beyond = (xs.len() as f64 * (100.0 - p) / 100.0 + 1e-9).floor();
        if beyond >= 10.0 {
            return (p, quantile(xs, p / 100.0));
        }
    }
    (50.0, median(xs))
}

/// Rate of each equal fixed-work slice: `work_per_slice / seconds`.
pub fn slice_rates(slice_durations: &[Duration], work_per_slice: f64) -> Vec<f64> {
    slice_durations
        .iter()
        .map(|d| work_per_slice / d.as_secs_f64())
        .collect()
}

/// Microseconds in a duration, as a float with all its digits.
pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

static LIVE_BYTES: AtomicUsize = AtomicUsize::new(0);
static PEAK_BYTES: AtomicUsize = AtomicUsize::new(0);

/// The system allocator with a count of live and peak heap bytes. The peak
/// is the program's memory high-water mark; unlike the kernel's resident
/// high-water mark it does not depend on how the allocator's per-thread
/// arenas happen to retain freed pages.
pub struct CountingAlloc;

fn note_alloc(size: usize) {
    // Relaxed: the counters are statistics that publish no other data.
    let live = LIVE_BYTES.fetch_add(size, Ordering::Relaxed) + size;
    if live > PEAK_BYTES.load(Ordering::Relaxed) {
        PEAK_BYTES.fetch_max(live, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so the `GlobalAlloc` contract holds exactly as for `System`;
// the counters are side bookkeeping that never touches the memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded verbatim; the caller upholds `alloc`'s contract.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            note_alloc(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded verbatim; the caller upholds `alloc_zeroed`'s contract.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            note_alloc(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded verbatim; `ptr` came from this allocator with `layout`.
        unsafe { System.dealloc(ptr, layout) };
        LIVE_BYTES.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: forwarded verbatim; the caller upholds `realloc`'s contract.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            note_alloc(new_size);
            LIVE_BYTES.fetch_sub(layout.size(), Ordering::Relaxed);
        }
        p
    }
}

/// Peak live heap of the process so far, in MB (10^6 bytes).
pub fn peak_heap_mb() -> f64 {
    PEAK_BYTES.load(Ordering::Relaxed) as f64 / 1e6
}

/// The kernel's resident high-water mark (`VmHWM`), in MB, for the log.
pub fn vm_hwm_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024.0 / 1e6)
}

/// Logical CPUs the benchmark budgets its threads against.
pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Per-thread run-queue wait (ns) of every live thread of the process, from
/// `/proc/self/task/*/schedstat` (second field).
fn runqueue_wait_by_task() -> BTreeMap<u64, u64> {
    let mut out = BTreeMap::new();
    let Ok(dir) = std::fs::read_dir("/proc/self/task") else {
        return out;
    };
    for entry in dir.flatten() {
        let Some(tid) = entry.file_name().to_str().and_then(|s| s.parse().ok()) else {
            continue;
        };
        let Ok(text) = std::fs::read_to_string(entry.path().join("schedstat")) else {
            continue;
        };
        if let Some(wait) = text.split_whitespace().nth(1).and_then(|s| s.parse().ok()) {
            out.insert(tid, wait);
        }
    }
    out
}

/// Process CPU time (user + system, all threads including ended ones), from
/// `/proc/self/stat` in clock ticks of 10 ms.
fn process_cpu() -> Duration {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return Duration::ZERO;
    };
    // Fields after the parenthesised command name; utime and stime are the
    // 14th and 15th fields of the whole line.
    let Some(rest) = stat.rsplit(')').next() else {
        return Duration::ZERO;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|s| s.parse::<u64>().ok())
            .unwrap_or(0)
    };
    Duration::from_millis((ticks(11) + ticks(12)) * 10)
}

/// Interference counters over a measured phase.
pub struct Interference {
    start: Instant,
    cpu0: Duration,
    wait0: BTreeMap<u64, u64>,
}

/// What [`Interference::finish`] reports.
#[derive(Debug, Clone, Copy)]
pub struct InterferenceReading {
    /// Run-queue wait of the process's threads over the phase, in ms.
    /// Threads that ended before the reading are not counted.
    pub runqueue_wait_ms: f64,
    /// Process CPU time over wall time.
    pub cpu_per_wall: f64,
}

impl Interference {
    /// Start a phase.
    pub fn start() -> Interference {
        Interference {
            start: Instant::now(),
            cpu0: process_cpu(),
            wait0: runqueue_wait_by_task(),
        }
    }

    /// End the phase.
    pub fn finish(&self) -> InterferenceReading {
        let wall = self.start.elapsed().as_secs_f64();
        let cpu = process_cpu().saturating_sub(self.cpu0).as_secs_f64();
        let wait_ns: u64 = runqueue_wait_by_task()
            .into_iter()
            .map(|(tid, w)| w.saturating_sub(self.wait0.get(&tid).copied().unwrap_or(0)))
            .sum();
        InterferenceReading {
            runqueue_wait_ms: wait_ns as f64 / 1e6,
            cpu_per_wall: if wall > 0.0 { cpu / wall } else { 0.0 },
        }
    }
}

/// splitmix64: derives every input of a run from the `--seed` argument.
pub fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_add(stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A small deterministic stream of indices for request windows and
/// schedules.
pub struct SeqRng(u64);

impl SeqRng {
    /// Stream `stream` of seed `seed`.
    pub fn new(seed: u64, stream: u64) -> SeqRng {
        SeqRng(mix(seed, stream))
    }

    /// Next value below `n`.
    pub fn below(&mut self, n: usize) -> usize {
        self.0 = mix(self.0, 1);
        (self.0 % n as u64) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_picks_highest_percentile_with_ten_beyond() {
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&xs), (99.0, 990.0));
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&xs), (90.0, 90.0));
        let xs: Vec<f64> = (1..=60).map(f64::from).collect();
        assert_eq!(tail(&xs), (80.0, 48.0));
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
