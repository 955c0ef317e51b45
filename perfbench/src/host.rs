//! What the host was doing while the benchmark ran: a noise *guard*, not a
//! noise filter. Nothing here drops or repeats a sample; it only labels a
//! run whose machine visibly changed speed underneath it.

use std::time::Instant;

use distllm::util::kernel;

/// Peak resident set of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Process CPU seconds (user + system) so far.
pub fn process_cpu_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are the
    // 14th and 15th of the whole line, in clock ticks (100 Hz on Linux).
    let after = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let fields: Vec<&str> = after.split_whitespace().collect();
    let ticks = |i: usize| fields.get(i).and_then(|f| f.parse::<f64>().ok()).unwrap_or(0.0);
    (ticks(11) + ticks(12)) / 100.0
}

/// Cumulative (steal, total) jiffies over all CPUs from `/proc/stat`.
pub fn cpu_jiffies() -> (f64, f64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let Some(line) = stat.lines().find(|l| l.starts_with("cpu ")) else {
        return (0.0, 0.0);
    };
    let v: Vec<f64> = line.split_whitespace().skip(1).filter_map(|f| f.parse().ok()).collect();
    (v.get(7).copied().unwrap_or(0.0), v.iter().take(8).sum())
}

/// A fixed dot-product loop over a cache-resident pair of vectors: the
/// same instructions before and after a workload, so the ratio of the two
/// readings is how much the machine itself sped up or slowed down.
pub fn calibrate_dot_gbps() -> f64 {
    const FLOATS: usize = 16 * 1024;
    const ROUNDS: usize = 8_000;
    let a: Vec<f32> = (0..FLOATS).map(|i| (i % 13) as f32 * 0.25).collect();
    let b: Vec<f32> = (0..FLOATS).map(|i| (i % 7) as f32 * 0.5).collect();
    let mut best = f64::INFINITY;
    for _ in 0..5 {
        let t0 = Instant::now();
        let mut acc = 0.0f32;
        for _ in 0..ROUNDS {
            acc += kernel::dot(std::hint::black_box(&a), std::hint::black_box(&b));
        }
        std::hint::black_box(acc);
        best = best.min(t0.elapsed().as_secs_f64());
    }
    (ROUNDS * FLOATS * 2 * 4) as f64 / best / 1e9
}

/// The host-speed reference: a fixed, harness-owned kernel (an L1-resident
/// dot product and an integer shift-and-count loop; nothing of the program
/// under test) timed right before and right after every gated operation.
///
/// The builder's host runs the same instructions at speeds that differ by
/// up to 1.55× and persist for seconds. Dividing an operation's wall time
/// by how slow the reference ran beside it cut the run-to-run spread of
/// 15-second medians about threefold (0.13 → 0.04 for single searches,
/// 0.12 → 0.04 for two-worker batch scans, 0.10 → 0.03 for incremental
/// rounds), so gated timings are reported at reference speed; the raw wall
/// time is kept beside every one of them.
pub struct Reference {
    floats: Vec<f32>,
    bytes: Vec<u8>,
}

/// A host on which [`Reference::run_ms`] takes exactly this long runs the
/// gated operations in exactly the time reported.
pub const REFERENCE_NOMINAL_MS: f64 = 1.0;

impl Reference {
    pub fn new() -> Self {
        Self {
            floats: (0..8192).map(|i| (i % 13) as f32 * 0.25 - 1.0).collect(),
            bytes: vec![0; 16 * 1024],
        }
    }

    /// The faster of two passes, in milliseconds (about 1 ms each): a state
    /// of the host slows both, a stray preemption only one.
    pub fn run_ms(&mut self) -> f64 {
        self.pass_ms().min(self.pass_ms())
    }

    fn pass_ms(&mut self) -> f64 {
        let t0 = Instant::now();
        let (a, b) = self.floats.split_at(4096);
        let mut sum = 0.0f32;
        for _ in 0..1500 {
            let mut acc = [0.0f32; 8];
            let pairs = std::hint::black_box(a).chunks_exact(8).zip(b.chunks_exact(8));
            for (x, y) in pairs {
                for i in 0..8 {
                    acc[i] += x[i] * y[i];
                }
            }
            sum += acc.iter().sum::<f32>();
        }
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut seen = [0u32; 256];
        for _ in 0..12 {
            for byte in self.bytes.iter_mut() {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                *byte = (x >> 24) as u8;
                seen[*byte as usize] += 1;
            }
        }
        std::hint::black_box((sum, seen[7]));
        t0.elapsed().as_secs_f64() * 1e3
    }
}

/// Host readings taken before a workload; [`HostBefore::finish`] takes them
/// again and reports the drift.
pub struct HostBefore {
    calib_gbps: f64,
    jiffies: (f64, f64),
    cpu_s: f64,
    wall: Instant,
}

#[derive(Debug, Clone, Copy)]
pub struct HostDrift {
    pub calib_gbps: f64,
    /// |after − before| ÷ before of the calibration loop.
    pub calib_drift_share: f64,
    /// Share of all CPU jiffies in the interval that the hypervisor stole.
    pub host_steal_share: f64,
    /// Process CPU seconds ÷ (wall × workers) over the interval.
    pub cpu_share: f64,
    /// Drift above 10 %: treat the run's timings as suspect.
    pub noisy: bool,
}

impl HostBefore {
    pub fn take() -> Self {
        Self {
            calib_gbps: calibrate_dot_gbps(),
            jiffies: cpu_jiffies(),
            cpu_s: process_cpu_s(),
            wall: Instant::now(),
        }
    }

    pub fn finish(self, workers: usize) -> HostDrift {
        let wall = self.wall.elapsed().as_secs_f64();
        let cpu = process_cpu_s() - self.cpu_s;
        let (steal, total) = cpu_jiffies();
        let after = calibrate_dot_gbps();
        let drift = (after - self.calib_gbps).abs() / self.calib_gbps.max(1e-12);
        HostDrift {
            calib_gbps: self.calib_gbps,
            calib_drift_share: drift,
            host_steal_share: (steal - self.jiffies.0) / (total - self.jiffies.1).max(1.0),
            cpu_share: cpu / (wall * workers.max(1) as f64).max(1e-9),
            noisy: drift > 0.10,
        }
    }
}

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// While alive, the calling thread — and every thread it spawns meanwhile,
/// which inherit its mask — may run only on the highest-numbered CPU it was
/// allowed on. `available_parallelism` honours the mask, so the program
/// under test sizes its pools for one CPU. Dropping restores the old mask.
pub struct PinnedToOneCpu {
    allowed: [u64; 16],
}

impl PinnedToOneCpu {
    /// `None` when the mask cannot be read or set, or already names one CPU.
    pub fn pin() -> Option<Self> {
        let mut allowed = [0u64; 16];
        // SAFETY: `allowed` is a live, writable buffer of exactly the byte
        // length passed; the kernel writes at most that many bytes into it.
        // Pid 0 names the calling thread.
        let got =
            unsafe { sched_getaffinity(0, std::mem::size_of_val(&allowed), allowed.as_mut_ptr()) };
        let word = allowed.iter().rposition(|&w| w != 0).filter(|_| got == 0)?;
        let mut one = [0u64; 16];
        one[word] = 1u64 << (63 - allowed[word].leading_zeros());
        // SAFETY: `one` is a live buffer of exactly the byte length passed
        // and is only read; it names a CPU taken from the allowed set.
        let set = unsafe { sched_setaffinity(0, std::mem::size_of_val(&one), one.as_ptr()) };
        (one != allowed && set == 0).then_some(Self { allowed })
    }
}

impl Drop for PinnedToOneCpu {
    fn drop(&mut self) {
        // SAFETY: as in `pin`; the mask is the one the kernel handed out.
        // A failure leaves the thread pinned, which nothing depends on.
        unsafe {
            sched_setaffinity(0, std::mem::size_of_val(&self.allowed), self.allowed.as_ptr());
        }
    }
}

pub fn workers() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_readings_are_sane() {
        assert!(peak_rss_mb() > 0.0);
        assert!(process_cpu_s() >= 0.0);
        let (steal, total) = cpu_jiffies();
        assert!(steal <= total);
        assert!(workers() >= 1);
    }

    #[test]
    fn the_reference_kernel_takes_measurable_time() {
        let mut reference = Reference::new();
        assert!(reference.run_ms() > 0.0);
    }

    #[test]
    fn pinning_is_scoped() {
        std::thread::spawn(|| {
            let before = workers();
            if let Some(pinned) = PinnedToOneCpu::pin() {
                assert_eq!(workers(), 1);
                drop(pinned);
            }
            assert_eq!(workers(), before);
        })
        .join()
        .expect("pinning thread");
    }
}
