//! What the machine was doing: process CPU time, peak memory, a
//! calibration loop that calls no repository code, and the build facts
//! recorded in every result set.

use std::time::Instant;

/// CPUs the process was started with (before it pinned itself). The
/// benchmark never starts more generator threads than this; it starts one.
pub fn nproc() -> usize {
    ORIGINAL_CPUS.get_or_init(allowed_cpus).len().max(1)
}

/// The CPUs this process may run on (`Cpus_allowed_list`, e.g. `0-1,4`).
pub fn allowed_cpus() -> Vec<usize> {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let list = status
        .lines()
        .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))
        .unwrap_or("")
        .trim();
    let mut cpus = Vec::new();
    for part in list.split(',').filter(|p| !p.is_empty()) {
        let (lo, hi) = part.split_once('-').unwrap_or((part, part));
        if let (Ok(lo), Ok(hi)) = (lo.parse::<usize>(), hi.parse::<usize>()) {
            cpus.extend(lo..=hi);
        }
    }
    cpus
}

/// Restricts the calling thread — and every thread it spawns afterwards —
/// to `cpus`. Returns whether the kernel accepted the mask.
///
/// A measured process pins itself to one CPU before it does anything else.
/// With two CPUs the guest scheduler otherwise stacks the generator and
/// the server's worker on one CPU or spreads them over two, as it pleases
/// and minutes at a time: stacked, wake-ups are cheap and late; spread,
/// they are prompt and each costs a cross-CPU interrupt, and burst-drain
/// throughput differs 1.7x between the two.
#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
pub fn set_affinity(cpus: &[usize]) -> bool {
    let mut mask = [0u64; 16];
    for &cpu in cpus.iter().filter(|&&c| c < 64 * 16) {
        mask[cpu / 64] |= 1 << (cpu % 64);
    }
    if mask.iter().all(|w| *w == 0) {
        return false;
    }
    let ret: isize;
    // SAFETY: `sched_setaffinity(pid = 0, len, mask)` (syscall 203) only
    // reads `len` bytes at `mask`, which outlives the call on this frame,
    // and writes no user memory. `syscall` clobbers rcx and r11, declared
    // below; it does not touch the stack.
    unsafe {
        std::arch::asm!(
            "syscall",
            inlateout("rax") 203isize => ret,
            in("rdi") 0usize,
            in("rsi") std::mem::size_of_val(&mask),
            in("rdx") mask.as_ptr(),
            lateout("rcx") _,
            lateout("r11") _,
            options(nostack),
        );
    }
    ret == 0
}

static ORIGINAL_CPUS: std::sync::OnceLock<Vec<usize>> = std::sync::OnceLock::new();

/// Pins this thread and its future children to the first CPU the process
/// is allowed on. Returns whether it is pinned now.
pub fn pin_to_first_cpu() -> bool {
    let original = ORIGINAL_CPUS.get_or_init(allowed_cpus);
    original.first().is_some_and(|&cpu| set_affinity(&[cpu]))
}

/// Gives this thread back every CPU the process was started with. Returns
/// whether the affinity changed.
pub fn unpin() -> bool {
    ORIGINAL_CPUS
        .get()
        .is_some_and(|original| set_affinity(original))
}

/// Runs `f` on every CPU the process was started with and a compute pool
/// of that many threads, then pins again: for the one pass that measures
/// the parallel paths. (The pool is sized explicitly: asked after pinning,
/// the machine reports one CPU.)
pub fn on_all_cpus<T>(f: impl FnOnce() -> T) -> T {
    let widened = unpin();
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(nproc())
        .build()
        .expect("the rayon shim always builds a pool");
    let out = pool.install(f);
    if widened {
        pin_to_first_cpu();
    }
    out
}

/// No portable way to pin without libc: the run goes on unpinned and says
/// so (`env.pinned` reads 0).
#[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
pub fn set_affinity(_cpus: &[usize]) -> bool {
    false
}

/// User + system CPU seconds of this process so far, exited threads
/// included (`/proc/self/stat` fields 14 and 15, in 10 ms ticks).
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name (field 2) may contain spaces; count from the ')'.
    let rest = stat.rsplit_once(')').map(|(_, r)| r).unwrap_or("");
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| fields.get(i).and_then(|s| s.parse::<f64>().ok());
    match (ticks(11), ticks(12)) {
        (Some(utime), Some(stime)) => (utime + stime) / 100.0,
        _ => 0.0,
    }
}

/// Peak resident set (`VmHWM`) in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// The disturbance signal: a short fixed loop that calls no repository
/// code, sampled between the timed units of a workload and, by `mnbench
/// run`, before and after each workload. Its median says how fast this
/// machine was *while the workload ran*.
///
/// Twelve independent 16-lane multiply-add chains: bound by floating-point
/// issue rate, as a GEMM micro-kernel is, the loop slows by 35–65 % in
/// exactly the minutes-long episodes in which the workloads lose 10–45 %
/// of their throughput. (A dependent integer chain and a 64 MB streaming
/// pass were tried beside it and dropped: they move 3 % in those episodes.)
#[derive(Default)]
pub struct Calib {
    fma_ms: Vec<f64>,
    /// Wall (= CPU, one busy thread) seconds spent calibrating, so callers
    /// can take it out of their CPU accounting.
    pub spent_s: f64,
}

impl Calib {
    /// `n` samples of the loop (about 2.4 ms each on a quiet machine).
    pub fn sample(&mut self, n: usize) {
        for _ in 0..n {
            let t0 = Instant::now();
            let mut lanes = [[1.0f32; 16]; 12];
            for _ in 0..20_000u32 {
                for chain in lanes.iter_mut() {
                    for v in chain.iter_mut() {
                        *v = *v * 1.000_000_1 + 1e-9;
                    }
                }
            }
            std::hint::black_box(&lanes);
            let spent = t0.elapsed().as_secs_f64();
            self.fma_ms.push(spent * 1e3);
            self.spent_s += spent;
        }
    }

    pub fn fma_ms(&self) -> f64 {
        crate::stats::median(&self.fma_ms)
    }
}

/// First line of a command's stdout, or `unknown`.
fn first_line(cmd: &str, args: &[&str]) -> String {
    std::process::Command::new(cmd)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

/// CRC-32 of this executable. `git rev-parse HEAD` cannot tell a parent
/// checkout from a working tree with uncommitted changes on top of it; two
/// result sets with the same build id were measured by the same code, and
/// only then does `compare` demand bit-identical counts.
fn build_id() -> String {
    std::env::current_exe()
        .and_then(std::fs::read)
        .map(|bytes| format!("{:08x}", mn_nn::io::crc32(&bytes)))
        .unwrap_or_else(|_| "unknown".to_string())
}

/// Build and machine facts for the `env` block of a result set.
pub fn describe() -> Vec<(String, String)> {
    let features = [
        ("avx2", cfg!(target_feature = "avx2")),
        ("fma", cfg!(target_feature = "fma")),
        ("avx512f", cfg!(target_feature = "avx512f")),
    ];
    let enabled: Vec<&str> = features
        .iter()
        .filter(|(_, on)| *on)
        .map(|(n, _)| *n)
        .collect();
    vec![
        ("nproc".into(), nproc().to_string()),
        ("rustc".into(), first_line("rustc", &["--version"])),
        ("commit".into(), first_line("git", &["rev-parse", "HEAD"])),
        ("build_id".into(), build_id()),
        (
            "MN_SIMD".into(),
            std::env::var("MN_SIMD").unwrap_or_else(|_| "unset".into()),
        ),
        (
            "simd_backend".into(),
            mn_tensor::simd::active().label().to_string(),
        ),
        (
            "target_features".into(),
            if enabled.is_empty() {
                "baseline".into()
            } else {
                enabled.join("+")
            },
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `benchmark/` is outside the tree the root workspace's `mn-lint`
    /// walks, so its rules are run over this package here: every `unsafe`
    /// block carries a SAFETY comment and is listed in
    /// `benchmark/docs/UNSAFE.md` (regenerate with `cargo run -p mn-lint --
    /// --root benchmark --update-docs`).
    #[test]
    fn mn_lint_rules_hold_in_this_package() {
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
        let report = mn_lint::run(root, &mn_lint::Options::default()).expect("the tree scans");
        assert!(report.violations.is_empty(), "{}", report.render_human());
        assert!(report.files_scanned >= 13);
    }

    #[test]
    fn proc_readers_return_plausible_values() {
        assert!(nproc() >= 1);
        assert!(peak_rss_mb() > 0.5);
        let before = cpu_seconds();
        let mut x = 1u64;
        let t = Instant::now();
        while t.elapsed().as_millis() < 60 {
            x = std::hint::black_box(x.wrapping_mul(3).wrapping_add(1));
        }
        assert!(cpu_seconds() >= before + 0.02, "CPU time must advance");
    }
}
