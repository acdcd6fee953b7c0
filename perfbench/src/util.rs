//! Small helpers shared by the workloads: order statistics, digests,
//! process memory and scratch-directory lifetime.

use metaleak_crypto::sha256::{self, Sha256};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Median of `values` (0 for an empty slice).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The tail of a latency sample: the highest percentile that still has
/// at least ten samples beyond it, as `(percentile, value)`. `None`
/// with eleven samples or fewer.
pub fn tail(values: &[f64]) -> Option<(u32, f64)> {
    let n = values.len();
    if n <= 10 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pct = (100 * (n - 10) / n) as u32;
    Some((pct, v[n - 11]))
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

pub fn sha256_hex(bytes: &[u8]) -> String {
    sha256::hex(&Sha256::digest(bytes))
}

/// Reads a file and returns its SHA-256, or an error naming the file.
pub fn file_sha256(path: &Path) -> Result<String, String> {
    std::fs::read(path)
        .map(|b| sha256_hex(&b))
        .map_err(|e| format!("cannot read {}: {e}", path.display()))
}

/// The `VmHWM` (peak resident set) of process `pid` in MiB, from
/// `/proc/<pid>/status`.
pub fn peak_rss_mib(pid: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

#[cfg(all(target_os = "linux", target_env = "gnu"))]
extern "C" {
    fn malloc_trim(pad: usize) -> i32;
}

/// Returns freed heap to the kernel and resets the process's `VmHWM` to
/// its current resident set, so the next [`peak_rss_mib`] of `"self"`
/// covers only what runs in between. glibc keeps freed memory in
/// per-thread arenas, and how many arenas the worker threads open
/// depends on timing: without the trim, a whole run's peak of a 2-worker
/// sweep read either about 46 MiB or about 67 MiB.
pub fn reset_peak_rss() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    // SAFETY: malloc_trim only walks glibc's own allocator state.
    unsafe {
        malloc_trim(0);
    }
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Milliseconds since `t`.
pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// A per-run scratch directory, removed when dropped — also when a
/// check fails or the workload returns early — so no artifact or cache
/// survives into the next run.
pub struct Scratch {
    path: PathBuf,
}

impl Scratch {
    pub fn create(path: PathBuf) -> Result<Scratch, String> {
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path)
            .map_err(|e| format!("cannot create {}: {e}", path.display()))?;
        Ok(Scratch { path })
    }

    /// A fresh, empty subdirectory `name`.
    pub fn fresh(&self, name: &str) -> Result<PathBuf, String> {
        let dir = self.path.join(name);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        Ok(dir)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&v), Some((90, 90.0)));
        assert_eq!(tail(&v[..11]), Some((9, 1.0)));
        assert_eq!(tail(&v[..10]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
