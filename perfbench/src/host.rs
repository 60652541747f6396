//! Where a result came from: source revision, host fingerprint, memory.

use std::fs;
use std::path::Path;

/// Files and directories whose contents make up the measured program.
const SOURCES: [&str; 6] = ["Cargo.toml", "Cargo.lock", "src", "crates", "perfbench/src", "perfbench/Cargo.toml"];

/// The git commit checked out in `root`, read from `.git` without running
/// git, or `None` outside a git work tree.
pub fn git_revision(root: &Path) -> Option<String> {
    let git = root.join(".git");
    let head = fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(sha) = fs::read_to_string(git.join(reference)) {
        return Some(sha.trim().to_string());
    }
    let packed = fs::read_to_string(git.join("packed-refs")).ok()?;
    packed
        .lines()
        .find_map(|l| l.strip_suffix(reference).map(|sha| sha.trim().to_string()))
}

fn fnv1a(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash ^= b as u64;
        *hash = hash.wrapping_mul(0x100_0000_01b3);
    }
}

fn digest_path(root: &Path, rel: &Path, hash: &mut u64) {
    let path = root.join(rel);
    if path.is_dir() {
        let mut entries: Vec<_> = fs::read_dir(&path)
            .into_iter()
            .flatten()
            .flatten()
            .map(|e| e.file_name())
            .filter(|n| n != "target")
            .collect();
        entries.sort();
        for name in entries {
            digest_path(root, &rel.join(name), hash);
        }
    } else if let Ok(bytes) = fs::read(&path) {
        fnv1a(hash, rel.to_string_lossy().as_bytes());
        fnv1a(hash, &bytes);
    }
}

/// FNV-1a digest of the program's sources under `root`: identifies the
/// measured code where no git metadata is available.
pub fn source_digest(root: &Path) -> String {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for rel in SOURCES {
        digest_path(root, Path::new(rel), &mut hash);
    }
    format!("{hash:016x}")
}

/// Host fingerprint: (nproc, CPU model, kernel release).
pub fn fingerprint() -> (usize, String, String) {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let cpu = fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let kernel = fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".into());
    (nproc, cpu, kernel)
}

/// CPU time the hypervisor gave to other guests since boot, summed over
/// CPUs, in seconds (the `steal` column of `/proc/stat`).
pub fn steal_s() -> f64 {
    fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| s.lines().next()?.split_whitespace().nth(8)?.parse::<f64>().ok())
        .map_or(f64::NAN, |jiffies| jiffies / 100.0)
}

/// Peak resident set size of this process, MB.
pub fn peak_rss_mb() -> f64 {
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

extern "C" {
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
}

/// A CPU set, as `sched_setaffinity` takes it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CpuSet([u64; 16]);

impl CpuSet {
    /// The calling thread's current CPU set.
    pub fn current() -> Option<CpuSet> {
        let mut mask = [0u64; 16];
        // SAFETY: pid 0 names the calling thread; the buffer is the size
        // passed and is written by the call.
        let ok = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) == 0 };
        ok.then_some(CpuSet(mask))
    }

    /// The set holding only `cpu`.
    pub fn one(cpu: usize) -> CpuSet {
        let mut mask = [0u64; 16];
        mask[(cpu / 64) % 16] = 1 << (cpu % 64);
        CpuSet(mask)
    }

    /// Restricts the calling thread, and the threads it spawns from now
    /// on, to this set. Returns false where the host refuses.
    pub fn apply(&self) -> bool {
        // SAFETY: pid 0 names the calling thread; the mask is a valid,
        // initialised cpu_set_t-sized buffer that outlives the call.
        unsafe { sched_setaffinity(0, std::mem::size_of_val(&self.0), self.0.as_ptr()) == 0 }
    }
}
