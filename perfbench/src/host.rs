//! What the benchmark reads from the host process: CPU time, peak
//! resident memory, exact allocation counts, and the run's directory.

use std::alloc::{GlobalAlloc, Layout, System};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// The system allocator, plus a call counter that only runs while
/// [`count_allocations`] has switched it on (the traced run). Untraced
/// runs pay one relaxed load per allocation.
pub struct CountingAlloc;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the counters are plain
// atomics and never allocate.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: forwarded verbatim; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: forwarded verbatim; the caller upholds `alloc_zeroed`'s
        // contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: forwarded verbatim; `ptr` came from this allocator, which
        // is `System`, and the caller upholds `realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded verbatim; `ptr` came from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Switches allocation counting on or off for the whole process.
pub fn count_allocations(on: bool) {
    COUNTING.store(on, Ordering::Relaxed);
}

/// Allocation calls (alloc, alloc_zeroed, realloc) counted so far.
pub fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// User + system CPU seconds of the whole process, every thread it ever
/// ran included (`/proc/self/stat` fields 14 and 15, in the kernel's
/// fixed 100 Hz user-visible clock ticks).
pub fn process_cpu_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("procfs is mounted");
    // The command name (field 2) may contain spaces; fields resume after
    // its closing parenthesis, starting with field 3.
    let rest = &stat[stat.rfind(')').expect("stat has a command field") + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| -> f64 {
        fields[i - 3]
            .parse::<u64>()
            .expect("stat time fields are integers") as f64
    };
    (ticks(14) + ticks(15)) / 100.0
}

/// Starts a fresh peak-RSS window: hands the allocator's free memory back
/// to the kernel, then resets `VmHWM` to the current RSS by writing `5`
/// to `/proc/self/clear_refs` (Linux 4.0 and later). Without it, a
/// batch's peak would also hold what earlier batches left in the
/// allocator's free lists, which varies from run to run.
///
/// # Errors
///
/// A kernel that refuses the reset; `VmHWM` then stays the process's.
pub fn reset_peak_rss() -> std::io::Result<()> {
    trim_heap();
    std::fs::write("/proc/self/clear_refs", "5")
}

#[cfg(target_env = "gnu")]
fn trim_heap() {
    extern "C" {
        fn malloc_trim(pad: usize) -> std::os::raw::c_int;
    }
    // SAFETY: `malloc_trim` takes no pointers; it only releases free
    // pages the allocator holds, and is safe to call from any thread.
    unsafe {
        malloc_trim(0);
    }
}

#[cfg(not(target_env = "gnu"))]
fn trim_heap() {}

/// The resident-set high-water mark (`VmHWM`) since the process started
/// or the last [`reset_peak_rss`], in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs is mounted");
    let kb: u64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("status reports VmHWM");
    kb as f64 / 1024.0
}

/// The run's own directory under the working directory, for stores and
/// daemon sockets. Relative, so socket paths stay far below the
/// Unix-socket path limit wherever the checkout lives.
///
/// It is left in place when the run ends. On the recording machine's
/// ext4 (mounted with `discard`), deleting a served run's ~1,700 small
/// store files slowed the next runs' store fills from about 4 ms to
/// 50–100 ms, for longer than the gap between two runs, so a clean-up
/// would have landed in the next run's `setup_s`.
pub struct RunDir(PathBuf);

impl RunDir {
    /// Creates `.perfbench-run-<pid>` in the working directory, replacing
    /// any leftover from an earlier process with the same id.
    pub fn create() -> std::io::Result<RunDir> {
        let path = PathBuf::from(format!(".perfbench-run-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir(&path)?;
        Ok(RunDir(path))
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.0
    }
}
