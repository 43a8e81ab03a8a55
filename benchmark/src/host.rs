//! What the benchmark asks of the host: CPU pinning, process CPU time and
//! peak resident memory. Linux only (`sched_setaffinity`, `clock_gettime`,
//! `/proc/self/status`).

use std::time::Instant;

/// 64-bit words in the affinity masks passed to the kernel (1024 CPUs).
const MASK_WORDS: usize = 16;

/// A CPU affinity mask as the kernel sees it.
type CpuMask = [u64; MASK_WORDS];

extern "C" {
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn clock_gettime(clock: i32, time: *mut Timespec) -> i32;
}

/// `struct timespec` on 64-bit Linux.
#[repr(C)]
struct Timespec {
    sec: i64,
    nsec: i64,
}

/// `CLOCK_PROCESS_CPUTIME_ID` on Linux.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// The CPUs this process may run on.
fn allowed_cpus() -> CpuMask {
    let mut mask: CpuMask = [0; MASK_WORDS];
    // SAFETY: `mask` is a live, writable buffer of exactly the size passed;
    // pid 0 names the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuMask>(), mask.as_mut_ptr()) };
    assert_eq!(rc, 0, "sched_getaffinity failed");
    mask
}

/// Restricts the calling thread (and every thread it spawns afterwards) to
/// `mask`. Returns whether the kernel accepted it.
fn set_affinity(mask: &CpuMask) -> bool {
    // SAFETY: `mask` is a live buffer of exactly the size passed; pid 0
    // names the calling thread.
    unsafe { sched_setaffinity(0, std::mem::size_of::<CpuMask>(), mask.as_ptr()) == 0 }
}

/// CPU indices set in `mask`, ascending.
fn cpus_in(mask: &CpuMask) -> Vec<usize> {
    (0..MASK_WORDS * 64)
        .filter(|&cpu| mask[cpu / 64] >> (cpu % 64) & 1 == 1)
        .collect()
}

/// The mask holding only `cpu`.
fn single_cpu(cpu: usize) -> CpuMask {
    let mut mask: CpuMask = [0; MASK_WORDS];
    mask[cpu / 64] = 1 << (cpu % 64);
    mask
}

/// The host record every result carries: how many CPUs the process was
/// allowed, and the one it pinned itself to.
#[derive(Debug, Clone)]
pub struct Host {
    /// The affinity mask the process started with.
    allowed: CpuMask,
    /// Number of CPUs in the mask the process started with.
    pub cpus: usize,
    /// The CPU every thread of the stack runs on; `None` when the sandbox
    /// refused `sched_setaffinity` and the run went on unpinned.
    pub pinned_cpu: Option<usize>,
}

/// Pins the process to the highest-numbered allowed CPU. Must run before
/// any stack thread is spawned: threads inherit the mask at creation.
pub fn pin() -> Host {
    let allowed = allowed_cpus();
    let cpus = cpus_in(&allowed);
    let target = *cpus.last().expect("no CPU allowed");
    let pinned_cpu = set_affinity(&single_cpu(target)).then_some(target);
    if pinned_cpu.is_none() {
        eprintln!("layerbench: sched_setaffinity refused; running unpinned");
    }
    Host {
        allowed,
        cpus: cpus.len(),
        pinned_cpu,
    }
}

impl Host {
    /// A host record of a process that never pinned itself.
    #[cfg(test)]
    pub fn unpinned(cpus: usize) -> Self {
        Self {
            allowed: [0; MASK_WORDS],
            cpus,
            pinned_cpu: None,
        }
    }

    /// Lets the threads spawned from now on use every allowed CPU (the
    /// unpinned arms of the ladder). No-op when the process never pinned.
    pub fn unpin(&self) {
        if self.pinned_cpu.is_some() {
            set_affinity(&self.allowed);
        }
    }

    /// Back to the pinned CPU after [`Host::unpin`].
    pub fn repin(&self) {
        if let Some(cpu) = self.pinned_cpu {
            set_affinity(&single_cpu(cpu));
        }
    }
}

/// User + system CPU seconds of the whole process (all threads, including
/// exited ones). The process CPU clock counts the same time as `utime` +
/// `stime` in `/proc/self/stat`, in nanoseconds instead of 10 ms ticks.
pub fn process_cpu_s() -> f64 {
    let mut time = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `time` is a live, writable `timespec` of the layout the
    // kernel expects on 64-bit Linux.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut time) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    time.sec as f64 + time.nsec as f64 / 1e9
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kb / 1024.0
}

/// What a [`Stopwatch`] measured.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Elapsed {
    /// Wall seconds.
    pub wall_s: f64,
    /// Process CPU seconds (user + system, every thread).
    pub cpu_s: f64,
}

/// Times a region on the wall clock and the process CPU clock.
pub struct Stopwatch {
    wall: Instant,
    cpu_s: f64,
}

impl Stopwatch {
    /// Starts timing.
    pub fn start() -> Self {
        Self {
            cpu_s: process_cpu_s(),
            wall: Instant::now(),
        }
    }

    /// Time since the start.
    pub fn stop(self) -> Elapsed {
        Elapsed {
            wall_s: self.wall.elapsed().as_secs_f64(),
            cpu_s: process_cpu_s() - self.cpu_s,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mask_round_trips() {
        let mask = single_cpu(70);
        assert_eq!(cpus_in(&mask), vec![70]);
    }

    #[test]
    fn pin_unpin_repin_leave_the_thread_where_they_say() {
        // A test thread of its own: the mask is per thread.
        std::thread::spawn(|| {
            let host = pin();
            if let Some(cpu) = host.pinned_cpu {
                assert_eq!(cpus_in(&allowed_cpus()), vec![cpu]);
                host.unpin();
                assert_eq!(cpus_in(&allowed_cpus()).len(), host.cpus);
                host.repin();
                assert_eq!(cpus_in(&allowed_cpus()), vec![cpu]);
            }
        })
        .join()
        .expect("pinning thread exits cleanly");
    }

    #[test]
    fn proc_readers_return_positive_values() {
        assert!(peak_rss_mb() > 0.0);
        assert!(process_cpu_s() >= 0.0);
        assert!(!cpus_in(&allowed_cpus()).is_empty());
    }
}
