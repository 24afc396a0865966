//! CPU placement, so that runs of the same code read the same.
//!
//! *Pinning.* On a two-hardware-thread box the generator and the daemons
//! either share a core or do not, run by run, as the scheduler pleases,
//! and a fetch round-trip costs a third as much when they do (no
//! cross-core wake-up). Pinning the generator to one allowed CPU and the
//! daemons to another makes every run the cross-core case.
//!
//! *Keeping the CPUs awake.* The box is a KVM guest. A closed loop at low
//! concurrency puts each side to sleep tens of thousands of times a
//! second; what waking a halted virtual CPU costs depends on the
//! hypervisor's adaptive halt-polling, i.e. on what the guest did in the
//! minutes *before* the run. Round-trips and even CPU per op came out in
//! two modes 30 % apart, several runs in a row in one mode. An
//! idle-priority (`SCHED_IDLE`) spinner on each of the two CPUs keeps them
//! from halting — the poor man's `idle=poll`. Any runnable normal-priority
//! thread preempts it at once, and its CPU time is not counted anywhere:
//! the daemons are other processes and the generator is sampled by thread.

use std::fs;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

const SCHED_IDLE: i32 = 5;

#[repr(C)]
struct SchedParam {
    sched_priority: i32,
}

extern "C" {
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    fn sched_setscheduler(pid: i32, policy: i32, param: *const SchedParam) -> i32;
}

/// Parses a kernel CPU list such as `0-1` or `0,2-3,8`.
pub fn parse_cpu_list(list: &str) -> Vec<usize> {
    let mut cpus = Vec::new();
    for part in list.trim().split(',').filter(|p| !p.is_empty()) {
        let (lo, hi) = part.split_once('-').unwrap_or((part, part));
        if let (Ok(lo), Ok(hi)) = (lo.trim().parse::<usize>(), hi.trim().parse::<usize>()) {
            cpus.extend(lo..=hi);
        }
    }
    cpus
}

/// CPUs this process is allowed on (`Cpus_allowed_list`).
pub fn allowed_cpus() -> Vec<usize> {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))
                .map(parse_cpu_list)
        })
        .unwrap_or_default()
}

/// Restricts the calling thread — and every process it spawns from now
/// on — to `cpu`. Returns whether the kernel accepted it.
pub fn pin_self(cpu: usize) -> bool {
    let mut mask = [0u64; 16];
    if cpu >= mask.len() * 64 {
        return false;
    }
    mask[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `mask` is a live, initialised array whose byte length is
    // passed with it; the kernel only reads it. Pid 0 is the caller.
    unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) == 0 }
}

/// Idle-priority spinners, one per CPU given; stopped and joined on drop.
pub struct KeepAwake {
    stop: Arc<AtomicBool>,
    threads: Vec<JoinHandle<()>>,
}

impl KeepAwake {
    pub fn start(cpus: &[usize]) -> KeepAwake {
        let stop = Arc::new(AtomicBool::new(false));
        let threads = cpus
            .iter()
            .map(|&cpu| {
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    let param = SchedParam { sched_priority: 0 };
                    // SAFETY: `param` is a live, initialised struct the kernel
                    // only reads. Pid 0 is the calling thread.
                    let idle = unsafe { sched_setscheduler(0, SCHED_IDLE, &param) == 0 };
                    // Never spin at normal priority or off the chosen CPU.
                    if !idle || !pin_self(cpu) {
                        return;
                    }
                    // A statistic-free flag: it publishes no other data.
                    while !stop.load(Ordering::Relaxed) {
                        for _ in 0..1024 {
                            std::hint::spin_loop();
                        }
                    }
                })
            })
            .collect();
        KeepAwake { stop, threads }
    }

    /// Threads this guard runs (they are not generator threads).
    pub fn threads(&self) -> usize {
        self.threads.len()
    }
}

impl Drop for KeepAwake {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keep_awake_stops_when_dropped() {
        let cpus = allowed_cpus();
        let guard = KeepAwake::start(&cpus[..1]);
        assert_eq!(guard.threads(), 1);
        drop(guard); // joins: would hang if the spinner ignored `stop`
    }

    #[test]
    fn cpu_lists() {
        assert_eq!(parse_cpu_list("0-1\n"), vec![0, 1]);
        assert_eq!(parse_cpu_list("\t0,2-3,8"), vec![0, 2, 3, 8]);
        assert_eq!(parse_cpu_list("5"), vec![5]);
        assert_eq!(parse_cpu_list(""), Vec::<usize>::new());
        assert_eq!(parse_cpu_list("x-2,4"), vec![4]);
    }

    #[test]
    fn this_process_may_run_somewhere() {
        assert!(!allowed_cpus().is_empty());
    }
}
