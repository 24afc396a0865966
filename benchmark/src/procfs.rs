//! Reading a process's cost from outside it: `/proc/<pid>/stat` for CPU
//! time, `/proc/<pid>/status` for peak resident memory, and each thread's
//! `status` for context switches.

use std::fs;
use std::path::PathBuf;

/// `utime`/`stime` are reported in clock ticks of `USER_HZ`, which is 100
/// on every Linux ABI, so one tick is 10 000 µs.
const US_PER_TICK: u64 = 10_000;

/// CPU ticks from `/proc/<pid>/stat`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Stat {
    pub utime_ticks: u64,
    pub stime_ticks: u64,
}

/// Parses one `/proc/<pid>/stat` line. The command name (field 2) may
/// hold spaces and parentheses, so fields are counted from the *last*
/// `)`: state is the first field after it, `utime` the 12th, `stime` the
/// 13th (fields 14 and 15 of the line).
pub fn parse_stat(line: &str) -> Option<Stat> {
    let rest = &line[line.rfind(')')? + 1..];
    let mut fields = rest.split_ascii_whitespace();
    let utime_ticks = fields.nth(11)?.parse().ok()?;
    let stime_ticks = fields.next()?.parse().ok()?;
    Some(Stat {
        utime_ticks,
        stime_ticks,
    })
}

/// The fields of `/proc/<pid>/status` the benchmark reads.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Status {
    /// Peak resident set size (`VmHWM`), kB.
    pub vm_hwm_kb: u64,
    /// Voluntary plus involuntary context switches of this one task.
    pub ctx_switches: u64,
}

/// Parses `/proc/<pid>/status` (or a thread's). Missing lines read as 0:
/// kernel threads have no `Vm*` lines.
pub fn parse_status(text: &str) -> Status {
    let field = |key: &str| -> u64 {
        text.lines()
            .find_map(|l| l.strip_prefix(key))
            .and_then(|v| v.split_ascii_whitespace().next())
            .and_then(|v| v.parse().ok())
            .unwrap_or(0)
    };
    Status {
        vm_hwm_kb: field("VmHWM:"),
        ctx_switches: field("voluntary_ctxt_switches:") + field("nonvoluntary_ctxt_switches:"),
    }
}

/// Nanoseconds a task has spent on a CPU: the first field of its
/// `schedstat` (`sum_exec_runtime`), exact where `stat` counts 10 ms ticks.
pub fn parse_schedstat(text: &str) -> Option<u64> {
    text.split_ascii_whitespace().next()?.parse().ok()
}

/// One reading of a live process, all threads included.
#[derive(Debug, Clone, Copy, Default)]
pub struct Sample {
    pub user_us: u64,
    pub sys_us: u64,
    /// CPU time, µs, to the nanosecond where the kernel keeps schedstats,
    /// otherwise `user_us + sys_us`.
    pub cpu_us: f64,
    pub ctx_switches: u64,
    pub vm_hwm_kb: u64,
}

/// Reads `pid`'s counters, all threads included. Errors if the process
/// is gone.
pub fn sample(pid: u32) -> std::io::Result<Sample> {
    let mut tasks = Vec::new();
    for task in fs::read_dir(format!("/proc/{pid}/task"))? {
        tasks.push(task?.path());
    }
    sample_tasks(pid, &format!("/proc/{pid}/stat"), &tasks)
}

/// Reads the counters of this process's main thread alone — the
/// generator — leaving out helper threads such as the idle spinners.
/// `vm_hwm_kb` is the whole process's all the same.
pub fn sample_own_main_thread() -> std::io::Result<Sample> {
    let pid = std::process::id();
    let task = PathBuf::from(format!("/proc/{pid}/task/{pid}"));
    sample_tasks(pid, &format!("/proc/{pid}/task/{pid}/stat"), &[task])
}

/// CPU ticks from `stat_path`; context switches and run time summed over
/// `tasks` (the process-level files count only the main thread's).
fn sample_tasks(pid: u32, stat_path: &str, tasks: &[PathBuf]) -> std::io::Result<Sample> {
    let bad = |what: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, what.to_string());
    let stat =
        parse_stat(&fs::read_to_string(stat_path)?).ok_or_else(|| bad("unparsable stat line"))?;
    let status = parse_status(&fs::read_to_string(format!("/proc/{pid}/status"))?);
    let mut ctx_switches = 0;
    let mut run_ns = Some(0u64);
    for dir in tasks {
        // A thread may exit between the listing and the read.
        if let Ok(text) = fs::read_to_string(dir.join("status")) {
            ctx_switches += parse_status(&text).ctx_switches;
        }
        let ns = fs::read_to_string(dir.join("schedstat"))
            .ok()
            .and_then(|t| parse_schedstat(&t));
        run_ns = run_ns.zip(ns).map(|(sum, ns)| sum + ns);
    }
    let (user_us, sys_us) = (
        stat.utime_ticks * US_PER_TICK,
        stat.stime_ticks * US_PER_TICK,
    );
    Ok(Sample {
        user_us,
        sys_us,
        cpu_us: run_ns.map_or((user_us + sys_us) as f64, |ns| ns as f64 / 1e3),
        ctx_switches,
        vm_hwm_kb: status.vm_hwm_kb,
    })
}

/// Threads this process has right now.
pub fn own_thread_count() -> usize {
    fs::read_dir("/proc/self/task").map_or(1, |d| d.count())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_with_plain_comm() {
        let line = "4242 (moqdns-relayd) S 1 4242 4242 0 -1 4194304 512 0 0 0 \
                    1234 567 0 0 20 0 3 0 99999 12345678 321 18446744073709551615 1 1 0 0 0 0 0";
        assert_eq!(
            parse_stat(line),
            Some(Stat {
                utime_ticks: 1234,
                stime_ticks: 567
            })
        );
    }

    #[test]
    fn stat_with_spaces_and_parens_in_comm() {
        let line = "7 (a (weird) name) R 1 7 7 0 -1 0 0 0 0 0 11 22 0 0 20 0 1 0 5 6 7";
        assert_eq!(
            parse_stat(line),
            Some(Stat {
                utime_ticks: 11,
                stime_ticks: 22
            })
        );
    }

    #[test]
    fn stat_rejects_garbage() {
        assert_eq!(parse_stat(""), None);
        assert_eq!(parse_stat("1 (x) S 1 2"), None);
        assert_eq!(
            parse_stat("1 (x) S 1 2 3 4 5 6 7 8 9 10 eleven 12 13"),
            None
        );
    }

    #[test]
    fn status_fields() {
        let text = "Name:\tmoqdns-relayd\nVmPeak:\t  200000 kB\nVmHWM:\t   54321 kB\n\
                    VmRSS:\t   50000 kB\nThreads:\t2\n\
                    voluntary_ctxt_switches:\t100\nnonvoluntary_ctxt_switches:\t23\n";
        assert_eq!(
            parse_status(text),
            Status {
                vm_hwm_kb: 54321,
                ctx_switches: 123
            }
        );
    }

    #[test]
    fn status_without_vm_lines_reads_zero() {
        assert_eq!(
            parse_status("Name:\tkthreadd\nvoluntary_ctxt_switches:\t5\n"),
            Status {
                vm_hwm_kb: 0,
                ctx_switches: 5
            }
        );
    }

    #[test]
    fn schedstat_run_time() {
        assert_eq!(parse_schedstat("646093 55495 1\n"), Some(646093));
        assert_eq!(parse_schedstat(""), None);
        assert_eq!(parse_schedstat("x 1 2"), None);
    }

    #[test]
    fn samples_this_process() {
        let s = sample(std::process::id()).expect("own /proc entry");
        assert!(s.vm_hwm_kb > 0);
        assert!(own_thread_count() >= 1);
        let main = sample_own_main_thread().expect("own main thread");
        assert!(main.vm_hwm_kb > 0);
        assert!(main.cpu_us <= s.cpu_us + 50_000.0);
    }
}
