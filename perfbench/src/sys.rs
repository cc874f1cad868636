//! Process resource readings taken from outside the program under test:
//! CPU time of this process and of its reaped children (`getrusage(2)`),
//! peak resident set size and byte counters from `/proc`.

#[repr(C)]
#[derive(Default, Clone, Copy)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` on 64-bit Linux: two timevals, then fourteen longs
/// (`ru_maxrss` first).
#[repr(C)]
#[derive(Default, Clone, Copy)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss: i64,
    rest: [i64; 13],
}

const RUSAGE_SELF: i32 = 0;
const RUSAGE_CHILDREN: i32 = -1;

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

fn rusage(who: i32) -> Rusage {
    let mut usage = Rusage::default();
    // SAFETY: `usage` is a valid, writable `struct rusage` for 64-bit Linux
    // (the layout above), and `who` is one of the two documented selectors.
    let rc = unsafe { getrusage(who, &mut usage) };
    assert_eq!(rc, 0, "getrusage({who}) failed");
    usage
}

fn seconds(t: Timeval) -> f64 {
    t.sec as f64 + t.usec as f64 * 1e-6
}

/// CPU seconds (user + system) of this process, all threads, and of every
/// child process that has been waited for.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CpuTimes {
    /// This process.
    pub own: f64,
    /// Reaped children: counted once `wait` returned for them.
    pub children: f64,
}

impl CpuTimes {
    /// The current totals.
    pub fn now() -> CpuTimes {
        let own = rusage(RUSAGE_SELF);
        let kids = rusage(RUSAGE_CHILDREN);
        CpuTimes {
            own: seconds(own.utime) + seconds(own.stime),
            children: seconds(kids.utime) + seconds(kids.stime),
        }
    }

    /// Own plus children.
    pub fn total(&self) -> f64 {
        self.own + self.children
    }

    /// The CPU used between `earlier` and `self`.
    pub fn since(&self, earlier: &CpuTimes) -> CpuTimes {
        CpuTimes {
            own: self.own - earlier.own,
            children: self.children - earlier.children,
        }
    }
}

/// Largest peak resident set of any reaped child, in MiB.
pub fn children_peak_rss_mb() -> f64 {
    rusage(RUSAGE_CHILDREN).maxrss as f64 / 1024.0
}

/// Parses the `VmHWM:` line of a `/proc/<pid>/status` text, in MiB.
pub fn parse_vm_hwm_mb(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Peak resident set size (VmHWM) of a live process, in MiB; `pid` `None`
/// is this process.
pub fn peak_rss_mb(pid: Option<u32>) -> Option<f64> {
    let path = match pid {
        Some(pid) => format!("/proc/{pid}/status"),
        None => "/proc/self/status".to_owned(),
    };
    parse_vm_hwm_mb(&std::fs::read_to_string(path).ok()?)
}

/// Bytes this process moved through `read`/`write` system calls (pipes
/// and sockets included), from `/proc/self/io`.
pub fn io_bytes() -> u64 {
    let text = std::fs::read_to_string("/proc/self/io").unwrap_or_default();
    text.lines()
        .filter(|l| l.starts_with("rchar:") || l.starts_with("wchar:"))
        .filter_map(|l| l.split_whitespace().nth(1)?.parse::<u64>().ok())
        .sum()
}

/// Available hardware threads (the benchmark's load never exceeds this).
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn vm_hwm_is_read_in_mib() {
        let status = "Name:\tx\nVmPeak:\t  9000 kB\nVmHWM:\t    2048 kB\nVmRSS:\t 1024 kB\n";
        assert_eq!(parse_vm_hwm_mb(status), Some(2.0));
        assert_eq!(parse_vm_hwm_mb("Name:\tx\n"), None);
    }

    #[test]
    fn own_cpu_grows_with_work() {
        let before = CpuTimes::now();
        let mut x = 0u64;
        let start = std::time::Instant::now();
        while start.elapsed() < Duration::from_millis(120) {
            x = std::hint::black_box(x.wrapping_mul(6364136223846793005).wrapping_add(1));
        }
        let used = CpuTimes::now().since(&before);
        assert!(used.own > 0.05, "busy loop used {} s of CPU", used.own);
    }

    #[test]
    fn reaped_child_cpu_is_counted_as_children() {
        let before = CpuTimes::now();
        // A child that burns CPU for a while, then exits; only once it is
        // waited for does its CPU time show in the children total.
        let status = std::process::Command::new("sh")
            .arg("-c")
            .arg("i=0; while [ $i -lt 60000 ]; do i=$((i+1)); done")
            .status()
            .expect("spawn sh");
        assert!(status.success());
        let used = CpuTimes::now().since(&before);
        assert!(used.children > 0.0, "child CPU not counted: {used:?}");
        assert!(used.total() >= used.children);
        assert!(children_peak_rss_mb() > 0.0);
    }
}
