//! CPU clocks — the calling thread's (`CLOCK_THREAD_CPUTIME_ID`) and the
//! whole process's (`CLOCK_PROCESS_CPUTIME_ID`) — and the host's steal
//! counter.
//!
//! On a virtual machine whose host is oversubscribed, the hypervisor takes
//! the vCPUs away for milliseconds at a time ("steal"), in episodes that
//! last minutes. Wall-clock timings then include time the program never
//! ran, and runs minutes apart differ by up to 2x. CPU clocks count only
//! time the program's threads actually executed. The benchmark times the
//! CPU cost of its operations on them. Latency and throughput of the
//! served workload are taken on the wall clock instead, in windows whose
//! steal it reads from [`steal_s`].

#[repr(C)]
struct Timespec {
    sec: i64,
    nsec: i64,
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

/// `sysconf` name of the clock-tick rate `/proc/stat` counts in.
const SC_CLK_TCK: i32 = 2;

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    fn sysconf(name: i32) -> i64;
}

fn read(clock: i32) -> u64 {
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a valid, writable timespec, and both clock ids are
    // constants every Linux kernel supports.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    ts.sec as u64 * 1_000_000_000 + ts.nsec as u64
}

/// Nanoseconds of CPU time the calling thread has used.
pub fn thread_cpu_ns() -> u64 {
    read(CLOCK_THREAD_CPUTIME_ID)
}

/// Nanoseconds of CPU time all threads of this process have used.
pub fn process_cpu_ns() -> u64 {
    read(CLOCK_PROCESS_CPUTIME_ID)
}

/// Seconds the hypervisor has stolen from this host's CPUs so far, summed
/// over all CPUs (the `steal` column of `/proc/stat`); `None` where that
/// file cannot be read. It advances in clock ticks (10 ms at the usual
/// 100 Hz), so it is only meaningful over windows of many ticks.
pub fn steal_s() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: u64 = parse_steal(&stat)?;
    // SAFETY: `sysconf` only reads a configuration value.
    let hz = unsafe { sysconf(SC_CLK_TCK) };
    (hz > 0).then(|| ticks as f64 / hz as f64)
}

/// The `steal` field (the 8th number) of the aggregate `cpu` line.
fn parse_steal(stat: &str) -> Option<u64> {
    let line = stat.lines().find(|l| l.starts_with("cpu "))?;
    line.split_whitespace().nth(8)?.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin() {
        let mut x = 1u64;
        for i in 0..20_000_000u64 {
            x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(i);
        }
        std::hint::black_box(x);
    }

    #[test]
    fn advance_with_work_and_not_with_sleep() {
        let (t0, p0) = (thread_cpu_ns(), process_cpu_ns());
        spin();
        let (t1, p1) = (thread_cpu_ns(), process_cpu_ns());
        assert!(t1 > t0 && p1 > p0, "no CPU time counted for a busy loop");
        std::thread::sleep(std::time::Duration::from_millis(50));
        assert!(
            thread_cpu_ns() - t1 < 20_000_000,
            "sleep counted as CPU time"
        );
    }

    #[test]
    fn steal_is_the_eighth_field_of_the_cpu_line() {
        let stat = "cpu  452139 0 39649 1121286 35425 0 9724 99085 0 0\n\
                    cpu0 213293 0 23184 568358 18907 0 3716 50852 0 0\n";
        assert_eq!(parse_steal(stat), Some(99085));
        assert_eq!(parse_steal("cpu0 1 2 3 4 5 6 7 8\n"), None);
        assert!(steal_s().is_none_or(|s| s >= 0.0));
    }

    #[test]
    fn process_clock_counts_other_threads() {
        let p0 = process_cpu_ns();
        let worker = std::thread::spawn(|| {
            let t0 = thread_cpu_ns();
            spin();
            thread_cpu_ns() - t0
        });
        let worker_ns = worker.join().expect("spinning thread");
        assert!(process_cpu_ns() - p0 >= worker_ns);
    }
}
