//! Host-side resource accounting through `getrusage(2)`, plus the host
//! description printed beside every result.
//!
//! Everything here is a system call or a CPU instruction; nothing reads
//! a file, so the benchmark touches no path outside its checkout.

use std::time::Duration;

#[repr(C)]
#[derive(Default, Clone, Copy)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` as laid out by Linux on 64-bit targets.
#[repr(C)]
#[derive(Default, Clone, Copy)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss: i64,
    ixrss: i64,
    idrss: i64,
    isrss: i64,
    minflt: i64,
    majflt: i64,
    nswap: i64,
    inblock: i64,
    oublock: i64,
    msgsnd: i64,
    msgrcv: i64,
    nsignals: i64,
    nvcsw: i64,
    nivcsw: i64,
}

#[repr(C)]
#[derive(Default)]
struct Timespec {
    sec: i64,
    nsec: i64,
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    fn sysconf(name: i32) -> i64;
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

const RUSAGE_SELF: i32 = 0;
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// A reading of this process's CPU clock (user plus system time).
///
/// The benchmark times its spans with this clock rather than the wall
/// clock: the simulation is single-threaded and CPU-bound, and CPU time
/// leaves out the intervals in which the host deschedules the virtual
/// CPU, the largest source of run-to-run noise on a shared machine.
#[derive(Debug, Clone, Copy)]
pub struct CpuInstant(f64);

impl CpuInstant {
    /// The CPU time consumed so far.
    pub fn now() -> CpuInstant {
        let mut ts = Timespec::default();
        // SAFETY: `ts` is a valid, writable `struct timespec` (two
        // 64-bit fields on 64-bit Linux) and the clock id is one the
        // kernel always supports; the call writes only into `ts`.
        let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
        assert_eq!(rc, 0, "the process CPU clock is always readable");
        CpuInstant(ts.sec as f64 + ts.nsec as f64 * 1e-9)
    }

    /// CPU seconds consumed since this reading.
    pub fn elapsed(&self) -> f64 {
        CpuInstant::now().0 - self.0
    }
}
const SC_NPROCESSORS_ONLN: i32 = 84;

/// One `getrusage(RUSAGE_SELF)` reading.
#[derive(Debug, Clone, Copy, Default)]
pub struct Usage {
    /// User CPU seconds.
    pub user_s: f64,
    /// System CPU seconds.
    pub sys_s: f64,
    /// Minor page faults.
    pub minflt: u64,
    /// Process resident-set high-water mark, MiB.
    pub maxrss_mb: f64,
}

impl Usage {
    /// Read the calling process's usage so far.
    pub fn now() -> Usage {
        let mut r = Rusage::default();
        // SAFETY: `r` is a valid, writable `struct rusage` of the layout
        // Linux expects on 64-bit targets, and RUSAGE_SELF is a valid
        // `who`; the call writes only into `r`.
        let rc = unsafe { getrusage(RUSAGE_SELF, &mut r) };
        assert_eq!(
            rc, 0,
            "getrusage(RUSAGE_SELF) cannot fail with valid arguments"
        );
        let secs = |t: Timeval| Duration::new(t.sec as u64, (t.usec * 1000) as u32).as_secs_f64();
        Usage {
            user_s: secs(r.utime),
            sys_s: secs(r.stime),
            minflt: r.minflt as u64,
            maxrss_mb: r.maxrss as f64 / 1024.0,
        }
    }

    /// Counters accumulated since `earlier` (the high-water mark is a
    /// level, not a counter, so it is taken from `self`).
    pub fn since(&self, earlier: &Usage) -> Usage {
        Usage {
            user_s: self.user_s - earlier.user_s,
            sys_s: self.sys_s - earlier.sys_s,
            minflt: self.minflt - earlier.minflt,
            maxrss_mb: self.maxrss_mb,
        }
    }
}

/// Online processors, as `nproc` reports them.
pub fn nproc() -> usize {
    // SAFETY: sysconf takes an integer selector and reads no memory of ours.
    let n = unsafe { sysconf(SC_NPROCESSORS_ONLN) };
    n.max(1) as usize
}

/// The CPU brand string from `cpuid`, or `unknown`.
pub fn cpu_model() -> String {
    #[cfg(target_arch = "x86_64")]
    {
        use std::arch::x86_64::__cpuid;
        // `cpuid` exists on every x86-64 processor; leaf 0x8000_0000
        // says whether the three brand-string leaves do.
        if __cpuid(0x8000_0000).eax < 0x8000_0004 {
            return "unknown".into();
        }
        let mut brand = Vec::with_capacity(48);
        for leaf in 0x8000_0002u32..=0x8000_0004 {
            let r = __cpuid(leaf);
            for w in [r.eax, r.ebx, r.ecx, r.edx] {
                brand.extend_from_slice(&w.to_le_bytes());
            }
        }
        let s = String::from_utf8_lossy(&brand);
        s.trim_matches(char::from(0)).trim().to_string()
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        "unknown".into()
    }
}
