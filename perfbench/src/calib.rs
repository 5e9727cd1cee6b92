//! Machine-speed calibration.
//!
//! The benchmark runs on shared machines whose speed drifts by tens of
//! percent within seconds, for reasons outside the program: other tenants,
//! frequency scaling, a busy hypervisor.  Between pieces of work, while the
//! program is idle, the run times a fixed reference loop on every CPU at
//! once, at least every [`SLICE_INTERVAL_S`].  The speed of the slices
//! nearest in time to a sample, relative to [`NOMINAL_RATE`], is that
//! sample's speed factor: its time is multiplied by it (a rate divided by
//! it), which turns it into what a machine running the reference loop at
//! exactly the nominal rate would have shown.  The loop is the benchmark's
//! own code and runs only when the program under test is idle, so no
//! change to the program can move a factor.
//!
//! Short slices rarely lose the CPU, so they read the speed of a CPU the
//! thread holds, not the share of it the thread gets.  Work the benchmark
//! times alone (single-thread cell passes, set-ups) is therefore timed on a
//! [`CpuClock`], which counts only the time the work ran: a slowdown from
//! time-sharing, in the guest or by the hypervisor (steal time), then shows
//! in neither the work nor the slice.

use std::hint::black_box;
use std::time::Instant;

/// Reference-loop instructions per second and thread that count as speed
/// 1.0 (about what an idle two-vCPU x86-64 VM reaches).
pub const NOMINAL_RATE: f64 = 4.9e8;

/// Instructions of one calibration slice per thread (about two
/// milliseconds).
const SLICE_ITERATIONS: u64 = 1_000_000;

/// [`Calibration::slice_here`] runs a shorter slice, often: before every
/// cell of a single-thread pass.
const HERE_DIVISOR: u64 = 4;

/// Seconds after which [`Calibration::slice_if_due`] takes a new slice.
pub const SLICE_INTERVAL_S: f64 = 0.1;

/// Slices whose median gives the factor of one moment.
const NEAREST_SLICES: usize = 5;

/// The CPU time clocks of `clock_gettime`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CpuTime {
    /// `CLOCK_PROCESS_CPUTIME_ID`: every thread of the process.
    Process = 2,
    /// `CLOCK_THREAD_CPUTIME_ID`: the calling thread.
    Thread = 3,
}

/// CPU seconds on `clock`, or `None` where it is missing.  Linux leaves
/// out of them the time a thread waited for a CPU and, on a
/// paravirtualized guest, the time the hypervisor ran something else on
/// the thread's virtual CPU.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
fn cpu_seconds(clock: CpuTime) -> Option<f64> {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `clock_gettime` from the C library std links against writes
    // one `timespec` (two 64-bit fields on 64-bit Linux) through a pointer
    // to a live, writable one.
    let rc = unsafe { clock_gettime(clock as i32, &mut ts) };
    (rc == 0).then_some(ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9)
}

/// CPU seconds: not available here.
#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
fn cpu_seconds(_clock: CpuTime) -> Option<f64> {
    None
}

/// The stopwatch of work the benchmark times alone: CPU time where the
/// platform has it, wall time otherwise (or when asked for).
#[derive(Debug, Clone, Copy)]
pub struct CpuClock {
    cpu: Option<CpuTime>,
    origin: Instant,
}

impl CpuClock {
    fn with(clock: Option<CpuTime>) -> Self {
        CpuClock {
            cpu: clock.filter(|&c| cpu_seconds(c).is_some()),
            origin: Instant::now(),
        }
    }

    /// The calling thread's CPU time.  Read it only on that thread.
    pub fn thread() -> Self {
        Self::with(Some(CpuTime::Thread))
    }

    /// The CPU time of all threads of the process, for work that may start
    /// threads of its own while nothing else in the process runs.
    pub fn process() -> Self {
        Self::with(Some(CpuTime::Process))
    }

    /// Wall time.
    pub fn wall() -> Self {
        Self::with(None)
    }

    /// Whether the clock counts CPU time (rather than wall time).
    pub fn is_cpu(&self) -> bool {
        self.cpu.is_some()
    }

    /// Seconds on the clock; only differences mean anything.
    pub fn seconds(&self) -> f64 {
        match self.cpu.and_then(cpu_seconds) {
            Some(s) => s,
            None => self.origin.elapsed().as_secs_f64(),
        }
    }
}

/// A register machine that interprets a fixed 64-instruction program:
/// fetch, decode, dispatch through a jump table, loads and stores in 8 KiB
/// of memory, data-dependent branches, and xorshift draws compared against
/// memory like the fault models' noise samples.  It is the same kind of
/// work as the ISS: when a second copy of that work shares the core, both
/// slow down alike, where a plain arithmetic loop slowed half as much.
/// Returns instructions per second of `clock`.
fn reference_loop(iterations: u64, clock: &CpuClock) -> f64 {
    let start = clock.seconds();
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut draw = || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let program: Vec<u32> = (0..64).map(|_| draw() as u32).collect();
    let mut mem: Vec<u32> = (0..2048).map(|_| draw() as u32).collect();
    let mut regs = [0u32; 16];
    let mut pc = 0usize;
    for _ in 0..iterations {
        let word = program[pc];
        let rd = (word >> 24 & 15) as usize;
        let ra = regs[(word >> 20 & 15) as usize];
        let rb = regs[(word >> 16 & 15) as usize];
        let imm = (word & 0xfff) as usize;
        pc = (pc + 1) & 63;
        match word >> 29 {
            0 => regs[rd] = ra.wrapping_add(rb),
            1 => regs[rd] = ra ^ (rb << (imm & 31)),
            2 => regs[rd] = mem[(ra as usize + imm) & 2047],
            3 => mem[(ra as usize + imm) & 2047] = rb,
            4 => regs[rd] = ra.wrapping_mul(rb | 1),
            5 => regs[rd] = u32::from((draw() as u32) < mem[imm & 2047]),
            6 => {
                if ra & 1 != 0 {
                    pc = (pc + imm) & 63;
                }
            }
            _ => regs[rd] = ra >> (rb & 31),
        }
    }
    black_box((regs, mem));
    iterations as f64 / (clock.seconds() - start)
}

/// The calibration slices of one run.
#[derive(Debug, Clone, Default)]
pub struct Calibration {
    slices: Vec<(Instant, f64)>,
}

impl Calibration {
    /// Times one slice of the reference loop on the calling thread with
    /// `clock`, the clock of the measurement it calibrates: the speed of
    /// the CPU that measurement runs on.  Call it only while the program
    /// under test is idle.
    pub fn slice_here(&mut self, clock: &CpuClock) {
        let at = Instant::now();
        self.slices
            .push((at, reference_loop(SLICE_ITERATIONS / HERE_DIVISOR, clock)));
    }

    /// Times one slice of the reference loop on every CPU at once and
    /// records the mean per-thread rate: the speed multi-thread work sees.
    /// Call it only while the program under test is idle.
    pub fn slice(&mut self) {
        let at = Instant::now();
        let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
        let rates: Vec<f64> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|_| scope.spawn(|| reference_loop(SLICE_ITERATIONS, &CpuClock::wall())))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("the reference loop does not panic"))
                .collect()
        });
        self.slices
            .push((at, rates.iter().sum::<f64>() / rates.len() as f64));
    }

    /// Takes a slice unless the last one is younger than
    /// [`SLICE_INTERVAL_S`].
    pub fn slice_if_due(&mut self) {
        let due = self
            .slices
            .last()
            .is_none_or(|(at, _)| at.elapsed().as_secs_f64() >= SLICE_INTERVAL_S);
        if due {
            self.slice();
        }
    }

    /// Slices taken.
    pub fn slices(&self) -> usize {
        self.slices.len()
    }

    /// The speed relative to nominal at `at`: the median rate of the
    /// slices nearest in time, ÷ [`NOMINAL_RATE`] (1.0 before any slice).
    pub fn factor_at(&self, at: Instant) -> f64 {
        let distance = |t: Instant| {
            if t > at {
                t - at
            } else {
                at - t
            }
        };
        // Slices are pushed in time order: the nearest ones lie within
        // NEAREST_SLICES of where `at` would be inserted.
        let index = self.slices.partition_point(|(t, _)| *t < at);
        let window =
            index.saturating_sub(NEAREST_SLICES)..(index + NEAREST_SLICES).min(self.slices.len());
        let mut nearest: Vec<&(Instant, f64)> = self.slices[window].iter().collect();
        nearest.sort_by_key(|(t, _)| distance(*t));
        let rates: Vec<f64> = nearest
            .iter()
            .take(NEAREST_SLICES)
            .map(|(_, rate)| *rate)
            .collect();
        crate::stats::median(&rates).map_or(1.0, |rate| rate / NOMINAL_RATE)
    }

    /// The median factor over every slice of the run.
    pub fn run_factor(&self) -> f64 {
        let rates: Vec<f64> = self.slices.iter().map(|(_, rate)| *rate).collect();
        crate::stats::median(&rates).map_or(1.0, |rate| rate / NOMINAL_RATE)
    }

    /// A duration measured at `at`, at nominal speed.
    pub fn seconds(&self, at: Instant, raw_s: f64) -> f64 {
        raw_s * self.factor_at(at)
    }

    /// A rate measured at `at`, at nominal speed.
    pub fn rate(&self, at: Instant, raw: f64) -> f64 {
        raw / self.factor_at(at)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factors_come_from_the_nearest_slices() {
        let mut cal = Calibration::default();
        let start = Instant::now();
        assert_eq!(cal.factor_at(start), 1.0);
        cal.slices = (0..10)
            .map(|i| {
                let rate = if i < 5 {
                    NOMINAL_RATE
                } else {
                    NOMINAL_RATE / 2.0
                };
                (start + std::time::Duration::from_secs(i), rate)
            })
            .collect();
        assert_eq!(cal.factor_at(start), 1.0);
        assert_eq!(
            cal.factor_at(start + std::time::Duration::from_secs(9)),
            0.5
        );
        assert_eq!(
            cal.seconds(start + std::time::Duration::from_secs(9), 2.0),
            1.0
        );
        assert_eq!(
            cal.rate(start + std::time::Duration::from_secs(9), 2.0),
            4.0
        );
        let mut live = Calibration::default();
        live.slice();
        live.slice_here(&CpuClock::thread());
        assert_eq!(live.slices(), 2);
        live.slice_if_due();
        assert_eq!(live.slices(), 2, "a fresh slice is not due yet");
        assert!(live.run_factor() > 0.0);
    }

    #[test]
    fn cpu_clocks_count_cpu_time_not_sleep() {
        let clock = CpuClock::thread();
        assert_eq!(clock.is_cpu(), cpu_seconds(CpuTime::Thread).is_some());
        assert_eq!(
            CpuClock::process().is_cpu(),
            cpu_seconds(CpuTime::Process).is_some()
        );
        assert!(!CpuClock::wall().is_cpu());
        let t0 = clock.seconds();
        std::thread::sleep(std::time::Duration::from_millis(50));
        let slept = clock.seconds() - t0;
        if clock.is_cpu() {
            assert!(slept < 0.025, "a sleeping thread ran {slept} s");
        } else {
            assert!(slept >= 0.05);
        }
        let t1 = clock.seconds();
        reference_loop(SLICE_ITERATIONS, &clock);
        assert!(clock.seconds() > t1, "work advances the clock");
    }
}
