//! The run-epoch clock: raw TSC where the hardware guarantees it, a
//! monotonic OS clock everywhere else.
//!
//! All events in a trace are stamped with nanoseconds since a single
//! *run epoch* captured when the collector is created. Two backends
//! provide that stamp:
//!
//! * **TSC** (x86_64 only): a plain `rdtsc` read plus a fixed-point
//!   cycles→ns multiply, ~10–30 cycles per stamp. Selected only when
//!   CPUID advertises an *invariant* TSC (leaf `0x8000_0007`, EDX bit 8:
//!   the counter runs at a constant rate regardless of P-/C-states). On
//!   hardware with the invariant bit set the OS relies on the TSC being
//!   synchronized across cores of a package (it is the kernel's own
//!   `sched_clock` source), so timestamps taken on different workers are
//!   directly comparable — there is still **no per-worker calibration**,
//!   only one process-global cycles→ns fit performed once (see below).
//!
//!   `rdtsc` is deliberately unfenced: the serialized variants
//!   (`rdtscp`, `lfence; rdtsc`) wait for prior instructions to retire,
//!   which measures ~2× slower on virtualized hosts, and the ordering
//!   they buy is irrelevant here — consecutive emissions on one worker
//!   are separated by far more than the out-of-order window, and the
//!   counter itself never decreases. `clock_is_monotonic` guards the
//!   per-worker monotonicity claim with a tight back-to-back read loop.
//! * **Instant** (fallback): `std::time::Instant`, guaranteed monotonic
//!   and global (CLOCK_MONOTONIC / QueryPerformanceCounter) but a vDSO
//!   call per stamp — an order of magnitude slower than a TSC read.
//!   Used on non-x86_64 targets, when CPUID lacks the invariant-TSC
//!   bit, or when calibration fails a sanity check. There is no override:
//!   the two checks choose the backend (tests cover the fallback through
//!   `TraceClock::start_instant`).
//!
//! **Calibration handshake.** The first `TraceClock::start()` in the
//! process fits cycles→ns against `Instant`: it brackets a ~2 ms
//! busy-wait with paired (`Instant`, TSC) samples and derives a 32.32
//! fixed-point multiplier `mult = ns·2³² / cycles`, cached in a
//! process-global `OnceLock`. A stamp is then
//! `((tsc − epoch_cycles)·mult) >> 32`. The fit is rejected (falling
//! back to `Instant`) if the implied frequency is outside 100 MHz–10 GHz.
//! The handshake runs inside collector creation, *before* the engine
//! starts its wall-clock measurement, and only once per process — so
//! repeated traced runs pay nothing.
//!
//! Each worker still reads the clock itself (no shared mutable state),
//! so stamping stays wait-free on both backends.
//!
//! The simulator bypasses this clock entirely and stamps events with its
//! virtual time via `TraceCollector::emit_at`.

use std::sync::OnceLock;
use std::time::Instant;

/// The calibrated TSC parameters shared by every clock in the process,
/// or `None` when the TSC backend is unusable. Computed at most once.
static TSC_MULT: OnceLock<Option<u64>> = OnceLock::new();

/// A shared run epoch; `now()` is nanoseconds since it.
#[derive(Debug, Clone, Copy)]
pub struct TraceClock {
    /// Fallback epoch, also the fit reference during calibration.
    epoch: Instant,
    /// `Some((epoch_cycles, mult))` when the TSC backend is active.
    tsc: Option<(u64, u64)>,
}

impl TraceClock {
    /// Capture the run epoch, selecting the TSC backend when the
    /// hardware supports it (see the module docs for the criteria).
    pub fn start() -> TraceClock {
        let epoch = Instant::now();
        let tsc = tsc_mult().map(|mult| (read_tsc(), mult));
        TraceClock { epoch, tsc }
    }

    /// Capture the run epoch with the `Instant` backend unconditionally.
    /// Used by tests, to cover both backends on one machine.
    pub fn start_instant() -> TraceClock {
        TraceClock {
            epoch: Instant::now(),
            tsc: None,
        }
    }

    /// Which backend this clock stamps with: `"tsc"` or `"instant"`.
    pub fn backend(&self) -> &'static str {
        if self.tsc.is_some() {
            "tsc"
        } else {
            "instant"
        }
    }

    /// Nanoseconds elapsed since the epoch. Saturates at `u64::MAX`
    /// (≈ 584 years), which is unreachable in practice.
    #[inline]
    pub fn now(&self) -> u64 {
        match self.tsc {
            Some((epoch_cycles, mult)) => {
                let delta = read_tsc().wrapping_sub(epoch_cycles);
                ((u128::from(delta) * u128::from(mult)) >> 32) as u64
            }
            None => {
                let d = self.epoch.elapsed();
                d.as_secs()
                    .saturating_mul(1_000_000_000)
                    .saturating_add(u64::from(d.subsec_nanos()))
            }
        }
    }
}

/// The process-global cycles→ns multiplier (32.32 fixed point), or
/// `None` when the TSC backend must not be used.
fn tsc_mult() -> Option<u64> {
    *TSC_MULT.get_or_init(|| tsc_usable().then(calibrate).flatten())
}

/// Fit cycles→ns against `Instant` over a short busy-wait. Returns the
/// 32.32 fixed-point multiplier, or `None` if the fit is implausible.
#[cfg(target_arch = "x86_64")]
fn calibrate() -> Option<u64> {
    let i0 = Instant::now();
    let c0 = read_tsc();
    // Busy-wait (not sleep): a sleep's wake-up latency would not hurt the
    // ratio, but spinning keeps the handshake at ~2 ms deterministically.
    while i0.elapsed().as_micros() < 2_000 {
        std::hint::spin_loop();
    }
    let i1 = Instant::now();
    let c1 = read_tsc();
    let ns = i1.duration_since(i0).as_nanos() as u64;
    let cycles = c1.wrapping_sub(c0);
    if cycles == 0 || ns == 0 {
        return None;
    }
    // Implied frequency must be sane (100 MHz .. 10 GHz) or the "TSC"
    // we read is not a cycle counter worth trusting.
    let hz = u128::from(cycles) * 1_000_000_000 / u128::from(ns);
    if !(100_000_000..10_000_000_000u128).contains(&hz) {
        return None;
    }
    Some(((u128::from(ns) << 32) / u128::from(cycles)) as u64)
}

#[cfg(not(target_arch = "x86_64"))]
fn calibrate() -> Option<u64> {
    None
}

/// Does CPUID advertise an invariant TSC?
#[cfg(target_arch = "x86_64")]
fn tsc_usable() -> bool {
    use std::arch::x86_64::__cpuid;
    // CPUID is unprivileged and universally available on x86_64 (the
    // intrinsic is safe); leaves past the reported maximum return junk,
    // so probe the extended range first.
    let max_ext = __cpuid(0x8000_0000).eax;
    if max_ext < 0x8000_0007 {
        return false;
    }
    __cpuid(0x8000_0007).edx & (1 << 8) != 0
}

#[cfg(not(target_arch = "x86_64"))]
fn tsc_usable() -> bool {
    false
}

/// Read the time-stamp counter, unfenced (see the module docs for why
/// the serialized variants are not worth their cost here).
#[cfg(target_arch = "x86_64")]
#[inline]
fn read_tsc() -> u64 {
    // SAFETY: RDTSC is baseline x86_64 (no CPUID gate needed); it has no
    // memory operands and no preconditions beyond ISA support.
    unsafe { std::arch::x86_64::_rdtsc() }
}

#[cfg(not(target_arch = "x86_64"))]
#[inline]
fn read_tsc() -> u64 {
    unreachable!("TSC backend is never selected off x86_64")
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Both constructors; on non-TSC hardware the two collapse to the
    /// same backend and the loop still covers it.
    fn both_backends() -> [TraceClock; 2] {
        [TraceClock::start(), TraceClock::start_instant()]
    }

    #[test]
    fn clock_is_monotonic() {
        for clock in both_backends() {
            let mut prev = clock.now();
            for _ in 0..1000 {
                let t = clock.now();
                assert!(t >= prev, "{} backend went backwards", clock.backend());
                prev = t;
            }
        }
    }

    #[test]
    fn copies_share_the_epoch() {
        for clock in both_backends() {
            let copy = clock;
            std::thread::sleep(std::time::Duration::from_millis(1));
            let a = clock.now();
            let b = copy.now();
            // Both read the same epoch, so they must be within a tight
            // window of each other and both past the sleep.
            assert!(a >= 1_000_000 && b >= 1_000_000);
            assert!(a.abs_diff(b) < 1_000_000_000);
        }
    }

    #[test]
    fn backends_agree_on_elapsed_time() {
        // The TSC fit must track Instant within a few percent over a
        // visible interval; trivially true when both are Instant.
        let clock = TraceClock::start();
        let reference = Instant::now();
        std::thread::sleep(std::time::Duration::from_millis(20));
        let t = clock.now();
        let r = reference.elapsed().as_nanos() as u64;
        let drift = t.abs_diff(r);
        assert!(
            drift < r / 10 + 2_000_000,
            "{} backend drifted: clock={t}ns reference={r}ns",
            clock.backend()
        );
    }

    #[test]
    fn cross_thread_stamps_respect_causality() {
        // Cross-worker comparability: a stamp taken after receiving a
        // message must not precede the stamp taken before sending it.
        for clock in both_backends() {
            let (tx, rx) = std::sync::mpsc::channel::<u64>();
            let join = std::thread::spawn(move || {
                let mut received = Vec::new();
                for before in rx {
                    let after = clock.now();
                    received.push((before, after));
                }
                received
            });
            for _ in 0..200 {
                tx.send(clock.now()).unwrap();
            }
            drop(tx);
            for (before, after) in join.join().unwrap() {
                assert!(
                    after >= before,
                    "{} backend violated causality across threads",
                    clock.backend()
                );
            }
        }
    }

    #[test]
    fn backend_name_is_reported() {
        assert_eq!(TraceClock::start_instant().backend(), "instant");
        let auto = TraceClock::start();
        assert!(auto.backend() == "tsc" || auto.backend() == "instant");
    }
}
