//! The benchmark's one wall-clock read, and the statistics over what it
//! measures.

use std::time::Instant;
use vecmem_banksim::steady::SteadyStateError;
use vecmem_exec::SteadyOutcome;

/// A started wall-clock timer.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch(Instant);

impl Stopwatch {
    /// Starts a timer.
    #[must_use]
    pub fn start() -> Self {
        // vecmem-lint: allow(L1) -- the benchmark's single wall-clock read; results never depend on it
        Self(Instant::now())
    }

    /// Seconds since the start.
    #[must_use]
    pub fn seconds(&self) -> f64 {
        self.0.elapsed().as_secs_f64()
    }

    /// Nanoseconds since the start.
    #[must_use]
    pub fn nanos(&self) -> u64 {
        u64::try_from(self.0.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }
}

/// Runs `f` and returns its result with the seconds it took.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let clock = Stopwatch::start();
    let out = f();
    (out, clock.seconds())
}

/// Seconds [`calibration_s`] takes on the reference host (a quiet 2-vCPU
/// x86-64 VM): scaled times are in the reference host's seconds.
pub const REFERENCE_CALIBRATION_S: f64 = 0.00155;

/// How long a segment of a timed block runs before [`Segments`]
/// calibrates again.
const SEGMENT_S: f64 = 0.1;

/// Times a fixed, throughput-bound integer loop (four interleaved
/// multiply-add chains, about 1.5 ms). The loop lives here, not in the
/// measured program, so no change to the program moves it; what moves it
/// is the host. On a shared VM, tenants contending for the core slow the
/// solver by up to 2× for seconds to minutes at a time, and this loop
/// slows with it (a latency-bound loop or a small cache-resident
/// simulation does not).
#[must_use]
pub fn calibration_s() -> f64 {
    let n = std::hint::black_box(1_000_000u64);
    let (_, secs) = timed(|| {
        let (mut a, mut b, mut c, mut d) = (1u64, 2u64, 3u64, 4u64);
        for i in 0..n {
            a = a.wrapping_mul(0x5851_F42D_4C95_7F2D).wrapping_add(i);
            b = b.wrapping_mul(0x27BB_2EE6_87B0_B0FD).wrapping_add(a >> 7);
            c = (c ^ b).rotate_left(13).wrapping_add(i);
            d = d.wrapping_add(c).wrapping_mul(0x2C6F_E96E_E78B_6955);
        }
        std::hint::black_box(a ^ b ^ c ^ d)
    });
    secs
}

/// A timed block cut into segments of about [`SEGMENT_S`] with a
/// calibration between consecutive segments. Every time measured in a
/// segment is scaled to reference-host seconds by
/// [`REFERENCE_CALIBRATION_S`] over the mean of the calibrations on either
/// side of it.
#[derive(Debug)]
pub struct Segments {
    before: f64,
    clock: Stopwatch,
    pending: Vec<f64>,
    timing: Timing,
}

/// What a [`Segments`] block measured.
#[derive(Debug, Clone, Default)]
pub struct Timing {
    /// Host seconds of the whole block, calibrations excluded.
    pub raw_s: f64,
    /// The same, in reference-host seconds.
    pub scaled_s: f64,
    /// Each [`Segments::sample`], in reference-host seconds, in order.
    pub samples_s: Vec<f64>,
}

impl Segments {
    /// Calibrates and starts the first segment.
    #[must_use]
    pub fn start() -> Self {
        let before = calibration_s();
        Self {
            before,
            clock: Stopwatch::start(),
            pending: Vec::new(),
            timing: Timing::default(),
        }
    }

    /// Runs and times `f` as one sample; closes the segment after it once
    /// the segment has run for [`SEGMENT_S`].
    pub fn sample<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let (out, secs) = timed(f);
        self.pending.push(secs);
        if self.clock.seconds() >= SEGMENT_S {
            self.close();
        }
        out
    }

    fn close(&mut self) {
        let raw = self.clock.seconds();
        let after = calibration_s();
        let host = 2.0 * REFERENCE_CALIBRATION_S / (self.before + after);
        self.timing.raw_s += raw;
        self.timing.scaled_s += raw * host;
        self.timing
            .samples_s
            .extend(self.pending.drain(..).map(|s| s * host));
        self.before = after;
        self.clock = Stopwatch::start();
    }

    /// Closes the last segment.
    #[must_use]
    pub fn finish(mut self) -> Timing {
        self.close();
        self.timing
    }
}

/// Runs `f` as a one-sample [`Segments`] block: its result and the factor
/// that turns host seconds measured during it into reference-host
/// seconds.
pub fn calibrated<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let mut block = Segments::start();
    let out = block.sample(f);
    let timing = block.finish();
    (out, timing.scaled_s / timing.raw_s)
}

/// Median of `values` (the mean of the two middle ones for an even count);
/// 0 for an empty slice.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The `q`-quantile of `values` by linear interpolation between order
/// statistics (the usual "type 7" definition); 0 for an empty slice.
#[must_use]
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// FNV-1a digest over a stream of `u64` words: equal inputs in equal order
/// give equal digests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Folds one word in.
    pub fn word(&mut self, x: u64) {
        for byte in x.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// Folds in a string.
    pub fn text(&mut self, s: &str) {
        self.word(s.len() as u64);
        for chunk in s.as_bytes().chunks(8) {
            let mut buf = [0u8; 8];
            buf[..chunk.len()].copy_from_slice(chunk);
            self.word(u64::from_le_bytes(buf));
        }
    }

    /// Folds in the checked statistics of a steady-state outcome: b_eff,
    /// per-port bandwidth and the exact flag. Period, transient and
    /// conflicts are left out on purpose: a minimal-period encoding
    /// changes them legitimately.
    pub fn steady(&mut self, outcome: &SteadyOutcome) {
        match outcome {
            Ok(ss) => {
                self.word(ss.beff.num());
                self.word(ss.beff.den());
                for r in &ss.per_port {
                    self.word(r.num());
                    self.word(r.den());
                }
                self.word(u64::from(ss.exact));
            }
            Err(SteadyStateError::NotConverged { cycles }) => {
                self.word(u64::MAX);
                self.word(*cycles);
            }
        }
    }

    /// The digest value.
    #[must_use]
    pub fn value(&self) -> u64 {
        self.0
    }
}
