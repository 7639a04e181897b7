//! The clock reference: a register-only kernel whose time tracks the core
//! clock the run gets.
//!
//! On a shared host the core clock moves in steps with the load the
//! neighbours put on the socket (turbo bins of about 4% each), and the
//! simulator's host time moves with it: over a few minutes the fastest
//! pass of a fixed point set drifts by 15–25% while the instructions it
//! runs stay the same. Host-time metrics are therefore reported at one
//! fixed clock: raw wall-clock time × [`REFERENCE_NS`] ÷ the run's fastest
//! repetition of this kernel.
//!
//! The kernel is a dependent chain of shifts, xors and multiplies on one
//! register. It touches no memory, so nothing the simulator leaves in the
//! caches changes its speed, and it runs between passes, next to the
//! set-ups, never between two points of a pass.

use std::hint::black_box;
use std::time::Instant;

/// Steps of the dependent chain per repetition (about 0.5 ms).
const STEPS: u32 = 1 << 18;
/// Timed repetitions per sample.
const REPS: usize = 5;
/// The kernel's fastest repetition at the reference clock, in ns: a round
/// figure near the fastest seen on a 2-vCPU Xeon VM (505 µs).
pub const REFERENCE_NS: f64 = 5.0e5;

/// Every timed repetition of the kernel so far.
#[derive(Default)]
pub struct Reference {
    times_ns: Vec<u64>,
}

/// One repetition of the chain, from `seed`.
fn chain(seed: u64) -> u64 {
    let mut x = black_box(seed);
    for _ in 0..STEPS {
        // splitmix64's finalizer step: nothing for the compiler to fold.
        x = (x ^ (x >> 31)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    }
    black_box(x)
}

impl Reference {
    /// Takes one sample: [`REPS`] timed repetitions of the kernel.
    pub fn sample(&mut self) {
        for rep in 0..REPS {
            let started = Instant::now();
            chain(rep as u64 + 1);
            self.times_ns.push(started.elapsed().as_nanos() as u64);
        }
    }

    /// The fastest repetition so far, in ns (0 before any sample). Like a
    /// point's fastest pass, it is the run's least disturbed moment:
    /// descheduling and lower clocks only ever add time.
    pub fn fastest_ns(&self) -> u64 {
        self.times_ns.iter().copied().min().unwrap_or(0)
    }

    /// The factor that puts raw host times at the reference clock.
    pub fn scale(&self) -> f64 {
        match self.fastest_ns() {
            0 => 1.0,
            ns => REFERENCE_NS / ns as f64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_scale_follows_the_fastest_repetition() {
        let mut r = Reference::default();
        assert_eq!(r.scale(), 1.0);
        r.sample();
        assert_eq!(r.times_ns.len(), REPS);
        assert!(r.fastest_ns() > 0);
        r.times_ns = vec![4_000_000, 1_000_000, 3_000_000];
        assert_eq!(r.fastest_ns(), 1_000_000);
        assert_eq!(r.scale(), REFERENCE_NS / 1e6);
    }

    #[test]
    fn the_chain_depends_on_its_seed() {
        assert_ne!(chain(1), chain(2));
        assert_eq!(chain(1), chain(1));
    }
}
