//! Machine-speed calibration for the wall-clock metrics.
//!
//! On the shared two-vCPU machine the benchmark was built on, the same
//! simulator run took 83 µs per request at one hour and 157 µs at another,
//! and the MILP set-up 0.58 s against 1.10 s: the machine's speed drifts by
//! up to 2× over tens of minutes, far beyond any bound a regression check
//! can use.  The drift moved the single-threaded phases alike (the ratio of
//! the two figures above stayed within 6%), so the benchmark times a fixed
//! reference pass of its own before every set-up and every round and
//! reports wall-clock metrics scaled to a machine on which that pass takes
//! [`NOMINAL_MS`].  A set-up on two threads did not follow that pass; it
//! is scaled with the help of the same pass run on two threads at once
//! (see [`pass_ms`]).  The pass exercises what the simulator and planners
//! spend their time on — hashing, scattered memory access, sorting — and
//! calls no program code, so a change to the program cannot move it.

use crate::inputs::SplitMix64;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::BuildHasherDefault;
use std::hint::black_box;
use std::time::Instant;

/// Milliseconds one reference pass takes on the reference machine (the
/// fast phase of the machine the bounds were set on).
pub const NOMINAL_MS: f64 = 16.0;
/// Milliseconds of two reference passes at once, one on each of two
/// threads, on the reference machine: twice as long as one pass alone.
pub const NOMINAL_MS_TWO_THREADS: f64 = 32.0;

type Map = HashMap<u64, u64, BuildHasherDefault<DefaultHasher>>;

/// The buffers of one reference pass, kept from pass to pass so that a
/// pass allocates nothing: fresh allocations on a second thread added
/// 3.5 MiB to the peak RSS of some runs and not of others.
pub struct Scratch {
    map: Map,
    values: Vec<f64>,
}

impl Scratch {
    /// Buffers sized for one pass.
    pub fn new() -> Self {
        Scratch {
            // A fixed hasher: the default one is keyed afresh in every
            // process.
            map: HashMap::with_capacity_and_hasher(1 << 16, Default::default()),
            values: Vec::with_capacity(VALUES),
        }
    }
}

const VALUES: usize = 200_000;

/// Runs the reference pass once per buffer in `scratch`, on as many threads
/// at once, and returns the wall time until the last one finishes, in
/// milliseconds.
///
/// On the machine the bounds were set on, the speed of two threads at once
/// varied apart from the speed of one: in five machine states the
/// one-thread pass took about 29, 15, 15, 13 and 13 ms and the two-thread
/// pass 31, 33, 16, 13 and 27 ms.  The fleet's set-up, whose planner
/// anneals on two threads, took 2.45, 1.74, 1.43, 1.22 and 1.50 s.  Scaled
/// by the one-thread pass alone it spanned a 38% range; scaled by the
/// geometric mean of the two passes' slowdowns, 19%, so that is how its
/// `setup_s` is scaled.
/// Everything else, the fleet's runtime rounds included, is scaled by the
/// one-thread pass.
pub fn pass_ms(scratch: &mut [Scratch]) -> f64 {
    let start = Instant::now();
    match scratch {
        [one] => one_pass(one),
        many => std::thread::scope(|scope| {
            for s in many {
                scope.spawn(move || one_pass(s));
            }
        }),
    }
    start.elapsed().as_secs_f64() * 1e3
}

fn one_pass(s: &mut Scratch) {
    let mut rng = SplitMix64(7);
    let mut acc = 0u64;
    s.map.clear();
    for i in 0..300_000u64 {
        s.map.insert(rng.next() & 0xFFFF, i);
        acc ^= s.map.get(&(rng.next() & 0xFFFF)).copied().unwrap_or(0);
    }
    s.values.clear();
    s.values
        .extend((0..VALUES).map(|_| (rng.next() >> 11) as f64));
    s.values.sort_by(f64::total_cmp);
    black_box((acc, s.values[100]));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_pass_takes_a_few_milliseconds() {
        for threads in [1, 2] {
            let mut scratch: Vec<Scratch> = (0..threads).map(|_| Scratch::new()).collect();
            let ms = pass_ms(&mut scratch);
            assert!(ms > 0.1 && ms < 1000.0, "{ms} ms on {threads} threads");
        }
    }
}
