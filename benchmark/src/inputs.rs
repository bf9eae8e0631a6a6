//! How the workload seed turns into inputs.
//!
//! Request lengths and arrival instants come from the workload generator
//! with fixed seeds; `--seed` then decides which request takes which
//! position.  Every seed therefore serves the same multiset of request
//! lengths at the same arrival instants, in a different order.  A fresh
//! length sample per seed moved the simulated figures of a 4000-request
//! trace by up to 40% from seed to seed (the simulator's batching and KV
//! pressure amplify small differences in total work), which would drown
//! the changes the benchmark exists to detect.

use helix::prelude::*;

/// Generator seed of the request lengths.
pub const LENGTH_SEED: u64 = 0x4C45_4E47;
/// Generator seed of the arrival instants.
pub const ARRIVAL_SEED: u64 = 0x4152_5256;

/// SplitMix64: a small, fixed pseudo-random sequence (the standard
/// library's hasher is randomised per process, so it cannot seed inputs).
pub struct SplitMix64(pub u64);

impl SplitMix64 {
    /// The next value of the sequence.
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// Shuffles `items` in place (Fisher–Yates), the same way for the same seed.
pub fn shuffle<T>(items: &mut [T], seed: u64) {
    let mut rng = SplitMix64(seed);
    for i in (1..items.len()).rev() {
        let j = (rng.next() % (i as u64 + 1)) as usize;
        items.swap(i, j);
    }
}

/// Deals the requests' `(prompt, output)` lengths out to new positions by
/// `seed`; ids, arrival times, models and tags stay where they were.
pub fn permute_lengths(workload: Workload, seed: u64) -> Workload {
    let mut lengths: Vec<(usize, usize)> = workload
        .iter()
        .map(|r| (r.prompt_tokens, r.output_tokens))
        .collect();
    shuffle(&mut lengths, seed);
    Workload::new(
        workload
            .iter()
            .zip(lengths)
            .map(|(r, (prompt_tokens, output_tokens))| Request {
                prompt_tokens,
                output_tokens,
                ..*r
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shuffle_permutes_and_repeats_per_seed() {
        let mut a: Vec<u32> = (0..100).collect();
        let mut b = a.clone();
        shuffle(&mut a, 7);
        shuffle(&mut b, 7);
        assert_eq!(a, b);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        let mut c: Vec<u32> = (0..100).collect();
        shuffle(&mut c, 8);
        assert_ne!(a, c);
    }

    #[test]
    fn permuting_keeps_the_multiset_and_the_arrivals() {
        let base = Workload::azure_like(300, LENGTH_SEED)
            .with_arrivals(ArrivalPattern::constant_rate(2.0), ARRIVAL_SEED);
        let permuted = permute_lengths(base.clone(), 11);
        assert_ne!(permuted, base);
        assert_eq!(permuted.total_output_tokens(), base.total_output_tokens());
        assert_eq!(permuted.total_prompt_tokens(), base.total_prompt_tokens());
        let arrivals = |w: &Workload| w.iter().map(|r| (r.id, r.arrival_time)).collect::<Vec<_>>();
        assert_eq!(arrivals(&permuted), arrivals(&base));
    }
}
