//! Host speed, measured with a fixed reference computation.
//!
//! On a shared virtual machine the same work takes different time from
//! minute to minute: back-to-back runs of one seed drifted from 19.8 to
//! 15.8 queries/s, and CPU time drifts with wall time, so it is the cores
//! that slow down, not the scheduler. The benchmark therefore runs this
//! reference after every timed pass and scales its timings by
//! `NOMINAL_S / reference time`. The reference uses only the standard
//! library — a sort and a pointer chase over buffers built once — so no
//! change to the repository's code changes its cost.

use std::time::Instant;

/// The reference's time on the 2-vCPU Xeon host the bounds were set on;
/// scaled timings read as if the host ran at that speed.
pub const NOMINAL_S: f64 = 0.025;

/// Keys sorted per run.
const SORT_KEYS: usize = 1 << 17;
/// Slots of the random cycle chased per run (4 MiB of `u32`).
const CHASE_SLOTS: usize = 1 << 20;
/// Steps of the chase per run.
const CHASE_STEPS: usize = 800_000;

pub struct Reference {
    keys: Vec<u64>,
    sorted: Vec<u64>,
    next: Vec<u32>,
}

impl Reference {
    /// Builds the reference's inputs (deterministic, ~10 ms).
    pub fn new() -> Self {
        let mut state = 0x243F_6A88_85A3_08D3u64;
        let mut rand = move || {
            // SplitMix64.
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let keys: Vec<u64> = (0..SORT_KEYS).map(|_| rand()).collect();
        // Sattolo's shuffle: one cycle through every slot, so the chase
        // never settles into a short, cache-resident loop.
        let mut next: Vec<u32> = (0..CHASE_SLOTS as u32).collect();
        for k in (1..CHASE_SLOTS).rev() {
            let j = (rand() % k as u64) as usize;
            next.swap(k, j);
        }
        Reference {
            sorted: keys.clone(),
            keys,
            next,
        }
    }

    /// Runs the reference once; returns its wall time in seconds.
    pub fn run(&mut self) -> f64 {
        let t = Instant::now();
        self.sorted.copy_from_slice(&self.keys);
        self.sorted.sort_unstable();
        let mut slot = 0usize;
        for _ in 0..CHASE_STEPS {
            slot = self.next[slot] as usize;
        }
        std::hint::black_box((slot, &self.sorted));
        t.elapsed().as_secs_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_inputs_are_fixed_and_the_chase_is_one_cycle() {
        let mut a = Reference::new();
        let b = Reference::new();
        assert_eq!(a.keys, b.keys);
        assert_eq!(a.next, b.next);
        // Following `next` from slot 0 returns to 0 only after every slot.
        let mut slot = a.next[0] as usize;
        let mut steps = 1;
        while slot != 0 {
            slot = a.next[slot] as usize;
            steps += 1;
        }
        assert_eq!(steps, CHASE_SLOTS);
        assert!(a.run() > 0.0);
        assert!(a.sorted.windows(2).all(|w| w[0] <= w[1]));
    }
}
