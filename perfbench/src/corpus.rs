//! Seeded inputs: the case-study base profiles, one-counter perturbations
//! of them, and the random choices of each client.

use numa_machine::{Machine, MachinePreset};
use numa_profiler::{NumaProfile, ProfilerConfig};
use numa_sampling::{MechanismConfig, MechanismKind};
use numa_sim::ExecMode;

/// The paper's four case studies, by their `hpcrun-sim --workload` names.
pub const STUDIES: [&str; 4] = ["lulesh", "amg2006", "blackscholes", "umt2013"];

/// splitmix64: small, fast and fully determined by its seed.
#[derive(Clone)]
pub struct Rng(u64);

impl Rng {
    /// An independent stream for `stream` (a client thread, a round).
    pub fn fork(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            xs.swap(i, self.below(i + 1));
        }
    }
}

/// Profile one case study in-process exactly as `hpcrun-sim` does by
/// default: AMD Magny-Cours, IBS at period scale 64, 5 address bins,
/// sequential mode.
pub fn base_profile(study: &str, size: &str, threads: usize) -> NumaProfile {
    let workload = numa_tools::parse_workload(study, "baseline", size)
        .expect("the case-study names and sizes are valid");
    let machine = Machine::from_preset(MachinePreset::AmdMagnyCours);
    let config = ProfilerConfig::new(MechanismConfig::scaled(MechanismKind::Ibs, 64)).with_bins(5);
    let (_, _, profile) = numa_workloads::run_profiled(
        workload.as_ref(),
        machine,
        threads,
        ExecMode::Sequential,
        config,
    );
    profile
}

/// The four studies' base profiles at `size` with `threads` threads.
pub fn bases(size: &str, threads: usize) -> Vec<NumaProfile> {
    STUDIES
        .iter()
        .map(|s| base_profile(s, size, threads))
        .collect()
}

/// A distinct profile derived from `base` by changing one counter: the
/// instructions retired by one thread. `(idx, salt)` pairs map to
/// distinct `(thread, delta)` pairs, so distinct indices never collide.
pub fn perturb(base: &NumaProfile, idx: u64, salt: u64) -> NumaProfile {
    let mut p = base.clone();
    let n = p.threads.len() as u64;
    let t = &mut p.threads[(idx % n) as usize];
    t.instructions += 1 + salt + idx / n;
    p
}

/// Per-run salt for [`perturb`], so that each seed yields other profiles.
pub fn salt(seed: u64) -> u64 {
    Rng::fork(seed, 0x5a17).next_u64() % 1_000_000
}

/// Zipf(s) over ranks `0..n`: rank 0 is the most popular.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Zipf {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=n)
            .map(|k| {
                acc += 1.0 / (k as f64).powf(s);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_is_seeded() {
        let a: Vec<u64> = (0..4).map(|_| Rng::fork(7, 1).next_u64()).collect();
        assert!(a.windows(2).all(|w| w[0] == w[1]));
        assert_ne!(Rng::fork(7, 1).next_u64(), Rng::fork(7, 2).next_u64());
    }

    #[test]
    fn zipf_prefers_low_ranks() {
        let z = Zipf::new(100, 1.0);
        let mut rng = Rng::fork(1, 0);
        let hot = (0..10_000).filter(|_| z.sample(&mut rng) < 10).count();
        assert!(hot > 4_000, "top 10% of ranks drew {hot} of 10000");
    }
}
