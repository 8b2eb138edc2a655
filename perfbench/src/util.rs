//! Pure helpers the benchmark's verdicts rest on: a seeded PRNG, the
//! open-loop arrival schedule, Zipf popularity, percentiles, the
//! backlog-growth test, the rung verdict and the result digest.

/// splitmix64: small, fast and fully determined by its seed.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Self(seed ^ 0x9e37_79b9_7f4a_7c15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)` with 53 random bits.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_f64() * n as f64) as usize % n.max(1)
    }

    /// A derived, independent stream (for per-purpose sub-seeds).
    pub fn fork(&mut self, tag: u64) -> Rng {
        Rng::new(self.next_u64() ^ tag.wrapping_mul(0xd6e8_feb8_6659_fd93))
    }
}

/// Due times (ns from the start of a rung) of a Poisson arrival process
/// at `rate` per second over `seconds`: independent senders that do not
/// wait for the server.
pub fn poisson_schedule(rng: &mut Rng, rate: f64, seconds: f64) -> Vec<u64> {
    assert!(rate > 0.0 && seconds > 0.0, "rate and duration must be positive");
    let horizon = seconds * 1e9;
    let mean_gap = 1e9 / rate;
    let mut due = Vec::with_capacity((rate * seconds * 1.1) as usize + 16);
    let mut t = 0.0f64;
    loop {
        // Inverse-CDF exponential gap; 1 - u keeps the log argument > 0.
        t += -mean_gap * (1.0 - rng.next_f64()).ln();
        if t >= horizon {
            return due;
        }
        due.push(t as u64);
    }
}

/// Zipf(s) popularity over `n` ranks: rank `i` has weight `1 / (i+1)^s`.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "Zipf needs at least one rank");
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (0..n)
            .map(|i| {
                acc += 1.0 / ((i + 1) as f64).powf(s);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Self { cdf }
    }

    /// A rank in `0..n`.
    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.next_f64();
        self.cdf.partition_point(|&c| c <= u).min(self.cdf.len() - 1)
    }
}

/// Nearest-rank percentile of an ascending slice (`q` in `[0, 1]`).
pub fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of unsorted values (mean of the middle pair for even counts).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Whether the outstanding-request backlog grew across a rung.
///
/// `samples` holds the backlog seen at each send, in send order. The
/// median of the rung's last quarter must not exceed twice the median of
/// its first quarter plus `slack` requests: a stable queue fluctuates
/// around a level, an overloaded one climbs for the whole rung, and a
/// single stall of the machine moves neither median much.
pub fn backlog_grew(samples: &[u32], slack: f64) -> bool {
    if samples.len() < 8 {
        return false;
    }
    let q = samples.len() / 4;
    let med = |s: &[u32]| median(&s.iter().map(|&x| x as f64).collect::<Vec<_>>());
    med(&samples[samples.len() - q..]) > 2.0 * med(&samples[..q]) + slack
}

/// One rung's verdict inputs.
#[derive(Debug, Clone, Copy)]
pub struct RungVerdict {
    pub p99_ns: u64,
    pub attempted: u64,
    pub failed: u64,
    pub backlog_grew: bool,
}

/// The serving limit every rung must meet: p99 from the due time.
pub const P99_LIMIT_NS: u64 = 20_000_000;
/// The largest failed share a sustainable rung may have.
pub const MAX_ERROR_RATE: f64 = 0.001;

impl RungVerdict {
    /// p99 within the limit, errors within the limit, backlog stable.
    pub fn sustainable(&self) -> bool {
        self.attempted > 0
            && self.p99_ns <= P99_LIMIT_NS
            && (self.failed as f64) <= MAX_ERROR_RATE * self.attempted as f64
            && !self.backlog_grew
    }
}

/// FNV-1a over a stream of 64-bit words: the golden-digest fold.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x1_0000_0000_01b3);
        }
    }

    pub fn f64(&mut self, x: f64) {
        self.word(x.to_bits());
    }

    pub fn opt(&mut self, x: Option<f64>) {
        match x {
            Some(v) => self.f64(v),
            None => self.word(u64::MAX),
        }
    }

    pub fn value(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_is_seeded() {
        let a: Vec<u64> = (0..4)
            .map({
                let mut r = Rng::new(7);
                move |_| r.next_u64()
            })
            .collect();
        let b: Vec<u64> = (0..4)
            .map({
                let mut r = Rng::new(7);
                move |_| r.next_u64()
            })
            .collect();
        let c = Rng::new(8).next_u64();
        assert_eq!(a, b);
        assert_ne!(a[0], c);
        let mut r = Rng::new(1);
        assert!((0..1000).all(|_| (0.0..1.0).contains(&r.next_f64())));
    }

    #[test]
    fn schedule_is_sorted_seeded_and_near_rate() {
        let s1 = poisson_schedule(&mut Rng::new(3), 10_000.0, 2.0);
        let s2 = poisson_schedule(&mut Rng::new(3), 10_000.0, 2.0);
        assert_eq!(s1, s2, "same seed, same schedule");
        assert!(s1.windows(2).all(|w| w[0] <= w[1]), "due times ascend");
        assert!(s1.iter().all(|&t| t < 2_000_000_000));
        // 20k expected arrivals; a Poisson count is within 5 sigma.
        let n = s1.len() as f64;
        assert!((n - 20_000.0).abs() < 5.0 * 20_000f64.sqrt(), "count {n}");
        let s3 = poisson_schedule(&mut Rng::new(4), 10_000.0, 2.0);
        assert_ne!(s1, s3);
    }

    #[test]
    fn zipf_prefers_low_ranks() {
        let z = Zipf::new(1000, 1.0);
        let mut rng = Rng::new(5);
        let mut counts = vec![0u32; 1000];
        for _ in 0..100_000 {
            counts[z.sample(&mut rng)] += 1;
        }
        // Rank 0 has weight 1/H(1000) ~ 13.4% of the mass; rank 1 half that.
        assert!((12_000..15_000).contains(&counts[0]), "rank 0: {}", counts[0]);
        assert!((5_500..7_800).contains(&counts[1]), "rank 1: {}", counts[1]);
        assert!(counts[999] < 100);
        assert!(counts.iter().sum::<u32>() == 100_000);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.5), 50);
        assert_eq!(percentile(&v, 0.99), 99);
        assert_eq!(percentile(&v, 1.0), 100);
        assert_eq!(percentile(&v, 0.0), 1);
        assert_eq!(percentile(&[], 0.5), 0);
        assert_eq!(percentile(&[42], 0.99), 42);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn backlog_growth_detects_a_climbing_queue() {
        let stable: Vec<u32> = (0..1000).map(|i| 3 + (i % 5)).collect();
        assert!(!backlog_grew(&stable, 4.0));
        let climbing: Vec<u32> = (0..1000).map(|i| i / 10).collect();
        assert!(backlog_grew(&climbing, 4.0));
        assert!(!backlog_grew(&[0, 9, 9], 4.0), "too few samples to judge");
        // A burst late in the rung is not growth.
        let mut burst = stable.clone();
        for x in &mut burst[900..960] {
            *x = 200;
        }
        assert!(!backlog_grew(&burst, 4.0));
    }

    #[test]
    fn a_rung_must_meet_every_condition() {
        let ok = RungVerdict { p99_ns: 500_000, attempted: 10_000, failed: 0, backlog_grew: false };
        assert!(ok.sustainable());
        assert!(!RungVerdict { p99_ns: P99_LIMIT_NS + 1, ..ok }.sustainable());
        assert!(RungVerdict { failed: 10, ..ok }.sustainable(), "0.1% is allowed");
        assert!(!RungVerdict { failed: 11, ..ok }.sustainable());
        assert!(!RungVerdict { backlog_grew: true, ..ok }.sustainable());
        assert!(!RungVerdict { attempted: 0, ..ok }.sustainable());
    }

    #[test]
    fn digest_is_order_sensitive() {
        let mut a = Digest::default();
        a.f64(1.0);
        a.f64(2.0);
        let mut b = Digest::default();
        b.f64(2.0);
        b.f64(1.0);
        assert_ne!(a.value(), b.value());
        let mut c = Digest::default();
        c.opt(None);
        assert_ne!(c.value(), Digest::default().value());
    }
}
