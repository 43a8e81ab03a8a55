//! Synthetic trace generation calibrated to the paper's workload statistics.

use swl_core::rng::SplitMix64;

use crate::event::{HostNanos, TraceEvent, NANOS_PER_SEC};
use crate::zipf::Zipf;

/// Gap between the page writes of one burst (10 µs — a host flushing a
/// multi-sector request back to back).
const INTRA_BURST_GAP_NS: u64 = 10_000;

/// Default pages per placement chunk (see [`WorkloadSpec::chunk_pages`]).
const DEFAULT_CHUNK_PAGES: u64 = 16;

/// Parameters of the synthetic workload.
///
/// [`WorkloadSpec::paper`] reproduces the published statistics of the
/// paper's one-month mobile-PC trace; every field can be overridden to
/// explore robustness.
///
/// # Example
///
/// ```
/// use flash_trace::WorkloadSpec;
///
/// let spec = WorkloadSpec::paper(524_288)
///     .with_seed(42)
///     .with_rates(3.0, 1.0);
/// assert_eq!(spec.writes_per_sec, 3.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadSpec {
    /// Size of the logical page space the host addresses.
    pub logical_pages: u64,
    /// Fraction of the logical space that is ever written (paper: 0.3662).
    pub written_fraction: f64,
    /// Average page writes per second (paper: 1.82).
    pub writes_per_sec: f64,
    /// Average page reads per second (paper: 1.97).
    pub reads_per_sec: f64,
    /// Fraction of the written footprint that is hot.
    pub hot_fraction: f64,
    /// Fraction of the written footprint that is *frozen*: written exactly
    /// once by the fill sequence ([`WorkloadSpec::fill_events`]) and never
    /// updated afterwards — the truly cold data (media files, binaries)
    /// whose pinned blocks motivate static wear leveling.
    pub frozen_fraction: f64,
    /// Probability that a write burst targets the hot set.
    pub hot_write_prob: f64,
    /// Zipf exponent of the skew inside the hot set.
    pub zipf_exponent: f64,
    /// Mean pages per write burst (geometric distribution).
    pub mean_burst_pages: f64,
    /// Enables a diurnal activity envelope (busy days, quiet nights).
    pub diurnal: bool,
    /// RNG seed for arrival randomness; same seed ⇒ identical trace.
    pub seed: u64,
    /// Seed for data *placement* (footprint scatter). Kept separate from
    /// `seed` so segment resampling can vary arrivals while every segment
    /// touches the same logical footprint, exactly as replaying windows of
    /// one concrete trace would.
    pub placement_seed: u64,
    /// Pages per placement chunk: the footprint is scattered across the
    /// logical space in aligned chunks of this size, so short sequential
    /// bursts stay sequential while the footprint as a whole is spread out
    /// the way filesystem allocation spreads files. Smaller chunks scatter
    /// hot data over more NFTL virtual blocks (more merge pressure).
    pub chunk_pages: u64,
}

impl WorkloadSpec {
    /// The paper's workload over a logical space of `logical_pages` pages.
    ///
    /// Hot/cold structure follows the paper's qualitative description
    /// (hot data "often written in burst", non-hot data several times the
    /// hot amount, per the cited SiliconSystems study): 12.5 % of the
    /// written footprint receives 90 % of the writes.
    pub fn paper(logical_pages: u64) -> Self {
        Self {
            logical_pages,
            written_fraction: 0.3662,
            writes_per_sec: 1.82,
            reads_per_sec: 1.97,
            hot_fraction: 0.125,
            frozen_fraction: 0.75,
            hot_write_prob: 0.90,
            zipf_exponent: 0.95,
            mean_burst_pages: 8.0,
            diurnal: false,
            seed: 0,
            placement_seed: 0,
            chunk_pages: DEFAULT_CHUNK_PAGES,
        }
    }

    /// Replaces both the arrival and placement seeds.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self.placement_seed = seed;
        self
    }

    /// Replaces only the arrival seed, keeping data placement fixed.
    /// This is what segment resampling uses: different randomness, same
    /// footprint.
    pub fn with_arrival_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Replaces the write/read rates (per second).
    pub fn with_rates(mut self, writes_per_sec: f64, reads_per_sec: f64) -> Self {
        self.writes_per_sec = writes_per_sec;
        self.reads_per_sec = reads_per_sec;
        self
    }

    /// Replaces the hot-set shape.
    pub fn with_hot_set(mut self, hot_fraction: f64, hot_write_prob: f64) -> Self {
        self.hot_fraction = hot_fraction;
        self.hot_write_prob = hot_write_prob;
        self
    }

    /// Replaces the frozen fraction of the footprint.
    pub fn with_frozen_fraction(mut self, frozen_fraction: f64) -> Self {
        self.frozen_fraction = frozen_fraction;
        self
    }

    /// Replaces the placement chunk size.
    pub fn with_chunk_pages(mut self, chunk_pages: u64) -> Self {
        self.chunk_pages = chunk_pages;
        self
    }

    /// Enables or disables the diurnal activity envelope.
    pub fn with_diurnal(mut self, diurnal: bool) -> Self {
        self.diurnal = diurnal;
        self
    }

    /// Number of distinct pages that will ever be written.
    pub fn footprint_pages(&self) -> u64 {
        ((self.logical_pages as f64 * self.written_fraction) as u64).clamp(1, self.logical_pages)
    }

    /// Number of frozen (write-once) pages at the top of the footprint.
    pub fn frozen_pages(&self) -> u64 {
        ((self.footprint_pages() as f64 * self.frozen_fraction) as u64)
            .min(self.footprint_pages().saturating_sub(1))
    }

    /// Number of updatable pages (hot + warm) at the bottom of the
    /// footprint.
    pub fn updatable_pages(&self) -> u64 {
        self.footprint_pages() - self.frozen_pages()
    }

    /// Number of pages in the hot set.
    pub fn hot_pages(&self) -> u64 {
        ((self.footprint_pages() as f64 * self.hot_fraction) as u64)
            .clamp(1, self.updatable_pages())
    }

    /// The one-time fill: every footprint page written once at time zero
    /// (dense nanosecond spacing), putting the device in the aged state a
    /// month-old filesystem would have before the steady-state trace runs.
    /// Chain it in front of the trace:
    ///
    /// ```
    /// use flash_trace::{SyntheticTrace, WorkloadSpec};
    ///
    /// let spec = WorkloadSpec::paper(4096).with_seed(1);
    /// let mut full = spec
    ///     .fill_events()
    ///     .chain(SyntheticTrace::new(spec.clone()));
    /// assert!(full.next().is_some());
    /// ```
    pub fn fill_events(&self) -> FillSequence {
        self.validate();
        FillSequence {
            scatter: ChunkScatter::new(
                self.logical_pages,
                self.chunk_pages,
                self.placement_seed ^ 0x5EED_CAFE,
            ),
            logical_pages: self.logical_pages,
            footprint: self.footprint_pages(),
            next: 0,
        }
    }

    fn validate(&self) {
        assert!(self.logical_pages > 0, "logical space must be non-empty");
        assert!(
            (0.0..=1.0).contains(&self.written_fraction) && self.written_fraction > 0.0,
            "written_fraction must be in (0, 1]"
        );
        assert!(self.writes_per_sec > 0.0, "write rate must be positive");
        assert!(self.reads_per_sec >= 0.0, "read rate must be non-negative");
        assert!(
            (0.0..=1.0).contains(&self.hot_write_prob),
            "hot_write_prob must be a probability"
        );
        assert!(
            self.hot_fraction > 0.0 && self.hot_fraction <= 1.0,
            "hot_fraction must be in (0, 1]"
        );
        assert!(
            (0.0..=1.0).contains(&self.frozen_fraction),
            "frozen_fraction must be in [0, 1]"
        );
        assert!(
            self.mean_burst_pages >= 1.0,
            "bursts hold at least one page"
        );
    }
}

/// Scatters footprint chunks across the logical space with an affine
/// bijection `c ↦ (a·c + b) mod n` over chunk indices.
#[derive(Debug, Clone)]
struct ChunkScatter {
    chunk_pages: u64,
    chunks: u64,
    multiplier: u64,
    offset: u64,
}

impl ChunkScatter {
    fn new(logical_pages: u64, chunk_pages: u64, seed: u64) -> Self {
        assert!(chunk_pages > 0, "chunk_pages must be positive");
        let chunks = logical_pages.div_ceil(chunk_pages).max(1);
        // Pick a multiplier coprime to `chunks` near the golden ratio point.
        let mut multiplier = ((chunks as f64 * 0.618) as u64) | 1;
        multiplier = multiplier.max(1);
        while gcd(multiplier, chunks) != 1 {
            multiplier += 2;
        }
        Self {
            chunk_pages,
            chunks,
            multiplier: multiplier % chunks.max(1),
            offset: seed % chunks,
        }
    }

    /// Maps a pre-placement page address to its final logical address.
    ///
    /// The chunk permutation is a bijection of the *padded* domain
    /// `[0, chunks*chunk_pages)`; when the logical space is not a multiple
    /// of the chunk size, cycle-walking (re-applying the permutation until
    /// the result lands in range) restores a bijection of the valid
    /// subdomain.
    fn place(&self, pre: u64, logical_pages: u64) -> u64 {
        debug_assert!(pre < logical_pages);
        let mut at = pre;
        loop {
            let chunk = at / self.chunk_pages;
            let within = at % self.chunk_pages;
            let scattered = (chunk
                .wrapping_mul(self.multiplier)
                .wrapping_add(self.offset))
                % self.chunks;
            at = scattered * self.chunk_pages + within;
            if at < logical_pages {
                return at;
            }
        }
    }
}

fn gcd(mut a: u64, mut b: u64) -> u64 {
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a
}

/// Deterministic, infinite iterator of [`TraceEvent`]s following a
/// [`WorkloadSpec`].
///
/// Writes arrive as bursts of geometrically distributed length; burst
/// arrivals and reads are Poisson processes. Events are emitted in
/// non-decreasing timestamp order. See the [crate-level example](crate).
#[derive(Debug, Clone)]
pub struct SyntheticTrace {
    spec: WorkloadSpec,
    rng: SplitMix64,
    zipf: Zipf,
    scatter: ChunkScatter,
    /// `spec.footprint_pages()`, `spec.updatable_pages()` and
    /// `spec.hot_pages()`: a few `f64` multiplies and clamps each, wanted
    /// per emitted event, computed once here.
    footprint: u64,
    updatable: u64,
    hot: u64,
    next_burst_at: HostNanos,
    next_read_at: HostNanos,
    /// Remaining pages of the burst in progress: (next_time, next_pre_addr,
    /// pages_left).
    burst: Option<(HostNanos, u64, u32)>,
}

impl SyntheticTrace {
    /// Starts a trace at host time zero.
    ///
    /// # Panics
    ///
    /// Panics if the spec is inconsistent (zero space, non-positive rates,
    /// probabilities out of range).
    pub fn new(spec: WorkloadSpec) -> Self {
        spec.validate();
        let mut rng = SplitMix64::new(spec.seed);
        let zipf = Zipf::new(spec.hot_pages(), spec.zipf_exponent);
        let scatter = ChunkScatter::new(
            spec.logical_pages,
            spec.chunk_pages,
            spec.placement_seed ^ 0x5EED_CAFE,
        );
        let burst_rate = spec.writes_per_sec / spec.mean_burst_pages;
        let first_burst = exp_interval(&mut rng, burst_rate);
        let first_read = if spec.reads_per_sec > 0.0 {
            exp_interval(&mut rng, spec.reads_per_sec)
        } else {
            u64::MAX
        };
        Self {
            footprint: spec.footprint_pages(),
            updatable: spec.updatable_pages(),
            hot: spec.hot_pages(),
            spec,
            rng,
            zipf,
            scatter,
            next_burst_at: first_burst,
            next_read_at: first_read,
            burst: None,
        }
    }

    /// The spec this trace was built from.
    pub fn spec(&self) -> &WorkloadSpec {
        &self.spec
    }

    /// Diurnal activity multiplier at host time `t` (mean 1.0 over a day).
    fn activity(&self, at_ns: HostNanos) -> f64 {
        if !self.spec.diurnal {
            return 1.0;
        }
        const DAY_NS: f64 = 86_400.0 * NANOS_PER_SEC as f64;
        let phase = (at_ns as f64 % DAY_NS) / DAY_NS * std::f64::consts::TAU;
        // 0.2× at night, 1.8× mid-day; mean exactly 1.
        1.0 - 0.8 * phase.cos()
    }

    fn pick_burst_start(&mut self) -> u64 {
        // Writes only target the updatable region [0, updatable): hot pages
        // in [0, hot) with Zipf skew, warm pages uniformly in [hot,
        // updatable). The frozen tail of the footprint is written only by
        // the fill sequence.
        if self.rng.chance(self.spec.hot_write_prob) || self.hot >= self.updatable {
            let u = self.rng.next_f64();
            self.zipf.sample(u)
        } else {
            self.rng.range_u64(self.hot..self.updatable)
        }
    }

    fn start_burst(&mut self, at_ns: HostNanos) -> TraceEvent {
        let pre = self.pick_burst_start();
        // Geometric burst length with the configured mean.
        let p = 1.0 / self.spec.mean_burst_pages;
        let mut len = 1u32;
        while self.rng.next_f64() > p && len < 1024 {
            len += 1;
        }
        let event = self.emit_write(at_ns, pre);
        if len > 1 {
            self.burst = Some((at_ns + INTRA_BURST_GAP_NS, pre + 1, len - 1));
        }
        event
    }

    fn emit_write(&mut self, at_ns: HostNanos, pre: u64) -> TraceEvent {
        let lba = self
            .scatter
            .place(pre % self.updatable, self.spec.logical_pages);
        TraceEvent::write(at_ns, lba)
    }
}

/// Exponential inter-arrival time in nanoseconds for a `rate`/s process.
fn exp_interval(rng: &mut SplitMix64, rate: f64) -> u64 {
    debug_assert!(rate > 0.0);
    let u: f64 = rng.next_f64().max(f64::MIN_POSITIVE);
    let secs = -u.ln() / rate;
    (secs * NANOS_PER_SEC as f64) as u64
}

/// The one-time device fill produced by [`WorkloadSpec::fill_events`].
#[derive(Debug, Clone)]
pub struct FillSequence {
    scatter: ChunkScatter,
    logical_pages: u64,
    footprint: u64,
    next: u64,
}

impl Iterator for FillSequence {
    type Item = TraceEvent;

    fn next(&mut self) -> Option<TraceEvent> {
        if self.next >= self.footprint {
            return None;
        }
        let pre = self.next;
        self.next += 1;
        let lba = self.scatter.place(pre, self.logical_pages);
        // Dense spacing keeps timestamps strictly increasing while adding
        // negligible host time (1 µs per page).
        Some(TraceEvent::write(pre * 1_000, lba))
    }
}

impl ExactSizeIterator for FillSequence {
    fn len(&self) -> usize {
        (self.footprint - self.next) as usize
    }
}

impl Iterator for SyntheticTrace {
    type Item = TraceEvent;

    fn next(&mut self) -> Option<TraceEvent> {
        // Three sources — the burst in progress, the next burst arrival and
        // the next read — merged by timestamp so reads landing mid-burst
        // interleave correctly.
        let burst_at = self.burst.map_or(u64::MAX, |(at, _, _)| at);
        if burst_at <= self.next_burst_at && burst_at <= self.next_read_at {
            let (at, pre, left) = self.burst.take().expect("burst_at came from Some");
            let event = self.emit_write(at, pre);
            if left > 1 {
                self.burst = Some((at + INTRA_BURST_GAP_NS, pre + 1, left - 1));
            }
            return Some(event);
        }

        if self.next_burst_at <= self.next_read_at {
            let at = self.next_burst_at;
            let activity = self.activity(at);
            let burst_rate = self.spec.writes_per_sec / self.spec.mean_burst_pages * activity;
            self.next_burst_at = at + exp_interval(&mut self.rng, burst_rate);
            Some(self.start_burst(at))
        } else {
            let at = self.next_read_at;
            let activity = self.activity(at);
            self.next_read_at =
                at + exp_interval(&mut self.rng, self.spec.reads_per_sec * activity);
            let pre = self.rng.range_u64(0..self.footprint);
            let lba = self.scatter.place(pre, self.spec.logical_pages);
            Some(TraceEvent::read(at, lba))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Op;

    fn sample_spec() -> WorkloadSpec {
        WorkloadSpec::paper(16_384).with_seed(7)
    }

    #[test]
    fn deterministic_for_same_seed() {
        let a: Vec<_> = SyntheticTrace::new(sample_spec()).take(5000).collect();
        let b: Vec<_> = SyntheticTrace::new(sample_spec()).take(5000).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let a: Vec<_> = SyntheticTrace::new(sample_spec()).take(100).collect();
        let b: Vec<_> = SyntheticTrace::new(sample_spec().with_seed(8))
            .take(100)
            .collect();
        assert_ne!(a, b);
    }

    #[test]
    fn timestamps_are_monotone() {
        let events: Vec<_> = SyntheticTrace::new(sample_spec()).take(20_000).collect();
        assert!(events.windows(2).all(|w| w[0].at_ns <= w[1].at_ns));
    }

    #[test]
    fn lbas_stay_in_logical_space() {
        let spec = sample_spec();
        let events: Vec<_> = SyntheticTrace::new(spec.clone()).take(20_000).collect();
        assert!(events.iter().all(|e| e.lba < spec.logical_pages));
    }

    #[test]
    fn written_footprint_matches_fraction() {
        // Fill + steady state together touch exactly the footprint: the
        // fill writes every footprint page once, the steady trace stays
        // inside the updatable part of it.
        let spec = sample_spec();
        let mut written = std::collections::HashSet::new();
        for e in spec.fill_events() {
            written.insert(e.lba);
        }
        assert_eq!(written.len() as u64, spec.footprint_pages());
        let fraction = written.len() as f64 / spec.logical_pages as f64;
        assert!((fraction - spec.written_fraction).abs() < 0.01);

        let fill_set = written.clone();
        for e in SyntheticTrace::new(spec.clone()).take(200_000) {
            if e.op == Op::Write {
                assert!(
                    fill_set.contains(&e.lba),
                    "steady write outside the filled footprint: {}",
                    e.lba
                );
                written.insert(e.lba);
            }
        }
        assert_eq!(written.len() as u64, spec.footprint_pages());
    }

    #[test]
    fn frozen_pages_never_updated_by_steady_trace() {
        let spec = sample_spec();
        // Frozen pre-addresses occupy [updatable, footprint); map them.
        let frozen_lbas: std::collections::HashSet<u64> = spec
            .fill_events()
            .skip(spec.updatable_pages() as usize)
            .map(|e| e.lba)
            .collect();
        assert_eq!(frozen_lbas.len() as u64, spec.frozen_pages());
        for e in SyntheticTrace::new(spec.clone()).take(200_000) {
            if e.op == Op::Write {
                assert!(
                    !frozen_lbas.contains(&e.lba),
                    "frozen lba {} updated",
                    e.lba
                );
            }
        }
    }

    #[test]
    fn fill_is_deterministic_and_sized() {
        let spec = sample_spec();
        let a: Vec<_> = spec.fill_events().collect();
        let b: Vec<_> = spec.fill_events().collect();
        assert_eq!(a, b);
        assert_eq!(spec.fill_events().len() as u64, spec.footprint_pages());
        assert!(a.windows(2).all(|w| w[0].at_ns < w[1].at_ns));
        assert!(a.iter().all(|e| e.op == Op::Write));
    }

    #[test]
    fn rates_approximate_spec() {
        let spec = sample_spec();
        let events: Vec<_> = SyntheticTrace::new(spec.clone()).take(200_000).collect();
        let span_s = events.last().unwrap().at_ns as f64 / NANOS_PER_SEC as f64;
        let writes = events.iter().filter(|e| e.op == Op::Write).count() as f64;
        let reads = events.iter().filter(|e| e.op == Op::Read).count() as f64;
        let w_rate = writes / span_s;
        let r_rate = reads / span_s;
        assert!(
            (w_rate - spec.writes_per_sec).abs() / spec.writes_per_sec < 0.1,
            "write rate {w_rate:.2}/s vs spec {}",
            spec.writes_per_sec
        );
        assert!(
            (r_rate - spec.reads_per_sec).abs() / spec.reads_per_sec < 0.1,
            "read rate {r_rate:.2}/s vs spec {}",
            spec.reads_per_sec
        );
    }

    #[test]
    fn hot_set_receives_most_writes() {
        let spec = sample_spec();
        // Count how concentrated writes are: the hottest pages should take
        // the configured share of traffic.
        let mut counts = std::collections::HashMap::new();
        let mut writes = 0u64;
        for e in SyntheticTrace::new(spec.clone()).take(300_000) {
            if e.op == Op::Write {
                *counts.entry(e.lba).or_insert(0u64) += 1;
                writes += 1;
            }
        }
        let mut freq: Vec<u64> = counts.values().copied().collect();
        freq.sort_unstable_by(|a, b| b.cmp(a));
        let hot_take: u64 = freq.iter().take(spec.hot_pages() as usize).sum();
        let share = hot_take as f64 / writes as f64;
        assert!(
            share > 0.8,
            "hottest {} pages take {share:.2} of writes, expected ≳ 0.9",
            spec.hot_pages()
        );
    }

    #[test]
    fn bursts_are_sequential() {
        let spec = sample_spec();
        let events: Vec<_> = SyntheticTrace::new(spec).take(50_000).collect();
        let mut sequential_pairs = 0usize;
        let mut write_pairs = 0usize;
        for w in events.windows(2) {
            if w[0].op == Op::Write && w[1].op == Op::Write {
                write_pairs += 1;
                if w[1].lba == w[0].lba + 1 {
                    sequential_pairs += 1;
                }
            }
        }
        assert!(
            sequential_pairs as f64 / write_pairs as f64 > 0.5,
            "bursty writes should often be sequential: {sequential_pairs}/{write_pairs}"
        );
    }

    #[test]
    fn diurnal_envelope_modulates_but_preserves_mean() {
        let spec = sample_spec().with_diurnal(true);
        let trace = SyntheticTrace::new(spec);
        let events: Vec<_> = trace.take(100_000).collect();
        assert!(events.windows(2).all(|w| w[0].at_ns <= w[1].at_ns));
    }

    #[test]
    fn scatter_is_a_bijection_per_chunk() {
        for chunk in [1u64, 8, 16, 64] {
            let n = chunk * 100;
            let scatter = ChunkScatter::new(n, chunk, 3);
            let mut seen = std::collections::HashSet::new();
            for pre in 0..n {
                assert!(seen.insert(scatter.place(pre, n)), "chunk {chunk}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "write rate")]
    fn zero_write_rate_rejected() {
        let mut spec = sample_spec();
        spec.writes_per_sec = 0.0;
        SyntheticTrace::new(spec);
    }
}
