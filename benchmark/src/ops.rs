//! Op sequences made from the seed, and the in-RAM model reads are checked
//! against. Everything here runs before timing starts: the stack under test
//! receives only the generated ops.

use std::hash::{Hash, Hasher};

use flash_trace::{Op, SegmentResampler, TraceEvent, WorkloadSpec, Zipf};
use swl_core::rng::SplitMix64;

/// Pages per erase block of every full-size chip in the benchmark; the
/// smoke chips' blocks divide it.
const BLOCK_PAGES: u64 = 128;

/// Where `seed` puts a footprint that has `room` pages to move in: a whole
/// number of erase blocks from the start, at most `room`.
///
/// The seed moves the data, so two seeds (the default and the holdout, say)
/// never share a hot and a cold page set, but only by whole blocks. How the
/// paper trace's 16-page chunks share 128-page blocks alone moves the
/// NFTL's write amplification by ±10 %; seeding that too would make runs
/// on different seeds different workloads.
pub fn placement_shift(seed: u64, room: u64) -> u64 {
    SplitMix64::new(seed ^ 0x0051_A7ED).next_below(room / BLOCK_PAGES + 1) * BLOCK_PAGES
}

/// The paper workload over `logical_pages`: its fill and its unlimited
/// resampled trace, resampled as
/// `flash_sim::experiments::first_failure_run` does, every address rotated
/// by [`placement_shift`]. `seed` also drives the arrivals: which pages
/// are written when, and in what bursts.
pub fn paper_trace(
    logical_pages: u64,
    seed: u64,
) -> (
    impl Iterator<Item = TraceEvent>,
    impl Iterator<Item = TraceEvent>,
) {
    let spec = WorkloadSpec::paper(logical_pages).with_arrival_seed(seed);
    let resampled = SegmentResampler::from_spec(spec.clone(), seed.wrapping_mul(0x9E37_79B9));
    let shift = placement_shift(seed, logical_pages);
    // Synthetic events are one page long, so a rotated event never wraps.
    let rotate = move |mut event: TraceEvent| {
        event.lba = (event.lba + shift) % logical_pages;
        event
    };
    (spec.fill_events().map(rotate), resampled.map(rotate))
}

/// The first `events` events of the resampled paper trace, each widened to
/// its enclosing `span`-page host request.
pub fn widened_paper_events(
    logical_pages: u64,
    seed: u64,
    span: u32,
    events: usize,
) -> Vec<TraceEvent> {
    paper_trace(logical_pages, seed)
        .1
        .map(|e| e.widen(span, logical_pages))
        .take(events)
        .collect()
}

/// Pages read plus pages written by `events`.
pub fn event_pages(events: &[TraceEvent]) -> u64 {
    events.iter().map(|e| u64::from(e.len)).sum()
}

/// Pages written by `events`.
pub fn event_pages_written(events: &[TraceEvent]) -> u64 {
    events
        .iter()
        .filter(|e| e.op == Op::Write)
        .map(|e| u64::from(e.len))
        .sum()
}

/// One op of a block-device client.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum ClientOp {
    /// Write `data` starting at `lba`.
    Write {
        /// First logical page.
        lba: u64,
        /// One value per page.
        data: Vec<u64>,
    },
    /// Read `len` pages starting at `lba`.
    Read {
        /// First logical page.
        lba: u64,
        /// Pages to read.
        len: usize,
    },
    /// Durability barrier.
    Flush,
}

/// Share of the logical space the client ever writes (the paper's trace
/// writes 36.62 %; the default FTL exports the whole chip, so a fuller
/// device would starve its garbage collector).
const CLIENT_SPAN_SHARE: (u64, u64) = (2, 5);
/// Share of the client's span that takes `HOT_PROB` of the ops.
const HOT_SHARE: u64 = 8;
const HOT_PROB: f64 = 0.9;
const WRITE_PROB: f64 = 0.7;
/// Skew inside the hot set (the paper workload's exponent).
const ZIPF_EXPONENT: f64 = 0.95;
/// One flush per this many client ops.
pub const FLUSH_EVERY: usize = 1024;
/// Pages per prefill write and the longest client op.
const MAX_OP_PAGES: u64 = 4;

/// A single client's deterministic sequence, `svcbench`-shaped.
#[derive(Debug, Clone)]
pub struct ClientSequence {
    /// Sequential writes freezing the whole span once, then one flush.
    pub prefill: Vec<ClientOp>,
    /// The measured ops: 70 % writes of 1–4 pages, 90 % of them Zipf-skewed
    /// over the hot eighth of the span, 30 % reads, a flush every
    /// [`FLUSH_EVERY`] ops.
    pub ops: Vec<ClientOp>,
    /// First page the client addresses ([`placement_shift`]).
    pub base: u64,
    /// Pages the client addresses, `base..base + span`.
    pub span: u64,
    /// Pages in the hot set, `base..base + hot_set`.
    pub hot_set: u64,
}

/// Builds the client sequence for a device of `logical_pages`.
pub fn client_sequence(logical_pages: u64, ops: usize, seed: u64) -> ClientSequence {
    let span = (logical_pages * CLIENT_SPAN_SHARE.0 / CLIENT_SPAN_SHARE.1).max(2 * MAX_OP_PAGES);
    let hot_set = (span / HOT_SHARE).max(MAX_OP_PAGES);
    let base = placement_shift(seed, logical_pages - span);
    let zipf = Zipf::new(hot_set, ZIPF_EXPONENT);
    let mut rng = SplitMix64::new(seed ^ 0x5EC0);
    let mut next_value = 0u64;
    let mut values = |len: u64| -> Vec<u64> {
        (0..len)
            .map(|_| {
                next_value += 1;
                (1 << 40) + next_value
            })
            .collect()
    };

    let mut prefill = Vec::new();
    let mut lba = 0;
    while lba < span {
        let len = MAX_OP_PAGES.min(span - lba);
        prefill.push(ClientOp::Write {
            lba: base + lba,
            data: values(len),
        });
        lba += len;
    }
    prefill.push(ClientOp::Flush);

    let measured = (0..ops)
        .map(|i| {
            if (i + 1) % FLUSH_EVERY == 0 {
                return ClientOp::Flush;
            }
            let len = rng.range_u64(1..MAX_OP_PAGES + 1);
            let start = base
                + if rng.chance(HOT_PROB) {
                    zipf.sample(rng.next_f64())
                } else {
                    rng.next_below(span)
                }
                .min(span - len);
            if rng.chance(WRITE_PROB) {
                ClientOp::Write {
                    lba: start,
                    data: values(len),
                }
            } else {
                ClientOp::Read {
                    lba: start,
                    len: len as usize,
                }
            }
        })
        .collect();
    ClientSequence {
        prefill,
        ops: measured,
        base,
        span,
        hot_set,
    }
}

/// `(pages written, pages read)` by a client op list.
pub fn client_pages(ops: &[ClientOp]) -> (u64, u64) {
    ops.iter().fold((0, 0), |(w, r), op| match op {
        ClientOp::Write { data, .. } => (w + data.len() as u64, r),
        ClientOp::Read { len, .. } => (w, r + *len as u64),
        ClientOp::Flush => (w, r),
    })
}

/// One op of the snapshot workload, driven straight into the FTL.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SnapOp {
    /// Host write of one page.
    Write {
        /// Logical page.
        lba: u64,
        /// Value written.
        value: u64,
    },
    /// `snapshot_create(id)`: pins the current image.
    Create(u64),
    /// Streaming merge of snapshot `id` back into the origin.
    Merge(u64),
    /// `snapshot_delete(id)`.
    Delete(u64),
    /// Read one page back; it must equal the model.
    Read(u64),
}

/// Shape of the snapshot workload (`snapbench` scaled up).
#[derive(Debug, Clone, Copy)]
pub struct SnapShape {
    /// Logical pages written (the snapshot image size).
    pub span: u64,
    /// Hot-biased writes between two snapshot creates.
    pub per_phase: u64,
    /// Snapshots created; all stay pinned through the hammer.
    pub snapshots: u64,
    /// Length of the final pinned hammer, in phases.
    pub hammer_phases: u64,
}

/// The snapshot sequence over a device of `logical_pages`: cold fill,
/// `snapshots` create/diverge rounds, a long hammer while every snapshot
/// pins its image, merge of the oldest snapshot, delete of the rest, and a
/// read-back of the whole span. The span starts at [`placement_shift`].
pub fn snapshot_sequence(shape: SnapShape, logical_pages: u64, seed: u64) -> Vec<SnapOp> {
    let hot = (shape.span / HOT_SHARE).max(1);
    let base = placement_shift(seed, logical_pages - shape.span);
    let mut rng = SplitMix64::new(seed ^ 0x5A9B);
    let mut value = 0u64;
    let mut ops = Vec::new();
    for lba in base..base + shape.span {
        value += 1;
        ops.push(SnapOp::Write { lba, value });
    }
    let mut hammer = |ops: &mut Vec<SnapOp>, writes: u64| {
        for _ in 0..writes {
            let lba = base
                + if rng.chance(HOT_PROB) {
                    rng.next_below(hot)
                } else {
                    rng.next_below(shape.span)
                };
            value += 1;
            ops.push(SnapOp::Write { lba, value });
        }
    };
    hammer(&mut ops, shape.per_phase);
    for id in 1..=shape.snapshots {
        ops.push(SnapOp::Create(id));
        hammer(&mut ops, shape.per_phase);
    }
    hammer(&mut ops, shape.per_phase * shape.hammer_phases);
    ops.push(SnapOp::Merge(1));
    for id in 2..=shape.snapshots {
        ops.push(SnapOp::Delete(id));
    }
    ops.extend((base..base + shape.span).map(SnapOp::Read));
    ops
}

/// A deterministic 64-bit digest of an op sequence.
pub fn sequence_hash<T: Hash>(ops: &[T]) -> u64 {
    // `DefaultHasher::new()` uses fixed keys: the digest repeats across
    // runs and processes.
    let mut hasher = std::collections::hash_map::DefaultHasher::new();
    ops.hash(&mut hasher);
    hasher.finish()
}

/// The benchmark's record of the last value written to each logical page.
#[derive(Debug, Clone)]
pub struct Model {
    values: Vec<Option<u64>>,
}

impl Model {
    /// A model of `logical_pages` never-written pages.
    pub fn new(logical_pages: u64) -> Self {
        Self {
            values: vec![None; logical_pages as usize],
        }
    }

    /// Records a write.
    pub fn write(&mut self, lba: u64, value: u64) {
        self.values[lba as usize] = Some(value);
    }

    /// The value a read of `lba` must return.
    pub fn expected(&self, lba: u64) -> Option<u64> {
        self.values[lba as usize]
    }

    /// Whether a read of `len` pages at `lba` returned the last-written
    /// values.
    pub fn matches(&self, lba: u64, got: &[Option<u64>]) -> bool {
        got.iter()
            .enumerate()
            .all(|(i, &value)| value == self.expected(lba + i as u64))
    }

    /// Overlays `image` on this model: pages `image` has written win.
    pub fn overlay(&mut self, image: &Model) {
        for (mine, theirs) in self.values.iter_mut().zip(&image.values) {
            if theirs.is_some() {
                *mine = *theirs;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_sequence_other_seed_differs() {
        let a = client_sequence(4096, 2000, 42);
        let b = client_sequence(4096, 2000, 42);
        let c = client_sequence(4096, 2000, 7);
        assert_eq!(sequence_hash(&a.ops), sequence_hash(&b.ops));
        assert_ne!(sequence_hash(&a.ops), sequence_hash(&c.ops));

        let shape = SnapShape {
            span: 256,
            per_phase: 64,
            snapshots: 3,
            hammer_phases: 2,
        };
        assert_eq!(
            sequence_hash(&snapshot_sequence(shape, 1024, 42)),
            sequence_hash(&snapshot_sequence(shape, 1024, 42))
        );
        assert_ne!(
            sequence_hash(&snapshot_sequence(shape, 1024, 42)),
            sequence_hash(&snapshot_sequence(shape, 1024, 7))
        );

        let e42 = widened_paper_events(4096, 42, 8, 500);
        assert_eq!(
            sequence_hash(&e42),
            sequence_hash(&widened_paper_events(4096, 42, 8, 500))
        );
        assert_ne!(
            sequence_hash(&e42),
            sequence_hash(&widened_paper_events(4096, 7, 8, 500))
        );
    }

    #[test]
    fn the_seed_places_the_data_by_whole_blocks() {
        // The rooms the workloads really have: the paper chips, the array,
        // the client's and the snapshot span's slack.
        for room in [4096 * 128, 1000 * 128, 4 * 64 * 128, 19_661, 98_304] {
            let shifts: Vec<u64> = (1..=10).map(|seed| placement_shift(seed, room)).collect();
            assert!(shifts.iter().all(|s| s % BLOCK_PAGES == 0 && *s <= room));
            assert!(shifts.iter().any(|s| *s != shifts[0]), "{room}: {shifts:?}");
            // The holdout seed exercises another hot and cold page set.
            assert_ne!(placement_shift(42, room), placement_shift(7, room));
        }
        let first_write = |seed| paper_trace(4096, seed).0.next().expect("a fill").lba;
        assert_ne!(first_write(42), first_write(7));
    }

    #[test]
    fn client_sequence_stays_in_its_span_and_flushes() {
        let seq = client_sequence(4096, 3000, 1);
        assert!(seq.hot_set < seq.span && seq.base + seq.span <= 4096);
        let mut flushes = 0;
        let within = |lba: u64, len: u64| seq.base <= lba && lba + len <= seq.base + seq.span;
        for op in &seq.ops {
            match op {
                ClientOp::Write { lba, data } => assert!(within(*lba, data.len() as u64)),
                ClientOp::Read { lba, len } => assert!(within(*lba, *len as u64)),
                ClientOp::Flush => flushes += 1,
            }
        }
        assert_eq!(flushes, 3000 / FLUSH_EVERY);
        let (written, _) = client_pages(&seq.prefill);
        assert_eq!(written, seq.span);
    }

    #[test]
    fn model_flags_a_corrupted_read() {
        let mut model = Model::new(16);
        model.write(3, 70);
        model.write(4, 71);
        assert!(model.matches(3, &[Some(70), Some(71)]));
        assert!(model.matches(5, &[None]));
        // One page holding an older value is a failed op.
        assert!(!model.matches(3, &[Some(70), Some(69)]));
        assert!(!model.matches(5, &[Some(1)]));
    }

    #[test]
    fn overlay_prefers_the_image() {
        let mut origin = Model::new(4);
        origin.write(0, 1);
        origin.write(1, 2);
        let mut image = Model::new(4);
        image.write(1, 9);
        origin.overlay(&image);
        assert_eq!(origin.expected(0), Some(1));
        assert_eq!(origin.expected(1), Some(9));
        assert_eq!(origin.expected(2), None);
    }
}
