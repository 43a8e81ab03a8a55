//! Properties of the engine's bounded MPSC lane queues.
//!
//! The threaded engine's bit-exactness argument leans on three queue
//! behaviors: items from one producer are delivered in the order that
//! producer pushed them (per-lane FIFO), a full queue applies backpressure
//! instead of dropping or reordering, and closing a queue acts as a drain
//! barrier — every item accepted before the close is still delivered, and
//! nothing is lost or duplicated. Each is checked here as a property over
//! randomized producer counts, item counts, and capacities, with real OS
//! threads on both sides of the queue — for the single-item calls and for
//! the burst calls (`push_all`, `pop_all`, `try_pop_all`) the engine's
//! workers and front-end cross with, mixed at random. The queue wakes only
//! registered waiters, and through `push_deferred` only once half a window is
//! queued, so the file ends with stress runs whose only assertion is that
//! they terminate: a lost wake-up hangs them.

use std::collections::{HashSet, VecDeque};
use std::sync::Arc;
use std::thread;

use flash_sim::engine::queue::{ShardQueue, TryPushError};
use proptest::prelude::*;

/// Tagged queue item: `(producer id, per-producer sequence number)`.
type Tagged = (usize, u64);

/// Spawns `producers` threads that each blocking-push `per_producer` tagged
/// items, drains the queue from this thread until every producer is done,
/// and returns the items in arrival order.
fn run_producers(producers: usize, per_producer: u64, capacity: usize) -> Vec<Tagged> {
    let queue = Arc::new(ShardQueue::<Tagged>::new(capacity));
    let handles: Vec<_> = (0..producers)
        .map(|p| {
            let q = Arc::clone(&queue);
            thread::spawn(move || {
                for seq in 0..per_producer {
                    q.push((p, seq)).expect("queue closed under producer");
                }
            })
        })
        .collect();

    let total = producers as u64 * per_producer;
    let mut received = Vec::with_capacity(total as usize);
    while (received.len() as u64) < total {
        received.push(queue.pop().expect("queue closed with items outstanding"));
    }
    for handle in handles {
        handle.join().expect("producer panicked");
    }
    received
}

/// A small deterministic generator for the threads' own call choices.
fn xorshift(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

/// Spawns `producers` threads that each send `per_producer` tagged items,
/// choosing at random between a single `push` and a `push_all` burst of up
/// to five.
fn spawn_mixed_producers(
    queue: &Arc<ShardQueue<Tagged>>,
    producers: usize,
    per_producer: u64,
    seed: u64,
) -> Vec<thread::JoinHandle<()>> {
    (0..producers)
        .map(|p| {
            let q = Arc::clone(queue);
            thread::spawn(move || {
                let mut rng = seed ^ (p as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
                let mut burst = Vec::new();
                let mut seq = 0;
                while seq < per_producer {
                    let n = (1 + xorshift(&mut rng) % 5).min(per_producer - seq);
                    if n == 1 {
                        q.push((p, seq)).expect("queue closed under producer");
                    } else {
                        burst.extend((seq..seq + n).map(|s| (p, s)));
                        q.push_all(&mut burst);
                        assert!(burst.is_empty(), "push_all hands the buffer back empty");
                    }
                    seq += n;
                }
            })
        })
        .collect()
}

/// Checks that `received` holds each producer's `0..per_producer` in order.
fn assert_per_producer_fifo(
    received: impl IntoIterator<Item = Tagged>,
    producers: usize,
    per_producer: u64,
) -> Result<(), TestCaseError> {
    let mut next = vec![0u64; producers];
    for (p, seq) in received {
        prop_assert_eq!(seq, next[p], "producer {} delivered out of order", p);
        next[p] += 1;
    }
    for (p, count) in next.iter().enumerate() {
        prop_assert_eq!(*count, per_producer, "producer {} lost items", p);
    }
    Ok(())
}

proptest! {
    /// Per-producer FIFO under concurrent submitters: however the arrivals
    /// interleave across producers, each producer's own items come out in
    /// push order with nothing lost or duplicated. This is the property the
    /// engine relies on for per-lane page ordering when several host ops
    /// are in flight.
    #[test]
    fn per_producer_order_survives_concurrency(
        producers in 1usize..5,
        per_producer in 1u64..60,
        capacity in 1usize..9,
    ) {
        let received = run_producers(producers, per_producer, capacity);

        assert_per_producer_fifo(received, producers, per_producer)?;
    }

    /// Backpressure at capacity: `try_push` accepts exactly `capacity`
    /// items, then reports `Full` without mutating the queue; popping one
    /// item frees exactly one slot.
    #[test]
    fn try_push_stops_exactly_at_capacity(capacity in 1usize..32) {
        let queue = ShardQueue::<u64>::new(capacity);
        for i in 0..capacity as u64 {
            prop_assert!(queue.try_push(i).is_ok());
        }
        prop_assert_eq!(queue.len(), capacity);
        prop_assert_eq!(queue.try_push(999), Err((999, TryPushError::Full)));
        prop_assert_eq!(queue.len(), capacity, "rejected push mutated the queue");

        prop_assert_eq!(queue.try_pop(), Some(0));
        prop_assert!(queue.try_push(999).is_ok(), "pop must free a slot");
        prop_assert_eq!(queue.try_push(1000), Err((1000, TryPushError::Full)));
    }

    /// Drain-barrier completeness: concurrent producers fill the queue while
    /// a consumer drains it; once the producers finish, `close()` is the
    /// barrier and the `pop() == None` sentinel must not appear until every
    /// accepted item has been delivered exactly once. This is the engine's
    /// shutdown path — no completion acks may be lost when lanes wind down.
    #[test]
    fn close_is_a_complete_drain_barrier(
        producers in 1usize..4,
        per_producer in 1u64..40,
        capacity in 1usize..5,
    ) {
        let queue = Arc::new(ShardQueue::<Tagged>::new(capacity));
        let handles: Vec<_> = (0..producers)
            .map(|p| {
                let q = Arc::clone(&queue);
                thread::spawn(move || {
                    for seq in 0..per_producer {
                        q.push((p, seq)).expect("queue closed under producer");
                    }
                })
            })
            .collect();

        // The consumer sees the close only after all items: pop() blocks
        // while the queue is open, returns None only once closed AND empty.
        let consumer = {
            let q = Arc::clone(&queue);
            thread::spawn(move || {
                let mut seen = Vec::new();
                while let Some(item) = q.pop() {
                    seen.push(item);
                }
                seen
            })
        };

        for handle in handles {
            handle.join().expect("producer panicked");
        }
        queue.close();
        let seen = consumer.join().expect("consumer panicked");

        let expected = producers as u64 * per_producer;
        prop_assert_eq!(seen.len() as u64, expected, "acks lost across the barrier");
        let unique: HashSet<Tagged> = seen.iter().copied().collect();
        prop_assert_eq!(unique.len() as u64, expected, "duplicate delivery");
    }

    /// Occupancy gauges under real concurrency: while producers and a
    /// consumer hammer the queue, an independent observer samples `len()`
    /// and `high_water()` the way a `swl top` snapshot does. Every sampled
    /// occupancy must stay within capacity, the high-water mark must be
    /// monotone across samples and itself bounded by capacity, and the
    /// final mark must dominate every occupancy the observer ever saw.
    #[test]
    fn occupancy_and_high_water_stay_bounded_under_concurrency(
        producers in 1usize..4,
        per_producer in 1u64..50,
        capacity in 1usize..7,
    ) {
        let queue = Arc::new(ShardQueue::<Tagged>::new(capacity));
        let handles: Vec<_> = (0..producers)
            .map(|p| {
                let q = Arc::clone(&queue);
                thread::spawn(move || {
                    for seq in 0..per_producer {
                        q.push((p, seq)).expect("queue closed under producer");
                    }
                })
            })
            .collect();
        let consumer = {
            let q = Arc::clone(&queue);
            thread::spawn(move || while q.pop().is_some() {})
        };

        let mut max_seen_len = 0usize;
        let mut last_mark = 0usize;
        while !handles.iter().all(|h| h.is_finished()) {
            let len = queue.len();
            let mark = queue.high_water();
            prop_assert!(len <= capacity, "occupancy {len} over capacity {capacity}");
            prop_assert!(mark <= capacity, "high water {mark} over capacity {capacity}");
            prop_assert!(mark >= last_mark, "high water went backwards: {last_mark} -> {mark}");
            max_seen_len = max_seen_len.max(len);
            last_mark = mark;
            // Keep the observer from starving the workers on small hosts.
            thread::yield_now();
        }
        for handle in handles {
            handle.join().expect("producer panicked");
        }
        queue.close();
        consumer.join().expect("consumer panicked");

        let final_mark = queue.high_water();
        prop_assert!(final_mark >= last_mark);
        prop_assert!(
            final_mark >= max_seen_len,
            "final high water {final_mark} below an observed occupancy {max_seen_len}"
        );
        prop_assert!(final_mark <= capacity);
        prop_assert!(final_mark >= 1, "items flowed, so the mark must have moved");
    }

    /// A closed queue turns producers away with their item handed back —
    /// nothing is silently swallowed after the barrier.
    #[test]
    fn closed_queue_returns_the_item(item in any::<u64>()) {
        let queue = ShardQueue::<u64>::new(4);
        queue.close();
        prop_assert_eq!(queue.push(item), Err(item));
        prop_assert_eq!(queue.try_push(item), Err((item, TryPushError::Closed)));
        prop_assert_eq!(queue.pop(), None);
    }

    /// Per-producer FIFO when single-item and burst calls are mixed at
    /// random on both sides: a burst is delivered whole-order, bursts and
    /// single items of one producer never overtake each other, and a
    /// `pop_all` appends behind what the consumer already holds.
    #[test]
    fn mixed_single_and_burst_calls_keep_per_producer_order(
        producers in 1usize..4,
        per_producer in 1u64..80,
        capacity in 1usize..9,
        seed in any::<u64>(),
    ) {
        let queue = Arc::new(ShardQueue::<Tagged>::new(capacity));
        let handles = spawn_mixed_producers(&queue, producers, per_producer, seed);

        let total = (producers as u64 * per_producer) as usize;
        let mut rng = seed | 1;
        let mut received: VecDeque<Tagged> = VecDeque::new();
        while received.len() < total {
            match xorshift(&mut rng) % 3 {
                0 => received.push_back(queue.pop().expect("queue closed with items outstanding")),
                1 => prop_assert!(queue.pop_all(&mut received), "open queue reported closed"),
                _ => {
                    queue.try_pop_all(&mut received);
                }
            }
            prop_assert!(queue.high_water() <= capacity);
        }
        for handle in handles {
            handle.join().expect("producer panicked");
        }
        prop_assert!(queue.is_empty());
        assert_per_producer_fifo(received, producers, per_producer)?;
    }

    /// `close()` is a drain barrier for `pop_all` as it is for `pop`:
    /// everything accepted before the close is delivered exactly once, and
    /// only then does `pop_all` report the queue closed.
    #[test]
    fn close_is_a_complete_drain_barrier_for_pop_all(
        producers in 1usize..4,
        per_producer in 1u64..40,
        capacity in 1usize..5,
        seed in any::<u64>(),
    ) {
        let queue = Arc::new(ShardQueue::<Tagged>::new(capacity));
        let handles = spawn_mixed_producers(&queue, producers, per_producer, seed);
        let consumer = {
            let q = Arc::clone(&queue);
            thread::spawn(move || {
                let mut seen = VecDeque::new();
                while q.pop_all(&mut seen) {}
                seen
            })
        };
        for handle in handles {
            handle.join().expect("producer panicked");
        }
        queue.close();
        let mut seen = consumer.join().expect("consumer panicked");

        prop_assert!(!queue.pop_all(&mut seen), "a drained closed queue stays closed");
        let expected = producers as u64 * per_producer;
        prop_assert_eq!(seen.len() as u64, expected, "acks lost across the barrier");
        assert_per_producer_fifo(seen, producers, per_producer)?;
    }

    /// Backpressure on a burst: a `push_all` larger than the queue blocks,
    /// goes in by instalments as a slow one-at-a-time consumer makes room,
    /// and completes with nothing lost, reordered or over capacity.
    #[test]
    fn oversized_push_all_completes_against_a_slow_consumer(
        capacity in 1usize..5,
        extra in 1u64..60,
    ) {
        let queue = Arc::new(ShardQueue::<u64>::new(capacity));
        let total = capacity as u64 + extra;
        let producer = {
            let q = Arc::clone(&queue);
            thread::spawn(move || {
                let mut burst: Vec<u64> = (0..total).collect();
                q.push_all(&mut burst);
                burst.len()
            })
        };
        for expected in 0..total {
            // Slow: give the producer every chance to overfill.
            thread::yield_now();
            prop_assert!(queue.len() <= capacity);
            prop_assert_eq!(queue.pop(), Some(expected));
        }
        prop_assert_eq!(producer.join().expect("producer panicked"), 0);
        prop_assert!(queue.is_empty());
        prop_assert!(queue.high_water() <= capacity);
    }
}

proptest! {
    /// The deferred doorbell: a consumer that waits without taking — parked
    /// already or only about to be, the race is the point — is released once
    /// the backlog has crossed half the capacity, finds everything pushed so
    /// far still queued, and takes it in push order.
    #[test]
    fn deferred_push_wakes_a_waiter_at_half_capacity(
        capacity in 1usize..17,
        spin in 0u32..200,
    ) {
        let queue = Arc::new(ShardQueue::<u64>::new(capacity));
        let consumer = {
            let q = Arc::clone(&queue);
            thread::spawn(move || {
                let open = q.wait();
                (open, q.len())
            })
        };
        for _ in 0..spin {
            thread::yield_now();
        }
        let threshold = capacity.div_ceil(2) as u64;
        for i in 0..threshold {
            queue.push_deferred(i).expect("queue open");
        }
        // Below the threshold nobody had to be woken; from here somebody was.
        let (open, seen) = consumer.join().expect("consumer panicked");
        prop_assert!(open);
        prop_assert!(seen >= 1 && seen as u64 <= threshold);
        let mut taken = VecDeque::new();
        prop_assert!(queue.try_pop_all(&mut taken));
        prop_assert_eq!(taken, (0..threshold).collect::<VecDeque<_>>());
    }

    /// `wait` says "closed" only for a queue that is closed *and* empty, and
    /// `close` releases a waiter parked on an empty queue.
    #[test]
    fn wait_is_released_by_close_and_drains_first(
        capacity in 1usize..9,
        backlog in 0usize..9,
    ) {
        let backlog = backlog.min(capacity);
        let queue = Arc::new(ShardQueue::<u64>::new(capacity));
        let waiter = {
            let q = Arc::clone(&queue);
            thread::spawn(move || q.wait())
        };
        // Whatever `wait` saw — the first item, or the close of an empty
        // queue — it saw the queue as it was at one instant.
        for i in 0..backlog as u64 {
            queue.try_push(i).expect("room for the backlog");
        }
        queue.close();
        let saw_items = waiter.join().expect("waiter panicked");
        prop_assert!(backlog > 0 || !saw_items);
        prop_assert_eq!(queue.push_deferred(99), Err(99));
        for i in 0..backlog as u64 {
            prop_assert!(queue.wait(), "closed with {} item(s) still queued", backlog as u64 - i);
            prop_assert_eq!(queue.try_pop(), Some(i));
        }
        prop_assert!(!queue.wait());
    }
}

/// The single-item calls keep their eager wake next to the deferred entry:
/// on a queue of one, half the capacity *is* one item, so a ping-pong through
/// `push_deferred` on one side and `push` on the other needs — and gets — a
/// wake per crossing, with the consumer alternating `wait` and `pop`.
#[test]
fn deferred_ping_pong_through_capacity_one_queues_terminates() {
    const ROUND_TRIPS: u64 = 50_000;
    let ping = Arc::new(ShardQueue::<u64>::new(1));
    let pong = Arc::new(ShardQueue::<u64>::new(1));
    let echo = {
        let (ping, pong) = (Arc::clone(&ping), Arc::clone(&pong));
        thread::spawn(move || {
            while ping.wait() {
                let item = ping.try_pop().expect("sole consumer: it is still there");
                pong.push(item).expect("pong closed");
            }
        })
    };
    for i in 0..ROUND_TRIPS {
        ping.push_deferred(i).expect("ping closed");
        assert_eq!(pong.pop(), Some(i));
    }
    ping.close();
    echo.join().expect("echo thread panicked");
}

/// The lane worker's shape: a consumer that parks only on an empty queue and
/// takes bursts, against a producer that rings only at half a window and,
/// whenever it has sent a whole window, takes back whatever the consumer has
/// not got to (the front-end running the backlog itself). Every item is
/// consumed exactly once, by one side or the other, in order.
#[test]
fn deferred_producer_that_helps_itself_loses_nothing() {
    const ITEMS: u64 = 200_000;
    const CAPACITY: usize = 8;
    let queue = Arc::new(ShardQueue::<u64>::new(CAPACITY));
    let consumer = {
        let q = Arc::clone(&queue);
        thread::spawn(move || {
            let mut taken = Vec::new();
            let mut inbox = VecDeque::new();
            while q.wait() {
                while q.try_pop_all(&mut inbox) {
                    taken.extend(inbox.drain(..));
                }
            }
            taken
        })
    };
    let mut helped = Vec::new();
    let mut inbox = VecDeque::new();
    for i in 0..ITEMS {
        queue.push_deferred(i).expect("queue open");
        if i % CAPACITY as u64 == 3 {
            queue.try_pop_all(&mut inbox);
            helped.extend(inbox.drain(..));
        }
    }
    queue.close();
    let taken = consumer.join().expect("consumer panicked");
    assert!(taken.windows(2).all(|w| w[0] < w[1]));
    assert!(helped.windows(2).all(|w| w[0] < w[1]));
    let mut all: Vec<u64> = taken.into_iter().chain(helped).collect();
    all.sort_unstable();
    assert_eq!(all, (0..ITEMS).collect::<Vec<_>>());
}

/// Lost-wake-up stress, the engine's QD 1 shape: two capacity-1 queues, one
/// thread parked on each in turn. Every one of the round trips needs a wake
/// to arrive; a single lost one parks both threads for good.
#[test]
fn ping_pong_through_capacity_one_queues_terminates() {
    const ROUND_TRIPS: u64 = 100_000;
    let ping = Arc::new(ShardQueue::<u64>::new(1));
    let pong = Arc::new(ShardQueue::<u64>::new(1));
    let echo = {
        let (ping, pong) = (Arc::clone(&ping), Arc::clone(&pong));
        thread::spawn(move || {
            let mut inbox = VecDeque::new();
            let mut outbox = Vec::new();
            // Alternate the single-item and the burst calls.
            while let Some(first) = ping.pop() {
                pong.push(first).expect("pong closed");
                if !ping.pop_all(&mut inbox) {
                    break;
                }
                outbox.extend(inbox.drain(..));
                pong.push_all(&mut outbox);
            }
        })
    };
    for i in 0..ROUND_TRIPS {
        ping.push(i).expect("ping closed");
        assert_eq!(pong.pop(), Some(i));
    }
    ping.close();
    echo.join().expect("echo thread panicked");
}

/// Lost-wake-up stress, the completion queue's shape: several producers
/// blocking on a small queue against one `pop_all` consumer that parks
/// whenever it catches up.
#[test]
fn producers_against_one_pop_all_consumer_terminate() {
    const PRODUCERS: usize = 4;
    const PER_PRODUCER: u64 = 25_000;
    let queue = Arc::new(ShardQueue::<Tagged>::new(3));
    let handles = spawn_mixed_producers(&queue, PRODUCERS, PER_PRODUCER, 0x5EED);
    let mut received = VecDeque::new();
    let mut next = [0u64; PRODUCERS];
    let mut delivered = 0;
    while delivered < PRODUCERS as u64 * PER_PRODUCER {
        assert!(queue.pop_all(&mut received));
        for (p, seq) in received.drain(..) {
            assert_eq!(seq, next[p], "producer {p} delivered out of order");
            next[p] += 1;
            delivered += 1;
        }
    }
    for handle in handles {
        handle.join().expect("producer panicked");
    }
    assert!(queue.is_empty());
}
