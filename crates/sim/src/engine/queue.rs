//! A bounded multi-producer blocking queue for engine lanes.
//!
//! The execution engine shards work across worker threads through one
//! [`ShardQueue`] per worker (commands) plus one shared queue flowing back
//! (completions). The queue is deliberately tiny — `Mutex<VecDeque>` with two
//! condvars, one wake per item — and that simplicity is not free: layerbench
//! measures a crossing (`queue.ns_per_crossing`) at about 5 µs when the
//! consumer has to be woken, against about 50 ns of simulated work per host
//! page, so the queues, not the lanes, set the engine's speed whenever a
//! command is awaited one at a time. The engine answers that by crossing
//! rarely (one command per lane per host op, ops pipelined up to the queue
//! depth) rather than by a cleverer queue; moving several commands per
//! crossing is ROADMAP item 1. Bounded capacity is what provides
//! *backpressure*: a host front-end racing ahead of a slow lane blocks in
//! [`ShardQueue::push`] instead of buffering unboundedly.
//!
//! Closing the queue ([`ShardQueue::close`]) makes every producer fail fast
//! and lets consumers drain what is already queued before seeing `None` —
//! the drain-barrier guarantee the engine's `flush` relies on: items
//! accepted before the close are never lost.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};

/// Why a non-blocking push was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TryPushError {
    /// The queue is at capacity; retry later or use the blocking
    /// [`ShardQueue::push`].
    Full,
    /// The queue was closed; no further items will ever be accepted.
    Closed,
}

#[derive(Debug)]
struct State<T> {
    items: VecDeque<T>,
    closed: bool,
}

/// A bounded blocking MPSC/MPMC queue (see module docs).
#[derive(Debug)]
pub struct ShardQueue<T> {
    state: Mutex<State<T>>,
    not_empty: Condvar,
    not_full: Condvar,
    capacity: usize,
    /// Highest occupancy ever reached, mirrored outside the mutex so
    /// observers (engine snapshots, `engtop`) can read it without
    /// contending with producers and consumers. Updated with `fetch_max`
    /// while the lock is held, so it is monotone and never exceeds
    /// `capacity`.
    high_water: AtomicUsize,
}

impl<T> ShardQueue<T> {
    /// An open queue holding at most `capacity` items.
    ///
    /// # Panics
    ///
    /// Panics when `capacity` is zero — a zero-capacity rendezvous queue is
    /// never what the engine wants and would deadlock its single-threaded
    /// degenerate configuration.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "ShardQueue capacity must be positive");
        Self {
            state: Mutex::new(State {
                items: VecDeque::with_capacity(capacity),
                closed: false,
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            capacity,
            high_water: AtomicUsize::new(0),
        }
    }

    /// Maximum number of queued items.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Items currently queued.
    pub fn len(&self) -> usize {
        self.state.lock().expect("queue lock poisoned").items.len()
    }

    /// Highest occupancy the queue ever reached. Monotone over the queue's
    /// lifetime and never exceeds [`ShardQueue::capacity`]; readable
    /// lock-free at any time.
    pub fn high_water(&self) -> usize {
        self.high_water.load(Ordering::Relaxed)
    }

    /// Whether nothing is queued right now.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether the queue has been closed.
    pub fn is_closed(&self) -> bool {
        self.state.lock().expect("queue lock poisoned").closed
    }

    /// Enqueues `item`, blocking while the queue is full. Returns the item
    /// back when the queue is (or becomes) closed.
    ///
    /// # Errors
    ///
    /// `Err(item)` when the queue is closed; the item was not enqueued.
    pub fn push(&self, item: T) -> Result<(), T> {
        let mut state = self.state.lock().expect("queue lock poisoned");
        loop {
            if state.closed {
                return Err(item);
            }
            if state.items.len() < self.capacity {
                state.items.push_back(item);
                self.high_water
                    .fetch_max(state.items.len(), Ordering::Relaxed);
                self.not_empty.notify_one();
                return Ok(());
            }
            state = self.not_full.wait(state).expect("queue lock poisoned");
        }
    }

    /// Enqueues `item` without blocking.
    ///
    /// # Errors
    ///
    /// `(item, TryPushError::Full)` at capacity, `(item,
    /// TryPushError::Closed)` after [`ShardQueue::close`]; the item comes
    /// back so the caller can retry with the blocking [`ShardQueue::push`].
    pub fn try_push(&self, item: T) -> Result<(), (T, TryPushError)> {
        let mut state = self.state.lock().expect("queue lock poisoned");
        if state.closed {
            return Err((item, TryPushError::Closed));
        }
        if state.items.len() >= self.capacity {
            return Err((item, TryPushError::Full));
        }
        state.items.push_back(item);
        self.high_water
            .fetch_max(state.items.len(), Ordering::Relaxed);
        self.not_empty.notify_one();
        Ok(())
    }

    /// Dequeues the oldest item, blocking while the queue is empty and still
    /// open. Returns `None` only once the queue is closed *and* drained, so
    /// no accepted item is ever lost.
    pub fn pop(&self) -> Option<T> {
        let mut state = self.state.lock().expect("queue lock poisoned");
        loop {
            if let Some(item) = state.items.pop_front() {
                self.not_full.notify_one();
                return Some(item);
            }
            if state.closed {
                return None;
            }
            state = self.not_empty.wait(state).expect("queue lock poisoned");
        }
    }

    /// Dequeues the oldest item without blocking; `None` when nothing is
    /// queued (whether or not the queue is closed).
    pub fn try_pop(&self) -> Option<T> {
        let mut state = self.state.lock().expect("queue lock poisoned");
        let item = state.items.pop_front();
        if item.is_some() {
            self.not_full.notify_one();
        }
        item
    }

    /// Closes the queue: producers fail from now on, consumers drain the
    /// backlog and then see `None`. Idempotent.
    pub fn close(&self) {
        let mut state = self.state.lock().expect("queue lock poisoned");
        state.closed = true;
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn fifo_within_a_single_producer() {
        let q = ShardQueue::new(8);
        for i in 0..5 {
            q.push(i).unwrap();
        }
        for i in 0..5 {
            assert_eq!(q.try_pop(), Some(i));
        }
        assert_eq!(q.try_pop(), None);
    }

    #[test]
    fn try_push_reports_full_then_recovers() {
        let q = ShardQueue::new(2);
        assert_eq!(q.try_push(1), Ok(()));
        assert_eq!(q.try_push(2), Ok(()));
        assert_eq!(q.try_push(3), Err((3, TryPushError::Full)));
        assert_eq!(q.try_pop(), Some(1));
        assert_eq!(q.try_push(3), Ok(()));
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn close_rejects_producers_but_drains_consumers() {
        let q = ShardQueue::new(4);
        q.push("a").unwrap();
        q.push("b").unwrap();
        q.close();
        assert_eq!(q.push("c"), Err("c"));
        assert_eq!(q.try_push("c"), Err(("c", TryPushError::Closed)));
        assert_eq!(q.pop(), Some("a"));
        assert_eq!(q.pop(), Some("b"));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn high_water_tracks_peak_occupancy() {
        let q = ShardQueue::new(4);
        assert_eq!(q.high_water(), 0);
        q.push(1).unwrap();
        q.push(2).unwrap();
        assert_eq!(q.high_water(), 2);
        q.try_pop();
        q.try_pop();
        // Draining never lowers the mark.
        assert_eq!(q.high_water(), 2);
        q.push(3).unwrap();
        assert_eq!(q.high_water(), 2, "re-reaching a lower peak keeps the mark");
    }

    #[test]
    fn blocking_push_waits_for_capacity() {
        let q = Arc::new(ShardQueue::new(1));
        q.push(0u32).unwrap();
        let producer = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || q.push(1).is_ok())
        };
        // The producer is stuck until we pop; then its item must land.
        assert_eq!(q.pop(), Some(0));
        assert!(producer.join().unwrap());
        assert_eq!(q.pop(), Some(1));
    }

    #[test]
    fn blocking_pop_wakes_on_close() {
        let q: Arc<ShardQueue<u32>> = Arc::new(ShardQueue::new(1));
        let consumer = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || q.pop())
        };
        q.close();
        assert_eq!(consumer.join().unwrap(), None);
    }
}
