//! A bounded multi-producer blocking queue for engine lanes.
//!
//! An execution engine with worker threads shards work across them through
//! one [`ShardQueue`] per worker (commands) plus one shared queue flowing back
//! (completions); one without (no CPU to run them on) has no queues and never
//! comes here. The queue is a `Mutex<VecDeque>` with two condvars, and it
//! stays that (`crates/sim` forbids `unsafe`); what makes it cheap enough to
//! sit under a ~50 ns simulated page is two rules about *when* it pays:
//!
//! - **Wake only a registered waiter.** `Condvar::notify_one` is a
//!   `futex_wake` syscall whether or not anybody is parked. A thread that is
//!   about to park first *registers* in the queue's state (`parked_consumers`
//!   / `parked_producers`), and whoever makes its condition true — an item
//!   went in, a slot came free — takes that registration and issues the one
//!   wake it stands for. With nobody registered a crossing is a lock, a
//!   `VecDeque` operation and an unlock. A real wake still costs a futex and
//!   a context switch (layerbench's `queue.ns_per_crossing`, a parked-consumer
//!   ping-pong, stays near 5 µs); only the wakes nobody waits for go away.
//! - **Move a burst per lock.** [`ShardQueue::pop_all`] hands the consumer
//!   everything queued in one critical section (a buffer swap when the
//!   caller's `VecDeque` is empty) and [`ShardQueue::push_all`] moves a whole
//!   `Vec` in; both work on caller-owned buffers whose capacity survives, so a
//!   steady-state crossing allocates nothing. The engine's workers and
//!   front-end drain and hand over this way, so a burst of commands costs one
//!   crossing each way instead of four per command. The single-item calls
//!   remain for callers that move one item at a time: the benchmark
//!   ladder's `queue.ns_per_crossing` ping-pong and the property tests.
//! - **Ring the doorbell for half a window, not for one item.** A consumer
//!   that can be *helped* — the engine's lane workers, whose backlog a
//!   front-end about to block runs itself — is not worth a futex and a
//!   context switch per item. [`ShardQueue::push_deferred`] enqueues like
//!   `push` but takes a parked consumer's registration only once the backlog
//!   reaches the queue's doorbell mark, half its capacity: the double-buffer
//!   point, where the consumer gets half a window to run while the producer
//!   fills the other half. (Where the consumer would have no core of its own
//!   to run on, a wake buys a context switch and nothing else; the engine
//!   builds no queue there at all.) Its counterpart is [`ShardQueue::wait`],
//!   which parks *without taking* and only on an empty queue, so the
//!   threshold lives on the producer side alone: a consumer never goes to
//!   sleep on a backlog, it can only be left asleep while one builds up below
//!   the threshold — and the engine's claim rule guarantees somebody who is
//!   awake runs that.
//!
//! Registration cannot lose a wake-up because it happens under the queue's
//! own mutex, which `Condvar::wait` releases atomically with parking: a
//! waiter checks the queue, registers and parks without ever letting go of
//! the lock in between, so a thread that changes the queue afterwards must
//! take the lock after the registration is visible and will find it. The
//! count may run *high* — a spuriously woken waiter leaves its registration
//! behind, and that costs one needless `notify` later — but never low: a
//! registration is only ever taken together with a `notify`, and a waiter
//! that wakes to find its condition still false registers again before it
//! parks again.
//!
//! Bounded capacity is what provides *backpressure*: a host front-end racing
//! ahead of a slow lane blocks in [`ShardQueue::push`] instead of buffering
//! unboundedly, and a `push_all` larger than the free room moves what fits
//! and waits for the rest.
//!
//! Closing the queue ([`ShardQueue::close`]) makes every producer fail fast
//! and lets consumers drain what is already queued before seeing `None` —
//! the drain-barrier guarantee the engine's `flush` relies on: items
//! accepted before the close are never lost.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard};

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
    /// Consumers parked on `not_empty` that nobody has issued a wake for
    /// yet (see the module docs). Like everything in `State`, read and
    /// written only under the mutex.
    parked_consumers: usize,
    /// Producers parked on `not_full`, likewise.
    parked_producers: usize,
}

/// Takes up to `n` of the registrations in `parked` and issues their wakes:
/// `n` is how many waiters the caller's change can satisfy (items added,
/// slots freed).
fn wake(parked: &mut usize, condvar: &Condvar, n: usize) {
    match (*parked).min(n) {
        0 => {}
        1 => {
            *parked -= 1;
            condvar.notify_one();
        }
        _ => {
            *parked = 0;
            condvar.notify_all();
        }
    }
}

/// A bounded blocking MPSC/MPMC queue (see module docs).
#[derive(Debug)]
pub struct ShardQueue<T> {
    state: Mutex<State<T>>,
    not_empty: Condvar,
    not_full: Condvar,
    capacity: usize,
    /// Highest occupancy ever reached, mirrored outside the mutex so
    /// observers (engine snapshots, `swl top`) can read it without
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
                parked_consumers: 0,
                parked_producers: 0,
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            capacity,
            high_water: AtomicUsize::new(0),
        }
    }

    fn lock(&self) -> MutexGuard<'_, State<T>> {
        self.state.lock().expect("queue lock poisoned")
    }

    /// Registers the caller as a parked consumer and parks it.
    fn park_consumer<'a>(&self, mut state: MutexGuard<'a, State<T>>) -> MutexGuard<'a, State<T>> {
        state.parked_consumers += 1;
        self.not_empty.wait(state).expect("queue lock poisoned")
    }

    /// Registers the caller as a parked producer and parks it.
    fn park_producer<'a>(&self, mut state: MutexGuard<'a, State<T>>) -> MutexGuard<'a, State<T>> {
        state.parked_producers += 1;
        self.not_full.wait(state).expect("queue lock poisoned")
    }

    /// Bookkeeping after `added` items went in under `state`.
    fn note_added(&self, state: &mut State<T>, added: usize) {
        self.high_water
            .fetch_max(state.items.len(), Ordering::Relaxed);
        wake(&mut state.parked_consumers, &self.not_empty, added);
    }

    /// Maximum number of queued items.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Items currently queued: accepted from a producer and not yet taken
    /// by a consumer. A consumer that drained a burst with
    /// [`ShardQueue::pop_all`] holds those items itself; they no longer
    /// count here.
    pub fn len(&self) -> usize {
        self.lock().items.len()
    }

    /// Highest occupancy the queue ever reached. Monotone over the queue's
    /// lifetime and never exceeds [`ShardQueue::capacity`]; readable
    /// lock-free at any time.
    pub fn high_water(&self) -> usize {
        self.high_water.load(Ordering::Relaxed)
    }

    /// Consumers parked on the queue for which nobody has issued a wake yet
    /// (the registrations of the module docs: may read high after a spurious
    /// wake-up, never low). The engine reads it once per worker, to return
    /// from its constructor with every worker parked.
    pub fn parked_consumers(&self) -> usize {
        self.lock().parked_consumers
    }

    /// Whether nothing is queued right now.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Enqueues `item`, blocking while the queue is full, and wakes a parked
    /// consumer if the backlog has reached `doorbell` items.
    fn push_ringing_at(&self, item: T, doorbell: usize) -> Result<(), T> {
        let mut state = self.lock();
        loop {
            if state.closed {
                return Err(item);
            }
            if state.items.len() < self.capacity {
                state.items.push_back(item);
                let ring = state.items.len() >= doorbell;
                self.note_added(&mut state, usize::from(ring));
                return Ok(());
            }
            state = self.park_producer(state);
        }
    }

    /// Enqueues `item`, blocking while the queue is full. Returns the item
    /// back when the queue is (or becomes) closed.
    ///
    /// # Errors
    ///
    /// `Err(item)` when the queue is closed; the item was not enqueued.
    pub fn push(&self, item: T) -> Result<(), T> {
        self.push_ringing_at(item, 1)
    }

    /// Enqueues `item` without blocking.
    ///
    /// # Errors
    ///
    /// `(item, TryPushError::Full)` at capacity, `(item,
    /// TryPushError::Closed)` after [`ShardQueue::close`]; the item comes
    /// back so the caller can retry with the blocking [`ShardQueue::push`].
    pub fn try_push(&self, item: T) -> Result<(), (T, TryPushError)> {
        let mut state = self.lock();
        if state.closed {
            return Err((item, TryPushError::Closed));
        }
        if state.items.len() >= self.capacity {
            return Err((item, TryPushError::Full));
        }
        state.items.push_back(item);
        self.note_added(&mut state, 1);
        Ok(())
    }

    /// Enqueues `item` like [`ShardQueue::push`] — same blocking, same
    /// errors — but defers the doorbell: a parked consumer is woken only when
    /// the backlog has reached half the capacity (rounded up, so a queue of
    /// one still wakes per item, and a full queue always rings). Below that
    /// the item just sits there: the caller vouches that it will either push
    /// on to the threshold or see to the backlog itself (the engine's
    /// front-end claims the idle lane group and runs it). A consumer that is
    /// awake finds the item all the same; it parks only on an empty queue
    /// ([`ShardQueue::wait`]).
    ///
    /// # Errors
    ///
    /// `Err(item)` when the queue is closed; the item was not enqueued.
    pub fn push_deferred(&self, item: T) -> Result<(), T> {
        self.push_ringing_at(item, self.capacity.div_ceil(2))
    }

    /// Moves the items of `items` into the queue, in order, under as few
    /// locks as the free room allows — one when everything fits. `block`
    /// decides what happens when it does not: park until a consumer makes
    /// room, or return with the rest still in `items`.
    fn push_burst(&self, items: &mut Vec<T>, block: bool) {
        if items.is_empty() {
            return;
        }
        let mut state = self.lock();
        while !items.is_empty() {
            if state.closed {
                items.clear();
                return;
            }
            let fits = (self.capacity - state.items.len()).min(items.len());
            if fits > 0 {
                state.items.extend(items.drain(..fits));
                self.note_added(&mut state, fits);
            } else if block {
                state = self.park_producer(state);
            } else {
                return;
            }
        }
    }

    /// Enqueues every item of `items`, in order, blocking while the queue
    /// is full: a burst larger than the free room moves what fits and waits
    /// for the rest, so capacity still back-pressures. `items` comes back
    /// empty with its capacity intact, for the caller to refill. On a closed
    /// queue the items not yet enqueued are dropped — a producer winding
    /// down has nobody left to hand them to.
    pub fn push_all(&self, items: &mut Vec<T>) {
        self.push_burst(items, true);
    }

    /// Enqueues as many items of `items` as fit right now, in order, without
    /// blocking (all of them dropped if the queue is closed). Returns whether
    /// `items` is now empty; otherwise the rest is still in it, for a
    /// blocking [`ShardQueue::push_all`].
    pub fn try_push_all(&self, items: &mut Vec<T>) -> bool {
        self.push_burst(items, false);
        items.is_empty()
    }

    /// Blocks while the queue is empty and still open, *without taking*
    /// anything: `true` means something is queued (and stays queued for
    /// whoever pops next — the caller, or somebody who got there first),
    /// `false` only that the queue is closed *and* empty. A consumer that
    /// must hold something else before it may pop (the engine's lane claim)
    /// waits here, so that while parked it holds nothing.
    pub fn wait(&self) -> bool {
        let mut state = self.lock();
        while state.items.is_empty() {
            if state.closed {
                return false;
            }
            state = self.park_consumer(state);
        }
        true
    }

    /// Dequeues the oldest item, blocking while the queue is empty and still
    /// open. Returns `None` only once the queue is closed *and* drained, so
    /// no accepted item is ever lost.
    pub fn pop(&self) -> Option<T> {
        let mut state = self.lock();
        loop {
            if let Some(item) = state.items.pop_front() {
                wake(&mut state.parked_producers, &self.not_full, 1);
                return Some(item);
            }
            if state.closed {
                return None;
            }
            state = self.park_consumer(state);
        }
    }

    /// Dequeues the oldest item without blocking; `None` when nothing is
    /// queued (whether or not the queue is closed).
    pub fn try_pop(&self) -> Option<T> {
        let mut state = self.lock();
        let item = state.items.pop_front();
        if item.is_some() {
            wake(&mut state.parked_producers, &self.not_full, 1);
        }
        item
    }

    /// Moves everything queued to the back of `into` (a buffer swap when
    /// `into` is empty) and wakes the producers the freed room can serve.
    fn take_all(&self, state: &mut State<T>, into: &mut VecDeque<T>) {
        let taken = state.items.len();
        if into.is_empty() {
            std::mem::swap(&mut state.items, into);
        } else {
            into.append(&mut state.items);
        }
        wake(&mut state.parked_producers, &self.not_full, taken);
    }

    /// Dequeues everything queued, oldest first, onto the back of `into`,
    /// blocking while the queue is empty and still open. Returns `false`,
    /// with `into` untouched, only once the queue is closed *and* drained —
    /// the drain barrier of [`ShardQueue::pop`], a burst at a time.
    pub fn pop_all(&self, into: &mut VecDeque<T>) -> bool {
        let mut state = self.lock();
        loop {
            if !state.items.is_empty() {
                self.take_all(&mut state, into);
                return true;
            }
            if state.closed {
                return false;
            }
            state = self.park_consumer(state);
        }
    }

    /// Dequeues everything queued onto the back of `into` without blocking;
    /// `false` when nothing was queued (whether or not the queue is closed).
    pub fn try_pop_all(&self, into: &mut VecDeque<T>) -> bool {
        let mut state = self.lock();
        let any = !state.items.is_empty();
        if any {
            self.take_all(&mut state, into);
        }
        any
    }

    /// Closes the queue: producers fail from now on, consumers drain the
    /// backlog and then see `None`. Idempotent.
    pub fn close(&self) {
        let mut state = self.lock();
        state.closed = true;
        // Rare, and the one place a missed wake would hang a shutdown: wake
        // everybody, registered or not.
        state.parked_consumers = 0;
        state.parked_producers = 0;
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
    fn high_water_under_push_all_stays_within_capacity() {
        let q = Arc::new(ShardQueue::new(3));
        let consumer = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || {
                let mut seen = VecDeque::new();
                while seen.len() < 10 {
                    assert!(q.pop_all(&mut seen));
                }
                seen
            })
        };
        // Ten items through three slots: the burst goes in by instalments.
        let mut burst: Vec<u32> = (0..10).collect();
        q.push_all(&mut burst);
        assert!(burst.is_empty() && burst.capacity() >= 10);
        assert_eq!(consumer.join().unwrap(), (0..10).collect::<VecDeque<_>>());
        assert_eq!(
            q.high_water(),
            3,
            "a burst fills the queue, never overfills it"
        );
    }

    #[test]
    fn try_push_all_moves_what_fits_and_keeps_the_rest() {
        let q = ShardQueue::new(3);
        let mut burst = vec![1, 2, 3, 4, 5];
        assert!(!q.try_push_all(&mut burst));
        assert_eq!(burst, [4, 5]);
        assert_eq!(q.len(), 3);
        let mut seen = VecDeque::from([0]);
        assert!(q.try_pop_all(&mut seen));
        assert_eq!(
            seen,
            [0, 1, 2, 3],
            "pop_all appends behind what the caller holds"
        );
        assert!(!q.try_pop_all(&mut seen));
        assert!(q.try_push_all(&mut burst));
        assert_eq!(q.try_pop(), Some(4));
    }

    #[test]
    fn push_all_on_a_closed_queue_drops_the_items() {
        let q = ShardQueue::new(2);
        q.push(0).unwrap();
        q.close();
        // A worker winding down hands over to a front-end that is gone.
        let mut burst = vec![1, 2, 3];
        q.push_all(&mut burst);
        assert!(burst.is_empty());
        let mut burst = vec![4];
        assert!(
            q.try_push_all(&mut burst),
            "dropped, so nothing is left to retry"
        );
        // What was accepted before the close still drains, once.
        let mut seen = VecDeque::new();
        assert!(q.pop_all(&mut seen));
        assert_eq!(seen, [0]);
        assert!(!q.pop_all(&mut seen));
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

    #[test]
    fn deferred_push_rings_at_half_capacity_and_not_below() {
        let q: Arc<ShardQueue<u32>> = Arc::new(ShardQueue::new(8));
        let consumer = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || q.wait())
        };
        // A registration appears under the mutex `Condvar::wait` releases as
        // it parks, so once it shows the consumer is parked (or as good as).
        while q.lock().parked_consumers == 0 {
            std::thread::yield_now();
        }
        for i in 0..3 {
            q.push_deferred(i).unwrap();
            assert_eq!(
                q.lock().parked_consumers,
                1,
                "a backlog of {} rang the doorbell of a queue of 8",
                i + 1
            );
        }
        q.push_deferred(3).unwrap();
        assert_eq!(q.lock().parked_consumers, 0, "half a window rings it");
        assert!(consumer.join().unwrap(), "woken to a non-empty queue");
        assert_eq!(q.len(), 4, "waiting takes nothing");
    }

    #[test]
    fn wait_reports_closed_only_once_drained() {
        let q = ShardQueue::new(4);
        q.push_deferred(7).unwrap();
        q.close();
        assert_eq!(q.push_deferred(8), Err(8));
        assert!(q.wait(), "closed, but an accepted item is still queued");
        assert_eq!(q.try_pop(), Some(7));
        assert!(!q.wait());
    }
}
