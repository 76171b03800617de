//! A bounded blocking channel, the engine's shard queue.
//!
//! Any number of producers (every `EngineProducer`, the engine's own
//! ingest front-end included, holds a cloned [`Sender`]) and one
//! consumer (the shard worker) per channel. The queue is bounded in
//! *batches*;
//! combined with the engine's fixed batch size this caps the number of
//! in-flight items per shard, which is what gives the engine explicit
//! backpressure instead of unbounded buffering.
//!
//! Two ways a channel stops accepting values: an explicit
//! [`Sender::close`] (shutdown: the receiver drains what is buffered)
//! and the [`Receiver`] being dropped (its worker exited or panicked:
//! nothing will ever drain the queue, so senders blocked on a full
//! queue are woken and handed their value back).
//!
//! **Drain barrier.** Under the same lock the channel counts the
//! values it has *accepted* and the values its receiver has reported
//! *finished* (`Receiver::finish_one`, called once the worker's
//! effects of a value are written). `Sender::wait_finished` takes
//! the accepted count and sleeps on a condvar until `finished`
//! catches up, so a producer's read-your-writes barrier is one
//! wake-up, never a poll. Everything the receiver wrote before
//! `finish_one` is visible to the waiter once it returns: both sides
//! pass through the channel mutex. A dropped receiver wakes the
//! waiters too, so a dead worker fails the wait instead of hanging it.
//!
//! Each condvar is notified only when its waiter count (kept under
//! the lock, so exact) is non-zero: an idle notify still costs a
//! syscall, and the send/recv pair runs once per batch.
//!
//! Built on `Mutex` + `Condvar` from `std` only (offline-dependency
//! policy: no crossbeam). The producer touches the lock once per
//! *batch*, not per item, so the synchronisation cost is amortised over
//! the batch size.

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex};

struct State<T> {
    buf: VecDeque<T>,
    closed: bool,
    /// The receiver was dropped; set by its `Drop`, distinct from
    /// `closed`.
    receiver_gone: bool,
    /// Values ever enqueued.
    accepted: u64,
    /// Values the receiver reported done via `finish_one`.
    finished: u64,
    /// Threads blocked in `recv`, `send` and `wait_finished`.
    recv_waiters: usize,
    send_waiters: usize,
    drain_waiters: usize,
}

struct Inner<T> {
    state: Mutex<State<T>>,
    capacity: usize,
    not_empty: Condvar,
    not_full: Condvar,
    /// `finished` advanced or the receiver is gone.
    drained: Condvar,
}

/// Why a [`Sender::try_send`] did not enqueue.
#[derive(Debug, PartialEq, Eq)]
pub enum TrySendError<T> {
    /// The queue is at capacity; the value is handed back.
    Full(T),
    /// The channel is closed or its receiver is gone; the value is
    /// handed back.
    Closed(T),
}

/// Producer handle of a bounded channel.
pub struct Sender<T> {
    inner: Arc<Inner<T>>,
}

impl<T> Clone for Sender<T> {
    /// Another handle to the same queue — the channel is MPSC-safe, so
    /// clones may send from different threads concurrently. (Manual
    /// impl: `derive(Clone)` would needlessly require `T: Clone`.)
    fn clone(&self) -> Self {
        Sender {
            inner: Arc::clone(&self.inner),
        }
    }
}

/// Consumer handle of a bounded channel.
pub struct Receiver<T> {
    inner: Arc<Inner<T>>,
}

/// Create a bounded channel holding at most `capacity` values.
pub fn bounded<T>(capacity: usize) -> (Sender<T>, Receiver<T>) {
    assert!(capacity >= 1, "channel capacity must be at least 1");
    let inner = Arc::new(Inner {
        state: Mutex::new(State {
            buf: VecDeque::with_capacity(capacity),
            closed: false,
            receiver_gone: false,
            accepted: 0,
            finished: 0,
            recv_waiters: 0,
            send_waiters: 0,
            drain_waiters: 0,
        }),
        capacity,
        not_empty: Condvar::new(),
        not_full: Condvar::new(),
        drained: Condvar::new(),
    });
    (
        Sender {
            inner: Arc::clone(&inner),
        },
        Receiver { inner },
    )
}

impl<T> Sender<T> {
    /// Enqueue `value`, blocking while the queue is full. Returns the
    /// value back if the channel is closed or its receiver is gone
    /// (also when that happens while blocked).
    pub fn send(&self, value: T) -> Result<(), T> {
        let mut state = self.inner.state.lock().expect("channel lock");
        loop {
            if state.closed || state.receiver_gone {
                return Err(value);
            }
            if state.buf.len() < self.inner.capacity {
                self.inner.push(&mut state, value);
                return Ok(());
            }
            state.send_waiters += 1;
            state = self.inner.not_full.wait(state).expect("channel lock");
            state.send_waiters -= 1;
        }
    }

    /// Enqueue `value` without blocking.
    pub fn try_send(&self, value: T) -> Result<(), TrySendError<T>> {
        let mut state = self.inner.state.lock().expect("channel lock");
        if state.closed || state.receiver_gone {
            return Err(TrySendError::Closed(value));
        }
        if state.buf.len() >= self.inner.capacity {
            return Err(TrySendError::Full(value));
        }
        self.inner.push(&mut state, value);
        Ok(())
    }

    /// Close the channel: the receiver drains what is buffered, then
    /// observes end-of-stream. Idempotent.
    pub fn close(&self) {
        let mut state = self.inner.state.lock().expect("channel lock");
        state.closed = true;
        if state.recv_waiters > 0 {
            self.inner.not_empty.notify_all();
        }
        if state.send_waiters > 0 {
            self.inner.not_full.notify_all();
        }
    }

    /// Block until the receiver has finished every value accepted
    /// before this call (see [`Receiver::finish_one`]). Values sent
    /// while waiting are not waited for. `Err(left)` if the receiver
    /// is gone first, `left` being the accepted values it never
    /// finished; a receiver that drained a closed channel before it
    /// dropped finished them all, so the wait still returns `Ok`.
    pub(crate) fn wait_finished(&self) -> Result<(), u64> {
        let mut state = self.inner.state.lock().expect("channel lock");
        let target = state.accepted;
        loop {
            if state.finished >= target {
                return Ok(());
            }
            if state.receiver_gone {
                return Err(state.accepted - state.finished);
            }
            state.drain_waiters += 1;
            state = self.inner.drained.wait(state).expect("channel lock");
            state.drain_waiters -= 1;
        }
    }
}

impl<T> Inner<T> {
    /// Enqueue under the lock, room already checked.
    fn push(&self, state: &mut State<T>, value: T) {
        state.buf.push_back(value);
        state.accepted += 1;
        if state.recv_waiters > 0 {
            self.not_empty.notify_one();
        }
    }
}

impl<T> Receiver<T> {
    /// Dequeue the next value, blocking while the queue is empty.
    /// `None` once the channel is closed **and** drained.
    pub fn recv(&self) -> Option<T> {
        let mut state = self.inner.state.lock().expect("channel lock");
        loop {
            if let Some(v) = state.buf.pop_front() {
                if state.send_waiters > 0 {
                    self.inner.not_full.notify_one();
                }
                return Some(v);
            }
            if state.closed {
                return None;
            }
            state.recv_waiters += 1;
            state = self.inner.not_empty.wait(state).expect("channel lock");
            state.recv_waiters -= 1;
        }
    }

    /// Report one received value fully processed, waking
    /// [`Sender::wait_finished`] callers. Call once per value, in
    /// receive order, after every effect the value must publish is
    /// written.
    pub(crate) fn finish_one(&self) {
        let mut state = self.inner.state.lock().expect("channel lock");
        state.finished += 1;
        debug_assert!(
            state.finished <= state.accepted,
            "finished more than received"
        );
        if state.drain_waiters > 0 {
            self.inner.drained.notify_all();
        }
    }
}

impl<T> Drop for Receiver<T> {
    /// Marks the receiver gone, discards what is buffered and wakes
    /// every blocked sender and drain waiter. Runs while a panicking
    /// worker unwinds, so it tolerates a poisoned lock rather than
    /// abort.
    fn drop(&mut self) {
        let mut state = self
            .inner
            .state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        state.receiver_gone = true;
        state.buf.clear();
        if state.send_waiters > 0 {
            self.inner.not_full.notify_all();
        }
        if state.drain_waiters > 0 {
            self.inner.drained.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_order_within_capacity() {
        let (tx, rx) = bounded(4);
        for i in 0..4 {
            tx.send(i).unwrap();
        }
        for i in 0..4 {
            assert_eq!(rx.recv(), Some(i));
        }
    }

    #[test]
    fn try_send_reports_full_deterministically() {
        let (tx, rx) = bounded(2);
        assert!(tx.try_send(1).is_ok());
        assert!(tx.try_send(2).is_ok());
        assert_eq!(tx.try_send(3), Err(TrySendError::Full(3)));
        assert_eq!(rx.recv(), Some(1));
        assert!(tx.try_send(3).is_ok());
    }

    #[test]
    fn close_drains_then_ends() {
        let (tx, rx) = bounded(4);
        tx.send("a").unwrap();
        tx.close();
        assert_eq!(tx.try_send("b"), Err(TrySendError::Closed("b")));
        assert_eq!(rx.recv(), Some("a"));
        assert_eq!(rx.recv(), None);
    }

    #[test]
    fn blocking_send_resumes_after_recv() {
        let (tx, rx) = bounded(1);
        tx.send(0u32).unwrap();
        let producer = std::thread::spawn(move || {
            tx.send(1).unwrap(); // blocks until the consumer drains
            tx.close();
        });
        std::thread::sleep(std::time::Duration::from_millis(10));
        assert_eq!(rx.recv(), Some(0));
        assert_eq!(rx.recv(), Some(1));
        assert_eq!(rx.recv(), None);
        producer.join().unwrap();
    }

    #[test]
    fn cloned_senders_feed_one_receiver() {
        let (tx, rx) = bounded(8);
        let handles: Vec<_> = (0..4)
            .map(|p| {
                let tx = tx.clone();
                std::thread::spawn(move || {
                    for i in 0..100u32 {
                        tx.send(p * 1000 + i).unwrap();
                    }
                })
            })
            .collect();
        let mut got = Vec::with_capacity(400);
        for _ in 0..400 {
            got.push(rx.recv().expect("senders still open"));
        }
        for h in handles {
            h.join().unwrap();
        }
        got.sort_unstable();
        let expected: Vec<u32> =
            (0..4).flat_map(|p| (0..100).map(move |i| p * 1000 + i)).collect();
        assert_eq!(got, expected, "every send arrives exactly once");
        // Per-producer FIFO: already implied by Mutex-serialised sends,
        // and close remains visible through the original handle.
        tx.close();
        assert_eq!(rx.recv(), None);
    }

    #[test]
    fn dropped_receiver_releases_blocked_sender() {
        let (tx, rx) = bounded(1);
        tx.send(0u32).unwrap();
        let sender = {
            let tx = tx.clone();
            std::thread::spawn(move || tx.send(1)) // blocks: queue full
        };
        std::thread::sleep(std::time::Duration::from_millis(10));
        drop(rx);
        assert_eq!(
            sender.join().unwrap(),
            Err(1),
            "the blocked value comes back"
        );
        assert_eq!(tx.try_send(2), Err(TrySendError::Closed(2)));
        assert_eq!(tx.wait_finished(), Err(1), "the buffered value is lost");
    }

    #[test]
    fn recv_blocks_until_send() {
        let (tx, rx) = bounded(1);
        let consumer = std::thread::spawn(move || rx.recv());
        std::thread::sleep(std::time::Duration::from_millis(10));
        tx.send(42).unwrap();
        assert_eq!(consumer.join().unwrap(), Some(42));
    }

    /// Run `wait_finished` on its own thread and return a receiver for
    /// its outcome, once the waiter is known to be blocked in it (so
    /// its target count is fixed before the caller moves on).
    fn blocked_waiter(tx: &Sender<u32>) -> std::sync::mpsc::Receiver<Result<(), u64>> {
        let (done_tx, done) = std::sync::mpsc::channel();
        let waiter = tx.clone();
        std::thread::spawn(move || {
            let _ = done_tx.send(waiter.wait_finished());
        });
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while tx.inner.state.lock().unwrap().drain_waiters == 0 {
            assert!(std::time::Instant::now() < deadline, "waiter never blocked");
            std::thread::yield_now();
        }
        done
    }

    fn outcome(done: &std::sync::mpsc::Receiver<Result<(), u64>>) -> Result<(), u64> {
        done.recv_timeout(std::time::Duration::from_secs(10))
            .expect("wait_finished hung")
    }

    #[test]
    fn wait_finished_returns_at_once_when_nothing_is_outstanding() {
        let (tx, rx) = bounded::<u32>(2);
        assert_eq!(tx.wait_finished(), Ok(()));
        tx.send(1).unwrap();
        assert_eq!(rx.recv(), Some(1));
        rx.finish_one();
        assert_eq!(tx.wait_finished(), Ok(()));
    }

    #[test]
    fn wait_finished_blocks_until_finish_catches_up_with_its_entry_count() {
        let (tx, rx) = bounded(4);
        tx.send(1).unwrap();
        tx.send(2).unwrap();
        let done = blocked_waiter(&tx);
        // Sent after the waiter took its count: not waited for.
        tx.send(3).unwrap();
        assert_eq!(rx.recv(), Some(1));
        assert_eq!(rx.recv(), Some(2));
        rx.finish_one();
        assert!(
            done.recv_timeout(std::time::Duration::from_millis(20))
                .is_err(),
            "returned with one value unfinished"
        );
        rx.finish_one();
        assert_eq!(outcome(&done), Ok(()));
        assert_eq!(rx.recv(), Some(3));
    }

    #[test]
    fn wait_finished_fails_when_the_receiver_drops_with_values_left() {
        let (tx, rx) = bounded(4);
        tx.send(1).unwrap();
        tx.send(2).unwrap();
        assert_eq!(rx.recv(), Some(1));
        rx.finish_one();
        let done = blocked_waiter(&tx);
        drop(rx);
        assert_eq!(outcome(&done), Err(1));
        assert_eq!(tx.wait_finished(), Err(1));
    }

    #[test]
    fn wait_finished_is_ok_when_a_closed_channel_drained_before_the_drop() {
        let (tx, rx) = bounded(4);
        tx.send(1).unwrap();
        tx.send(2).unwrap();
        tx.close();
        let done = blocked_waiter(&tx);
        while let Some(_v) = rx.recv() {
            rx.finish_one();
        }
        drop(rx);
        assert_eq!(outcome(&done), Ok(()));
        assert_eq!(tx.wait_finished(), Ok(()));
    }
}
