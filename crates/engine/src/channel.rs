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
}

struct Inner<T> {
    state: Mutex<State<T>>,
    capacity: usize,
    not_empty: Condvar,
    not_full: Condvar,
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
        }),
        capacity,
        not_empty: Condvar::new(),
        not_full: Condvar::new(),
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
                state.buf.push_back(value);
                self.inner.not_empty.notify_one();
                return Ok(());
            }
            state = self.inner.not_full.wait(state).expect("channel lock");
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
        state.buf.push_back(value);
        self.inner.not_empty.notify_one();
        Ok(())
    }

    /// Close the channel: the receiver drains what is buffered, then
    /// observes end-of-stream. Idempotent.
    pub fn close(&self) {
        let mut state = self.inner.state.lock().expect("channel lock");
        state.closed = true;
        self.inner.not_empty.notify_all();
        self.inner.not_full.notify_all();
    }

    /// Whether the receiver has been dropped. Once true, nothing will
    /// ever dequeue again, and every value the receiver dequeued was
    /// handed out before this returned true.
    pub(crate) fn receiver_gone(&self) -> bool {
        self.inner.state.lock().expect("channel lock").receiver_gone
    }
}

impl<T> Receiver<T> {
    /// Dequeue the next value, blocking while the queue is empty.
    /// `None` once the channel is closed **and** drained.
    pub fn recv(&self) -> Option<T> {
        let mut state = self.inner.state.lock().expect("channel lock");
        loop {
            if let Some(v) = state.buf.pop_front() {
                self.inner.not_full.notify_one();
                return Some(v);
            }
            if state.closed {
                return None;
            }
            state = self.inner.not_empty.wait(state).expect("channel lock");
        }
    }
}

impl<T> Drop for Receiver<T> {
    /// Marks the receiver gone, discards what is buffered and wakes
    /// every blocked sender. Runs while a panicking worker unwinds, so
    /// it tolerates a poisoned lock rather than abort.
    fn drop(&mut self) {
        let mut state = self
            .inner
            .state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        state.receiver_gone = true;
        state.buf.clear();
        self.inner.not_full.notify_all();
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
        assert!(!tx.receiver_gone());
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
        assert!(tx.receiver_gone());
        assert_eq!(tx.try_send(2), Err(TrySendError::Closed(2)));
    }

    #[test]
    fn recv_blocks_until_send() {
        let (tx, rx) = bounded(1);
        let consumer = std::thread::spawn(move || rx.recv());
        std::thread::sleep(std::time::Duration::from_millis(10));
        tx.send(42).unwrap();
        assert_eq!(consumer.join().unwrap(), Some(42));
    }
}
