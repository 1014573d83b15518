//! The bounded channel behind the sharded backend's shuffle transport.
//!
//! On the sharded backend every finished spill run is handed from the map
//! attempt that produced it to one collector thread through one bounded
//! multi-producer single-consumer channel (see
//! [`crate::backend`]). A sender blocks while the queue is full; the
//! collector receives eagerly, so the capacity bounds only how many runs
//! are in hand-off at once, not how far the map phase runs ahead of the
//! reducers. The channel **closes** when every sender has been dropped
//! (the map phase is over); the receiver then drains whatever is buffered
//! and observes end-of-stream.
//!
//! Built directly on [`std::sync::Mutex`] + [`std::sync::Condvar`] so it
//! works in this dependency-free build; the protocol is the classic
//! two-condvar bounded queue (`not_full` / `not_empty`).

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

/// Lock a mutex, recovering from poisoning instead of propagating it.
///
/// A task-thread panic is a *classified* failure — the attempt boundary
/// catches it and the job fails (or retries) with
/// [`crate::MrError::TaskPanicked`]. If the panicking thread happened to
/// hold the channel lock, the shared state is still a plain queue that
/// every operation leaves consistent, so the poison flag
/// carries no information here. Propagating it instead turned a classified
/// task failure into an unclassified driver abort.
fn lock_recovering<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

struct State<T> {
    queue: VecDeque<T>,
    /// Live [`Sender`] clones; 0 means the channel is closed for writing.
    senders: usize,
    /// Whether the [`Receiver`] still exists.
    receiver_alive: bool,
}

struct Shared<T> {
    state: Mutex<State<T>>,
    capacity: usize,
    not_full: Condvar,
    not_empty: Condvar,
}

/// Create a bounded MPSC channel with room for `capacity` queued items.
///
/// [`Sender::send`] blocks while the queue is full; [`Receiver::recv`]
/// blocks while it is empty and at least one sender is alive, and returns
/// `None` once the queue is drained **and** every sender has been dropped.
pub fn bounded<T>(capacity: usize) -> (Sender<T>, Receiver<T>) {
    assert!(capacity >= 1, "shuffle channel capacity must be at least 1");
    let shared = Arc::new(Shared {
        state: Mutex::new(State {
            queue: VecDeque::new(),
            senders: 1,
            receiver_alive: true,
        }),
        capacity,
        not_full: Condvar::new(),
        not_empty: Condvar::new(),
    });
    (
        Sender {
            shared: Arc::clone(&shared),
        },
        Receiver { shared },
    )
}

/// The value handed back by [`Sender::send`] when the receiver is gone.
#[derive(Debug, PartialEq, Eq)]
pub struct SendError<T>(pub T);

/// Producing half of a bounded shuffle channel. Cloneable; the channel
/// closes when the last clone is dropped.
pub struct Sender<T> {
    shared: Arc<Shared<T>>,
}

impl<T> Sender<T> {
    /// Enqueue `value`, blocking while the channel is at capacity. Returns
    /// the value as `Err` if the receiver has been dropped (the run has no
    /// destination — the caller is expected to abort).
    pub fn send(&self, value: T) -> Result<(), SendError<T>> {
        let mut state = lock_recovering(&self.shared.state);
        while state.queue.len() >= self.shared.capacity && state.receiver_alive {
            state = self
                .shared
                .not_full
                .wait(state)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
        if !state.receiver_alive {
            return Err(SendError(value));
        }
        state.queue.push_back(value);
        debug_assert!(state.queue.len() <= self.shared.capacity);
        drop(state);
        self.shared.not_empty.notify_one();
        Ok(())
    }
}

impl<T> Clone for Sender<T> {
    fn clone(&self) -> Self {
        let mut state = lock_recovering(&self.shared.state);
        state.senders += 1;
        drop(state);
        Sender {
            shared: Arc::clone(&self.shared),
        }
    }
}

impl<T> Drop for Sender<T> {
    fn drop(&mut self) {
        let mut state = lock_recovering(&self.shared.state);
        state.senders -= 1;
        let closed = state.senders == 0;
        drop(state);
        if closed {
            // Wake a receiver blocked in `recv` so it can observe close.
            self.shared.not_empty.notify_all();
        }
    }
}

/// Consuming half of a bounded shuffle channel.
pub struct Receiver<T> {
    shared: Arc<Shared<T>>,
}

impl<T> Receiver<T> {
    /// Dequeue the next value, blocking while the channel is empty but
    /// still open. Returns `None` only after the channel is closed (all
    /// senders dropped) **and** every buffered value has been drained.
    pub fn recv(&self) -> Option<T> {
        let mut state = lock_recovering(&self.shared.state);
        loop {
            if let Some(value) = state.queue.pop_front() {
                drop(state);
                self.shared.not_full.notify_one();
                return Some(value);
            }
            if state.senders == 0 {
                return None;
            }
            state = self
                .shared
                .not_empty
                .wait(state)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
    }
}

impl<T> Drop for Receiver<T> {
    fn drop(&mut self) {
        let mut state = lock_recovering(&self.shared.state);
        state.receiver_alive = false;
        drop(state);
        // Unblock producers so they can observe the dead receiver.
        self.shared.not_full.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::thread;
    use std::time::Duration;

    #[test]
    fn close_then_drain_delivers_every_buffered_item() {
        // Close/drain path: all senders drop *before* the receiver starts
        // reading. Everything buffered must still come out, then `None`.
        let (tx, rx) = bounded::<u32>(16);
        for i in 0..5 {
            tx.send(i).unwrap();
        }
        drop(tx);
        let got: Vec<u32> = std::iter::from_fn(|| rx.recv()).collect();
        assert_eq!(got, vec![0, 1, 2, 3, 4]);
        assert_eq!(rx.recv(), None, "closed channel stays closed");
    }

    /// Interleaving test for the close/drain race: senders drop at staggered,
    /// injected delays while the receiver is mid-drain — sometimes blocking
    /// on an empty-but-open channel, sometimes observing the close while
    /// items are still buffered. No item may be lost and end-of-stream must
    /// be reported exactly once, under every interleaving the delays create.
    #[test]
    fn staggered_sender_drops_never_lose_items_or_hang() {
        for delay_us in [0u64, 50, 200, 1000] {
            let (tx, rx) = bounded::<u64>(2);
            let mut producers = Vec::new();
            for p in 0..3u64 {
                let tx = tx.clone();
                producers.push(thread::spawn(move || {
                    for i in 0..10u64 {
                        tx.send(p * 100 + i).unwrap();
                        if i % 3 == p % 3 {
                            thread::sleep(Duration::from_micros(delay_us));
                        }
                    }
                    // Injected delay between last send and the drop that
                    // may close the channel: the receiver can block on an
                    // empty queue in exactly this window.
                    thread::sleep(Duration::from_micros(delay_us * p));
                }));
            }
            drop(tx);
            let mut got = Vec::new();
            while let Some(v) = rx.recv() {
                got.push(v);
                if got.len() % 7 == 0 {
                    thread::sleep(Duration::from_micros(delay_us));
                }
            }
            for producer in producers {
                producer.join().unwrap();
            }
            got.sort_unstable();
            let mut want: Vec<u64> = (0..3)
                .flat_map(|p| (0..10).map(move |i| p * 100 + i))
                .collect();
            want.sort_unstable();
            assert_eq!(got, want, "delay {delay_us}us lost or duplicated runs");
            assert_eq!(rx.recv(), None);
        }
    }

    #[test]
    fn send_blocks_at_capacity_until_receiver_drains() {
        let (tx, rx) = bounded::<u32>(1);
        tx.send(1).unwrap();
        let sent_second = Arc::new(AtomicUsize::new(0));
        let flag = Arc::clone(&sent_second);
        let producer = thread::spawn(move || {
            tx.send(2).unwrap(); // must block: capacity 1, queue full
            flag.store(1, Ordering::SeqCst);
        });
        // Receiving the first item is what frees the producer.
        assert_eq!(rx.recv(), Some(1));
        assert_eq!(rx.recv(), Some(2));
        producer.join().unwrap();
        assert_eq!(sent_second.load(Ordering::SeqCst), 1);
        assert_eq!(rx.recv(), None);
    }

    #[test]
    fn send_to_dropped_receiver_returns_the_value() {
        let (tx, rx) = bounded::<String>(1);
        drop(rx);
        assert_eq!(
            tx.send("orphan".to_string()),
            Err(SendError("orphan".to_string()))
        );
    }

    #[test]
    fn dropping_receiver_unblocks_a_full_sender() {
        let (tx, rx) = bounded::<u32>(1);
        tx.send(1).unwrap();
        let producer = thread::spawn(move || tx.send(2));
        thread::sleep(Duration::from_millis(10));
        drop(rx);
        assert_eq!(producer.join().unwrap(), Err(SendError(2)));
    }

    /// Regression: a panic while holding the channel lock must not cascade
    /// into every later send/recv panicking on poison. The queue state is
    /// always consistent, so operations recover and proceed.
    #[test]
    fn channel_recovers_from_a_poisoned_lock() {
        let (tx, rx) = bounded::<u32>(4);
        tx.send(1).unwrap();
        // Poison the state mutex: panic in a thread that holds it.
        let shared = Arc::clone(&tx.shared);
        let _ = thread::spawn(move || {
            let _guard = shared.state.lock().unwrap();
            panic!("worker died holding the shuffle lock");
        })
        .join();
        assert!(
            tx.shared.state.is_poisoned(),
            "setup: lock must be poisoned"
        );
        // Every operation still works: send, clone, recv, drops.
        tx.send(2).unwrap();
        let tx2 = tx.clone();
        tx2.send(3).unwrap();
        drop(tx2);
        drop(tx);
        let got: Vec<u32> = std::iter::from_fn(|| rx.recv()).collect();
        assert_eq!(got, vec![1, 2, 3]);
        assert_eq!(rx.recv(), None);
    }
}
