//! Bundle pooling: the lockstep refill schedule both parties share, and
//! the bounded blocking pool the pipelined (producer-thread) serving
//! mode hands bundles through. (A sequential session pools its bundles
//! in a plain `VecDeque`; they leave it by move, so each bundle's masks
//! are consumed exactly once.)

use primer_he::HeError;
use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};

/// What an online half returns when its producer closed the pool before
/// delivering the query's bundle: the stream of offline material ended
/// short. The producer's own error (a malformed flight, or a panic)
/// surfaces when its thread is joined; the online caller gets this
/// typed error instead of a panic in its own thread.
pub(crate) const PRODUCER_ENDED: HeError =
    HeError::Malformed { what: "offline bundle stream (producer ended before this query's bundle)" };

/// A bounded, blocking FIFO pool shared between an offline-producer
/// thread and an online consumer thread (the pipelined serving mode).
///
/// The bound is the backpressure that keeps precomputed bundles — each
/// holding per-query masks, shares and garbled material — from piling
/// up without limit when the producer outruns the online phase.
///
/// Bundles still leave by move, so one-time masks are consumed exactly
/// once. The producer closes the pool when it is done (or dies — see
/// [`SharedPoolGuard`]), after which a drained [`SharedPool::take_blocking`]
/// returns `None` instead of blocking forever.
#[derive(Debug)]
pub(crate) struct SharedPool<B> {
    state: Mutex<SharedPoolState<B>>,
    changed: Condvar,
    capacity: usize,
}

#[derive(Debug)]
struct SharedPoolState<B> {
    bundles: VecDeque<B>,
    closed: bool,
}

impl<B> SharedPool<B> {
    /// An empty pool holding at most `capacity` bundles.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0` (the producer could never hand off).
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "shared pool needs capacity for at least one bundle");
        Self {
            state: Mutex::new(SharedPoolState { bundles: VecDeque::new(), closed: false }),
            changed: Condvar::new(),
            capacity,
        }
    }

    /// Adds a bundle, blocking while the pool is full.
    pub fn put_blocking(&self, bundle: B) {
        let mut st = self.state.lock().expect("pool mutex poisoned");
        while st.bundles.len() >= self.capacity {
            st = self.changed.wait(st).expect("pool mutex poisoned");
        }
        st.bundles.push_back(bundle);
        drop(st);
        self.changed.notify_all();
    }

    /// Takes the oldest bundle, blocking while the pool is empty.
    /// Returns `None` once the pool is closed *and* drained.
    pub fn take_blocking(&self) -> Option<B> {
        let mut st = self.state.lock().expect("pool mutex poisoned");
        loop {
            if let Some(b) = st.bundles.pop_front() {
                drop(st);
                self.changed.notify_all();
                return Some(b);
            }
            if st.closed {
                return None;
            }
            st = self.changed.wait(st).expect("pool mutex poisoned");
        }
    }

    /// Marks the pool closed (no more bundles coming) and wakes waiters.
    pub fn close(&self) {
        self.state.lock().expect("pool mutex poisoned").closed = true;
        self.changed.notify_all();
    }

    /// Bundles currently waiting in the pool (a racy instantaneous
    /// reading — the producer and consumer keep moving; fine for
    /// observability, never for control flow).
    pub fn len(&self) -> usize {
        self.state.lock().expect("pool mutex poisoned").bundles.len()
    }

    /// The pool bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

/// A type-erased live view of one session's `SharedPool` depth, for
/// the `/stats` admin surface: the serving layer holds these without
/// seeing the crate-private bundle types behind them. Cheap to clone;
/// reading is one mutex lock on the watched pool.
#[derive(Clone)]
pub struct PoolWatch {
    depth: std::sync::Arc<dyn Fn() -> usize + Send + Sync>,
    capacity: usize,
}

impl PoolWatch {
    pub(crate) fn new<B: Send + 'static>(pool: std::sync::Arc<SharedPool<B>>) -> Self {
        let capacity = pool.capacity();
        Self { depth: std::sync::Arc::new(move || pool.len()), capacity }
    }

    /// Bundles currently pooled (instantaneous, racy by nature).
    pub fn depth(&self) -> usize {
        (self.depth)()
    }

    /// The pool's bound (the negotiated pool target).
    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

impl std::fmt::Debug for PoolWatch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PoolWatch")
            .field("depth", &self.depth())
            .field("capacity", &self.capacity)
            .finish()
    }
}

/// Closes a [`SharedPool`] on drop — held by the producer's run loop so
/// a producer panic unblocks the consumer (which then returns
/// [`PRODUCER_ENDED`] for the missing bundle) instead of deadlocking the
/// session.
pub(crate) struct SharedPoolGuard<'a, B>(pub &'a SharedPool<B>);

impl<B> Drop for SharedPoolGuard<'_, B> {
    fn drop(&mut self) {
        self.0.close();
    }
}

/// How many bundles the next refill should produce: the pool target,
/// capped by the queries the session still owes (never overproducing
/// masks that would go unused). Both parties evaluate this formula with
/// identical arguments, so their refills stay in lockstep on the wire.
pub(crate) fn refill_quota(pool_target: usize, total_queries: usize, produced: usize) -> usize {
    pool_target.min(total_queries.saturating_sub(produced)).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shared_pool_bounds_the_producer_and_closes_cleanly() {
        use std::sync::Arc;
        let pool: Arc<SharedPool<usize>> = Arc::new(SharedPool::new(2));
        let producer_pool = Arc::clone(&pool);
        let producer = std::thread::spawn(move || {
            let _guard = SharedPoolGuard(&producer_pool);
            // 6 bundles through a capacity-2 pool: puts 3..6 must block
            // until the consumer drains.
            for i in 0..6 {
                producer_pool.put_blocking(i);
            }
        });
        let mut got = Vec::new();
        while let Some(v) = pool.take_blocking() {
            got.push(v);
        }
        producer.join().expect("producer");
        assert_eq!(got, vec![0, 1, 2, 3, 4, 5]);
        // Closed + drained: immediate None, no deadlock.
        assert_eq!(pool.take_blocking(), None);
    }

    #[test]
    fn worker_panic_in_parallel_refill_fails_the_session_loudly() {
        // A panic inside a pool task during a parallel refill must
        // propagate out of the rayon scope into the producer thread,
        // whose guard then closes the SharedPool — the consumer gets
        // `None` (and fails loudly on the missing bundle) instead of
        // hanging forever.
        use std::sync::Arc;
        let pool: Arc<SharedPool<usize>> = Arc::new(SharedPool::new(4));
        let producer_pool = Arc::clone(&pool);
        let producer = std::thread::spawn(move || {
            let _guard = SharedPoolGuard(&producer_pool);
            producer_pool.put_blocking(0);
            // Parallel "bundle production" in which one worker dies.
            let bundles = rayon::par_iter_chunks(4, |i| {
                assert!(i != 2, "worker died producing bundle 2");
                i
            });
            for b in bundles {
                producer_pool.put_blocking(b);
            }
        });
        assert_eq!(pool.take_blocking(), Some(0));
        // The guard ran on the producer's unwind: drained + closed.
        assert_eq!(pool.take_blocking(), None);
        assert!(producer.join().is_err(), "producer must die loudly");
    }

    #[test]
    fn pool_watch_reports_depth_without_seeing_the_bundle_type() {
        use std::sync::Arc;
        let pool: Arc<SharedPool<Vec<u8>>> = Arc::new(SharedPool::new(3));
        let watch = PoolWatch::new(Arc::clone(&pool));
        assert_eq!(watch.depth(), 0);
        assert_eq!(watch.capacity(), 3);
        pool.put_blocking(vec![1]);
        pool.put_blocking(vec![2]);
        assert_eq!(watch.depth(), 2);
        let w2 = watch.clone();
        pool.take_blocking();
        assert_eq!(w2.depth(), 1);
        assert_eq!(pool.len(), 1);
        assert_eq!(pool.capacity(), 3);
    }

    #[test]
    fn shared_pool_guard_closes_on_producer_panic() {
        use std::sync::Arc;
        let pool: Arc<SharedPool<usize>> = Arc::new(SharedPool::new(4));
        let producer_pool = Arc::clone(&pool);
        let producer = std::thread::spawn(move || {
            let _guard = SharedPoolGuard(&producer_pool);
            producer_pool.put_blocking(1);
            panic!("producer died mid-session");
        });
        assert_eq!(pool.take_blocking(), Some(1));
        // The unwind ran the guard: the consumer unblocks with None
        // instead of waiting forever for bundle 2.
        assert_eq!(pool.take_blocking(), None);
        assert!(producer.join().is_err());
    }
}
