//! The bounded in-flight queue.

use std::collections::VecDeque;

/// A FIFO that admits at most `tau` in-flight items: pushing the
/// `(tau+1)`-th item pops and returns the oldest.
///
/// Models the paper's delay parameter: an update enqueued at logical step
/// `t` is returned (applied) at step `t + tau`.
///
/// An item's staleness is positional, so the queue keeps no clock: an
/// item [`DelayQueue::push`] returns spent exactly `tau` pushes in
/// flight, and the `i`-th of the `len` items [`DelayQueue::drain`]
/// flushes (0-based) spent `len − i` — the epoch-end barrier does not
/// wait out their delay.
///
/// Nothing is reserved up front: the queue holds at most
/// `min(tau, pushes since the last drain)` items, so an absurd `tau`
/// costs no memory beyond the draws actually in flight.
#[derive(Debug, Clone)]
pub struct DelayQueue<T> {
    q: VecDeque<T>,
    tau: usize,
}

impl<T> DelayQueue<T> {
    /// Creates a queue with delay `tau` (0 = apply immediately).
    pub fn new(tau: usize) -> Self {
        Self {
            q: VecDeque::new(),
            tau,
        }
    }

    /// The configured delay.
    pub fn tau(&self) -> usize {
        self.tau
    }

    /// Number of in-flight items.
    pub fn len(&self) -> usize {
        self.q.len()
    }

    /// True when nothing is in flight.
    pub fn is_empty(&self) -> bool {
        self.q.is_empty()
    }

    /// Enqueues an item; returns the item whose delay expired (if the
    /// queue was full). With `tau == 0`, returns the pushed item itself.
    pub fn push(&mut self, item: T) -> Option<T> {
        if self.tau == 0 {
            return Some(item);
        }
        self.q.push_back(item);
        if self.q.len() > self.tau {
            self.q.pop_front()
        } else {
            None
        }
    }

    /// Drains all in-flight items in FIFO order (the epoch-boundary
    /// barrier of a real implementation).
    pub fn drain(&mut self) -> impl Iterator<Item = T> + '_ {
        self.q.drain(..)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tau_zero_passes_through() {
        let mut q = DelayQueue::new(0);
        assert_eq!(q.push(5), Some(5));
        assert!(q.is_empty());
    }

    #[test]
    fn delays_by_tau_steps() {
        let mut q = DelayQueue::new(3);
        assert_eq!(q.push(1), None);
        assert_eq!(q.push(2), None);
        assert_eq!(q.push(3), None);
        assert_eq!(q.push(4), Some(1));
        assert_eq!(q.push(5), Some(2));
        assert_eq!(q.len(), 3);
    }

    #[test]
    fn drain_returns_fifo() {
        let mut q = DelayQueue::new(2);
        q.push(1);
        q.push(2);
        let drained: Vec<i32> = q.drain().collect();
        assert_eq!(drained, vec![1, 2]);
        assert!(q.is_empty());
    }

    #[test]
    fn tau_accessor() {
        let q: DelayQueue<u8> = DelayQueue::new(7);
        assert_eq!(q.tau(), 7);
    }
}
