//! Bounded admission queue: the only buffer between `accept` and the
//! worker pool.
//!
//! Fixed capacity, `try_push` only — when the queue is full the caller
//! sheds load (503 + `Retry-After`) instead of buffering, so memory
//! stays bounded no matter how hard clients push. Workers block in
//! [`Bounded::pop`]; closing the queue wakes every one of them, and
//! they drain the remaining items and exit.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};

/// Outcome of a blocking pop.
#[derive(Debug)]
pub enum Pop<T> {
    /// An item was dequeued.
    Item(T),
    /// The queue is closed and fully drained; the worker should exit.
    Closed,
}

struct Inner<T> {
    items: VecDeque<T>,
    closed: bool,
}

/// A fixed-capacity MPMC queue with explicit rejection on overflow.
pub struct Bounded<T> {
    inner: Mutex<Inner<T>>,
    ready: Condvar,
    capacity: usize,
}

impl<T> Bounded<T> {
    /// Create a queue admitting at most `capacity` items.
    pub fn new(capacity: usize) -> Self {
        Bounded {
            inner: Mutex::new(Inner {
                items: VecDeque::with_capacity(capacity.max(1)),
                closed: false,
            }),
            ready: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    /// Admit `item`, or hand it back when the queue is full or closed —
    /// the caller owns the rejection (shed vs. drop-on-drain).
    pub fn try_push(&self, item: T) -> Result<(), T> {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        if inner.closed || inner.items.len() >= self.capacity {
            return Err(item);
        }
        inner.items.push_back(item);
        drop(inner);
        self.ready.notify_one();
        Ok(())
    }

    /// Dequeue, blocking until an item arrives or the queue closes.
    /// Returns [`Pop::Closed`] only once the queue is both closed *and*
    /// empty, so every admitted item is processed before workers exit.
    pub fn pop(&self) -> Pop<T> {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if let Some(item) = inner.items.pop_front() {
                return Pop::Item(item);
            }
            if inner.closed {
                return Pop::Closed;
            }
            inner = self.ready.wait(inner).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Stop admitting and wake every waiter; already-admitted items
    /// remain poppable until drained.
    pub fn close(&self) {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        inner.closed = true;
        drop(inner);
        self.ready.notify_all();
    }

    /// Items currently queued.
    pub fn len(&self) -> usize {
        self.inner
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .items
            .len()
    }

    /// Whether the queue is currently empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Duration;

    #[test]
    fn overflow_is_rejected_not_buffered() {
        let q = Bounded::new(2);
        assert!(q.try_push(1).is_ok());
        assert!(q.try_push(2).is_ok());
        assert_eq!(q.try_push(3), Err(3), "third item is shed");
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn close_drains_remaining_items_then_reports_closed() {
        let q = Bounded::new(4);
        q.try_push(1).unwrap();
        q.try_push(2).unwrap();
        q.close();
        assert!(q.try_push(3).is_err(), "no admission after close");
        assert!(matches!(q.pop(), Pop::Item(1)));
        assert!(matches!(q.pop(), Pop::Item(2)));
        assert!(matches!(q.pop(), Pop::Closed));
    }

    #[test]
    fn concurrent_producers_and_consumers_conserve_items() {
        let q = Arc::new(Bounded::new(8));
        let mut handles = Vec::new();
        for t in 0..4u64 {
            let q = Arc::clone(&q);
            handles.push(std::thread::spawn(move || {
                let mut pushed = 0u64;
                for i in 0..50u64 {
                    if q.try_push(t * 1000 + i).is_ok() {
                        pushed += 1;
                    }
                    std::thread::sleep(Duration::from_micros(50));
                }
                pushed
            }));
        }
        let consumer = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || {
                let mut got = 0u64;
                while let Pop::Item(_) = q.pop() {
                    got += 1;
                }
                got
            })
        };
        let pushed: u64 = handles.into_iter().map(|h| h.join().unwrap()).sum();
        q.close();
        let got = consumer.join().unwrap();
        assert_eq!(pushed, got, "every admitted item is drained exactly once");
    }
}
