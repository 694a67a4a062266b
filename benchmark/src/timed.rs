//! A [`Transport`] decorator that measures one party's time on the wire:
//! how long its sends take (link shaping included, when the inner
//! transport shapes) and how long its receives wait for the peer.

use crate::trace;
use primer_net::{Meter, MeteredTransport, PollRecv, Transport};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Send and receive-wait totals of one endpoint, in nanoseconds.
#[derive(Debug, Default)]
pub struct WireClock {
    send_ns: AtomicU64,
    recv_wait_ns: AtomicU64,
}

impl WireClock {
    /// `(send, receive wait)` so far, in nanoseconds.
    pub fn read(&self) -> (u64, u64) {
        (
            self.send_ns.load(Ordering::Relaxed),
            self.recv_wait_ns.load(Ordering::Relaxed),
        )
    }
}

/// Wraps one party's end; `send_span` and `recv_span` name its spans.
pub struct Timed<T> {
    inner: T,
    clock: Arc<WireClock>,
    send_span: &'static str,
    recv_span: &'static str,
}

impl<T> Timed<T> {
    /// Decorates `inner`, accumulating into a fresh clock.
    pub fn new(inner: T, send_span: &'static str, recv_span: &'static str) -> Self {
        Self {
            inner,
            clock: Arc::new(WireClock::default()),
            send_span,
            recv_span,
        }
    }

    /// The shared clock this endpoint accumulates into.
    pub fn clock(&self) -> Arc<WireClock> {
        Arc::clone(&self.clock)
    }
}

fn add_since(total: &AtomicU64, start: Instant) {
    total.fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
}

impl<T: Transport> Transport for Timed<T> {
    fn send(&self, bytes: &[u8]) {
        let _s = trace::span(self.send_span);
        let start = Instant::now();
        self.inner.send(bytes);
        add_since(&self.clock.send_ns, start);
    }

    fn send_owned(&self, bytes: Vec<u8>) {
        let _s = trace::span(self.send_span);
        let start = Instant::now();
        self.inner.send_owned(bytes);
        add_since(&self.clock.send_ns, start);
    }

    fn recv(&self) -> Vec<u8> {
        let _s = trace::span(self.recv_span);
        let start = Instant::now();
        let bytes = self.inner.recv();
        add_since(&self.clock.recv_wait_ns, start);
        bytes
    }

    fn try_recv(&self) -> PollRecv {
        self.inner.try_recv()
    }

    fn pending(&self) -> Option<usize> {
        self.inner.pending()
    }
}

impl<T: MeteredTransport> MeteredTransport for Timed<T> {
    fn meter(&self) -> &Arc<Meter> {
        self.inner.meter()
    }
}
