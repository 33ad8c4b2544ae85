//! Handshaked channel ports: the one interface every component boundary
//! speaks.
//!
//! The paper's offload model (§IV-C, Fig. 4) connects components through
//! decoupled, credit-flow-controlled channels, and hardware interface
//! specs in the same family (CV-X-IF and friends) express *every*
//! boundary as the same valid/ready handshake so that conformance can be
//! checked once, generically. [`Channel`] is that primitive for the
//! simulator: a bounded FIFO whose producer side is a [`TxPort`]
//! (offer = valid, room = ready) and whose consumer side is an
//! [`RxPort`] (peek = valid, accept = pop). The handshake rules are:
//!
//! * **stable data** — a refused [`TxPort::offer`] hands the value back
//!   unchanged (`Err(v)`), so the producer can re-offer the identical
//!   value next cycle, exactly like holding a `valid` wire stable;
//! * **no loss** — every accepted offer is eventually observable:
//!   `pushed == popped + len` at all times;
//! * **no pop without valid** — [`RxPort::accept`] is the only way to
//!   remove an element and returns `None` on an empty channel;
//! * **credit conservation** — when a boundary runs a credit loop
//!   ([`CreditLoop`]), credits held + credits in debt + occupancy never
//!   exceed the ring capacity, and they sum exactly to it once drained.
//!
//! Each channel carries its own occupancy statistics (total pushed,
//! total popped, high-water mark) plus a stall counter that producers
//! bump when back-pressure refuses an offer — the raw material for
//! per-port stall attribution in the tracer and the `distda_port_*`
//! metrics series. [`PortSnapshot`] freezes those numbers for the
//! conformance harness's generic port-compliance audit
//! (`conformance::check_ports`).

use std::collections::VecDeque;

/// A bounded, handshaked FIFO channel between one producer and one
/// consumer. See the [module docs](self) for the handshake rules.
///
/// A capacity of [`usize::MAX`] (from [`Channel::unbounded`]) models a
/// boundary whose back-pressure lives elsewhere — e.g. a response queue
/// whose occupancy is already limited by the requester's outstanding
/// window. Such channels never refuse an offer, but still count
/// occupancy and enforce no-loss.
#[derive(Debug, Clone)]
pub struct Channel<T> {
    q: VecDeque<T>,
    capacity: usize,
    pushed: u64,
    popped: u64,
    high_water: usize,
    stalls: u64,
}

impl<T> Channel<T> {
    /// A channel refusing offers beyond `capacity` queued elements.
    pub fn bounded(capacity: usize) -> Self {
        Self {
            q: VecDeque::with_capacity(capacity.min(64)),
            capacity,
            pushed: 0,
            popped: 0,
            high_water: 0,
            stalls: 0,
        }
    }

    /// A channel that never refuses an offer (see the type docs).
    pub fn unbounded() -> Self {
        Self::bounded(usize::MAX)
    }

    /// The producer-side handshake port.
    pub fn tx(&mut self) -> TxPort<'_, T> {
        TxPort { ch: self }
    }

    /// The consumer-side handshake port.
    pub fn rx(&mut self) -> RxPort<'_, T> {
        RxPort { ch: self }
    }

    /// Current occupancy.
    pub fn len(&self) -> usize {
        self.q.len()
    }

    /// `true` when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.q.is_empty()
    }

    /// `true` when an offer would be refused.
    pub fn is_full(&self) -> bool {
        self.q.len() >= self.capacity
    }

    /// Remaining room: offers guaranteed to be accepted right now.
    pub fn credits(&self) -> usize {
        self.capacity - self.q.len()
    }

    /// The configured bound ([`usize::MAX`] for unbounded channels).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Widens the bound by `extra` slots (saturating). Used when a
    /// machine is provisioned incrementally and a shared port must be
    /// sized for the traffic every configured producer can have in
    /// flight at once.
    pub fn grow(&mut self, extra: usize) {
        self.capacity = self.capacity.saturating_add(extra);
    }

    /// The element an `accept` would return, without the handshake.
    pub fn front(&self) -> Option<&T> {
        self.q.front()
    }

    /// Iterates queued elements front (oldest) to back.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.q.iter()
    }

    /// Total elements ever accepted by the channel.
    pub fn total_pushed(&self) -> u64 {
        self.pushed
    }

    /// Total elements ever handed to the consumer.
    pub fn total_popped(&self) -> u64 {
        self.popped
    }

    /// Highest occupancy ever observed.
    pub fn high_water(&self) -> usize {
        self.high_water
    }

    /// Cycles a producer spent refused at this port (see
    /// [`Channel::note_stalls`]).
    pub fn stalls(&self) -> u64 {
        self.stalls
    }

    /// Charges `n` producer stall cycles to this port, for producers
    /// that learn about back-pressure out of band (a refused mesh
    /// injection, charged once per refused cycle).
    pub fn note_stalls(&mut self, n: u64) {
        self.stalls += n;
    }

    /// Freezes the channel's statistics under `name` for audits and
    /// metrics export.
    pub fn snapshot(&self, name: impl Into<String>) -> PortSnapshot {
        PortSnapshot {
            name: name.into(),
            pushed: self.pushed,
            popped: self.popped,
            len: self.q.len(),
            capacity: self.capacity,
            high_water: self.high_water,
            stalls: self.stalls,
        }
    }
}

/// The producer half of a [`Channel`] handshake.
#[derive(Debug)]
pub struct TxPort<'a, T> {
    ch: &'a mut Channel<T>,
}

impl<T> TxPort<'_, T> {
    /// `true` when an [`offer`](Self::offer) right now would be accepted.
    pub fn ready(&self) -> bool {
        !self.ch.is_full()
    }

    /// Offers `v` across the boundary. On back-pressure the value comes
    /// back unchanged (`Err(v)`) — the stable-data rule — and the port
    /// records one refused offer in its stall counter.
    pub fn offer(&mut self, v: T) -> Result<(), T> {
        if self.ch.is_full() {
            self.ch.stalls += 1;
            return Err(v);
        }
        self.ch.q.push_back(v);
        self.ch.pushed += 1;
        self.ch.high_water = self.ch.high_water.max(self.ch.q.len());
        Ok(())
    }
}

/// The consumer half of a [`Channel`] handshake.
#[derive(Debug)]
pub struct RxPort<'a, T> {
    ch: &'a mut Channel<T>,
}

impl<T> RxPort<'_, T> {
    /// `true` when [`accept`](Self::accept) would yield an element.
    pub fn valid(&self) -> bool {
        !self.ch.is_empty()
    }

    /// The element an `accept` would return, without committing.
    pub fn peek(&self) -> Option<&T> {
        self.ch.q.front()
    }

    /// Completes the handshake for the oldest element. Structurally
    /// cannot pop without valid: returns `None` on an empty channel.
    pub fn accept(&mut self) -> Option<T> {
        let v = self.ch.q.pop_front()?;
        self.ch.popped += 1;
        Some(v)
    }
}

/// Credit-based flow control for a boundary whose receiver returns
/// credits asynchronously (the paper's cross-partition operand
/// channels): the producer spends from `credits`, the consumer either
/// returns a credit immediately (same-node) or accumulates `debt` and
/// flushes it in batches of `batch` as explicit credit messages,
/// halving the credit-return traffic.
///
/// Invariant (checked by drain audits): `credits + debt + occupancy`
/// never exceeds `capacity`, and `credits + debt == capacity` once the
/// channel drains.
#[derive(Debug, Clone)]
pub struct CreditLoop {
    credits: usize,
    debt: usize,
    capacity: usize,
    batch: usize,
}

impl CreditLoop {
    /// A loop starting with the full `capacity` of credits; `batch` is
    /// the debt level at which [`defer`](Self::defer) flushes.
    pub fn new(capacity: usize, batch: usize) -> Self {
        Self {
            credits: capacity,
            debt: 0,
            capacity,
            batch,
        }
    }

    /// Credits the producer currently holds.
    pub fn credits(&self) -> usize {
        self.credits
    }

    /// Credits consumed but not yet returned as messages.
    pub fn debt(&self) -> usize {
        self.debt
    }

    /// The ring size the loop was provisioned with.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Spends one credit; `false` (and no state change) when none left.
    pub fn take(&mut self) -> bool {
        if self.credits == 0 {
            return false;
        }
        self.credits -= 1;
        true
    }

    /// Returns one credit directly to the producer (same-node consumer:
    /// no message needed).
    pub fn put(&mut self) {
        self.credits += 1;
    }

    /// Receives `n` credits carried by a credit message.
    pub fn grant(&mut self, n: usize) {
        self.credits += n;
    }

    /// Defers one credit return into the debt accumulator. When the
    /// batch threshold is reached the whole debt is flushed: the caller
    /// gets `Some(n)` and must send a credit message for `n`.
    pub fn defer(&mut self) -> Option<usize> {
        self.debt += 1;
        if self.debt >= self.batch {
            let n = self.debt;
            self.debt = 0;
            return Some(n);
        }
        None
    }

    /// `true` when the *next* [`defer`](Self::defer) would flush —
    /// producers that cannot afford a refused flush check this first.
    pub fn defer_would_flush(&self) -> bool {
        self.debt + 1 >= self.batch
    }

    /// Undoes a flush whose credit message was refused downstream: the
    /// debt goes back to accumulating.
    pub fn unflush(&mut self, n: usize) {
        self.debt += n;
    }

    /// Returns all outstanding debt to the producer without a message —
    /// the between-launches reset when both sides are known quiesced.
    pub fn restore(&mut self) {
        self.credits += self.debt;
        self.debt = 0;
    }

    /// The conservation invariant against the channel occupancy `len`:
    /// credits held + debt + queued values never exceed the ring.
    pub fn conserves(&self, len: usize) -> bool {
        self.credits + self.debt + len <= self.capacity
    }

    /// The drained-state invariant: with the channel empty, every
    /// credit is either held or in debt.
    pub fn drained(&self) -> bool {
        self.credits + self.debt == self.capacity
    }
}

/// A point-in-time freeze of one port's statistics, for the generic
/// port-compliance audit and the `distda_port_*` metrics export.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PortSnapshot {
    /// Stable port name (becomes the `port` metric label).
    pub name: String,
    /// Total elements accepted by the channel.
    pub pushed: u64,
    /// Total elements handed to the consumer.
    pub popped: u64,
    /// Occupancy at snapshot time.
    pub len: usize,
    /// Configured bound ([`usize::MAX`] = unbounded).
    pub capacity: usize,
    /// Highest occupancy ever observed.
    pub high_water: usize,
    /// Producer stall cycles charged to the port.
    pub stalls: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn offer_accept_preserve_fifo_order_and_counts() {
        let mut ch = Channel::bounded(4);
        for v in 0..4 {
            assert!(ch.tx().offer(v).is_ok());
        }
        assert!(ch.is_full());
        assert_eq!(ch.high_water(), 4);
        for v in 0..4 {
            assert_eq!(ch.rx().peek(), Some(&v));
            assert_eq!(ch.rx().accept(), Some(v));
        }
        assert_eq!(ch.rx().accept(), None);
        assert_eq!(ch.total_pushed(), 4);
        assert_eq!(ch.total_popped(), 4);
    }

    #[test]
    fn refused_offer_returns_value_unchanged_and_counts_a_stall() {
        let mut ch = Channel::bounded(1);
        assert!(ch.tx().offer(7).is_ok());
        assert!(!ch.tx().ready());
        assert_eq!(ch.tx().offer(9), Err(9));
        assert_eq!(ch.stalls(), 1);
        assert_eq!(ch.rx().accept(), Some(7));
        assert!(ch.tx().offer(9).is_ok());
    }

    #[test]
    fn no_loss_invariant_holds_at_every_step() {
        let mut ch = Channel::bounded(3);
        let mut next = 0u64;
        for step in 0..50u64 {
            if step % 3 != 2 {
                let _ = ch.tx().offer(next);
                if !ch.is_full() || ch.len() < 3 {
                    next += 1;
                }
            } else {
                ch.rx().accept();
            }
            assert_eq!(ch.total_pushed(), ch.total_popped() + ch.len() as u64);
        }
    }

    #[test]
    fn unbounded_channel_never_refuses() {
        let mut ch = Channel::unbounded();
        for v in 0..10_000 {
            assert!(ch.tx().offer(v).is_ok());
        }
        assert_eq!(ch.stalls(), 0);
        assert_eq!(ch.len(), 10_000);
    }

    #[test]
    fn grow_widens_the_bound() {
        let mut ch = Channel::bounded(1);
        assert!(ch.tx().offer(1).is_ok());
        assert!(ch.tx().offer(2).is_err());
        ch.grow(1);
        assert!(ch.tx().offer(2).is_ok());
        assert_eq!(ch.capacity(), 2);
    }

    #[test]
    fn credit_loop_take_put_grant_conserve() {
        let mut cl = CreditLoop::new(8, 4);
        assert_eq!(cl.credits(), 8);
        for _ in 0..8 {
            assert!(cl.take());
        }
        assert!(!cl.take());
        cl.put();
        cl.grant(3);
        assert_eq!(cl.credits(), 4);
        assert!(cl.conserves(4));
        assert!(!cl.conserves(5));
    }

    #[test]
    fn credit_loop_defer_flushes_at_batch() {
        let mut cl = CreditLoop::new(8, 3);
        for _ in 0..8 {
            assert!(cl.take());
        }
        assert_eq!(cl.defer(), None);
        assert_eq!(cl.defer(), None);
        assert!(cl.defer_would_flush());
        assert_eq!(cl.defer(), Some(3));
        assert_eq!(cl.debt(), 0);
        // The flushed batch is "in flight" until a grant delivers it.
        cl.grant(3);
        assert_eq!(cl.credits(), 3);
        cl.defer();
        cl.restore();
        assert_eq!(cl.debt(), 0);
        assert_eq!(cl.credits(), 4);
        // A refused flush goes back to accumulating as debt.
        let mut refused = CreditLoop::new(4, 2);
        refused.take();
        refused.take();
        refused.defer();
        let n = refused.defer().unwrap();
        refused.unflush(n);
        assert_eq!(refused.debt(), 2);
        assert!(refused.drained());
    }

    #[test]
    fn credit_loop_drained_requires_full_ring_accounted() {
        let mut cl = CreditLoop::new(4, 2);
        assert!(cl.drained());
        cl.take();
        assert!(!cl.drained());
        cl.defer();
        assert!(cl.drained());
    }

    #[test]
    fn snapshot_freezes_stats() {
        let mut ch = Channel::bounded(2);
        ch.tx().offer('a').unwrap();
        ch.tx().offer('b').unwrap();
        ch.rx().accept();
        ch.note_stalls(5);
        let s = ch.snapshot("p");
        assert_eq!(
            s,
            PortSnapshot {
                name: "p".into(),
                pushed: 2,
                popped: 1,
                len: 1,
                capacity: 2,
                high_water: 2,
                stalls: 5,
            }
        );
    }
}
