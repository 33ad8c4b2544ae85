//! The engine's view of the rest of the machine.
//!
//! A [`PartitionEngine`](crate::engine::PartitionEngine) interacts with the
//! world through this trait: operand channels (the `cp_produce`/
//! `cp_consume` dataflow mechanisms), its accelerator coherency port into
//! the memory system, and the shared functional memory image. The machine
//! model implements it over the real NoC/hierarchy; tests use
//! [`MockCtx`].

use distda_ir::expr::ArrayId;
use distda_ir::value::Value;

/// Services provided to an engine each tick.
pub trait EngineCtx {
    /// Attempts to produce a value onto a channel (fails when the consumer
    /// has no credits — back-pressure).
    fn try_send(&mut self, chan: u16, v: Value) -> bool;

    /// Attempts to consume a value from a channel.
    fn try_recv(&mut self, chan: u16) -> Option<Value>;

    /// Issues a line read at `addr` through the ACP; `false` = retry later.
    fn mem_read(&mut self, req_id: u64, addr: u64) -> bool;

    /// Issues a line write at `addr` through the ACP; `false` = retry later.
    fn mem_write(&mut self, req_id: u64, addr: u64) -> bool;

    /// Polls one completed memory request id, if any.
    fn poll_mem(&mut self) -> Option<u64>;

    /// Functional element read (values live in the workload interpreter).
    fn func_load(&mut self, array: ArrayId, idx: i64) -> Value;

    /// Functional element write.
    fn func_store(&mut self, array: ArrayId, idx: i64, v: Value);

    /// Byte address of `array[idx]` under the current allocation.
    fn addr_of(&self, array: ArrayId, idx: i64) -> u64;

    /// Per-port stall attribution: the engine charges `n` stall cycles
    /// against the port backing channel `chan` — called at exactly the
    /// sites that charge the engine's own `stall_chan` counter, so
    /// per-port series sum to engine totals. Default: no attribution.
    fn note_chan_stall(&mut self, chan: u16, n: u64) {
        let _ = (chan, n);
    }

    /// Per-port stall attribution for memory (ACP) waits — called at
    /// exactly the sites that charge `stall_mem`. Default: no
    /// attribution.
    fn note_mem_stall(&mut self, n: u64) {
        let _ = n;
    }
}

/// A self-contained context for unit tests: channels are unbounded unless
/// capped, memory completes after a fixed delay (expressed in ticks
/// deducted per `poll_mem` call round), and functional memory is a plain
/// map.
#[derive(Debug, Default)]
pub struct MockCtx {
    /// Per-channel queues.
    pub channels: std::collections::HashMap<u16, std::collections::VecDeque<Value>>,
    /// Channel capacity (None = unbounded).
    pub chan_cap: Option<usize>,
    /// Requests in flight: (req_id, remaining polls before completion).
    pub inflight: Vec<(u64, u32)>,
    /// Polls a request takes to complete.
    pub mem_delay: u32,
    /// Functional memory.
    pub mem: std::collections::HashMap<(usize, i64), Value>,
    /// Reads issued.
    pub reads: u64,
    /// Writes issued.
    pub writes: u64,
    /// Channel stall cycles noted through [`EngineCtx::note_chan_stall`].
    pub chan_stall_notes: u64,
    /// Memory stall cycles noted through [`EngineCtx::note_mem_stall`].
    pub mem_stall_notes: u64,
}

impl MockCtx {
    /// Creates a mock with the given memory delay in poll rounds.
    pub fn new(mem_delay: u32) -> Self {
        Self {
            mem_delay,
            ..Self::default()
        }
    }

    /// Pre-loads functional memory.
    pub fn set(&mut self, array: ArrayId, idx: i64, v: Value) {
        self.mem.insert((array.0, idx), v);
    }
}

impl EngineCtx for MockCtx {
    fn try_send(&mut self, chan: u16, v: Value) -> bool {
        let q = self.channels.entry(chan).or_default();
        if let Some(cap) = self.chan_cap {
            if q.len() >= cap {
                return false;
            }
        }
        q.push_back(v);
        true
    }

    fn try_recv(&mut self, chan: u16) -> Option<Value> {
        self.channels.get_mut(&chan)?.pop_front()
    }

    fn mem_read(&mut self, req_id: u64, _addr: u64) -> bool {
        self.reads += 1;
        self.inflight.push((req_id, self.mem_delay));
        true
    }

    fn mem_write(&mut self, req_id: u64, _addr: u64) -> bool {
        self.writes += 1;
        self.inflight.push((req_id, self.mem_delay));
        true
    }

    fn poll_mem(&mut self) -> Option<u64> {
        for entry in &mut self.inflight {
            if entry.1 > 0 {
                entry.1 -= 1;
            }
        }
        let pos = self.inflight.iter().position(|&(_, d)| d == 0)?;
        Some(self.inflight.swap_remove(pos).0)
    }

    fn func_load(&mut self, array: ArrayId, idx: i64) -> Value {
        self.mem
            .get(&(array.0, idx))
            .copied()
            .unwrap_or(Value::I(0))
    }

    fn func_store(&mut self, array: ArrayId, idx: i64, v: Value) {
        self.mem.insert((array.0, idx), v);
    }

    fn addr_of(&self, array: ArrayId, idx: i64) -> u64 {
        (array.0 as u64) << 32 | ((idx.max(0) as u64) * 8)
    }

    fn note_chan_stall(&mut self, _chan: u16, n: u64) {
        self.chan_stall_notes += n;
    }

    fn note_mem_stall(&mut self, n: u64) {
        self.mem_stall_notes += n;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mock_channels_are_fifo() {
        let mut m = MockCtx::new(0);
        assert!(m.try_send(0, Value::I(1)));
        assert!(m.try_send(0, Value::I(2)));
        assert_eq!(m.try_recv(0), Some(Value::I(1)));
        assert_eq!(m.try_recv(0), Some(Value::I(2)));
        assert_eq!(m.try_recv(0), None);
    }

    #[test]
    fn mock_channel_capacity_back_pressures() {
        let mut m = MockCtx::new(0);
        m.chan_cap = Some(1);
        assert!(m.try_send(3, Value::I(1)));
        assert!(!m.try_send(3, Value::I(2)));
    }

    #[test]
    fn mock_memory_completes_after_delay() {
        let mut m = MockCtx::new(2);
        assert!(m.mem_read(42, 0x100));
        assert_eq!(m.poll_mem(), None);
        assert_eq!(m.poll_mem(), Some(42));
        assert_eq!(m.poll_mem(), None);
    }

    #[test]
    fn mock_functional_memory_roundtrips() {
        let mut m = MockCtx::new(0);
        let a = ArrayId(1);
        m.func_store(a, 3, Value::F(2.5));
        assert_eq!(m.func_load(a, 3), Value::F(2.5));
        assert_eq!(m.func_load(a, 4), Value::I(0));
    }
}
