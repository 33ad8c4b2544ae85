//! The access unit's SRAM line buffer (paper Figure 2c).
//!
//! A small, line-granularity store that decouples the accelerator from the
//! memory system: stream FSMs prefetch into it, indirect accesses check it
//! before going to the cache interface, and hits in it are the
//! energy-cheap *intra* accesses of Figure 9.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// Hasher for maps keyed by line number. Line numbers are dense, trusted
/// simulator state, so one multiply replaces SipHash on the lookups every
/// processed engine edge makes. The order it gives these maps is never
/// observable: eviction picks the minimum over unique LRU stamps,
/// [`ObjectBuffer::drain_dirty`] sorts its output, and nothing iterates
/// the engine's set of pending fills.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct LineHasher(u64);

impl Hasher for LineHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0.rotate_left(5) ^ n).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }

    fn finish(&self) -> u64 {
        // The table indexes by the low bits; the product's best-mixed
        // bits are the high ones.
        self.0.rotate_left(26)
    }
}

/// A set of line numbers hashed with [`LineHasher`].
pub(crate) type LineSet = HashSet<u64, BuildHasherDefault<LineHasher>>;

/// Line-granularity buffer with LRU replacement.
///
/// # Examples
///
/// ```
/// use distda_accel::buffer::ObjectBuffer;
/// let mut b = ObjectBuffer::new(2);
/// assert!(!b.present(10));
/// b.install(10);
/// assert!(b.present(10));
/// ```
#[derive(Debug, Clone)]
pub struct ObjectBuffer {
    capacity_lines: usize,
    lines: HashMap<u64, Slot, BuildHasherDefault<LineHasher>>,
    tick: u64,
    /// Element reads satisfied by the buffer (intra accesses).
    pub hits: u64,
    /// Element reads that required a fetch.
    pub misses: u64,
    /// Lines fetched from the memory system.
    pub fills: u64,
    /// Dirty lines written back to the memory system.
    pub drains: u64,
}

#[derive(Debug, Clone, Copy)]
struct Slot {
    lru: u64,
    dirty: bool,
}

impl ObjectBuffer {
    /// Creates a buffer holding `capacity_lines` cache lines.
    ///
    /// # Panics
    ///
    /// Panics if `capacity_lines` is zero.
    pub fn new(capacity_lines: usize) -> Self {
        assert!(capacity_lines > 0, "buffer capacity must be nonzero");
        Self {
            capacity_lines,
            lines: HashMap::with_capacity_and_hasher(capacity_lines, Default::default()),
            tick: 0,
            hits: 0,
            misses: 0,
            fills: 0,
            drains: 0,
        }
    }

    /// Whether `line` is resident. Does not update statistics.
    pub fn present(&self, line: u64) -> bool {
        self.lines.contains_key(&line)
    }

    /// Records a demand element access; returns `true` on hit.
    pub fn access(&mut self, line: u64) -> bool {
        self.tick += 1;
        if let Some(s) = self.lines.get_mut(&line) {
            s.lru = self.tick;
            self.hits += 1;
            true
        } else {
            self.misses += 1;
            false
        }
    }

    /// Installs a fetched line, returning an evicted dirty line if the
    /// victim needs draining.
    pub fn install(&mut self, line: u64) -> Option<u64> {
        self.tick += 1;
        self.fills += 1;
        if let Some(s) = self.lines.get_mut(&line) {
            s.lru = self.tick;
            return None;
        }
        let victim = if self.lines.len() >= self.capacity_lines {
            let (&vl, _) = self
                .lines
                .iter()
                .min_by_key(|(_, s)| s.lru)
                .expect("nonempty at capacity");
            let was_dirty = self.lines.remove(&vl).map(|s| s.dirty).unwrap_or(false);
            if was_dirty {
                self.drains += 1;
                Some(vl)
            } else {
                None
            }
        } else {
            None
        };
        self.lines.insert(
            line,
            Slot {
                lru: self.tick,
                dirty: false,
            },
        );
        victim
    }

    /// Marks a resident line dirty (element write); installs it first if
    /// absent (write-allocate), returning any dirty victim.
    pub fn write(&mut self, line: u64) -> Option<u64> {
        let victim = if self.present(line) {
            self.tick += 1;
            None
        } else {
            self.install(line)
        };
        if let Some(s) = self.lines.get_mut(&line) {
            s.lru = self.tick;
            s.dirty = true;
        }
        victim
    }

    /// Marks a resident line clean (its contents were written back).
    pub fn mark_clean(&mut self, line: u64) {
        if let Some(s) = self.lines.get_mut(&line) {
            if s.dirty {
                s.dirty = false;
                self.drains += 1;
            }
        }
    }

    /// Removes and returns all dirty lines (end-of-offload drain).
    pub fn drain_dirty(&mut self) -> Vec<u64> {
        let mut dirty: Vec<u64> = self
            .lines
            .iter()
            .filter(|(_, s)| s.dirty)
            .map(|(&l, _)| l)
            .collect();
        dirty.sort_unstable();
        for l in &dirty {
            if let Some(s) = self.lines.get_mut(l) {
                s.dirty = false;
            }
        }
        self.drains += dirty.len() as u64;
        dirty
    }

    /// Lines currently resident.
    pub fn resident(&self) -> usize {
        self.lines.len()
    }

    /// Capacity in lines.
    pub fn capacity(&self) -> usize {
        self.capacity_lines
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_after_install() {
        let mut b = ObjectBuffer::new(4);
        assert!(!b.access(5));
        b.install(5);
        assert!(b.access(5));
        assert_eq!((b.hits, b.misses), (1, 1));
    }

    #[test]
    fn lru_eviction_at_capacity() {
        let mut b = ObjectBuffer::new(2);
        b.install(1);
        b.install(2);
        b.access(1); // 1 becomes MRU
        b.install(3); // evicts 2
        assert!(b.present(1) && b.present(3) && !b.present(2));
    }

    #[test]
    fn dirty_victim_reported() {
        let mut b = ObjectBuffer::new(1);
        b.write(7);
        let victim = b.install(8);
        assert_eq!(victim, Some(7));
        assert_eq!(b.drains, 1);
    }

    #[test]
    fn clean_victim_silent() {
        let mut b = ObjectBuffer::new(1);
        b.install(7);
        assert_eq!(b.install(8), None);
    }

    #[test]
    fn drain_dirty_returns_all_dirty_once() {
        let mut b = ObjectBuffer::new(4);
        b.write(1);
        b.write(2);
        b.install(3);
        let d = b.drain_dirty();
        assert_eq!(d, vec![1, 2]);
        assert!(b.drain_dirty().is_empty());
    }

    #[test]
    fn write_allocates() {
        let mut b = ObjectBuffer::new(2);
        b.write(9);
        assert!(b.present(9));
    }

    #[test]
    fn victims_and_drains_ignore_insertion_order() {
        // Line numbers chosen to collide under a naive low-bits hash.
        let lines = [64, 1 << 28, 7, 1 << 40, 64 << 10, 3, 1 << 63, 128];
        let run = |order: &[u64]| {
            let mut b = ObjectBuffer::new(lines.len());
            for &l in order {
                b.write(l);
            }
            // One recency order, whatever the insertion order was.
            for &l in &lines {
                b.access(l);
            }
            let victims: Vec<Option<u64>> = (1000..1004).map(|l| b.install(l)).collect();
            (victims, b.drain_dirty())
        };
        let mut reversed = lines;
        reversed.reverse();
        let mut interleaved = lines;
        interleaved.sort_by_key(|&l| l.rotate_left(17));
        let want = run(&lines);
        assert_eq!(
            want.0,
            lines[..4].iter().map(|&l| Some(l)).collect::<Vec<_>>(),
            "least recently accessed lines are evicted first"
        );
        let mut rest = lines[4..].to_vec();
        rest.sort_unstable();
        assert_eq!(want.1, rest, "drain order is sorted");
        assert_eq!(run(&reversed), want);
        assert_eq!(run(&interleaved), want);
    }

    #[test]
    #[should_panic(expected = "capacity must be nonzero")]
    fn zero_capacity_rejected() {
        ObjectBuffer::new(0);
    }
}
