//! The content-addressed result cache: a memory LRU over a persistent
//! layer under `results/cache/`.
//!
//! A simulated run is a pure function of its
//! [`RunConfig`](distda_system::RunConfig) and inputs (the manifests'
//! structural FNV-1a hashes prove it), so a finished
//! [`RunResult`] can be served again for any identical request. The cache
//! key combines the kernel name, the input scale and the existing
//! manifest [`config_hash`](distda_obs::manifest::config_hash) — the same
//! identity a manifest line records.
//!
//! Entries round-trip through a canonical text encoding in which every
//! `f64` is stored as its IEEE-754 bit pattern (hex), so decode(encode(r))
//! is *bit*-identical — no float-formatting fidelity risk. Each persisted
//! entry carries an FNV-1a hash of its payload in the header; the hash is
//! re-checked on every read, so a poisoned or truncated file is detected
//! and reported as a miss (the caller re-simulates and rewrites it).

use distda_energy::{EnergyBreakdown, EnergyCounters};
use distda_system::{slug, RunResult};
use distda_trace::Report;
use std::collections::HashMap;
use std::collections::VecDeque;
use std::path::{Path, PathBuf};

/// Default persistent cache directory, relative to the working directory.
pub const DEFAULT_CACHE_DIR: &str = "results/cache";

const MAGIC: &str = "distda-cache v1";

/// FNV-1a over raw bytes, 16 lower-case hex digits (the same rendering
/// the manifest config hashes use).
pub fn fnv1a_hex(bytes: &[u8]) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{h:016x}")
}

fn push_u64s(out: &mut String, key: &str, vals: &[u64]) {
    out.push_str(key);
    for v in vals {
        out.push(' ');
        out.push_str(&v.to_string());
    }
    out.push('\n');
}

fn push_f64_bits(out: &mut String, key: &str, vals: &[f64]) {
    out.push_str(key);
    for v in vals {
        out.push(' ');
        out.push_str(&format!("{:016x}", v.to_bits()));
    }
    out.push('\n');
}

/// Encodes a [`RunResult`] into the canonical cache payload. The encoding
/// is deterministic (report entries iterate in key order), so two results
/// are equal iff their encodings are byte-identical — the equality the
/// dedupe tests assert.
pub fn encode_result(r: &RunResult) -> String {
    let mut out = String::with_capacity(1024);
    out.push_str("kernel ");
    out.push_str(&r.kernel);
    out.push('\n');
    out.push_str("config ");
    out.push_str(&r.config);
    out.push('\n');
    push_u64s(&mut out, "ticks", &[r.ticks]);
    push_f64_bits(&mut out, "ns", &[r.ns]);
    let e = &r.energy;
    push_f64_bits(
        &mut out,
        "energy",
        &[e.core, e.accel, e.cache, e.noc, e.dram, e.buffers, e.mmio],
    );
    let c = &r.counters;
    push_u64s(
        &mut out,
        "counters",
        &[
            c.host_ops,
            c.io_ops,
            c.cgra_ops,
            c.l1_accesses,
            c.l2_accesses,
            c.l3_accesses,
            c.dram_accesses,
            c.noc_hop_bytes,
            c.buffer_elem_accesses,
            c.buffer_line_moves,
            c.mmio_words,
            c.flushed_lines,
        ],
    );
    push_u64s(
        &mut out,
        "totals",
        &[
            r.cache_accesses,
            r.mem_ops,
            r.total_ops,
            r.host_ops,
            r.intra_bytes,
            r.da_bytes,
            r.aa_bytes,
            r.data_moved_bytes,
        ],
    );
    push_u64s(&mut out, "noc_bytes", &r.noc_bytes);
    out.push_str(if r.validated {
        "validated true\n"
    } else {
        "validated false\n"
    });
    push_u64s(&mut out, "report", &[r.report.len() as u64]);
    for (k, v) in r.report.iter() {
        // Bits first so the key may contain spaces.
        out.push_str(&format!("r {:016x} {k}\n", v.to_bits()));
    }
    out
}

fn want<'a>(line: Option<&'a str>, key: &str) -> Result<&'a str, String> {
    let line = line.ok_or_else(|| format!("cache payload truncated before `{key}`"))?;
    line.strip_prefix(key)
        .and_then(|rest| rest.strip_prefix(' '))
        .ok_or_else(|| format!("cache payload expected `{key}`, got `{line}`"))
}

fn u64s(field: &str, n: usize) -> Result<Vec<u64>, String> {
    let vals: Result<Vec<u64>, _> = field.split(' ').map(str::parse::<u64>).collect();
    let vals = vals.map_err(|e| format!("cache payload bad integer: {e}"))?;
    if vals.len() != n {
        return Err(format!(
            "cache payload expected {n} integers, got {}",
            vals.len()
        ));
    }
    Ok(vals)
}

fn f64_bits(field: &str, n: usize) -> Result<Vec<f64>, String> {
    let vals: Result<Vec<f64>, String> = field
        .split(' ')
        .map(|t| {
            u64::from_str_radix(t, 16)
                .map(f64::from_bits)
                .map_err(|e| format!("cache payload bad f64 bits `{t}`: {e}"))
        })
        .collect();
    let vals = vals?;
    if vals.len() != n {
        return Err(format!(
            "cache payload expected {n} floats, got {}",
            vals.len()
        ));
    }
    Ok(vals)
}

/// Decodes a canonical cache payload back into a [`RunResult`].
///
/// # Errors
///
/// Returns a message naming the malformed field.
pub fn decode_result(payload: &str) -> Result<RunResult, String> {
    let mut lines = payload.lines();
    let kernel = want(lines.next(), "kernel")?.to_string();
    let config = want(lines.next(), "config")?.to_string();
    let ticks = u64s(want(lines.next(), "ticks")?, 1)?[0];
    let ns = f64_bits(want(lines.next(), "ns")?, 1)?[0];
    let e = f64_bits(want(lines.next(), "energy")?, 7)?;
    let energy = EnergyBreakdown {
        core: e[0],
        accel: e[1],
        cache: e[2],
        noc: e[3],
        dram: e[4],
        buffers: e[5],
        mmio: e[6],
    };
    let c = u64s(want(lines.next(), "counters")?, 12)?;
    let counters = EnergyCounters {
        host_ops: c[0],
        io_ops: c[1],
        cgra_ops: c[2],
        l1_accesses: c[3],
        l2_accesses: c[4],
        l3_accesses: c[5],
        dram_accesses: c[6],
        noc_hop_bytes: c[7],
        buffer_elem_accesses: c[8],
        buffer_line_moves: c[9],
        mmio_words: c[10],
        flushed_lines: c[11],
    };
    let t = u64s(want(lines.next(), "totals")?, 8)?;
    let nb = u64s(want(lines.next(), "noc_bytes")?, 5)?;
    let validated = match want(lines.next(), "validated")? {
        "true" => true,
        "false" => false,
        other => return Err(format!("cache payload bad validated flag `{other}`")),
    };
    let entries = u64s(want(lines.next(), "report")?, 1)?[0] as usize;
    let mut report = Report::new();
    for _ in 0..entries {
        let line = want(lines.next(), "r")?;
        let (bits, key) = line
            .split_once(' ')
            .ok_or_else(|| format!("cache payload bad report line `{line}`"))?;
        let v = u64::from_str_radix(bits, 16)
            .map(f64::from_bits)
            .map_err(|e| format!("cache payload bad report bits `{bits}`: {e}"))?;
        report.add(key, v);
    }
    if lines.next().is_some() {
        return Err("cache payload has trailing data".to_string());
    }
    Ok(RunResult {
        kernel,
        config,
        ticks,
        ns,
        energy,
        counters,
        cache_accesses: t[0],
        mem_ops: t[1],
        total_ops: t[2],
        host_ops: t[3],
        intra_bytes: t[4],
        da_bytes: t[5],
        aa_bytes: t[6],
        noc_bytes: [nb[0], nb[1], nb[2], nb[3], nb[4]],
        data_moved_bytes: t[7],
        validated,
        report,
    })
}

/// Renders a persisted entry: magic + payload hash header, then payload.
pub fn render_entry(payload: &str) -> String {
    format!("{MAGIC} {}\n{payload}", fnv1a_hex(payload.as_bytes()))
}

/// Splits and verifies a persisted entry, returning the payload.
///
/// # Errors
///
/// Returns a message when the magic is wrong or the payload hash does not
/// match the header (a poisoned or truncated entry).
pub fn verify_entry(contents: &str) -> Result<&str, String> {
    let (header, payload) = contents
        .split_once('\n')
        .ok_or_else(|| "cache entry has no header line".to_string())?;
    let hash = header
        .strip_prefix(MAGIC)
        .and_then(|r| r.strip_prefix(' '))
        .ok_or_else(|| format!("cache entry bad magic `{header}`"))?;
    let actual = fnv1a_hex(payload.as_bytes());
    if hash != actual {
        return Err(format!(
            "cache entry hash mismatch: header {hash}, payload {actual}"
        ));
    }
    Ok(payload)
}

/// Running totals of cache traffic.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the memory LRU.
    pub hits_mem: u64,
    /// Lookups answered from the persistent layer.
    pub hits_disk: u64,
    /// Lookups that found nothing usable.
    pub misses: u64,
    /// Persisted entries rejected by the hash re-check (poison/truncation).
    pub corrupt: u64,
    /// Persisted entries removed by disk byte-budget enforcement.
    pub evictions: u64,
}

impl CacheStats {
    /// Hits over total lookups, 0.0 when idle.
    pub fn hit_ratio(&self) -> f64 {
        let hits = self.hits_mem + self.hits_disk;
        let total = hits + self.misses;
        if total == 0 {
            0.0
        } else {
            hits as f64 / total as f64
        }
    }
}

/// The two-layer content-addressed cache. See the [module docs](self).
#[derive(Debug)]
pub struct ResultCache {
    dir: Option<PathBuf>,
    mem_cap: usize,
    /// Persistent-layer byte budget; 0 = unbounded.
    disk_budget: u64,
    mem: HashMap<String, String>,
    /// Keys in recency order, most recent at the back.
    lru: VecDeque<String>,
    stats: CacheStats,
}

impl ResultCache {
    /// A cache holding at most `mem_cap` in-memory entries, persisting
    /// under `dir` (`None` = memory only).
    pub fn new(mem_cap: usize, dir: Option<PathBuf>) -> Self {
        Self {
            dir,
            mem_cap,
            disk_budget: 0,
            mem: HashMap::new(),
            lru: VecDeque::new(),
            stats: CacheStats::default(),
        }
    }

    /// Bounds the persistent layer at `bytes` (0 = unbounded). When a
    /// write pushes the directory over the budget, the least recently
    /// used entries are deleted until it fits again.
    pub fn with_disk_budget(mut self, bytes: u64) -> Self {
        self.disk_budget = bytes;
        self
    }

    /// The cache key for one sweep cell: kernel, input scale and the
    /// manifest config hash.
    pub fn key(kernel: &str, scale: &str, config_hash: &str) -> String {
        format!("{kernel}/{scale}/{config_hash}")
    }

    fn path_for(dir: &Path, key: &str) -> PathBuf {
        dir.join(format!("{}.entry", slug(key)))
    }

    /// In-memory entry count.
    pub fn mem_entries(&self) -> usize {
        self.mem.len()
    }

    /// Traffic totals so far.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Bytes currently persisted under the cache directory (0 when the
    /// persistent layer is disabled or unreadable).
    pub fn disk_bytes(&self) -> u64 {
        self.dir
            .as_deref()
            .map(|d| Self::scan_dir(d).iter().map(|(_, len, _)| len).sum())
            .unwrap_or(0)
    }

    /// Every persisted entry as (path, byte length, modified time),
    /// sorted oldest-first with the file name as a deterministic
    /// tie-break on filesystems with coarse timestamps.
    fn scan_dir(dir: &Path) -> Vec<(PathBuf, u64, std::time::SystemTime)> {
        let Ok(rd) = std::fs::read_dir(dir) else {
            return Vec::new();
        };
        let mut entries: Vec<(PathBuf, u64, std::time::SystemTime)> = rd
            .flatten()
            .filter(|e| e.path().extension().is_some_and(|x| x == "entry"))
            .filter_map(|e| {
                let meta = e.metadata().ok()?;
                let mtime = meta.modified().ok()?;
                Some((e.path(), meta.len(), mtime))
            })
            .collect();
        entries.sort_by(|a, b| a.2.cmp(&b.2).then_with(|| a.0.cmp(&b.0)));
        entries
    }

    /// Deletes least-recently-used persisted entries until the directory
    /// fits the byte budget again, never evicting `keep` (the entry the
    /// caller just wrote — a budget smaller than one entry must still
    /// hold the latest result).
    fn enforce_disk_budget(&mut self, keep: &Path) {
        if self.disk_budget == 0 {
            return;
        }
        let Some(dir) = self.dir.clone() else {
            return;
        };
        let entries = Self::scan_dir(&dir);
        let mut total: u64 = entries.iter().map(|(_, len, _)| len).sum();
        for (path, len, _) in entries {
            if total <= self.disk_budget {
                break;
            }
            if path == keep {
                continue;
            }
            if std::fs::remove_file(&path).is_ok() {
                total = total.saturating_sub(len);
                self.stats.evictions += 1;
            }
        }
    }

    fn touch(&mut self, key: &str) {
        if let Some(pos) = self.lru.iter().position(|k| k == key) {
            self.lru.remove(pos);
        }
        self.lru.push_back(key.to_string());
    }

    /// Looks up `key`, checking the memory LRU first, then the persistent
    /// layer (verifying the payload hash and promoting on success). A
    /// corrupt persisted entry counts as a miss — the caller re-simulates
    /// and [`ResultCache::put`] overwrites the bad file.
    pub fn get(&mut self, key: &str) -> Option<RunResult> {
        if let Some(payload) = self.mem.get(key) {
            if let Ok(r) = decode_result(payload) {
                self.stats.hits_mem += 1;
                self.touch(key);
                return Some(r);
            }
            // An undecodable in-memory payload cannot happen via put(),
            // but degrade to a miss rather than serving garbage.
            self.mem.remove(key);
        }
        if let Some(dir) = self.dir.clone() {
            let path = Self::path_for(&dir, key);
            if let Ok(contents) = std::fs::read_to_string(&path) {
                match verify_entry(&contents).and_then(|p| decode_result(p).map(|r| (p, r))) {
                    Ok((payload, r)) => {
                        self.stats.hits_disk += 1;
                        // Rewrite the entry to refresh its modified time:
                        // disk eviction is LRU over *use*, not creation.
                        if self.disk_budget > 0 {
                            let _ = std::fs::write(&path, &contents);
                        }
                        self.insert_mem(key, payload.to_string());
                        return Some(r);
                    }
                    Err(_) => {
                        self.stats.corrupt += 1;
                    }
                }
            }
        }
        self.stats.misses += 1;
        None
    }

    fn insert_mem(&mut self, key: &str, payload: String) {
        if self.mem_cap == 0 {
            return;
        }
        if !self.mem.contains_key(key) && self.mem.len() >= self.mem_cap {
            if let Some(evict) = self.lru.pop_front() {
                self.mem.remove(&evict);
            }
        }
        self.mem.insert(key.to_string(), payload);
        self.touch(key);
    }

    /// Stores a result under `key` in both layers. Persistence is
    /// best-effort: an unwritable cache directory degrades the cache, it
    /// never fails the run.
    pub fn put(&mut self, key: &str, r: &RunResult) {
        let payload = encode_result(r);
        if let Some(dir) = self.dir.clone() {
            if std::fs::create_dir_all(&dir).is_ok() {
                let path = Self::path_for(&dir, key);
                let _ = std::fs::write(&path, render_entry(&payload));
                self.enforce_disk_budget(&path);
            }
        }
        self.insert_mem(key, payload);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use distda_system::{ConfigKind, RunConfig};
    use distda_workloads::{pointer_chase, Scale};

    fn tiny_result() -> RunResult {
        pointer_chase(&Scale::tiny())
            .try_simulate(&RunConfig::named(ConfigKind::OoO))
            .unwrap()
    }

    fn tmpdir(tag: &str) -> PathBuf {
        let d =
            std::env::temp_dir().join(format!("distda-serve-cache-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn encode_decode_is_bit_identical() {
        let r = tiny_result();
        let payload = encode_result(&r);
        let back = decode_result(&payload).unwrap();
        // Bit-identity: re-encoding the decoded result reproduces the
        // exact payload (covers every f64 via to_bits round-trip).
        assert_eq!(encode_result(&back), payload);
        assert_eq!(back.kernel, r.kernel);
        assert_eq!(back.ticks, r.ticks);
        assert_eq!(back.report.len(), r.report.len());
        assert_eq!(back.ns.to_bits(), r.ns.to_bits());
    }

    #[test]
    fn decode_rejects_truncation_and_garbage() {
        let payload = encode_result(&tiny_result());
        let cut = &payload[..payload.len() / 2];
        assert!(decode_result(cut).is_err());
        assert!(decode_result("not a payload").is_err());
    }

    #[test]
    fn entry_hash_detects_poisoning() {
        let payload = encode_result(&tiny_result());
        let entry = render_entry(&payload);
        assert_eq!(verify_entry(&entry).unwrap(), payload);
        // Flip one byte of the payload: the header hash no longer matches.
        let poisoned = entry.replace("validated true", "validated false");
        assert_ne!(poisoned, entry);
        assert!(verify_entry(&poisoned).is_err());
        // Truncate: either the header splits wrong or the hash mismatches.
        let truncated = &entry[..entry.len() - 10];
        assert!(verify_entry(truncated).is_err());
    }

    #[test]
    fn disk_layer_round_trips_and_survives_poison() {
        let dir = tmpdir("disk");
        // mem_cap 0: force every lookup through the persistent layer.
        let mut cache = ResultCache::new(0, Some(dir.clone()));
        let r = tiny_result();
        let key = ResultCache::key(&r.kernel, "tiny", "fnv1a:abc");
        assert!(cache.get(&key).is_none());
        cache.put(&key, &r);
        let got = cache.get(&key).expect("disk hit");
        assert_eq!(encode_result(&got), encode_result(&r));
        // Poison the file on disk: the hash re-check turns it into a miss.
        let path = dir.join(format!("{}.entry", slug(&key)));
        let mut contents = std::fs::read_to_string(&path).unwrap();
        contents = contents.replace("ticks", "tocks");
        std::fs::write(&path, contents).unwrap();
        assert!(cache.get(&key).is_none());
        assert_eq!(cache.stats().corrupt, 1);
        // Re-populating overwrites the poisoned entry.
        cache.put(&key, &r);
        assert!(cache.get(&key).is_some());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn memory_lru_evicts_oldest() {
        let mut cache = ResultCache::new(2, None);
        let r = tiny_result();
        cache.put("a", &r);
        cache.put("b", &r);
        assert!(cache.get("a").is_some()); // refresh a: b is now oldest
        cache.put("c", &r);
        assert_eq!(cache.mem_entries(), 2);
        assert!(cache.get("b").is_none());
        assert!(cache.get("a").is_some());
        assert!(cache.get("c").is_some());
    }

    #[test]
    fn disk_budget_bounds_directory_and_counts_evictions() {
        let dir = tmpdir("budget");
        let r = tiny_result();
        let one_entry = render_entry(&encode_result(&r)).len() as u64;
        // Budget fits two entries but not three.
        let budget = 2 * one_entry + one_entry / 2;
        let mut cache = ResultCache::new(0, Some(dir.clone())).with_disk_budget(budget);
        cache.put("a", &r);
        cache.put("b", &r);
        assert_eq!(cache.stats().evictions, 0);
        assert!(cache.disk_bytes() <= budget);
        cache.put("c", &r);
        assert!(cache.disk_bytes() <= budget, "budget must bound the dir");
        assert_eq!(cache.stats().evictions, 1);
        // The entry just written always survives, even under pressure.
        assert!(cache.get("c").is_some());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn tiny_budget_still_holds_latest_entry() {
        let dir = tmpdir("tiny-budget");
        let r = tiny_result();
        // A budget smaller than a single entry: each put evicts all
        // older entries but keeps the one just written.
        let mut cache = ResultCache::new(0, Some(dir.clone())).with_disk_budget(1);
        cache.put("a", &r);
        cache.put("b", &r);
        assert!(cache.get("b").is_some());
        assert!(cache.get("a").is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn hit_ratio_counts_both_layers() {
        let mut s = CacheStats::default();
        assert_eq!(s.hit_ratio(), 0.0);
        s.hits_mem = 2;
        s.hits_disk = 1;
        s.misses = 1;
        assert!((s.hit_ratio() - 0.75).abs() < 1e-12);
    }
}
