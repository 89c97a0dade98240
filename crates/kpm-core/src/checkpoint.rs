//! Checkpoint/restart of the Chebyshev moment iteration.
//!
//! A KPM sweep at scale runs for hours; a crash must not mean a lost
//! run. This module serializes the recurrence state — the iteration
//! index, the two live Chebyshev (block) vectors, and the moment
//! partials accumulated so far — into self-validating binary records,
//! behind a [`CheckpointStore`] abstraction with an in-memory
//! implementation for tests and a directory-backed one for real runs.
//! `kpm_moments_checkpointed` (in [`crate::solver`]) writes them and
//! resumes from [`latest_consistent`].
//!
//! Two record kinds:
//!
//! * [`RankCheckpoint`] — the rows `row_begin..row_end` of the current
//!   (`v`) and next (`w`) Chebyshev block at an iteration boundary. The
//!   single-process solver writes one record, rank 0, over all rows; a
//!   restart point is any set of records that tiles `0..n`.
//! * [`EtaCheckpoint`] — the reduced η prefix (µ0, µ1 and all
//!   per-iteration scalar products up to the checkpoint), so the
//!   resumed run continues the same sums in the same order and its
//!   moments are bitwise those of the uninterrupted run.
//!
//! The binary format is fixed-layout little-endian with a magic header,
//! a version byte, explicit lengths, and an FNV-1a checksum over the
//! payload; every decode failure surfaces as
//! [`KpmError::CheckpointCorrupt`].
//!
//! Cost model (see README): a rank checkpoint is `2 · n · R · 16`
//! bytes of vector payload plus a 64-byte header — for n ≈ 4·10⁶ rows
//! at R = 32 about 4 GiB, written once every `interval` of the
//! `M/2 − 1` sweeps.

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::Mutex;

use kpm_num::{Complex64, KpmError};

const MAGIC: &[u8; 8] = b"KPMCKPT\x01";
const KIND_RANK: u8 = 1;
const KIND_ETA: u8 = 2;

/// One rank's recurrence state at an iteration boundary.
#[derive(Debug, Clone, PartialEq)]
pub struct RankCheckpoint {
    /// Number of completed Chebyshev sweeps (the next sweep to run).
    pub iteration: usize,
    /// The rank that wrote this record.
    pub rank: usize,
    /// First global row this rank owned.
    pub row_begin: usize,
    /// One past the last global row this rank owned.
    pub row_end: usize,
    /// Block width `R`.
    pub width: usize,
    /// Halo payload bytes this rank had sent so far.
    pub halo_sent: u64,
    /// Local rows of the current block ν_m, row-major interleaved
    /// (`(row_end - row_begin) * width` entries).
    pub v: Vec<Complex64>,
    /// Local rows of the next block ν_{m+1}, same layout.
    pub w: Vec<Complex64>,
}

/// The reduced η prefix at an iteration boundary, in the flat layout:
/// `[µ0[0..R] | µ1[0..R] | per-sweep (even[0..R] | odd[0..R])]`.
#[derive(Debug, Clone, PartialEq)]
pub struct EtaCheckpoint {
    /// Number of completed Chebyshev sweeps covered by `eta`.
    pub iteration: usize,
    /// Block width `R`.
    pub width: usize,
    /// `2R + iteration · 2R` reduced values.
    pub eta: Vec<Complex64>,
}

impl EtaCheckpoint {
    /// The η length implied by `iteration` and `width`.
    pub fn expected_len(iteration: usize, width: usize) -> usize {
        2 * width + iteration * 2 * width
    }
}

/// Where checkpoints live. Implementations must be safe to call from
/// several threads at once.
pub trait CheckpointStore: Send + Sync {
    /// Persists one rank's recurrence state.
    fn save_rank(&self, ck: &RankCheckpoint) -> Result<(), KpmError>;
    /// Persists the globally reduced η prefix.
    fn save_eta(&self, ck: &EtaCheckpoint) -> Result<(), KpmError>;
    /// Loads one rank's state at `iteration`, if present.
    fn load_rank(&self, iteration: usize, rank: usize) -> Result<Option<RankCheckpoint>, KpmError>;
    /// Loads the η prefix at `iteration`, if present.
    fn load_eta(&self, iteration: usize) -> Result<Option<EtaCheckpoint>, KpmError>;
    /// Iterations that have an η record, ascending.
    fn eta_iterations(&self) -> Result<Vec<usize>, KpmError>;
    /// Ranks with a record at `iteration`, ascending.
    fn ranks_at(&self, iteration: usize) -> Result<Vec<usize>, KpmError>;
}

/// Finds the newest iteration that has a *decodable* η record plus a
/// *complete* tiling of rows `0..n` by decodable rank records — the
/// restart point.
///
/// Corruption tolerance: a record that fails validation (truncated
/// write, bit rot, garbage file under a checkpoint name) disqualifies
/// only itself, not the scan. A corrupt η skips that iteration; a
/// corrupt rank record drops out of the tiling, and if the remaining
/// spans no longer cover `0..n` the scan falls back to the next-older
/// candidate. Only environmental errors (I/O, lock) abort the search.
pub fn latest_consistent(store: &dyn CheckpointStore, n: usize) -> Result<Option<usize>, KpmError> {
    let mut iters = store.eta_iterations()?;
    iters.sort_unstable();
    for &it in iters.iter().rev() {
        match store.load_eta(it) {
            Ok(Some(_)) => {}
            Ok(None) => continue,
            Err(KpmError::CheckpointCorrupt { .. }) => continue,
            Err(e) => return Err(e),
        }
        let ranks = store.ranks_at(it)?;
        let mut spans: Vec<(usize, usize)> = Vec::with_capacity(ranks.len());
        for r in ranks {
            match store.load_rank(it, r) {
                Ok(Some(ck)) => spans.push((ck.row_begin, ck.row_end)),
                Ok(None) => {}
                Err(KpmError::CheckpointCorrupt { .. }) => {}
                Err(e) => return Err(e),
            }
        }
        spans.sort_unstable();
        let tiles = !spans.is_empty()
            && spans.first().map(|s| s.0) == Some(0)
            && spans.last().map(|s| s.1) == Some(n)
            && spans.windows(2).all(|p| p[0].1 == p[1].0);
        if tiles {
            return Ok(Some(it));
        }
    }
    Ok(None)
}

// --- Binary encoding -------------------------------------------------

struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    fn new(kind: u8) -> Self {
        let mut buf = Vec::with_capacity(64);
        buf.extend_from_slice(MAGIC);
        buf.push(kind);
        Enc { buf }
    }

    fn u64(&mut self, x: u64) {
        self.buf.extend_from_slice(&x.to_le_bytes());
    }

    fn complex_slice(&mut self, xs: &[Complex64]) {
        self.u64(xs.len() as u64);
        for x in xs {
            self.buf.extend_from_slice(&x.re.to_le_bytes());
            self.buf.extend_from_slice(&x.im.to_le_bytes());
        }
    }

    /// Appends the FNV-1a checksum of everything so far and returns the
    /// finished record.
    fn finish(mut self) -> Vec<u8> {
        let sum = fnv1a(&self.buf);
        self.u64(sum);
        self.buf
    }
}

struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    fn new(buf: &'a [u8], kind: u8) -> Result<Self, KpmError> {
        if buf.len() < MAGIC.len() + 1 + 8 {
            return Err(corrupt("record shorter than header + checksum"));
        }
        let (body, sum_bytes) = buf.split_at(buf.len() - 8);
        let stored = u64::from_le_bytes(
            sum_bytes
                .try_into()
                .map_err(|_| corrupt("checksum field size"))?,
        );
        if fnv1a(body) != stored {
            return Err(corrupt("checksum mismatch"));
        }
        if &body[..MAGIC.len()] != MAGIC {
            return Err(corrupt("bad magic or version"));
        }
        if body[MAGIC.len()] != kind {
            return Err(corrupt("wrong record kind"));
        }
        Ok(Dec {
            buf: body,
            pos: MAGIC.len() + 1,
        })
    }

    fn u64(&mut self) -> Result<u64, KpmError> {
        let end = self.pos + 8;
        if end > self.buf.len() {
            return Err(corrupt("truncated integer field"));
        }
        let x = u64::from_le_bytes(
            self.buf[self.pos..end]
                .try_into()
                .map_err(|_| corrupt("integer field size"))?,
        );
        self.pos = end;
        Ok(x)
    }

    fn f64(&mut self) -> Result<f64, KpmError> {
        Ok(f64::from_bits(self.u64()?))
    }

    fn complex_vec(&mut self) -> Result<Vec<Complex64>, KpmError> {
        let len = self.u64()? as usize;
        if len > (self.buf.len() - self.pos) / 16 {
            return Err(corrupt("vector length exceeds record size"));
        }
        let mut out = Vec::with_capacity(len);
        for _ in 0..len {
            let re = self.f64()?;
            let im = self.f64()?;
            out.push(Complex64::new(re, im));
        }
        Ok(out)
    }

    fn done(&self) -> Result<(), KpmError> {
        if self.pos != self.buf.len() {
            return Err(corrupt("trailing bytes after payload"));
        }
        Ok(())
    }
}

fn corrupt(details: &str) -> KpmError {
    KpmError::CheckpointCorrupt {
        details: details.to_string(),
    }
}

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

impl RankCheckpoint {
    /// Serializes to the self-validating binary format.
    pub fn encode(&self) -> Vec<u8> {
        let mut e = Enc::new(KIND_RANK);
        e.u64(self.iteration as u64);
        e.u64(self.rank as u64);
        e.u64(self.row_begin as u64);
        e.u64(self.row_end as u64);
        e.u64(self.width as u64);
        e.u64(self.halo_sent);
        e.complex_slice(&self.v);
        e.complex_slice(&self.w);
        e.finish()
    }

    /// Decodes and validates a record produced by [`Self::encode`].
    pub fn decode(bytes: &[u8]) -> Result<Self, KpmError> {
        let mut d = Dec::new(bytes, KIND_RANK)?;
        let iteration = d.u64()? as usize;
        let rank = d.u64()? as usize;
        let row_begin = d.u64()? as usize;
        let row_end = d.u64()? as usize;
        let width = d.u64()? as usize;
        let halo_sent = d.u64()?;
        let v = d.complex_vec()?;
        let w = d.complex_vec()?;
        d.done()?;
        if row_end < row_begin {
            return Err(corrupt("row range is inverted"));
        }
        let rows = row_end - row_begin;
        if v.len() != rows * width || w.len() != rows * width {
            return Err(corrupt("vector length does not match row range"));
        }
        Ok(RankCheckpoint {
            iteration,
            rank,
            row_begin,
            row_end,
            width,
            halo_sent,
            v,
            w,
        })
    }
}

impl EtaCheckpoint {
    /// Serializes to the self-validating binary format.
    pub fn encode(&self) -> Vec<u8> {
        let mut e = Enc::new(KIND_ETA);
        e.u64(self.iteration as u64);
        e.u64(self.width as u64);
        e.complex_slice(&self.eta);
        e.finish()
    }

    /// Decodes and validates a record produced by [`Self::encode`].
    pub fn decode(bytes: &[u8]) -> Result<Self, KpmError> {
        let mut d = Dec::new(bytes, KIND_ETA)?;
        let iteration = d.u64()? as usize;
        let width = d.u64()? as usize;
        let eta = d.complex_vec()?;
        d.done()?;
        if eta.len() != Self::expected_len(iteration, width) {
            return Err(corrupt("eta length does not match iteration/width"));
        }
        Ok(EtaCheckpoint {
            iteration,
            width,
            eta,
        })
    }
}

// --- Stores ----------------------------------------------------------

/// Checkpoints held in memory — the store used by tests and by the
/// fault-injection harness, where "disk" survives a simulated crash
/// because the store outlives the world.
#[derive(Default)]
pub struct MemoryCheckpointStore {
    ranks: Mutex<HashMap<(usize, usize), Vec<u8>>>,
    etas: Mutex<HashMap<usize, Vec<u8>>>,
}

impl MemoryCheckpointStore {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total bytes currently held (the checkpoint footprint).
    pub fn total_bytes(&self) -> usize {
        let r: usize = self
            .ranks
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .values()
            .map(Vec::len)
            .sum();
        let e: usize = self
            .etas
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .values()
            .map(Vec::len)
            .sum();
        r + e
    }

    /// Flips one byte of a stored rank record — test hook for the
    /// corruption-detection path.
    pub fn corrupt_rank(&self, iteration: usize, rank: usize) -> bool {
        let mut map = self.ranks.lock().unwrap_or_else(|e| e.into_inner());
        match map.get_mut(&(iteration, rank)) {
            Some(bytes) if !bytes.is_empty() => {
                let mid = bytes.len() / 2;
                bytes[mid] ^= 0xFF;
                true
            }
            _ => false,
        }
    }
}

impl CheckpointStore for MemoryCheckpointStore {
    fn save_rank(&self, ck: &RankCheckpoint) -> Result<(), KpmError> {
        self.ranks
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .insert((ck.iteration, ck.rank), ck.encode());
        Ok(())
    }

    fn save_eta(&self, ck: &EtaCheckpoint) -> Result<(), KpmError> {
        self.etas
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .insert(ck.iteration, ck.encode());
        Ok(())
    }

    fn load_rank(&self, iteration: usize, rank: usize) -> Result<Option<RankCheckpoint>, KpmError> {
        self.ranks
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .get(&(iteration, rank))
            .map(|b| RankCheckpoint::decode(b))
            .transpose()
    }

    fn load_eta(&self, iteration: usize) -> Result<Option<EtaCheckpoint>, KpmError> {
        self.etas
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .get(&iteration)
            .map(|b| EtaCheckpoint::decode(b))
            .transpose()
    }

    fn eta_iterations(&self) -> Result<Vec<usize>, KpmError> {
        let mut v: Vec<usize> = self
            .etas
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .keys()
            .copied()
            .collect();
        v.sort_unstable();
        Ok(v)
    }

    fn ranks_at(&self, iteration: usize) -> Result<Vec<usize>, KpmError> {
        let mut v: Vec<usize> = self
            .ranks
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .keys()
            .filter(|(it, _)| *it == iteration)
            .map(|(_, r)| *r)
            .collect();
        v.sort_unstable();
        Ok(v)
    }
}

/// Checkpoints as files in a directory: `rank-<iter>-<rank>.ckpt` and
/// `eta-<iter>.ckpt`, written via a temporary name + rename so a crash
/// mid-write never leaves a half record under the final name.
pub struct DirCheckpointStore {
    dir: PathBuf,
}

impl DirCheckpointStore {
    /// Opens (creating if needed) `dir` as a checkpoint directory.
    pub fn new(dir: impl Into<PathBuf>) -> Result<Self, KpmError> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        Ok(DirCheckpointStore { dir })
    }

    fn write_atomic(&self, name: &str, bytes: &[u8]) -> Result<(), KpmError> {
        let tmp = self.dir.join(format!("{name}.tmp"));
        let fin = self.dir.join(name);
        std::fs::write(&tmp, bytes)?;
        std::fs::rename(&tmp, &fin)?;
        Ok(())
    }

    fn read_opt(&self, name: &str) -> Result<Option<Vec<u8>>, KpmError> {
        match std::fs::read(self.dir.join(name)) {
            Ok(b) => Ok(Some(b)),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(e.into()),
        }
    }
}

impl CheckpointStore for DirCheckpointStore {
    fn save_rank(&self, ck: &RankCheckpoint) -> Result<(), KpmError> {
        self.write_atomic(
            &format!("rank-{:08}-{:04}.ckpt", ck.iteration, ck.rank),
            &ck.encode(),
        )
    }

    fn save_eta(&self, ck: &EtaCheckpoint) -> Result<(), KpmError> {
        self.write_atomic(&format!("eta-{:08}.ckpt", ck.iteration), &ck.encode())
    }

    fn load_rank(&self, iteration: usize, rank: usize) -> Result<Option<RankCheckpoint>, KpmError> {
        self.read_opt(&format!("rank-{iteration:08}-{rank:04}.ckpt"))?
            .map(|b| RankCheckpoint::decode(&b))
            .transpose()
    }

    fn load_eta(&self, iteration: usize) -> Result<Option<EtaCheckpoint>, KpmError> {
        self.read_opt(&format!("eta-{iteration:08}.ckpt"))?
            .map(|b| EtaCheckpoint::decode(&b))
            .transpose()
    }

    fn eta_iterations(&self) -> Result<Vec<usize>, KpmError> {
        let mut out = Vec::new();
        for entry in std::fs::read_dir(&self.dir)? {
            let name = entry?.file_name();
            let name = name.to_string_lossy();
            if let Some(num) = name
                .strip_prefix("eta-")
                .and_then(|s| s.strip_suffix(".ckpt"))
            {
                if let Ok(it) = num.parse::<usize>() {
                    out.push(it);
                }
            }
        }
        out.sort_unstable();
        Ok(out)
    }

    fn ranks_at(&self, iteration: usize) -> Result<Vec<usize>, KpmError> {
        let prefix = format!("rank-{iteration:08}-");
        let mut out = Vec::new();
        for entry in std::fs::read_dir(&self.dir)? {
            let name = entry?.file_name();
            let name = name.to_string_lossy();
            if let Some(num) = name
                .strip_prefix(prefix.as_str())
                .and_then(|s| s.strip_suffix(".ckpt"))
            {
                if let Ok(r) = num.parse::<usize>() {
                    out.push(r);
                }
            }
        }
        out.sort_unstable();
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_rank(iter: usize, rank: usize, rows: usize, width: usize) -> RankCheckpoint {
        let n = rows * width;
        RankCheckpoint {
            iteration: iter,
            rank,
            row_begin: rank * rows,
            row_end: (rank + 1) * rows,
            width,
            halo_sent: 12345,
            v: (0..n)
                .map(|i| Complex64::new(i as f64, -(i as f64)))
                .collect(),
            w: (0..n)
                .map(|i| Complex64::new(0.5 * i as f64, 2.0))
                .collect(),
        }
    }

    #[test]
    fn rank_record_roundtrips_exactly() {
        let ck = sample_rank(7, 2, 13, 3);
        let back = RankCheckpoint::decode(&ck.encode()).expect("decode");
        assert_eq!(ck, back);
    }

    #[test]
    fn eta_record_roundtrips_exactly() {
        let width = 4;
        let iter = 5;
        let ck = EtaCheckpoint {
            iteration: iter,
            width,
            eta: (0..EtaCheckpoint::expected_len(iter, width))
                .map(|i| Complex64::new(i as f64 * 0.1, 1.0 / (i + 1) as f64))
                .collect(),
        };
        let back = EtaCheckpoint::decode(&ck.encode()).expect("decode");
        assert_eq!(ck, back);
    }

    #[test]
    fn bitflip_is_detected() {
        let ck = sample_rank(1, 0, 8, 2);
        let mut bytes = ck.encode();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        let err = RankCheckpoint::decode(&bytes).expect_err("corruption must be caught");
        assert!(matches!(err, KpmError::CheckpointCorrupt { .. }));
    }

    #[test]
    fn truncation_is_detected() {
        let ck = sample_rank(1, 0, 8, 2);
        let bytes = ck.encode();
        let err = RankCheckpoint::decode(&bytes[..bytes.len() - 3]).expect_err("truncated");
        assert!(matches!(err, KpmError::CheckpointCorrupt { .. }));
    }

    #[test]
    fn wrong_kind_is_rejected() {
        let eta = EtaCheckpoint {
            iteration: 0,
            width: 1,
            eta: vec![Complex64::real(1.0); 2],
        };
        let err = RankCheckpoint::decode(&eta.encode()).expect_err("kind mismatch");
        assert!(matches!(err, KpmError::CheckpointCorrupt { .. }));
    }

    #[test]
    fn memory_store_roundtrip_and_inventory() {
        let store = MemoryCheckpointStore::new();
        for rank in 0..3 {
            store.save_rank(&sample_rank(4, rank, 10, 2)).unwrap();
        }
        store
            .save_eta(&EtaCheckpoint {
                iteration: 4,
                width: 2,
                eta: vec![Complex64::default(); EtaCheckpoint::expected_len(4, 2)],
            })
            .unwrap();
        assert_eq!(store.eta_iterations().unwrap(), vec![4]);
        assert_eq!(store.ranks_at(4).unwrap(), vec![0, 1, 2]);
        assert!(store.load_rank(4, 1).unwrap().is_some());
        assert!(store.load_rank(4, 9).unwrap().is_none());
        assert!(store.total_bytes() > 0);
        // 3 ranks tile rows 0..30.
        assert_eq!(latest_consistent(&store, 30).unwrap(), Some(4));
        // But they do not tile a 40-row problem.
        assert_eq!(latest_consistent(&store, 40).unwrap(), None);
    }

    #[test]
    fn corrupt_store_entry_surfaces_on_load() {
        let store = MemoryCheckpointStore::new();
        store.save_rank(&sample_rank(2, 0, 5, 1)).unwrap();
        assert!(store.corrupt_rank(2, 0));
        let err = store.load_rank(2, 0).expect_err("must surface corruption");
        assert!(matches!(err, KpmError::CheckpointCorrupt { .. }));
    }

    #[test]
    fn dir_store_roundtrips_via_files() {
        let dir = std::env::temp_dir().join(format!(
            "kpm-ckpt-test-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let store = DirCheckpointStore::new(&dir).expect("create dir store");
        let ck = sample_rank(3, 1, 6, 2);
        store.save_rank(&ck).unwrap();
        store
            .save_eta(&EtaCheckpoint {
                iteration: 3,
                width: 2,
                eta: vec![Complex64::real(1.0); EtaCheckpoint::expected_len(3, 2)],
            })
            .unwrap();
        let back = store.load_rank(3, 1).unwrap().expect("present");
        assert_eq!(ck, back);
        assert_eq!(store.eta_iterations().unwrap(), vec![3]);
        assert_eq!(store.ranks_at(3).unwrap(), vec![1]);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
