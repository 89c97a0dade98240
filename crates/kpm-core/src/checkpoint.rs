//! Checkpoint/restart of the Chebyshev moment iteration.
//!
//! A KPM sweep at scale runs for hours; a crash must not mean a lost
//! run. This module serializes the recurrence state into one
//! self-validating binary record per checkpoint, a [`Checkpoint`]: the
//! iteration index, the current (`v`) and next (`w`) Chebyshev block at
//! that iteration boundary, and the η prefix (µ0, µ1 and all
//! per-iteration scalar products up to the checkpoint), so the resumed
//! run continues the same sums in the same order and its moments are
//! bitwise those of the uninterrupted run. Records live behind a
//! [`CheckpointStore`], with an in-memory implementation for tests and a
//! directory-backed one for real runs. `kpm_moments_checkpointed` (in
//! [`crate::solver`]) writes them and resumes from the record
//! [`latest_consistent`] returns.
//!
//! The binary format (version 2) is fixed-layout little-endian: the
//! magic `KPMCKPT` and a version byte, the iteration and the width, the
//! three vectors each behind its length, and an FNV-1a checksum over
//! everything before it. Every decode failure — a version-1 record
//! included — surfaces as [`KpmError::CheckpointCorrupt`].
//!
//! Cost model (see README): a checkpoint after `m` sweeps is one record
//! of `(2 · n · R + (2 + 2m) · R) · 16` bytes plus 56 bytes of header,
//! lengths and checksum — for n ≈ 4·10⁶ rows at R = 32 about 4 GB,
//! written once every `interval` of the `M/2 − 1` sweeps.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Mutex;

use kpm_num::{Complex64, KpmError};

const MAGIC: &[u8; 8] = b"KPMCKPT\x02";

/// The recurrence state at an iteration boundary.
#[derive(Debug, Clone, PartialEq)]
pub struct Checkpoint {
    /// Number of completed Chebyshev sweeps (the next sweep to run).
    pub iteration: usize,
    /// Block width `R`.
    pub width: usize,
    /// The current block ν_m, row-major interleaved (entry `(i, j)` at
    /// `i * width + j`).
    pub v: Vec<Complex64>,
    /// The next block ν_{m+1}, same layout.
    pub w: Vec<Complex64>,
    /// The reduced η prefix in the flat layout
    /// `[µ0[0..R] | µ1[0..R] | per-sweep (even[0..R] | odd[0..R])]`.
    pub eta: Vec<Complex64>,
}

/// Where checkpoints live. Implementations must be safe to call from
/// several threads at once.
pub trait CheckpointStore: Send + Sync {
    /// Persists one checkpoint, replacing any record at its iteration.
    fn save_checkpoint(&self, ck: &Checkpoint) -> Result<(), KpmError>;
    /// Loads the record at `iteration`, if present.
    fn load_checkpoint(&self, iteration: usize) -> Result<Option<Checkpoint>, KpmError>;
    /// Iterations that hold a record, ascending.
    fn checkpoint_iterations(&self) -> Result<Vec<usize>, KpmError>;
}

/// The newest record that decodes and has `n` rows — the restart point.
///
/// Corruption tolerance: a record that fails validation (truncated
/// write, bit rot, garbage file under a checkpoint name, an older
/// format version) disqualifies only itself, not the scan, which falls
/// back to the next-older record. Only environmental errors (I/O, lock)
/// abort the search.
pub fn latest_consistent(
    store: &dyn CheckpointStore,
    n: usize,
) -> Result<Option<Checkpoint>, KpmError> {
    for it in store.checkpoint_iterations()?.into_iter().rev() {
        match store.load_checkpoint(it) {
            Ok(Some(ck)) if ck.rows() == n => return Ok(Some(ck)),
            Ok(_) | Err(KpmError::CheckpointCorrupt { .. }) => {}
            Err(e) => return Err(e),
        }
    }
    Ok(None)
}

// --- Binary encoding -------------------------------------------------

struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    fn new() -> Self {
        let mut buf = Vec::with_capacity(64);
        buf.extend_from_slice(MAGIC);
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
    /// Checks the checksum and the header of `buf` and positions the
    /// reader after the header.
    fn new(buf: &'a [u8]) -> Result<Self, KpmError> {
        if buf.len() < MAGIC.len() + 8 {
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
        Ok(Dec {
            buf: body,
            pos: MAGIC.len(),
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

impl Checkpoint {
    /// The η length after `iteration` sweeps at block width `width`,
    /// `(2 + 2 · iteration) · width`; `None` if that overflows.
    pub fn eta_len(iteration: usize, width: usize) -> Option<usize> {
        iteration.checked_add(1)?.checked_mul(width)?.checked_mul(2)
    }

    /// Rows of the two blocks.
    pub fn rows(&self) -> usize {
        self.v.len() / self.width.max(1)
    }

    /// Serializes to the self-validating binary format.
    pub fn encode(&self) -> Vec<u8> {
        let mut e = Enc::new();
        e.u64(self.iteration as u64);
        e.u64(self.width as u64);
        e.complex_slice(&self.v);
        e.complex_slice(&self.w);
        e.complex_slice(&self.eta);
        e.finish()
    }

    /// Decodes and validates a record produced by [`Self::encode`].
    pub fn decode(bytes: &[u8]) -> Result<Self, KpmError> {
        let mut d = Dec::new(bytes)?;
        let iteration = d.u64()? as usize;
        let width = d.u64()? as usize;
        let v = d.complex_vec()?;
        let w = d.complex_vec()?;
        let eta = d.complex_vec()?;
        d.done()?;
        if width == 0 || v.len() % width != 0 || w.len() != v.len() {
            return Err(corrupt("block lengths do not match the width"));
        }
        if Self::eta_len(iteration, width) != Some(eta.len()) {
            return Err(corrupt("eta length does not match iteration/width"));
        }
        Ok(Checkpoint {
            iteration,
            width,
            v,
            w,
            eta,
        })
    }
}

// --- Stores ----------------------------------------------------------

/// Checkpoints held in memory — the store used by tests and by the
/// fault-injection harness, where "disk" survives a simulated crash
/// because the store outlives the run.
#[derive(Default)]
pub struct MemoryCheckpointStore {
    records: Mutex<BTreeMap<usize, Vec<u8>>>,
}

impl MemoryCheckpointStore {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }
}

impl CheckpointStore for MemoryCheckpointStore {
    fn save_checkpoint(&self, ck: &Checkpoint) -> Result<(), KpmError> {
        self.records
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .insert(ck.iteration, ck.encode());
        Ok(())
    }

    fn load_checkpoint(&self, iteration: usize) -> Result<Option<Checkpoint>, KpmError> {
        self.records
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .get(&iteration)
            .map(|b| Checkpoint::decode(b))
            .transpose()
    }

    fn checkpoint_iterations(&self) -> Result<Vec<usize>, KpmError> {
        let records = self.records.lock().unwrap_or_else(|e| e.into_inner());
        Ok(records.keys().copied().collect())
    }
}

/// Checkpoints as files in a directory, one `ckpt-<iter>.ckpt` each,
/// written via a temporary name + rename so a crash mid-write never
/// leaves a half record under the final name.
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

    fn file_name(iteration: usize) -> String {
        format!("ckpt-{iteration:08}.ckpt")
    }
}

impl CheckpointStore for DirCheckpointStore {
    fn save_checkpoint(&self, ck: &Checkpoint) -> Result<(), KpmError> {
        let name = Self::file_name(ck.iteration);
        let tmp = self.dir.join(format!("{name}.tmp"));
        std::fs::write(&tmp, ck.encode())?;
        std::fs::rename(&tmp, self.dir.join(name))?;
        Ok(())
    }

    fn load_checkpoint(&self, iteration: usize) -> Result<Option<Checkpoint>, KpmError> {
        match std::fs::read(self.dir.join(Self::file_name(iteration))) {
            Ok(b) => Checkpoint::decode(&b).map(Some),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(e.into()),
        }
    }

    fn checkpoint_iterations(&self) -> Result<Vec<usize>, KpmError> {
        let mut out = Vec::new();
        for entry in std::fs::read_dir(&self.dir)? {
            let name = entry?.file_name();
            let name = name.to_string_lossy();
            if let Some(num) = name
                .strip_prefix("ckpt-")
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
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(iteration: usize, rows: usize, width: usize) -> Checkpoint {
        let n = rows * width;
        Checkpoint {
            iteration,
            width,
            v: (0..n)
                .map(|i| Complex64::new(i as f64, -(i as f64)))
                .collect(),
            w: (0..n)
                .map(|i| Complex64::new(0.5 * i as f64, 2.0))
                .collect(),
            eta: (0..Checkpoint::eta_len(iteration, width).unwrap())
                .map(|i| Complex64::new(i as f64 * 0.1, 1.0 / (i + 1) as f64))
                .collect(),
        }
    }

    #[test]
    fn record_roundtrips_exactly() {
        let ck = sample(7, 13, 3);
        assert_eq!(ck.rows(), 13);
        let back = Checkpoint::decode(&ck.encode()).expect("decode");
        assert_eq!(ck, back);
    }

    #[test]
    fn bitflip_is_detected() {
        let mut bytes = sample(1, 8, 2).encode();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        let err = Checkpoint::decode(&bytes).expect_err("corruption must be caught");
        assert!(matches!(err, KpmError::CheckpointCorrupt { .. }));
    }

    #[test]
    fn truncation_is_detected() {
        let bytes = sample(1, 8, 2).encode();
        let err = Checkpoint::decode(&bytes[..bytes.len() - 3]).expect_err("truncated");
        assert!(matches!(err, KpmError::CheckpointCorrupt { .. }));
    }

    #[test]
    fn memory_store_roundtrip_and_inventory() {
        let store = MemoryCheckpointStore::new();
        store.save_checkpoint(&sample(8, 10, 2)).unwrap();
        store.save_checkpoint(&sample(4, 10, 2)).unwrap();
        assert_eq!(store.checkpoint_iterations().unwrap(), vec![4, 8]);
        assert_eq!(store.load_checkpoint(4).unwrap(), Some(sample(4, 10, 2)));
        assert!(store.load_checkpoint(9).unwrap().is_none());
        let newest = latest_consistent(&store, 10).unwrap().expect("10 rows");
        assert_eq!(newest, sample(8, 10, 2));
        // Neither record has the rows of a 40-row problem.
        assert_eq!(latest_consistent(&store, 40).unwrap(), None);
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
        let ck = sample(3, 6, 2);
        store.save_checkpoint(&ck).unwrap();
        assert!(dir.join("ckpt-00000003.ckpt").is_file());
        let back = store.load_checkpoint(3).unwrap().expect("present");
        assert_eq!(ck, back);
        assert_eq!(store.checkpoint_iterations().unwrap(), vec![3]);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
