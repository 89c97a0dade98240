//! Matrix Market I/O.
//!
//! The de-facto interchange format for sparse matrices (used by
//! SuiteSparse, GHOST — the paper's released library — and every SpMV
//! paper's benchmark suite). Supports the `matrix coordinate complex`
//! flavour with `general` or `hermitian` symmetry; Hermitian files
//! store only the lower triangle, as the spec requires.
//!
//! Only `std` is used — no new dependencies.

use std::io::{self, BufRead, Write};

use kpm_num::{Complex64, KpmError};

use crate::coo::CooMatrix;
use crate::crs::CrsMatrix;

/// Triplets reserved up front, at most (24 MiB). The size line is a
/// promise, not data: past this the triplet vector grows from the
/// entries actually read.
const MAX_RESERVED_TRIPLETS: usize = 1 << 20;

/// Errors produced by the Matrix Market reader.
#[derive(Debug)]
pub enum MmError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// Structural problem with the file contents.
    Parse(String),
    /// The entries read do not make a CRS matrix this process can hold.
    Matrix(KpmError),
}

impl std::fmt::Display for MmError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MmError::Io(e) => write!(f, "I/O error: {e}"),
            MmError::Parse(msg) => write!(f, "Matrix Market parse error: {msg}"),
            MmError::Matrix(e) => write!(f, "Matrix Market file: {e}"),
        }
    }
}

impl std::error::Error for MmError {}

impl From<io::Error> for MmError {
    fn from(e: io::Error) -> Self {
        MmError::Io(e)
    }
}

fn parse_err(msg: impl Into<String>) -> MmError {
    MmError::Parse(msg.into())
}

/// Writes `m` in `matrix coordinate complex general` format
/// (one-based indices, full pattern).
pub fn write_general<W: Write>(m: &CrsMatrix, out: &mut W) -> io::Result<()> {
    writeln!(out, "%%MatrixMarket matrix coordinate complex general")?;
    writeln!(out, "% written by kpm-repro")?;
    writeln!(out, "{} {} {}", m.nrows(), m.ncols(), m.nnz())?;
    for r in 0..m.nrows() {
        let row = m.row(r);
        for (&c, v) in row.cols().iter().zip(row.vals()) {
            writeln!(out, "{} {} {:e} {:e}", r + 1, c + 1, v.re, v.im)?;
        }
    }
    Ok(())
}

/// Writes a Hermitian matrix in `matrix coordinate complex hermitian`
/// format: only entries with `row >= col` are stored.
pub fn write_hermitian<W: Write>(m: &CrsMatrix, out: &mut W) -> io::Result<()> {
    assert!(
        m.is_hermitian(),
        "matrix must be Hermitian for hermitian output"
    );
    let lower: usize = (0..m.nrows())
        .map(|r| {
            m.row(r)
                .cols()
                .iter()
                .filter(|&&c| (c as usize) <= r)
                .count()
        })
        .sum();
    writeln!(out, "%%MatrixMarket matrix coordinate complex hermitian")?;
    writeln!(out, "% written by kpm-repro")?;
    writeln!(out, "{} {} {}", m.nrows(), m.ncols(), lower)?;
    for r in 0..m.nrows() {
        let row = m.row(r);
        for (&c, v) in row.cols().iter().zip(row.vals()) {
            if (c as usize) <= r {
                writeln!(out, "{} {} {:e} {:e}", r + 1, c + 1, v.re, v.im)?;
            }
        }
    }
    Ok(())
}

/// Reads a `matrix coordinate complex` file in `general` or
/// `hermitian` symmetry (also accepts `real`/`integer` values and
/// `symmetric` symmetry, promoting them to complex). A value that is not
/// finite is a parse error naming its line: no sweep could use it.
pub fn read<R: BufRead>(input: R) -> Result<CrsMatrix, MmError> {
    // Each line with its 1-based number.
    let mut lines = input.lines().zip(1usize..);

    // Header.
    let header = lines.next().ok_or_else(|| parse_err("empty file"))?.0?;
    let tokens: Vec<String> = header
        .split_whitespace()
        .map(|t| t.to_ascii_lowercase())
        .collect();
    if tokens.len() < 5 || tokens[0] != "%%matrixmarket" || tokens[1] != "matrix" {
        return Err(parse_err(format!("bad header: {header}")));
    }
    if tokens[2] != "coordinate" {
        return Err(parse_err("only coordinate format is supported"));
    }
    let field = tokens[3].as_str();
    if !matches!(field, "complex" | "real" | "integer") {
        return Err(parse_err(format!("unsupported field type: {field}")));
    }
    let symmetry = tokens[4].as_str();
    if !matches!(symmetry, "general" | "hermitian" | "symmetric") {
        return Err(parse_err(format!("unsupported symmetry: {symmetry}")));
    }
    let complex_values = field == "complex";

    // Size line (after comments).
    let mut size_line = None;
    for (line, _) in lines.by_ref() {
        let line = line?;
        let t = line.trim();
        if t.is_empty() || t.starts_with('%') {
            continue;
        }
        size_line = Some(t.to_string());
        break;
    }
    let size_line = size_line.ok_or_else(|| parse_err("missing size line"))?;
    let dims: Vec<usize> = size_line
        .split_whitespace()
        .map(|t| t.parse().map_err(|_| parse_err("bad size line")))
        .collect::<Result<_, _>>()?;
    if dims.len() != 3 {
        return Err(parse_err("size line must be 'rows cols nnz'"));
    }
    let (nrows, ncols, nnz) = (dims[0], dims[1], dims[2]);
    if nrows > u32::MAX as usize || ncols > u32::MAX as usize {
        return Err(parse_err(format!(
            "{nrows} x {ncols} exceeds the 32-bit index range (at most {} rows and columns)",
            u32::MAX
        )));
    }

    let mut coo = CooMatrix::with_capacity(nrows, ncols, nnz.min(MAX_RESERVED_TRIPLETS));
    let mut seen = 0usize;
    for (line, no) in lines {
        let line = line?;
        let t = line.trim();
        if t.is_empty() || t.starts_with('%') {
            continue;
        }
        let parts: Vec<&str> = t.split_whitespace().collect();
        let want = if complex_values { 4 } else { 3 };
        if parts.len() != want {
            return Err(parse_err(format!("bad entry line: {t}")));
        }
        let r: usize = parts[0].parse().map_err(|_| parse_err("bad row index"))?;
        let c: usize = parts[1].parse().map_err(|_| parse_err("bad col index"))?;
        if r < 1 || r > nrows || c < 1 || c > ncols {
            return Err(parse_err(format!("index out of range: {r} {c}")));
        }
        let part = |text: &str, what: &str| {
            let v: f64 = text
                .parse()
                .map_err(|_| parse_err(format!("bad {what} part")))?;
            match v.is_finite() {
                true => Ok(v),
                false => Err(parse_err(format!("line {no}: non-finite value {text}"))),
            }
        };
        let re = part(parts[2], "real")?;
        let im = if complex_values {
            part(parts[3], "imag")?
        } else {
            0.0
        };
        let v = Complex64::new(re, im);
        coo.push(r - 1, c - 1, v);
        if symmetry != "general" && r != c {
            let mirrored = if symmetry == "hermitian" { v.conj() } else { v };
            coo.push(c - 1, r - 1, mirrored);
        }
        seen += 1;
    }
    if seen != nnz {
        return Err(parse_err(format!("expected {nnz} entries, found {seen}")));
    }
    coo.to_crs().map_err(MmError::Matrix)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coo::CooMatrix;
    use std::io::BufReader;

    fn hermitian3() -> CrsMatrix {
        let mut m = CooMatrix::new(3, 3);
        m.push(0, 0, Complex64::real(2.0));
        m.push(0, 1, Complex64::new(1.0, 1.0));
        m.push(1, 0, Complex64::new(1.0, -1.0));
        m.push(1, 2, Complex64::new(0.0, 2.0));
        m.push(2, 1, Complex64::new(0.0, -2.0));
        m.push(2, 2, Complex64::real(-0.5));
        m.to_crs().unwrap()
    }

    #[test]
    fn general_roundtrip() {
        let m = hermitian3();
        let mut buf = Vec::new();
        write_general(&m, &mut buf).unwrap();
        let back = read(BufReader::new(buf.as_slice())).unwrap();
        assert_eq!(m, back);
    }

    #[test]
    fn hermitian_roundtrip_restores_upper_triangle() {
        let m = hermitian3();
        let mut buf = Vec::new();
        write_hermitian(&m, &mut buf).unwrap();
        let text = String::from_utf8(buf.clone()).unwrap();
        assert!(text.contains("hermitian"));
        // Only the lower triangle is stored...
        let entries = text.lines().filter(|l| !l.starts_with('%')).skip(1).count();
        assert_eq!(entries, 4); // (1,1), (2,1), (3,2), (3,3)
                                // ...but the read matrix is the full Hermitian one.
        let back = read(BufReader::new(buf.as_slice())).unwrap();
        assert_eq!(m, back);
        assert!(back.is_hermitian());
    }

    #[test]
    fn real_symmetric_file_promoted_to_complex() {
        let text = "%%MatrixMarket matrix coordinate real symmetric\n\
                    % comment\n\
                    2 2 2\n\
                    1 1 1.5\n\
                    2 1 -0.5\n";
        let m = read(BufReader::new(text.as_bytes())).unwrap();
        assert_eq!(m.get(0, 0), Complex64::real(1.5));
        assert_eq!(m.get(0, 1), Complex64::real(-0.5));
        assert_eq!(m.get(1, 0), Complex64::real(-0.5));
    }

    #[test]
    fn bad_header_rejected() {
        let text = "%%MatrixMarket matrix array complex general\n1 1 1\n1 1 0 0\n";
        assert!(matches!(
            read(BufReader::new(text.as_bytes())),
            Err(MmError::Parse(_))
        ));
    }

    #[test]
    fn wrong_entry_count_rejected() {
        let text = "%%MatrixMarket matrix coordinate complex general\n2 2 3\n1 1 1 0\n";
        let err = read(BufReader::new(text.as_bytes())).unwrap_err();
        assert!(err.to_string().contains("expected 3 entries"));
    }

    #[test]
    fn non_finite_values_are_rejected_by_line() {
        let cases = [
            ("real symmetric", "1 1 nan", "line 4: non-finite value nan"),
            ("real symmetric", "1 1 inf", "line 4: non-finite value inf"),
            (
                "complex hermitian",
                "2 1 1 -inf",
                "line 4: non-finite value -inf",
            ),
            (
                "complex general",
                "1 1 NaN 0",
                "line 4: non-finite value NaN",
            ),
        ];
        for (kind, entry, msg) in cases {
            let text = format!("%%MatrixMarket matrix coordinate {kind}\n% c\n2 2 1\n{entry}\n");
            let err = read(BufReader::new(text.as_bytes())).unwrap_err();
            assert!(matches!(err, MmError::Parse(_)), "{err}");
            assert!(err.to_string().ends_with(msg), "{err}");
        }
        // Extreme finite values still read.
        let text = "%%MatrixMarket matrix coordinate real general\n1 1 1\n1 1 1.7e308\n";
        let m = read(BufReader::new(text.as_bytes())).unwrap();
        assert_eq!(m.get(0, 0), Complex64::real(1.7e308));
    }

    #[test]
    fn out_of_range_index_rejected() {
        let text = "%%MatrixMarket matrix coordinate complex general\n2 2 1\n3 1 1 0\n";
        assert!(read(BufReader::new(text.as_bytes())).is_err());
    }

    #[test]
    fn promised_entries_are_not_reserved_up_front() {
        // 10^14 triplets would be 2.4 PB: the reader reserves from what
        // it reads, and the count mismatch is the error.
        let text = "%%MatrixMarket matrix coordinate real general\n2 2 100000000000000\n1 1 1\n";
        let err = read(BufReader::new(text.as_bytes())).unwrap_err();
        assert!(
            err.to_string()
                .contains("expected 100000000000000 entries, found 1"),
            "{err}"
        );
    }

    #[test]
    fn dimensions_past_32_bit_indices_rejected() {
        for size in ["4294967296 2 1", "2 4294967296 1"] {
            let text = format!("%%MatrixMarket matrix coordinate real general\n{size}\n1 1 1\n");
            let err = read(BufReader::new(text.as_bytes())).unwrap_err();
            assert!(matches!(err, MmError::Parse(_)), "{err}");
            assert!(err.to_string().contains("32-bit index range"), "{err}");
        }
    }

    /// True when Linux must refuse one allocation of `bytes`: heuristic
    /// (0) and strict (2) overcommit both refuse more than RAM + swap.
    fn allocation_must_fail(bytes: u64) -> bool {
        let read = |p| std::fs::read_to_string(p).unwrap_or_default();
        let meminfo = read("/proc/meminfo");
        let kib = |key: &str| {
            meminfo.lines().find_map(|l| {
                let v = l.strip_prefix(key)?.trim().strip_suffix("kB")?;
                v.trim().parse::<u64>().ok()
            })
        };
        let strict_enough = matches!(read("/proc/sys/vm/overcommit_memory").trim(), "0" | "2");
        match (kib("MemTotal:"), kib("SwapTotal:")) {
            (Some(ram), Some(swap)) => strict_enough && (ram + swap) * 1024 < bytes,
            _ => false,
        }
    }

    #[test]
    fn unallocatable_row_pointers_are_a_typed_error() {
        // 4·10⁹ rows need 32 GB of row pointers for one entry. Where the
        // allocator could grant that, the test would then fill it, so it
        // runs only where the allocation must fail.
        let rows: u64 = 4_000_000_000;
        if !allocation_must_fail((rows + 1) * 8) {
            eprintln!(
                "skipped: this host could allocate {} row pointers",
                rows + 1
            );
            return;
        }
        let text =
            format!("%%MatrixMarket matrix coordinate real general\n{rows} {rows} 1\n1 1 1\n");
        let err = read(BufReader::new(text.as_bytes())).unwrap_err();
        assert!(
            matches!(
                err,
                MmError::Matrix(KpmError::InvalidMatrix {
                    what: "row_ptr",
                    ..
                })
            ),
            "{err}"
        );
    }

    #[test]
    fn topological_insulator_roundtrip() {
        // The actual workload survives a write/read cycle.
        use kpm_num::Complex64 as C;
        let mut coo = CooMatrix::new(8, 8);
        for i in 0..8usize {
            coo.push(i, i, C::real(i as f64 - 4.0));
            if i + 1 < 8 {
                let v = C::new(0.5, 0.25);
                coo.push(i, i + 1, v);
                coo.push(i + 1, i, v.conj());
            }
        }
        let m = coo.to_crs().unwrap();
        let mut buf = Vec::new();
        write_hermitian(&m, &mut buf).unwrap();
        let back = read(BufReader::new(buf.as_slice())).unwrap();
        assert_eq!(m, back);
    }
}
