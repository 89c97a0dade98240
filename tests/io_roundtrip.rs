//! Integration: Matrix Market persistence composes with the whole KPM
//! pipeline — a matrix written to disk, read back, and solved gives
//! identical physics — and a damaged file body is read into a Hermitian
//! matrix or refused with a typed error, never a panic.

use std::io::BufReader;
use std::panic::{catch_unwind, AssertUnwindSafe};

use kpm_repro::core::solver::{kpm_moments, KpmParams, KpmVariant};
use kpm_repro::num::KpmError;
use kpm_repro::sparse::io::{read, write_general, write_hermitian, MmError};
use kpm_repro::sparse::{stats, CrsMatrix};
use kpm_repro::topo::{ScaleFactors, TopoHamiltonian};
use proptest::prelude::*;

#[test]
fn ti_matrix_survives_mm_roundtrip_bitwise() {
    let h = TopoHamiltonian::quantum_dot_superlattice(6, 6, 3).assemble();
    let mut buf = Vec::new();
    write_hermitian(&h, &mut buf).unwrap();
    let back = read(BufReader::new(buf.as_slice())).unwrap();
    assert_eq!(h, back);
}

#[test]
fn kpm_moments_identical_on_loaded_matrix() {
    let h = TopoHamiltonian::clean(5, 5, 3).assemble();
    let mut buf = Vec::new();
    write_general(&h, &mut buf).unwrap();
    let loaded = read(BufReader::new(buf.as_slice())).unwrap();

    let p = KpmParams {
        num_moments: 32,
        num_random: 4,
        seed: 5,
        parallel: false,
        threads: 0,
        power: 1,
        first_touch: false,
    };
    let sf = ScaleFactors::from_gershgorin(&h, 0.01);
    let a = kpm_moments(&h, sf, &p, KpmVariant::AugSpmmv).unwrap();
    let b = kpm_moments(&loaded, sf, &p, KpmVariant::AugSpmmv).unwrap();
    assert_eq!(
        a.max_abs_diff(&b),
        0.0,
        "identical matrix, identical moments"
    );
}

#[test]
fn structure_report_stable_across_roundtrip() {
    let h = TopoHamiltonian::clean(6, 4, 3).assemble();
    let mut buf = Vec::new();
    write_hermitian(&h, &mut buf).unwrap();
    let back = read(BufReader::new(buf.as_slice())).unwrap();
    let sa = stats::analyze(&h, 4);
    let sb = stats::analyze(&back, 4);
    assert_eq!(sa.nnz, sb.nnz);
    assert_eq!(sa.bandwidth, sb.bandwidth);
    assert_eq!(sa.diagonals.len(), sb.diagonals.len());
}

/// The damage [`hostile_bodies_read_hermitian_or_fail_typed`] does to a
/// file body.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Damage {
    /// A row or column index of 0 (the format is one-based).
    ZeroIndex,
    /// A row or column index past the size line.
    PastSize,
    /// The text cut at some byte of the body.
    Truncated,
    /// An off-diagonal entry of a `general` file without its conjugate.
    Unpaired,
    /// A diagonal entry with a non-zero imaginary part.
    ImaginaryDiagonal,
    /// An entry line given twice.
    Duplicate,
}

const DAMAGE: [Damage; 6] = [
    Damage::ZeroIndex,
    Damage::PastSize,
    Damage::Truncated,
    Damage::Unpaired,
    Damage::ImaginaryDiagonal,
    Damage::Duplicate,
];

/// Why a file was not taken: the reader's error or the Hermiticity
/// check's.
#[derive(Debug)]
enum Refused {
    Read(MmError),
    NotHermitian(KpmError),
}

/// Reads `text` and checks the matrix the way `kpm` does before a solve.
fn read_checked(text: &str) -> Result<CrsMatrix, Refused> {
    let m = read(BufReader::new(text.as_bytes())).map_err(Refused::Read)?;
    m.check_hermitian().map_err(Refused::NotHermitian)?;
    Ok(m)
}

/// The lines of `m` as a `.mtx` file — header, comment, size line
/// (index 2), then one entry `r c re im` per line — in `general`
/// symmetry or in `hermitian` (lower triangle only).
fn mtx_lines(m: &CrsMatrix, general: bool) -> Vec<String> {
    let mut buf = Vec::new();
    match general {
        true => write_general(m, &mut buf).unwrap(),
        false => write_hermitian(m, &mut buf).unwrap(),
    }
    String::from_utf8(buf)
        .unwrap()
        .lines()
        .map(String::from)
        .collect()
}

/// The one-based `(row, col)` of an entry line.
fn entry_at(line: &str) -> (usize, usize) {
    let mut fields = line.split_whitespace().map(|f| f.parse::<usize>().unwrap());
    (fields.next().unwrap(), fields.next().unwrap())
}

/// Rewrites the size line's entry count to `lines.len() - 3`.
fn recount(lines: &mut [String]) {
    let n = lines[2].split_whitespace().next().unwrap().to_string();
    lines[2] = format!("{n} {n} {}", lines.len() - 3);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Each damaged body is either read into a matrix that passes
    /// `check_hermitian` or refused with a typed error, and never
    /// panics; the damage that always has one outcome is pinned to it.
    #[test]
    fn hostile_bodies_read_hermitian_or_fail_typed(kind in 0usize..6, pick in any::<u64>()) {
        let damage = DAMAGE[kind];
        let h = TopoHamiltonian::clean(3, 3, 2).assemble();
        let n = h.nrows();
        let general = damage == Damage::Unpaired || pick & 1 == 1;
        let mut lines = mtx_lines(&h, general);
        let entries = lines.len() - 3;
        let at = 3 + (pick >> 8) as usize % entries;
        let field = (pick >> 20) as usize % 2;
        // The entry line the index damage and the duplicate act on.
        let (r, c) = entry_at(&lines[at]);
        match damage {
            Damage::ZeroIndex | Damage::PastSize => {
                let mut fields: Vec<String> =
                    lines[at].split_whitespace().map(String::from).collect();
                fields[field] = match damage {
                    Damage::ZeroIndex => "0".to_string(),
                    _ => (n + 1 + (pick >> 24) as usize % 1000).to_string(),
                };
                lines[at] = fields.join(" ");
            }
            Damage::Truncated => {}
            Damage::Duplicate => {
                lines.insert(3 + (pick >> 32) as usize % entries, lines[at].clone());
                recount(&mut lines);
            }
            Damage::Unpaired => {
                // A stored zero needs no partner: only non-zero entries.
                let unpaired = |l: &str| {
                    let (r, c) = entry_at(l);
                    r != c && h.get(r - 1, c - 1) != Default::default()
                };
                let off: Vec<usize> = (3..lines.len()).filter(|&i| unpaired(&lines[i])).collect();
                lines.remove(off[(pick >> 8) as usize % off.len()]);
                recount(&mut lines);
            }
            Damage::ImaginaryDiagonal => {
                let diag = (3..lines.len()).find(|&i| entry_at(&lines[i]).0 == entry_at(&lines[i]).1);
                let row = 1 + (pick >> 8) as usize % n;
                let im = 0.25 + (pick >> 24) as f64 % 7.0;
                match diag {
                    Some(i) => {
                        let mut fields: Vec<&str> = lines[i].split_whitespace().collect();
                        let im = im.to_string();
                        fields[3] = &im;
                        lines[i] = fields.join(" ");
                    }
                    None => {
                        lines.push(format!("{row} {row} 0 {im}"));
                        recount(&mut lines);
                    }
                }
            }
        }
        let mut text = lines.join("\n");
        if damage == Damage::Truncated {
            let body = lines[..3].iter().map(|l| l.len() + 1).sum::<usize>();
            text.truncate(body + (pick >> 8) as usize % (text.len() - body));
        }

        let outcome = catch_unwind(AssertUnwindSafe(|| read_checked(&text)));
        prop_assert!(outcome.is_ok(), "{damage:?} panicked on:\n{text}");
        let outcome = outcome.unwrap();
        match (damage, &outcome) {
            (Damage::ZeroIndex | Damage::PastSize, Err(Refused::Read(MmError::Parse(msg)))) => {
                prop_assert!(msg.contains("index out of range"), "{msg}");
            }
            (Damage::Unpaired | Damage::ImaginaryDiagonal, Err(Refused::NotHermitian(e))) => {
                prop_assert!(matches!(e, KpmError::InvalidMatrix { .. }), "{e}");
            }
            // Duplicates are summed (`CooMatrix`, as `duplicates_are_summed`
            // pins): in a `hermitian` file the entry and its mirror both
            // double, in a `general` file only the entry does, which the
            // Hermiticity check refuses.
            (Damage::Duplicate, Ok(m)) => {
                prop_assert!(!general || r == c);
                prop_assert_eq!(m.get(r - 1, c - 1), h.get(r - 1, c - 1) + h.get(r - 1, c - 1));
                prop_assert_eq!(m.get(c - 1, r - 1), h.get(c - 1, r - 1) + h.get(c - 1, r - 1));
                prop_assert_eq!(m.nnz(), h.nnz());
            }
            (Damage::Duplicate, Err(Refused::NotHermitian(_))) => prop_assert!(general),
            (Damage::Truncated, _) => {}
            (_, Ok(_)) => prop_assert!(false, "{damage:?} read a Hermitian matrix"),
            (_, Err(e)) => prop_assert!(false, "{damage:?} gave {e:?}"),
        }
    }
}
