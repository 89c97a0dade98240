//! The verdict behind `report_all`: a reproduced number, what the paper
//! says about it, and whether the two agree.
//!
//! A tolerance comes from the paper's wording, never from our output:
//!
//! - a number the paper prints from its formulas or from hardware
//!   counters (Eqs. 5–7, Fig. 8's Ω) holds to one unit of the last
//!   digit it prints: [`Claim::Near`];
//! - a number read off a plot ("~60") or a rate the paper timed on its
//!   machines (Fig. 11, Table III) holds to 10 %: [`Claim::Pct`];
//! - a bound in words ("more than a factor of 10", "< 1.1") is that
//!   bound: [`Claim::AtLeast`], [`Claim::AtMost`];
//! - a band in words ("85–90 %") is that band: [`Claim::Band`], and an
//!   exact word ("halved", the rows "sum to" the aggregate) is exact.
//!
//! Every bound is inclusive, and a value that is not finite misses.

#![warn(missing_docs)]

use std::fmt;

/// What the paper says about one quantity.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Claim {
    /// `Near(paper, tol)`: ours lies within `tol` of the paper's value.
    Near(f64, f64),
    /// `Pct(paper, pct)`: ours lies within `pct` percent of the paper's
    /// value.
    Pct(f64, f64),
    /// Ours is at least this.
    AtLeast(f64),
    /// Ours is at most this.
    AtMost(f64),
    /// `Band(lo, hi)`: ours lies in `lo..=hi`.
    Band(f64, f64),
}

impl Claim {
    /// Whether `ours` agrees with the claim.
    pub fn holds(self, ours: f64) -> bool {
        ours.is_finite()
            && match self {
                Claim::Near(paper, tol) => (ours - paper).abs() <= tol,
                Claim::Pct(paper, pct) => (ours - paper).abs() <= paper.abs() * pct / 100.0,
                Claim::AtLeast(bound) => ours - bound >= 0.0,
                Claim::AtMost(bound) => bound - ours >= 0.0,
                Claim::Band(lo, hi) => ours - lo >= 0.0 && hi - ours >= 0.0,
            }
    }

    /// The paper's value as printed.
    fn paper(self) -> String {
        match self {
            Claim::Near(paper, _) | Claim::Pct(paper, _) => format!("{paper}"),
            Claim::AtLeast(bound) => format!(">= {bound}"),
            Claim::AtMost(bound) => format!("<= {bound}"),
            Claim::Band(lo, hi) => format!("{lo}..{hi}"),
        }
    }

    /// The tolerance as printed.
    fn tolerance(self) -> String {
        match self {
            Claim::Near(_, tol) => format!("±{tol}"),
            Claim::Pct(_, pct) => format!("±{pct}%"),
            Claim::AtLeast(_) | Claim::AtMost(_) => "bound".to_string(),
            Claim::Band(..) => "band".to_string(),
        }
    }
}

/// One check line: a reproduced number against the paper's.
#[derive(Debug, Clone, PartialEq)]
pub struct Check {
    /// The figure, table or equation it comes from.
    pub source: &'static str,
    /// The quantity.
    pub quantity: &'static str,
    /// What the paper says.
    pub claim: Claim,
    /// Our value.
    pub ours: f64,
}

impl Check {
    /// Whether our value agrees with the paper's.
    pub fn ok(&self) -> bool {
        self.claim.holds(self.ours)
    }
}

impl fmt::Display for Check {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:<9} {:<50} {:>12} {:>12} {:>7}  {}",
            self.source,
            self.quantity,
            self.claim.paper(),
            sig(self.ours),
            self.claim.tolerance(),
            if self.ok() { "ok" } else { "MISS" }
        )
    }
}

/// `x` to about four significant digits.
pub fn sig(x: f64) -> String {
    if x == 0.0 || !x.is_finite() {
        return format!("{x}");
    }
    let decimals = (3 - x.abs().log10().floor() as i32).clamp(0, 4) as usize;
    format!("{x:.decimals$}")
}

#[cfg(test)]
mod tests {
    use super::*;

    const ALL: [Claim; 5] = [
        Claim::Near(2.0, 0.5),
        Claim::Pct(100.0, 10.0),
        Claim::AtLeast(10.0),
        Claim::AtMost(1.1),
        Claim::Band(0.85, 0.9),
    ];

    #[test]
    fn a_value_outside_the_tolerance_misses() {
        let near = ALL[0];
        assert!(near.holds(2.4) && near.holds(1.6));
        assert!(!near.holds(2.6) && !near.holds(1.4));
        let pct = ALL[1];
        assert!(pct.holds(109.0) && pct.holds(91.0));
        assert!(!pct.holds(111.0) && !pct.holds(89.0));
        let band = ALL[4];
        assert!(band.holds(0.87));
        assert!(!band.holds(0.84) && !band.holds(0.91));
    }

    #[test]
    fn nan_and_both_infinities_miss_every_claim() {
        for claim in ALL {
            for x in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
                assert!(!claim.holds(x), "{claim:?} passed {x}");
            }
        }
    }

    #[test]
    fn a_value_exactly_on_the_boundary_passes() {
        assert!(ALL[0].holds(2.5) && ALL[0].holds(1.5));
        assert!(ALL[1].holds(110.0) && ALL[1].holds(90.0));
        assert!(ALL[2].holds(10.0));
        assert!(ALL[3].holds(1.1));
        assert!(ALL[4].holds(0.85) && ALL[4].holds(0.9));
    }

    #[test]
    fn one_sided_bounds_work_in_both_directions() {
        // "more than a factor of 10"
        assert!(ALL[2].holds(10.5));
        assert!(!ALL[2].holds(9.5));
        // "Ω < 1.1"
        assert!(ALL[3].holds(1.0));
        assert!(!ALL[3].holds(1.2));
    }

    #[test]
    fn a_line_names_its_verdict() {
        let mut check = Check {
            source: "Fig. 8",
            quantity: "Ω(32)",
            claim: Claim::Near(1.54, 0.01),
            ours: 1.548,
        };
        let line = check.to_string();
        assert!(line.starts_with("Fig. 8") && line.ends_with("ok"), "{line}");
        assert!(line.contains("1.54") && line.contains("1.548") && line.contains("±0.01"));
        check.ours = 1.7;
        assert!(check.to_string().ends_with("MISS"));
    }

    #[test]
    fn sig_keeps_about_four_digits() {
        assert_eq!(sig(2.2319), "2.232");
        assert_eq!(sig(0.34783), "0.3478");
        assert_eq!(sig(111.83), "111.8");
        assert_eq!(sig(23961.6), "23962");
        assert_eq!(sig(0.0), "0");
    }
}
