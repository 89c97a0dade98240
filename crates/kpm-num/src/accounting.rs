//! Byte and flop accounting (paper Section III, Table I, Eqs. 4–7).
//!
//! The paper's traffic and balance formulas are parameterized by the size
//! of one matrix/vector data element `S_d`, the size of one index element
//! `S_i`, and the flop cost of one complex addition `F_a` and one complex
//! multiplication `F_m`. For double-complex arithmetic with 32-bit local
//! indices these are 16, 4, 2 and 6 respectively — the values used in
//! Eqs. (5)-(7) of the paper.
//!
//! [`Sweep`] is the one place those four are combined into the counts of
//! a matrix sweep: the probes, the traffic and balance models, the Ω
//! replay and the node and GPU simulators all call it.

/// Size in bytes of one matrix/vector data element (double complex).
pub const S_D: usize = 16;

/// Size in bytes of one matrix index element (32-bit local index).
pub const S_I: usize = 4;

/// Flops per complex addition.
pub const F_A: usize = 2;

/// Flops per complex multiplication.
pub const F_M: usize = 6;

/// One matrix sweep over a block of vectors, as Table I counts it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sweep {
    /// `Y = A X`: the sparse inner products only; `X` read, `Y` written.
    Plain,
    /// The augmented kernel (paper Figs. 4 and 5): shift, scale,
    /// recurrence update and both scalar products fused into the sweep;
    /// `V` read, `W` read and written.
    Aug,
}

impl Sweep {
    /// Flops per row and vector on top of the sparse inner product: the
    /// `7·F_a/2 + 9·F_m/2` of Table I's last row for the augmented
    /// kernel.
    const fn row_term(self) -> usize {
        match self {
            Sweep::Plain => 0,
            Sweep::Aug => (7 * F_A + 9 * F_M) / 2,
        }
    }

    /// Vector elements moved per row and vector.
    const fn transfers(self) -> usize {
        match self {
            Sweep::Plain => 2,
            Sweep::Aug => 3,
        }
    }

    /// Flops of one sweep over `rows` rows and `nnz` logical non-zeros
    /// at block width `width`.
    pub const fn flops(self, rows: usize, nnz: usize, width: usize) -> usize {
        width * (nnz * (F_A + F_M) + rows * self.row_term())
    }

    /// Minimum bytes of one sweep: the `stored` matrix elements (value
    /// and index; 0 for a matrix-free operator) streamed once, each
    /// vector operand touched once.
    pub const fn min_bytes(self, rows: usize, stored: usize, width: usize) -> usize {
        stored * (S_D + S_I) + self.transfers() * width * rows * S_D
    }

    /// [`Sweep::flops`] per row and vector at `nnzr` non-zeros per row —
    /// the denominator of the balance equations (5)–(7).
    pub fn flops_per_row(self, nnzr: f64) -> f64 {
        nnzr * (F_A + F_M) as f64 + self.row_term() as f64
    }

    /// [`Sweep::min_bytes`] per row and vector at `nnzr` stored elements
    /// per row, the matrix shared by `width` vectors — the numerator of
    /// Eq. (5).
    pub fn min_bytes_per_row(self, nnzr: f64, width: usize) -> f64 {
        nnzr / width as f64 * (S_D + S_I) as f64 + (self.transfers() * S_D) as f64
    }
}

/// Flop count of the whole KPM-DOS solver (paper Table I, last row):
/// `R*M/2 * [Nnz*(F_a + F_m) + N*(7*F_a/2 + 9*F_m/2)]`.
#[inline]
pub fn kpm_flops(n: usize, nnz: usize, r: usize, m: usize) -> usize {
    r * m / 2 * Sweep::Aug.flops(n, nnz, 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constants_match_paper() {
        assert_eq!(S_D, 16);
        assert_eq!(S_I, 4);
        assert_eq!(F_A, 2);
        assert_eq!(F_M, 6);
        // Denominator of Eq. (5): 13*(2+6) + (7*2/2 + 9*6/2) = 104 + 34 = 138
        assert_eq!(Sweep::Aug.flops(1, 13, 1), 138);
        assert_eq!(Sweep::Aug.flops_per_row(13.0), 138.0);
    }

    #[test]
    fn sweep_counts_match_hand_counts() {
        // nnz*(Fa+Fm) = 700*8 = 5600 per vector for the plain sweep;
        // the augmented one adds rows*(7*Fa + 9*Fm)/2 = 100*34 = 3400.
        assert_eq!(Sweep::Plain.flops(100, 700, 1), 5600);
        assert_eq!(Sweep::Aug.flops(100, 700, 1), 9000);
        assert_eq!(Sweep::Aug.flops(100, 700, 4), 36000);
        // matrix: 700*(16+4) = 14000; vectors: 2 or 3 transfers of 16 B.
        assert_eq!(Sweep::Plain.min_bytes(100, 700, 1), 14000 + 3200);
        assert_eq!(Sweep::Aug.min_bytes(100, 700, 1), 14000 + 4800);
        assert_eq!(Sweep::Aug.min_bytes(100, 700, 4), 14000 + 3 * 4 * 100 * 16);
        // A matrix-free sweep streams vectors only; its flops keep the
        // logical non-zeros.
        assert_eq!(Sweep::Aug.min_bytes(100, 0, 4), 3 * 4 * 100 * 16);
    }

    #[test]
    fn per_row_forms_are_the_sweep_counts_divided_by_rows_and_width() {
        let (rows, nnzr) = (64, 13);
        for sweep in [Sweep::Plain, Sweep::Aug] {
            for width in [1, 4, 32] {
                let per = (rows * width) as f64;
                let flops = sweep.flops(rows, nnzr * rows, width) as f64;
                assert_eq!(sweep.flops_per_row(nnzr as f64), flops / per);
                let bytes = sweep.min_bytes(rows, nnzr * rows, width) as f64;
                assert_eq!(sweep.min_bytes_per_row(nnzr as f64, width), bytes / per);
            }
        }
    }

    #[test]
    fn kpm_flops_scales_linearly_in_r_and_m() {
        let n = 1000;
        let nnz = 13 * n;
        let base = kpm_flops(n, nnz, 1, 2);
        assert_eq!(base, Sweep::Aug.flops(n, nnz, 1));
        assert_eq!(kpm_flops(n, nnz, 4, 2), 4 * base);
        assert_eq!(kpm_flops(n, nnz, 1, 8), 4 * base);
    }
}
