//! Cache-aware row-block tiling for the blocked augmented kernels.
//!
//! The blocked `aug_spmmv` streams the matrix once but keeps touching
//! the block vectors `V` and `W`: each processed row reads ~`R` complex
//! values from `W` and, through the sparsity pattern, a window of rows
//! of `V`. At small `R` that window fits comfortably next to the matrix
//! stream; at `R = 32` one block-vector row is already 512 B, and a
//! chunk of rows processed by one thread drags `2 · rows · R · 16` bytes
//! of block-vector state through the cache *per chunk* — past a few
//! hundred rows the `V` window of the next rows evicts the `W` tile of
//! the current ones and the kernel turns memory bound again. This is
//! the measured throughput regression at `R = 32`.
//!
//! The fix is the classical one (cf. Kreutzer et al. and the
//! cache-blocking analysis of Alappat et al.): partition the row space
//! into *tiles* sized so the tile's block-vector working set fits in
//! the per-thread share of the last-level cache, and hand whole tiles
//! to the scheduler. The tile size is a pure function of the block
//! width and one machine parameter — the per-thread cache budget.
//!
//! The budget is **scoped, not global**: it travels with the kernel
//! call (the `KpmMatrix` handle's `cache_bytes`, which its chunked
//! sweeps tile at), so two concurrent solvers at different budgets
//! cannot stomp each other's tiling. There is no process-global
//! mutable state in this module.
//!
//! Determinism: the tile size also fixes the boundaries of the
//! per-tile partial dot products, so it must not depend on anything
//! scheduling-related. It depends only on `R` and the budget carried
//! by the call, both fixed for a run — moments stay bitwise-identical
//! for any thread count, and changing the budget is an explicit,
//! documented way to change (only) the reduction tree.

/// Default per-thread cache budget in bytes when none is configured:
/// 256 KiB, the private per-core (L2) cache of the paper's Xeon
/// sockets. The *private* cache is the right per-thread target — the
/// LLC is shared with the other threads' matrix streams.
pub const DEFAULT_CACHE_BYTES: usize = 256 * 1024;

/// Fraction of the budget granted to block-vector state; the rest is
/// headroom for the matrix stream and the accumulator row.
const BLOCK_VECTOR_SHARE: f64 = 0.5;

/// Lower bound on the tile height — below this, per-tile scheduling
/// and reduction overhead dominates any locality win.
pub const MIN_TILE_ROWS: usize = 64;

/// Upper bound on the tile height, matching the pre-tiling fixed chunk
/// of 512 rows so small-`R` behaviour (and its reduction tree) is
/// unchanged.
pub const MAX_TILE_ROWS: usize = 512;

/// Rows per tile for a blocked kernel of width `r_width`, such that the
/// tile's block-vector working set (`2 · rows · r_width · 16` bytes for
/// `V` and `W`) stays within [`BLOCK_VECTOR_SHARE`] of the given
/// per-thread cache budget, clamped to `[MIN_TILE_ROWS, MAX_TILE_ROWS]`.
///
/// For `R <= 8` at the default budget this saturates at
/// [`MAX_TILE_ROWS`] — identical chunking to the pre-tiling kernels.
pub fn tile_rows_for_budget(r_width: usize, cache_bytes: usize) -> usize {
    let bytes_per_row = 2 * r_width.max(1) * 16;
    let budget = (cache_bytes as f64 * BLOCK_VECTOR_SHARE) as usize;
    (budget / bytes_per_row).clamp(MIN_TILE_ROWS, MAX_TILE_ROWS)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tile_shrinks_with_block_width() {
        let budget = DEFAULT_CACHE_BYTES;
        let mut prev = usize::MAX;
        for r in [1, 2, 4, 8, 16, 32, 64] {
            let t = tile_rows_for_budget(r, budget);
            assert!(t <= prev, "tile must not grow with R");
            assert!((MIN_TILE_ROWS..=MAX_TILE_ROWS).contains(&t));
            prev = t;
        }
    }

    #[test]
    fn small_widths_keep_legacy_chunking() {
        // R <= 8 at the default budget: working set fits, tile
        // saturates at the pre-tiling 512-row chunk.
        for r in [1, 2, 4, 8] {
            assert_eq!(tile_rows_for_budget(r, DEFAULT_CACHE_BYTES), MAX_TILE_ROWS);
        }
        // R = 32 is the measured regression: the tile must shrink so
        // the V/W tiles stay resident in the private cache.
        assert_eq!(tile_rows_for_budget(16, DEFAULT_CACHE_BYTES), 256);
        assert_eq!(tile_rows_for_budget(32, DEFAULT_CACHE_BYTES), 128);
    }

    #[test]
    fn working_set_fits_share_of_budget() {
        for r in [8, 16, 32, 128] {
            for budget in [256 * 1024, 1024 * 1024, 8 * 1024 * 1024] {
                let t = tile_rows_for_budget(r, budget);
                if t > MIN_TILE_ROWS {
                    assert!(2 * t * r * 16 <= budget, "R={r} budget={budget}");
                }
            }
        }
    }

    #[test]
    fn budget_is_scoped_per_call() {
        // Two "solvers" with different budgets get different tiles from
        // the same pure function — no global to race on or reset.
        let small = tile_rows_for_budget(32, 256 * 1024);
        let big = tile_rows_for_budget(32, 1024 * 1024);
        assert!(small < big);
    }

    #[test]
    fn zero_width_does_not_divide_by_zero() {
        assert!(tile_rows_for_budget(0, DEFAULT_CACHE_BYTES) >= MIN_TILE_ROWS);
    }
}
