//! 3D lattice geometry: site indexing and neighbour lookup.
//!
//! Sites are ordered x-fastest: `site(x, y, z) = x + Nx·(y + Ny·z)`,
//! and the four local orbitals of each site occupy consecutive matrix
//! rows, `row = 4·site + orbital`. This ordering makes the ±x hops
//! adjacent sub-diagonals and the periodic wrap-arounds the "outlying
//! diagonals in the matrix corners" the paper describes.

/// Boundary condition along one axis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Boundary {
    /// Open: bonds leaving the sample are dropped.
    Open,
    /// Periodic: coordinates wrap around.
    Periodic,
}

/// A finite `Nx × Ny × Nz` lattice with per-axis boundary conditions.
///
/// The paper's production setup is periodic in x and y, open in z
/// ([`Lattice3D::paper_default`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Lattice3D {
    /// Extent in x.
    pub nx: usize,
    /// Extent in y.
    pub ny: usize,
    /// Extent in z.
    pub nz: usize,
    /// Boundary conditions along (x, y, z).
    pub boundary: [Boundary; 3],
}

impl Lattice3D {
    /// Creates a lattice with explicit boundary conditions.
    pub fn new(nx: usize, ny: usize, nz: usize, boundary: [Boundary; 3]) -> Self {
        assert!(
            nx > 0 && ny > 0 && nz > 0,
            "lattice extents must be positive"
        );
        Self {
            nx,
            ny,
            nz,
            boundary,
        }
    }

    /// The paper's configuration: periodic in x and y, open in z.
    pub fn paper_default(nx: usize, ny: usize, nz: usize) -> Self {
        Self::new(
            nx,
            ny,
            nz,
            [Boundary::Periodic, Boundary::Periodic, Boundary::Open],
        )
    }

    /// Fully periodic lattice (used by the plane-wave validation tests).
    pub fn periodic(nx: usize, ny: usize, nz: usize) -> Self {
        Self::new(nx, ny, nz, [Boundary::Periodic; 3])
    }

    /// Number of lattice sites.
    pub fn sites(&self) -> usize {
        self.nx * self.ny * self.nz
    }

    /// Matrix dimension `N = 4 · Nx · Ny · Nz`.
    pub fn dim(&self) -> usize {
        4 * self.sites()
    }

    /// Linear site index of `(x, y, z)` (x fastest).
    #[inline(always)]
    pub fn site(&self, x: usize, y: usize, z: usize) -> usize {
        debug_assert!(x < self.nx && y < self.ny && z < self.nz);
        x + self.nx * (y + self.ny * z)
    }

    /// Inverse of [`Lattice3D::site`].
    #[inline(always)]
    pub fn coords(&self, site: usize) -> (usize, usize, usize) {
        let x = site % self.nx;
        let y = (site / self.nx) % self.ny;
        let z = site / (self.nx * self.ny);
        (x, y, z)
    }

    /// The neighbour of `(x, y, z)` in direction `j ∈ {1,2,3}` (+x, +y,
    /// +z), or `None` if the bond leaves an open boundary.
    pub fn neighbor(&self, x: usize, y: usize, z: usize, j: usize) -> Option<usize> {
        let (extent, coord) = match j {
            1 => (self.nx, x),
            2 => (self.ny, y),
            3 => (self.nz, z),
            _ => panic!("direction must be 1, 2 or 3"),
        };
        if extent == 1 {
            // A periodic wrap on a single-site axis would be a self-loop;
            // treat length-1 axes as open regardless of the declared BC.
            return None;
        }
        let next = if coord + 1 < extent {
            coord + 1
        } else {
            match self.boundary[j - 1] {
                Boundary::Periodic => 0,
                Boundary::Open => return None,
            }
        };
        Some(match j {
            1 => self.site(next, y, z),
            2 => self.site(x, next, z),
            _ => self.site(x, y, next),
        })
    }

    /// The neighbour of `(x, y, z)` in direction `-ê_j`, or `None` at an
    /// open boundary. This is the site `m` with `m + ê_j = n`, needed
    /// when assembling row `n` of the Hamiltonian (the `T_j` block of the
    /// incoming bond lives in row block `n`, column block `m`).
    pub fn neighbor_prev(&self, x: usize, y: usize, z: usize, j: usize) -> Option<usize> {
        let (extent, coord) = match j {
            1 => (self.nx, x),
            2 => (self.ny, y),
            3 => (self.nz, z),
            _ => panic!("direction must be 1, 2 or 3"),
        };
        if extent == 1 {
            return None;
        }
        let prev = if coord > 0 {
            coord - 1
        } else {
            match self.boundary[j - 1] {
                Boundary::Periodic => extent - 1,
                Boundary::Open => return None,
            }
        };
        Some(match j {
            1 => self.site(prev, y, z),
            2 => self.site(x, prev, z),
            _ => self.site(x, y, prev),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn site_coords_roundtrip() {
        let l = Lattice3D::paper_default(5, 7, 3);
        for s in 0..l.sites() {
            let (x, y, z) = l.coords(s);
            assert_eq!(l.site(x, y, z), s);
        }
    }

    #[test]
    fn x_is_fastest_axis() {
        let l = Lattice3D::paper_default(10, 4, 2);
        assert_eq!(l.site(1, 0, 0), 1);
        assert_eq!(l.site(0, 1, 0), 10);
        assert_eq!(l.site(0, 0, 1), 40);
    }

    #[test]
    fn periodic_wraps_open_stops() {
        let l = Lattice3D::paper_default(4, 4, 4);
        // +x from x=3 wraps to x=0 (periodic).
        assert_eq!(l.neighbor(3, 2, 1, 1), Some(l.site(0, 2, 1)));
        // +y from y=3 wraps.
        assert_eq!(l.neighbor(1, 3, 0, 2), Some(l.site(1, 0, 0)));
        // +z from z=3 leaves the open boundary.
        assert_eq!(l.neighbor(0, 0, 3, 3), None);
        // Interior neighbours are the adjacent sites.
        assert_eq!(l.neighbor(1, 1, 1, 3), Some(l.site(1, 1, 2)));
    }

    #[test]
    fn dim_is_4n() {
        let l = Lattice3D::paper_default(100, 100, 40);
        assert_eq!(l.dim(), 4 * 100 * 100 * 40);
        assert_eq!(l.dim(), 1_600_000);
    }

    #[test]
    #[should_panic(expected = "extents must be positive")]
    fn zero_extent_panics() {
        Lattice3D::paper_default(0, 4, 4);
    }
}
