//! Periodic boundary conditions.
//!
//! Trajectories carry a 3×3 box matrix per frame (the XTC header stores it
//! row-major), and structure files carry one (PDB CRYST1, the GRO box line).
//! MD boxes here are rectangular or triclinic; the type keeps the full
//! matrix so real triclinic headers round-trip losslessly.

/// A periodic simulation box described by three box vectors (rows).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PbcBox {
    /// Row-major box vectors in nanometres: `m[i]` is box vector *i*.
    pub m: [[f32; 3]; 3],
}

impl PbcBox {
    /// A rectangular (orthorhombic) box with edge lengths in nm.
    pub fn rectangular(lx: f32, ly: f32, lz: f32) -> PbcBox {
        PbcBox {
            m: [[lx, 0.0, 0.0], [0.0, ly, 0.0], [0.0, 0.0, lz]],
        }
    }

    /// The zero box (no PBC information), as written by some tools.
    pub fn zero() -> PbcBox {
        PbcBox { m: [[0.0; 3]; 3] }
    }

    /// Edge lengths of the bounding rectangle (diagonal entries).
    pub fn lengths(&self) -> [f32; 3] {
        [self.m[0][0], self.m[1][1], self.m[2][2]]
    }

    /// True when every entry is zero.
    pub fn is_zero(&self) -> bool {
        self.m.iter().flatten().all(|&x| x == 0.0)
    }
}

impl Default for PbcBox {
    fn default() -> PbcBox {
        PbcBox::zero()
    }
}
