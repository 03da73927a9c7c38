//! Byte-volume calibration against the paper's own tables.
//!
//! Tables 1, 2 and 6 pin down the GPCR dataset's per-frame volumes:
//!
//! * raw (decompressed) trajectory ≈ **0.522 MB/frame** (327 MB / 626),
//! * compressed `.xtc` ≈ **0.160 MB/frame** (100 MB / 626, ratio ≈ 3.27×),
//! * decompressed *protein* subset ≈ **0.222 MB/frame** (139 MB / 626,
//!   ≈ 42.5 % of raw).
//!
//! At 12 bytes/atom/frame that implies a ≈ **45,600-atom** system — typical
//! for a solvated membrane GPCR. [`PaperCalibration`] exposes these
//! constants; [`DatasetSpec`] scales them to any frame count (used by the
//! platform harness to build Synthetic datasets); the `PAPER_TABLE*` rows
//! keep the literal published numbers for paper-vs-measured reports.

/// One megabyte as used by the paper's tables (decimal).
pub const MB: f64 = 1_000_000.0;

/// Volume calibration derived from the paper's tables.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PaperCalibration {
    /// Decompressed bytes per frame.
    pub raw_bytes_per_frame: f64,
    /// Compressed (.xtc) bytes per frame.
    pub compressed_bytes_per_frame: f64,
    /// Decompressed protein-subset bytes per frame.
    pub protein_bytes_per_frame: f64,
}

impl Default for PaperCalibration {
    fn default() -> PaperCalibration {
        PaperCalibration {
            // 2612.8 GB-scale row of Table 6 / 5,004,800 frames, consistent
            // with 327/626 of Table 2.
            raw_bytes_per_frame: 0.522 * MB,
            compressed_bytes_per_frame: 0.15981 * MB,
            protein_bytes_per_frame: 0.22155 * MB,
        }
    }
}

impl PaperCalibration {
    /// Protein fraction of the decompressed volume.
    pub fn protein_fraction(&self) -> f64 {
        self.protein_bytes_per_frame / self.raw_bytes_per_frame
    }
}

/// A dataset sized in frames, with volumes derived from a calibration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DatasetSpec {
    /// Number of trajectory frames.
    pub frames: u64,
    /// Volume calibration.
    pub cal: PaperCalibration,
}

impl DatasetSpec {
    /// Spec with the default paper calibration.
    pub fn paper(frames: u64) -> DatasetSpec {
        DatasetSpec {
            frames,
            cal: PaperCalibration::default(),
        }
    }

    /// Compressed `.xtc` size in bytes.
    pub fn compressed_bytes(&self) -> u64 {
        (self.frames as f64 * self.cal.compressed_bytes_per_frame) as u64
    }

    /// Decompressed raw size in bytes.
    pub fn raw_bytes(&self) -> u64 {
        (self.frames as f64 * self.cal.raw_bytes_per_frame) as u64
    }

    /// Decompressed protein-subset size in bytes.
    pub fn protein_bytes(&self) -> u64 {
        (self.frames as f64 * self.cal.protein_bytes_per_frame) as u64
    }
}

/// A literal row of the paper's Table 1 (compressed file MB).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Table1Row {
    /// Frame count.
    pub frames: u64,
    /// Complete compressed data (MB).
    pub complete_mb: f64,
    /// Protein portion of the compressed data (MB).
    pub protein_mb: f64,
    /// Protein fraction (%).
    pub fraction_pct: f64,
}

/// Table 1: data components of three .xtc files.
pub const PAPER_TABLE1: [Table1Row; 3] = [
    Table1Row {
        frames: 626,
        complete_mb: 100.0,
        protein_mb: 44.0,
        fraction_pct: 44.0,
    },
    Table1Row {
        frames: 1251,
        complete_mb: 200.0,
        protein_mb: 98.0,
        fraction_pct: 49.0,
    },
    Table1Row {
        frames: 5006,
        complete_mb: 800.0,
        protein_mb: 348.0,
        fraction_pct: 43.5,
    },
];

/// A literal row of Table 2 / Table 6 (sizes in MB).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SizeRow {
    /// Frame count.
    pub frames: u64,
    /// Compressed size loaded by the plain file system (MB).
    pub compressed_mb: f64,
    /// Decompressed protein subset loaded by ADA (MB).
    pub ada_protein_mb: f64,
    /// Raw decompressed size (MB).
    pub raw_mb: f64,
}

/// Table 2: data size comparisons on the SSD server (ext4 vs ADA).
pub const PAPER_TABLE2: [SizeRow; 8] = [
    SizeRow {
        frames: 626,
        compressed_mb: 100.0,
        ada_protein_mb: 139.0,
        raw_mb: 327.0,
    },
    SizeRow {
        frames: 1251,
        compressed_mb: 200.0,
        ada_protein_mb: 277.0,
        raw_mb: 653.0,
    },
    SizeRow {
        frames: 1877,
        compressed_mb: 300.0,
        ada_protein_mb: 416.0,
        raw_mb: 980.0,
    },
    SizeRow {
        frames: 2503,
        compressed_mb: 400.0,
        ada_protein_mb: 555.0,
        raw_mb: 1306.0,
    },
    SizeRow {
        frames: 3129,
        compressed_mb: 500.0,
        ada_protein_mb: 693.0,
        raw_mb: 1632.0,
    },
    SizeRow {
        frames: 3754,
        compressed_mb: 600.0,
        ada_protein_mb: 832.0,
        raw_mb: 1959.0,
    },
    SizeRow {
        frames: 4380,
        compressed_mb: 700.0,
        ada_protein_mb: 970.0,
        raw_mb: 2285.0,
    },
    SizeRow {
        frames: 5006,
        compressed_mb: 800.0,
        ada_protein_mb: 1108.0,
        raw_mb: 2612.0,
    },
];

/// Table 6: data size comparisons on the fat-node server (XFS vs ADA);
/// sizes in MB (converted from the paper's GB ×1000).
pub const PAPER_TABLE6: [SizeRow; 13] = [
    SizeRow {
        frames: 62_560,
        compressed_mb: 10_000.0,
        ada_protein_mb: 13_900.0,
        raw_mb: 32_700.0,
    },
    SizeRow {
        frames: 187_680,
        compressed_mb: 30_000.0,
        ada_protein_mb: 41_600.0,
        raw_mb: 98_000.0,
    },
    SizeRow {
        frames: 312_800,
        compressed_mb: 50_000.0,
        ada_protein_mb: 69_300.0,
        raw_mb: 163_300.0,
    },
    SizeRow {
        frames: 437_920,
        compressed_mb: 70_000.0,
        ada_protein_mb: 97_000.0,
        raw_mb: 228_600.0,
    },
    SizeRow {
        frames: 625_600,
        compressed_mb: 100_000.0,
        ada_protein_mb: 138_600.0,
        raw_mb: 326_600.0,
    },
    SizeRow {
        frames: 938_400,
        compressed_mb: 150_000.0,
        ada_protein_mb: 207_900.0,
        raw_mb: 489_900.0,
    },
    SizeRow {
        frames: 1_251_200,
        compressed_mb: 200_000.0,
        ada_protein_mb: 277_200.0,
        raw_mb: 653_200.0,
    },
    SizeRow {
        frames: 1_564_000,
        compressed_mb: 250_000.0,
        ada_protein_mb: 346_500.0,
        raw_mb: 816_500.0,
    },
    SizeRow {
        frames: 1_876_800,
        compressed_mb: 300_000.0,
        ada_protein_mb: 415_800.0,
        raw_mb: 979_800.0,
    },
    SizeRow {
        frames: 2_502_400,
        compressed_mb: 400_000.0,
        ada_protein_mb: 554_400.0,
        raw_mb: 1_306_400.0,
    },
    SizeRow {
        frames: 3_440_800,
        compressed_mb: 550_000.0,
        ada_protein_mb: 762_300.0,
        raw_mb: 1_796_300.0,
    },
    SizeRow {
        frames: 4_379_200,
        compressed_mb: 700_000.0,
        ada_protein_mb: 970_200.0,
        raw_mb: 2_286_200.0,
    },
    SizeRow {
        frames: 5_004_800,
        compressed_mb: 800_000.0,
        ada_protein_mb: 1_108_800.0,
        raw_mb: 2_612_800.0,
    },
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calibration_matches_paper_band() {
        let c = PaperCalibration::default();
        assert!((c.protein_fraction() - 0.425).abs() < 0.01);
        let ratio = c.raw_bytes_per_frame / c.compressed_bytes_per_frame;
        assert!((ratio - 3.27).abs() < 0.1);
        // 12 bytes per atom per frame.
        let natoms = c.raw_bytes_per_frame / 12.0;
        assert!(natoms > 40e3 && natoms < 50e3, "implied natoms {}", natoms);
    }

    #[test]
    fn dataset_spec_scales_linearly() {
        let a = DatasetSpec::paper(626);
        let b = DatasetSpec::paper(1252);
        assert_eq!(b.raw_bytes() / a.raw_bytes(), 2);
        assert!(a.raw_bytes() - a.protein_bytes() > a.protein_bytes());
    }

    #[test]
    fn model_reproduces_table2_within_tolerance() {
        for row in PAPER_TABLE2 {
            let d = DatasetSpec::paper(row.frames);
            let rel = |model: f64, paper: f64| (model - paper).abs() / paper;
            assert!(
                rel(d.compressed_bytes() as f64 / MB, row.compressed_mb) < 0.02,
                "compressed mismatch at {} frames",
                row.frames
            );
            assert!(
                rel(d.raw_bytes() as f64 / MB, row.raw_mb) < 0.02,
                "raw mismatch at {} frames",
                row.frames
            );
            assert!(
                rel(d.protein_bytes() as f64 / MB, row.ada_protein_mb) < 0.02,
                "protein mismatch at {} frames",
                row.frames
            );
        }
    }

    #[test]
    fn model_reproduces_table6_within_tolerance() {
        for row in PAPER_TABLE6 {
            let d = DatasetSpec::paper(row.frames);
            let rel = |model: f64, paper: f64| (model - paper).abs() / paper;
            assert!(rel(d.compressed_bytes() as f64 / MB, row.compressed_mb) < 0.03);
            assert!(rel(d.raw_bytes() as f64 / MB, row.raw_mb) < 0.03);
            assert!(rel(d.protein_bytes() as f64 / MB, row.ada_protein_mb) < 0.03);
        }
    }

    #[test]
    fn table1_fraction_consistency() {
        for row in PAPER_TABLE1 {
            let computed = row.protein_mb / row.complete_mb * 100.0;
            assert!((computed - row.fraction_pct).abs() < 1.0);
        }
    }
}
