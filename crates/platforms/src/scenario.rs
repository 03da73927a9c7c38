//! The Table 3 notation as a type.

/// One evaluated configuration (Table 3).
///
/// * `C` — VMD loads a compressed XTC file.
/// * `D` — VMD loads a raw XTC file without compression.
/// * `ADA (all)` — ADA transfers the entire (decompressed) raw data.
/// * `ADA (protein)` — ADA transfers only the protein data.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Scenario {
    /// Traditional FS, compressed load (C-ext4 / C-PVFS / XFS).
    CTraditional,
    /// Traditional FS, pre-decompressed load (D-ext4 / D-PVFS).
    DTraditional,
    /// ADA delivering every tag's decompressed subset.
    AdaAll,
    /// ADA delivering only the protein subset.
    AdaProtein,
}

impl Scenario {
    /// All four scenarios in figure order.
    pub const ALL: [Scenario; 4] = [
        Scenario::CTraditional,
        Scenario::DTraditional,
        Scenario::AdaAll,
        Scenario::AdaProtein,
    ];

    /// The paper's label for this scenario on a given base file system
    /// ("ext4", "PVFS", "XFS").
    pub fn label(&self, base_fs: &str) -> String {
        match self {
            Scenario::CTraditional => {
                if base_fs == "XFS" {
                    // Fig. 10 drops the C- prefix: XFS loads compressed.
                    "XFS".to_string()
                } else {
                    format!("C-{}", base_fs)
                }
            }
            Scenario::DTraditional => format!("D-{}", base_fs),
            Scenario::AdaAll => {
                if base_fs == "XFS" {
                    "ADA (all)".to_string()
                } else {
                    "D-ADA (all)".to_string()
                }
            }
            Scenario::AdaProtein => {
                if base_fs == "XFS" {
                    "ADA (protein)".to_string()
                } else {
                    "D-ADA (protein)".to_string()
                }
            }
        }
    }

    /// Whether the compute node must decompress.
    pub fn decompresses_on_compute(&self) -> bool {
        matches!(self, Scenario::CTraditional)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_match_paper_notation() {
        assert_eq!(Scenario::CTraditional.label("ext4"), "C-ext4");
        assert_eq!(Scenario::DTraditional.label("PVFS"), "D-PVFS");
        assert_eq!(Scenario::AdaAll.label("ext4"), "D-ADA (all)");
        assert_eq!(Scenario::AdaProtein.label("PVFS"), "D-ADA (protein)");
        assert_eq!(Scenario::CTraditional.label("XFS"), "XFS");
        assert_eq!(Scenario::AdaAll.label("XFS"), "ADA (all)");
        assert_eq!(Scenario::AdaProtein.label("XFS"), "ADA (protein)");
    }

    #[test]
    fn classification() {
        assert!(Scenario::CTraditional.decompresses_on_compute());
        assert!(!Scenario::AdaProtein.decompresses_on_compute());
    }
}
