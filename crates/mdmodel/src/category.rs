//! The application-conscious taxonomy.
//!
//! ADA's data pre-processor "categorizes the molecules and then stores them
//! by classes" (§3.4). The class of an atom is decided by its residue name —
//! the same information VMD's own `protein` / `water` / `lipid` selection
//! keywords use. The paper's prototype collapses the classes into two tags,
//! `p` (protein, active) and `m` (MISC, inactive); the full [`Category`]
//! remains available for the fine-grained queries of §4.1 and for the
//! future-work configurable taxonomy (see [`crate::category::Taxonomy`]).

use std::collections::BTreeMap;
use std::fmt;

/// Coarse molecular class of a residue/atom.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Category {
    /// Amino-acid residues — the paper's *active* data.
    Protein,
    /// Solvent water (SOL/HOH/TIP3/...).
    Water,
    /// Membrane lipids (POPC/POPE/DPPC/...).
    Lipid,
    /// Monatomic ions (NA/CL/K/...).
    Ion,
    /// DNA/RNA residues.
    NucleicAcid,
    /// Small-molecule ligands and other HETATM groups.
    Ligand,
    /// Anything unrecognized.
    Other,
}

impl Category {
    /// Classify a residue name. Matching is case-insensitive on the trimmed
    /// name and follows the residue vocabularies of the PDB, CHARMM and
    /// GROMACS force fields.
    pub fn of_residue(resname: &str) -> Category {
        let r = resname.trim().to_ascii_uppercase();
        if PROTEIN_RESIDUES.contains(&r.as_str()) {
            Category::Protein
        } else if WATER_RESIDUES.contains(&r.as_str()) {
            Category::Water
        } else if LIPID_RESIDUES.contains(&r.as_str()) {
            Category::Lipid
        } else if ION_RESIDUES.contains(&r.as_str()) {
            Category::Ion
        } else if NUCLEIC_RESIDUES.contains(&r.as_str()) {
            Category::NucleicAcid
        } else if r.is_empty() {
            Category::Other
        } else {
            Category::Ligand
        }
    }
}

impl fmt::Display for Category {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Category::Protein => "protein",
            Category::Water => "water",
            Category::Lipid => "lipid",
            Category::Ion => "ion",
            Category::NucleicAcid => "nucleic",
            Category::Ligand => "ligand",
            Category::Other => "other",
        };
        f.write_str(s)
    }
}

/// The 20 standard amino acids plus common variants (protonation states,
/// terminal caps) seen in CHARMM/AMBER/GROMACS output.
pub const PROTEIN_RESIDUES: &[&str] = &[
    "ALA", "ARG", "ASN", "ASP", "CYS", "GLN", "GLU", "GLY", "HIS", "ILE", "LEU", "LYS", "MET",
    "PHE", "PRO", "SER", "THR", "TRP", "TYR", "VAL", // variants
    "HSD", "HSE", "HSP", "HID", "HIE", "HIP", "ASH", "GLH", "LYN", "CYX", "CYM", "ACE", "NME",
    "NMA", "MSE",
];

/// Water residue names across force fields.
pub const WATER_RESIDUES: &[&str] = &[
    "HOH", "SOL", "WAT", "TIP3", "TIP4", "TIP5", "SPC", "SPCE", "T3P", "T4P",
];

/// Common membrane lipid residue names.
pub const LIPID_RESIDUES: &[&str] = &[
    "POPC", "POPE", "POPS", "POPG", "DPPC", "DOPC", "DOPE", "DMPC", "DLPC", "DSPC", "CHL1", "CHOL",
    "PSM", "SDPC",
];

/// Monatomic ion residue names.
pub const ION_RESIDUES: &[&str] = &[
    "NA", "NA+", "SOD", "CL", "CL-", "CLA", "K", "K+", "POT", "MG", "MG2", "CAL", "CA2", "ZN",
    "ZN2", "CES", "LIT",
];

/// Nucleic-acid residue names (DNA/RNA).
pub const NUCLEIC_RESIDUES: &[&str] = &[
    "DA", "DC", "DG", "DT", "A", "C", "G", "U", "ADE", "CYT", "GUA", "THY", "URA",
];

/// A short label attached to a data subset by the labeler ("**p**" and
/// "**m**" in the paper). Tags are small ASCII strings; comparisons are
/// case-sensitive byte comparisons.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Tag(String);

impl Tag {
    /// Create a tag from an arbitrary label.
    pub fn new(label: impl Into<String>) -> Tag {
        Tag(label.into())
    }

    /// The paper's active/protein tag.
    pub fn protein() -> Tag {
        Tag::new("p")
    }

    /// The paper's inactive/MISC tag.
    pub fn misc() -> Tag {
        Tag::new("m")
    }

    /// Tag label as a string slice.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for Tag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl From<&str> for Tag {
    fn from(s: &str) -> Tag {
        Tag::new(s)
    }
}

/// A user-configurable taxonomy: residue name → tag.
///
/// This implements the paper's stated future work ("a dynamic data
/// categorizing and labeling interface through which a user can describe the
/// structure of his raw data in a configuration file", §6). A taxonomy is a
/// list of rules evaluated in order; the first match wins, with a default
/// tag for everything unmatched.
#[derive(Debug, Clone)]
pub struct Taxonomy {
    rules: Vec<TaxonomyRule>,
    default_tag: Tag,
}

/// One rule of a [`Taxonomy`].
#[derive(Debug, Clone)]
pub struct TaxonomyRule {
    /// Residue names this rule matches (uppercased).
    pub residues: Vec<String>,
    /// Built-in category this rule matches, if any.
    pub category: Option<Category>,
    /// Tag to assign.
    pub tag: Tag,
}

impl Taxonomy {
    /// The taxonomy the paper's prototype hard-wires: protein → `p`,
    /// everything else → `m`.
    pub fn paper_default() -> Taxonomy {
        Taxonomy {
            rules: vec![TaxonomyRule {
                residues: Vec::new(),
                category: Some(Category::Protein),
                tag: Tag::protein(),
            }],
            default_tag: Tag::misc(),
        }
    }

    /// Build a taxonomy from explicit rules.
    pub fn new(rules: Vec<TaxonomyRule>, default_tag: Tag) -> Taxonomy {
        Taxonomy { rules, default_tag }
    }

    /// Parse the configuration-file syntax of the future-work interface.
    ///
    /// ```
    /// use ada_mdmodel::category::Taxonomy;
    ///
    /// let taxonomy = Taxonomy::parse_config(
    ///     "# GPCR membrane study\n\
    ///      tag p = category protein\n\
    ///      tag l = resname POPC POPE\n\
    ///      default m\n",
    /// ).unwrap();
    /// assert_eq!(taxonomy.tag_of("ALA").as_str(), "p");
    /// assert_eq!(taxonomy.tag_of("POPC").as_str(), "l");
    /// assert_eq!(taxonomy.tag_of("SOL").as_str(), "m");
    /// ```
    pub fn parse_config(text: &str) -> Result<Taxonomy, String> {
        let mut rules = Vec::new();
        let mut default_tag = Tag::misc();
        for (lineno, raw) in text.lines().enumerate() {
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let mut words = line.split_whitespace();
            match words.next() {
                Some("default") => {
                    let tag = words
                        .next()
                        .ok_or_else(|| format!("line {}: default needs a tag", lineno + 1))?;
                    default_tag = Tag::new(tag);
                }
                Some("tag") => {
                    let tag = words
                        .next()
                        .ok_or_else(|| format!("line {}: tag needs a label", lineno + 1))?;
                    if words.next() != Some("=") {
                        return Err(format!("line {}: expected '='", lineno + 1));
                    }
                    match words.next() {
                        Some("category") => {
                            let name = words.next().ok_or_else(|| {
                                format!("line {}: category needs a name", lineno + 1)
                            })?;
                            let category = match name.to_ascii_lowercase().as_str() {
                                "protein" => Category::Protein,
                                "water" => Category::Water,
                                "lipid" => Category::Lipid,
                                "ion" => Category::Ion,
                                "nucleic" => Category::NucleicAcid,
                                "ligand" => Category::Ligand,
                                "other" => Category::Other,
                                other => {
                                    return Err(format!(
                                        "line {}: unknown category '{}'",
                                        lineno + 1,
                                        other
                                    ))
                                }
                            };
                            rules.push(TaxonomyRule {
                                residues: Vec::new(),
                                category: Some(category),
                                tag: Tag::new(tag),
                            });
                        }
                        Some("resname") => {
                            let residues: Vec<String> =
                                words.map(|w| w.to_ascii_uppercase()).collect();
                            if residues.is_empty() {
                                return Err(format!(
                                    "line {}: resname needs at least one name",
                                    lineno + 1
                                ));
                            }
                            rules.push(TaxonomyRule {
                                residues,
                                category: None,
                                tag: Tag::new(tag),
                            });
                        }
                        other => {
                            return Err(format!(
                                "line {}: expected 'category' or 'resname', got {:?}",
                                lineno + 1,
                                other
                            ))
                        }
                    }
                }
                other => {
                    return Err(format!(
                        "line {}: expected 'tag' or 'default', got {:?}",
                        lineno + 1,
                        other
                    ))
                }
            }
        }
        Ok(Taxonomy { rules, default_tag })
    }

    /// Tag for a residue name (the categorizer's `GetType`).
    pub fn tag_of(&self, resname: &str) -> Tag {
        let upper = resname.trim().to_ascii_uppercase();
        let category = Category::of_residue(&upper);
        for rule in &self.rules {
            if rule.residues.iter().any(|r| r == &upper) {
                return rule.tag.clone();
            }
            if rule.category == Some(category) && rule.residues.is_empty() {
                return rule.tag.clone();
            }
        }
        self.default_tag.clone()
    }

    /// The default tag assigned when no rule matches.
    pub fn default_tag(&self) -> &Tag {
        &self.default_tag
    }

    /// All distinct tags this taxonomy can produce.
    pub fn all_tags(&self) -> Vec<Tag> {
        let mut set: BTreeMap<Tag, ()> = BTreeMap::new();
        for r in &self.rules {
            set.insert(r.tag.clone(), ());
        }
        set.insert(self.default_tag.clone(), ());
        set.into_keys().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn residue_classification() {
        assert_eq!(Category::of_residue("ALA"), Category::Protein);
        assert_eq!(Category::of_residue("arg"), Category::Protein);
        assert_eq!(Category::of_residue(" HSD "), Category::Protein);
        assert_eq!(Category::of_residue("SOL"), Category::Water);
        assert_eq!(Category::of_residue("TIP3"), Category::Water);
        assert_eq!(Category::of_residue("POPC"), Category::Lipid);
        assert_eq!(Category::of_residue("CHL1"), Category::Lipid);
        assert_eq!(Category::of_residue("SOD"), Category::Ion);
        assert_eq!(Category::of_residue("CLA"), Category::Ion);
        assert_eq!(Category::of_residue("DA"), Category::NucleicAcid);
        assert_eq!(Category::of_residue("LIG"), Category::Ligand);
        assert_eq!(Category::of_residue(""), Category::Other);
    }

    #[test]
    fn paper_default_taxonomy() {
        let t = Taxonomy::paper_default();
        assert_eq!(t.tag_of("ALA"), Tag::protein());
        assert_eq!(t.tag_of("SOL"), Tag::misc());
        assert_eq!(t.tag_of("POPC"), Tag::misc());
        assert_eq!(t.all_tags().len(), 2);
    }

    #[test]
    fn config_parse_roundtrip() {
        let cfg = r#"
            # GPCR study: protein active, lipids separately, rest MISC
            tag p = category protein
            tag l = resname POPC POPE CHL1
            default m
        "#;
        let t = Taxonomy::parse_config(cfg).unwrap();
        assert_eq!(t.tag_of("GLY").as_str(), "p");
        assert_eq!(t.tag_of("POPC").as_str(), "l");
        assert_eq!(t.tag_of("chl1").as_str(), "l");
        assert_eq!(t.tag_of("SOL").as_str(), "m");
        assert_eq!(t.default_tag().as_str(), "m");
    }

    #[test]
    fn config_parse_errors() {
        assert!(Taxonomy::parse_config("tag p").is_err());
        assert!(Taxonomy::parse_config("tag p = frobnicate x").is_err());
        assert!(Taxonomy::parse_config("bogus line").is_err());
        assert!(Taxonomy::parse_config("tag p = category nonsuch").is_err());
        assert!(Taxonomy::parse_config("default").is_err());
        assert!(Taxonomy::parse_config("tag p = resname").is_err());
    }

    #[test]
    fn explicit_resname_rule_beats_category_rule_order() {
        // Rules are evaluated in order; a resname rule listed first wins.
        let cfg = "tag x = resname ALA\ntag p = category protein\ndefault m";
        let t = Taxonomy::parse_config(cfg).unwrap();
        assert_eq!(t.tag_of("ALA").as_str(), "x");
        assert_eq!(t.tag_of("GLY").as_str(), "p");
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let t = Taxonomy::parse_config("\n  # only comments\n\n").unwrap();
        assert_eq!(t.tag_of("ALA"), Tag::misc());
    }
}
