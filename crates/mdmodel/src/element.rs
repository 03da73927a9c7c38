//! Chemical elements with the per-element properties the rest of the stack
//! needs: the PDB element symbol (the structure codec) and the covalent
//! radius (bond inference for the renderer).

/// Chemical element of an atom.
///
/// Only elements that actually occur in MD systems of the GPCR kind are
/// enumerated; everything else maps to [`Element::Other`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Element {
    H,
    C,
    N,
    O,
    P,
    S,
    Na,
    Cl,
    K,
    Mg,
    Ca,
    Zn,
    Fe,
    /// Anything not covered above (e.g. exotic hetero groups).
    Other,
}

impl Element {
    /// Guess the element from a PDB atom name (columns 13-16) and residue
    /// name. PDB atom names right-pad the element and may prefix a digit for
    /// hydrogens ("1HB2"); the element is the first alphabetic character,
    /// except for two-letter ions which are matched explicitly.
    pub fn from_pdb_atom_name(name: &str, resname: &str) -> Element {
        let trimmed = name.trim();
        let upper = trimmed.to_ascii_uppercase();
        // Two-letter ions / metals are usually their own residue.
        match resname.trim().to_ascii_uppercase().as_str() {
            "NA" | "NA+" | "SOD" => return Element::Na,
            "CL" | "CL-" | "CLA" => return Element::Cl,
            "K" | "K+" | "POT" => return Element::K,
            "MG" | "MG2" => return Element::Mg,
            "CAL" | "CA2" => return Element::Ca,
            "ZN" | "ZN2" => return Element::Zn,
            _ => {}
        }
        // Explicit two-letter element spellings inside larger residues.
        if upper.starts_with("NA") && upper.len() <= 3 {
            return Element::Na;
        }
        if upper.starts_with("CL") && upper.len() <= 3 {
            return Element::Cl;
        }
        if upper.starts_with("FE") {
            return Element::Fe;
        }
        if upper.starts_with("ZN") {
            return Element::Zn;
        }
        if upper.starts_with("MG") {
            return Element::Mg;
        }
        let first_alpha = upper.chars().find(|c| c.is_ascii_alphabetic());
        match first_alpha {
            Some('H') => Element::H,
            Some('C') => Element::C,
            Some('N') => Element::N,
            Some('O') => Element::O,
            Some('P') => Element::P,
            Some('S') => Element::S,
            Some('K') => Element::K,
            _ => Element::Other,
        }
    }

    /// Covalent radius in nanometres; pairs of atoms closer than the sum of
    /// radii times a tolerance are treated as bonded (VMD uses the same
    /// distance heuristic when a file carries no CONECT records).
    pub fn covalent_radius_nm(self) -> f32 {
        match self {
            Element::H => 0.031,
            Element::C => 0.076,
            Element::N => 0.071,
            Element::O => 0.066,
            Element::P => 0.107,
            Element::S => 0.105,
            Element::Na => 0.166,
            Element::Cl => 0.102,
            Element::K => 0.203,
            Element::Mg => 0.141,
            Element::Ca => 0.176,
            Element::Zn => 0.122,
            Element::Fe => 0.132,
            Element::Other => 0.12,
        }
    }

    /// One-letter symbol used when writing PDB element columns (77-78).
    pub fn symbol(self) -> &'static str {
        match self {
            Element::H => "H",
            Element::C => "C",
            Element::N => "N",
            Element::O => "O",
            Element::P => "P",
            Element::S => "S",
            Element::Na => "NA",
            Element::Cl => "CL",
            Element::K => "K",
            Element::Mg => "MG",
            Element::Ca => "CA",
            Element::Zn => "ZN",
            Element::Fe => "FE",
            Element::Other => "X",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hydrogen_with_digit_prefix() {
        assert_eq!(Element::from_pdb_atom_name("1HB2", "ALA"), Element::H);
        assert_eq!(Element::from_pdb_atom_name(" HG1", "THR"), Element::H);
    }

    #[test]
    fn backbone_atoms() {
        assert_eq!(Element::from_pdb_atom_name(" CA ", "GLY"), Element::C);
        assert_eq!(Element::from_pdb_atom_name(" N  ", "GLY"), Element::N);
        assert_eq!(Element::from_pdb_atom_name(" O  ", "GLY"), Element::O);
        assert_eq!(Element::from_pdb_atom_name(" SD ", "MET"), Element::S);
    }

    #[test]
    fn ions_by_residue() {
        assert_eq!(Element::from_pdb_atom_name("NA", "SOD"), Element::Na);
        assert_eq!(Element::from_pdb_atom_name("CLA", "CLA"), Element::Cl);
        assert_eq!(Element::from_pdb_atom_name("K", "POT"), Element::K);
    }

    #[test]
    fn calcium_vs_alpha_carbon() {
        // " CA " in a protein residue is an alpha carbon, not calcium.
        assert_eq!(Element::from_pdb_atom_name(" CA ", "LEU"), Element::C);
        assert_eq!(Element::from_pdb_atom_name("CA", "CA2"), Element::Ca);
    }

    #[test]
    fn lipid_phosphorus() {
        assert_eq!(Element::from_pdb_atom_name(" P  ", "POPC"), Element::P);
    }
}
