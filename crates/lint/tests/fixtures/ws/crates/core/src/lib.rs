//! Fixture crate: the error-kind pass fires three ways in this file.
#![forbid(unsafe_code)]

pub enum AdaError {
    A(String),
    B,
    C,
}

impl AdaError {
    pub fn kind(&self) -> &'static str {
        match self {
            AdaError::A(_) => "a",
            AdaError::B => "a",
            _ => "other",
        }
    }
}
