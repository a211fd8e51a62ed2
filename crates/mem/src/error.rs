//! Error type for address-space manipulation.

use std::fmt;

use crate::page::{PageNum, VAddr};

/// Errors from address-space mutators.
///
/// These are programming errors in the caller (the kernel or a workload
/// builder), distinct from [`crate::Fault`]s, which are the expected runtime
/// events the pager services.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MemError {
    /// An address fell outside every validated region.
    NotValidated(VAddr),
    /// A page that was required to be resident is not.
    NotResident(PageNum),
    /// A mutator targeted a page whose current state is incompatible
    /// (e.g. installing a disk mapping over an imaginary page).
    BadState(PageNum, &'static str),
    /// A zero-length or inverted range was supplied.
    EmptyRange,
    /// A space handed to `SpaceImage::freeze` was not freshly built.
    NotFresh(&'static str),
}

impl fmt::Display for MemError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MemError::NotValidated(a) => write!(f, "address {a} is not validated"),
            MemError::NotResident(p) => write!(f, "page {} is not resident", p.0),
            MemError::BadState(p, what) => {
                write!(f, "page {} is in an incompatible state: {what}", p.0)
            }
            MemError::EmptyRange => write!(f, "empty or inverted range"),
            MemError::NotFresh(what) => write!(f, "space is not freshly built: {what}"),
        }
    }
}

impl std::error::Error for MemError {}
