//! Error types for the presentation layer.

use std::error::Error;
use std::fmt;

use crate::types::TypeKind;

/// Error returned when a string is not a valid MAREA [`Name`](crate::Name).
///
/// Names identify services, variables, events, functions and file resources
/// across the whole distributed system, so they are restricted to a portable
/// subset: non-empty, at most [`InvalidNameError::MAX_LEN`] bytes, ASCII
/// letters/digits plus `._-/`, and they must start with a letter.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InvalidNameError {
    pub(crate) offending: String,
    pub(crate) reason: &'static str,
}

impl InvalidNameError {
    /// Maximum accepted name length in bytes.
    pub const MAX_LEN: usize = 128;

    /// The string that failed validation.
    pub fn offending(&self) -> &str {
        &self.offending
    }

    /// Human-readable reason for the rejection.
    pub fn reason(&self) -> &'static str {
        self.reason
    }
}

impl fmt::Display for InvalidNameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid name {:?}: {}", self.offending, self.reason)
    }
}

impl Error for InvalidNameError {}

/// The specific way in which a [`Value`](crate::Value) failed to conform to a
/// [`DataType`](crate::DataType).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TypeErrorKind {
    /// The value has a different kind than the type requires.
    KindMismatch {
        /// Kind required by the schema.
        expected: TypeKind,
        /// Kind carried by the value.
        found: TypeKind,
    },
    /// A struct value is missing a field required by the schema.
    MissingField {
        /// Name of the missing field.
        field: String,
    },
    /// A struct value carries a field the schema does not declare.
    UnknownField {
        /// Name of the unexpected field.
        field: String,
    },
    /// A struct value repeats a field name.
    DuplicateField {
        /// Name of the duplicated field.
        field: String,
    },
    /// Struct fields appear in a different order than the schema declares.
    ///
    /// Field order is significant because the compact codec encodes structs
    /// positionally (paper §6: encoding describes the representation of data
    /// *on the wire*).
    FieldOrder {
        /// Name of the out-of-place field.
        field: String,
    },
    /// A fixed-length vector has the wrong number of elements.
    VectorLength {
        /// Length required by the schema.
        expected: usize,
        /// Length of the value.
        found: usize,
    },
    /// A union value selected an alternative the schema does not declare.
    UnknownAlternative {
        /// Name of the unknown alternative.
        alternative: String,
    },
    /// A union discriminant does not match the named alternative's index.
    DiscriminantMismatch {
        /// Discriminant stored in the value.
        found: u32,
        /// Discriminant the schema assigns to that alternative.
        expected: u32,
    },
}

impl fmt::Display for TypeErrorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TypeErrorKind::KindMismatch { expected, found } => {
                write!(f, "expected {expected}, found {found}")
            }
            TypeErrorKind::MissingField { field } => write!(f, "missing field `{field}`"),
            TypeErrorKind::UnknownField { field } => write!(f, "unknown field `{field}`"),
            TypeErrorKind::DuplicateField { field } => write!(f, "duplicate field `{field}`"),
            TypeErrorKind::FieldOrder { field } => {
                write!(f, "field `{field}` out of schema order")
            }
            TypeErrorKind::VectorLength { expected, found } => {
                write!(f, "expected vector of length {expected}, found {found}")
            }
            TypeErrorKind::UnknownAlternative { alternative } => {
                write!(f, "unknown union alternative `{alternative}`")
            }
            TypeErrorKind::DiscriminantMismatch { found, expected } => {
                write!(f, "union discriminant {found} does not match alternative index {expected}")
            }
        }
    }
}

/// Error produced when a [`Value`](crate::Value) does not conform to a
/// [`DataType`](crate::DataType).
///
/// Carries the *location* of the mismatch as a dotted/indexed path (e.g.
/// `waypoints[3].alt`) so that mission developers can locate schema bugs in
/// deeply nested telemetry records.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TypeError {
    pub(crate) kind: TypeErrorKind,
    pub(crate) location: String,
}

impl TypeError {
    /// Creates a type error at the root location.
    pub fn new(kind: TypeErrorKind) -> Self {
        TypeError { kind, location: String::new() }
    }

    /// What went wrong.
    pub fn kind(&self) -> &TypeErrorKind {
        &self.kind
    }

    /// Path within the value where the mismatch occurred (empty = root).
    pub fn location(&self) -> &str {
        &self.location
    }

    /// Returns the same error re-rooted under a struct field.
    pub(crate) fn in_field(mut self, field: &str) -> Self {
        if self.location.is_empty() {
            self.location = field.to_owned();
        } else {
            self.location = format!("{field}.{}", self.location);
        }
        self
    }

    /// Returns the same error re-rooted under a vector index.
    pub(crate) fn at_index(mut self, index: usize) -> Self {
        if self.location.is_empty() {
            self.location = format!("[{index}]");
        } else if self.location.starts_with('[') {
            self.location = format!("[{index}]{}", self.location);
        } else {
            self.location = format!("[{index}].{}", self.location);
        }
        self
    }
}

impl fmt::Display for TypeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.location.is_empty() {
            write!(f, "type mismatch: {}", self.kind)
        } else {
            write!(f, "type mismatch at `{}`: {}", self.location, self.kind)
        }
    }
}

impl Error for TypeError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn type_error_locations_compose() {
        let e = TypeError::new(TypeErrorKind::KindMismatch {
            expected: TypeKind::F64,
            found: TypeKind::Bool,
        });
        let e = e.in_field("alt").at_index(3).in_field("waypoints");
        assert_eq!(e.location(), "waypoints.[3].alt");
        let shown = e.to_string();
        assert!(shown.contains("waypoints"), "{shown}");
        assert!(shown.contains("expected f64"), "{shown}");
    }

    #[test]
    fn display_is_lowercase_and_concise() {
        let e = TypeError::new(TypeErrorKind::MissingField { field: "lat".into() });
        assert_eq!(e.to_string(), "type mismatch: missing field `lat`");
    }

    #[test]
    fn invalid_name_reports_offender() {
        let e = InvalidNameError { offending: "9bad".into(), reason: "must start with a letter" };
        assert!(e.to_string().contains("9bad"));
        assert_eq!(e.reason(), "must start with a letter");
    }
}
