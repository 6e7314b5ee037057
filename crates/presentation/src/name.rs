//! Interned, validated identifiers.
//!
//! Every addressable entity in MAREA — services, variables, events, remote
//! functions, file resources — is identified *by name* (paper §3: "The
//! services are addressed by name, and the Service Container discovers the
//! real location in the network of the named service"). Names therefore
//! travel on the wire constantly; [`Name`] keeps them cheap to clone
//! (`Arc<str>`) and guarantees at construction time that they fit the
//! portable character set shared by every node of the fleet.

use std::borrow::Borrow;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::str::FromStr;
use std::sync::Arc;

use crate::error::InvalidNameError;

/// A validated, cheaply-cloneable identifier.
///
/// Valid names are non-empty, at most 128 bytes, start with an ASCII letter
/// and contain only ASCII letters, digits and `.`, `_`, `-`, `/`.
///
/// # Examples
///
/// ```
/// use marea_presentation::Name;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let gps = Name::new("gps")?;
/// let var = Name::new("gps/position")?;
/// assert_eq!(var.as_str(), "gps/position");
/// assert!(Name::new("").is_err());
/// assert!(Name::new("no spaces").is_err());
/// # Ok(())
/// # }
/// ```
#[derive(Clone)]
pub struct Name(Arc<str>);

impl Name {
    /// Validates `s` and returns it as a [`Name`].
    ///
    /// # Errors
    ///
    /// Returns [`InvalidNameError`] if `s` is empty, longer than 128 bytes,
    /// does not start with an ASCII letter, or contains characters outside
    /// `[A-Za-z0-9._\-/]`.
    pub fn new(s: impl AsRef<str>) -> Result<Self, InvalidNameError> {
        let s = s.as_ref();
        Self::validate(s)?;
        Ok(Name(Arc::from(s)))
    }

    /// The name as a string slice.
    pub fn as_str(&self) -> &str {
        &self.0
    }

    /// Length of the name in bytes.
    #[allow(clippy::len_without_is_empty, reason = "names are never empty by construction")]
    pub fn len(&self) -> usize {
        self.0.len()
    }

    fn validate(s: &str) -> Result<(), InvalidNameError> {
        let fail = |reason| Err(InvalidNameError { offending: s.to_owned(), reason });
        if s.is_empty() {
            return fail("name is empty");
        }
        if s.len() > InvalidNameError::MAX_LEN {
            return fail("name exceeds 128 bytes");
        }
        let first = s.as_bytes()[0];
        if !first.is_ascii_alphabetic() {
            return fail("must start with a letter");
        }
        for &b in s.as_bytes() {
            let ok = b.is_ascii_alphanumeric() || matches!(b, b'.' | b'_' | b'-' | b'/');
            if !ok {
                return fail("contains a character outside [A-Za-z0-9._-/]");
            }
        }
        Ok(())
    }
}

impl fmt::Debug for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Name({:?})", &*self.0)
    }
}

impl fmt::Display for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl PartialEq for Name {
    fn eq(&self, other: &Self) -> bool {
        // Pointer equality fast path; falls back to byte comparison.
        Arc::ptr_eq(&self.0, &other.0) || self.0 == other.0
    }
}

impl Eq for Name {}

impl PartialEq<str> for Name {
    fn eq(&self, other: &str) -> bool {
        &*self.0 == other
    }
}

impl PartialEq<&str> for Name {
    fn eq(&self, other: &&str) -> bool {
        &*self.0 == *other
    }
}

impl PartialOrd for Name {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Name {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.cmp(&other.0)
    }
}

impl Hash for Name {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.0.hash(state)
    }
}

impl Borrow<str> for Name {
    fn borrow(&self) -> &str {
        &self.0
    }
}

impl AsRef<str> for Name {
    fn as_ref(&self) -> &str {
        &self.0
    }
}

impl FromStr for Name {
    type Err = InvalidNameError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Name::new(s)
    }
}

impl TryFrom<&str> for Name {
    type Error = InvalidNameError;

    fn try_from(s: &str) -> Result<Self, Self::Error> {
        Name::new(s)
    }
}

impl TryFrom<String> for Name {
    type Error = InvalidNameError;

    fn try_from(s: String) -> Result<Self, Self::Error> {
        Name::new(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn accepts_typical_avionics_names() {
        for ok in ["gps", "gps/position", "mission-control", "camera.front", "fs_root/img01"] {
            assert!(Name::new(ok).is_ok(), "{ok} should be valid");
        }
    }

    #[test]
    fn rejects_bad_names() {
        for bad in ["", " ", "9lives", "_x", "a b", "café", "a\nb", "/abs"] {
            assert!(Name::new(bad).is_err(), "{bad:?} should be invalid");
        }
    }

    #[test]
    fn rejects_overlong_names() {
        let long = format!("a{}", "x".repeat(InvalidNameError::MAX_LEN));
        assert!(Name::new(&long).is_err());
        let fits = format!("a{}", "x".repeat(InvalidNameError::MAX_LEN - 1));
        assert!(Name::new(&fits).is_ok());
    }

    #[test]
    fn equality_and_hash_follow_content() {
        let a = Name::new("gps").unwrap();
        let b = Name::new("gps").unwrap();
        let c = a.clone();
        assert_eq!(a, b);
        assert_eq!(a, c);
        assert_eq!(a, "gps");
        let mut m = HashMap::new();
        m.insert(a, 1);
        // Borrow<str> allows lookup by &str.
        assert_eq!(m.get("gps"), Some(&1));
    }

    #[test]
    fn ordering_is_lexicographic() {
        let mut v = [Name::new("camera").unwrap(), Name::new("aphid").unwrap()];
        v.sort();
        assert_eq!(v[0], "aphid");
    }

    #[test]
    fn from_str_roundtrip() {
        let n: Name = "storage".parse().unwrap();
        assert_eq!(n.to_string(), "storage");
        assert_eq!(n.len(), 7);
    }
}
