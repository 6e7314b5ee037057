//! Core-layer error types.

use std::error::Error;
use std::fmt;

use marea_presentation::{Name, TypeMismatch};

/// Error raised by container-level operations.
#[derive(Debug, Clone, PartialEq)]
pub enum ContainerError {
    /// A service with the same name is already hosted here.
    DuplicateService(Name),
    /// A provision name is already provided by another local service.
    DuplicateProvision(Name),
}

impl fmt::Display for ContainerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ContainerError::DuplicateService(n) => write!(f, "service `{n}` already hosted"),
            ContainerError::DuplicateProvision(n) => {
                write!(f, "provision `{n}` already provided locally")
            }
        }
    }
}

impl Error for ContainerError {}

/// Why a remote invocation concluded without a normal return value.
///
/// Delivered to the calling service through
/// [`Service::on_reply`](crate::Service::on_reply).
#[derive(Debug, Clone, PartialEq)]
pub enum CallError {
    /// No provider for the function is currently known.
    NoProvider,
    /// The callee raised an application-level error.
    App(String),
    /// The target existed but reported no such function.
    NoSuchFunction,
    /// The target service is not available (stopped/failed).
    ServiceUnavailable,
    /// No reply within the deadline, after exhausting redundant providers.
    Timeout,
    /// Arguments did not match the declared signature.
    BadArguments(String),
    /// The reply value did not match the return schema the typed port
    /// declared (surfaced by
    /// [`TypedCallHandle::decode`](crate::TypedCallHandle::decode)).
    TypeMismatch(TypeMismatch),
}

impl fmt::Display for CallError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CallError::NoProvider => write!(f, "no provider for function"),
            CallError::App(e) => write!(f, "application error: {e}"),
            CallError::NoSuchFunction => write!(f, "no such function at provider"),
            CallError::ServiceUnavailable => write!(f, "provider service unavailable"),
            CallError::Timeout => write!(f, "call timed out"),
            CallError::BadArguments(e) => write!(f, "bad arguments: {e}"),
            CallError::TypeMismatch(e) => write!(f, "reply {e}"),
        }
    }
}

impl Error for CallError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays() {
        let n = Name::new("gps").unwrap();
        assert_eq!(ContainerError::DuplicateService(n).to_string(), "service `gps` already hosted");
        assert_eq!(CallError::Timeout.to_string(), "call timed out");
    }
}
