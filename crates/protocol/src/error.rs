//! Protocol-layer error types.

use std::error::Error;
use std::fmt;

use marea_encoding::DecodeError;

/// Error produced while parsing a frame from raw bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// Input shorter than the fixed header.
    TooShort {
        /// Bytes available.
        len: usize,
    },
    /// The magic number did not match.
    BadMagic(u16),
    /// Unsupported protocol version.
    BadVersion(u8),
    /// Unknown message-kind byte.
    BadKind(u8),
    /// Header length field disagrees with the actual input length.
    LengthMismatch {
        /// Length declared in the header.
        declared: u32,
        /// Payload bytes actually present.
        actual: usize,
    },
    /// Payload larger than [`MAX_FRAME_PAYLOAD`](crate::MAX_FRAME_PAYLOAD).
    PayloadTooLarge(u32),
    /// CRC32 check failed.
    BadCrc {
        /// CRC stored in the frame.
        stored: u32,
        /// CRC computed over the received bytes.
        computed: u32,
    },
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::TooShort { len } => write!(f, "frame of {len} bytes is too short"),
            FrameError::BadMagic(m) => write!(f, "bad frame magic {m:#06x}"),
            FrameError::BadVersion(v) => write!(f, "unsupported protocol version {v}"),
            FrameError::BadKind(k) => write!(f, "unknown message kind {k:#04x}"),
            FrameError::LengthMismatch { declared, actual } => {
                write!(f, "declared payload length {declared} but {actual} bytes present")
            }
            FrameError::PayloadTooLarge(n) => write!(f, "payload of {n} bytes exceeds limit"),
            FrameError::BadCrc { stored, computed } => {
                write!(f, "crc mismatch (stored {stored:#010x}, computed {computed:#010x})")
            }
        }
    }
}

impl Error for FrameError {}

/// Error produced while interpreting a frame payload as a typed message, or
/// by one of the protocol state machines.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtocolError {
    /// Frame-level failure.
    Frame(FrameError),
    /// Payload deserialization failure.
    Decode(DecodeError),
    /// A reliable-delivery send was attempted while the window is full.
    WindowFull {
        /// Configured window size.
        window: usize,
    },
    /// A fragment set exceeded limits or was internally inconsistent.
    BadFragment(&'static str),
    /// A file-transfer message was inconsistent with the announced metadata.
    BadTransfer(&'static str),
}

impl fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtocolError::Frame(e) => write!(f, "frame error: {e}"),
            ProtocolError::Decode(e) => write!(f, "payload decode error: {e}"),
            ProtocolError::WindowFull { window } => {
                write!(f, "reliable send window of {window} messages is full")
            }
            ProtocolError::BadFragment(why) => write!(f, "bad fragment: {why}"),
            ProtocolError::BadTransfer(why) => write!(f, "inconsistent file transfer: {why}"),
        }
    }
}

impl Error for ProtocolError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ProtocolError::Frame(e) => Some(e),
            ProtocolError::Decode(e) => Some(e),
            _ => None,
        }
    }
}

impl From<FrameError> for ProtocolError {
    fn from(e: FrameError) -> Self {
        ProtocolError::Frame(e)
    }
}

impl From<DecodeError> for ProtocolError {
    fn from(e: DecodeError) -> Self {
        ProtocolError::Decode(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_and_sources() {
        let fe = FrameError::BadMagic(0x1234);
        assert_eq!(fe.to_string(), "bad frame magic 0x1234");
        let pe: ProtocolError = fe.into();
        assert!(pe.source().is_some());
        let pe: ProtocolError = DecodeError::InvalidUtf8.into();
        assert!(pe.to_string().contains("utf-8"));
    }
}
