//! # marea-encoding — the PEPt *Encoding* layer
//!
//! > *"Encoding describes the representation of these data on the wire."*
//! > — paper §6
//!
//! This crate turns presentation-layer [`Value`](marea_presentation::Value)s
//! into bytes and back. Two codecs are provided, both pluggable through the
//! [`Codec`] trait (the PEPt architecture demands that each subsystem
//! "accept new pluggable subsystems"):
//!
//! * [`CompactCodec`] — schema-directed positional encoding. Struct field
//!   names never travel; integers are LEB128 varints (zigzag for signed);
//!   fixed-length vectors carry no length prefix. This is the codec used for
//!   the high-rate *variable* primitive where every wire byte counts on a
//!   bandwidth-limited UAV datalink.
//! * [`SelfDescribingCodec`] — prefixes each payload with a compact **type
//!   descriptor** ([`typedesc`]) followed by the compact encoding of the
//!   value. Receivers can decode without prior schema knowledge (ground
//!   stations, log replayers) at the cost of per-message overhead; the
//!   `pept_ablation` bench quantifies that cost.
//!
//! ## Example
//!
//! ```
//! use marea_encoding::{Codec, CompactCodec};
//! use marea_presentation::{record, HasDataType, IntoValue};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! record! {
//!     /// A geodetic fix: its schema and its values come from this one
//!     /// declaration.
//!     pub struct Fix { pub lat: f64, pub lon: f64 }
//! }
//! let (ty, v) = (Fix::data_type(), Fix { lat: 41.3, lon: 2.1 }.into_value());
//!
//! let codec = CompactCodec;
//! let bytes = codec.encode_to_vec(&v, &ty)?;
//! assert_eq!(bytes.len(), 16); // two f64, nothing else
//! assert_eq!(codec.decode(&bytes, &ty)?, v);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod codec;
mod compact;
mod error;
mod selfdesc;
pub mod typedesc;
mod wire;

pub use codec::{Codec, CodecId, CodecRegistry};
pub use compact::CompactCodec;
pub use error::{DecodeError, EncodeError};
pub use selfdesc::SelfDescribingCodec;
pub use wire::{WireReader, WireWriter};
