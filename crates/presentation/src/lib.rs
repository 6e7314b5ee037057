//! # marea-presentation — the PEPt *Presentation* layer
//!
//! This crate implements the data model that MAREA services use to describe
//! the information they exchange: the "C-like language" type system the paper
//! calls for in §4.1:
//!
//! > *"Each of them is composed of a basic type (boolean, integer, floating
//! > point real, character string, etc.) or by a composition (vector, struct
//! > or union) of basic types. From the point of view of the allowed data
//! > types in a variable our middleware is similar to a C-like language."*
//!
//! The two central types are [`DataType`] (the *schema* of a variable, event
//! payload, function parameter or file metadata record) and [`Value`] (a
//! dynamically-typed datum conforming to some [`DataType`]). Services build
//! [`Value`]s, the encoding layer serializes them, and the protocol /
//! transport layers move the resulting bytes — none of the lower layers ever
//! interprets application data, which is exactly the decoupling the PEPt
//! architecture (paper §6) prescribes.
//!
//! ## Example
//!
//! ```
//! use marea_presentation::{DataType, StructType, Value};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // Schema of the GPS `position` variable from the paper's Fig. 3 scenario.
//! let position_ty = DataType::Struct(StructType::new("Position")
//!     .with_field("lat", DataType::F64)?
//!     .with_field("lon", DataType::F64)?
//!     .with_field("alt", DataType::F32)?);
//!
//! let fix = Value::struct_of("Position")
//!     .field("lat", 41.27641)
//!     .field("lon", 1.98720)
//!     .field("alt", 320.5f32)
//!     .build()?;
//!
//! fix.conforms_to(&position_ty)?;
//! let lat = fix.as_struct().and_then(|s| s.get("lat"));
//! assert_eq!(lat.and_then(Value::as_f64), Some(41.27641));
//! # Ok(())
//! # }
//! ```
//!
//! Services do not write that by hand: [`record!`] turns a plain struct
//! declaration into the schema and both conversions, with field names
//! taken from the schema rather than parsed per sample.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod convert;
mod error;
mod name;
mod record;
#[cfg(feature = "testkit")]
pub mod testkit;
mod types;
mod value;

pub use convert::{
    ArgsCodec, ArgsSchema, EventPayload, FnRet, FromArgs, FromValue, HasDataType, IntoArgs,
    IntoValue, TypeMismatch, ValueCodec,
};
pub use error::{InvalidNameError, TypeError, TypeErrorKind};
pub use name::Name;
#[doc(hidden)]
pub use record::RecordFields as __RecordFields;
pub use types::{DataType, FieldDef, StructType, TypeKind, UnionType, VectorType};
pub use value::{StructBuilder, StructValue, UnionValue, Value, VectorValue};
