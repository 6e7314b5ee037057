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
//! use marea_presentation::{DataType, StructType, StructValue, Value};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // Schema of the GPS `position` variable from the paper's Fig. 3 scenario.
//! let position = StructType::new("Position")
//!     .with_field("lat", DataType::F64)?
//!     .with_field("lon", DataType::F64)?
//!     .with_field("alt", DataType::F32)?;
//!
//! // A value is made from its schema: its field names are the schema's own.
//! let values = [41.27641.into(), 1.98720.into(), 320.5f32.into()];
//! let fix = Value::Struct(StructValue::for_type(&position, values));
//!
//! fix.conforms_to(&DataType::Struct(position))?;
//! let lat = fix.as_struct().and_then(|s| s.get("lat"));
//! assert_eq!(lat, Some(&Value::F64(41.27641)));
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
pub use value::{StructValue, UnionValue, Value, VectorValue};
