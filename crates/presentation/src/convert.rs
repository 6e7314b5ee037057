//! Typed conversions between Rust values and the MAREA data model.
//!
//! The dynamic [`Value`] / [`DataType`] pair keeps the *wire* contract
//! flexible, but services should not have to build and pick apart dynamic
//! values by hand. This module is the static face of the same contract:
//!
//! * [`HasDataType`] — the Rust type's canonical MAREA schema;
//! * [`IntoValue`] / [`FromValue`] — lossless conversion to and from
//!   [`Value`], with a structured [`TypeMismatch`] error instead of a
//!   silent drop when the dynamic value disagrees with the schema;
//! * [`ValueCodec`] — the pair of the above, automatically implemented; the
//!   bound typed service ports require;
//! * [`IntoArgs`] / [`FromArgs`] / [`ArgsCodec`] — the same for function
//!   *argument lists*, implemented by tuples (arity 0–6);
//! * [`EventPayload`] — event payloads: any codec type, `()` for bare
//!   events, `Option<T>` for optional payloads;
//! * [`FnRet`] — function return values: any codec type or `()` for void.
//!
//! All scalar Rust types with a `DataType` mapping implement the codec
//! traits; composite application records (structs over the wire) get them
//! from [`record!`](crate::record) — see `marea-services`' `names` module.

use std::error::Error;
use std::fmt;

use crate::types::{DataType, TypeKind};
use crate::value::Value;

/// A dynamic value disagreed with the schema a typed endpoint declared.
///
/// Unlike a plain [`TypeError`](crate::TypeError), this error pairs the
/// *declared* schema with the *observed* value kind, which is the
/// information a service needs to log a useful diagnostic when a peer (or
/// the compat string API) sends the wrong shape.
#[derive(Debug, Clone, PartialEq)]
pub struct TypeMismatch {
    expected: Option<DataType>,
    found: Option<TypeKind>,
    detail: Option<String>,
}

impl TypeMismatch {
    /// A value of kind `found` arrived where `expected` was declared.
    pub fn new(expected: DataType, found: TypeKind) -> Self {
        TypeMismatch { expected: Some(expected), found: Some(found), detail: None }
    }

    /// No value arrived where `expected` was declared (e.g. a bare event
    /// on a channel declared with a payload).
    pub fn missing(expected: DataType) -> Self {
        TypeMismatch { expected: Some(expected), found: None, detail: None }
    }

    /// An argument list arrived with the wrong number of arguments — a
    /// shape disagreement with no single schema to blame.
    pub fn arity(expected: usize, found: usize) -> Self {
        TypeMismatch {
            expected: None,
            found: None,
            detail: Some(format!("expected {expected} arguments, got {found}")),
        }
    }

    /// Attaches a human-readable detail (e.g. the field-level location of
    /// a mismatch inside a struct).
    #[must_use]
    pub fn with_detail(mut self, detail: impl Into<String>) -> Self {
        self.detail = Some(detail.into());
        self
    }

    /// The schema the typed endpoint declared (`None` for shape-level
    /// disagreements such as argument arity, where no single schema
    /// applies).
    pub fn expected(&self) -> Option<&DataType> {
        self.expected.as_ref()
    }

    /// The kind of value that actually arrived (`None` = nothing arrived).
    pub fn found(&self) -> Option<TypeKind> {
        self.found
    }

    /// Extra location/context detail, if any.
    pub fn detail(&self) -> Option<&str> {
        self.detail.as_deref()
    }
}

impl fmt::Display for TypeMismatch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match (&self.expected, self.found) {
            (Some(expected), Some(found)) => {
                write!(f, "type mismatch: expected {expected}, found {found}")?
            }
            (Some(expected), None) => {
                write!(f, "type mismatch: expected {expected}, found no payload")?
            }
            (None, _) => write!(f, "type mismatch")?,
        }
        if let Some(detail) = &self.detail {
            write!(f, " ({detail})")?;
        }
        Ok(())
    }
}

impl Error for TypeMismatch {}

/// Rust types with a canonical MAREA schema.
pub trait HasDataType {
    /// The [`DataType`] values of this type conform to.
    fn data_type() -> DataType;
}

/// Conversion *into* a dynamic [`Value`] conforming to
/// [`HasDataType::data_type`].
pub trait IntoValue: HasDataType {
    /// Converts `self` into the dynamic representation.
    fn into_value(self) -> Value;
}

/// Conversion *from* a dynamic [`Value`] checked against
/// [`HasDataType::data_type`].
pub trait FromValue: HasDataType + Sized {
    /// Converts a dynamic value back, surfacing a structured
    /// [`TypeMismatch`] when the value does not match the schema.
    fn from_value(value: &Value) -> Result<Self, TypeMismatch>;
}

/// Bidirectional value conversion — the bound the typed ports require.
///
/// Automatically implemented for every `IntoValue + FromValue` type.
pub trait ValueCodec: IntoValue + FromValue {}

impl<T: IntoValue + FromValue> ValueCodec for T {}

macro_rules! impl_scalar_codec {
    ($($t:ty => $variant:ident / $dt:expr),* $(,)?) => {
        $(
            impl HasDataType for $t {
                fn data_type() -> DataType {
                    $dt
                }
            }

            impl IntoValue for $t {
                fn into_value(self) -> Value {
                    Value::$variant(self)
                }
            }

            impl FromValue for $t {
                fn from_value(value: &Value) -> Result<Self, TypeMismatch> {
                    match value {
                        Value::$variant(v) => Ok(v.clone()),
                        other => Err(TypeMismatch::new($dt, other.kind())),
                    }
                }
            }
        )*
    };
}

impl_scalar_codec! {
    bool => Bool / DataType::Bool,
    i8 => I8 / DataType::I8,
    i16 => I16 / DataType::I16,
    i32 => I32 / DataType::I32,
    i64 => I64 / DataType::I64,
    u8 => U8 / DataType::U8,
    u16 => U16 / DataType::U16,
    u32 => U32 / DataType::U32,
    u64 => U64 / DataType::U64,
    f32 => F32 / DataType::F32,
    f64 => F64 / DataType::F64,
    char => Char / DataType::Char,
    String => Str / DataType::Str,
    Vec<u8> => Bytes / DataType::Bytes,
}

impl HasDataType for &str {
    fn data_type() -> DataType {
        DataType::Str
    }
}

impl IntoValue for &str {
    fn into_value(self) -> Value {
        Value::Str(self.to_owned())
    }
}

/// Argument packs with a canonical parameter-schema list.
///
/// Implemented by tuples up to arity 6; `()` is the empty argument list.
pub trait ArgsSchema {
    /// Declared parameter schemas, in order.
    fn arg_types() -> Vec<DataType>;
}

/// Conversion of a typed argument pack *into* a dynamic argument list.
pub trait IntoArgs: ArgsSchema {
    /// Converts the pack into dynamic argument values.
    fn into_args(self) -> Vec<Value>;
}

/// Conversion of a dynamic argument list back into a typed pack.
pub trait FromArgs: ArgsSchema + Sized {
    /// Converts dynamic arguments back, surfacing the first argument whose
    /// value does not match its declared schema.
    fn from_args(args: &[Value]) -> Result<Self, TypeMismatch>;
}

/// Bidirectional argument-pack conversion — the bound [`FnPort`]s require.
///
/// [`FnPort`]: https://docs.rs/marea-core
pub trait ArgsCodec: IntoArgs + FromArgs {}

impl<T: IntoArgs + FromArgs> ArgsCodec for T {}

macro_rules! impl_tuple_args {
    ($($t:ident : $idx:tt),*) => {
        impl<$($t: HasDataType),*> ArgsSchema for ($($t,)*) {
            fn arg_types() -> Vec<DataType> {
                vec![$($t::data_type()),*]
            }
        }

        impl<$($t: IntoValue),*> IntoArgs for ($($t,)*) {
            fn into_args(self) -> Vec<Value> {
                vec![$(self.$idx.into_value()),*]
            }
        }

        impl<$($t: FromValue),*> FromArgs for ($($t,)*) {
            fn from_args(args: &[Value]) -> Result<Self, TypeMismatch> {
                const ARITY: usize = 0 $(+ { let _ = $idx; 1 })*;
                if args.len() != ARITY {
                    return Err(TypeMismatch::arity(ARITY, args.len()));
                }
                Ok((
                    $(
                        $t::from_value(&args[$idx])
                            .map_err(|e| e.with_detail(format!("argument {}", $idx)))?,
                    )*
                ))
            }
        }
    };
}

impl_tuple_args!();
impl_tuple_args!(A: 0);
impl_tuple_args!(A: 0, B: 1);
impl_tuple_args!(A: 0, B: 1, C: 2);
impl_tuple_args!(A: 0, B: 1, C: 2, D: 3);
impl_tuple_args!(A: 0, B: 1, C: 2, D: 3, E: 4);
impl_tuple_args!(A: 0, B: 1, C: 2, D: 3, E: 4, F: 5);

/// Typed event payloads.
///
/// * any [`ValueCodec`] type — a mandatory payload of that schema;
/// * `()` — a bare event channel (no payload);
/// * `Option<T>` — a payload that may legitimately be absent.
pub trait EventPayload: Sized {
    /// The payload schema the channel declares (`None` = bare channel).
    fn payload_type() -> Option<DataType>;

    /// Converts the payload for emission.
    fn into_payload(self) -> Option<Value>;

    /// Decodes an incoming payload against the declared schema.
    fn from_payload(value: Option<&Value>) -> Result<Self, TypeMismatch>;
}

impl<T: ValueCodec> EventPayload for T {
    fn payload_type() -> Option<DataType> {
        Some(T::data_type())
    }

    fn into_payload(self) -> Option<Value> {
        Some(self.into_value())
    }

    fn from_payload(value: Option<&Value>) -> Result<Self, TypeMismatch> {
        match value {
            Some(v) => T::from_value(v),
            None => Err(TypeMismatch::missing(T::data_type())),
        }
    }
}

impl EventPayload for () {
    fn payload_type() -> Option<DataType> {
        None
    }

    fn into_payload(self) -> Option<Value> {
        None
    }

    fn from_payload(_value: Option<&Value>) -> Result<Self, TypeMismatch> {
        // Bare subscribers tolerate payloads they did not ask for.
        Ok(())
    }
}

impl<T: ValueCodec> EventPayload for Option<T> {
    fn payload_type() -> Option<DataType> {
        Some(T::data_type())
    }

    fn into_payload(self) -> Option<Value> {
        self.map(IntoValue::into_value)
    }

    fn from_payload(value: Option<&Value>) -> Result<Self, TypeMismatch> {
        value.map(T::from_value).transpose()
    }
}

/// Typed function return values: any [`ValueCodec`] type, or `()` for
/// void functions.
pub trait FnRet: Sized {
    /// The declared return schema (`None` = void).
    fn return_type() -> Option<DataType>;

    /// Converts a provider-side return value for marshalling.
    fn into_return(self) -> Value;

    /// Decodes a caller-side reply value against the declared schema.
    fn from_return(value: &Value) -> Result<Self, TypeMismatch>;
}

impl<T: ValueCodec> FnRet for T {
    fn return_type() -> Option<DataType> {
        Some(T::data_type())
    }

    fn into_return(self) -> Value {
        self.into_value()
    }

    fn from_return(value: &Value) -> Result<Self, TypeMismatch> {
        T::from_value(value)
    }
}

impl FnRet for () {
    fn return_type() -> Option<DataType> {
        None
    }

    fn into_return(self) -> Value {
        // Matches the RPC engine's convention for void returns.
        Value::Bool(true)
    }

    fn from_return(_value: &Value) -> Result<Self, TypeMismatch> {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_roundtrips() {
        assert_eq!(u64::from_value(&42u64.into_value()).unwrap(), 42);
        assert_eq!(String::from_value(&"hi".into_value()).unwrap(), "hi");
        assert_eq!(Vec::<u8>::from_value(&vec![1u8, 2].into_value()).unwrap(), vec![1, 2]);
        assert_eq!(bool::data_type(), DataType::Bool);
    }

    #[test]
    fn mismatch_is_structured() {
        let err = u64::from_value(&Value::F64(1.5)).unwrap_err();
        assert_eq!(err.expected(), Some(&DataType::U64));
        assert_eq!(err.found(), Some(TypeKind::F64));
        assert!(err.to_string().contains("expected u64"), "{err}");
    }

    #[test]
    fn tuple_args_roundtrip() {
        let args = ("photo".to_owned(), 3u32).into_args();
        assert_eq!(args.len(), 2);
        let back = <(String, u32)>::from_args(&args).unwrap();
        assert_eq!(back, ("photo".to_owned(), 3u32));
        assert_eq!(<(String, u32)>::arg_types(), vec![DataType::Str, DataType::U32]);
    }

    #[test]
    fn tuple_args_check_arity_and_types() {
        let err = <(String, u32)>::from_args(&[Value::Str("x".into())]).unwrap_err();
        assert!(err.to_string().contains("2 arguments"), "{err}");
        let err = <(String, u32)>::from_args(&[Value::U32(1), Value::U32(2)]).unwrap_err();
        assert_eq!(err.detail(), Some("argument 0"));
    }

    #[test]
    fn event_payload_variants() {
        assert_eq!(<u32 as EventPayload>::payload_type(), Some(DataType::U32));
        assert_eq!(<() as EventPayload>::payload_type(), None);
        assert_eq!(<Option<u32> as EventPayload>::payload_type(), Some(DataType::U32));

        assert_eq!(7u32.into_payload(), Some(Value::U32(7)));
        assert_eq!(().into_payload(), None);
        assert_eq!(Some(7u32).into_payload(), Some(Value::U32(7)));
        assert_eq!(None::<u32>.into_payload(), None);

        assert_eq!(u32::from_payload(Some(&Value::U32(7))).unwrap(), 7);
        assert!(u32::from_payload(None).is_err(), "mandatory payload absent");
        <() as EventPayload>::from_payload(Some(&Value::U32(7))).unwrap();
        assert_eq!(Option::<u32>::from_payload(None).unwrap(), None);
    }

    #[test]
    fn fn_ret_variants() {
        assert_eq!(<bool as FnRet>::return_type(), Some(DataType::Bool));
        assert_eq!(<() as FnRet>::return_type(), None);
        assert_eq!(true.into_return(), Value::Bool(true));
        assert_eq!(<() as FnRet>::into_return(()), Value::Bool(true));
        assert!(!bool::from_return(&Value::Bool(false)).unwrap());
        <() as FnRet>::from_return(&Value::Bool(true)).unwrap();
    }
}
