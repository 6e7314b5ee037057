//! [`record!`](crate::record): typed records generated from one struct
//! declaration.

use crate::convert::{FromValue, TypeMismatch};
use crate::name::Name;
use crate::types::{DataType, StructType};
use crate::value::Value;

/// Declares a struct that travels as a MAREA struct value: the one
/// declaration expands into the struct itself plus its
/// [`HasDataType`](crate::HasDataType), [`IntoValue`](crate::IntoValue)
/// and [`FromValue`] implementations, so the schema and both conversions
/// cannot drift apart.
///
/// Attributes, derives, visibility and field docs pass through unchanged.
/// Every field type must itself implement the three traits — scalars,
/// `String`, `Vec<u8>` or another record, so records nest.
///
/// # Contract
///
/// * **Schema.** [`data_type`](crate::HasDataType::data_type) is a struct
///   type named after the Rust struct whose fields are the Rust fields, in
///   declaration order, each of its own type's `data_type()`. It is built once per
///   process and cloned afterwards. The struct and field identifiers must
///   be valid [`Name`]s (no leading underscore, no raw identifiers) — the
///   first use panics otherwise.
/// * **Names are the schema's.** `into_value` builds the value through
///   [`StructValue::for_type`](crate::StructValue::for_type): one
///   allocation (the value vector) and one reference to the cached
///   schema's name block, nothing parsed, validated or copied per sample.
/// * **`from_value` matches by name and exact kind.** A value that holds
///   the record's own name block (made by `into_value` or decoded against
///   `data_type()`) is read index by index with no name compared; in any
///   other value each field is looked up at its declaration index first
///   and by name otherwise, so reordered or extra fields still convert.
///   The field then goes through its own type's
///   `from_value`, which accepts exactly that type's kind (an `f64` field
///   does not widen an `F32` value). A non-struct value, a missing field or
///   a field of the wrong kind is a [`TypeMismatch`] carrying the record's
///   schema, the kind of the value that arrived and the detail
///   ``field `<name>` ``. Success allocates nothing beyond what the field
///   types' own conversions do (`String`, `Vec<u8>`).
///
/// # Examples
///
/// ```
/// use marea_presentation::{record, FromValue, HasDataType, IntoValue};
///
/// record! {
///     /// A geodetic fix.
///     #[derive(Debug, Clone, Copy, PartialEq)]
///     pub struct Fix {
///         /// Latitude in degrees.
///         pub lat: f64,
///         /// Longitude in degrees.
///         pub lon: f64,
///     }
/// }
///
/// record! {
///     /// A fix with the receiver that produced it: records nest.
///     #[derive(Debug, Clone, PartialEq)]
///     pub struct Report {
///         pub receiver: String,
///         pub fix: Fix,
///     }
/// }
///
/// let report = Report { receiver: "gps-a".into(), fix: Fix { lat: 41.3, lon: 2.1 } };
/// let value = report.clone().into_value();
/// value.conforms_to(&Report::data_type()).unwrap();
/// assert_eq!(Report::from_value(&value).unwrap(), report);
///
/// let err = Fix::from_value(&value).unwrap_err();
/// assert_eq!(err.detail(), Some("field `lat`"));
/// ```
#[macro_export]
macro_rules! record {
    (
        $(#[$meta:meta])*
        $vis:vis struct $name:ident {
            $(
                $(#[$fmeta:meta])*
                $fvis:vis $field:ident : $fty:ty
            ),* $(,)?
        }
    ) => {
        $(#[$meta])*
        $vis struct $name {
            $( $(#[$fmeta])* $fvis $field: $fty, )*
        }

        const _: () = {
            fn schema() -> &'static $crate::StructType {
                static SCHEMA: ::std::sync::OnceLock<$crate::StructType> =
                    ::std::sync::OnceLock::new();
                SCHEMA.get_or_init(|| {
                    $crate::StructType::new(stringify!($name))
                    $(
                        .with_field(
                            stringify!($field),
                            <$fty as $crate::HasDataType>::data_type(),
                        )
                        .expect("record! field identifiers are valid names")
                    )*
                })
            }

            impl $crate::HasDataType for $name {
                fn data_type() -> $crate::DataType {
                    $crate::DataType::Struct(schema().clone())
                }
            }

            impl $crate::IntoValue for $name {
                fn into_value(self) -> $crate::Value {
                    $crate::Value::Struct($crate::StructValue::for_type(
                        schema(),
                        [$( $crate::IntoValue::into_value(self.$field) ),*],
                    ))
                }
            }

            impl $crate::FromValue for $name {
                fn from_value(
                    value: &$crate::Value,
                ) -> ::std::result::Result<Self, $crate::TypeMismatch> {
                    let mut fields = $crate::__RecordFields::of(schema(), value);
                    // Struct-literal fields evaluate in the order written:
                    // declaration order, which `__RecordFields` counts on.
                    Ok($name { $( $field: fields.next(stringify!($field))? ),* })
                }
            }
        };
    };
}

/// The runtime half of [`record!`](crate::record)'s `FromValue`: hands out
/// the fields of a struct value in the record's declaration order.
#[doc(hidden)]
pub struct RecordFields<'a> {
    schema: &'a StructType,
    value: &'a Value,
    names: &'a [Name],
    values: &'a [Value],
    index: usize,
    /// The value holds the schema's own name block: the field declared at
    /// an index is the value at that index, no name compared.
    positional: bool,
}

impl<'a> RecordFields<'a> {
    /// Starts reading `value` as the record `schema` describes; a
    /// non-struct value has no fields.
    pub fn of(schema: &'a StructType, value: &'a Value) -> Self {
        let (names, values, positional) = match value.as_struct() {
            Some(sv) => (sv.names(), sv.values(), sv.shares_names(schema.names())),
            None => (&[][..], &[][..], false),
        };
        RecordFields { schema, value, names, values, index: 0, positional }
    }

    /// Converts the next declared field, `name`: the value at the
    /// declaration index if it carries that name, else the first so named.
    ///
    /// # Errors
    ///
    /// The record-level [`TypeMismatch`] when the field is absent or its
    /// own conversion fails.
    pub fn next<T: FromValue>(&mut self, name: &str) -> Result<T, TypeMismatch> {
        let at = self.index;
        self.index += 1;
        let found = if self.positional || self.names.get(at).is_some_and(|n| n == name) {
            self.values.get(at)
        } else {
            self.names.iter().position(|n| n == name).map(|i| &self.values[i])
        };
        found.and_then(|v| T::from_value(v).ok()).ok_or_else(|| {
            TypeMismatch::new(DataType::Struct(self.schema.clone()), self.value.kind())
                .with_detail(format!("field `{name}`"))
        })
    }
}
