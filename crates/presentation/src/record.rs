//! [`record!`](crate::record): typed records generated from one struct
//! declaration.

use std::marker::PhantomData;

use crate::convert::{FromValue, HasDataType, TypeMismatch};
use crate::name::Name;
use crate::value::{StructValue, Value};

/// Declares a struct that travels as a MAREA struct value: the one
/// declaration expands into the struct itself plus its
/// [`HasDataType`], [`IntoValue`](crate::IntoValue) and [`FromValue`]
/// implementations, so the schema and both conversions cannot drift apart.
///
/// Attributes, derives, visibility and field docs pass through unchanged.
/// Every field type must itself implement the three traits — scalars,
/// `String`, `Vec<u8>` or another record, so records nest.
///
/// # Contract
///
/// * **Schema.** [`HasDataType::data_type`] is a struct type named after
///   the Rust struct whose fields are the Rust fields, in declaration
///   order, each of its own type's `data_type()`. It is built once per
///   process and cloned afterwards. The struct and field identifiers must
///   be valid [`Name`]s (no leading underscore, no raw identifiers) — the
///   first use panics otherwise.
/// * **Names are the schema's.** `into_value` builds the value through
///   [`StructValue::for_type`]: one allocation (the field vector), field
///   names cloned from the cached schema, nothing parsed or validated per
///   sample.
/// * **`from_value` matches by name and exact kind.** Each field is looked
///   up at its declaration index first and by name otherwise, so reordered
///   or extra fields still convert; it then goes through its own type's
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
                    let mut fields = $crate::__RecordFields::<Self>::of(value);
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
pub struct RecordFields<'a, R> {
    value: &'a Value,
    fields: &'a [(Name, Value)],
    index: usize,
    record: PhantomData<R>,
}

impl<'a, R: HasDataType> RecordFields<'a, R> {
    /// Starts reading `value` as an `R`; a non-struct value has no fields.
    pub fn of(value: &'a Value) -> Self {
        let fields = value.as_struct().map_or(&[][..], StructValue::fields);
        RecordFields { value, fields, index: 0, record: PhantomData }
    }

    /// Converts the next declared field, `name`: the value at the
    /// declaration index if it carries that name, else the first so named.
    ///
    /// # Errors
    ///
    /// The record-level [`TypeMismatch`] when the field is absent or its
    /// own conversion fails.
    pub fn next<T: FromValue>(&mut self, name: &str) -> Result<T, TypeMismatch> {
        let at_index = self.fields.get(self.index).filter(|(n, _)| n == name);
        self.index += 1;
        at_index
            .or_else(|| self.fields.iter().find(|(n, _)| n == name))
            .and_then(|(_, v)| T::from_value(v).ok())
            .ok_or_else(|| {
                TypeMismatch::new(R::data_type(), self.value.kind())
                    .with_detail(format!("field `{name}`"))
            })
    }
}
