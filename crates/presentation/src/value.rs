//! Dynamically-typed values exchanged between services.

use std::fmt;
use std::sync::Arc;

use crate::error::{TypeError, TypeErrorKind};
use crate::name::Name;
use crate::types::{DataType, StructNames, StructType, TypeKind, UnionType, VectorType};

/// A homogeneous sequence of values.
///
/// The element type is carried explicitly so that *empty* vectors still know
/// what they contain — required both for type checking and for the compact
/// codec. It is boxed: inline it would widen every [`Value`], scalars
/// included, by the size of a [`DataType`].
#[derive(Debug, Clone, PartialEq)]
pub struct VectorValue {
    elem_ty: Box<DataType>,
    items: Vec<Value>,
}

impl VectorValue {
    /// Creates a vector value, checking every element against `elem_ty`.
    ///
    /// # Errors
    ///
    /// Returns a [`TypeError`] locating the first non-conforming element.
    pub fn new(elem_ty: DataType, items: Vec<Value>) -> Result<Self, TypeError> {
        for (i, item) in items.iter().enumerate() {
            item.conforms_to(&elem_ty).map_err(|e| e.at_index(i))?;
        }
        Ok(VectorValue { elem_ty: Box::new(elem_ty), items })
    }

    /// Element type of the vector.
    pub fn elem_ty(&self) -> &DataType {
        &self.elem_ty
    }

    /// Elements in order.
    pub fn items(&self) -> &[Value] {
        &self.items
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// `true` if the vector has no elements.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Iterates over the elements.
    pub fn iter(&self) -> std::slice::Iter<'_, Value> {
        self.items.iter()
    }
}

impl<'a> IntoIterator for &'a VectorValue {
    type Item = &'a Value;
    type IntoIter = std::slice::Iter<'a, Value>;

    fn into_iter(self) -> Self::IntoIter {
        self.items.iter()
    }
}

/// An ordered collection of named values (a struct instance).
///
/// A struct value is made from its [`StructType`] only
/// ([`for_type`](Self::for_type)), so its names are that type's name
/// block, shared; the value itself holds only its field values, index by
/// index under the block's first [`len`](Self::len) names.
///
/// The optional `type_name` is documentation-only: it never travels on the
/// wire and is deliberately excluded from equality, so a decoded struct
/// compares equal to the one that was encoded.
#[derive(Clone)]
pub struct StructValue {
    /// `values.len() <= names.fields.len()`, always.
    names: Arc<StructNames>,
    values: Vec<Value>,
}

impl PartialEq for StructValue {
    fn eq(&self, other: &Self) -> bool {
        self.values == other.values
            && (self.shares_names(&other.names) || self.names() == other.names())
    }
}

impl fmt::Debug for StructValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("StructValue")
            .field("type_name", &self.type_name())
            .field("fields", &self.fields().collect::<Vec<_>>())
            .finish()
    }
}

impl StructValue {
    /// Creates the struct value of `ty` from its field values in
    /// declaration order.
    ///
    /// Field names (and the documentation type name) are the schema's own
    /// name block, shared: one reference-count bump for all of them,
    /// nothing to validate or allocate, since [`StructType::with_field`]
    /// already guarantees them valid and unique. One allocation: the value
    /// vector.
    ///
    /// Values are paired with fields up to the shorter of the two; the
    /// values themselves are not checked here. [`Value::conforms_to`]
    /// reports a short list as a missing field and a wrong value as a kind
    /// mismatch, as for any other struct value.
    pub fn for_type(ty: &StructType, values: impl IntoIterator<Item = Value>) -> Self {
        let declared = ty.fields().len();
        let mut held = Vec::with_capacity(declared);
        held.extend(values.into_iter().take(declared));
        StructValue { names: Arc::clone(ty.names()), values: held }
    }

    /// Documentation type name attached at construction, if any.
    pub fn type_name(&self) -> Option<&Name> {
        self.names.type_name.as_ref()
    }

    /// Field names in insertion order.
    pub fn names(&self) -> &[Name] {
        &self.names.fields[..self.values.len()]
    }

    /// Field values in insertion order, index by index under
    /// [`names`](Self::names).
    pub fn values(&self) -> &[Value] {
        &self.values
    }

    /// Fields in insertion order.
    pub fn fields(&self) -> impl ExactSizeIterator<Item = (&Name, &Value)> {
        self.names().iter().zip(&self.values)
    }

    /// The field values, writable in place, when this value is a whole
    /// value of `ty` in the schema-sharing form: it holds `ty`'s own name
    /// block and a value under every field. `None` for any other value —
    /// one made from an equal type's block, a short one, or one of another
    /// type.
    ///
    /// The names stay read-only, so whatever is written here, the value
    /// keeps `ty`'s field names in declaration order; the values are not
    /// checked ([`Value::conforms_to`] does that, as for any value).
    pub fn values_mut_for(&mut self, ty: &StructType) -> Option<&mut [Value]> {
        let whole = self.shares_names(ty.names()) && self.values.len() == ty.fields().len();
        whole.then_some(&mut self.values[..])
    }

    /// `true` when this value's names are the first [`len`](Self::len) of
    /// `block` because it holds that very allocation — no name compared.
    pub(crate) fn shares_names(&self, block: &Arc<StructNames>) -> bool {
        Arc::ptr_eq(&self.names, block)
    }

    fn position(&self, name: &str) -> Option<usize> {
        self.names().iter().position(|n| n == name)
    }

    /// Looks up a field by name.
    pub fn get(&self, name: &str) -> Option<&Value> {
        self.position(name).map(|i| &self.values[i])
    }

    /// Number of fields.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// `true` if the struct has no fields.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }
}

/// A union instance: discriminant + selected alternative.
#[derive(Debug, Clone, PartialEq)]
pub struct UnionValue {
    discriminant: u32,
    alternative: Name,
    value: Box<Value>,
}

impl UnionValue {
    /// Creates a union value selecting the alternative `ty` declares at
    /// index `discriminant`: the alternative's name is the schema's own
    /// [`Name`], cloned. The payload is not
    /// checked against the alternative's type. `None` when `ty` declares no
    /// such alternative.
    pub fn for_discriminant(
        ty: &UnionType,
        discriminant: u32,
        value: impl Into<Value>,
    ) -> Option<Self> {
        let alt = ty.alternatives().get(discriminant as usize)?;
        Some(UnionValue {
            discriminant,
            alternative: alt.name().clone(),
            value: Box::new(value.into()),
        })
    }

    /// Wire discriminant (declaration index of the alternative).
    pub fn discriminant(&self) -> u32 {
        self.discriminant
    }

    /// Name of the selected alternative.
    pub fn alternative(&self) -> &Name {
        &self.alternative
    }

    /// Payload carried by the selected alternative.
    pub fn value(&self) -> &Value {
        &self.value
    }
}

/// A dynamically-typed MAREA datum.
///
/// Values mirror [`DataType`] one-to-one; [`Value::conforms_to`] checks a
/// value against a schema and pinpoints mismatches.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Boolean.
    Bool(bool),
    /// Signed 8-bit integer.
    I8(i8),
    /// Signed 16-bit integer.
    I16(i16),
    /// Signed 32-bit integer.
    I32(i32),
    /// Signed 64-bit integer.
    I64(i64),
    /// Unsigned 8-bit integer.
    U8(u8),
    /// Unsigned 16-bit integer.
    U16(u16),
    /// Unsigned 32-bit integer.
    U32(u32),
    /// Unsigned 64-bit integer.
    U64(u64),
    /// IEEE-754 single-precision float.
    F32(f32),
    /// IEEE-754 double-precision float.
    F64(f64),
    /// Unicode scalar value.
    Char(char),
    /// UTF-8 string.
    Str(String),
    /// Raw byte blob.
    Bytes(Vec<u8>),
    /// Homogeneous sequence.
    Vector(VectorValue),
    /// Named fields.
    Struct(StructValue),
    /// Tagged alternative.
    Union(UnionValue),
}

impl Value {
    /// The coarse kind of this value.
    pub fn kind(&self) -> TypeKind {
        match self {
            Value::Bool(_) => TypeKind::Bool,
            Value::I8(_) => TypeKind::I8,
            Value::I16(_) => TypeKind::I16,
            Value::I32(_) => TypeKind::I32,
            Value::I64(_) => TypeKind::I64,
            Value::U8(_) => TypeKind::U8,
            Value::U16(_) => TypeKind::U16,
            Value::U32(_) => TypeKind::U32,
            Value::U64(_) => TypeKind::U64,
            Value::F32(_) => TypeKind::F32,
            Value::F64(_) => TypeKind::F64,
            Value::Char(_) => TypeKind::Char,
            Value::Str(_) => TypeKind::Str,
            Value::Bytes(_) => TypeKind::Bytes,
            Value::Vector(_) => TypeKind::Vector,
            Value::Struct(_) => TypeKind::Struct,
            Value::Union(_) => TypeKind::Union,
        }
    }

    /// Checks this value against `ty`, locating the first mismatch.
    ///
    /// A struct value that carries the schema's names, index by index —
    /// every value built by [`StructValue::for_type`], a decoder or
    /// [`record!`](crate::record), recognised by the name block it shares
    /// with the schema, and any other value whose names compare equal — is
    /// checked in one pass over the field types. Any other arrangement
    /// takes the diagnostic path, which names the duplicate, missing,
    /// unknown or out-of-order field.
    ///
    /// # Errors
    ///
    /// Returns a [`TypeError`] describing the first place where the value
    /// deviates from the schema: kind mismatches, missing/unknown/reordered
    /// struct fields, wrong fixed-vector lengths, or unknown union
    /// alternatives.
    pub fn conforms_to(&self, ty: &DataType) -> Result<(), TypeError> {
        self.conforms(ty, true)
    }

    /// [`conforms_to`](Self::conforms_to); `positional: false` runs the
    /// diagnostic struct check alone at every level — the reference the
    /// fast path is tested against.
    fn conforms(&self, ty: &DataType, positional: bool) -> Result<(), TypeError> {
        match (ty, self) {
            (DataType::Vector(vt), Value::Vector(vv)) => Self::check_vector(vt, vv, positional),
            (DataType::Struct(st), Value::Struct(sv)) => {
                if positional && Self::names_match(st, sv) {
                    return st.fields().iter().zip(sv.values()).try_for_each(|(def, v)| {
                        v.conforms(def.ty(), true).map_err(|e| e.in_field(def.name().as_str()))
                    });
                }
                Self::check_struct(st, sv, positional)
            }
            (DataType::Union(ut), Value::Union(uv)) => Self::check_union(ut, uv, positional),
            (expected, found) if expected.kind() == found.kind() => Ok(()),
            (expected, found) => Err(expected.kind_mismatch(found.kind())),
        }
    }

    /// `true` when `sv` carries exactly `st`'s field names in declaration
    /// order: it holds `st`'s own name block, or names that compare equal
    /// one by one. Schema names are unique, so such a value has no
    /// duplicate, missing, unknown or misplaced field: only the field
    /// values are left to check.
    fn names_match(st: &StructType, sv: &StructValue) -> bool {
        st.fields().len() == sv.len()
            && (sv.shares_names(st.names()) || *sv.names() == st.names().fields[..])
    }

    fn check_vector(vt: &VectorType, vv: &VectorValue, positional: bool) -> Result<(), TypeError> {
        if let Some(required) = vt.fixed_len() {
            if vv.len() != required {
                return Err(TypeError::new(TypeErrorKind::VectorLength {
                    expected: required,
                    found: vv.len(),
                }));
            }
        }
        if !vv.elem_ty().is_compatible_with(vt.elem()) {
            return Err(TypeError::new(TypeErrorKind::KindMismatch {
                expected: vt.elem().kind(),
                found: vv.elem_ty().kind(),
            }));
        }
        for (i, item) in vv.iter().enumerate() {
            item.conforms(vt.elem(), positional).map_err(|e| e.at_index(i))?;
        }
        Ok(())
    }

    fn check_struct(st: &StructType, sv: &StructValue, positional: bool) -> Result<(), TypeError> {
        // Detect duplicates first so the error is precise.
        for (i, name) in sv.names().iter().enumerate() {
            if sv.names()[..i].contains(name) {
                return Err(TypeError::new(TypeErrorKind::DuplicateField {
                    field: name.to_string(),
                }));
            }
        }
        for def in st.fields() {
            match sv.get(def.name().as_str()) {
                Some(v) => {
                    v.conforms(def.ty(), positional).map_err(|e| e.in_field(def.name().as_str()))?
                }
                None => {
                    return Err(TypeError::new(TypeErrorKind::MissingField {
                        field: def.name().to_string(),
                    }))
                }
            }
        }
        for name in sv.names() {
            if st.field(name.as_str()).is_none() {
                return Err(TypeError::new(TypeErrorKind::UnknownField {
                    field: name.to_string(),
                }));
            }
        }
        // Positional (compact) encoding requires declaration order.
        for (def, name) in st.fields().iter().zip(sv.names()) {
            if def.name() != name {
                return Err(TypeError::new(TypeErrorKind::FieldOrder { field: name.to_string() }));
            }
        }
        Ok(())
    }

    fn check_union(ut: &UnionType, uv: &UnionValue, positional: bool) -> Result<(), TypeError> {
        let alt = ut.alternative(uv.alternative().as_str()).ok_or_else(|| {
            TypeError::new(TypeErrorKind::UnknownAlternative {
                alternative: uv.alternative().to_string(),
            })
        })?;
        let expected = ut.discriminant(uv.alternative().as_str()).expect("alternative exists");
        if expected != uv.discriminant() {
            return Err(TypeError::new(TypeErrorKind::DiscriminantMismatch {
                found: uv.discriminant(),
                expected,
            }));
        }
        uv.value().conforms(alt.ty(), positional).map_err(|e| e.in_field(uv.alternative().as_str()))
    }

    /// Returns the value as a `u64` if it is any unsigned integer (widening)
    /// or a non-negative signed integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::U8(v) => Some(u64::from(*v)),
            Value::U16(v) => Some(u64::from(*v)),
            Value::U32(v) => Some(u64::from(*v)),
            Value::U64(v) => Some(*v),
            Value::I8(v) => u64::try_from(*v).ok(),
            Value::I16(v) => u64::try_from(*v).ok(),
            Value::I32(v) => u64::try_from(*v).ok(),
            Value::I64(v) => u64::try_from(*v).ok(),
            _ => None,
        }
    }

    /// Returns the string payload, if this is a `Str`.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Returns the byte payload, if this is a `Bytes`.
    pub fn as_bytes(&self) -> Option<&[u8]> {
        match self {
            Value::Bytes(b) => Some(b),
            _ => None,
        }
    }

    /// Returns the struct payload, if this is a `Struct`.
    pub fn as_struct(&self) -> Option<&StructValue> {
        match self {
            Value::Struct(s) => Some(s),
            _ => None,
        }
    }

    /// Size in bytes of a buffer that holds the value's compact encoding
    /// without growing: each scalar at its widest varint, a length prefix
    /// of up to 8 bytes per string, blob and container (paper §3,
    /// *resource management*).
    pub fn size_hint(&self) -> usize {
        match self {
            Value::Bool(_) | Value::I8(_) | Value::U8(_) => 1,
            Value::I16(_) | Value::U16(_) => 3,
            Value::F32(_) => 4,
            Value::I32(_) | Value::U32(_) | Value::Char(_) => 5,
            Value::F64(_) => 8,
            Value::I64(_) | Value::U64(_) => 10,
            Value::Str(s) => s.len() + 8,
            Value::Bytes(b) => b.len() + 8,
            Value::Vector(v) => v.iter().map(Value::size_hint).sum::<usize>() + 8,
            Value::Struct(s) => s.fields().map(|(n, v)| n.len() + v.size_hint()).sum::<usize>() + 8,
            Value::Union(u) => u.value().size_hint() + u.alternative().len() + 8,
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Bool(v) => write!(f, "{v}"),
            Value::I8(v) => write!(f, "{v}"),
            Value::I16(v) => write!(f, "{v}"),
            Value::I32(v) => write!(f, "{v}"),
            Value::I64(v) => write!(f, "{v}"),
            Value::U8(v) => write!(f, "{v}"),
            Value::U16(v) => write!(f, "{v}"),
            Value::U32(v) => write!(f, "{v}"),
            Value::U64(v) => write!(f, "{v}"),
            Value::F32(v) => write!(f, "{v}"),
            Value::F64(v) => write!(f, "{v}"),
            Value::Char(v) => write!(f, "{v:?}"),
            Value::Str(v) => write!(f, "{v:?}"),
            Value::Bytes(v) => write!(f, "bytes[{}]", v.len()),
            Value::Vector(v) => {
                write!(f, "[")?;
                for (i, item) in v.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{item}")?;
                }
                write!(f, "]")
            }
            Value::Struct(s) => {
                write!(f, "{{ ")?;
                for (i, (name, v)) in s.fields().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{name}: {v}")?;
                }
                write!(f, " }}")
            }
            Value::Union(u) => write!(f, "{}({})", u.alternative(), u.value()),
        }
    }
}

macro_rules! impl_from_scalar {
    ($($from:ty => $variant:ident),* $(,)?) => {
        $(
            impl From<$from> for Value {
                fn from(v: $from) -> Value {
                    Value::$variant(v)
                }
            }
        )*
    };
}

impl_from_scalar! {
    bool => Bool,
    i8 => I8,
    i16 => I16,
    i32 => I32,
    i64 => I64,
    u8 => U8,
    u16 => U16,
    u32 => U32,
    u64 => U64,
    f32 => F32,
    f64 => F64,
    char => Char,
    String => Str,
}

impl From<&str> for Value {
    fn from(v: &str) -> Value {
        Value::Str(v.to_owned())
    }
}

impl From<Vec<u8>> for Value {
    fn from(v: Vec<u8>) -> Value {
        Value::Bytes(v)
    }
}

impl From<&[u8]> for Value {
    fn from(v: &[u8]) -> Value {
        Value::Bytes(v.to_vec())
    }
}

impl From<StructValue> for Value {
    fn from(v: StructValue) -> Value {
        Value::Struct(v)
    }
}

impl From<VectorValue> for Value {
    fn from(v: VectorValue) -> Value {
        Value::Vector(v)
    }
}

impl From<UnionValue> for Value {
    fn from(v: UnionValue) -> Value {
        Value::Union(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn position_ty() -> DataType {
        DataType::Struct(
            StructType::new("Position")
                .with_field("lat", DataType::F64)
                .unwrap()
                .with_field("lon", DataType::F64)
                .unwrap()
                .with_field("alt", DataType::F32)
                .unwrap(),
        )
    }

    fn position_val() -> Value {
        let DataType::Struct(st) = position_ty() else { unreachable!() };
        Value::Struct(StructValue::for_type(&st, [41.3.into(), 2.1.into(), 120.0f32.into()]))
    }

    /// A struct value made from a schema of these fields, in this order:
    /// its names are not `position_ty()`'s, and need not be its fields.
    fn arranged(fields: Vec<(&str, DataType, Value)>) -> Value {
        let st = fields.iter().fold(StructType::new("Position"), |st, (name, ty, _)| {
            st.with_field(name, ty.clone()).unwrap()
        });
        Value::Struct(StructValue::for_type(&st, fields.into_iter().map(|(_, _, v)| v)))
    }

    #[test]
    fn conforming_struct_passes() {
        position_val().conforms_to(&position_ty()).unwrap();
    }

    #[test]
    fn missing_field_is_reported() {
        let v =
            arranged(vec![("lat", DataType::F64, 41.3.into()), ("lon", DataType::F64, 2.1.into())]);
        let err = v.conforms_to(&position_ty()).unwrap_err();
        assert_eq!(err.kind(), &TypeErrorKind::MissingField { field: "alt".into() });
    }

    #[test]
    fn unknown_field_is_reported() {
        let v = arranged(vec![
            ("lat", DataType::F64, 41.3.into()),
            ("lon", DataType::F64, 2.1.into()),
            ("alt", DataType::F32, 1.0f32.into()),
            ("extra", DataType::U8, 1u8.into()),
        ]);
        let err = v.conforms_to(&position_ty()).unwrap_err();
        assert_eq!(err.kind(), &TypeErrorKind::UnknownField { field: "extra".into() });
    }

    #[test]
    fn field_order_is_enforced() {
        let v = arranged(vec![
            ("lon", DataType::F64, 2.1.into()),
            ("lat", DataType::F64, 41.3.into()),
            ("alt", DataType::F32, 1.0f32.into()),
        ]);
        let err = v.conforms_to(&position_ty()).unwrap_err();
        assert!(matches!(err.kind(), TypeErrorKind::FieldOrder { .. }));
    }

    #[test]
    fn nested_error_locations() {
        let wp_ty = DataType::Vector(VectorType::of(position_ty()));
        // The second element's alt is of the wrong kind: `for_type` does
        // not check values, and the vector is put together unchecked.
        let DataType::Struct(st) = position_ty() else { unreachable!() };
        let bad = StructValue::for_type(&st, [41.3.into(), 2.1.into(), true.into()]);
        let items = vec![position_val(), Value::Struct(bad)];
        let vv = VectorValue { elem_ty: Box::new(position_ty()), items };
        let err = Value::Vector(vv).conforms_to(&wp_ty).unwrap_err();
        assert_eq!(err.location(), "[1].alt");
    }

    #[test]
    fn fixed_vector_length_checked() {
        let ty = DataType::Vector(VectorType::fixed(DataType::U8, 3));
        let ok = Value::Vector(
            VectorValue::new(DataType::U8, vec![1u8.into(), 2u8.into(), 3u8.into()]).unwrap(),
        );
        ok.conforms_to(&ty).unwrap();
        let short =
            Value::Vector(VectorValue::new(DataType::U8, vec![1u8.into(), 2u8.into()]).unwrap());
        let err = short.conforms_to(&ty).unwrap_err();
        assert_eq!(err.kind(), &TypeErrorKind::VectorLength { expected: 3, found: 2 });
    }

    #[test]
    fn empty_vector_checks_via_elem_ty() {
        let ty = DataType::Vector(VectorType::of(DataType::F64));
        let ok = Value::Vector(VectorValue::new(DataType::F64, Vec::new()).unwrap());
        ok.conforms_to(&ty).unwrap();
        let bad = Value::Vector(VectorValue::new(DataType::Bool, Vec::new()).unwrap());
        assert!(bad.conforms_to(&ty).is_err());
    }

    #[test]
    fn union_checks_discriminant_and_payload() {
        let ty = UnionType::new("Alarm")
            .with_alternative("engine", DataType::U8)
            .unwrap()
            .with_alternative("link_loss", DataType::U16)
            .unwrap();
        let dt = DataType::Union(ty.clone());

        let ok = Value::Union(UnionValue::for_discriminant(&ty, 1, 7u16).unwrap());
        ok.conforms_to(&dt).unwrap();

        let wrong_payload = Value::Union(UnionValue::for_discriminant(&ty, 1, true).unwrap());
        let err = wrong_payload.conforms_to(&dt).unwrap_err();
        assert_eq!(err.location(), "link_loss");

        let engine = Name::new("engine").unwrap();
        let bad_disc =
            UnionValue { discriminant: 5, alternative: engine, value: Box::new(1u8.into()) };
        let err = Value::Union(bad_disc).conforms_to(&dt).unwrap_err();
        assert!(matches!(err.kind(), TypeErrorKind::DiscriminantMismatch { .. }));
    }

    #[test]
    fn path_navigation() {
        let plan = StructType::new("Plan")
            .with_field("waypoints", DataType::Vector(VectorType::of(position_ty())))
            .unwrap()
            .with_field("name", DataType::Str)
            .unwrap();
        let waypoints = VectorValue::new(position_ty(), vec![position_val(), position_val()]);
        let wp = StructValue::for_type(&plan, [waypoints.unwrap().into(), "survey-A".into()]);
        let plan = Value::Struct(wp);
        let plan = plan.as_struct().unwrap();
        let Some(Value::Vector(waypoints)) = plan.get("waypoints") else { panic!("a vector") };
        let lat = waypoints.items()[1].as_struct().and_then(|p| p.get("lat"));
        assert_eq!(lat, Some(&Value::F64(41.3)));
        assert_eq!(plan.get("name").and_then(Value::as_str), Some("survey-A"));
        assert!(waypoints.items().get(9).is_none());
        assert!(plan.get("bogus").is_none());
    }

    #[test]
    fn union_path_navigation() {
        let ty = UnionType::new("Alarm").with_alternative("engine", DataType::U8).unwrap();
        let alarm = UnionValue::for_discriminant(&ty, 0, 3u8).unwrap();
        assert_eq!((alarm.alternative().as_str(), alarm.value().as_u64()), ("engine", Some(3)));
    }

    #[test]
    fn numeric_coercions() {
        assert_eq!(Value::from(300u16).as_u64(), Some(300));
        assert_eq!(Value::from(7i64).as_u64(), Some(7));
        assert_eq!(Value::from(-1i32).as_u64(), None);
        assert_eq!(Value::from(2.5f32).as_u64(), None);
    }

    #[test]
    fn vector_new_checks_type() {
        let err = VectorValue::new(DataType::U8, vec![1u8.into(), true.into()]).unwrap_err();
        assert_eq!(err.location(), "[1]");
    }

    #[test]
    fn size_hint_tracks_payload() {
        let small = Value::from(1u8);
        let big = Value::Bytes(vec![0; 1024]);
        assert!(big.size_hint() > small.size_hint());
        assert!(position_val().size_hint() > 20);
    }

    #[test]
    fn for_type_takes_names_from_the_schema() {
        let DataType::Struct(st) = position_ty() else { unreachable!() };
        let built = StructValue::for_type(&st, [41.3.into(), 2.1.into(), 120.0f32.into()]);
        assert!(built.shares_names(st.names()));
        let DataType::Struct(twin) = position_ty() else { unreachable!() };
        let of_twin = StructValue::for_type(&twin, built.values().iter().cloned());
        assert!(!of_twin.shares_names(st.names()));
        assert_eq!(built, of_twin, "equal names in another block: an equal value");
        assert_eq!(built.type_name(), st.name());
        Value::Struct(built).conforms_to(&position_ty()).unwrap();

        // Too few values: a struct `conforms_to` reports as incomplete.
        let short = StructValue::for_type(&st, [41.3.into()]);
        assert_eq!((short.len(), short.names().len(), short.fields().len()), (1, 1, 1));
        let err = Value::Struct(short).conforms_to(&position_ty()).unwrap_err();
        assert_eq!(err.kind(), &TypeErrorKind::MissingField { field: "lon".into() });

        // Too many: the surplus has no name to go under.
        let long = StructValue::for_type(&st, (0..5).map(|i| Value::F64(f64::from(i))));
        assert_eq!(long.len(), 3);
    }

    #[test]
    fn values_mut_for_needs_the_schema_s_block_and_every_field() {
        let DataType::Struct(st) = position_ty() else { unreachable!() };
        let mut shared = StructValue::for_type(&st, [1.0.into(), 2.0.into(), 3.0f32.into()]);
        shared.values_mut_for(&st).unwrap()[1] = Value::F64(9.0);
        assert_eq!(shared.get("lon"), Some(&Value::F64(9.0)));
        assert!(shared.shares_names(st.names()), "writing values leaves the names shared");

        let DataType::Struct(twin) = position_ty() else { unreachable!() };
        assert!(shared.values_mut_for(&twin).is_none(), "an equal schema is another block");
        let mut short = StructValue::for_type(&st, [1.0.into()]);
        assert!(short.values_mut_for(&st).is_none(), "a short value is not a whole one");
    }

    #[test]
    fn with_field_after_values_does_not_rename_them() {
        let DataType::Struct(st) = position_ty() else { unreachable!() };
        let before = StructValue::for_type(&st, [1.0.into(), 2.0.into(), 3.0f32.into()]);
        let wider = st.clone().with_field("speed", DataType::F64).unwrap();
        assert_eq!(st.fields().len(), 3, "a clone of the type is not extended either");
        assert_eq!(before.names().len(), 3);
        assert!(before.shares_names(st.names()) && !before.shares_names(wider.names()));

        let after = StructValue::for_type(&wider, (0..4).map(|i| Value::F64(f64::from(i))));
        assert_eq!(after.names().last().map(Name::as_str), Some("speed"));
        let err = Value::Struct(before).conforms_to(&DataType::Struct(wider)).unwrap_err();
        assert_eq!(err.kind(), &TypeErrorKind::MissingField { field: "speed".into() });
    }

    /// `Struct`, `Vector` and `Union` set the size: each is 32 bytes of
    /// payload (a name-block handle or boxed element type beside one
    /// `Vec<Value>`; a discriminant, a `Name` and a box) plus the tag.
    /// `Str`/`Bytes` are 24. A composite variant that holds more than a
    /// handle and a vector inline widens every scalar in every sample.
    #[test]
    fn value_is_forty_bytes() {
        assert!(std::mem::size_of::<Value>() <= 40, "{}", std::mem::size_of::<Value>());
    }

    #[test]
    fn for_discriminant_takes_the_alternative_from_the_schema() {
        let ty = UnionType::new("Alarm")
            .with_alternative("engine", DataType::U8)
            .unwrap()
            .with_alternative("link_loss", DataType::U16)
            .unwrap();
        let built = UnionValue::for_discriminant(&ty, 1, 7u16).unwrap();
        assert_eq!(built.alternative(), ty.alternatives()[1].name());
        assert_eq!((built.discriminant(), built.value()), (1, &Value::U16(7)));
        assert!(UnionValue::for_discriminant(&ty, 2, 7u16).is_none());
    }

    #[test]
    fn display_renders_compactly() {
        let v = position_val();
        let s = v.to_string();
        assert!(s.contains("lat: 41.3"), "{s}");
        assert_eq!(Value::Bytes(vec![1, 2, 3]).to_string(), "bytes[3]");
    }

    /// The positional fast path of `conforms_to` against the diagnostic
    /// path run alone: same verdict, same `TypeError`, on conforming values
    /// and on every kind of violation, at any depth.
    #[cfg(feature = "testkit")]
    mod fast_path {
        use proptest::prelude::*;

        use super::super::*;
        use crate::testkit::{arb_typed_value, shares_a_block, unshared};

        fn other_kind(v: &Value) -> Value {
            if matches!(v, Value::Bool(_)) {
                Value::U8(0)
            } else {
                Value::Bool(true)
            }
        }

        /// Rewrites `v` somewhere along a `dice`-steered descent: a
        /// duplicate, missing, unknown, renamed or reordered field, a value
        /// of the wrong kind, a vector of another length or element type,
        /// a wrong discriminant or an unknown alternative.
        fn mutate(v: &mut Value, dice: &mut impl Iterator<Item = usize>) {
            let (Some(choice), Some(pick)) = (dice.next(), dice.next()) else { return };
            match v {
                Value::Struct(sv) if !sv.is_empty() => {
                    let n = sv.len();
                    let i = pick % n;
                    match choice % 7 {
                        0 => mutate(&mut sv.values[i], dice),
                        1 => sv.values[i] = other_kind(&sv.values[i]),
                        // The rest change names: on a copy of a shared block.
                        edit => {
                            let names = &mut Arc::make_mut(&mut sv.names).fields;
                            let values = &mut sv.values;
                            match edit {
                                2 => {
                                    names.push(names[i].clone());
                                    values.push(values[i].clone());
                                }
                                3 => {
                                    names.remove(i);
                                    values.remove(i);
                                }
                                4 => {
                                    names.push(Name::new("zz-unknown").unwrap());
                                    values.push(Value::U8(1));
                                }
                                5 => {
                                    names.swap(i, (i + 1) % n);
                                    values.swap(i, (i + 1) % n);
                                }
                                _ => names[i] = Name::new("zz-renamed").unwrap(),
                            }
                        }
                    }
                }
                Value::Vector(vv) => match choice % 5 {
                    0 if !vv.items.is_empty() => {
                        let i = pick % vv.items.len();
                        mutate(&mut vv.items[i], dice)
                    }
                    1 if !vv.items.is_empty() => vv.items.push(vv.items[0].clone()),
                    2 => drop(vv.items.pop()),
                    3 if !vv.items.is_empty() => {
                        let i = pick % vv.items.len();
                        vv.items[i] = other_kind(&vv.items[i]);
                    }
                    _ => *vv.elem_ty = DataType::Char,
                },
                Value::Union(uv) => match choice % 3 {
                    0 => mutate(&mut uv.value, dice),
                    1 => uv.discriminant += 1,
                    _ => uv.alternative = Name::new("zz-unknown").unwrap(),
                },
                other => *other = other_kind(other),
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(512))]

            #[test]
            fn agrees_with_the_diagnostic_path(
                (ty, value) in arb_typed_value(3),
                dice in proptest::collection::vec(0usize..64, 0..10),
            ) {
                // Both forms of one value: sharing the schema's name blocks
                // (as generated), and made from equal types of their own.
                let (mut shared, mut rebuilt) = (value.clone(), unshared(&ty, &value));
                prop_assert!(!shares_a_block(&ty, &rebuilt));
                prop_assert_eq!(&shared, &rebuilt);
                for form in [&shared, &rebuilt] {
                    prop_assert_eq!(form.conforms(&ty, true), Ok(()));
                    prop_assert_eq!(form.conforms(&ty, false), Ok(()));
                }

                mutate(&mut shared, &mut dice.iter().copied());
                mutate(&mut rebuilt, &mut dice.into_iter());
                prop_assert_eq!(&shared, &rebuilt);
                let reference = shared.conforms(&ty, false);
                prop_assert_eq!(shared.conforms(&ty, true), reference.clone());
                prop_assert_eq!(rebuilt.conforms(&ty, true), reference.clone());
                prop_assert_eq!(rebuilt.conforms(&ty, false), reference);
            }
        }
    }
}
