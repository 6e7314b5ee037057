//! The C-like schema language (paper §4.1).
//!
//! A [`DataType`] describes the shape of the data a service publishes or
//! accepts: basic scalar types, character strings, raw byte blobs and the
//! three composition mechanisms of the paper — vectors (fixed or variable
//! length), structs (ordered named fields) and unions (tagged alternatives).

use std::fmt;
use std::sync::Arc;

use crate::error::{InvalidNameError, TypeError, TypeErrorKind};
use crate::name::Name;

/// Coarse classification of a type or value, used in error reporting and by
/// the self-describing codec's wire tags.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[allow(missing_docs, reason = "variants mirror DataType one-to-one")]
pub enum TypeKind {
    Bool,
    I8,
    I16,
    I32,
    I64,
    U8,
    U16,
    U32,
    U64,
    F32,
    F64,
    Char,
    Str,
    Bytes,
    Vector,
    Struct,
    Union,
}

impl TypeKind {
    /// All kinds, in wire-tag order. The discriminant of each kind in this
    /// slice is stable and is what the self-describing codec writes.
    pub const ALL: [TypeKind; 17] = [
        TypeKind::Bool,
        TypeKind::I8,
        TypeKind::I16,
        TypeKind::I32,
        TypeKind::I64,
        TypeKind::U8,
        TypeKind::U16,
        TypeKind::U32,
        TypeKind::U64,
        TypeKind::F32,
        TypeKind::F64,
        TypeKind::Char,
        TypeKind::Str,
        TypeKind::Bytes,
        TypeKind::Vector,
        TypeKind::Struct,
        TypeKind::Union,
    ];

    /// Stable wire tag for this kind.
    pub fn wire_tag(self) -> u8 {
        Self::ALL.iter().position(|k| *k == self).expect("kind present in ALL") as u8
    }

    /// Inverse of [`TypeKind::wire_tag`].
    pub fn from_wire_tag(tag: u8) -> Option<TypeKind> {
        Self::ALL.get(tag as usize).copied()
    }

    /// `true` for scalar kinds (everything except vector/struct/union).
    pub fn is_scalar(self) -> bool {
        !matches!(self, TypeKind::Vector | TypeKind::Struct | TypeKind::Union)
    }
}

impl fmt::Display for TypeKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            TypeKind::Bool => "bool",
            TypeKind::I8 => "i8",
            TypeKind::I16 => "i16",
            TypeKind::I32 => "i32",
            TypeKind::I64 => "i64",
            TypeKind::U8 => "u8",
            TypeKind::U16 => "u16",
            TypeKind::U32 => "u32",
            TypeKind::U64 => "u64",
            TypeKind::F32 => "f32",
            TypeKind::F64 => "f64",
            TypeKind::Char => "char",
            TypeKind::Str => "str",
            TypeKind::Bytes => "bytes",
            TypeKind::Vector => "vector",
            TypeKind::Struct => "struct",
            TypeKind::Union => "union",
        };
        f.write_str(s)
    }
}

/// A named field of a [`StructType`] or alternative of a [`UnionType`].
#[derive(Debug, Clone, PartialEq)]
pub struct FieldDef {
    name: Name,
    ty: DataType,
}

impl FieldDef {
    /// Creates a field definition.
    ///
    /// # Errors
    ///
    /// Returns [`InvalidNameError`] if `name` is not a valid [`Name`].
    pub fn new(name: impl AsRef<str>, ty: DataType) -> Result<Self, InvalidNameError> {
        Ok(FieldDef { name: Name::new(name)?, ty })
    }

    /// Field name.
    pub fn name(&self) -> &Name {
        &self.name
    }

    /// Field type.
    pub fn ty(&self) -> &DataType {
        &self.ty
    }
}

/// A vector (sequence) type: element type plus optional fixed length.
///
/// `Vector(F64, Some(3))` models a C `double[3]`; `Vector(U8, None)` a
/// variable-length byte sequence.
#[derive(Debug, Clone, PartialEq)]
pub struct VectorType {
    elem: Box<DataType>,
    len: Option<usize>,
}

impl VectorType {
    /// Variable-length vector of `elem`.
    pub fn of(elem: DataType) -> Self {
        VectorType { elem: Box::new(elem), len: None }
    }

    /// Fixed-length vector of exactly `len` elements of `elem`.
    pub fn fixed(elem: DataType, len: usize) -> Self {
        VectorType { elem: Box::new(elem), len: Some(len) }
    }

    /// Element type.
    pub fn elem(&self) -> &DataType {
        &self.elem
    }

    /// Required length, if this is a fixed-length vector.
    pub fn fixed_len(&self) -> Option<usize> {
        self.len
    }
}

/// The names of a struct: its documentation type name and its field
/// names in declaration order.
///
/// A [`StructType`] builds one block and every value made from that type
/// ([`StructValue::for_type`](crate::StructValue::for_type), `record!`,
/// the compact decoder) holds the same allocation, so two parties that
/// share a block agree on every name by comparing one pointer. A block
/// that is shared is never written: [`StructType::with_field`] extends it
/// through [`Arc::make_mut`], which copies it first unless the type is its
/// only holder.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct StructNames {
    pub(crate) type_name: Option<Name>,
    pub(crate) fields: Vec<Name>,
}

/// An ordered sequence of named, typed fields.
///
/// Field order is significant: the compact codec encodes structs
/// positionally, so both ends must agree on the declaration order. Field
/// names are unique.
#[derive(Debug, Clone, PartialEq)]
pub struct StructType {
    /// Type name and field names; `names.fields[i] == fields[i].name()`.
    names: Arc<StructNames>,
    fields: Vec<FieldDef>,
}

impl StructType {
    /// Creates an empty struct type with the given (non-wire, documentation)
    /// name.
    ///
    /// # Panics
    ///
    /// Panics if `name` is not a valid [`Name`]; use
    /// [`StructType::anonymous`] + [`StructType::with_field`] with runtime
    /// names if the name is not a literal.
    pub fn new(name: &str) -> Self {
        let name = Name::new(name).expect("struct type name must be a valid name literal");
        StructType {
            names: Arc::new(StructNames { type_name: Some(name), fields: Vec::new() }),
            fields: Vec::new(),
        }
    }

    /// Creates an empty anonymous struct type.
    pub fn anonymous() -> Self {
        StructType { names: Arc::default(), fields: Vec::new() }
    }

    /// Appends a field, consuming and returning the type (builder style).
    /// Values already made from the type (or from a clone of it) keep the
    /// names they have.
    ///
    /// # Errors
    ///
    /// Returns [`InvalidNameError`] if `name` is invalid. Duplicate field
    /// names are rejected with the same error type.
    pub fn with_field(mut self, name: &str, ty: DataType) -> Result<Self, InvalidNameError> {
        let def = FieldDef::new(name, ty)?;
        if self.field(def.name().as_str()).is_some() {
            return Err(InvalidNameError {
                offending: name.to_owned(),
                reason: "duplicate field name in struct type",
            });
        }
        Arc::make_mut(&mut self.names).fields.push(def.name().clone());
        self.fields.push(def);
        Ok(self)
    }

    /// Documentation name of the struct, if any.
    pub fn name(&self) -> Option<&Name> {
        self.names.type_name.as_ref()
    }

    /// The name block values of this type share.
    pub(crate) fn names(&self) -> &Arc<StructNames> {
        &self.names
    }

    /// Fields in declaration order.
    pub fn fields(&self) -> &[FieldDef] {
        &self.fields
    }

    /// Looks up a field by name.
    pub fn field(&self, name: &str) -> Option<&FieldDef> {
        self.fields.iter().find(|f| f.name() == name)
    }
}

/// A tagged union: exactly one of the declared alternatives is present.
#[derive(Debug, Clone, PartialEq)]
pub struct UnionType {
    name: Option<Name>,
    alternatives: Vec<FieldDef>,
}

impl UnionType {
    /// Creates an empty union type with a documentation name.
    ///
    /// # Panics
    ///
    /// Panics if `name` is not a valid [`Name`] literal.
    pub fn new(name: &str) -> Self {
        UnionType {
            name: Some(Name::new(name).expect("union type name must be a valid name literal")),
            alternatives: Vec::new(),
        }
    }

    /// Creates an empty anonymous union type.
    pub fn anonymous() -> Self {
        UnionType { name: None, alternatives: Vec::new() }
    }

    /// Appends an alternative (builder style).
    ///
    /// # Errors
    ///
    /// Returns [`InvalidNameError`] on invalid or duplicate alternative
    /// names.
    pub fn with_alternative(mut self, name: &str, ty: DataType) -> Result<Self, InvalidNameError> {
        let def = FieldDef::new(name, ty)?;
        if self.alternative(def.name().as_str()).is_some() {
            return Err(InvalidNameError {
                offending: name.to_owned(),
                reason: "duplicate alternative name in union type",
            });
        }
        self.alternatives.push(def);
        Ok(self)
    }

    /// Documentation name of the union, if any.
    pub fn name(&self) -> Option<&Name> {
        self.name.as_ref()
    }

    /// Alternatives in declaration order. The index of an alternative is its
    /// wire discriminant.
    pub fn alternatives(&self) -> &[FieldDef] {
        &self.alternatives
    }

    /// Looks up an alternative by name.
    pub fn alternative(&self, name: &str) -> Option<&FieldDef> {
        self.alternatives.iter().find(|f| f.name() == name)
    }

    /// Discriminant (declaration index) of an alternative.
    pub fn discriminant(&self, name: &str) -> Option<u32> {
        self.alternatives.iter().position(|f| f.name() == name).map(|i| i as u32)
    }
}

/// A MAREA data type: the schema of a variable, event payload, function
/// parameter or metadata record.
///
/// # Examples
///
/// ```
/// use marea_presentation::{DataType, StructType, VectorType};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// // struct Waypoint { lat: f64, lon: f64, actions: vector<u8> }
/// let waypoint = DataType::Struct(
///     StructType::new("Waypoint")
///         .with_field("lat", DataType::F64)?
///         .with_field("lon", DataType::F64)?
///         .with_field("actions", DataType::Vector(VectorType::of(DataType::U8)))?,
/// );
/// assert_eq!(waypoint.kind().to_string(), "struct");
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub enum DataType {
    /// Boolean.
    Bool,
    /// Signed 8-bit integer.
    I8,
    /// Signed 16-bit integer.
    I16,
    /// Signed 32-bit integer.
    I32,
    /// Signed 64-bit integer.
    I64,
    /// Unsigned 8-bit integer.
    U8,
    /// Unsigned 16-bit integer.
    U16,
    /// Unsigned 32-bit integer.
    U32,
    /// Unsigned 64-bit integer.
    U64,
    /// IEEE-754 single-precision float.
    F32,
    /// IEEE-754 double-precision float.
    F64,
    /// Unicode scalar value.
    Char,
    /// UTF-8 character string.
    Str,
    /// Raw byte blob (images, compressed chunks, opaque payloads).
    Bytes,
    /// Sequence of homogeneous elements.
    Vector(VectorType),
    /// Ordered named fields.
    Struct(StructType),
    /// Tagged alternative.
    Union(UnionType),
}

impl DataType {
    /// The coarse kind of this type.
    pub fn kind(&self) -> TypeKind {
        match self {
            DataType::Bool => TypeKind::Bool,
            DataType::I8 => TypeKind::I8,
            DataType::I16 => TypeKind::I16,
            DataType::I32 => TypeKind::I32,
            DataType::I64 => TypeKind::I64,
            DataType::U8 => TypeKind::U8,
            DataType::U16 => TypeKind::U16,
            DataType::U32 => TypeKind::U32,
            DataType::U64 => TypeKind::U64,
            DataType::F32 => TypeKind::F32,
            DataType::F64 => TypeKind::F64,
            DataType::Char => TypeKind::Char,
            DataType::Str => TypeKind::Str,
            DataType::Bytes => TypeKind::Bytes,
            DataType::Vector(_) => TypeKind::Vector,
            DataType::Struct(_) => TypeKind::Struct,
            DataType::Union(_) => TypeKind::Union,
        }
    }

    /// `true` if this is a scalar (non-composite) type.
    pub fn is_scalar(&self) -> bool {
        self.kind().is_scalar()
    }

    /// Nesting depth of the type: scalars are 1, composites are one more
    /// than their deepest component. Useful for enforcing the resource
    /// limits a service container imposes on low-end nodes.
    pub fn depth(&self) -> usize {
        match self {
            DataType::Vector(v) => 1 + v.elem().depth(),
            DataType::Struct(s) => 1 + s.fields().iter().map(|f| f.ty().depth()).max().unwrap_or(0),
            DataType::Union(u) => {
                1 + u.alternatives().iter().map(|f| f.ty().depth()).max().unwrap_or(0)
            }
            _ => 1,
        }
    }

    /// A quick structural-compatibility check used by the directory when a
    /// subscriber's expected type must match a publisher's declared type.
    ///
    /// Two types are compatible when they have the same kind and their
    /// components are recursively compatible; struct/union *type names* are
    /// ignored (structural typing), but field names, field order and fixed
    /// vector lengths must match.
    pub fn is_compatible_with(&self, other: &DataType) -> bool {
        match (self, other) {
            (DataType::Vector(a), DataType::Vector(b)) => {
                a.fixed_len() == b.fixed_len() && a.elem().is_compatible_with(b.elem())
            }
            (DataType::Struct(a), DataType::Struct(b)) => {
                a.fields().len() == b.fields().len()
                    && a.fields()
                        .iter()
                        .zip(b.fields())
                        .all(|(x, y)| x.name() == y.name() && x.ty().is_compatible_with(y.ty()))
            }
            (DataType::Union(a), DataType::Union(b)) => {
                a.alternatives().len() == b.alternatives().len()
                    && a.alternatives()
                        .iter()
                        .zip(b.alternatives())
                        .all(|(x, y)| x.name() == y.name() && x.ty().is_compatible_with(y.ty()))
            }
            (a, b) => a.kind() == b.kind(),
        }
    }

    pub(crate) fn kind_mismatch(&self, found: TypeKind) -> TypeError {
        TypeError::new(TypeErrorKind::KindMismatch { expected: self.kind(), found })
    }
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DataType::Vector(v) => match v.fixed_len() {
                Some(n) => write!(f, "vector<{}, {n}>", v.elem()),
                None => write!(f, "vector<{}>", v.elem()),
            },
            DataType::Struct(s) => {
                match s.name() {
                    Some(n) => write!(f, "struct {n} {{ ")?,
                    None => write!(f, "struct {{ ")?,
                }
                for (i, field) in s.fields().iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{}: {}", field.name(), field.ty())?;
                }
                write!(f, " }}")
            }
            DataType::Union(u) => {
                match u.name() {
                    Some(n) => write!(f, "union {n} {{ ")?,
                    None => write!(f, "union {{ ")?,
                }
                for (i, alt) in u.alternatives().iter().enumerate() {
                    if i > 0 {
                        write!(f, " | ")?;
                    }
                    write!(f, "{}: {}", alt.name(), alt.ty())?;
                }
                write!(f, " }}")
            }
            scalar => write!(f, "{}", scalar.kind()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn position() -> DataType {
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

    #[test]
    fn wire_tags_roundtrip() {
        for kind in TypeKind::ALL {
            assert_eq!(TypeKind::from_wire_tag(kind.wire_tag()), Some(kind));
        }
        assert_eq!(TypeKind::from_wire_tag(200), None);
    }

    #[test]
    fn struct_rejects_duplicate_fields() {
        let err = StructType::new("S")
            .with_field("a", DataType::Bool)
            .unwrap()
            .with_field("a", DataType::I32);
        assert!(err.is_err());
    }

    #[test]
    fn union_discriminants_follow_declaration_order() {
        let u = UnionType::new("Alarm")
            .with_alternative("engine", DataType::U8)
            .unwrap()
            .with_alternative("link_loss", DataType::U16)
            .unwrap();
        assert_eq!(u.discriminant("engine"), Some(0));
        assert_eq!(u.discriminant("link_loss"), Some(1));
        assert_eq!(u.discriminant("absent"), None);
    }

    #[test]
    fn depth_counts_nesting() {
        assert_eq!(DataType::Bool.depth(), 1);
        assert_eq!(position().depth(), 2);
        let nested = DataType::Vector(VectorType::of(position()));
        assert_eq!(nested.depth(), 3);
    }

    #[test]
    fn compatibility_is_structural() {
        let a = position();
        let b = DataType::Struct(
            StructType::new("Renamed") // different name, same structure
                .with_field("lat", DataType::F64)
                .unwrap()
                .with_field("lon", DataType::F64)
                .unwrap()
                .with_field("alt", DataType::F32)
                .unwrap(),
        );
        assert!(a.is_compatible_with(&b));

        let reordered = DataType::Struct(
            StructType::new("Position")
                .with_field("lon", DataType::F64)
                .unwrap()
                .with_field("lat", DataType::F64)
                .unwrap()
                .with_field("alt", DataType::F32)
                .unwrap(),
        );
        assert!(!a.is_compatible_with(&reordered), "field order matters on the wire");
    }

    #[test]
    fn fixed_vector_lengths_must_match() {
        let a = DataType::Vector(VectorType::fixed(DataType::F32, 3));
        let b = DataType::Vector(VectorType::fixed(DataType::F32, 4));
        let c = DataType::Vector(VectorType::of(DataType::F32));
        assert!(!a.is_compatible_with(&b));
        assert!(!a.is_compatible_with(&c));
        assert!(a.is_compatible_with(&a.clone()));
    }

    #[test]
    fn display_is_readable() {
        assert_eq!(position().to_string(), "struct Position { lat: f64, lon: f64, alt: f32 }");
        let v = DataType::Vector(VectorType::fixed(DataType::U8, 16));
        assert_eq!(v.to_string(), "vector<u8, 16>");
    }
}
