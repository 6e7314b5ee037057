//! Proptest strategies for generating schema/value pairs.
//!
//! Enabled with the `testkit` feature; used by the encoding and protocol
//! crates to property-test codec roundtrips against *arbitrary conforming*
//! values, not just hand-picked fixtures.

use proptest::prelude::*;

use crate::types::{DataType, StructType, UnionType, VectorType};
use crate::value::{StructBuilder, StructValue, UnionValue, Value, VectorValue};

/// Strategy for valid MAREA names (short, lowercase).
pub fn arb_name() -> impl Strategy<Value = String> {
    "[a-z][a-z0-9_]{0,8}".prop_map(|s| s)
}

/// Strategy for scalar data types.
pub fn arb_scalar_type() -> impl Strategy<Value = DataType> {
    prop_oneof![
        Just(DataType::Bool),
        Just(DataType::I8),
        Just(DataType::I16),
        Just(DataType::I32),
        Just(DataType::I64),
        Just(DataType::U8),
        Just(DataType::U16),
        Just(DataType::U32),
        Just(DataType::U64),
        Just(DataType::F32),
        Just(DataType::F64),
        Just(DataType::Char),
        Just(DataType::Str),
        Just(DataType::Bytes),
    ]
}

/// Strategy for arbitrary data types up to `depth` levels of nesting.
pub fn arb_data_type(depth: u32) -> BoxedStrategy<DataType> {
    arb_scalar_type()
        .prop_recursive(depth, 24, 4, |inner| {
            prop_oneof![
                // Variable-length vectors.
                inner.clone().prop_map(|t| DataType::Vector(VectorType::of(t))),
                // Fixed-length vectors.
                (inner.clone(), 0usize..4)
                    .prop_map(|(t, n)| { DataType::Vector(VectorType::fixed(t, n)) }),
                // Structs with 1..4 uniquely named fields.
                (
                    proptest::collection::btree_set(arb_name(), 1..4),
                    proptest::collection::vec(inner.clone(), 4)
                )
                    .prop_map(|(names, types)| {
                        let mut st = StructType::anonymous();
                        for (name, ty) in names.into_iter().zip(types) {
                            st = st.with_field(&name, ty).expect("unique valid names");
                        }
                        DataType::Struct(st)
                    }),
                // Unions with 1..4 uniquely named alternatives.
                (
                    proptest::collection::btree_set(arb_name(), 1..4),
                    proptest::collection::vec(inner, 4)
                )
                    .prop_map(|(names, types)| {
                        let mut ut = UnionType::anonymous();
                        for (name, ty) in names.into_iter().zip(types) {
                            ut = ut.with_alternative(&name, ty).expect("unique valid names");
                        }
                        DataType::Union(ut)
                    }),
            ]
        })
        .boxed()
}

/// Strategy for values conforming to a given data type. Struct values
/// share their schema's names ([`StructValue::for_type`]), as decoded and
/// `record!` values do; [`by_name`] gives the other form.
pub fn arb_value_of(ty: &DataType) -> BoxedStrategy<Value> {
    match ty {
        DataType::Bool => any::<bool>().prop_map(Value::Bool).boxed(),
        DataType::I8 => any::<i8>().prop_map(Value::I8).boxed(),
        DataType::I16 => any::<i16>().prop_map(Value::I16).boxed(),
        DataType::I32 => any::<i32>().prop_map(Value::I32).boxed(),
        DataType::I64 => any::<i64>().prop_map(Value::I64).boxed(),
        DataType::U8 => any::<u8>().prop_map(Value::U8).boxed(),
        DataType::U16 => any::<u16>().prop_map(Value::U16).boxed(),
        DataType::U32 => any::<u32>().prop_map(Value::U32).boxed(),
        DataType::U64 => any::<u64>().prop_map(Value::U64).boxed(),
        DataType::F32 => any::<f32>().prop_map(Value::F32).boxed(),
        DataType::F64 => any::<f64>().prop_map(Value::F64).boxed(),
        DataType::Char => any::<char>().prop_map(Value::Char).boxed(),
        DataType::Str => any::<String>().prop_map(Value::Str).boxed(),
        DataType::Bytes => {
            proptest::collection::vec(any::<u8>(), 0..64).prop_map(Value::Bytes).boxed()
        }
        DataType::Vector(vt) => {
            let elem_ty = vt.elem().clone();
            let range = match vt.fixed_len() {
                Some(n) => n..=n,
                None => 0..=3,
            };
            proptest::collection::vec(arb_value_of(vt.elem()), range)
                .prop_map(move |items| {
                    Value::Vector(
                        VectorValue::new(elem_ty.clone(), items).expect("elements conform"),
                    )
                })
                .boxed()
        }
        DataType::Struct(st) => {
            let st = st.clone();
            let field_strategies: Vec<BoxedStrategy<Value>> =
                st.fields().iter().map(|f| arb_value_of(f.ty())).collect();
            field_strategies
                .prop_map(move |values| Value::Struct(StructValue::for_type(&st, values)))
                .boxed()
        }
        DataType::Union(ut) => {
            let alts = ut.alternatives().to_vec();
            assert!(!alts.is_empty(), "generated unions always have alternatives");
            (0..alts.len())
                .prop_flat_map(move |i| {
                    let alt = alts[i].clone();
                    arb_value_of(alt.ty()).prop_map(move |v| {
                        Value::Union(
                            UnionValue::new(i as u32, alt.name().as_str(), v)
                                .expect("valid alternative name"),
                        )
                    })
                })
                .boxed()
        }
    }
}

/// Strategy producing a `(type, conforming value)` pair.
pub fn arb_typed_value(depth: u32) -> BoxedStrategy<(DataType, Value)> {
    arb_data_type(depth)
        .prop_flat_map(|ty| {
            let value = arb_value_of(&ty);
            (Just(ty), value)
        })
        .boxed()
}

/// `value` with every struct in it rebuilt field by field through
/// [`StructBuilder`]: equal to `value`, but no struct shares a name block
/// with a schema.
pub fn by_name(value: &Value) -> Value {
    match value {
        Value::Struct(sv) => sv
            .fields()
            .fold(StructBuilder::anonymous(), |b, (name, v)| b.field(name.as_str(), by_name(v)))
            .build()
            .expect("names of a struct value are valid and unique"),
        Value::Vector(vv) => Value::Vector(
            VectorValue::new(vv.elem_ty().clone(), vv.iter().map(by_name).collect())
                .expect("rebuilt elements conform as the originals did"),
        ),
        Value::Union(uv) => Value::Union(
            UnionValue::new(uv.discriminant(), uv.alternative(), by_name(uv.value()))
                .expect("alternative of a union value is a valid name"),
        ),
        scalar => scalar.clone(),
    }
}
