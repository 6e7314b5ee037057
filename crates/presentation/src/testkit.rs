//! Proptest strategies for generating schema/value pairs.
//!
//! Enabled with the `testkit` feature; used by the encoding and protocol
//! crates to property-test codec roundtrips against *arbitrary conforming*
//! values, not just hand-picked fixtures.

use proptest::prelude::*;

use crate::types::{DataType, StructType, UnionType, VectorType};
use crate::value::{StructValue, UnionValue, Value, VectorValue};

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
/// share their schema's names ([`StructValue::for_type`]), as compact
/// decoded and `record!` values do; [`unshared`] gives the other form.
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
            let ut = ut.clone();
            assert!(!ut.alternatives().is_empty(), "generated unions always have alternatives");
            (0..ut.alternatives().len() as u32)
                .prop_flat_map(move |i| {
                    let ut = ut.clone();
                    arb_value_of(ut.alternatives()[i as usize].ty()).prop_map(move |v| {
                        let uv = UnionValue::for_discriminant(&ut, i, v);
                        Value::Union(uv.expect("a declared alternative"))
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

/// `value`, a value of `ty`, in the form a self-describing decode gives:
/// every struct type in `ty` rebuilt as an equal type with a name block of
/// its own, and every struct in `value` made from its rebuilt type through
/// [`StructValue::for_type`]. Equal to `value`, and no struct in it holds
/// its schema's block ([`shares_a_block`] is `false`).
pub fn unshared(ty: &DataType, value: &Value) -> Value {
    match (ty, value) {
        (DataType::Struct(st), Value::Struct(sv)) => {
            let own = st.name().map_or_else(StructType::anonymous, |n| StructType::new(n.as_str()));
            let own = st.fields().iter().fold(own, |own, f| {
                own.with_field(f.name().as_str(), f.ty().clone()).expect("a schema's names")
            });
            let values = st.fields().iter().zip(sv.values()).map(|(f, v)| unshared(f.ty(), v));
            Value::Struct(StructValue::for_type(&own, values))
        }
        (DataType::Vector(vt), Value::Vector(vv)) => Value::Vector(
            VectorValue::new(
                vv.elem_ty().clone(),
                vv.iter().map(|v| unshared(vt.elem(), v)).collect(),
            )
            .expect("rebuilt elements conform as the originals did"),
        ),
        (DataType::Union(ut), Value::Union(uv)) => {
            let alt = &ut.alternatives()[uv.discriminant() as usize];
            let uv =
                UnionValue::for_discriminant(ut, uv.discriminant(), unshared(alt.ty(), uv.value()));
            Value::Union(uv.expect("a declared alternative"))
        }
        (_, scalar) => scalar.clone(),
    }
}

/// `true` when some struct in `value`, a value of `ty`, holds the name
/// block of its type in `ty`.
pub fn shares_a_block(ty: &DataType, value: &Value) -> bool {
    match (ty, value) {
        (DataType::Struct(st), Value::Struct(sv)) => {
            sv.shares_names(st.names())
                || st.fields().iter().zip(sv.values()).any(|(f, v)| shares_a_block(f.ty(), v))
        }
        (DataType::Vector(vt), Value::Vector(vv)) => {
            vv.iter().any(|v| shares_a_block(vt.elem(), v))
        }
        (DataType::Union(ut), Value::Union(uv)) => ut
            .alternatives()
            .get(uv.discriminant() as usize)
            .is_some_and(|alt| shares_a_block(alt.ty(), uv.value())),
        _ => false,
    }
}
