//! `record!` against its contract: the generated schema is the one a
//! hand-built declaration gives, the two conversions are inverse and
//! conforming, lookup is by name, and every disagreement is a
//! `TypeMismatch` that names the field.

use marea_presentation::{
    record, DataType, FromValue, HasDataType, IntoValue, StructType, StructValue, TypeKind, Value,
};
use proptest::prelude::*;

record! {
    /// Scalars of several kinds, an owned string and a blob.
    #[derive(Debug, Clone, PartialEq)]
    pub struct Reading {
        /// Doc comments and attributes on fields pass through.
        pub id: u32,
        pub level: f64,
        pub gain: f32,
        pub ok: bool,
        pub label: String,
        pub raw: Vec<u8>,
    }
}

record! {
    /// A record field inside a record, with private fields.
    #[derive(Debug, Clone, PartialEq)]
    struct Envelope {
        seq: u64,
        reading: Reading,
    }
}

fn reading_type() -> DataType {
    DataType::Struct(
        StructType::new("Reading")
            .with_field("id", DataType::U32)
            .unwrap()
            .with_field("level", DataType::F64)
            .unwrap()
            .with_field("gain", DataType::F32)
            .unwrap()
            .with_field("ok", DataType::Bool)
            .unwrap()
            .with_field("label", DataType::Str)
            .unwrap()
            .with_field("raw", DataType::Bytes)
            .unwrap(),
    )
}

fn arb_reading() -> impl Strategy<Value = Reading> {
    (
        any::<u32>(),
        -1.0e9f64..1.0e9,
        -1.0e3f32..1.0e3,
        any::<bool>(),
        any::<String>(),
        proptest::collection::vec(any::<u8>(), 0..32),
    )
        .prop_map(|(id, level, gain, ok, label, raw)| Reading {
            id,
            level,
            gain,
            ok,
            label,
            raw,
        })
}

fn reading() -> Reading {
    Reading { id: 7, level: 2.5, gain: 0.5, ok: true, label: "pitot".into(), raw: vec![1, 2, 3] }
}

/// The fields of a struct value, to rebuild it in another arrangement.
fn fields_of(value: &Value) -> Vec<(String, Value)> {
    let sv = value.as_struct().expect("records are struct values");
    sv.fields().map(|(n, v)| (n.to_string(), v.clone())).collect()
}

fn struct_from(fields: &[(String, Value)]) -> Value {
    let mut b = Value::struct_of("Reading");
    for (name, value) in fields {
        b = b.field(name, value.clone());
    }
    b.build().unwrap()
}

proptest! {
    /// `from_value` inverts `into_value`, and what `into_value` builds
    /// conforms to the record's own schema.
    #[test]
    fn conversions_are_inverse_and_conforming(x in arb_reading(), seq in any::<u64>()) {
        let v = x.clone().into_value();
        prop_assert!(v.conforms_to(&Reading::data_type()).is_ok());
        prop_assert_eq!(Reading::from_value(&v).ok(), Some(x.clone()));

        let nested = Envelope { seq, reading: x };
        let v = nested.clone().into_value();
        prop_assert!(v.conforms_to(&Envelope::data_type()).is_ok());
        prop_assert_eq!(Envelope::from_value(&v).ok(), Some(nested));
    }

    /// Lookup is by name: any rotation of the fields, with or without an
    /// extra one, converts to the same record.
    #[test]
    fn reordered_and_extra_fields_still_convert(
        x in arb_reading(),
        shift in 0usize..6,
        extra in any::<bool>(),
    ) {
        let mut fields = fields_of(&x.clone().into_value());
        fields.rotate_left(shift);
        if extra {
            fields.insert(shift, ("surplus".to_owned(), Value::U8(1)));
        }
        prop_assert_eq!(Reading::from_value(&struct_from(&fields)).ok(), Some(x));
    }
}

#[test]
fn schema_is_the_hand_built_one() {
    assert_eq!(Reading::data_type(), reading_type());
    let DataType::Struct(st) = Reading::data_type() else { panic!("records are structs") };
    assert_eq!(st.name().map(|n| n.as_str()), Some("Reading"));
    let names: Vec<&str> = st.fields().iter().map(|f| f.name().as_str()).collect();
    assert_eq!(names, ["id", "level", "gain", "ok", "label", "raw"]);

    // A record field contributes its own schema, nested.
    let DataType::Struct(outer) = Envelope::data_type() else { panic!("records are structs") };
    assert_eq!(outer.field("reading").map(|f| f.ty()), Some(&reading_type()));
}

#[test]
fn value_names_are_the_schema_s() {
    let DataType::Struct(st) = Reading::data_type() else { panic!("records are structs") };
    let value = reading().into_value();
    let sv = value.as_struct().unwrap();
    assert_eq!(sv.type_name(), st.name());
    let names: Vec<_> = sv.fields().map(|(n, _)| n).collect();
    assert_eq!(names, st.fields().iter().map(|f| f.name()).collect::<Vec<_>>());
}

#[test]
fn missing_field_is_a_mismatch_naming_it() {
    let mut fields = fields_of(&reading().into_value());
    fields.retain(|(n, _)| n != "ok");
    let value = struct_from(&fields);
    let err = Reading::from_value(&value).unwrap_err();
    assert_eq!(err.expected(), Some(&reading_type()));
    assert_eq!(err.found(), Some(TypeKind::Struct));
    assert_eq!(err.detail(), Some("field `ok`"));
}

#[test]
fn wrong_kind_is_a_mismatch_naming_the_field() {
    let mut fields = fields_of(&reading().into_value());
    fields[0].1 = Value::U64(7); // `id` is declared u32
    let err = Reading::from_value(&struct_from(&fields)).unwrap_err();
    assert_eq!(err.found(), Some(TypeKind::Struct));
    assert_eq!(err.detail(), Some("field `id`"));
}

#[test]
fn fields_convert_by_exact_kind() {
    // An `f64` field does not widen an `F32` value: each field goes through
    // its own type's `FromValue`.
    let mut fields = fields_of(&reading().into_value());
    fields[1].1 = Value::F32(2.5);
    let err = Reading::from_value(&struct_from(&fields)).unwrap_err();
    assert_eq!(err.detail(), Some("field `level`"));
}

/// A value that holds the record's own name block is read by position;
/// what that path refuses, it refuses as the by-name path does.
#[test]
fn a_value_sharing_the_record_s_names_reports_the_same_mismatches() {
    let DataType::Struct(own) = Reading::data_type() else { panic!("records are structs") };
    let DataType::Struct(hand_built) = reading_type() else { unreachable!() };
    let values = || fields_of(&reading().into_value()).into_iter().map(|(_, v)| v);
    for st in [&own, &hand_built] {
        let of = |values: Vec<Value>| Value::Struct(StructValue::for_type(st, values));
        assert_eq!(Reading::from_value(&of(values().collect())).ok(), Some(reading()));

        let short = of(values().take(2).collect());
        assert_eq!(Reading::from_value(&short).unwrap_err().detail(), Some("field `gain`"));

        let mut wrong = values().collect::<Vec<_>>();
        wrong[3] = Value::U8(1); // `ok` is declared bool
        let err = Reading::from_value(&of(wrong)).unwrap_err();
        assert_eq!((err.found(), err.detail()), (Some(TypeKind::Struct), Some("field `ok`")));
    }
}

#[test]
fn non_struct_value_is_a_mismatch_at_the_first_field() {
    let err = Reading::from_value(&Value::Bool(true)).unwrap_err();
    assert_eq!(err.expected(), Some(&reading_type()));
    assert_eq!(err.found(), Some(TypeKind::Bool));
    assert_eq!(err.detail(), Some("field `id`"));
}

#[test]
fn nested_mismatch_is_reported_at_the_outer_field() {
    let broken = Value::struct_of("Envelope")
        .field("seq", 1u64)
        .field("reading", Value::Bool(false))
        .build()
        .unwrap();
    let err = Envelope::from_value(&broken).unwrap_err();
    assert_eq!(err.expected(), Some(&Envelope::data_type()));
    assert_eq!(err.detail(), Some("field `reading`"));
}
