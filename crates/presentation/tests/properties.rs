//! Property tests for the presentation-layer invariants.

use marea_presentation::testkit::{arb_data_type, arb_typed_value, arb_value_of};
use marea_presentation::{DataType, Value};
use proptest::prelude::*;

proptest! {
    /// Every generated `(type, value)` pair conforms by construction.
    #[test]
    fn generated_values_conform((ty, value) in arb_typed_value(3)) {
        prop_assert!(value.conforms_to(&ty).is_ok(), "{value} should conform to {ty}");
    }

    /// Conformance is invariant under cloning (no hidden identity).
    #[test]
    fn conformance_survives_clone((ty, value) in arb_typed_value(3)) {
        let copied = value.clone();
        prop_assert_eq!(&copied, &value);
        prop_assert!(copied.conforms_to(&ty).is_ok());
    }

    /// Structural compatibility is reflexive for generated types.
    #[test]
    fn compatibility_is_reflexive(ty in arb_data_type(3)) {
        prop_assert!(ty.is_compatible_with(&ty));
    }

    /// A value conforming to `ty` conforms to every structurally compatible
    /// type as well (compatibility is the contract the directory uses to
    /// match publishers and subscribers).
    #[test]
    fn compatible_types_accept_same_values((ty, value) in arb_typed_value(2)) {
        // Re-rooting a struct type under a different documentation name must
        // not affect conformance.
        if let DataType::Struct(st) = &ty {
            let mut renamed = marea_presentation::StructType::new("renamed");
            for f in st.fields() {
                renamed = renamed.with_field(f.name().as_str(), f.ty().clone()).unwrap();
            }
            let renamed = DataType::Struct(renamed);
            prop_assert!(ty.is_compatible_with(&renamed));
            prop_assert!(value.conforms_to(&renamed).is_ok());
        }
    }

    /// `size_hint` never lies below the raw payload for byte blobs.
    #[test]
    fn size_hint_covers_bytes(data in proptest::collection::vec(any::<u8>(), 0..512)) {
        let len = data.len();
        let v = Value::Bytes(data);
        prop_assert!(v.size_hint() >= len);
    }

    /// Navigating a generated struct by its own field names always succeeds.
    #[test]
    fn struct_fields_navigable((ty, value) in arb_typed_value(2)) {
        if let (DataType::Struct(_), Value::Struct(sv)) = (&ty, &value) {
            for (name, expected) in sv.fields() {
                let got = sv.get(name.as_str());
                prop_assert_eq!(got, Some(expected));
            }
        }
    }

}

#[test]
fn fixed_vectors_have_fixed_len() {
    use proptest::strategy::{Strategy, ValueTree};
    use proptest::test_runner::TestRunner;
    let mut runner = TestRunner::deterministic();
    for len in 0..5usize {
        let ty = DataType::Vector(marea_presentation::VectorType::fixed(DataType::U16, len));
        for _ in 0..16 {
            let v = arb_value_of(&ty).new_tree(&mut runner).unwrap().current();
            match v {
                Value::Vector(vv) => assert_eq!(vv.len(), len),
                other => panic!("expected vector, got {other}"),
            }
        }
    }
}

#[test]
fn deeply_nested_types_have_bounded_depth() {
    // The generator is asked for depth <= 3 above; sanity-check the bound
    // the container relies on for resource accounting.
    use proptest::strategy::{Strategy, ValueTree};
    use proptest::test_runner::TestRunner;
    let mut runner = TestRunner::deterministic();
    for _ in 0..64 {
        let ty = arb_data_type(3).new_tree(&mut runner).unwrap().current();
        assert!(ty.depth() <= 4, "depth {} exceeds bound for {ty}", ty.depth());
    }
}
