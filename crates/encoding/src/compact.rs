//! The compact, schema-directed codec.

use bytes::BytesMut;

use marea_presentation::{
    DataType, StructValue, TypeError, TypeErrorKind, UnionValue, Value, VectorValue,
};

use crate::codec::{Codec, CodecId};
use crate::error::{DecodeError, EncodeError};
use crate::wire::{WireReader, WireWriter};

/// Maximum nesting depth accepted on both encode and decode.
///
/// Variables in a UAV mission are small telemetry records; bounding depth
/// protects the low-resource nodes the paper targets from stack abuse by a
/// corrupted or malicious peer.
pub(crate) const MAX_DEPTH: usize = 32;

/// Maximum length accepted for any single string/blob/vector component.
pub(crate) const MAX_COMPONENT_LEN: usize = 64 * 1024 * 1024;

/// Schema-directed positional codec: the tightest wire representation.
///
/// Because both peers share the schema (exchanged once at announcement
/// time), no type tags or field names travel with data — exactly the
/// bandwidth frugality the paper's *variable* primitive needs at 20 Hz over
/// a radio modem.
///
/// See the [crate docs](crate) for an example.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CompactCodec;

impl CompactCodec {
    fn encode_into(
        value: &Value,
        ty: &DataType,
        w: &mut WireWriter<'_>,
        depth: usize,
    ) -> Result<(), EncodeError> {
        if depth > MAX_DEPTH {
            return Err(EncodeError::TooDeep { limit: MAX_DEPTH });
        }
        match (ty, value) {
            (DataType::Bool, Value::Bool(v)) => w.put_bool(*v),
            (DataType::I8, Value::I8(v)) => w.put_u8(*v as u8),
            (DataType::I16, Value::I16(v)) => w.put_signed_varint(i64::from(*v)),
            (DataType::I32, Value::I32(v)) => w.put_signed_varint(i64::from(*v)),
            (DataType::I64, Value::I64(v)) => w.put_signed_varint(*v),
            (DataType::U8, Value::U8(v)) => w.put_u8(*v),
            (DataType::U16, Value::U16(v)) => w.put_varint(u64::from(*v)),
            (DataType::U32, Value::U32(v)) => w.put_varint(u64::from(*v)),
            (DataType::U64, Value::U64(v)) => w.put_varint(*v),
            (DataType::F32, Value::F32(v)) => w.put_f32_le(*v),
            (DataType::F64, Value::F64(v)) => w.put_f64_le(*v),
            (DataType::Char, Value::Char(v)) => w.put_varint(u64::from(u32::from(*v))),
            (DataType::Str, Value::Str(v)) => {
                if v.len() > MAX_COMPONENT_LEN {
                    return Err(EncodeError::TooLarge { size: v.len(), limit: MAX_COMPONENT_LEN });
                }
                w.put_str(v);
            }
            (DataType::Bytes, Value::Bytes(v)) => {
                if v.len() > MAX_COMPONENT_LEN {
                    return Err(EncodeError::TooLarge { size: v.len(), limit: MAX_COMPONENT_LEN });
                }
                w.put_len_prefixed(v);
            }
            (DataType::Vector(vt), Value::Vector(vv)) => {
                if vt.fixed_len().is_none() {
                    w.put_varint(vv.len() as u64);
                }
                for item in vv.iter() {
                    Self::encode_into(item, vt.elem(), w, depth + 1)?;
                }
            }
            (DataType::Struct(st), Value::Struct(sv)) => {
                for (def, field_value) in st.fields().iter().zip(sv.values()) {
                    Self::encode_into(field_value, def.ty(), w, depth + 1)?;
                }
            }
            (DataType::Union(ut), Value::Union(uv)) => {
                w.put_varint(u64::from(uv.discriminant()));
                let alt = &ut.alternatives()[uv.discriminant() as usize];
                Self::encode_into(uv.value(), alt.ty(), w, depth + 1)?;
            }
            // conforms_to() ran before dispatch, so this is unreachable in
            // practice; keep a defensive error rather than a panic.
            (expected, found) => {
                return Err(EncodeError::Type(TypeError::new(TypeErrorKind::KindMismatch {
                    expected: expected.kind(),
                    found: found.kind(),
                })));
            }
        }
        Ok(())
    }

    pub(crate) fn decode_from(
        r: &mut WireReader<'_>,
        ty: &DataType,
        depth: usize,
    ) -> Result<Value, DecodeError> {
        if depth > MAX_DEPTH {
            return Err(DecodeError::TooDeep { limit: MAX_DEPTH });
        }
        Ok(match ty {
            DataType::Bool => Value::Bool(r.get_bool()?),
            DataType::I8 => Value::I8(r.get_u8()? as i8),
            DataType::I16 => {
                let v = r.get_signed_varint()?;
                Value::I16(i16::try_from(v).map_err(|_| DecodeError::VarintOverflow)?)
            }
            DataType::I32 => {
                let v = r.get_signed_varint()?;
                Value::I32(i32::try_from(v).map_err(|_| DecodeError::VarintOverflow)?)
            }
            DataType::I64 => Value::I64(r.get_signed_varint()?),
            DataType::U8 => Value::U8(r.get_u8()?),
            DataType::U16 => {
                let v = r.get_varint()?;
                Value::U16(u16::try_from(v).map_err(|_| DecodeError::VarintOverflow)?)
            }
            DataType::U32 => {
                let v = r.get_varint()?;
                Value::U32(u32::try_from(v).map_err(|_| DecodeError::VarintOverflow)?)
            }
            DataType::U64 => Value::U64(r.get_varint()?),
            DataType::F32 => Value::F32(r.get_f32_le()?),
            DataType::F64 => Value::F64(r.get_f64_le()?),
            DataType::Char => {
                let cp = r.get_varint()?;
                let cp = u32::try_from(cp).map_err(|_| DecodeError::VarintOverflow)?;
                Value::Char(char::from_u32(cp).ok_or(DecodeError::InvalidChar(cp))?)
            }
            DataType::Str => Value::Str(r.get_str(MAX_COMPONENT_LEN)?.to_owned()),
            DataType::Bytes => Value::Bytes(r.get_len_prefixed(MAX_COMPONENT_LEN)?.to_vec()),
            DataType::Vector(vt) => {
                let len = match vt.fixed_len() {
                    Some(n) => n as u64,
                    None => r.get_varint()?,
                };
                if len > MAX_COMPONENT_LEN as u64 {
                    return Err(DecodeError::LengthOverflow {
                        declared: len,
                        limit: MAX_COMPONENT_LEN,
                    });
                }
                let mut items = Vec::with_capacity(usize::min(len as usize, 1024));
                for _ in 0..len {
                    items.push(Self::decode_from(r, vt.elem(), depth + 1)?);
                }
                Value::Vector(
                    VectorValue::new(vt.elem().clone(), items)
                        .expect("decoded elements conform by construction"),
                )
            }
            DataType::Struct(st) => {
                // Field names are the schema's; the first field that fails
                // to decode ends the value list and is reported below.
                let mut failed = None;
                let values = st.fields().iter().map_while(|def| {
                    Self::decode_from(r, def.ty(), depth + 1).map_err(|e| failed = Some(e)).ok()
                });
                let decoded = StructValue::for_type(st, values);
                match failed {
                    Some(e) => return Err(e),
                    None => Value::Struct(decoded),
                }
            }
            DataType::Union(ut) => {
                let disc = r.get_varint()?;
                let disc = u32::try_from(disc).map_err(|_| DecodeError::VarintOverflow)?;
                let invalid = DecodeError::InvalidDiscriminant(disc);
                let Some(alt) = ut.alternatives().get(disc as usize) else { return Err(invalid) };
                let v = Self::decode_from(r, alt.ty(), depth + 1)?;
                Value::Union(UnionValue::for_discriminant(ut, disc, v).ok_or(invalid)?)
            }
        })
    }

    /// [`decode_from`](Self::decode_from) into `target`: a whole struct
    /// value of `ty` in the schema-sharing form is overwritten field by
    /// field, in place; every other node is decoded fresh by `decode_from`
    /// and assigned. The same reads in the same order, so the same checks
    /// and the same first error.
    fn decode_in_place(
        r: &mut WireReader<'_>,
        ty: &DataType,
        target: &mut Value,
        depth: usize,
    ) -> Result<(), DecodeError> {
        let fields = match (ty, &mut *target) {
            (DataType::Struct(st), Value::Struct(sv)) => sv.values_mut_for(st).map(|v| (st, v)),
            _ => None,
        };
        let Some((st, values)) = fields else {
            *target = Self::decode_from(r, ty, depth)?;
            return Ok(());
        };
        if depth > MAX_DEPTH {
            return Err(DecodeError::TooDeep { limit: MAX_DEPTH });
        }
        for (def, slot) in st.fields().iter().zip(values) {
            Self::decode_in_place(r, def.ty(), slot, depth + 1)?;
        }
        Ok(())
    }
}

impl Codec for CompactCodec {
    fn id(&self) -> CodecId {
        CodecId::COMPACT
    }

    fn name(&self) -> &'static str {
        "compact"
    }

    fn encode(&self, value: &Value, ty: &DataType, buf: &mut BytesMut) -> Result<(), EncodeError> {
        value.conforms_to(ty)?;
        let mut w = WireWriter::new(buf);
        Self::encode_into(value, ty, &mut w, 0)
    }

    fn decode(&self, bytes: &[u8], ty: &DataType) -> Result<Value, DecodeError> {
        let mut r = WireReader::new(bytes);
        let v = Self::decode_from(&mut r, ty, 0)?;
        if !r.is_empty() {
            return Err(DecodeError::TrailingBytes { remaining: r.remaining() });
        }
        Ok(v)
    }

    fn decode_into(
        &self,
        bytes: &[u8],
        ty: &DataType,
        target: &mut Value,
    ) -> Result<(), DecodeError> {
        let mut r = WireReader::new(bytes);
        Self::decode_in_place(&mut r, ty, target, 0)?;
        if !r.is_empty() {
            return Err(DecodeError::TrailingBytes { remaining: r.remaining() });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use marea_presentation::{StructType, UnionType, VectorType};

    fn codec() -> CompactCodec {
        CompactCodec
    }

    fn roundtrip(v: &Value, ty: &DataType) -> Value {
        let bytes = codec().encode_to_vec(v, ty).unwrap();
        codec().decode(&bytes, ty).unwrap()
    }

    #[test]
    fn scalars_roundtrip() {
        let cases: Vec<(Value, DataType)> = vec![
            (Value::Bool(true), DataType::Bool),
            (Value::I8(-5), DataType::I8),
            (Value::I16(-300), DataType::I16),
            (Value::I32(i32::MIN), DataType::I32),
            (Value::I64(i64::MAX), DataType::I64),
            (Value::U8(200), DataType::U8),
            (Value::U16(65535), DataType::U16),
            (Value::U32(7), DataType::U32),
            (Value::U64(u64::MAX), DataType::U64),
            (Value::F32(1.25), DataType::F32),
            (Value::F64(-0.0), DataType::F64),
            (Value::Char('λ'), DataType::Char),
            (Value::Str("mission".into()), DataType::Str),
            (Value::Bytes(vec![1, 2, 3]), DataType::Bytes),
        ];
        for (v, ty) in cases {
            assert_eq!(roundtrip(&v, &ty), v, "{ty}");
        }
    }

    #[test]
    fn struct_encoding_is_positional_and_tight() {
        let ty = DataType::Struct(
            StructType::new("Fix")
                .with_field("lat", DataType::F64)
                .unwrap()
                .with_field("lon", DataType::F64)
                .unwrap(),
        );
        let v = Value::struct_of("Fix").field("lat", 1.0).field("lon", 2.0).build().unwrap();
        let bytes = codec().encode_to_vec(&v, &ty).unwrap();
        assert_eq!(bytes.len(), 16, "no tags, no names: exactly two f64");
        assert_eq!(roundtrip(&v, &ty), v);
    }

    #[test]
    fn fixed_vectors_have_no_length_prefix() {
        let fixed = DataType::Vector(VectorType::fixed(DataType::U8, 4));
        let var = DataType::Vector(VectorType::of(DataType::U8));
        let v_fixed = Value::Vector(
            VectorValue::new(DataType::U8, vec![1u8.into(), 2u8.into(), 3u8.into(), 4u8.into()])
                .unwrap(),
        );
        let fixed_bytes = codec().encode_to_vec(&v_fixed, &fixed).unwrap();
        let var_bytes = codec().encode_to_vec(&v_fixed, &var).unwrap();
        assert_eq!(fixed_bytes.len(), 4);
        assert_eq!(var_bytes.len(), 5, "one varint length byte");
        assert_eq!(roundtrip(&v_fixed, &fixed), v_fixed);
    }

    #[test]
    fn unions_carry_discriminant() {
        let ut = UnionType::new("Alarm")
            .with_alternative("engine", DataType::U8)
            .unwrap()
            .with_alternative("msg", DataType::Str)
            .unwrap();
        let ty = DataType::Union(ut.clone());
        let v = Value::Union(UnionValue::for_type(&ut, "msg", "low fuel").unwrap());
        assert_eq!(roundtrip(&v, &ty), v);
    }

    #[test]
    fn nonconforming_value_is_rejected_before_encoding() {
        let err = codec().encode_to_vec(&Value::Bool(true), &DataType::F64).unwrap_err();
        assert!(matches!(err, EncodeError::Type(_)));
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let bytes = codec().encode_to_vec(&Value::U8(3), &DataType::U8).unwrap();
        let mut extended = bytes.clone();
        extended.push(0);
        assert_eq!(
            codec().decode(&extended, &DataType::U8),
            Err(DecodeError::TrailingBytes { remaining: 1 })
        );
    }

    #[test]
    fn truncated_input_is_rejected() {
        let ty = DataType::Struct(StructType::new("P").with_field("x", DataType::F64).unwrap());
        let v = Value::struct_of("P").field("x", 9.0).build().unwrap();
        let bytes = codec().encode_to_vec(&v, &ty).unwrap();
        assert!(matches!(codec().decode(&bytes[..4], &ty), Err(DecodeError::UnexpectedEof { .. })));
    }

    #[test]
    fn bad_union_discriminant_is_rejected() {
        let ut = UnionType::new("U").with_alternative("a", DataType::U8).unwrap();
        let ty = DataType::Union(ut);
        // discriminant 9 with payload byte
        let bytes = [9u8, 0u8];
        assert_eq!(codec().decode(&bytes, &ty), Err(DecodeError::InvalidDiscriminant(9)));
    }

    /// `Track { id, fixes: vector<Fix { lat, tag: Alarm }> }`: a struct in a
    /// vector in a struct, with a union at the bottom.
    fn track_ty() -> DataType {
        let alarm = UnionType::new("Alarm")
            .with_alternative("engine", DataType::U8)
            .unwrap()
            .with_alternative("msg", DataType::Str)
            .unwrap();
        let fix = StructType::new("Fix")
            .with_field("lat", DataType::F64)
            .unwrap()
            .with_field("tag", DataType::Union(alarm))
            .unwrap();
        DataType::Struct(
            StructType::new("Track")
                .with_field("id", DataType::U16)
                .unwrap()
                .with_field("fixes", DataType::Vector(VectorType::of(DataType::Struct(fix))))
                .unwrap(),
        )
    }

    fn track_val() -> Value {
        let DataType::Struct(track) = track_ty() else { unreachable!() };
        let DataType::Vector(fixes) = track.fields()[1].ty().clone() else { unreachable!() };
        let DataType::Struct(fix) = fixes.elem().clone() else { unreachable!() };
        let DataType::Union(alarm) = fix.fields()[1].ty().clone() else { unreachable!() };
        let fix_val = |lat: f64, tag: UnionValue| {
            Value::Struct(StructValue::for_type(&fix, [lat.into(), tag.into()]))
        };
        let items = vec![
            fix_val(1.5, UnionValue::for_type(&alarm, "engine", 9u8).unwrap()),
            fix_val(-2.5, UnionValue::for_type(&alarm, "msg", "low fuel").unwrap()),
        ];
        let fixes = VectorValue::new(fixes.elem().clone(), items).unwrap();
        Value::Struct(StructValue::for_type(&track, [7u16.into(), fixes.into()]))
    }

    #[test]
    fn struct_in_vector_in_struct_roundtrips() {
        let (ty, v) = (track_ty(), track_val());
        let bytes = codec().encode_to_vec(&v, &ty).unwrap();
        // id, count, (lat, discriminant, payload) twice.
        assert_eq!(bytes.len(), 1 + 1 + (8 + 1 + 1) + (8 + 1 + 9));
        let back = codec().decode(&bytes, &ty).unwrap();
        assert_eq!(back, v);
        back.conforms_to(&ty).unwrap();
        let selfdesc = crate::SelfDescribingCodec;
        let bytes = selfdesc.encode_to_vec(&v, &ty).unwrap();
        assert_eq!(selfdesc.decode(&bytes, &ty).unwrap(), v);
    }

    #[test]
    fn decoded_names_are_the_schema_s() {
        let (ty, v) = (track_ty(), track_val());
        let DataType::Struct(st) = &ty else { unreachable!() };
        let bytes = codec().encode_to_vec(&v, &ty).unwrap();
        let back = codec().decode(&bytes, &ty).unwrap();
        let sv = back.as_struct().unwrap();
        assert_eq!(sv.type_name(), st.name());
        for ((name, _), def) in sv.fields().zip(st.fields()) {
            assert_eq!(name, def.name());
        }
    }

    proptest::proptest! {
        /// A value that shares its schema's name blocks and the same value
        /// rebuilt field by field are one value on the wire.
        #[test]
        fn both_forms_of_a_value_encode_alike(
            (ty, shared) in marea_presentation::testkit::arb_typed_value(3),
        ) {
            let rebuilt = marea_presentation::testkit::by_name(&shared);
            let bytes = codec().encode_to_vec(&shared, &ty).unwrap();
            proptest::prop_assert_eq!(&codec().encode_to_vec(&rebuilt, &ty).unwrap(), &bytes);
            proptest::prop_assert_eq!(codec().decode(&bytes, &ty).unwrap(), rebuilt);
        }
    }

    /// Two values of one random schema, `a` and `b`.
    fn arb_two_values() -> impl proptest::strategy::Strategy<Value = (DataType, Value, Value)> {
        use marea_presentation::testkit::{arb_data_type, arb_value_of};
        use proptest::strategy::{Just, Strategy};
        arb_data_type(3).prop_flat_map(|ty| {
            let (a, b) = (arb_value_of(&ty), arb_value_of(&ty));
            (Just(ty), a, b)
        })
    }

    /// `decode_into` over `target` and `decode`, on the same bytes.
    fn both_decodes(
        bytes: &[u8],
        ty: &DataType,
        mut target: Value,
    ) -> (Result<Value, DecodeError>, Result<Value, DecodeError>) {
        let into = codec().decode_into(bytes, ty, &mut target).map(|()| target);
        (into, codec().decode(bytes, ty))
    }

    proptest::proptest! {
        /// Decoding `b` over a decoded `a` — reused in place, or rebuilt by
        /// name and so replaced — answers what decoding `b` fresh answers,
        /// and it re-encodes to `b`'s bytes.
        #[test]
        fn decode_into_equals_a_fresh_decode((ty, a, b) in arb_two_values()) {
            let (a_bytes, b_bytes) =
                (codec().encode_to_vec(&a, &ty).unwrap(), codec().encode_to_vec(&b, &ty).unwrap());
            let shared = codec().decode(&a_bytes, &ty).unwrap();
            for target in [marea_presentation::testkit::by_name(&shared), shared] {
                let (into, fresh) = both_decodes(&b_bytes, &ty, target);
                let into = into.unwrap();
                proptest::prop_assert_eq!(&into, &fresh.unwrap());
                proptest::prop_assert_eq!(&codec().encode_to_vec(&into, &ty).unwrap(), &b_bytes);
            }
        }

        /// Every truncation of `b`, and `b` with a byte too many, fails
        /// `decode_into` with `decode`'s error, whatever the target holds.
        #[test]
        fn decode_into_fails_as_decode_does((ty, a, b) in arb_two_values(), extra in 0u8..=255) {
            let target = codec().decode(&codec().encode_to_vec(&a, &ty).unwrap(), &ty).unwrap();
            let mut bytes = codec().encode_to_vec(&b, &ty).unwrap();
            for cut in 0..bytes.len() {
                let (into, fresh) = both_decodes(&bytes[..cut], &ty, target.clone());
                proptest::prop_assert!(fresh.is_err());
                proptest::prop_assert_eq!(into.unwrap_err(), fresh.unwrap_err());
            }
            bytes.push(extra);
            let (into, fresh) = both_decodes(&bytes, &ty, target);
            proptest::prop_assert_eq!(into.unwrap_err(), fresh.unwrap_err());
        }
    }

    /// A struct target in the schema-sharing form keeps its field vector:
    /// the in-place walker writes the values where they are.
    #[test]
    fn decode_into_reuses_a_shared_struct_s_storage() {
        let fix = StructType::new("Fix")
            .with_field("lat", DataType::F64)
            .unwrap()
            .with_field("lon", DataType::F64)
            .unwrap();
        let ty = DataType::Struct(fix.clone());
        let one = Value::Struct(StructValue::for_type(&fix, [1.0.into(), 2.0.into()]));
        let two = Value::Struct(StructValue::for_type(&fix, [3.0.into(), 4.0.into()]));
        let mut target = one;
        let before = target.as_struct().unwrap().values().as_ptr();
        codec().decode_into(&codec().encode_to_vec(&two, &ty).unwrap(), &ty, &mut target).unwrap();
        assert_eq!(target, two);
        assert_eq!(target.as_struct().unwrap().values().as_ptr(), before, "same field vector");

        // Another schema: the target is replaced by a fresh decode.
        let track_bytes = codec().encode_to_vec(&track_val(), &track_ty()).unwrap();
        codec().decode_into(&track_bytes, &track_ty(), &mut target).unwrap();
        assert_eq!(target, track_val());
    }

    /// Over-deep and out-of-range input met *inside* a reused struct gives
    /// the error `decode` gives.
    #[test]
    fn decode_into_in_place_errors_are_decode_s() {
        // 33 levels of one-field structs around a u8, each value sharing
        // its level's block: the in-place walk reaches the depth limit.
        let (mut ty, mut value) = (DataType::U8, Value::U8(1));
        for _ in 0..33 {
            let st = StructType::anonymous().with_field("f", ty).unwrap();
            value = Value::Struct(StructValue::for_type(&st, [value]));
            ty = DataType::Struct(st);
        }
        let (into, fresh) = both_decodes(&[1], &ty, value);
        assert_eq!(into, Err(DecodeError::TooDeep { limit: MAX_DEPTH }));
        assert_eq!(fresh, Err(DecodeError::TooDeep { limit: MAX_DEPTH }));

        let st = StructType::new("S")
            .with_field("a", DataType::U8)
            .unwrap()
            .with_field("b", DataType::U16)
            .unwrap();
        let ty = DataType::Struct(st.clone());
        let target = Value::Struct(StructValue::for_type(&st, [1u8.into(), 2u16.into()]));
        let mut buf = BytesMut::new();
        WireWriter::new(&mut buf).put_u8(7);
        WireWriter::new(&mut buf).put_varint(70_000);
        let (into, fresh) = both_decodes(&buf, &ty, target);
        assert_eq!(into, Err(DecodeError::VarintOverflow));
        assert_eq!(fresh, Err(DecodeError::VarintOverflow));
    }

    /// Hostile input deep inside a composite fails with the error the
    /// field-by-field decoder always gave, not with a half-built value.
    #[test]
    fn hostile_nested_input_errors_are_pinned() {
        let (ty, v) = (track_ty(), track_val());
        let bytes = codec().encode_to_vec(&v, &ty).unwrap();

        // Truncated inside the string at the bottom of the second element.
        let cut = &bytes[..bytes.len() - 3];
        assert_eq!(codec().decode(cut, &ty), Err(DecodeError::UnexpectedEof { needed: 3 }));

        let mut trailing = bytes.clone();
        trailing.push(0xAA);
        assert_eq!(
            codec().decode(&trailing, &ty),
            Err(DecodeError::TrailingBytes { remaining: 1 })
        );

        // The first element's union discriminant (after id, count, lat).
        let mut bad = bytes.clone();
        bad[1 + 1 + 8] = 2;
        assert_eq!(codec().decode(&bad, &ty), Err(DecodeError::InvalidDiscriminant(2)));

        // 33 levels of one-field structs around a u8: one level too many,
        // refused on both sides before the payload is touched.
        let deep = (0..33).fold(DataType::U8, |inner, _| {
            DataType::Struct(StructType::anonymous().with_field("f", inner).unwrap())
        });
        assert_eq!(codec().decode(&[1], &deep), Err(DecodeError::TooDeep { limit: MAX_DEPTH }));
        let ok = (0..32).fold(DataType::U8, |inner, _| {
            DataType::Struct(StructType::anonymous().with_field("f", inner).unwrap())
        });
        assert!(codec().decode(&[1], &ok).is_ok());
    }

    #[test]
    fn char_decoding_validates_scalar_values() {
        // 0xD800 is a surrogate, invalid as char.
        let mut buf = BytesMut::new();
        WireWriter::new(&mut buf).put_varint(0xD800);
        assert_eq!(codec().decode(&buf, &DataType::Char), Err(DecodeError::InvalidChar(0xD800)));
    }

    #[test]
    fn integer_range_is_enforced_on_decode() {
        // Encode a u32 that does not fit u16.
        let mut buf = BytesMut::new();
        WireWriter::new(&mut buf).put_varint(70_000);
        assert_eq!(codec().decode(&buf, &DataType::U16), Err(DecodeError::VarintOverflow));
    }

    #[test]
    fn small_integers_encode_to_single_bytes() {
        let bytes = codec().encode_to_vec(&Value::I64(-2), &DataType::I64).unwrap();
        assert_eq!(bytes.len(), 1, "zigzag keeps small magnitudes small");
        let bytes = codec().encode_to_vec(&Value::U64(9), &DataType::U64).unwrap();
        assert_eq!(bytes.len(), 1);
    }
}
