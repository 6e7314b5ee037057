//! The self-describing codec: type descriptor + compact payload.

use bytes::BytesMut;

use marea_presentation::{DataType, Value};

use crate::codec::{Codec, CodecId};
use crate::compact::CompactCodec;
use crate::error::{DecodeError, EncodeError};
use crate::typedesc;
use crate::wire::WireReader;

/// Codec that prefixes every payload with its own
/// [type descriptor](crate::typedesc), making messages decodable without
/// prior schema exchange.
///
/// The payload that follows the descriptor is the
/// [`CompactCodec`] encoding of the value against the embedded type. On
/// decode, the embedded type must be *structurally compatible* with the
/// expected type (same shape; documentation names are ignored), otherwise
/// [`DecodeError::TypeMismatch`] is returned — a subscriber never silently
/// reinterprets a publisher's data.
///
/// # Examples
///
/// ```
/// use marea_encoding::{Codec, SelfDescribingCodec};
/// use marea_presentation::{DataType, Value};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let codec = SelfDescribingCodec;
/// let bytes = codec.encode_to_vec(&Value::U32(7), &DataType::U32)?;
/// // One descriptor byte + one varint byte.
/// assert_eq!(bytes.len(), 2);
/// assert_eq!(codec.decode(&bytes, &DataType::U32)?, Value::U32(7));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SelfDescribingCodec;

impl SelfDescribingCodec {
    /// Decodes a payload using only the embedded descriptor (no expected
    /// type), returning both the recovered type and value. This is what log
    /// replayers and generic ground-station displays use.
    ///
    /// # Errors
    ///
    /// Any [`DecodeError`] on malformed input.
    pub fn decode_any(bytes: &[u8]) -> Result<(DataType, Value), DecodeError> {
        let mut r = WireReader::new(bytes);
        let ty = typedesc::decode_type(&mut r)?;
        let value = CompactCodec::decode_from(&mut r, &ty, 0)?;
        if !r.is_empty() {
            return Err(DecodeError::TrailingBytes { remaining: r.remaining() });
        }
        Ok((ty, value))
    }
}

impl Codec for SelfDescribingCodec {
    fn id(&self) -> CodecId {
        CodecId::SELF_DESCRIBING
    }

    fn name(&self) -> &'static str {
        "self-describing"
    }

    fn encode(&self, value: &Value, ty: &DataType, buf: &mut BytesMut) -> Result<(), EncodeError> {
        typedesc::encode_type(ty, buf);
        // CompactCodec::encode re-validates conformance.
        CompactCodec.encode(value, ty, buf)
    }

    fn decode(&self, bytes: &[u8], ty: &DataType) -> Result<Value, DecodeError> {
        let (embedded, value) = Self::decode_any(bytes)?;
        if !embedded.is_compatible_with(ty) {
            return Err(DecodeError::TypeMismatch);
        }
        Ok(value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use marea_presentation::{StructType, StructValue};

    fn fix_ty() -> DataType {
        DataType::Struct(
            StructType::new("Fix")
                .with_field("lat", DataType::F64)
                .unwrap()
                .with_field("lon", DataType::F64)
                .unwrap(),
        )
    }

    fn fix_val() -> Value {
        let DataType::Struct(fix) = fix_ty() else { unreachable!() };
        Value::Struct(StructValue::for_type(&fix, [41.3.into(), 2.1.into()]))
    }

    #[test]
    fn roundtrip_with_expected_type() {
        let codec = SelfDescribingCodec;
        let bytes = codec.encode_to_vec(&fix_val(), &fix_ty()).unwrap();
        assert_eq!(codec.decode(&bytes, &fix_ty()).unwrap(), fix_val());
    }

    #[test]
    fn decode_any_recovers_schema() {
        let codec = SelfDescribingCodec;
        let bytes = codec.encode_to_vec(&fix_val(), &fix_ty()).unwrap();
        let (ty, value) = SelfDescribingCodec::decode_any(&bytes).unwrap();
        assert_eq!(ty, fix_ty());
        assert_eq!(value, fix_val());
    }

    #[test]
    fn incompatible_expected_type_is_rejected() {
        let codec = SelfDescribingCodec;
        let bytes = codec.encode_to_vec(&fix_val(), &fix_ty()).unwrap();
        assert_eq!(codec.decode(&bytes, &DataType::F64), Err(DecodeError::TypeMismatch));
    }

    #[test]
    fn renamed_but_structurally_equal_type_is_accepted() {
        let codec = SelfDescribingCodec;
        let bytes = codec.encode_to_vec(&fix_val(), &fix_ty()).unwrap();
        let renamed = DataType::Struct(
            StructType::new("Other")
                .with_field("lat", DataType::F64)
                .unwrap()
                .with_field("lon", DataType::F64)
                .unwrap(),
        );
        assert_eq!(codec.decode(&bytes, &renamed).unwrap(), fix_val());
    }

    #[test]
    fn overhead_is_exactly_the_descriptor() {
        let compact = CompactCodec.encode_to_vec(&fix_val(), &fix_ty()).unwrap();
        let selfd = SelfDescribingCodec.encode_to_vec(&fix_val(), &fix_ty()).unwrap();
        let desc = typedesc::encode_type_to_vec(&fix_ty());
        assert_eq!(selfd.len(), compact.len() + desc.len());
    }
}
