//! The pluggable [`Codec`] abstraction and per-container registry.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

use bytes::BytesMut;

use marea_presentation::{DataType, Value};

use crate::error::{DecodeError, EncodeError};

/// Wire identifier of a codec.
///
/// The protocol layer stamps each data-bearing frame with the codec id used
/// for its payload so mixed-codec fleets interoperate (a resource-starved
/// flight node can publish compact while a ground station logs
/// self-describing).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CodecId(pub u8);

impl CodecId {
    /// The schema-directed compact codec.
    pub const COMPACT: CodecId = CodecId(0);
    /// The self-describing codec (type descriptor + compact payload).
    pub const SELF_DESCRIBING: CodecId = CodecId(1);
}

impl fmt::Display for CodecId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "codec#{}", self.0)
    }
}

/// A pluggable presentation-to-wire codec (PEPt *Encoding* subsystem).
///
/// Implementations must be stateless or internally synchronized: one codec
/// instance is shared by every service in a container.
pub trait Codec: Send + Sync + fmt::Debug {
    /// Stable wire identifier.
    fn id(&self) -> CodecId;

    /// Short human-readable name (`"compact"`, `"self-describing"`, …).
    fn name(&self) -> &'static str;

    /// Encodes `value` (which must conform to `ty`) into `buf`.
    ///
    /// # Errors
    ///
    /// [`EncodeError::Type`] when the value does not conform to `ty`;
    /// implementation-specific size/depth errors otherwise.
    fn encode(&self, value: &Value, ty: &DataType, buf: &mut BytesMut) -> Result<(), EncodeError>;

    /// Decodes a value of declared type `ty` from `bytes`, consuming all of
    /// them.
    ///
    /// # Errors
    ///
    /// Any [`DecodeError`] on malformed, truncated or trailing input.
    fn decode(&self, bytes: &[u8], ty: &DataType) -> Result<Value, DecodeError>;

    /// Decodes like [`Codec::decode`] into `target`, whose storage the
    /// codec may reuse: on success `target` equals what `decode` answers.
    /// The default decodes a fresh value and assigns it.
    ///
    /// # Errors
    ///
    /// The error `decode` gives for the same input; `target` is then left
    /// holding some value of no meaning, fit only to be overwritten or
    /// dropped.
    fn decode_into(
        &self,
        bytes: &[u8],
        ty: &DataType,
        target: &mut Value,
    ) -> Result<(), DecodeError> {
        *target = self.decode(bytes, ty)?;
        Ok(())
    }

    /// Convenience wrapper over [`Codec::encode`] returning a fresh vector.
    ///
    /// # Errors
    ///
    /// Same as [`Codec::encode`].
    fn encode_to_vec(&self, value: &Value, ty: &DataType) -> Result<Vec<u8>, EncodeError> {
        let mut buf = BytesMut::new();
        self.encode(value, ty, &mut buf)?;
        Ok(buf.to_vec())
    }
}

/// Registry mapping [`CodecId`]s to codec implementations.
///
/// Each service container owns one registry; frames arriving with an
/// unregistered codec id are rejected at the protocol layer.
#[derive(Debug, Clone)]
pub struct CodecRegistry {
    codecs: BTreeMap<CodecId, Arc<dyn Codec>>,
    default_id: CodecId,
}

impl CodecRegistry {
    /// Creates a registry pre-loaded with the two built-in codecs, with the
    /// compact codec as default.
    pub fn new() -> Self {
        let mut codecs: BTreeMap<CodecId, Arc<dyn Codec>> = BTreeMap::new();
        codecs.insert(CodecId::COMPACT, Arc::new(crate::CompactCodec));
        codecs.insert(CodecId::SELF_DESCRIBING, Arc::new(crate::SelfDescribingCodec));
        CodecRegistry { codecs, default_id: CodecId::COMPACT }
    }

    /// Creates an empty registry (no codecs, `default` lookups fail until
    /// one is registered under the requested default id).
    pub fn empty(default_id: CodecId) -> Self {
        CodecRegistry { codecs: BTreeMap::new(), default_id }
    }

    /// Registers (or replaces) a codec, returning the previous one with the
    /// same id.
    pub fn register(&mut self, codec: Arc<dyn Codec>) -> Option<Arc<dyn Codec>> {
        self.codecs.insert(codec.id(), codec)
    }

    /// Selects which codec [`CodecRegistry::default_codec`] returns.
    pub fn set_default(&mut self, id: CodecId) {
        self.default_id = id;
    }

    /// Looks up a codec by wire id.
    pub fn get(&self, id: CodecId) -> Option<&Arc<dyn Codec>> {
        self.codecs.get(&id)
    }

    /// The container's default codec.
    ///
    /// # Panics
    ///
    /// Panics if the configured default id has no registered codec; this is
    /// a configuration error caught at container start-up.
    pub fn default_codec(&self) -> &Arc<dyn Codec> {
        self.codecs.get(&self.default_id).expect("default codec must be registered")
    }

    /// Id of the default codec.
    pub fn default_id(&self) -> CodecId {
        self.default_id
    }

    /// Registered codec ids in ascending order.
    pub fn ids(&self) -> impl Iterator<Item = CodecId> + '_ {
        self.codecs.keys().copied()
    }
}

impl Default for CodecRegistry {
    fn default() -> Self {
        CodecRegistry::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CompactCodec, SelfDescribingCodec};

    #[test]
    fn registry_has_builtins() {
        let reg = CodecRegistry::new();
        assert!(reg.get(CodecId::COMPACT).is_some());
        assert!(reg.get(CodecId::SELF_DESCRIBING).is_some());
        assert_eq!(reg.default_codec().id(), CodecId::COMPACT);
        assert_eq!(reg.ids().collect::<Vec<_>>(), vec![CodecId::COMPACT, CodecId::SELF_DESCRIBING]);
    }

    #[test]
    fn default_is_switchable() {
        let mut reg = CodecRegistry::new();
        reg.set_default(CodecId::SELF_DESCRIBING);
        assert_eq!(reg.default_codec().name(), "self-describing");
    }

    #[test]
    fn custom_codec_replaces_builtin() {
        // A codec that reuses the compact wire format under a fresh id.
        #[derive(Debug)]
        struct Custom;
        impl Codec for Custom {
            fn id(&self) -> CodecId {
                CodecId(77)
            }
            fn name(&self) -> &'static str {
                "custom"
            }
            fn encode(
                &self,
                value: &Value,
                ty: &DataType,
                buf: &mut BytesMut,
            ) -> Result<(), EncodeError> {
                CompactCodec.encode(value, ty, buf)
            }
            fn decode(&self, bytes: &[u8], ty: &DataType) -> Result<Value, DecodeError> {
                CompactCodec.decode(bytes, ty)
            }
        }
        let mut reg = CodecRegistry::new();
        assert!(reg.register(Arc::new(Custom)).is_none());
        assert_eq!(reg.get(CodecId(77)).unwrap().name(), "custom");
        let again = reg.register(Arc::new(Custom));
        assert!(again.is_some(), "re-registration returns the old codec");
    }

    #[test]
    fn both_builtin_codecs_roundtrip_same_value() {
        let ty = DataType::Str;
        let v = Value::Str("telemetry".into());
        for codec in [&CompactCodec as &dyn Codec, &SelfDescribingCodec as &dyn Codec] {
            let bytes = codec.encode_to_vec(&v, &ty).unwrap();
            assert_eq!(codec.decode(&bytes, &ty).unwrap(), v, "{}", codec.name());
        }
    }
}
