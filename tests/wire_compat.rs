//! Wire compatibility of the mission records is a test, not a promise.
//!
//! The hex literals are the encodings of the hand-written `IntoValue`
//! impls that `record!` replaced (captured at commit 80252c8, both
//! codecs), and the schemas below are those impls' hand-built
//! `data_type()`s. A `record!` or codec change that moves a byte or a
//! field name on the wire fails here.

use marea::encoding::{Codec, CompactCodec, SelfDescribingCodec};
use marea::prelude::*;
use marea::presentation::{record, FromValue, HasDataType, IntoValue};
use marea::services::names::{Detection, McStatus, Position};

const POSITION: Position =
    Position { lat: 41.27641, lon: 1.9872, alt: 320.5, heading: -1.25, speed: 22.0 };
const DETECTION: Detection = Detection { revision: 3, count: 300 };
const MC_STATUS: McStatus = McStatus { next_waypoint: 4, photos: 70_000, complete: true };

const POSITION_COMPACT: &str = "c824236761a344407ac7293a92cbff3f\
    0000000000087440000000000000f4bf0000000000003640";
const DETECTION_COMPACT: &str = "03ac02";
const MC_STATUS_COMPACT: &str = "04f0a20401";
const POSITION_SELFDESC: &str = "0f0108506f736974696f6e05036c61740a036c6f6e0a03616c740a\
    0768656164696e670a0573706565640a\
    c824236761a344407ac7293a92cbff3f0000000000087440000000000000f4bf0000000000003640";
const DETECTION_SELFDESC: &str =
    "0f0109446574656374696f6e02087265766973696f6e0705636f756e740703ac02";
const MC_STATUS_SELFDESC: &str = "0f01084d63537461747573030d6e6578745f776179706f696e7407\
    0670686f746f730708636f6d706c6574650004f0a20401";

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn unhex(text: &str) -> Vec<u8> {
    (0..text.len()).step_by(2).map(|i| u8::from_str_radix(&text[i..i + 2], 16).unwrap()).collect()
}

/// Encoding `record` gives exactly `golden`, and `golden` decodes back to
/// `record`, through `codec`.
fn pin<T>(codec: &dyn Codec, record: T, golden: &str)
where
    T: IntoValue + FromValue + PartialEq + std::fmt::Debug + Clone,
{
    let ty = T::data_type();
    let encoded = codec.encode_to_vec(&record.clone().into_value(), &ty).unwrap();
    assert_eq!(hex(&encoded), golden, "{} encoding of {record:?}", codec.name());
    let decoded = codec.decode(&unhex(golden), &ty).unwrap();
    assert_eq!(T::from_value(&decoded).unwrap(), record, "{} decoding", codec.name());
}

#[test]
fn compact_encodings_are_pinned() {
    pin(&CompactCodec, POSITION, POSITION_COMPACT);
    pin(&CompactCodec, DETECTION, DETECTION_COMPACT);
    pin(&CompactCodec, MC_STATUS, MC_STATUS_COMPACT);
}

#[test]
fn self_describing_encodings_are_pinned() {
    pin(&SelfDescribingCodec, POSITION, POSITION_SELFDESC);
    pin(&SelfDescribingCodec, DETECTION, DETECTION_SELFDESC);
    pin(&SelfDescribingCodec, MC_STATUS, MC_STATUS_SELFDESC);
}

fn struct_type(name: &str, fields: &[(&str, DataType)]) -> DataType {
    let declared = fields.iter().fold(StructType::new(name), |st, (field, ty)| {
        st.with_field(field, ty.clone()).expect("literal")
    });
    DataType::Struct(declared)
}

#[test]
fn schemas_are_the_hand_built_ones() {
    let f64s = ["lat", "lon", "alt", "heading", "speed"].map(|f| (f, DataType::F64));
    assert_eq!(Position::data_type(), struct_type("Position", &f64s));
    assert_eq!(
        Detection::data_type(),
        struct_type("Detection", &[("revision", DataType::U32), ("count", DataType::U32)])
    );
    assert_eq!(
        McStatus::data_type(),
        struct_type(
            "McStatus",
            &[
                ("next_waypoint", DataType::U32),
                ("photos", DataType::U32),
                ("complete", DataType::Bool)
            ]
        )
    );
}

record! {
    /// A record field inside a record.
    #[derive(Debug, Clone, PartialEq)]
    struct Sighting {
        at: Position,
        what: Detection,
        note: String,
    }
}

#[test]
fn nested_record_roundtrips_through_both_codecs() {
    let sighting = Sighting { at: POSITION, what: DETECTION, note: "north ridge".into() };
    let ty = Sighting::data_type();
    for codec in [&CompactCodec as &dyn Codec, &SelfDescribingCodec] {
        let bytes = codec.encode_to_vec(&sighting.clone().into_value(), &ty).unwrap();
        let back = codec.decode(&bytes, &ty).unwrap();
        assert_eq!(Sighting::from_value(&back).unwrap(), sighting, "{}", codec.name());
    }
    // Positional and tagless: the nested compact encoding is the parts'
    // encodings back to back, then the length-prefixed note.
    let compact = CompactCodec.encode_to_vec(&sighting.into_value(), &ty).unwrap();
    let note = format!("{:02x}{}", "north ridge".len(), hex(b"north ridge"));
    assert_eq!(hex(&compact), format!("{POSITION_COMPACT}{DETECTION_COMPACT}{note}"));
}
