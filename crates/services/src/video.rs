//! The on-board video processing service.

use marea_core::{FileEvent, Service, ServiceContext, ServiceDescriptor};
use marea_flightsim::Frame;

use crate::detect::detect_blobs;
use crate::names::{self, Detection};

/// Detection tuning for the synthetic terrain's hot targets: pixels
/// brighter than `THRESHOLD`, in regions of at least `MIN_PIXELS`.
const THRESHOLD: u8 = 200;
const MIN_PIXELS: u32 = 4;

/// Runs target detection on every photo revision it receives and emits
/// `video/target-detected` when something is found.
///
/// > *"At the same time, the video processing module is told to process the
/// > same file resource ... If the video process detects the pre-programmed
/// > characteristics in the image it can notify the GS and MC."* — paper §5
#[derive(Debug, Default)]
pub struct VideoProcessingService {
    frames_processed: u32,
}

impl VideoProcessingService {
    /// Creates the detector.
    pub fn new() -> Self {
        VideoProcessingService::default()
    }

    /// Frames processed so far.
    pub fn frames_processed(&self) -> u32 {
        self.frames_processed
    }
}

impl Service for VideoProcessingService {
    fn descriptor(&self) -> ServiceDescriptor {
        ServiceDescriptor::builder("video")
            .provides_event(&names::TARGET_DETECTED)
            .subscribe_file(names::FILE_PHOTO)
            .build()
    }

    fn on_file_event(&mut self, ctx: &mut ServiceContext<'_>, event: &FileEvent) {
        let FileEvent::Received { resource, revision, data } = event else { return };
        let Some(frame) = Frame::from_bytes(data) else {
            ctx.log(format!("video: `{resource}` rev {revision} is not a frame; skipped"));
            return;
        };
        self.frames_processed += 1;
        let blobs = detect_blobs(&frame, THRESHOLD, MIN_PIXELS);
        ctx.log(format!("video: rev {} processed, {} target(s) found", revision, blobs.len()));
        if !blobs.is_empty() {
            ctx.emit_to(
                &names::TARGET_DETECTED,
                Detection { revision: *revision, count: blobs.len() as u32 },
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn descriptor_subscribes_to_photos() {
        let v = VideoProcessingService::new();
        let d = v.descriptor();
        assert!(d.file_interests().iter().any(|i| i == names::FILE_PHOTO));
        assert!(d.provides().iter().any(|p| p.name() == names::TARGET_DETECTED.name()));
        assert_eq!(v.frames_processed(), 0);
    }
}
