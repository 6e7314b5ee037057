//! The generic storage service.

use bytes::Bytes;

use marea_core::{FileEvent, Service, ServiceContext, ServiceDescriptor};
use marea_presentation::{Name, Value};

use crate::fs::MemFs;
use crate::names;

/// Stores named blobs in an inner filesystem and archives every photo
/// revision it receives over the file-transfer primitive.
///
/// > *"The storage service is a generic service that provides storage and
/// > retrieval of data by providing access to an inner file system. It is
/// > told to store the photos and the GPS positions by the MC."* — paper §5
#[derive(Debug)]
pub struct StorageService {
    fs: MemFs,
}

impl StorageService {
    /// Creates a storage service over `fs` (clone the [`MemFs`] to inspect
    /// stored content from tests).
    pub fn new(fs: MemFs) -> Self {
        StorageService { fs }
    }

    /// A restart factory over the same shared filesystem: a chaos
    /// `Restart` brings storage back with its namespace intact (the
    /// persistent-disk model), so clients re-resolve and keep writing.
    pub fn factory(fs: MemFs) -> impl Fn() -> Box<dyn Service> + Send {
        move || Box::new(StorageService::new(fs.clone())) as Box<dyn Service>
    }
}

impl Service for StorageService {
    fn descriptor(&self) -> ServiceDescriptor {
        ServiceDescriptor::builder("storage")
            .provides_fn(&names::STORAGE_STORE)
            .provides_fn(&names::STORAGE_GET)
            .provides_fn(&names::STORAGE_LIST)
            .subscribe_file(names::FILE_PHOTO)
            .build()
    }

    fn on_call(
        &mut self,
        ctx: &mut ServiceContext<'_>,
        function: &Name,
        args: &[Value],
    ) -> Result<Value, String> {
        if names::STORAGE_STORE.matches(function) {
            let (path, data) = names::STORAGE_STORE.decode_args(args).map_err(|e| e.to_string())?;
            ctx.log(format!("storage: stored `{path}` ({} bytes)", data.len()));
            self.fs.write(path, Bytes::from(data));
            Ok(names::STORAGE_STORE.encode_ret(true))
        } else if names::STORAGE_GET.matches(function) {
            let (path,) = names::STORAGE_GET.decode_args(args).map_err(|e| e.to_string())?;
            match self.fs.read(&path) {
                Some(data) => Ok(names::STORAGE_GET.encode_ret(data.to_vec())),
                None => Err(format!("no such file `{path}`")),
            }
        } else if names::STORAGE_LIST.matches(function) {
            let (prefix,) = names::STORAGE_LIST.decode_args(args).map_err(|e| e.to_string())?;
            Ok(names::STORAGE_LIST.encode_ret(self.fs.list(&prefix).join("\n")))
        } else {
            Err(format!("unknown function `{function}`"))
        }
    }

    fn on_file_event(&mut self, ctx: &mut ServiceContext<'_>, event: &FileEvent) {
        if let FileEvent::Received { resource, revision, data } = event {
            let path = format!("photos/{resource}/rev-{revision:04}");
            ctx.log(format!("storage: archived `{path}` ({} bytes)", data.len()));
            self.fs.write(path, data.clone());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn descriptor_exposes_fs_functions() {
        let s = StorageService::new(MemFs::new());
        let d = s.descriptor();
        for f in
            [names::STORAGE_STORE.name(), names::STORAGE_GET.name(), names::STORAGE_LIST.name()]
        {
            assert!(d.provides().iter().any(|p| p.name() == f), "{f}");
        }
        assert!(d.file_interests().iter().any(|i| i == names::FILE_PHOTO));
    }
}
