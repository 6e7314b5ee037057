//! Shared test services: a Recorder that logs every handler invocation and
//! a couple of tiny providers.

use std::sync::{Arc, Mutex};

use bytes::Bytes;
use marea_core::{
    CallError, CallHandle, FileEvent, Micros, ProviderNotice, Service, ServiceContext,
    ServiceDescriptor, TimerId,
};
use marea_presentation::{Name, Value};

/// Everything a [`Recorder`] observes.
#[derive(Debug, Clone, PartialEq)]
#[allow(dead_code, reason = "variants are matched per-test")]
pub enum Obs {
    Started,
    Stopped,
    Var(String, Value),
    VarTimeout(String),
    Event(String, Option<Value>),
    Reply(u64, Result<Value, String>),
    File(String),
    FileData(String, u32, Bytes),
    Provider(String),
    Timer(u64),
}

/// Shared observation log.
pub type ObsLog = Arc<Mutex<Vec<(Micros, Obs)>>>;

/// Creates an empty log.
pub fn obs_log() -> ObsLog {
    Arc::new(Mutex::new(Vec::new()))
}

/// Snapshot helper.
pub fn observations(log: &ObsLog) -> Vec<(Micros, Obs)> {
    log.lock().unwrap().clone()
}

/// A service that records every handler invocation into a shared log.
/// Its descriptor is injected, so tests can subscribe it to anything.
pub struct Recorder {
    descriptor: ServiceDescriptor,
    log: ObsLog,
}

impl Recorder {
    pub fn new(descriptor: ServiceDescriptor, log: ObsLog) -> Self {
        Recorder { descriptor, log }
    }

    fn push(&self, ctx: &ServiceContext<'_>, obs: Obs) {
        self.log.lock().unwrap().push((ctx.now(), obs));
    }
}

impl Service for Recorder {
    fn descriptor(&self) -> ServiceDescriptor {
        self.descriptor.clone()
    }

    fn on_start(&mut self, ctx: &mut ServiceContext<'_>) {
        self.push(ctx, Obs::Started);
    }

    fn on_stop(&mut self, ctx: &mut ServiceContext<'_>) {
        self.push(ctx, Obs::Stopped);
    }

    fn on_variable(
        &mut self,
        ctx: &mut ServiceContext<'_>,
        name: &Name,
        value: &Value,
        _stamp: Micros,
    ) {
        self.push(ctx, Obs::Var(name.to_string(), value.clone()));
    }

    fn on_variable_timeout(&mut self, ctx: &mut ServiceContext<'_>, name: &Name) {
        self.push(ctx, Obs::VarTimeout(name.to_string()));
    }

    fn on_event(
        &mut self,
        ctx: &mut ServiceContext<'_>,
        name: &Name,
        value: Option<&Value>,
        _stamp: Micros,
    ) {
        self.push(ctx, Obs::Event(name.to_string(), value.cloned()));
    }

    fn on_reply(
        &mut self,
        ctx: &mut ServiceContext<'_>,
        handle: CallHandle,
        result: Result<Value, CallError>,
    ) {
        self.push(ctx, Obs::Reply(handle.0 .0, result.map_err(|e| e.to_string())));
    }

    fn on_file_event(&mut self, ctx: &mut ServiceContext<'_>, event: &FileEvent) {
        match event {
            FileEvent::Received { resource, revision, data } => {
                let obs = Obs::FileData(resource.to_string(), *revision, data.clone());
                self.push(ctx, obs);
            }
            other => {
                let tag = match other {
                    FileEvent::Announced { resource, .. } => format!("announced:{resource}"),
                    FileEvent::DistributionComplete { resource, .. } => {
                        format!("distributed:{resource}")
                    }
                    FileEvent::Received { .. } => unreachable!(),
                };
                self.push(ctx, Obs::File(tag));
            }
        }
    }

    fn on_provider_change(&mut self, ctx: &mut ServiceContext<'_>, notice: &ProviderNotice) {
        self.push(ctx, Obs::Provider(format!("{notice:?}")));
    }

    fn on_timer(&mut self, ctx: &mut ServiceContext<'_>, id: TimerId) {
        self.push(ctx, Obs::Timer(id.0));
    }
}

/// A closure-driven service: descriptor plus per-hook callbacks supplied by
/// the test. Only the hooks a test needs are set.
#[allow(clippy::type_complexity, reason = "one boxed closure type per hook")]
pub struct Scripted {
    pub descriptor: ServiceDescriptor,
    pub on_start: Option<Box<dyn FnMut(&mut ServiceContext<'_>) + Send>>,
    pub on_timer: Option<Box<dyn FnMut(&mut ServiceContext<'_>, TimerId) + Send>>,
    pub on_event: Option<Box<dyn FnMut(&mut ServiceContext<'_>, &Name, Option<&Value>) + Send>>,
    pub on_call: Option<
        Box<dyn FnMut(&mut ServiceContext<'_>, &Name, &[Value]) -> Result<Value, String> + Send>,
    >,
    pub on_variable: Option<Box<dyn FnMut(&mut ServiceContext<'_>, &Name, &Value) + Send>>,
    pub on_file_event: Option<Box<dyn FnMut(&mut ServiceContext<'_>, &FileEvent) + Send>>,
    pub on_reply: Option<
        Box<dyn FnMut(&mut ServiceContext<'_>, CallHandle, Result<Value, CallError>) + Send>,
    >,
    pub on_provider_change: Option<Box<dyn FnMut(&mut ServiceContext<'_>, &ProviderNotice) + Send>>,
}

impl Scripted {
    pub fn new(descriptor: ServiceDescriptor) -> Self {
        Scripted {
            descriptor,
            on_start: None,
            on_timer: None,
            on_event: None,
            on_call: None,
            on_variable: None,
            on_file_event: None,
            on_reply: None,
            on_provider_change: None,
        }
    }
}

impl Service for Scripted {
    fn descriptor(&self) -> ServiceDescriptor {
        self.descriptor.clone()
    }

    fn on_start(&mut self, ctx: &mut ServiceContext<'_>) {
        if let Some(f) = &mut self.on_start {
            f(ctx);
        }
    }

    fn on_timer(&mut self, ctx: &mut ServiceContext<'_>, id: TimerId) {
        if let Some(f) = &mut self.on_timer {
            f(ctx, id);
        }
    }

    fn on_event(
        &mut self,
        ctx: &mut ServiceContext<'_>,
        name: &Name,
        value: Option<&Value>,
        _stamp: Micros,
    ) {
        if let Some(f) = &mut self.on_event {
            f(ctx, name, value);
        }
    }

    fn on_call(
        &mut self,
        ctx: &mut ServiceContext<'_>,
        function: &Name,
        args: &[Value],
    ) -> Result<Value, String> {
        match &mut self.on_call {
            Some(f) => f(ctx, function, args),
            None => Err("no handler".into()),
        }
    }

    fn on_variable(
        &mut self,
        ctx: &mut ServiceContext<'_>,
        name: &Name,
        value: &Value,
        _stamp: Micros,
    ) {
        if let Some(f) = &mut self.on_variable {
            f(ctx, name, value);
        }
    }

    fn on_file_event(&mut self, ctx: &mut ServiceContext<'_>, event: &FileEvent) {
        if let Some(f) = &mut self.on_file_event {
            f(ctx, event);
        }
    }

    fn on_reply(
        &mut self,
        ctx: &mut ServiceContext<'_>,
        handle: CallHandle,
        result: Result<Value, CallError>,
    ) {
        if let Some(f) = &mut self.on_reply {
            f(ctx, handle, result);
        }
    }

    fn on_provider_change(&mut self, ctx: &mut ServiceContext<'_>, notice: &ProviderNotice) {
        if let Some(f) = &mut self.on_provider_change {
            f(ctx, notice);
        }
    }
}
