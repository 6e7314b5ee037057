//! Experiment F4 (Fig. 4): the PEPt layers are pluggable.
//!
//! The same unmodified service code runs over different transports
//! (in-process hub vs simulated LAN) and different codecs (compact vs
//! self-describing), with identical observable behaviour.

use std::sync::{Arc, Mutex};

use marea::core::{
    ContainerConfig, ContainerStats, Micros, NodeId, ProtoDuration, Service, ServiceContainer,
    ServiceContext, ServiceDescriptor, TimerId, VarPort, VarQos,
};
use marea::encoding::CodecId;
use marea::netsim::{NetConfig, SimNet};
use marea::prelude::*;
use marea::presentation::record;
use marea::transport::{InProcHub, SimLanTransport, Transport};

record! {
    /// The test vocabulary: a struct record moved through a typed port.
    #[derive(Debug, Clone, PartialEq)]
    struct Sample {
        n: u64,
        label: String,
    }
}

fn sample_port() -> VarPort<Sample> {
    VarPort::new("p/value")
}

struct Producer {
    n: u64,
    port: VarPort<Sample>,
}

impl Service for Producer {
    fn descriptor(&self) -> ServiceDescriptor {
        ServiceDescriptor::builder("producer")
            .provides_var(
                &self.port,
                VarQos::periodic(ProtoDuration::from_millis(10), ProtoDuration::from_millis(100)),
            )
            .build()
    }

    fn on_start(&mut self, ctx: &mut ServiceContext<'_>) {
        ctx.set_timer(ProtoDuration::from_millis(10), Some(ProtoDuration::from_millis(10)));
    }

    fn on_timer(&mut self, ctx: &mut ServiceContext<'_>, _id: TimerId) {
        self.n += 1;
        ctx.publish_to(&self.port, Sample { n: self.n, label: format!("s{}", self.n) });
    }
}

struct Consumer {
    got: Arc<Mutex<Vec<u64>>>,
    port: VarPort<Sample>,
}

impl Service for Consumer {
    fn descriptor(&self) -> ServiceDescriptor {
        ServiceDescriptor::builder("consumer")
            .subscribe_to_var(&self.port, VarQos::default())
            .build()
    }

    fn on_variable(
        &mut self,
        _ctx: &mut ServiceContext<'_>,
        _name: &Name,
        value: &Value,
        _stamp: Micros,
    ) {
        if let Ok(sample) = self.port.decode(value) {
            self.got.lock().unwrap().push(sample.n);
        }
    }
}

/// Drives two containers over any pair of transports for 500 simulated
/// milliseconds and returns what the consumer saw.
fn run_pair(
    mut a: ServiceContainer,
    mut b: ServiceContainer,
    advance: impl Fn(u64),
) -> (Vec<u64>, ContainerStats) {
    let got = Arc::new(Mutex::new(Vec::new()));
    a.add_service(Box::new(Producer { n: 0, port: sample_port() })).unwrap();
    b.add_service(Box::new(Consumer { got: got.clone(), port: sample_port() })).unwrap();
    a.start(Micros(0));
    b.start(Micros(0));
    for ms in 1..=500u64 {
        advance(ms * 1000);
        a.tick(Micros(ms * 1000));
        b.tick(Micros(ms * 1000));
    }
    let stats = b.stats();
    let samples = got.lock().unwrap().clone();
    (samples, stats)
}

fn assert_steady(samples: &[u64], label: &str) {
    assert!(samples.len() >= 40, "{label}: steady stream, got {}", samples.len());
    assert!(samples.windows(2).all(|w| w[0] < w[1]), "{label}: monotone");
}

#[test]
fn same_services_run_over_inproc_transport() {
    let hub = InProcHub::new();
    let a = ServiceContainer::new(ContainerConfig::new("a", NodeId(1)), Box::new(hub.attach(1)));
    let b = ServiceContainer::new(ContainerConfig::new("b", NodeId(2)), Box::new(hub.attach(2)));
    let (samples, _) = run_pair(a, b, |_| {});
    assert_steady(&samples, "inproc");
}

#[test]
fn same_services_run_over_simulated_lan() {
    let net = SimNet::new(NetConfig::default());
    let a = ServiceContainer::new(
        ContainerConfig::new("a", NodeId(1)),
        Box::new(SimLanTransport::attach(&net, 1)),
    );
    let b = ServiceContainer::new(
        ContainerConfig::new("b", NodeId(2)),
        Box::new(SimLanTransport::attach(&net, 2)),
    );
    let net2 = net.clone();
    let (samples, _) = run_pair(a, b, move |us| net2.advance_to(us));
    assert_steady(&samples, "simlan");
}

#[test]
fn same_services_run_under_self_describing_codec() {
    let net = SimNet::new(NetConfig::default());
    let mut cfg_a = ContainerConfig::new("a", NodeId(1));
    cfg_a.codec = CodecId::SELF_DESCRIBING;
    let mut cfg_b = ContainerConfig::new("b", NodeId(2));
    cfg_b.codec = CodecId::SELF_DESCRIBING;
    let a = ServiceContainer::new(cfg_a, Box::new(SimLanTransport::attach(&net, 1)));
    let b = ServiceContainer::new(cfg_b, Box::new(SimLanTransport::attach(&net, 2)));
    let net2 = net.clone();
    let (samples, _) = run_pair(a, b, move |us| net2.advance_to(us));
    assert_steady(&samples, "self-describing");
}

#[test]
fn mixed_codec_fleet_interoperates() {
    // Publisher uses the self-describing codec, subscriber defaults to
    // compact: the codec id travels per message, so they interoperate.
    let net = SimNet::new(NetConfig::default());
    let mut cfg_a = ContainerConfig::new("a", NodeId(1));
    cfg_a.codec = CodecId::SELF_DESCRIBING;
    let cfg_b = ContainerConfig::new("b", NodeId(2));
    let a = ServiceContainer::new(cfg_a, Box::new(SimLanTransport::attach(&net, 1)));
    let b = ServiceContainer::new(cfg_b, Box::new(SimLanTransport::attach(&net, 2)));
    let net2 = net.clone();
    let (samples, _) = run_pair(a, b, move |us| net2.advance_to(us));
    assert_steady(&samples, "mixed-codec");
}

#[test]
fn self_describing_codec_costs_more_wire_bytes() {
    // The F4 ablation's point: plugability lets you measure the trade.
    let run_with = |codec: CodecId| -> u64 {
        let net = SimNet::new(NetConfig::default());
        let mut cfg_a = ContainerConfig::new("a", NodeId(1));
        cfg_a.codec = codec;
        let cfg_b = ContainerConfig::new("b", NodeId(2));
        let a = ServiceContainer::new(cfg_a, Box::new(SimLanTransport::attach(&net, 1)));
        let b = ServiceContainer::new(cfg_b, Box::new(SimLanTransport::attach(&net, 2)));
        let net2 = net.clone();
        let (samples, _) = run_pair(a, b, move |us| net2.advance_to(us));
        assert_steady(&samples, "codec-cost");
        net.stats().bytes_sent
    };
    let compact = run_with(CodecId::COMPACT);
    let selfdesc = run_with(CodecId::SELF_DESCRIBING);
    assert!(
        selfdesc > compact + 500,
        "type descriptors cost wire bytes: compact={compact}, self-describing={selfdesc}"
    );
}

#[test]
fn custom_transport_implementation_plugs_in() {
    /// A trivial user-written transport: loopback pair over `std` mpsc.
    #[derive(Debug)]
    struct PipeTransport {
        node: u32,
        tx: std::sync::mpsc::Sender<(u32, bytes::Bytes)>,
        rx: std::sync::mpsc::Receiver<(u32, bytes::Bytes)>,
    }
    impl Transport for PipeTransport {
        fn local_node(&self) -> u32 {
            self.node
        }
        fn mtu(&self) -> usize {
            65_536
        }
        fn send(
            &mut self,
            _dest: marea::transport::TransportDestination,
            frame: bytes::Bytes,
        ) -> Result<(), marea::transport::TransportError> {
            // Two-node world: everything goes to the peer.
            let _ = self.tx.send((self.node, frame));
            Ok(())
        }
        fn recv(&mut self) -> Option<(u32, bytes::Bytes)> {
            self.rx.try_recv().ok()
        }
        fn join(&mut self, _group: u32) {}
        fn leave(&mut self, _group: u32) {}
    }

    let (tx_ab, rx_ab) = std::sync::mpsc::channel();
    let (tx_ba, rx_ba) = std::sync::mpsc::channel();
    let a = ServiceContainer::new(
        ContainerConfig::new("a", NodeId(1)),
        Box::new(PipeTransport { node: 1, tx: tx_ab, rx: rx_ba }),
    );
    let b = ServiceContainer::new(
        ContainerConfig::new("b", NodeId(2)),
        Box::new(PipeTransport { node: 2, tx: tx_ba, rx: rx_ab }),
    );
    let (samples, _) = run_pair(a, b, |_| {});
    assert_steady(&samples, "custom-transport");
}
