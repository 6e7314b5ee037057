//! Metrics-timeline determinism over the chaos corpus: sampling a full
//! scenario (crashes, loss ramps, link churn) must be a pure function
//! of the seed, down to the rendered bytes.

use marea_core::metrics::MetricsConfig;
use marea_core::scenario::corpus;
use marea_core::{ContainerStats, LatencySummary, ProtoDuration, Stat};

fn timeline_of(name: &str, seed: u64) -> (String, u64) {
    let mut chaos =
        corpus::build(name, &corpus::ScenarioConfig::quick(seed)).expect("known corpus scenario");
    chaos
        .runner
        .harness_mut()
        .enable_metrics(MetricsConfig { period: ProtoDuration::from_millis(100), capacity: 8192 });
    let report = chaos.run();
    assert!(report.passed(), "`{name}`: {:#?}", report.violations);
    let h = chaos.runner.into_harness();
    let sampler = h.metrics().expect("sampler enabled");
    (sampler.to_jsonl(), sampler.samples())
}

/// Same seed ⇒ byte-identical timeline on two corpus scenarios with very
/// different failure modes (a clean loss ramp and a crash/failover script).
#[test]
fn same_seed_timeline_is_byte_identical_across_corpus_scenarios() {
    let mut timelines = Vec::new();
    for name in ["radio_degradation_ramp", "publisher_failover"] {
        let (jsonl_a, samples_a) = timeline_of(name, 42);
        let (jsonl_b, samples_b) = timeline_of(name, 42);
        assert!(samples_a > 0, "`{name}`: the sampler must have fired");
        assert_eq!(samples_a, samples_b, "`{name}`: same sample count");
        assert_eq!(jsonl_a, jsonl_b, "`{name}`: same seed, same JSONL bytes");
        timelines.push(jsonl_a);
    }
    // The two scenarios produce genuinely different timelines, so the
    // equalities above are not vacuous (e.g. an empty sampler).
    assert_ne!(timelines[0], timelines[1], "distinct scenarios must have distinct timelines");
}

/// The timeline carries real per-node activity from the scenario: node
/// frames for every container and non-zero delivery deltas somewhere.
#[test]
fn corpus_timeline_carries_per_node_activity() {
    let (jsonl, _) = timeline_of("publisher_failover", 7);
    assert!(jsonl.lines().count() > 3, "timeline has frames:\n{jsonl}");
    assert!(jsonl.lines().any(|l| l.contains("\"kind\":\"node\"")), "node frames present");
    assert!(jsonl.lines().last().unwrap().starts_with("{\"kind\":\"summary\""));
}

/// `ContainerStats` is the frame schema: every counter it declares —
/// nested groups and histograms included — is a key of every node
/// frame, so a counter added to `stats.rs` cannot miss the timeline.
#[test]
fn every_container_counter_is_a_key_of_a_node_frame() {
    let (jsonl, _) = timeline_of("publisher_failover", 7);
    let frame = jsonl.lines().find(|l| l.contains("\"kind\":\"node\"")).expect("a node frame");
    let mut keys = Vec::new();
    ContainerStats::<LatencySummary>::default().walk("", &mut |prefix, name, value| match value {
        Stat::Scalar(_) => keys.push(format!("{prefix}{name}")),
        Stat::Latency(_) => {
            keys.extend(["count", "p50_us", "p99_us", "p999_us"].map(|q| format!("{name}.{q}")))
        }
    });
    for key in &keys {
        assert!(frame.contains(&format!("\"{key}\":")), "`{key}` missing from {frame}");
    }
    for expected in [
        "ticks",
        "catalogue_pulls",
        "beacon_repeats",
        "queue_peak",
        "call_errors",
        "old_samples_dropped",
        "foreign_drops",
        "services_failed",
        "file_bypass_deliveries",
        "type_mismatches.vars",
        "qos.stale_drops",
        "fec.recovered",
        "rto_recovery.p99_us",
    ] {
        assert!(keys.iter().any(|k| k == expected), "`{expected}` is not in the schema walk");
    }
}
