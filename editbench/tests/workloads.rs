//! Tiny configurations of every workload: every end-to-end metric the
//! manifest names is produced, and a wrong reference is counted as
//! failed.

use editbench::{run, EditStream, Workload};

mod common;

use common::assert_names;

#[test]
fn every_end_to_end_metric_is_present_and_correct() {
    for workload in Workload::ALL {
        let result = run(&workload.tiny(), 7, 0.0, false);
        assert_eq!(
            result.failed(),
            0,
            "{:?}",
            result.errors().collect::<Vec<_>>()
        );
        assert!(result.attempted() > 0);
        assert!(result.p90().1 >= 10);
        let metrics = result.end_to_end();
        assert_names(&metrics, "end_to_end");
        assert!(metrics.iter().all(|m| m.value > 0.0), "{metrics:?}");
        let json = result.to_json();
        assert!(
            json.starts_with("{\"correct\": true, \"attempted\": "),
            "{json}"
        );
        assert!(json.contains("\"edit_ms_p90\": {\"value\": "), "{json}");
    }
}

#[test]
fn a_corrupted_reference_is_counted_as_failed() {
    for workload in Workload::ALL {
        let spec = editbench::Spec {
            reference_skew: 0.5,
            ..workload.tiny()
        };
        let result = run(&spec, 7, 0.0, false);
        assert!(result.failed_share() > 0.0, "{}", workload.name());
        assert!(result.to_json().starts_with("{\"correct\": false"));
    }
}

#[test]
fn streams_are_determined_by_the_seed() {
    for workload in Workload::ALL {
        let spec = workload.tiny();
        let a = EditStream::generate(&spec, 3);
        assert_eq!(a.sources, EditStream::generate(&spec, 3).sources);
        assert!((4..10).any(|seed| EditStream::generate(&spec, seed).sources != a.sources));
        assert_eq!(a.edits(), spec.edits);
        for source in &a.sources {
            ppl::parse(source).expect("generated source parses");
        }
    }
}
