//! Traced runs of tiny configurations: every per-layer metric the
//! manifest names is produced. A test binary of its own, because the
//! metrics recorder is process-global and would count other tests' work.

mod common;

use common::assert_names;
use editbench::{run, Workload};

#[test]
fn every_per_layer_metric_is_present() {
    for workload in Workload::ALL {
        let result = run(&workload.tiny(), 7, 0.0, true);
        assert_eq!(
            result.failed(),
            0,
            "{:?}",
            result.errors().collect::<Vec<_>>()
        );
        assert!(!result.traced.is_empty());
        let metrics = result.per_layer();
        assert_names(&metrics, "per_layer");
        let value = |name: &str| {
            metrics
                .iter()
                .find(|m| m.name == name)
                .map(|m| m.value)
                .unwrap_or_else(|| panic!("missing {name}"))
        };
        assert!(value("depgraph.propagate.us_per_particle") > 0.0);
        assert!(value("incremental.forward.reexec_ms_per_edit") > 0.0);
        assert!(value("depgraph.record.segments_per_graph") > 0.0);
        assert!(value("incremental.pool.tasks_per_edit") > 0.0);
        assert!(value("incremental.pool.speedup") > 0.0);
    }
}
