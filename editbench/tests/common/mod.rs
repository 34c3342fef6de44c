//! The benchmark manifest, read by the tests to check metric names.

use editbench::Metric;

const MANIFEST: &str = include_str!("../../../BENCHMARK.json");

/// Metric names listed in the manifest section `section`.
fn manifest_names(section: &str) -> Vec<String> {
    let start = MANIFEST
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("manifest has no {section}"));
    let body = &MANIFEST[start..];
    let body = &body[..body.find(']').expect("section is a list")];
    body.split("\"name\": \"")
        .skip(1)
        .map(|s| s[..s.find('"').expect("closing quote")].to_string())
        .collect()
}

/// Asserts that `metrics` are exactly the manifest section `section`, in
/// order, and all finite.
pub fn assert_names(metrics: &[Metric], section: &str) {
    let names: Vec<String> = metrics.iter().map(|m| m.name.to_string()).collect();
    assert_eq!(names, manifest_names(section));
    for m in metrics {
        assert!(m.value.is_finite(), "{} = {}", m.name, m.value);
    }
}
