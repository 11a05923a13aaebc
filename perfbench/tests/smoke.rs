//! Small-size smoke runs: every workload, both modes.

use perfbench::bench::{self, Options, END_TO_END, PER_LAYER};
use perfbench::session;
use perfbench::stream::Workload;
use perfbench::traced;

/// Iterations per workload for a smoke run: long enough for traces to
/// be found and replayed, short enough for a debug build.
fn smoke_iters(w: Workload) -> usize {
    match w {
        Workload::S3d => 40,
        Workload::Cfd => 60,
        Workload::RandomGated => 300,
    }
}

fn smoke(w: Workload, trace: bool) -> bench::Outcome {
    bench::run(&Options {
        workload: w,
        seed: 3,
        seconds: 0.0,
        trace,
        iters: Some(smoke_iters(w)),
        spans: None,
    })
}

/// Metric names listed under `section` in `BENCHMARK.json`.
fn listed(section: &str) -> Vec<String> {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let start = text.find(&format!("\"{section}\"")).expect("section present");
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section is a list")];
    body.split("\"name\": \"").skip(1).map(|s| s[..s.find('"').unwrap()].to_string()).collect()
}

#[test]
fn end_to_end_runs_are_correct_and_complete() {
    let names: Vec<&str> = END_TO_END.iter().map(|(n, _)| *n).collect();
    assert_eq!(listed("end_to_end"), names, "BENCHMARK.json end_to_end names");
    for w in Workload::ALL {
        let out = smoke(w, false);
        assert!(out.correct, "{}: {:?}", w.name(), out.notes);
        assert_eq!(out.failed, 0);
        let got: Vec<&str> = out.metrics.iter().map(|(n, _, _)| *n).collect();
        assert_eq!(got, names, "{}", w.name());
        for (name, value, _) in &out.metrics {
            assert!(value.is_finite() && *value > 0.0, "{}: {name} = {value}", w.name());
        }
        check_json_shape(&out.json(), &names);
    }
}

#[test]
fn traced_runs_are_correct_and_complete() {
    let names: Vec<&str> = PER_LAYER.iter().map(|(n, _)| *n).collect();
    assert_eq!(listed("per_layer"), names, "BENCHMARK.json per_layer names");
    for w in Workload::ALL {
        let out = smoke(w, true);
        assert!(out.correct, "{}: {:?}", w.name(), out.notes);
        let got: Vec<&str> = out.metrics.iter().map(|(n, _, _)| *n).collect();
        assert_eq!(got, names, "{}", w.name());
        check_json_shape(&out.json(), &names);
    }
}

#[test]
fn traced_assembly_reproduces_the_session() {
    for w in Workload::ALL {
        let stream = w.record(5, smoke_iters(w));
        let t = traced::run(w, &stream);
        let s = session::run(w, &stream, apophenia::Tracing::Auto(w.config()));
        assert_eq!(t.digest, s.digest, "{}: op digest", w.name());
        assert_eq!(t.report, s.report, "{}: report", w.name());
        assert_eq!(t.stats, s.stats, "{}: stats", w.name());
        assert_eq!(s.stats.tasks_total, stream.tasks);
        if w != Workload::RandomGated {
            assert!(s.stats.tasks_replayed > 0, "{}: nothing replayed", w.name());
        }
    }
}

#[test]
fn streams_are_a_function_of_the_seed() {
    for w in Workload::ALL {
        let iters = smoke_iters(w);
        let a = w.record(7, iters);
        assert_eq!(a.digest(), w.record(7, iters).digest(), "{}", w.name());
        assert_ne!(a.digest(), w.record(8, iters).digest(), "{}", w.name());
        let b = w.record(8, iters);
        assert_eq!((a.tasks, a.iterations), (b.tasks, b.iterations), "{}", w.name());
    }
}

/// `{"correct": .., "attempted": .., "failed": .., "metrics": {...}}`
/// with every metric as `{"value": <number>, "unit": "<unit>"}`.
fn check_json_shape(json: &str, names: &[&str]) {
    assert!(json.starts_with("{\"correct\": true, \"attempted\": "), "{json}");
    assert!(json.contains(", \"failed\": 0, \"metrics\": {"), "{json}");
    assert!(json.ends_with("}}"), "{json}");
    assert!(!json.contains('\n'));
    for name in names {
        let key = format!("\"{name}\": {{\"value\": ");
        let at = json.find(&key).unwrap_or_else(|| panic!("{name} missing: {json}"));
        let rest = &json[at + key.len()..];
        let number = &rest[..rest.find(',').unwrap()];
        assert!(number.parse::<f64>().is_ok(), "{name}: {number}");
        assert!(rest[number.len()..].starts_with(", \"unit\": \""), "{name}");
    }
}
