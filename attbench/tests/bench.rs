//! The benchmark's own checks: inputs are a pure function of the seed,
//! the verdict-stream ground truth agrees with `run_churn`, and
//! every printed metric name matches `BENCHMARK.json`.

use attbench::metrics::{result_line, END_TO_END, PER_LAYER};
use attbench::verdict::{churn_config, generate, generate_ops, Expect, Service};
use attbench::{fleet, policy, verdict, Outcome};
use pda_svc::{run_churn, SvcClient};
use pda_telemetry::json::{parse, Json};

fn wire(inputs: &verdict::Inputs) -> Vec<u8> {
    let mut out = Vec::new();
    for op in &inputs.ops {
        out.extend_from_slice(&op.nonce.to_be_bytes());
        out.push(op.expect as u8);
        for r in &op.records {
            r.write_wire(&mut out);
        }
    }
    out
}

#[test]
fn same_seed_yields_byte_identical_inputs() {
    for round in [0, 1, 17] {
        assert_eq!(
            fleet::round_packets(7, round),
            fleet::round_packets(7, round)
        );
    }
    assert_ne!(fleet::round_packets(7, 0), fleet::round_packets(8, 0));
    assert_ne!(fleet::round_packets(7, 0), fleet::round_packets(7, 1));

    let checks = |seed| {
        (0..50)
            .map(|i| policy::gen_check(seed, i))
            .collect::<Vec<_>>()
    };
    assert_eq!(checks(7), checks(7));
    assert_ne!(checks(7), checks(8));

    let a = generate_ops(7, 300);
    let b = generate_ops(7, 300);
    assert_eq!(a.ops.len(), 300);
    assert_eq!(wire(&a), wire(&b));
    assert_ne!(wire(&a), wire(&generate_ops(8, 300)));
}

#[test]
fn policy_candidates_generalise_the_corpus_variants() {
    use attbench::policy::{candidate_policy, Candidate};
    use pda_netkat::corpus::{fabric_step, fabric_step_broken};
    use pda_netkat::equivalent;
    for n in [4, 16] {
        let broken = Candidate::Broken { leaf: n, port: 3 };
        assert_eq!(candidate_policy(n, broken), fabric_step_broken(n));
        for leaf in 1..=n {
            let redundant = Candidate::Redundant {
                first: leaf,
                dup: n + 1 - leaf,
                dead: leaf,
            };
            assert!(equivalent(&fabric_step(n), &candidate_policy(n, redundant)));
            let broken = Candidate::Broken { leaf, port: 5 };
            assert!(!equivalent(&fabric_step(n), &candidate_policy(n, broken)));
        }
    }
    // Checks mostly differ from each other.
    let keys: std::collections::HashSet<_> = (0..500)
        .map(|i| {
            let c = policy::gen_check(3, i);
            (c.leaves, c.candidate)
        })
        .collect();
    assert!(keys.len() > 450, "{} distinct of 500", keys.len());
    assert!((0..500).all(|i| (16..=256).contains(&policy::gen_check(3, i).leaves)));
}

#[test]
fn fleet_rounds_mix_minimum_frames_with_a_tail() {
    let frames = fleet::round_packets(3, 0);
    assert_eq!(frames.len(), fleet::ROUND_PACKETS);
    let min = frames.iter().filter(|f| f.len() == 64).count();
    assert!(min * 2 > frames.len(), "mostly minimum-size frames");
    assert!(frames.iter().any(|f| f.len() > 64));
    assert!(frames.iter().all(|f| f.len() <= 1500));
}

#[test]
fn ground_truth_agrees_with_run_churn() {
    let config = churn_config(11, 12);

    // `run_churn`'s own run and its report.
    let service = Service::start().expect("service starts");
    let client = SvcClient::new(service.server.addr);
    let report = run_churn(&client, &config).expect("churn run completes");
    drop(client);
    service.stop();

    // The benchmark's generator on the same config, appraised through
    // a fresh service one nonce at a time.
    let inputs = generate(&config, 0.0);
    let service = Service::start().expect("service starts");
    let client = SvcClient::new(service.server.addr);
    let mut accepted = 0;
    for op in &inputs.ops {
        client.submit_evidence(&op.records).expect("submit");
        let verdict = client.appraise(op.nonce).expect("appraise");
        let ok = verdict.get("ok").and_then(Json::as_bool).expect("verdict");
        assert!(
            op.expect.admits(ok),
            "nonce {}: ok={ok} vs {:?}",
            op.nonce,
            op.expect
        );
        accepted += u64::from(ok);
    }
    drop(client);
    service.stop();

    assert_eq!(report.rogue_epochs, inputs.rogue_epochs);
    assert_eq!(report.appraisals, inputs.ops.len() as u64);
    assert_eq!(report.records_submitted, inputs.records);
    assert_eq!(report.packets_lost, inputs.packets_lost);
    assert_eq!(
        report.incomplete_chains,
        inputs.incomplete_ops() as u64 + inputs.packets_lost
    );
    assert_eq!(report.accepted, accepted);
    assert_eq!(report.correct, report.appraisals);
    assert!(inputs.rogue_ops() > 0, "the config exercises rogue epochs");
    assert!(inputs.ops.iter().any(|o| o.expect == Expect::Accept));
}

fn benchmark_json() -> Json {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json exists");
    parse(&text).expect("BENCHMARK.json parses")
}

fn names(list: &Json) -> Vec<(String, String, String)> {
    list.as_arr()
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).and_then(Json::as_str).expect(k).to_string();
            (field("name"), field("unit"), field("better"))
        })
        .collect()
}

#[test]
fn printed_metrics_match_benchmark_json() {
    let spec = benchmark_json();
    let catalogue = |defs: &[attbench::metrics::MetricDef]| {
        defs.iter()
            .map(|d| (d.name.to_string(), d.unit.to_string(), d.better.to_string()))
            .collect::<Vec<_>>()
    };
    assert_eq!(
        names(spec.get("end_to_end").unwrap()),
        catalogue(END_TO_END)
    );
    assert_eq!(names(spec.get("per_layer").unwrap()), catalogue(PER_LAYER));
    let workloads: Vec<&str> = spec
        .get("workloads")
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).unwrap())
        .collect();
    assert_eq!(workloads, [fleet::NAME, verdict::NAME, policy::NAME]);

    // The rendered result line carries exactly the catalogue's names.
    for (trace, defs) in [(false, END_TO_END), (true, PER_LAYER)] {
        let outcome = Outcome {
            attempted: 1,
            ..Outcome::default()
        };
        let line = parse(&result_line(&outcome, trace, 1.0)).expect("result line is JSON");
        let keys: Vec<&str> = line
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let printed: Vec<(String, String)> = line
            .get("metrics")
            .and_then(Json::as_obj)
            .unwrap()
            .iter()
            .map(|(k, v)| {
                (
                    k.clone(),
                    v.get("unit").and_then(Json::as_str).unwrap().to_string(),
                )
            })
            .collect();
        let expected: Vec<(String, String)> = defs
            .iter()
            .map(|d| (d.name.to_string(), d.unit.to_string()))
            .collect();
        assert_eq!(printed, expected);
    }
}
