//! The benchmark's command line.
//!
//! ```text
//! attbench --workload <fleet-attest|verdict-stream|policy-verify>
//!          --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! Prints a run header (host fingerprint, revision, seed, operation
//! and sample counts, unscaled timings and the host-speed probe's
//! median, input composition) as one JSON line, then the
//! result as the last line: `{"correct", "attempted", "failed",
//! "metrics"}`. Untraced runs report the end-to-end metrics, traced
//! runs the per-layer ones.

use attbench::metrics::{num, quote, result_line, timing};
use attbench::probe::REFERENCE_NS;
use attbench::stats::median;
use attbench::{run_workload, sys, RunSpec};

fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn parse_args(args: &[String]) -> Result<(String, RunSpec), String> {
    let workload = flag(args, "--workload").ok_or("--workload is required")?;
    let number = |name: &str, default: &str| -> Result<u64, String> {
        flag(args, name)
            .unwrap_or(default)
            .parse::<u64>()
            .map_err(|_| format!("bad {name}"))
    };
    let trace = match number("--trace", "0")? {
        0 => false,
        1 => true,
        _ => return Err("--trace takes 0 or 1".to_string()),
    };
    Ok((
        workload.to_string(),
        RunSpec {
            seed: number("--seed", "1")?,
            seconds: number("--seconds", "10")?.max(1),
            trace,
        },
    ))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (workload, spec) = match parse_args(&args) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("attbench: {e}");
            eprintln!("usage: attbench --workload <name> --seed <n> --seconds <n> --trace <0|1>");
            std::process::exit(2);
        }
    };
    // One core for the whole run: the client, the probe and (in
    // verdict-stream) the service's threads, which inherit the pin.
    let nproc = sys::nproc();
    let pinned_cpu = sys::pin_to_one_cpu();
    let outcome = match run_workload(&workload, &spec) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("attbench: {e}");
            std::process::exit(1);
        }
    };
    let peak_rss_mb = sys::peak_rss_mb();
    let root = sys::source_root();
    for e in &outcome.errors {
        eprintln!("attbench: wrong answer: {e}");
    }
    let samples = outcome.e2e.samples.len();
    let mut header = vec![
        ("workload".to_string(), quote(&workload)),
        ("seed".to_string(), spec.seed.to_string()),
        ("seconds".to_string(), spec.seconds.to_string()),
        ("trace".to_string(), u8::from(spec.trace).to_string()),
        ("nproc".to_string(), nproc.to_string()),
        (
            "pinned_cpu".to_string(),
            pinned_cpu.map_or_else(|| quote("none"), |c| c.to_string()),
        ),
        ("cpu_model".to_string(), quote(&sys::cpu_model())),
        ("git_revision".to_string(), quote(&sys::git_revision(&root))),
        (
            "source_sha256".to_string(),
            quote(&sys::source_digest(&root)),
        ),
        ("operations".to_string(), outcome.attempted.to_string()),
        ("failed".to_string(), outcome.failed.to_string()),
        (
            "fail_rate".to_string(),
            num(outcome.failed as f64 / outcome.attempted.max(1) as f64),
        ),
        ("latency_samples".to_string(), samples.to_string()),
        (
            "latency_samples_beyond_p99".to_string(),
            (samples - (samples as f64 * 0.99).ceil() as usize).to_string(),
        ),
    ];
    // The same figures before scaling to the reference host speed, and
    // the probe's median pass time: how fast the host ran in this run.
    let e2e = &outcome.e2e;
    let ns = |v: &[attbench::Sample]| -> Vec<u64> { v.iter().map(|s| s.lat_ns).collect() };
    let units = e2e.samples.iter().map(|s| s.units).sum();
    let unscaled = timing(&ns(&e2e.setups), &ns(&e2e.samples), units);
    for (name, v) in [
        "setup_s",
        "throughput_per_s",
        "latency_p50_us",
        "latency_p99_us",
    ]
    .iter()
    .zip(unscaled)
    {
        header.push((format!("unscaled_{name}"), num(v)));
    }
    let probes: Vec<u64> = e2e.samples.iter().map(|s| s.probe_ns).collect();
    header.push(("probe_median_ns".to_string(), median(&probes).to_string()));
    header.push(("probe_reference_ns".to_string(), REFERENCE_NS.to_string()));
    for (k, v) in &outcome.facts {
        let value = if v.parse::<f64>().is_ok() {
            v.clone()
        } else {
            quote(v)
        };
        header.push((k.clone(), value));
    }
    let fields: Vec<String> = header
        .iter()
        .map(|(k, v)| format!("{}: {v}", quote(k)))
        .collect();
    println!("{{\"header\": {{{}}}}}", fields.join(", "));
    println!("{}", result_line(&outcome, spec.trace, peak_rss_mb));
}
