//! `attbench`: the continuous-attestation benchmark.
//!
//! Three workloads drive the program's public APIs and check every
//! answer:
//!
//! * [`fleet`] (`fleet-attest`): seeded multi-flow traffic through a
//!   3-hop `standard_fleet`, every switch attesting every packet out of
//!   band; rounds on freshly built fleets.
//! * [`verdict`] (`verdict-stream`): a closed-loop relying party
//!   submits one nonce's churn-model evidence and appraises it through
//!   a live `pda serve`-shaped service.
//! * [`policy`] (`policy-verify`): admission checks of spine-leaf
//!   fabric policy updates (equivalence, reachability, verified slice).
//!
//! Each workload is one closed-loop client. A fixed kernel of the
//! benchmark's own ([`probe`]) runs before and after every operation
//! and set-up, and the end-to-end times are reported at the host speed
//! it was calibrated at ([`probe::normalised_ns`]).
//!
//! An untraced run reports end-to-end metrics; a traced run (`--trace
//! 1`) wraps benchmark-side spans around calls into each module's
//! public functions ([`trace`]) and reports per-layer metrics.

pub mod fleet;
pub mod metrics;
pub mod policy;
pub mod probe;
pub mod rng;
pub mod stats;
pub mod sys;
pub mod trace;
pub mod verdict;

/// What one run of a workload is asked to do.
#[derive(Clone, Debug)]
pub struct RunSpec {
    /// Input seed: the same seed yields the same inputs.
    pub seed: u64,
    /// Nominal run length. Work is fixed per `seconds` value (an
    /// operation count proportional to it), so counts and memory
    /// compare across commits; the run lasts about this long here.
    pub seconds: u64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
}

/// One timed (untraced) operation or set-up.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Sample {
    /// Its time, ns: thread CPU time where the work runs on the client
    /// thread alone (`fleet-attest`, `policy-verify`), else wall time.
    pub lat_ns: u64,
    /// Units of work it completed (packets for a fleet round, else 1).
    pub units: u64,
    /// The mean of the host-speed probe's pass times just before and
    /// just after it, ns ([`probe::pass`]).
    pub probe_ns: u64,
}

/// End-to-end figures every workload reports.
#[derive(Clone, Debug, Default)]
pub struct EndToEnd {
    /// Program set-ups, in the order they ran.
    pub setups: Vec<Sample>,
    /// Untraced operations, in issue order.
    pub samples: Vec<Sample>,
}

/// The result of one workload run, before rendering.
#[derive(Clone, Debug, Default)]
pub struct Outcome {
    /// Operations attempted (the unit is workload-specific).
    pub attempted: u64,
    /// Operations that failed or returned a wrong answer.
    pub failed: u64,
    /// End-to-end figures, from the untraced operations.
    pub e2e: EndToEnd,
    /// Per-layer metrics by name (traced runs only).
    pub layers: Vec<(String, f64)>,
    /// Workload-specific header facts (input shares, sizes).
    pub facts: Vec<(String, String)>,
    /// Why the run is not correct, when it is not.
    pub errors: Vec<String>,
}

impl Outcome {
    /// Record a wrong or failed operation, keeping the first few
    /// messages for the report.
    pub fn fail(&mut self, msg: impl Into<String>) {
        self.failed += 1;
        if self.errors.len() < 8 {
            self.errors.push(msg.into());
        }
    }
}

/// Operations at the start of a run of `n` whose times are left out of
/// every timing metric (they are still checked). On the reference host
/// the first second or so of a CPU-bound run is up to 3.5× slower than
/// the rest, and how long that lasts varies from run to run; inside the
/// p99 tail that would decide the percentile.
pub fn warm_up(n: usize) -> usize {
    n / 10
}

/// Run operations `0..n` from one closed-loop client on the calling
/// thread: each starts when the last one completes, and a pass of the
/// host-speed probe runs between two operations and at either end.
/// `op` gets the index and the tracer. Returns, in index order, each
/// operation's probe time (ns: the mean of the passes on either side of
/// it) with its result, and the spans.
pub fn closed_loop<T>(
    n: usize,
    origin: std::time::Instant,
    mut op: impl FnMut(usize, &mut trace::Tracer) -> T,
) -> (Vec<(u64, T)>, trace::Tracer) {
    let mut tracer = trace::Tracer::new(origin);
    let mut before = probe::pass();
    let results = (0..n)
        .map(|i| {
            let result = op(i, &mut tracer);
            let after = probe::pass();
            let probe_ns = (before + after) / 2;
            before = after;
            (probe_ns, result)
        })
        .collect();
    (results, tracer)
}

/// Run one named workload.
pub fn run_workload(name: &str, spec: &RunSpec) -> Result<Outcome, String> {
    match name {
        fleet::NAME => Ok(fleet::run(spec)),
        verdict::NAME => verdict::run(spec),
        policy::NAME => Ok(policy::run(spec)),
        other => Err(format!(
            "unknown workload {other:?} (want {}, {} or {})",
            fleet::NAME,
            verdict::NAME,
            policy::NAME
        )),
    }
}

/// Directory (relative to the working directory) that traced runs
/// write their span files into.
pub const TRACE_DIR: &str = ".bench_out";

/// Write a traced run's spans to `.bench_out/trace-<workload>-seed<n>.jsonl`.
pub fn write_trace(workload: &str, seed: u64, tracer: &trace::Tracer) {
    let path = std::path::Path::new(TRACE_DIR).join(format!("trace-{workload}-seed{seed}.jsonl"));
    if let Err(e) = tracer.write_jsonl(&path) {
        eprintln!("attbench: could not write {}: {e}", path.display());
    }
}
