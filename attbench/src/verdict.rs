//! `verdict-stream`: the consuming half of continuous attestation.
//!
//! One closed-loop relying party drives a pooled [`SvcClient`] against
//! a live appraisal service built as `pda serve` builds it (3
//! appraisers, majority quorum, 4 workers, keep-alive, collecting
//! telemetry). One operation submits one nonce's
//! evidence records and then appraises that nonce; its latency runs
//! from the start of the submit to the verdict.
//!
//! Evidence comes from the churn model before timing starts: fresh
//! fleets per epoch, seeded link loss, control loss with retries, link
//! duplication (duplicate records), and a rogue `sw1` reload every few
//! epochs. The ground truth is the rule of `run_churn`: complete clean
//! chains must be accepted, complete rogue chains rejected, and
//! truncated chains are indeterminate.

use crate::metrics::Layers;
use crate::stats::median;
use crate::trace::{span_opt, Tracer};
use crate::{closed_loop, Outcome, RunSpec, Sample};
use pda_crypto::keyreg::PrincipalId;
use pda_crypto::nonce::Nonce;
use pda_crypto::sig;
use pda_netsim::{ControlRetryPolicy, EvidenceMode, FaultPlan, LinkFaults};
use pda_pera::evidence::assemble_chain;
use pda_pera::EvidenceRecord;
use pda_svc::fleet::{enroll_fleet_golden, fleet_registry, standard_fleet};
use pda_svc::http::{parse_request, parse_response_bytes, HttpParse, HttpRequest, ResponseParse};
use pda_svc::rpc::{from_hex, parse_response, to_hex, RpcRequest};
use pda_svc::{
    rogue_reload, serve_with, AppraisalService, Appraiser, ChurnConfig, Federation, Handler,
    ServeOptions, ServerHandle, SvcClient, SvcConfig,
};
use pda_telemetry::json::Json;
use pda_telemetry::{Telemetry, TraceCtx};
use std::sync::Arc;
use std::time::Instant;

/// Workload name.
pub const NAME: &str = "verdict-stream";
/// Operations per second of `--seconds`.
const OPS_PER_SECOND: u64 = 3_500;
/// Packets each churn epoch attests.
const PACKETS_PER_EPOCH: usize = 16;
/// Health calls that warm the client's pool before timing.
const WARMUP_CALLS: usize = 4;
/// Operations between two timed set-ups, after the warm-up.
const SETUP_EVERY: usize = 100;
/// Operations replayed through the bare layers in a traced run.
const REPLAY_OPS: usize = 2_000;

/// The verdict the ground truth demands.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Expect {
    /// Complete chain from a clean epoch.
    Accept,
    /// Complete chain from a rogue epoch.
    Reject,
    /// Truncated chain: either verdict is correct.
    Indeterminate,
}

impl Expect {
    /// Does verdict `ok` satisfy this expectation?
    pub fn admits(self, ok: bool) -> bool {
        match self {
            Expect::Accept => ok,
            Expect::Reject => !ok,
            Expect::Indeterminate => true,
        }
    }
}

/// One operation's input: a nonce and the records the collector holds
/// for it (possibly duplicated or truncated).
#[derive(Clone, Debug)]
pub struct Op {
    /// The attested packet's nonce.
    pub nonce: u64,
    /// Its evidence records, in collector arrival order.
    pub records: Vec<EvidenceRecord>,
    /// Ground truth.
    pub expect: Expect,
}

/// Generated evidence plus its composition.
#[derive(Clone, Debug, Default)]
pub struct Inputs {
    /// Operations, in nonce order.
    pub ops: Vec<Op>,
    /// Epochs generated.
    pub epochs: usize,
    /// Epochs whose `sw1` ran the rogue program.
    pub rogue_epochs: usize,
    /// Nonces with no record at the collector (no operation).
    pub packets_lost: u64,
    /// Records across all operations.
    pub records: u64,
    /// Records repeating an earlier record of the same nonce.
    pub duplicate_records: u64,
}

impl Inputs {
    /// Operations with a complete chain from a rogue epoch.
    pub fn rogue_ops(&self) -> usize {
        self.ops
            .iter()
            .filter(|o| o.expect == Expect::Reject)
            .count()
    }

    /// Operations with a truncated chain.
    pub fn incomplete_ops(&self) -> usize {
        self.ops
            .iter()
            .filter(|o| o.expect == Expect::Indeterminate)
            .count()
    }
}

/// The churn shape this workload draws evidence from.
pub fn churn_config(seed: u64, epochs: usize) -> ChurnConfig {
    ChurnConfig {
        epochs,
        packets_per_epoch: PACKETS_PER_EPOCH,
        hops: 3,
        seed,
        link_loss: 0.02,
        control_loss: 0.1,
        rogue_every: 5,
        switch_down: false,
    }
}

/// Operations a run of `seconds` performs.
pub fn ops_for(seconds: u64) -> usize {
    (seconds * OPS_PER_SECOND).max(1) as usize
}

/// Per-link duplication probability layered on the churn model's loss.
/// Control retries deliver only the first surviving copy, so duplicated
/// records at the collector come from duplicated data packets, each of
/// which the downstream switches attest again.
pub const LINK_DUPLICATE: f64 = 0.01;

/// Generate evidence exactly as [`pda_svc::run_churn`] does, epoch by
/// epoch, grouped per nonce with its ground truth. `duplicate` adds
/// per-link data duplication (0 reproduces `run_churn` exactly).
pub fn generate(config: &ChurnConfig, duplicate: f64) -> Inputs {
    let mut inputs = Inputs {
        epochs: config.epochs,
        ..Inputs::default()
    };
    for epoch in 0..config.epochs {
        let mut fleet = standard_fleet(config.hops);
        let rogue = config.rogue_every > 0 && (epoch + 1) % config.rogue_every == 0;
        if rogue {
            rogue_reload(&mut fleet);
            inputs.rogue_epochs += 1;
        }
        let mut plan = FaultPlan::new(config.seed.wrapping_add(epoch as u64))
            .with_default_link(LinkFaults {
                duplicate,
                ..LinkFaults::lossy(config.link_loss)
            })
            .with_control_loss(config.control_loss)
            .with_control_retry(ControlRetryPolicy::default());
        if config.switch_down && config.hops >= 2 {
            let victim = fleet.switches[config.hops / 2];
            plan = plan.with_switch_down(victim, 5_000, 30_000);
        }
        fleet.sim.install_faults(plan);
        let appraiser = fleet.appraiser;
        let base_nonce = (epoch * config.packets_per_epoch) as u64 + 1;
        for i in 0..config.packets_per_epoch {
            let nonce = Nonce(base_nonce + i as u64);
            fleet.send_attested(nonce, EvidenceMode::OutOfBand { appraiser }, b"churn");
        }
        let collected = fleet.sim.evidence_at(appraiser);
        for i in 0..config.packets_per_epoch {
            let nonce = base_nonce + i as u64;
            let records: Vec<EvidenceRecord> = collected
                .iter()
                .filter(|r| r.nonce.0 == nonce)
                .cloned()
                .collect();
            if records.is_empty() {
                inputs.packets_lost += 1;
                continue;
            }
            let mut names: Vec<&str> = records.iter().map(|r| r.switch.as_str()).collect();
            names.sort_unstable();
            names.dedup();
            let expect = match (names.len() == config.hops, rogue) {
                (false, _) => Expect::Indeterminate,
                (true, true) => Expect::Reject,
                (true, false) => Expect::Accept,
            };
            let mut chains: Vec<[u8; 32]> = records.iter().map(|r| r.chain.0).collect();
            chains.sort_unstable();
            chains.dedup();
            inputs.records += records.len() as u64;
            inputs.duplicate_records += (records.len() - chains.len()) as u64;
            inputs.ops.push(Op {
                nonce,
                records,
                expect,
            });
        }
    }
    inputs
}

/// Generate at least `ops` operations for `seed` and keep exactly `ops`.
pub fn generate_ops(seed: u64, ops: usize) -> Inputs {
    // About 5% of packets lose their first hop; over-provision epochs.
    let epochs = (ops * 21 / 20).div_ceil(PACKETS_PER_EPOCH) + 1;
    let mut inputs = generate(&churn_config(seed, epochs), LINK_DUPLICATE);
    while inputs.ops.len() < ops {
        inputs = generate(&churn_config(seed, inputs.epochs * 2), LINK_DUPLICATE);
    }
    inputs.ops.truncate(ops);
    inputs
}

/// A service exactly as `pda serve` runs by default, bound to an
/// ephemeral local port.
pub struct Service {
    /// The service object (shared with its workers).
    pub svc: Arc<AppraisalService>,
    /// The running server.
    pub server: ServerHandle,
}

impl Service {
    /// Build, bind and start the service.
    pub fn start() -> Result<Service, String> {
        let config = SvcConfig::default();
        let workers = config.workers;
        let svc = Arc::new(AppraisalService::new(config, Telemetry::collecting()));
        let server = serve_with(
            "127.0.0.1:0",
            workers,
            Arc::clone(&svc),
            ServeOptions::default(),
        )
        .map_err(|e| format!("bind: {e}"))?;
        Ok(Service { svc, server })
    }

    /// Stop the server and join its threads.
    pub fn stop(mut self) {
        self.server.stop();
    }
}

/// Does an `appraise` result say `ok`?
fn verdict_ok(result: &Json) -> Option<bool> {
    result.get("ok").and_then(Json::as_bool)
}

/// One operation through `client`: submit, then appraise; returns the
/// verdict. With a tracer, each call is a span of operation `id`.
fn exchange(
    client: &SvcClient,
    op: &Op,
    mut t: Option<&mut Tracer>,
    id: u64,
) -> Result<bool, String> {
    let submitted = span_opt(t.as_deref_mut(), "svc.rtt_submit", id, |_| {
        client.submit_evidence(&op.records)
    })?;
    check_submitted(&submitted, op)?;
    let verdict = span_opt(t, "svc.rtt_appraise", id, |_| client.appraise(op.nonce))?;
    verdict_ok(&verdict).ok_or_else(|| format!("nonce {}: verdict has no ok", op.nonce))
}

fn check_submitted(result: &Json, op: &Op) -> Result<(), String> {
    let accepted = result.get("accepted").and_then(Json::as_u64);
    if accepted != Some(op.records.len() as u64) {
        return Err(format!(
            "nonce {}: submit accepted {accepted:?} of {} records",
            op.nonce,
            op.records.len()
        ));
    }
    Ok(())
}

fn judge(out: &mut Outcome, op: &Op, verdict: Result<bool, String>) {
    out.attempted += 1;
    match verdict {
        Ok(ok) if op.expect.admits(ok) => {}
        Ok(ok) => out.fail(format!(
            "nonce {}: verdict ok={ok}, ground truth {:?}",
            op.nonce, op.expect
        )),
        Err(e) => out.fail(e),
    }
}

/// One operation's outcome.
struct Exchange {
    lat_ns: u64,
    traced: bool,
    verdict: Result<bool, String>,
    /// A set-up timed before the operation, if one was due.
    setup: Option<Result<Sample, String>>,
}

/// Drive `ops` through `client` from the closed-loop client.
/// With `trace`, every odd-numbered operation is traced, so traced and
/// untraced operations share one input mix and one service state.
fn drive(
    client: &SvcClient,
    ops: &[Op],
    trace: bool,
    origin: Instant,
) -> (Vec<(u64, Exchange)>, Tracer) {
    let warm_up = crate::warm_up(ops.len());
    closed_loop(ops.len(), origin, |i, t| {
        let setup = (i >= warm_up && (i - warm_up).is_multiple_of(SETUP_EVERY)).then(timed_set_up);
        let op = &ops[i];
        let id = i as u64;
        let traced = trace && i % 2 == 1;
        let start = Instant::now();
        let verdict = span_opt(traced.then_some(t), "op", id, |t| {
            exchange(client, op, t, id)
        });
        Exchange {
            lat_ns: start.elapsed().as_nanos() as u64,
            traced,
            verdict,
            setup,
        }
    })
}

/// One set-up of a throwaway service beside the one serving the run,
/// between two probe passes, so that set-ups sample the whole run's
/// host phases rather than its first moments.
fn timed_set_up() -> Result<Sample, String> {
    let before = crate::probe::pass();
    let t0 = Instant::now();
    let (service, client) = set_up()?;
    let lat_ns = t0.elapsed().as_nanos() as u64;
    let after = crate::probe::pass();
    drop(client);
    service.stop();
    Ok(Sample {
        lat_ns,
        units: 1,
        probe_ns: (before + after) / 2,
    })
}

/// A fresh service with a warmed-up client: one set-up.
fn set_up() -> Result<(Service, SvcClient), String> {
    let service = Service::start()?;
    let client = SvcClient::new(service.server.addr);
    for _ in 0..WARMUP_CALLS {
        client.health()?;
    }
    Ok((service, client))
}

/// Run the workload: all operations against one long-lived service.
pub fn run(spec: &RunSpec) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let inputs = generate_ops(spec.seed, ops_for(spec.seconds));
    let n = inputs.ops.len();
    out.facts = vec![
        ("epochs".into(), inputs.epochs.to_string()),
        (
            "rogue_share".into(),
            format!("{}", inputs.rogue_ops() as f64 / n as f64),
        ),
        (
            "incomplete_share".into(),
            format!("{}", inputs.incomplete_ops() as f64 / n as f64),
        ),
        (
            "duplicate_record_share".into(),
            format!(
                "{}",
                inputs.duplicate_records as f64 / inputs.records as f64
            ),
        ),
        ("packets_lost".into(), inputs.packets_lost.to_string()),
    ];

    // Set-up: service build and bind plus client warm-up. The service
    // built here serves the run; `setup_s` is the median of the set-ups
    // timed every `SETUP_EVERY` operations during it.
    let (service, client) = set_up()?;

    let origin = Instant::now();
    let (results, mut tracer) = drive(&client, &inputs.ops, spec.trace, origin);
    out.facts.push((
        "timed_s".into(),
        format!("{}", origin.elapsed().as_secs_f64()),
    ));
    let warm_up = crate::warm_up(n);
    out.facts.push(("warm_up_ops".into(), warm_up.to_string()));
    let mut traced_ns = Vec::new();
    let mut untraced_ns = Vec::new();
    for (i, (probe_ns, x)) in results.into_iter().enumerate() {
        judge(&mut out, &inputs.ops[i], x.verdict);
        match x.setup {
            Some(Ok(setup)) => out.e2e.setups.push(setup),
            Some(Err(e)) => out.fail(format!("set-up: {e}")),
            None => {}
        }
        if i < warm_up {
            continue;
        }
        if x.traced {
            traced_ns.push(x.lat_ns);
        } else {
            untraced_ns.push(x.lat_ns);
            out.e2e.samples.push(Sample {
                lat_ns: x.lat_ns,
                units: 1,
                probe_ns,
            });
        }
    }
    // What the run leaves in the service.
    let mut layers = Layers::default();
    if let Some(reg) = service.svc.telemetry().registry() {
        layers.set(
            "svc.records_stored",
            reg.counter("svc.records").get() as f64,
        );
    }
    if let Some(log) = service.svc.telemetry().audit_log() {
        layers.set("telemetry.audit_records", log.len() as f64);
    }
    out.layers = layers.into_vec();
    let reused = client.reused_connections();
    let calls = (WARMUP_CALLS + 2 * n) as u64;
    drop(client);
    service.stop();

    if spec.trace {
        let mut layers = Layers::default();
        layers.set("svc.conn_reuse_ratio", reused as f64 / calls as f64);
        replay_layers(
            &inputs.ops[..REPLAY_OPS.min(n)],
            &mut tracer,
            &mut layers,
            &mut out,
        );
        let rtt_s = median(&tracer.self_time_per_op("svc.rtt_submit"));
        let rtt_a = median(&tracer.self_time_per_op("svc.rtt_appraise"));
        let handle_s = median(&tracer.self_time_per_op("svc.handle_submit"));
        let handle_a = median(&tracer.self_time_per_op("svc.handle_appraise"));
        let codec = median(&tracer.self_time_per_op("svc.client_encode"))
            + median(&tracer.self_time_per_op("svc.response_parse"));
        let e2e = median(&traced_ns);
        layers.set("svc.rtt_submit_us", rtt_s as f64 / 1e3);
        layers.set("svc.rtt_appraise_us", rtt_a as f64 / 1e3);
        layers.set(
            "svc.transport_us",
            (rtt_s as f64 + rtt_a as f64 - handle_s as f64 - handle_a as f64 - codec as f64) / 1e3,
        );
        layers.set(
            "trace.unattributed_us",
            (e2e as f64 - rtt_s as f64 - rtt_a as f64) / 1e3,
        );
        layers.set(
            "trace.overhead_us",
            (e2e as f64 - median(&untraced_ns) as f64) / 1e3,
        );
        layers.set(
            "trace.op_self_us",
            median(&tracer.self_times("op")) as f64 / 1e3,
        );
        out.layers.extend(layers.into_vec());
        out.facts
            .push(("spans".into(), tracer.spans().len().to_string()));
        crate::write_trace(NAME, spec.seed, &tracer);
    }
    Ok(out)
}

/// The client's wire form of one JSON-RPC call, as [`SvcClient`] frames it.
fn client_wire(id: u64, method: &str, params: Json, nonce: u64) -> String {
    let req = RpcRequest::new(id, method, params)
        .with_traceparent(TraceCtx::for_nonce(nonce).traceparent());
    let body = req.encode();
    format!(
        "POST /rpc HTTP/1.1\r\nHost: pda-svc\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: keep-alive\r\n\r\n{}",
        body.len(),
        body
    )
}

fn parsed(wire: &str) -> Option<HttpRequest> {
    match parse_request(wire.as_bytes()) {
        HttpParse::Complete(req, _) => Some(*req),
        _ => None,
    }
}

fn response_result(bytes: &[u8]) -> Result<Json, String> {
    match parse_response_bytes(bytes) {
        ResponseParse::Complete(reply, _) => {
            let body =
                std::str::from_utf8(&reply.body).map_err(|_| "reply is not UTF-8".to_string())?;
            parse_response(body)
        }
        _ => Err("incomplete or invalid response".to_string()),
    }
}

/// Replay operations in process through each layer's public functions:
/// the client codec, the server's HTTP/JSON-RPC/hex/wire decoders,
/// `Handler::handle` on a separate service instance (no TCP), chain
/// assembly, signature and digest checks, each appraiser, the quorum
/// and the telemetry primitives the service calls per request.
fn replay_layers(ops: &[Op], t: &mut Tracer, layers: &mut Layers, out: &mut Outcome) {
    let svc = AppraisalService::new(SvcConfig::default(), Telemetry::collecting());
    let fleet = standard_fleet(3);
    let golden = enroll_fleet_golden(&fleet);
    let registry = fleet_registry(&fleet);
    let federation = Federation {
        appraisers: (1..=3)
            .map(|i| Appraiser::new(format!("a{i}"), golden.clone(), registry.clone()))
            .collect(),
        quorum: SvcConfig::default().quorum,
    };
    let ra_tel = Telemetry::collecting();
    let tel = Telemetry::collecting();
    let reg = tel.registry().expect("collecting telemetry has a registry");
    let mut body_bytes = Vec::with_capacity(ops.len());
    let mut checks = Vec::new();
    for (i, op) in ops.iter().enumerate() {
        let id = u64::MAX - i as u64;
        let nonce = op.nonce;
        // Client side: encode both calls.
        let (submit_wire, submit_body) = t.span("svc.client_encode", id, |_| {
            let mut bytes = Vec::new();
            for r in &op.records {
                r.write_wire(&mut bytes);
            }
            let params = Json::Obj(vec![("records".to_string(), Json::Str(to_hex(&bytes)))]);
            let wire = client_wire(1, "submit-evidence", params, nonce);
            let body = wire.len() - wire.find("\r\n\r\n").map_or(0, |h| h + 4);
            (wire, body)
        });
        body_bytes.push(submit_body as u64);
        let appraise_wire = t.span("svc.client_encode", id, |_| {
            client_wire(
                2,
                "appraise",
                Json::Obj(vec![("nonce".to_string(), Json::UInt(nonce))]),
                nonce,
            )
        });

        // Server side, piece by piece.
        let Some(submit_req) = t.span("svc.http_parse", id, |_| parsed(&submit_wire)) else {
            out.fail(format!("nonce {nonce}: submit request does not parse"));
            continue;
        };
        let Some(appraise_req) = t.span("svc.http_parse", id, |_| parsed(&appraise_wire)) else {
            out.fail(format!("nonce {nonce}: appraise request does not parse"));
            continue;
        };
        let text = String::from_utf8_lossy(&submit_req.body).into_owned();
        let rpc = t.span("svc.rpc_parse", id, |_| RpcRequest::parse(&text));
        let appraise_text = String::from_utf8_lossy(&appraise_req.body).into_owned();
        let _ = t.span("svc.rpc_parse", id, |_| RpcRequest::parse(&appraise_text));
        let hex = rpc
            .ok()
            .and_then(|r| {
                r.params
                    .get("records")
                    .and_then(Json::as_str)
                    .map(str::to_string)
            })
            .unwrap_or_default();
        let bytes = t
            .span("svc.hex_decode", id, |_| from_hex(&hex))
            .unwrap_or_default();
        let decoded = t.span("pera.wire_decode", id, |_| {
            EvidenceRecord::read_wire_all(&bytes)
        });
        if decoded.as_ref().map(Vec::len) != Some(op.records.len()) {
            out.fail(format!(
                "nonce {nonce}: evidence does not round-trip the wire"
            ));
        }
        let submit_resp = t.span("svc.handle_submit", id, |_| svc.handle(&submit_req));
        let appraise_resp = t.span("svc.handle_appraise", id, |_| svc.handle(&appraise_req));
        let (s_bytes, a_bytes) = (submit_resp.to_bytes(), appraise_resp.to_bytes());
        let submitted = t.span("svc.response_parse", id, |_| response_result(&s_bytes));
        let verdict = t.span("svc.response_parse", id, |_| response_result(&a_bytes));
        let verdict = submitted
            .and_then(|s| check_submitted(&s, op))
            .and(verdict)
            .and_then(|v| {
                verdict_ok(&v).ok_or_else(|| format!("nonce {nonce}: verdict has no ok"))
            });
        match verdict {
            Ok(ok) if op.expect.admits(ok) => {}
            Ok(ok) => out.fail(format!(
                "nonce {nonce}: in-process verdict ok={ok}, ground truth {:?}",
                op.expect
            )),
            Err(e) => out.fail(e),
        }

        // Appraisal internals on the same evidence.
        let records = op.records.clone();
        let (chain, _orphans) = t.span("pera.assemble_chain", id, |_| assemble_chain(records));
        for r in &chain {
            if let Ok(key) = registry.key_of(&PrincipalId::new(r.switch.clone())) {
                let _ = t.span("crypto.verify", id, |_| {
                    sig::verify(key, r.chain.as_bytes(), &r.sig)
                });
            }
            let _ = t.span("crypto.digest", id, |_| r.recompute_chain());
        }
        for a in &federation.appraisers {
            let r = t.span("ra.appraise", id, |_| {
                a.appraise(&chain, Nonce(nonce), true, &ra_tel)
            });
            checks.push(r.checks);
        }
        let _ = t.span("svc.quorum", id, |_| {
            federation.appraise(&chain, Nonce(nonce), true, &ra_tel)
        });

        // The telemetry calls the service makes per operation.
        for name in [
            "svc.submissions",
            "svc.records",
            "svc.appraisals",
            "ra.appraisals",
            "svc.dissent",
        ] {
            t.span("telemetry.counter_add", id, |_| reg.counter(name).add(1));
        }
        t.span("telemetry.span", id, |_| drop(tel.span("svc.rpc")));
    }
    let per_op = |name: &str| t.self_time_per_op(name);
    layers.set_median_ns("svc.client_encode_ns", &per_op("svc.client_encode"));
    layers.set("svc.submit_body_bytes", median(&body_bytes) as f64);
    layers.set_median_ns("svc.http_parse_ns", &per_op("svc.http_parse"));
    layers.set_median_ns("svc.rpc_parse_ns", &per_op("svc.rpc_parse"));
    layers.set_median_ns("svc.hex_decode_ns", &per_op("svc.hex_decode"));
    layers.set_median_ns("pera.wire_decode_ns", &per_op("pera.wire_decode"));
    layers.set_median_ns("svc.handle_submit_ns", &per_op("svc.handle_submit"));
    layers.set_median_ns("svc.handle_appraise_ns", &per_op("svc.handle_appraise"));
    layers.set_median_ns("svc.response_parse_ns", &per_op("svc.response_parse"));
    layers.set_median_ns("pera.assemble_chain_ns", &per_op("pera.assemble_chain"));
    layers.set_median_ns("svc.quorum_ns", &per_op("svc.quorum"));
    layers.set_median_ns("crypto.verify_ns", &t.self_times("crypto.verify"));
    layers.set_median_ns("crypto.digest_ns", &t.self_times("crypto.digest"));
    layers.set_median_ns("ra.appraise_ns", &t.self_times("ra.appraise"));
    layers.set("ra.checks_per_verdict", median(&checks) as f64);
    layers.set_median_ns(
        "telemetry.counter_add_ns",
        &t.self_times("telemetry.counter_add"),
    );
    layers.set_median_ns("telemetry.span_ns", &t.self_times("telemetry.span"));
}
