//! `fleet-attest`: the producing half of continuous attestation.
//!
//! Seeded multi-flow traffic (mostly minimum-size frames plus a tail up
//! to 1500 B) enters a 3-hop `standard_fleet`; every switch attests
//! every packet out of band to the collector. The run is a sequence of
//! rounds, each on a freshly built fleet (the restart model of
//! `run_churn`) whose build is timed inside the round. Program
//! telemetry is off, so the pipeline, PERA attestation, signing and the
//! simulator's event loop do the work.
//!
//! One operation is one attested packet; latency is per round.

use crate::metrics::Layers;
use crate::rng::Rng;
use crate::stats::median;
use crate::sys::thread_cpu_ns;
use crate::trace::{span_opt, Tracer};
use crate::{closed_loop, Outcome, RunSpec, Sample};
use pda_crypto::digest::Digest;
use pda_crypto::nonce::Nonce;
use pda_crypto::sig::{SigScheme, Signer};
use pda_dataplane::parser::build_udp_packet;
use pda_dataplane::programs;
use pda_netsim::{DeviceKind, EvidenceMode, LinearPath, SimPacket};
use pda_pera::config::{PeraConfig, Sampling};
use pda_pera::PeraSwitch;
use pda_svc::fleet::standard_fleet;
use std::time::Instant;

/// Workload name.
pub const NAME: &str = "fleet-attest";
/// Switches on the attested path.
pub const HOPS: usize = 3;
/// Packets per round (sets the evidence-cache miss share: each fresh
/// switch misses once per cached level, then hits).
pub const ROUND_PACKETS: usize = 64;
/// Rounds per second of `--seconds`.
const ROUNDS_PER_SECOND: u64 = 350;
/// Distinct flows in the traffic mix.
const FLOWS: u64 = 64;
/// Share of minimum-size (64 B) frames; the rest are 65-1500 B.
const MIN_FRAME_PERCENT: u64 = 85;
/// Inter-packet injection gap, simulated ns.
const GAP_NS: u64 = 100;
/// Rounds replayed through the bare layers in a traced run.
const REPLAY_ROUNDS: u64 = 16;

/// Rounds a run of `seconds` performs.
pub fn rounds_for(seconds: u64) -> u64 {
    (seconds * ROUNDS_PER_SECOND).max(2)
}

/// Round `round`'s packets for `seed`: frame bytes, in injection order.
pub fn round_packets(seed: u64, round: u64) -> Vec<Vec<u8>> {
    let mut flows = Rng::new(seed, 0xF10E);
    let flow_ports: Vec<u16> = (0..FLOWS)
        .map(|_| flows.range(1024, 65_535) as u16)
        .collect();
    let mut rng = Rng::new(seed, 0x5EED_0000 + round);
    (0..ROUND_PACKETS)
        .map(|_| {
            let flow = rng.below(FLOWS);
            let payload_len = if rng.percent(MIN_FRAME_PERCENT) {
                22 // 14 + 20 + 8 + 22 = a 64 B frame
            } else {
                rng.range(23, 1458) as usize // up to a 1500 B frame
            };
            let fill = rng.next_u64() as u8;
            build_udp_packet(
                0x0a,
                0x0b,
                0x0a01_0000 + flow as u32,
                0x0a00_0002,
                flow_ports[flow as usize],
                443,
                &vec![fill; payload_len],
            )
        })
        .collect()
}

fn nonce_of(round: u64, i: usize) -> Nonce {
    Nonce(round * ROUND_PACKETS as u64 + i as u64 + 1)
}

/// Inject a round's packets into `fleet`, each attested out of band.
fn inject(fleet: &mut LinearPath, round: u64, packets: Vec<Vec<u8>>) {
    let appraiser = fleet.appraiser;
    let client = fleet.client;
    for (i, bytes) in packets.into_iter().enumerate() {
        let mode = EvidenceMode::OutOfBand { appraiser };
        let pkt = SimPacket::attested(bytes, client, nonce_of(round, i), mode);
        fleet.sim.inject(i as u64 * GAP_NS, client, 1, pkt);
    }
}

/// Check a finished round: every packet delivered to the server once,
/// and `HOPS` records per packet at the collector. Returns the packets
/// that fail either check.
fn check_round(fleet: &LinearPath, round: u64) -> u64 {
    let first = nonce_of(round, 0).0;
    let mut delivered = [0usize; ROUND_PACKETS];
    let mut records = [0usize; ROUND_PACKETS];
    let slot = |nonce: u64| (nonce.wrapping_sub(first) as usize).min(ROUND_PACKETS);
    for d in fleet
        .sim
        .deliveries
        .iter()
        .filter(|d| d.node == fleet.server)
    {
        if let Some(a) = &d.packet.attest {
            if let Some(n) = delivered.get_mut(slot(a.nonce.0)) {
                *n += 1;
            }
        }
    }
    for r in fleet.sim.evidence_at(fleet.appraiser) {
        if let Some(n) = records.get_mut(slot(r.nonce.0)) {
            *n += 1;
        }
    }
    delivered
        .iter()
        .zip(&records)
        .filter(|&(&d, &r)| d != 1 || r != HOPS)
        .count() as u64
}

/// Per-round evidence figures gathered in a traced run.
#[derive(Default)]
struct RoundFacts {
    delivered: u64,
    wire_bytes: u64,
    control_bytes: u64,
    records: u64,
    record_bytes: u64,
    cache_hits: u64,
    cache_lookups: u64,
    measurements: u64,
    switch_records: u64,
}

impl RoundFacts {
    fn merge(&mut self, o: &RoundFacts) {
        self.delivered += o.delivered;
        self.wire_bytes += o.wire_bytes;
        self.control_bytes += o.control_bytes;
        self.records += o.records;
        self.record_bytes += o.record_bytes;
        self.cache_hits += o.cache_hits;
        self.cache_lookups += o.cache_lookups;
        self.measurements += o.measurements;
        self.switch_records += o.switch_records;
    }

    fn add(&mut self, fleet: &LinearPath) {
        let s = &fleet.sim.stats;
        self.delivered += s.delivered;
        self.wire_bytes += s.wire_bytes;
        self.control_bytes += s.control_bytes;
        for r in fleet.sim.evidence_at(fleet.appraiser) {
            self.records += 1;
            self.record_bytes += r.wire_size() as u64;
        }
        for node in &fleet.sim.topo.nodes {
            if let DeviceKind::Pera(sw) = &node.kind {
                self.cache_hits += sw.cache.stats.hits;
                self.cache_lookups += sw.cache.stats.hits + sw.cache.stats.misses;
                self.measurements += sw.stats.measurements;
                self.switch_records += sw.stats.records;
            }
        }
    }
}

fn ratio(a: u64, b: u64) -> f64 {
    if b == 0 {
        0.0
    } else {
        a as f64 / b as f64
    }
}

/// One round's outcome.
struct Round {
    /// Wall time, ns.
    ns: u64,
    /// Thread CPU time, ns.
    cpu_ns: u64,
    /// CPU time of the fleet build that opens the round (the restart).
    build_cpu_ns: u64,
    traced: bool,
    /// Packets that failed the round's check.
    failed: u64,
    facts: RoundFacts,
}

/// Run the workload.
pub fn run(spec: &RunSpec) -> Outcome {
    let mut out = Outcome::default();
    let rounds = rounds_for(spec.seconds);

    // A traced run traces every odd round, so the tracing overhead is
    // the median difference between odd and even rounds.
    let origin = Instant::now();
    let (results, mut tracer) = closed_loop(rounds as usize, origin, |i, t| {
        let round = i as u64;
        let packets = round_packets(spec.seed, round);
        let traced = spec.trace && round % 2 == 1;
        let t0 = Instant::now();
        let c0 = thread_cpu_ns();
        let mut build_cpu_ns = 0;
        let fleet = span_opt(traced.then_some(t), "round", round, |mut t| {
            let mut fleet = span_opt(t.as_deref_mut(), "netsim.build", round, |_| {
                let fleet = standard_fleet(HOPS);
                build_cpu_ns = thread_cpu_ns() - c0;
                fleet
            });
            span_opt(t.as_deref_mut(), "netsim.inject", round, |_| {
                inject(&mut fleet, round, packets)
            });
            span_opt(t, "netsim.run", round, |_| fleet.sim.run());
            fleet
        });
        let cpu_ns = thread_cpu_ns() - c0;
        let ns = t0.elapsed().as_nanos() as u64;
        let mut facts = RoundFacts::default();
        if traced {
            facts.add(&fleet);
        }
        Round {
            ns,
            cpu_ns,
            build_cpu_ns,
            traced,
            failed: check_round(&fleet, round),
            facts,
        }
    });
    let wall = origin.elapsed();
    let mut facts = RoundFacts::default();
    let mut traced_ns = Vec::new();
    let mut untraced_ns = Vec::new();
    let warm_up = crate::warm_up(rounds as usize);
    for (i, (probe_ns, r)) in results.into_iter().enumerate() {
        out.attempted += ROUND_PACKETS as u64;
        for _ in 0..r.failed {
            out.fail("packet not delivered once with one record per hop");
        }
        if r.traced {
            facts.merge(&r.facts);
        }
        if i < warm_up {
            continue;
        }
        if r.traced {
            traced_ns.push(r.ns);
        } else {
            untraced_ns.push(r.ns);
            // Set-up: the fleet build that opens every round.
            out.e2e.setups.push(Sample {
                lat_ns: r.build_cpu_ns,
                units: 1,
                probe_ns,
            });
            out.e2e.samples.push(Sample {
                lat_ns: r.cpu_ns,
                units: ROUND_PACKETS as u64,
                probe_ns,
            });
        }
    }
    out.facts = vec![
        ("rounds".into(), rounds.to_string()),
        ("warm_up_rounds".into(), warm_up.to_string()),
        ("round_packets".into(), ROUND_PACKETS.to_string()),
        ("hops".into(), HOPS.to_string()),
        ("wall_s".into(), format!("{}", wall.as_secs_f64())),
    ];

    if spec.trace {
        let mut layers = Layers::default();
        replay_layers(spec.seed, &mut tracer, &mut layers);
        let build = median(&tracer.self_time_per_op("netsim.build"));
        let inject = median(&tracer.self_time_per_op("netsim.inject"));
        let run = median(&tracer.self_time_per_op("netsim.run"));
        let round = median(&traced_ns);
        let process_ns = median(&tracer.self_times("pera.process_packet"));
        layers.set("netsim.build_us", build as f64 / 1e3);
        layers.set("netsim.run_us", run as f64 / 1e3);
        layers.set(
            "netsim.overhead_ns_per_pkt",
            run as f64 / ROUND_PACKETS as f64 - HOPS as f64 * process_ns as f64,
        );
        layers.set(
            "netsim.wire_bytes_per_pkt",
            ratio(facts.wire_bytes, facts.delivered),
        );
        layers.set(
            "netsim.control_bytes_per_pkt",
            ratio(facts.control_bytes, facts.delivered),
        );
        layers.set(
            "pera.cache_hit_rate",
            ratio(facts.cache_hits, facts.cache_lookups),
        );
        layers.set(
            "pera.measurements_per_record",
            ratio(facts.measurements, facts.switch_records),
        );
        layers.set(
            "pera.record_wire_bytes",
            ratio(facts.record_bytes, facts.records),
        );
        layers.set(
            "trace.overhead_us",
            (round as f64 - median(&untraced_ns) as f64) / 1e3,
        );
        layers.set(
            "trace.unattributed_us",
            (round as f64 - (build + inject + run) as f64) / 1e3,
        );
        layers.set(
            "trace.op_self_us",
            median(&tracer.self_times("round")) as f64 / 1e3,
        );
        out.layers = layers.into_vec();
        out.facts
            .push(("spans".into(), tracer.spans().len().to_string()));
        crate::write_trace(NAME, spec.seed, &tracer);
    }
    out
}

/// Replay the first rounds' packets through the bare layers in process:
/// the dataplane pipeline alone, one PERA switch per hop, and the
/// fleet's signer over each record's chain value.
fn replay_layers(seed: u64, t: &mut Tracer, layers: &mut Layers) {
    let config = PeraConfig::default().with_sampling(Sampling::PerPacket);
    let bare = programs::forwarding(&[(0, 0, 1)]);
    let mut bare_regs = bare.make_registers();
    for round in 0..REPLAY_ROUNDS {
        let op = u64::MAX - round;
        // The fleet's switches exactly as `linear_path` builds them.
        let mut switches: Vec<PeraSwitch> = (0..HOPS)
            .map(|i| {
                PeraSwitch::new(
                    format!("sw{}", i + 1),
                    format!("tofino-sim-{i}"),
                    programs::forwarding(&[(0, 0, 1)]),
                    config.clone(),
                )
            })
            .collect();
        let mut signers: Vec<Signer> = switches
            .iter()
            .map(|sw| {
                let seed = Digest::of_parts(&[b"pera-seed", sw.name.as_bytes()]).0;
                Signer::new(SigScheme::Hmac, seed, 0)
            })
            .collect();
        for (i, bytes) in round_packets(seed, round).into_iter().enumerate() {
            let _ = t.span("dataplane.pipeline", op, |_| {
                bare.process(&bytes, 0, &mut bare_regs)
            });
            let nonce = nonce_of(round, i);
            let mut prev = Digest::ZERO;
            let mut frame = bytes;
            for (sw, signer) in switches.iter_mut().zip(signers.iter_mut()) {
                let result = t.span("pera.process_packet", op, |_| {
                    sw.process_packet(&frame, 0, Some((nonce, prev)))
                });
                let Ok(result) = result else { break };
                let Some(record) = result.evidence else { break };
                let _ = t.span("crypto.sign", op, |_| signer.sign(record.chain.as_bytes()));
                prev = record.chain;
                match result.forward.packet {
                    Some(next) => frame = next,
                    None => break,
                }
            }
        }
    }
    let pipeline = median(&t.self_times("dataplane.pipeline"));
    let process = median(&t.self_times("pera.process_packet"));
    layers.set("dataplane.pipeline_ns", pipeline as f64);
    layers.set("pera.process_packet_ns", process as f64);
    layers.set("pera.attest_ns", process as f64 - pipeline as f64);
    layers.set_median_ns("crypto.sign_ns", &t.self_times("crypto.sign"));
}
