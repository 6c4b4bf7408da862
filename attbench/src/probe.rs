//! The host-speed probe: a fixed kernel of the benchmark's own, timed
//! just before and just after every operation and set-up.
//!
//! The reference host's vCPUs share physical cores with other tenants,
//! whose load slows all CPU-bound code by up to about 1.8× in phases
//! that last from seconds to minutes (CPU time grows with wall time, so
//! it is not steal). The probe's pass time follows the same phases:
//! about 10 µs in the fast one and 16 µs in the slow one.
//! Scaling each operation's time by [`REFERENCE_NS`] over the probe's
//! pass time around it reports it at one fixed host speed, so runs
//! made in different phases compare. The probe shares no code with the
//! program, so the program's own speed still shows in full.

use std::fmt::Write;
use std::hint::black_box;
use std::time::Instant;

/// The probe's pass time, ns, at the host speed every end-to-end time
/// is reported at: about its time in the reference host's fast phase.
pub const REFERENCE_NS: u64 = 10_000;

/// One probe: the kernel run twice on stack buffers, timing the second
/// run. The first brings the kernel's 6 KiB into L1, and nothing is
/// allocated, so the timed run measures the core's speed, not what the
/// program left in the caches or the heap. Returns its wall time, ns.
pub fn pass() -> u64 {
    let mut ns = 0;
    for _ in 0..2 {
        let t0 = Instant::now();
        kernel();
        ns = t0.elapsed().as_nanos() as u64;
    }
    ns
}

/// Generating, sorting, bucketing and formatting 512 numbers: the kinds
/// of work the program does, about 10 µs at [`REFERENCE_NS`].
fn kernel() {
    let mut v = [0u64; 512];
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    for e in v.iter_mut() {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        *e = x;
    }
    v.sort_unstable();
    let mut buckets = [0u64; 251];
    for (i, k) in v.iter().enumerate() {
        buckets[(k % 251) as usize] += i as u64;
    }
    let mut text = Text {
        buf: [0; 2048],
        len: 0,
    };
    for k in v.iter().step_by(4) {
        let _ = write!(text, "{k:x},");
    }
    black_box((&buckets, &text.buf[..text.len]));
}

/// A fixed-size text buffer that drops what does not fit.
struct Text {
    buf: [u8; 2048],
    len: usize,
}

impl Write for Text {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        let end = (self.len + s.len()).min(self.buf.len());
        self.buf[self.len..end].copy_from_slice(&s.as_bytes()[..end - self.len]);
        self.len = end;
        Ok(())
    }
}

/// Each sample's time at the reference host speed, ns: its `lat_ns` ×
/// [`REFERENCE_NS`] ÷ its own `probe_ns`, the probe passes on either
/// side of it. Host slowdowns shorter than an operation or two then
/// scale only the operations they touched.
pub fn normalised_ns(samples: &[crate::Sample]) -> Vec<f64> {
    samples
        .iter()
        .map(|s| s.lat_ns as f64 * REFERENCE_NS as f64 / s.probe_ns.max(1) as f64)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Sample;

    fn s(lat_ns: u64, probe_ns: u64) -> Sample {
        Sample {
            lat_ns,
            units: 1,
            probe_ns,
        }
    }

    #[test]
    fn scales_by_the_probe_around_each_sample() {
        // A slow phase (probe 2× the reference) halves the times in it,
        // a fast one (probe ½×) doubles them.
        let v = [
            s(1_000, REFERENCE_NS),
            s(2_000, 2 * REFERENCE_NS),
            s(500, REFERENCE_NS / 2),
        ];
        assert_eq!(normalised_ns(&v), vec![1_000.0, 1_000.0, 1_000.0]);
        assert!(normalised_ns(&[]).is_empty());
    }
}
