//! Host-noise probe: a fixed, high-ILP, decode-like kernel timed before
//! and after each run. Its figures are diagnostics only; they never
//! normalize another metric.

use std::hint::black_box;
use std::time::Instant;

/// Bytes of the frozen varint stream the kernel decodes.
const STREAM_BYTES: usize = 1 << 15;
/// Kernel passes per timed sample (1-2 ms per sample on a 2.0 GHz Xeon vCPU).
const PASSES_PER_SAMPLE: usize = 24;

/// A frozen LEB128 stream: mostly 1- and 2-byte values, like trace deltas.
fn stream() -> Vec<u8> {
    let mut out = Vec::with_capacity(STREAM_BYTES + 10);
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    while out.len() < STREAM_BYTES {
        x = x
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        let mut v = (x >> 33) & if x & 3 == 0 { 0x3fff } else { 0x7f };
        loop {
            let byte = (v & 0x7f) as u8;
            v >>= 7;
            if v == 0 {
                out.push(byte);
                break;
            }
            out.push(byte | 0x80);
        }
    }
    out
}

fn decode_pass(buf: &[u8]) -> u64 {
    let (mut acc, mut pos) = (0u64, 0usize);
    while pos < buf.len() {
        let (mut v, mut shift) = (0u64, 0u32);
        loop {
            let b = buf[pos];
            pos += 1;
            v |= u64::from(b & 0x7f) << shift;
            shift += 7;
            if b & 0x80 == 0 || pos == buf.len() {
                break;
            }
        }
        acc = acc.rotate_left(5) ^ v;
    }
    acc
}

/// Times `samples` kernel samples and returns their durations in ms.
pub fn sample_ms(samples: usize) -> Vec<f64> {
    let buf = stream();
    (0..samples)
        .map(|_| {
            let start = Instant::now();
            let mut acc = 0u64;
            for _ in 0..PASSES_PER_SAMPLE {
                acc ^= decode_pass(black_box(&buf));
            }
            black_box(acc);
            start.elapsed().as_secs_f64() * 1e3
        })
        .collect()
}
