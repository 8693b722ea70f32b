//! Machine-speed calibration.
//!
//! On shared virtual machines the same campaign can run 1.5× slower for
//! tens of seconds at a time while a neighbour is busy, which no number
//! of repetitions inside one run averages away. So every timed campaign
//! (and every set-up) is followed by a fixed calibration loop, and its
//! times are reported scaled to a reference speed:
//! `scaled = measured × REFERENCE_MS / calibration`. The loop is this
//! benchmark's own code, so a change to the library never moves it; it
//! allocates many small vectors, does floating-point logarithms and
//! B-tree inserts, the same mix the campaigns spend their time on.

use std::collections::BTreeMap;
use std::time::Instant;

/// What the calibration loop takes at the reference speed, in ms. Scaled
/// times are therefore close to wall-clock times on a machine where the
/// loop takes 1 ms.
pub const REFERENCE_MS: f64 = 1.0;

/// Runs the calibration loop once and returns its wall-clock time in ms.
pub fn calibrate() -> f64 {
    let start = Instant::now();
    let mut x = 0x2545_F491_4F6C_DD1Du64;
    let mut acc = 0.0f64;
    let mut map = BTreeMap::new();
    for i in 0..320u32 {
        let mut rows: Vec<Vec<f64>> = Vec::with_capacity(16);
        for _ in 0..16 {
            let mut row = Vec::with_capacity(16);
            for _ in 0..16 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                row.push((x >> 11) as f64 / (1u64 << 53) as f64);
            }
            rows.push(row);
        }
        acc += rows
            .iter()
            .flat_map(|row| row.iter())
            .map(|v| (1.0 + v).ln())
            .sum::<f64>();
        map.insert(x % 4096, i);
        std::hint::black_box(&rows);
    }
    std::hint::black_box((acc, map.len()));
    start.elapsed().as_secs_f64() * 1e3
}
