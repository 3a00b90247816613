//! The repository benchmark: drives the whole pipeline (profile-interpret,
//! compile, lower and install, simulate) from outside through the crates'
//! public functions, on three workloads, and reports end-to-end metrics
//! (tracing off) or per-layer metrics (tracing on).
//!
//! Run it from the repository root:
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload cold_start --seed 1 --seconds 10 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. Earlier lines carry the
//! exact simulated counters of every program × config cell and their
//! digest (`cell ...`, `digest ...`) and the workload's metrics under the
//! names of `perfbench/README.md` (`report ...`).

pub mod layers;
pub mod pipeline;
pub mod trace;
pub mod workloads;

use std::time::Instant;

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// Measured value.
    pub value: f64,
}

impl Metric {
    /// A metric.
    pub fn new(name: impl Into<String>, unit: &'static str, value: f64) -> Metric {
        Metric {
            name: name.into(),
            unit,
            value,
        }
    }
}

/// Renders metrics as a JSON object of `{"value": v, "unit": u}` entries.
/// Non-finite values (a ratio with no base) render as 0.
pub fn metrics_json(ms: &[Metric]) -> String {
    let body: Vec<String> = ms
        .iter()
        .map(|m| {
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// Nearest-rank percentile (`p` in 0..=1) of unsorted samples; 0 when
/// there are none.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_unstable_by(f64::total_cmp);
    let rank = (p * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Median of unsorted samples (mean of the middle two for even counts).
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_unstable_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Seconds since `t`.
pub fn secs_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Peak resident memory of this process in MB (`VmHWM`), 0 where the
/// kernel does not report it.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Duration of one calibration slice on an uncontended core of the
/// reference host (Intel Xeon, 2.1 GHz): the fastest slice seen there.
pub const CAL_REF_SECS: f64 = 0.000_236;

/// Iterations of one calibration slice.
const CAL_ITERS: u32 = 25_000;

/// Words in the calibration table: 4 MB, past any private cache, so the
/// slice feels contention in the shared cache and memory system.
const CAL_WORDS: usize = 1 << 19;

/// Host-speed normalisation.
///
/// On a shared host, other tenants slow this process down by up to 2× for
/// stretches of seconds to minutes, with no steal time reported, so
/// thread CPU time slows just as wall time does. The slowdown comes
/// through the shared cache and memory system: a calibration loop that
/// stays in L1 misses most of it. So after every operation the benchmark
/// times a fixed calibration slice (its own code, independent of the
/// repository's): random loads and stores over a 4 MB table, which is
/// swept untimed first so the slice does not depend on what the operation
/// left in the caches. Each operation's host time is scaled by how much
/// slower than [`CAL_REF_SECS`] the slices on either side of it ran, so
/// every reported time is "host time at reference speed".
#[derive(Debug, Clone)]
pub struct HostSpeed {
    table: Vec<u64>,
    /// Slices timed after each operation.
    k: usize,
    /// The slices timed since the last operation.
    last: Vec<f64>,
    slices: Vec<f64>,
}

impl HostSpeed {
    /// A calibrator that times `k` slices after each operation, primed
    /// with `k` slices.
    pub fn new(k: usize) -> HostSpeed {
        let mut h = HostSpeed {
            // Written, not zeroed, so every page is really mapped.
            table: (0..CAL_WORDS as u64).collect(),
            k,
            last: Vec::new(),
            slices: Vec::new(),
        };
        h.last = (0..k).map(|_| h.slice()).collect();
        h
    }

    /// Sweeps the table, then times one slice: xorshift-driven,
    /// data-dependent branches and random loads and stores.
    fn slice(&mut self) -> f64 {
        std::hint::black_box(self.table.iter().fold(0u64, |a, &x| a.wrapping_add(x)));
        let mask = CAL_WORDS - 1;
        let t = Instant::now();
        let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
        let mut acc: u64 = 0;
        for i in 0..CAL_ITERS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let j = x as usize & mask;
            match x >> 62 {
                0 => self.table[j] = self.table[j].wrapping_add(u64::from(i)),
                1 => acc = acc.wrapping_add(self.table[j]),
                2 => acc ^= self.table[j].rotate_left(7),
                _ => self.table[acc as usize & mask] ^= x,
            }
        }
        std::hint::black_box(acc);
        let s = secs_since(t);
        self.slices.push(s);
        s
    }

    /// Times the slices after an operation and returns the factor that
    /// scales the operation's host time to reference speed: the reference
    /// slice time over the median of the slices on both sides of it.
    pub fn scale(&mut self) -> f64 {
        let next: Vec<f64> = (0..self.k).map(|_| self.slice()).collect();
        let around: Vec<f64> = self.last.iter().chain(&next).copied().collect();
        self.last = next;
        CAL_REF_SECS / median(&around)
    }

    /// The host's median speed over this run as a fraction of the
    /// reference speed.
    pub fn speed(&self) -> f64 {
        CAL_REF_SECS / median(&self.slices)
    }
}

/// SplitMix64: the benchmark's own seeded generator (program order).
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    /// A generator for `seed`, stream `stream`.
    pub fn new(seed: u64, stream: u64) -> SplitMix {
        SplitMix(seed ^ stream.wrapping_mul(0xd1b5_4a32_d192_ed03))
    }

    /// Next 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            v.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_use_nearest_rank() {
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.5), 5.0);
        assert_eq!(percentile(&xs, 0.9), 9.0);
        assert_eq!(percentile(&xs, 0.99), 10.0);
        assert_eq!(median(&xs), 5.5);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn shuffle_is_seeded() {
        let order = |seed| {
            let mut v: Vec<u32> = (0..7).collect();
            SplitMix::new(seed, 3).shuffle(&mut v);
            v
        };
        assert_eq!(order(5), order(5));
        assert_ne!(order(5), order(6));
    }

    #[test]
    fn metrics_render_as_json_objects() {
        let j = metrics_json(&[
            Metric::new("a_ms", "ms", 1.5),
            Metric::new("b", "1/s", f64::NAN),
        ]);
        assert_eq!(
            j,
            "{\"a_ms\": {\"value\": 1.5, \"unit\": \"ms\"}, \"b\": {\"value\": 0.0, \"unit\": \"1/s\"}}"
        );
    }
}
