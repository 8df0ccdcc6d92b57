//! Order statistics over timing samples, and the reference kernel that
//! converts host seconds into reference seconds.
//!
//! Host speed on a shared machine drifts by tens of percent within and
//! between runs. Every host time the benchmark reports is therefore
//! scaled by `REFERENCE_S / t_ref`, where `t_ref` is the time of a fixed
//! kernel that does not depend on this repository's code, measured next
//! to the timed work. A host that runs the kernel in `REFERENCE_S` reads
//! true seconds; a slowed host reads what it would at that speed.

/// The `q`-quantile (0..=1) of `values` by linear interpolation between
/// closest ranks; `0.0` for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    let mut v: Vec<f64> = values.iter().copied().filter(|x| x.is_finite()).collect();
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// `num / den`, or `0.0` when nothing was counted.
pub fn share(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

use std::collections::HashMap;
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// The reference kernel's nominal time: close to its undisturbed time on
/// the 2-core host the benchmark was written on.
pub const REFERENCE_S: f64 = 2.0e-3;

/// Entries of each reference table: 8 MiB, beyond the caches a co-tenant
/// competes for, like the simulator's own heap and maps.
const TABLE_LEN: usize = 1 << 20;

/// One table per reference thread, allocated and touched on first use so
/// that page faults stay out of the timed kernel.
static TABLES: [OnceLock<Mutex<Vec<u64>>>; MAX_REFERENCE_THREADS] =
    [const { OnceLock::new() }; MAX_REFERENCE_THREADS];

fn table(thread: usize) -> &'static Mutex<Vec<u64>> {
    TABLES[thread].get_or_init(|| Mutex::new(vec![1; TABLE_LEN]))
}

/// Resident MiB the reference tables hold; they stay allocated, so this
/// is their share of the process's peak.
pub fn reference_mb() -> f64 {
    let tables = TABLES.iter().filter(|t| t.get().is_some()).count();
    (tables * TABLE_LEN * std::mem::size_of::<u64>()) as f64 / (1024.0 * 1024.0)
}

/// Most threads the reference kernel runs on at once.
pub const MAX_REFERENCE_THREADS: usize = 8;

/// Runs the reference kernel on `threads` threads at once and returns
/// the wall time in seconds, so work that fans out over several cores is
/// scaled by how fast all of them run.
pub fn reference_on(threads: usize) -> f64 {
    let threads = threads.clamp(1, MAX_REFERENCE_THREADS);
    if threads == 1 {
        return reference_s(0);
    }
    let t0 = Instant::now();
    std::thread::scope(|s| {
        for i in 0..threads {
            s.spawn(move || reference_s(i));
        }
    });
    t0.elapsed().as_secs_f64()
}

/// Runs the reference kernel (random read-modify-writes over an 8 MiB
/// table, hash-map churn and small heap allocations, like the
/// simulator's own mix) on table `thread` and returns its wall time in
/// seconds.
fn reference_s(thread: usize) -> f64 {
    let mut table = table(thread).lock().expect("reference kernels never panic");
    let t0 = Instant::now();
    let mut map: HashMap<u64, Box<[u64; 4]>> = HashMap::new();
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut acc = 0u64;
    for i in 0..20_000u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let slot = (x as usize) & (TABLE_LEN - 1);
        acc = acc.wrapping_add(table[slot]);
        table[slot] = acc ^ i;
        let key = x & 0xFFF;
        if let Some(b) = map.remove(&key) {
            acc ^= b[0];
        } else {
            map.insert(key, Box::new([x, i, acc, key]));
        }
    }
    std::hint::black_box(acc);
    t0.elapsed().as_secs_f64()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&[]), 0.0);
    }
}
