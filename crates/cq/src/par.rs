//! Minimal scoped-thread fan-out: the worker-pool shape of the serving
//! engine's batch executor (an atomic work cursor over `0..n` with
//! per-slot result cells, so no ordering pass is needed afterwards).
//! Evaluation itself never spawns threads; this runs whole requests.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Compute `f(0), …, f(n-1)` on up to `workers` scoped threads and
/// return the results in index order. `workers <= 1` runs inline with no
/// thread setup. Work is distributed through a shared cursor, so
/// uneven task costs cannot straggle a statically-chunked worker.
pub fn scoped_map<T, F>(n: usize, workers: usize, f: F) -> Vec<T>
where
    T: Send + Sync,
    F: Fn(usize) -> T + Sync,
{
    if n == 0 {
        return Vec::new();
    }
    let workers = workers.clamp(1, n);
    if workers == 1 {
        return (0..n).map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let slots: Vec<OnceLock<T>> = (0..n).map(|_| OnceLock::new()).collect();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                if slots[i].set(f(i)).is_err() {
                    unreachable!("slot {i} written once");
                }
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| slot.into_inner().expect("every slot filled"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_index_order_and_runs_every_task() {
        for workers in [0, 1, 3, 64] {
            let out = scoped_map(10, workers, |i| i * i);
            assert_eq!(out, (0..10).map(|i| i * i).collect::<Vec<_>>());
        }
        assert!(scoped_map(0, 4, |i| i).is_empty());
    }
}
