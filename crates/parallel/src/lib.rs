//! A minimal std-thread worker pool used by every embarrassingly parallel
//! stage in the workspace (subgraph evaluation in the experiment harness and
//! the benchmark, per-anchor path-table construction).
//!
//! No external crates: workers claim indices from a shared atomic cursor
//! (cheap dynamic load balancing — item cost can vary by orders of
//! magnitude) and write into dedicated slots, so the result order never
//! depends on scheduling.
//!
//! ## Sizing the pool
//!
//! Every map sizes its pool from [`effective_threads`], resolved in
//! precedence order:
//!
//! 1. an explicit [`set_threads`] call (process-wide),
//! 2. the `TIN_THREADS` environment variable (read once, at first use),
//! 3. [`std::thread::available_parallelism`].
//!
//! `TIN_THREADS=1` (or `set_threads(1)`) forces every parallel stage onto
//! the calling thread — the serial path stays exercised under the exact
//! same code.

#![forbid(unsafe_code)]

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

/// Process-wide override installed by [`set_threads`] (0 = no override).
static OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// `TIN_THREADS` parsed once (0 = unset or unusable).
static ENV_THREADS: OnceLock<usize> = OnceLock::new();

/// Parses a `TIN_THREADS`-style value: a positive integer, anything else
/// (including `0`) meaning "no preference".
fn parse_threads(value: Option<&str>) -> Option<usize> {
    value
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&n| n > 0)
}

/// Sets the process-wide worker-pool size for every subsequent parallel
/// map. `Some(n)` forces `n` threads (1 = fully serial); `None` removes the
/// override, falling back to `TIN_THREADS` / hardware parallelism.
pub fn set_threads(threads: Option<usize>) {
    OVERRIDE.store(threads.unwrap_or(0), Ordering::Relaxed);
}

/// The worker-pool size every parallel map in this process will use:
/// the [`set_threads`] override if present, else `TIN_THREADS`, else
/// [`std::thread::available_parallelism`]. Always at least 1.
pub fn effective_threads() -> usize {
    let forced = OVERRIDE.load(Ordering::Relaxed);
    if forced > 0 {
        return forced;
    }
    let env = *ENV_THREADS
        .get_or_init(|| parse_threads(std::env::var("TIN_THREADS").ok().as_deref()).unwrap_or(0));
    if env > 0 {
        return env;
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Runs `f` over `items` on a worker pool sized to [`effective_threads`],
/// preserving input order in the result.
///
/// With one item (or a pool of one) the map runs inline on the calling
/// thread, so small inputs pay no thread-spawn cost.
pub fn parallel_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let threads = effective_threads().min(items.len());
    if threads <= 1 {
        return items.iter().map(&f).collect();
    }
    let cursor = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<R>>> = items.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                let Some(item) = items.get(i) else { break };
                let result = f(item);
                *slots[i].lock().expect("result slot poisoned") = Some(result);
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("result slot poisoned")
                .expect("worker completed every claimed index")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_order_and_covers_all_items() {
        let items: Vec<usize> = (0..100).collect();
        let doubled = parallel_map(&items, |&i| i * 2);
        assert_eq!(doubled, (0..100).map(|i| i * 2).collect::<Vec<_>>());
        // Empty and single-item inputs take the sequential path.
        assert_eq!(parallel_map(&[] as &[usize], |&i| i), Vec::<usize>::new());
        assert_eq!(parallel_map(&[7usize], |&i| i + 1), vec![8]);
    }

    #[test]
    fn results_do_not_depend_on_scheduling() {
        let items: Vec<u64> = (0..257).collect();
        let a = parallel_map(&items, |&i| i.wrapping_mul(0x9e3779b97f4a7c15));
        let b = parallel_map(&items, |&i| i.wrapping_mul(0x9e3779b97f4a7c15));
        assert_eq!(a, b);
    }

    #[test]
    fn parse_threads_accepts_positive_integers_only() {
        assert_eq!(parse_threads(Some("4")), Some(4));
        assert_eq!(parse_threads(Some(" 2 ")), Some(2));
        assert_eq!(parse_threads(Some("0")), None);
        assert_eq!(parse_threads(Some("-1")), None);
        assert_eq!(parse_threads(Some("many")), None);
        assert_eq!(parse_threads(None), None);
    }

    #[test]
    fn set_threads_overrides_and_clears() {
        // Runs in its own test process thread; the override is process-wide,
        // so restore it before returning.
        set_threads(Some(1));
        assert_eq!(effective_threads(), 1);
        let items: Vec<usize> = (0..32).collect();
        assert_eq!(
            parallel_map(&items, |&i| i + 1),
            (1..33).collect::<Vec<_>>()
        );
        set_threads(Some(3));
        assert_eq!(effective_threads(), 3);
        set_threads(None);
        assert!(effective_threads() >= 1);
    }
}
