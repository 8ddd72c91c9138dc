//! Integration tests for the session trace store: exactly-once
//! generation under concurrency, key isolation across seeds, and
//! fallback when the on-disk cache is corrupted.

use std::path::PathBuf;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

use bench::workloads::Workload;
use bench::{Session, TraceKey, TraceStore};
use simcpu::{Benchmark, BusKind};

/// The busprobe registry is process-global, so tests that assert
/// counter deltas must not overlap with each other.
fn probe_lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// A unique scratch directory per test, cleaned up by the caller.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("session-store-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn concurrent_requests_generate_the_trace_exactly_once() {
    let _g = probe_lock();
    let generated = busprobe::counter("bench.workload.traces");
    let misses = busprobe::counter("bench.session.trace_misses");
    let hits = busprobe::counter("bench.session.trace_hits");
    busprobe::set_enabled(true);
    let (g0, m0, h0) = (generated.value(), misses.value(), hits.value());

    let session = Session::builder().values(5_000).seed(21).build();
    let w = Workload::Bench(Benchmark::Swim, BusKind::Register);
    const THREADS: usize = 8;
    let traces: Vec<Arc<bustrace::Trace>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..THREADS).map(|_| s.spawn(|| session.trace(w))).collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    busprobe::set_enabled(false);

    assert_eq!(
        generated.value() - g0,
        1,
        "the workload generator must run exactly once for a shared key"
    );
    assert_eq!(misses.value() - m0, 1, "one store miss fills the cell");
    assert_eq!(
        hits.value() - h0,
        (THREADS - 1) as u64,
        "every other request is a hit"
    );
    for t in &traces[1..] {
        assert!(
            Arc::ptr_eq(&traces[0], t),
            "all requests must share one Arc<Trace>"
        );
    }
}

#[test]
fn distinct_seeds_do_not_alias() {
    // Generates traces, which moves the global counters a sibling test
    // is asserting exact deltas on while it has probes enabled.
    let _g = probe_lock();
    let store = TraceStore::in_memory();
    let w = Workload::Bench(Benchmark::Gcc, BusKind::Register);
    let a = store.get(&TraceKey::new(w, 4_000, 1));
    let b = store.get(&TraceKey::new(w, 4_000, 2));
    assert_eq!(store.len(), 2, "different seeds are different keys");
    assert!(!Arc::ptr_eq(&a, &b));
    let differs = a.iter().zip(b.iter()).any(|(x, y)| x != y);
    assert!(differs, "seed must change the generated values");

    // Sessions built with different seeds see the same distinction.
    let s1 = Session::builder().values(4_000).seed(1).build();
    let s2 = Session::builder().values(4_000).seed(2).build();
    assert_eq!(&*s1.trace(w), &*a);
    assert_eq!(&*s2.trace(w), &*b);
}

#[test]
fn corrupted_disk_cache_entry_falls_back_to_regeneration() {
    let _g = probe_lock();
    let out = scratch("corrupt");
    let w = Workload::Bench(Benchmark::Li, BusKind::Register);

    // Cold run: generates the trace and persists it under <out>/cache/.
    let cold = Session::builder()
        .values(3_000)
        .seed(9)
        .out_dir(&out)
        .disk_cache(true)
        .build();
    let expected = cold.trace(w);
    let cache_dir = out.join("cache");
    let files: Vec<PathBuf> = std::fs::read_dir(&cache_dir)
        .expect("cache dir exists after a cold run")
        .map(|e| e.unwrap().path())
        .collect();
    assert_eq!(files.len(), 1, "exactly one cache entry was written");

    // Corrupt the entry on disk.
    std::fs::write(&files[0], "not a trace file\n").unwrap();

    let rejects = busprobe::counter("bench.session.disk_rejects");
    busprobe::set_enabled(true);
    let r0 = rejects.value();
    let warm = Session::builder()
        .values(3_000)
        .seed(9)
        .out_dir(&out)
        .disk_cache(true)
        .build();
    let regenerated = warm.trace(w);
    busprobe::set_enabled(false);

    assert_eq!(rejects.value() - r0, 1, "the corrupt entry was rejected");
    assert_eq!(
        &*regenerated, &*expected,
        "regeneration must reproduce the original trace"
    );
    // The rejected entry was rewritten with valid contents.
    let reloaded = bustrace::io::load_trace(&files[0]).expect("cache entry was repaired");
    assert_eq!(&reloaded, &*expected);
    let _ = std::fs::remove_dir_all(&out);
}
