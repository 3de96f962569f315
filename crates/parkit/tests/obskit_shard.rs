//! Concurrency test for obskit's sharded counters under the pool: 8
//! workers hammer one backing counter through per-task
//! [`obskit::CounterShard`]s, and the merged total must equal the sum
//! of the per-worker contributions exactly — no lost increments, no
//! double flush. Also pins that spans opened on worker threads appear
//! in the global span-tree aggregate.

use parkit::Pool;
use std::sync::Mutex;

const WORKERS: usize = 8;
const TASKS: usize = 32;
const HITS_PER_TASK: u64 = 10_000;

/// Both tests take before/after deltas of global counters that the
/// other test's pool also bumps — serialize them so the deltas stay
/// exact under any `--test-threads` width.
static GLOBAL_COUNTERS: Mutex<()> = Mutex::new(());

#[test]
fn sharded_counter_merges_to_exact_sum() {
    let _lock = GLOBAL_COUNTERS.lock().unwrap();
    let backing = obskit::counter("parkit_shard_test_total");
    let before = backing.get();
    let results = Pool::new(WORKERS)
        .run(TASKS, |i| {
            // One shard per task: unsynchronized local bumps, a single
            // atomic merge when the shard drops at task end.
            let shard = obskit::CounterShard::new(obskit::counter("parkit_shard_test_total"));
            let mut local = 0u64;
            for h in 0..HITS_PER_TASK {
                let n = (i as u64 + h) % 3 + 1;
                shard.add(n);
                local += n;
            }
            // Worker-thread spans must land in the global aggregate.
            let _s = obskit::span("parkit_shard_probe");
            local
        })
        .unwrap();

    let expected: u64 = results.iter().sum();
    assert!(expected > 0);
    assert_eq!(
        backing.get() - before,
        expected,
        "merged counter total must equal the per-worker sum"
    );

    // The span opened inside worker tasks is visible in the global
    // span-tree aggregate, as a root path (worker threads have fresh
    // span stacks), with one hit per task.
    let probe = obskit::tree::snapshot()
        .into_iter()
        .find(|n| n.path.ends_with("parkit_shard_probe"))
        .expect("probe span aggregated");
    assert_eq!(
        probe.path, "parkit_shard_probe",
        "worker span should be a root"
    );
}

#[test]
fn pool_completion_counter_accounts_every_task() {
    let _lock = GLOBAL_COUNTERS.lock().unwrap();
    let completed = obskit::counter("parkit_tasks_completed_total");
    let before = completed.get();
    Pool::new(WORKERS).run(100, |i| i * 3).unwrap();
    assert_eq!(
        completed.get() - before,
        100,
        "per-worker completion shards must merge to the task count"
    );
}
