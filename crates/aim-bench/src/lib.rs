//! Shared helpers for the experiment harnesses (one binary per table /
//! figure of the paper — see `src/bin/`).

pub mod microbench;

use aim_core::AimConfig;
use aim_monitor::{SelectionConfig, WorkloadMonitor};
use aim_storage::{Database, IndexDef};
use aim_workloads::replay::{QuerySpec, Replayer, TickSample};
use std::collections::BTreeSet;

/// Jaccard similarity between two index sets, comparing `(table, columns)`
/// identity — the measure of Table II.
pub fn jaccard(a: &[IndexDef], b: &[IndexDef]) -> f64 {
    jaccard_by(a, b, |d| (d.table.clone(), d.columns.clone()))
}

/// Order-insensitive variant: two indexes match when they cover the same
/// column *set* on the same table (column order differs between equally
/// valid orderings of an unordered equality prefix).
pub fn jaccard_sets(a: &[IndexDef], b: &[IndexDef]) -> f64 {
    jaccard_by(a, b, |d| {
        let mut cols = d.columns.clone();
        cols.sort();
        (d.table.clone(), cols)
    })
}

fn jaccard_by<K: Ord>(a: &[IndexDef], b: &[IndexDef], key: impl Fn(&IndexDef) -> K) -> f64 {
    let ka: BTreeSet<K> = a.iter().map(&key).collect();
    let kb: BTreeSet<K> = b.iter().map(&key).collect();
    let inter = ka.intersection(&kb).count() as f64;
    let union = ka.union(&kb).count() as f64;
    if union == 0.0 {
        1.0
    } else {
        inter / union
    }
}

/// Result of bootstrapping AIM on a database.
pub struct BootstrapResult {
    pub rounds: usize,
    pub created: Vec<IndexDef>,
    pub total_tuning_seconds: f64,
}

/// Runs AIM from scratch: repeated observation windows + tuning passes
/// until a pass creates nothing new (or `max_rounds` is hit). This is how
/// the paper's §VI-A bootstrap experiments run ("all secondary indexes were
/// removed and AIM was allowed to add them from scratch").
pub fn bootstrap_aim(
    db: &mut Database,
    specs: &[QuerySpec],
    budget_bytes: u64,
    max_rounds: usize,
    executions_per_round: usize,
    seed: u64,
) -> BootstrapResult {
    let session = AimConfig::builder()
        .selection(SelectionConfig {
            min_executions: 2,
            min_benefit: 0.5,
            max_queries: usize::MAX,
            include_dml: true,
        })
        .storage_budget(budget_bytes)
        .session();
    let mut replayer = Replayer::new(specs.to_vec(), seed);
    let mut created = Vec::new();
    let mut total_tuning_seconds = 0.0;
    let mut rounds = 0;
    for round in 0..max_rounds {
        rounds = round + 1;
        let mut monitor = WorkloadMonitor::new();
        replayer.run_tick(db, Some(&mut monitor), executions_per_round, f64::INFINITY);
        let outcome = session.run(db, &monitor).expect("tuning pass");
        total_tuning_seconds += outcome.elapsed.as_secs_f64();
        let n_new = outcome.created.len();
        created.extend(outcome.created.into_iter().map(|c| c.def));
        if n_new == 0 {
            break;
        }
    }
    BootstrapResult {
        rounds,
        created,
        total_tuning_seconds,
    }
}

/// Average cost per executed query over `ticks` replay ticks.
pub fn measure_avg_cost(
    db: &mut Database,
    specs: &[QuerySpec],
    ticks: usize,
    per_tick: usize,
    seed: u64,
) -> f64 {
    let mut replayer = Replayer::new(specs.to_vec(), seed);
    let mut cost = 0.0;
    let mut n = 0usize;
    for _ in 0..ticks {
        let s: TickSample = replayer.run_tick(db, None, per_tick, f64::INFINITY);
        cost += s.total_cost;
        n += s.executed;
    }
    if n == 0 {
        0.0
    } else {
        cost / n as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn def(table: &str, cols: &[&str]) -> IndexDef {
        IndexDef::new(
            format!("x_{}_{}", table, cols.join("_")),
            table,
            cols.iter().map(|s| s.to_string()).collect(),
        )
    }

    #[test]
    fn jaccard_basic() {
        let a = vec![def("t", &["a"]), def("t", &["b"])];
        let b = vec![def("t", &["a"]), def("t", &["c"])];
        assert!((jaccard(&a, &b) - 1.0 / 3.0).abs() < 1e-9);
        assert_eq!(jaccard(&a, &a), 1.0);
        assert_eq!(jaccard(&[], &[]), 1.0);
        assert_eq!(jaccard(&a, &[]), 0.0);
    }

    #[test]
    fn jaccard_ignores_names() {
        let mut x = def("t", &["a"]);
        x.name = "different_name".into();
        assert_eq!(jaccard(&[x], &[def("t", &["a"])]), 1.0);
    }
}
