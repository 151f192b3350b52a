//! Head-to-head advisor comparison on the TPC-H-like workload.
//!
//! Runs AIM, DTA and Extend through the common [`IndexAdvisor`] harness
//! at a fixed budget and prints estimated workload cost, runtime and
//! optimizer (what-if) call counts — a miniature of the paper's §VI-B.
//!
//! ```sh
//! cargo run -p aim-bench --example advisor_comparison --release
//! ```

use aim_baselines::{Dta, Extend};
use aim_core::{config_size, defs_to_config, workload_cost, AimAdvisor, IndexAdvisor};
use aim_exec::{CostModel, HypoConfig};
use std::time::Instant;

fn main() {
    let cfg = aim_workloads::tpch::TpchConfig {
        scale: 0.002,
        seed: 0xAA17,
    };
    println!("building TPC-H-like database (scale {}) ...", cfg.scale);
    let db = aim_workloads::tpch::build_database(&cfg);
    let workload = aim_workloads::tpch::weighted_workload(17);
    let cm = CostModel::default();
    let base = workload_cost(&db, &workload, &HypoConfig::only(Vec::new()), &cm);

    // Budget: 60% of AIM's unconstrained configuration.
    let mut probe = AimAdvisor::new(3, 4);
    let full = probe.recommend(&db, &workload, u64::MAX);
    let budget = (config_size(&db, &full) as f64 * 0.6) as u64;
    println!("unindexed workload cost: {base:.0} cost units; budget {budget} bytes\n");
    println!(
        "{:<10} {:>9} {:>8} {:>10} {:>8} {:>12}",
        "advisor", "rel.cost", "indexes", "runtime", "whatif", "bytes used"
    );

    let run = |name: &str, advisor: &mut dyn IndexAdvisor, calls: &dyn Fn() -> u64| {
        let start = Instant::now();
        let defs = advisor.recommend(&db, &workload, budget);
        let elapsed = start.elapsed();
        let cost = workload_cost(&db, &workload, &defs_to_config(&db, &defs), &cm);
        println!(
            "{name:<10} {:>9.3} {:>8} {:>10.3?} {:>8} {:>12}",
            cost / base,
            defs.len(),
            elapsed,
            calls(),
            config_size(&db, &defs)
        );
    };

    let mut aim = AimAdvisor::new(3, 4);
    run("AIM", &mut aim, &|| 0);
    let mut dta = Dta::new(4);
    run("DTA", &mut dta, &|| 0);
    println!("{:>38} DTA what-if calls: {}", "", dta.last_whatif_calls);
    let mut ext = Extend::new(4);
    run("Extend", &mut ext, &|| 0);
    println!("{:>38} Extend what-if calls: {}", "", ext.last_whatif_calls);
}
