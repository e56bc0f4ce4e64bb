//! Bit-exact fingerprints of the paper-simulation path.
//!
//! The simulated clock advances, and the competing workload's memory events
//! are delivered, on every `charge_cpu` call a sort makes. A refactor that
//! keeps the *total* simulated CPU charge but changes how it is split into
//! calls (per page vs per tuple) therefore still moves the paper's figures.
//! `CountingEnv` only sums charges, so it cannot see that; these pins can.
//!
//! Each row runs one sort under the default fluctuating workload over a 1 MB
//! relation with a fixed seed and compares its timings by `f64::to_bits`.
//! A mismatch prints the observed rows in this file's syntax; re-record them
//! only for a change that is *meant* to move the simulated figures.

use masort_dbsim::driver::run_one_sort;
use masort_dbsim::SimConfig;

const SEED: u64 = 20;

/// `(algorithm, response_time, split_duration, mean_split_delay,
/// split_avg_page_io, runs_formed, merge_steps, splits, combines)`, the
/// four timings as `f64::to_bits`.
type Pin = (&'static str, u64, u64, u64, u64, usize, usize, usize, usize);

#[rustfmt::skip]
const PINS: &[Pin] = &[
    ("repl1,opt,susp", 0x401c21aad8605515, 0x4011bb8b6a3ff671, 0x3f9d1c49f654fdab, 0x3f90cc63d9319440, 3, 1, 0, 0),
    ("repl1,opt,page", 0x401c21aad8605515, 0x4011bb8b6a3ff671, 0x3f9d1c49f654fdab, 0x3f90cc63d9319440, 3, 1, 0, 0),
    ("repl1,opt,split", 0x401c21aad8605515, 0x4011bb8b6a3ff671, 0x3f9d1c49f654fdab, 0x3f90cc63d9319440, 3, 1, 0, 0),
    ("repl6,opt,susp", 0x40129db9ec7d8f1e, 0x40005a4ec2c63dcb, 0x3f9e57980097e260, 0x3f7d7d28fa164862, 3, 1, 0, 0),
    ("repl6,opt,page", 0x40129db9ec7d8f1e, 0x40005a4ec2c63dcb, 0x3f9e57980097e260, 0x3f7d7d28fa164862, 3, 1, 0, 0),
    ("repl6,opt,split", 0x40129db9ec7d8f1e, 0x40005a4ec2c63dcb, 0x3f9e57980097e260, 0x3f7d7d28fa164862, 3, 1, 0, 0),
    ("adapt,opt,susp", 0x4012d65e2bfc72e6, 0x4000d26d578a0038, 0x3fa15dbf09343da0, 0x3f7e69191e0fd104, 3, 1, 0, 0),
    ("adapt,opt,page", 0x4012d65e2bfc72e6, 0x4000d26d578a0038, 0x3fa15dbf09343da0, 0x3f7e69191e0fd104, 3, 1, 0, 0),
    ("adapt,opt,split", 0x4012d65e2bfc72e6, 0x4000d26d578a0038, 0x3fa15dbf09343da0, 0x3f7e69191e0fd104, 3, 1, 0, 0),
];

fn observe(alg: &str) -> Pin {
    let cfg = SimConfig::default()
        .with_relation_mb(1.0)
        .with_algorithm(alg.parse().unwrap());
    let m = run_one_sort(&cfg, SEED);
    (
        "",
        m.response_time.to_bits(),
        m.split_duration.to_bits(),
        m.mean_split_delay.to_bits(),
        m.split_avg_page_io.to_bits(),
        m.runs_formed,
        m.merge_steps,
        m.splits,
        m.combines,
    )
}

#[test]
fn simulated_sorts_are_bit_identical_to_the_recorded_pins() {
    let algorithms: Vec<String> = ["repl1", "repl6", "adapt"]
        .iter()
        .flat_map(|f| ["susp", "page", "split"].map(|a| format!("{f},opt,{a}")))
        .collect();
    let observed: Vec<(String, Pin)> = algorithms
        .iter()
        .map(|alg| (alg.clone(), observe(alg)))
        .collect();
    let recorded: Vec<String> = observed
        .iter()
        .map(|(alg, p)| {
            format!(
                "    (\"{alg}\", {:#018x}, {:#018x}, {:#018x}, {:#018x}, {}, {}, {}, {}),",
                p.1, p.2, p.3, p.4, p.5, p.6, p.7, p.8
            )
        })
        .collect();
    let expected: Vec<String> = PINS
        .iter()
        .map(|p| {
            format!(
                "    (\"{}\", {:#018x}, {:#018x}, {:#018x}, {:#018x}, {}, {}, {}, {}),",
                p.0, p.1, p.2, p.3, p.4, p.5, p.6, p.7, p.8
            )
        })
        .collect();
    assert_eq!(
        expected,
        recorded,
        "simulated sorts drifted from the recorded pins; observed:\n{}",
        recorded.join("\n")
    );
}
