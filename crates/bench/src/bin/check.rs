//! `check` — the schedule-exploration conformance driver.
//!
//! Runs every operator variant in `fcc-check`'s conformance suite
//! (`standard_cases`: fused, zerocopy — the fused operator on one P2P
//! group — generic, elastic, resilient, MoE, allgather-GEMM) under
//! adversarially chosen delivery schedules: an exhaustive walk of the
//! put-deferral cube at small PE counts, then seeded schedules at a
//! larger PE count until each variant has been observed under at least
//! `--target` distinct schedules (or its entire schedule space has been
//! enumerated). A third phase varies the seeded *work-stealing* schedule
//! of each variant's task loop (with a fresh seeded delivery order per
//! run) until `--steal-target` distinct steal schedules have been seen
//! clean, or the reachable space saturates. Exits non-zero on any
//! invariant violation, any causal-coverage violation, any reference
//! mismatch, or any variant left under-explored.
//!
//! ```text
//! cargo run --release -p fcc-bench --bin check -- \
//!     [--exhaustive-pes 2,3] [--bits 10] [--pes 6] [--target 1000] \
//!     [--steal-target 1000] [--max-runs 4096] [--case substring]
//! ```

use std::process::ExitCode;

use fcc_bench::args::{die, usage_exit};
use fcc_check::{explore, explore_steal, standard_cases, Budget, Report};

struct Args {
    exhaustive_pes: Vec<usize>,
    bits: u32,
    pes: usize,
    target: usize,
    steal_target: usize,
    max_runs: usize,
    case: Option<String>,
}

impl Default for Args {
    fn default() -> Args {
        Args {
            exhaustive_pes: vec![2, 3],
            bits: 10,
            pes: 6,
            target: 1000,
            steal_target: 1000,
            max_runs: 4096,
            case: None,
        }
    }
}

fn parse<T>(flag: &str, raw: String) -> T
where
    T: std::str::FromStr,
    T::Err: std::fmt::Display,
{
    match raw.parse() {
        Ok(v) => v,
        Err(e) => die(format_args!("{flag}: cannot parse {raw:?}: {e}")),
    }
}

fn parse_args() -> Args {
    let mut args = Args::default();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || match it.next() {
            Some(v) => v,
            None => die(format_args!("{flag} needs a value")),
        };
        match flag.as_str() {
            "--exhaustive-pes" => {
                args.exhaustive_pes = value()
                    .split(',')
                    .map(|s| parse("--exhaustive-pes", s.trim().to_string()))
                    .collect()
            }
            "--bits" => args.bits = parse("--bits", value()),
            "--pes" => args.pes = parse("--pes", value()),
            "--target" => args.target = parse("--target", value()),
            "--steal-target" => args.steal_target = parse("--steal-target", value()),
            "--max-runs" => args.max_runs = parse("--max-runs", value()),
            "--case" => args.case = Some(value()),
            other => usage_exit(
                other,
                "check [--exhaustive-pes 2,3] [--bits 10] [--pes 6] [--target 1000] \
                 [--steal-target 1000] [--max-runs 4096] [--case substring]",
            ),
        }
    }
    args
}

fn print_report(phase: &str, report: &Report, ok: bool) {
    println!(
        "[{}] {:<20} runs {:>5}  distinct {:>5}  cube {}  violations {}  ctx {}  mismatches {} \
         -> {}",
        phase,
        report.case,
        report.runs,
        report.distinct_schedules,
        if report.space_exhausted {
            "full"
        } else {
            "part"
        },
        report.violations_total,
        report.ctx_violations_total,
        report.mismatches_total,
        if ok { "ok" } else { "FAIL" },
    );
    for v in &report.violations {
        println!("      violation: {v}");
    }
    for v in &report.ctx_violations {
        println!("      ctx:       {v}");
    }
    for m in &report.mismatches {
        println!("      mismatch:  {m}");
    }
}

fn main() -> ExitCode {
    let args = parse_args();
    let wanted = |name: &str| match &args.case {
        Some(filter) => name.contains(filter.as_str()),
        None => true,
    };
    let mut failed = false;

    // Phase 1: exhaustive cubes at small PE counts. Depth (distinct
    // count) is not the goal here — complete coverage of the small
    // instances is, so `passed` is judged on cleanliness only.
    for &n in &args.exhaustive_pes {
        let budget = Budget {
            exhaustive_bits: args.bits,
            target_distinct: 0,
            max_runs: args.max_runs,
        };
        for case in standard_cases(n) {
            if !wanted(&case.name()) {
                continue;
            }
            let report = explore(case.as_ref(), &budget);
            let ok = report.clean();
            failed |= !ok;
            print_report("exhaustive", &report, ok);
        }
    }

    // Phase 2: schedule-count depth at a larger PE count. Each variant
    // must be seen clean under `target` distinct schedules, unless its
    // entire space was enumerated first.
    let budget = Budget {
        exhaustive_bits: args.bits,
        target_distinct: args.target,
        max_runs: args.max_runs,
    };
    for case in standard_cases(args.pes) {
        if !wanted(&case.name()) {
            continue;
        }
        let report = explore(case.as_ref(), &budget);
        let ok = report.passed(args.target);
        failed |= !ok;
        print_report("seeded", &report, ok);
    }

    // Phase 3: the steal-schedule dimension. Each variant's task loop is
    // rerun under distinct seeded work-stealing schedules (each run also
    // draws a fresh seeded delivery order) until the target is reached
    // or the reachable steal space saturates.
    let steal_budget = Budget {
        exhaustive_bits: args.bits,
        target_distinct: args.steal_target,
        max_runs: args.max_runs,
    };
    for case in standard_cases(args.pes) {
        if !wanted(&case.name()) || case.steal_tasks() == 0 {
            continue;
        }
        let report = explore_steal(case.as_ref(), &steal_budget);
        let ok = report.passed(args.steal_target);
        failed |= !ok;
        print_report("steal", &report, ok);
    }

    if failed {
        println!("check: FAILED");
        ExitCode::FAILURE
    } else {
        println!("check: all variants clean");
        ExitCode::SUCCESS
    }
}
