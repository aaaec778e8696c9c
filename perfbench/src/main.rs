//! perfbench: times the fused data plane against the unfused path and the
//! simulators as users run them, checks every output, and prints one JSON
//! result line.
//!
//! ```text
//! perfbench --workload <a2a-comm|a2a-compute> --seed <n>
//!           --seconds <s> --trace <0|1> [--trace-dir <dir>] [--inject-error]
//! ```
//!
//! With `--trace 0` the result holds the end-to-end metrics; with
//! `--trace 1` it holds the per-layer metrics, measured from spans the
//! benchmark records around each call into a layer and from replays of
//! the layers it cannot wrap in place. `LAYERS.md` lists which end-to-end
//! metric each per-layer metric should move.

mod dataplane;
mod pricing;
mod stats;
mod trace;

use std::path::PathBuf;
use std::time::{Duration, Instant};

use dataplane::{Checks, DataPlane, Shape, LANES};
use pricing::{PassResult, Pricing};
use stats::{median, quantile, Reduce, Samples};
use trace::{child_end_skew_us, durations_us, self_times_us, Tracer};

/// Set-up runs per benchmark run, at least; `setup_s` is their median.
const SETUP_REPS: usize = 15;
/// Set-up repeats until this much time has passed, too, so a cheap set-up
/// (a few ms at the `a2a-comm` shape) is repeated more often.
const SETUP_MIN: Duration = Duration::from_secs(1);
/// Fewest data-plane execution pairs a run makes, however short.
const MIN_PAIRS: usize = 64;
/// In the traced run, inner layers are replayed every this many pairs.
const REPLAY_EVERY: usize = 4;
/// Consecutive executions per window of [`windowed`].
const WINDOW: usize = 1000;
/// Consecutive fused/unfused pairs per group of [`paired_ratio`].
const GROUP: usize = 32;
/// Pricing passes per run, at least.
const MIN_PASSES: usize = 2;
/// Share of the run spent on the data plane; the rest prices. At 0.45 a
/// round lasts 12-14 s on a 2-core host, so four fit in a 55 s run.
const DATAPLANE_SHARE: f64 = 0.45;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    A2aComm,
    A2aCompute,
}

impl Workload {
    fn parse(s: &str) -> Option<Workload> {
        match s {
            "a2a-comm" => Some(Workload::A2aComm),
            "a2a-compute" => Some(Workload::A2aCompute),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::A2aComm => "a2a-comm",
            Workload::A2aCompute => "a2a-compute",
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    trace_dir: Option<PathBuf>,
    inject_error: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut trace_dir = None;
    let mut inject_error = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(Workload::parse(&v).ok_or(format!("unknown workload {v:?}"))?);
            }
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, got {v:?}")),
                }
            }
            "--trace-dir" => trace_dir = Some(PathBuf::from(value()?)),
            "--inject-error" => inject_error = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
        trace_dir,
        inject_error,
    })
}

/// Peak resident set of this process, MiB.
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

/// Data-plane timings of one run.
#[derive(Default)]
struct DataPlaneRun {
    fused_us: Vec<f64>,
    baseline_us: Vec<f64>,
    /// Untraced fused executions interleaved into the traced run.
    untraced_us: Vec<f64>,
}

/// Runs fused/unfused execution pairs, rotating over the data plane's
/// lanes, until `until` (and until the run holds at least [`MIN_PAIRS`]),
/// verifying every output outside the timed calls.
fn run_dataplane(
    dp: &mut DataPlane,
    until: Instant,
    args: &Args,
    tracer: &Tracer,
    checks: &mut Checks,
    samples: &mut Samples,
    run: &mut DataPlaneRun,
) {
    let off = Tracer::new(false);
    while run.baseline_us.len() < MIN_PAIRS || Instant::now() < until {
        let pair = run.baseline_us.len();
        let lane = pair % LANES;
        let (input, gen) = dp.next_input();
        run.fused_us.push(dp.run_fused(lane, input, &gen, tracer));
        run.baseline_us
            .push(dp.run_unfused(lane, input, &gen, tracer));
        let expected = dp.expected(&gen);
        if args.inject_error && pair == 0 {
            dp.corrupt_fused_output(lane, &expected);
        }
        checks.record(dp.fused_matches(lane, &expected));
        checks.record(dp.unfused_matches(lane, &expected));
        if tracer.enabled() {
            let (input, gen) = dp.next_input();
            run.untraced_us.push(dp.run_fused(lane, input, &gen, &off));
            let expected = dp.expected(&gen);
            checks.record(dp.fused_matches(lane, &expected));
            if pair.is_multiple_of(REPLAY_EVERY) {
                dp.replay_inner_layers(&gen, samples);
            }
        }
    }
}

/// The `q` quantile of each window of [`WINDOW`] consecutive samples (one
/// window of everything when there are fewer).
fn per_window(samples: &[f64], q: f64) -> Vec<f64> {
    samples
        .chunks(WINDOW)
        .filter(|w| w.len() == WINDOW || samples.len() < WINDOW)
        .map(|w| quantile(w, q))
        .collect()
}

/// The median of [`per_window`]. A host stall that covers a minority of
/// the run then moves the result only as far as it moves the windows it
/// hits; a window of 1000 still leaves 10 samples beyond its p99.
fn windowed(samples: &[f64], q: f64) -> f64 {
    median(&per_window(samples, q))
}

/// Fastest fused over fastest unfused execution per group of [`GROUP`]
/// consecutive pairs, then the median over groups. A group spans a few
/// milliseconds, so both paths see the same host in it, and the fastest
/// of each leaves out the executions a preemption or a slow thread wake-up
/// hit. Over five 55 s `a2a-comm` runs on a 2-core host this spread 1.3 %
/// (IQR / median); the median of per-window p50 ratios spread 3 %.
fn paired_ratio(run: &DataPlaneRun) -> f64 {
    let fastest = |v: &[f64]| v.iter().copied().fold(f64::INFINITY, f64::min);
    let ratios: Vec<f64> = run
        .fused_us
        .chunks(GROUP)
        .zip(run.baseline_us.chunks(GROUP))
        .map(|(f, b)| fastest(f) / fastest(b))
        .collect();
    median(&ratios)
}

/// A reported metric: name, value, unit and sample count.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
    n: usize,
}

fn metric(name: &'static str, value: f64, unit: &'static str, n: usize) -> Metric {
    Metric {
        name,
        value,
        unit,
        n,
    }
}

fn end_to_end(
    setup_s: &[f64],
    run: &DataPlaneRun,
    passes: &[PassResult],
    checks: Checks,
) -> Vec<Metric> {
    let np = passes.len();
    let pass_median = |f: fn(&PassResult) -> f64| median(&passes.iter().map(f).collect::<Vec<_>>());
    let first = passes[0];
    let verified = (checks.attempted - checks.failed) as f64 / checks.attempted.max(1) as f64;
    let nf = run.fused_us.len();
    vec![
        metric("setup_s", median(setup_s), "s", setup_s.len()),
        metric("peak_rss_mib", peak_rss_mib(), "MiB", 1),
        metric(
            "verified_rate",
            verified,
            "share",
            checks.attempted as usize,
        ),
        metric("exec_p50_us", windowed(&run.fused_us, 0.5), "us", nf),
        metric(
            "baseline_p50_us",
            windowed(&run.baseline_us, 0.5),
            "us",
            run.baseline_us.len(),
        ),
        metric("exec_over_baseline", paired_ratio(run), "ratio", nf),
        metric("figures_s", pass_median(|p| p.figures_s), "s", np),
        metric("scaleout_s", pass_median(|p| p.scaleout_s), "s", np),
        metric(
            "serve_req_per_s",
            pass_median(|p| p.serve_req_per_s),
            "1/s",
            np,
        ),
        metric("fused_norm_geomean", first.fused_norm_geomean, "ratio", np),
        metric(
            "zerocopy_norm_geomean",
            first.zerocopy_norm_geomean,
            "ratio",
            np,
        ),
        metric("scaleout_norm", first.scaleout_norm, "ratio", np),
        metric("serve_p99_us", first.serve_p99_us, "virtual_us", np),
        metric("serve_shed_rate", first.serve_shed_rate, "share", np),
    ]
}

struct LayerStats<'a> {
    tracer: &'a Tracer,
    samples: &'a Samples,
    dp: &'a DataPlane,
    run: &'a DataPlaneRun,
    ring_puts: u64,
    ring_full_spins: u64,
    ring_bypasses: u64,
}

fn per_layer(l: &LayerStats) -> Vec<Metric> {
    let spans = l.tracer.spans();
    let from_spans =
        |name: &'static str, unit, v: Vec<f64>| metric(name, median(&v), unit, v.len());
    let sampled = |name: &'static str, unit, how| {
        let (value, n) = l.samples.reduce(name, how);
        metric(name, value, unit, n)
    };
    let fused_execs = l.run.fused_us.len() + l.run.untraced_us.len();
    let per_exec = |count: u64| count as f64 / fused_execs.max(1) as f64;
    let overhead = median(&l.run.fused_us) / median(&l.run.untraced_us) - 1.0;
    use Reduce::{Mean, Median};
    vec![
        from_spans("shmem.run_us", "us", self_times_us(&spans, "fused.run")),
        sampled("shmem.put_row_ns", "ns", Median),
        sampled("shmem.put_strided_us", "us", Median),
        sampled("shmem.flag_rtt_us", "us", Median),
        metric(
            "shmem.ring_puts",
            per_exec(l.ring_puts),
            "count",
            fused_execs,
        ),
        metric(
            "shmem.ring_full_spins",
            per_exec(l.ring_full_spins),
            "count",
            fused_execs,
        ),
        metric(
            "shmem.ring_bypasses",
            per_exec(l.ring_bypasses),
            "count",
            fused_execs,
        ),
        from_spans(
            "core.execute_us",
            "us",
            durations_us(&spans, "core.execute"),
        ),
        metric(
            "core.exec_p99_us",
            windowed(&l.run.fused_us, 0.99),
            "us",
            l.run.fused_us.len(),
        ),
        from_spans(
            "core.pe_skew_us",
            "us",
            child_end_skew_us(&spans, "fused.run", "core.execute"),
        ),
        sampled("core.steal_sched_us", "us", Median),
        sampled("core.workers", "count", Mean),
        sampled("core.steals", "count", Mean),
        metric(
            "core.scratch_misses",
            l.dp.scratch_misses() as f64,
            "count",
            1,
        ),
        metric("core.steal_misses", l.dp.steal_misses() as f64, "count", 1),
        sampled("core.plan_ms", "ms", Median),
        sampled("dlrm.bag_ns", "ns", Median),
        sampled("dlrm.pool_ns", "ns", Median),
        sampled("dlrm.pool_gbps", "GB/s", Median),
        sampled("host.memcpy_gbps", "GB/s", Median),
        sampled("dlrm.tables_s", "s", Median),
        from_spans("coll.a2a_us", "us", durations_us(&spans, "coll.a2a")),
        sampled("sim.fused_ms", "ms", Median),
        sampled("sim.baseline_ms", "ms", Median),
        sampled("sim.zerocopy_ms", "ms", Median),
        sampled("sim.messages", "count", Median),
        sampled("net.flow_s", "s", Median),
        sampled("net.flow_events", "count", Median),
        sampled("net.flow_refreshes", "count", Median),
        sampled("net.flow_max_active", "count", Median),
        sampled("net.flow_ms_per_event", "ms", Median),
        sampled("astra.pass_ms", "ms", Median),
        sampled("serve.loadgen_ms", "ms", Median),
        sampled("serve.loop_ns_per_req", "ns", Median),
        sampled("serve.batches", "count", Median),
        sampled("serve.degrades", "count", Median),
        sampled("serve.shed_queue_full", "count", Median),
        sampled("serve.shed_hopeless", "count", Median),
        sampled("serve.shed_overload", "count", Median),
        sampled("serve.shed_late", "count", Median),
        metric(
            "trace.overhead_share",
            overhead,
            "share",
            l.run.untraced_us.len(),
        ),
    ]
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <a2a-comm|a2a-compute> --seed <n> \
                 --seconds <s> --trace <0|1> [--trace-dir <dir>] [--inject-error]"
            );
            std::process::exit(2);
        }
    };
    let tracer = Tracer::new(args.trace);
    let shape = match args.workload {
        Workload::A2aCompute => Shape::compute(args.seed),
        Workload::A2aComm => Shape::comm(args.seed),
    };
    println!(
        "perfbench workload={} seed={} seconds={} trace={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        args.trace as u8
    );

    // Set-up, several times: tables, every lane's plans and worlds with a
    // verified warm-up execution of each path, and the simulators' inputs.
    // The last one is kept.
    let mut checks = Checks::default();
    let mut samples = Samples::default();
    let mut setup_s = Vec::new();
    let mut built = None;
    let setup_start = Instant::now();
    while setup_s.len() < SETUP_REPS || setup_start.elapsed() < SETUP_MIN {
        drop(built.take());
        let t = Instant::now();
        let (mut dp, times) = DataPlane::new(shape.clone(), args.seed);
        let pricing = Pricing::new(args.seed);
        setup_s.push(t.elapsed().as_secs_f64());
        samples.push("dlrm.tables_s", times.tables_s);
        samples.push("core.plan_ms", times.plan_ms);
        checks.add(std::mem::take(&mut dp.checks));
        built = Some((dp, pricing));
    }
    let (mut dp, pricing) = built.expect("at least one set-up");

    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let workers = dp.steal_workers();
    println!(
        "host cores={cores} profile={} pes=2 steal_workers_per_pe={workers} \
         runnable_threads_per_exec={} slice={} dim={} pooling={} table_rows={} batch={}",
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        },
        2 * (1 + workers),
        dp.slice(),
        dp.cfg.dim,
        dp.cfg.pooling,
        dp.cfg.table_rows,
        dp.cfg.global_batch,
    );

    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(args.seconds);
    let ring0 = dp.ring_stats();
    let mut run = DataPlaneRun::default();
    let mut passes: Vec<PassResult> = Vec::new();
    // Rounds of one pricing pass, with a stretch of data-plane executions
    // after each of its units, so both sample the host across the whole
    // run. Rounds continue until the next one would overrun the deadline.
    let mut round = Duration::ZERO;
    while passes.len() < MIN_PASSES || Instant::now() + round < deadline {
        let t = Instant::now();
        let mut between = |stage: Duration, samples: &mut Samples| {
            let until = Instant::now() + stage.mul_f64(DATAPLANE_SHARE / (1.0 - DATAPLANE_SHARE));
            run_dataplane(
                &mut dp,
                until,
                &args,
                &tracer,
                &mut checks,
                samples,
                &mut run,
            );
        };
        passes.push(pricing.pass(&tracer, &mut samples, &mut between));
        round = t.elapsed();
    }
    let measured_s = start.elapsed().as_secs_f64();
    let ring1 = dp.ring_stats();

    for p in &passes {
        checks.attempted += p.checks_ok + p.checks_failed;
        checks.failed += p.checks_failed;
    }
    // Simulated results must repeat exactly within the run.
    for p in &passes[1..] {
        checks.record(p.same_simulation(&passes[0]));
    }

    let metrics = if args.trace {
        per_layer(&LayerStats {
            tracer: &tracer,
            samples: &samples,
            dp: &dp,
            run: &run,
            ring_puts: ring1.ring_puts - ring0.ring_puts,
            ring_full_spins: ring1.full_spins - ring0.full_spins,
            ring_bypasses: ring1.bypasses - ring0.bypasses,
        })
    } else {
        end_to_end(&setup_s, &run, &passes, checks)
    };
    println!(
        "measured {measured_s:.3} s: {} fused + {} unfused executions, {} pricing passes; \
         {} of {} checks failed",
        run.fused_us.len() + run.untraced_us.len(),
        run.baseline_us.len(),
        passes.len(),
        checks.failed,
        checks.attempted
    );
    for (i, p) in passes.iter().enumerate() {
        println!(
            "pass {i}: figures_s={:.4} scaleout_s={:.4} serve_req_per_s={:.0}",
            p.figures_s, p.scaleout_s, p.serve_req_per_s
        );
    }
    let q = |v: &[f64], q| quantile(v, q);
    println!(
        "fused_us p10={:.1} p50={:.1} p90={:.1} p95={:.1} p99={:.1} p99.9={:.1}; \
         baseline_us p10={:.1} p50={:.1} p90={:.1} p99={:.1}",
        q(&run.fused_us, 0.1),
        q(&run.fused_us, 0.5),
        q(&run.fused_us, 0.9),
        q(&run.fused_us, 0.95),
        q(&run.fused_us, 0.99),
        q(&run.fused_us, 0.999),
        q(&run.baseline_us, 0.1),
        q(&run.baseline_us, 0.5),
        q(&run.baseline_us, 0.9),
        q(&run.baseline_us, 0.99),
    );
    for m in &metrics {
        println!(
            "metric {:<24} {:>16} {:<10} n={}",
            m.name,
            json_number(m.value),
            m.unit,
            m.n
        );
    }

    if let (true, Some(dir)) = (args.trace, &args.trace_dir) {
        let path = dir.join(format!(
            "trace-{}-seed{}.jsonl",
            args.workload.name(),
            args.seed
        ));
        match tracer.write_jsonl(&path) {
            Ok(()) => println!("spans written to {}", path.display()),
            Err(e) => eprintln!("perfbench: writing {}: {e}", path.display()),
        }
    }

    let all_finite = metrics.iter().all(|m| m.value.is_finite());
    let correct = checks.failed == 0 && all_finite;
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        checks.attempted,
        checks.failed,
        body.join(", ")
    );
}
