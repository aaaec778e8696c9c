//! The simulators as users run them: the Fig. 10 and Fig. 14 grids, a
//! multi-rail uniform All-to-All priced on the flow fabric, and a seeded
//! flash-crowd `serve()` on the modelled executor.

use std::time::{Duration, Instant};

use fcc_astra::{build_pass_with_wire, OperatorMode};
use fcc_core::sim::baseline::{simulate_baseline, EmbeddingLaunch};
use fcc_core::sim::intranode::simulate_zero_copy;
use fcc_core::{simulate_fused, FusedParams, FusedTuning};
use fcc_dlrm::DlrmConfig;
use fcc_gpu::config::GpuConfig;
use fcc_net::{presets, FlowFabric, Injection, Topology};
use fcc_serve::{
    check_serve_trace, serve, BatchPolicy, LoadPattern, LoadSpec, ModelExecutor, ServeReport,
    ServerConfig,
};
use fcc_sim::SimTime;
use fcc_telemetry::Telemetry;

use crate::dataplane::mix;
use crate::stats::{geomean, median, Samples};
use crate::trace::Tracer;

/// Tables per GPU in both hardware grids.
const TABLE_COUNTS: [usize; 3] = [64, 128, 256];
/// Global batches of the inter-node grid (Fig. 10).
const INTER_NODE_BATCHES: [usize; 4] = [256, 512, 1024, 2048];
/// Global batches of the intra-node grid (Fig. 14).
const INTRA_NODE_BATCHES: [usize; 4] = [512, 1024, 2048, 4096];
/// Nodes of the multi-rail scale-out point. At 1024 nodes (1M flows,
/// 130 MB of fresh pages per run) one run took 1.3-2.7 s within a single
/// process on a 2-core host, too unsteady to gate on; 512 nodes takes
/// about 0.2 s and is repeated.
const SCALEOUT_NODES: u32 = 512;
/// Scale-out runs per pass.
const SCALEOUT_REPS: usize = 5;
/// Serve runs per pass.
const SERVE_REPS: usize = 5;

/// Inputs of one pricing pass, built during set-up.
pub struct Pricing {
    scaleout_topo: Topology,
    scaleout_cfg: DlrmConfig,
    injections: Vec<Injection>,
    load: LoadSpec,
    server_seed: u64,
}

/// What one pricing pass measured. The `*_norm*`, `serve_p99_us`,
/// `serve_shed_rate` and `fingerprint` fields are simulated results and
/// repeat exactly for a given seed.
#[derive(Debug, Clone, Copy)]
pub struct PassResult {
    pub figures_s: f64,
    pub scaleout_s: f64,
    pub serve_req_per_s: f64,
    pub fused_norm_geomean: f64,
    pub zerocopy_norm_geomean: f64,
    pub scaleout_norm: f64,
    pub serve_p99_us: f64,
    pub serve_shed_rate: f64,
    /// Simulated counts that must also repeat: messages, flow events,
    /// requests, batches.
    pub fingerprint: [u64; 4],
    /// Checks that passed (flow-fabric invariants, serve trace audit).
    pub checks_ok: u64,
    pub checks_failed: u64,
}

impl PassResult {
    /// Whether the simulated results equal `other`'s bit for bit.
    pub fn same_simulation(&self, other: &PassResult) -> bool {
        let sim = |p: &PassResult| {
            [
                p.fused_norm_geomean,
                p.zerocopy_norm_geomean,
                p.scaleout_norm,
                p.serve_p99_us,
                p.serve_shed_rate,
            ]
            .map(f64::to_bits)
        };
        sim(self) == sim(other) && self.fingerprint == other.fingerprint
    }
}

impl Pricing {
    pub fn new(seed: u64) -> Pricing {
        let n = SCALEOUT_NODES as usize;
        let scaleout_topo = presets::multi_rail_scaleout(SCALEOUT_NODES);
        let scaleout_cfg = DlrmConfig::scale_out(n, 64 * n, 6);
        let bytes = scaleout_cfg.alltoall_bytes_per_pair();
        let mut injections = Vec::with_capacity(n * (n - 1));
        for src in 0..SCALEOUT_NODES {
            for dst in (0..SCALEOUT_NODES).filter(|&d| d != src) {
                injections.push(Injection {
                    at: SimTime::ZERO,
                    src,
                    dst,
                    bytes,
                    tag: injections.len() as u64,
                });
            }
        }
        // The modelled executor serves about 70k requests/s at batch 32;
        // the crowd doubles a near-capacity base rate for two seconds, and
        // the 5 ms budget makes every shed rung fire.
        let load = LoadSpec {
            seed: mix(seed, 3),
            rps: 60_000.0,
            duration_us: 6_000_000,
            slo_us: 5_000,
            pattern: LoadPattern::FlashCrowd {
                at_us: 2_000_000,
                len_us: 2_000_000,
                multiplier: 2.0,
            },
        };
        Pricing {
            scaleout_topo,
            scaleout_cfg,
            injections,
            load,
            server_seed: mix(seed, 4),
        }
    }

    /// One pass over every simulator, single-threaded. The pass is cut
    /// into units (a grid point, the scale-out point, one serve); after
    /// each it calls `between` with the unit's duration, so the caller can
    /// interleave other work and both sample the host across the run.
    pub fn pass(
        &self,
        tracer: &Tracer,
        samples: &mut Samples,
        between: &mut dyn FnMut(Duration, &mut Samples),
    ) -> PassResult {
        let mut checks_ok = 0;
        let mut checks_failed = 0;
        let gpu = GpuConfig::mi210();
        let timed = |name: &'static str, samples: &mut Samples, f: &mut dyn FnMut()| {
            let t = Instant::now();
            tracer.span(name, None, 0, |_| f());
            let took = t.elapsed();
            samples.push(name, took.as_secs_f64() * 1e3);
            took
        };

        // Figures: Fig. 10 (fused vs baseline over InfiniBand) and Fig. 14
        // (zero-copy vs baseline inside a 4-GPU node), one unit per point.
        let mut figures = Duration::ZERO;
        let mut fused_norm = Vec::new();
        let mut zerocopy_norm = Vec::new();
        let mut messages = 0u64;
        let inter = presets::dual_node_ib();
        for &tables in &TABLE_COUNTS {
            for &batch in &INTER_NODE_BATCHES {
                let cfg = DlrmConfig::hw_eval(2, batch, tables);
                let mut base = SimTime::ZERO;
                let mut unit = timed("sim.baseline_ms", samples, &mut || {
                    base = simulate_baseline(&cfg, &gpu, &inter, EmbeddingLaunch::PerTable).total;
                });
                let mut fused = SimTime::ZERO;
                unit += timed("sim.fused_ms", samples, &mut || {
                    let r =
                        simulate_fused(&FusedParams::new(cfg.clone(), gpu.clone(), inter.clone()));
                    messages += r.per_pe.iter().map(|p| p.messages).sum::<u64>();
                    fused = r.makespan();
                });
                fused_norm.push(fused.as_nanos_f64() / base.as_nanos_f64());
                figures += unit;
                between(unit, samples);
            }
        }
        let intra = presets::quad_gpu_node();
        for &tables in &TABLE_COUNTS {
            for &batch in &INTRA_NODE_BATCHES {
                let cfg = DlrmConfig::hw_eval(4, batch, tables);
                let mut base = SimTime::ZERO;
                let mut unit = timed("sim.baseline_ms", samples, &mut || {
                    base = simulate_baseline(&cfg, &gpu, &intra, EmbeddingLaunch::PerTable).total;
                });
                let mut zc = SimTime::ZERO;
                unit += timed("sim.zerocopy_ms", samples, &mut || {
                    zc = simulate_zero_copy(&cfg, &gpu, &intra, &FusedTuning::default()).total;
                });
                zerocopy_norm.push(zc.as_nanos_f64() / base.as_nanos_f64());
                figures += unit;
                between(unit, samples);
            }
        }
        samples.push("sim.messages", messages as f64);

        // Scale-out: the uniform All-to-All's wire time measured on the
        // flow fabric with its invariants checked, then the DLRM pass
        // priced with that wire time in both operator modes. Each repeat
        // is one unit and must price identically.
        let mut scaleout_s = Vec::with_capacity(SCALEOUT_REPS);
        let mut scaleout_result: Option<(u64, u64)> = None;
        for _ in 0..SCALEOUT_REPS {
            let t = Instant::now();
            let run = tracer.span("net.flow", None, 0, |_| {
                FlowFabric::new().run_checked(&self.scaleout_topo, &self.injections)
            });
            let flow_s = t.elapsed().as_secs_f64();
            let (deliveries, stats) = match run {
                Ok(r) => r,
                Err(violation) => {
                    eprintln!("flow fabric invariant violated: {violation}");
                    checks_failed += 1;
                    between(t.elapsed(), samples);
                    continue;
                }
            };
            checks_ok += 1;
            samples.push("net.flow_s", flow_s);
            samples.push("net.flow_events", stats.events as f64);
            samples.push("net.flow_refreshes", stats.refreshes as f64);
            samples.push("net.flow_max_active", stats.max_active as f64);
            samples.push(
                "net.flow_ms_per_event",
                flow_s * 1e3 / stats.events.max(1) as f64,
            );
            let wire = deliveries
                .iter()
                .map(|d| d.arrival)
                .max()
                .unwrap_or(SimTime::ZERO);
            let mut price = |mode| {
                let mut makespan = 0.0;
                timed("astra.pass_ms", samples, &mut || {
                    let (_, report) = build_pass_with_wire(
                        &self.scaleout_cfg,
                        &gpu,
                        &self.scaleout_topo,
                        mode,
                        &FusedTuning::default(),
                        Some(wire),
                    );
                    makespan = report.makespan.as_nanos_f64();
                });
                makespan
            };
            let norm = price(OperatorMode::Fused) / price(OperatorMode::Baseline);
            let took = t.elapsed();
            scaleout_s.push(took.as_secs_f64());
            match scaleout_result {
                None => scaleout_result = Some((norm.to_bits(), stats.events)),
                Some(first) if first == (norm.to_bits(), stats.events) => checks_ok += 1,
                Some(_) => {
                    eprintln!("repeated scale-out runs priced differently");
                    checks_failed += 1;
                }
            }
            between(took, samples);
        }
        let (scaleout_norm, flow_events) = scaleout_result
            .map_or((f64::NAN, 0), |(bits, events)| {
                (f64::from_bits(bits), events)
            });

        // Serving: generate the seeded flash crowd, serve it on the
        // modelled executor, audit the event log. Each serve is one unit;
        // the serves must decide every request identically.
        let mut serve_s = Vec::with_capacity(SERVE_REPS);
        let mut outcome: Option<(ServeReport, usize)> = None;
        for _ in 0..SERVE_REPS {
            let t = Instant::now();
            let workload = tracer.span("serve.loadgen", None, 0, |_| self.load.generate());
            samples.push("serve.loadgen_ms", t.elapsed().as_secs_f64() * 1e3);
            let policy = BatchPolicy {
                target_batch: 32,
                max_wait_us: 2_000,
                close_margin_us: 100,
            };
            let mut exec = ModelExecutor::default_model();
            let t_loop = Instant::now();
            let report = tracer.span("serve.loop", None, 0, |_| {
                serve(
                    ServerConfig::new(256, policy, self.server_seed),
                    &mut exec,
                    &workload,
                    &Telemetry::disabled(),
                )
            });
            samples.push(
                "serve.loop_ns_per_req",
                t_loop.elapsed().as_nanos() as f64 / workload.len().max(1) as f64,
            );
            let took = t.elapsed();
            serve_s.push(took.as_secs_f64());
            let requests = workload.len();
            match check_serve_trace(&report.events) {
                Ok(stats) if stats.arrivals as usize == requests => checks_ok += 1,
                Ok(stats) => {
                    eprintln!("serve trace saw {} arrivals of {requests}", stats.arrivals);
                    checks_failed += 1;
                }
                Err(violation) => {
                    eprintln!("serve trace violated: {violation:?}");
                    checks_failed += 1;
                }
            }
            samples.push("serve.batches", report.batches.len() as f64);
            samples.push("serve.degrades", report.degrade_transitions.len() as f64);
            samples.push("serve.shed_queue_full", report.rejected as f64);
            samples.push("serve.shed_hopeless", report.shed_hopeless as f64);
            samples.push("serve.shed_overload", report.shed_overload as f64);
            samples.push("serve.shed_late", report.shed_late as f64);
            match &outcome {
                None => outcome = Some((report, requests)),
                Some((first, _)) if first.responses == report.responses => checks_ok += 1,
                Some(_) => {
                    eprintln!("repeated serve runs decided requests differently");
                    checks_failed += 1;
                }
            }
            between(took, samples);
        }
        let (report, requests) = outcome.expect("at least one serve run");

        PassResult {
            figures_s: figures.as_secs_f64(),
            scaleout_s: median(&scaleout_s),
            serve_req_per_s: requests as f64 / median(&serve_s),
            fused_norm_geomean: geomean(&fused_norm),
            zerocopy_norm_geomean: geomean(&zerocopy_norm),
            scaleout_norm,
            serve_p99_us: report.p99_us() as f64,
            serve_shed_rate: report.shed_total() as f64 / requests.max(1) as f64,
            fingerprint: [
                messages,
                flow_events,
                requests as u64,
                report.batches.len() as u64,
            ],
            checks_ok,
            checks_failed,
        }
    }
}
