//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <edge-step|fleet-churn> --seed N --seconds S --trace 0|1
//! ```
//!
//! Workloads (see `BENCHMARK.json` for why each was chosen):
//!
//! * `edge-step` — one in-process Chameleon learner (Ms=10, Ml=500) trained
//!   single-pass over synthetic CORe50-NI in a closed loop.
//! * `fleet-churn` — a durable two-shard server over loopback whose memory
//!   budget holds a fraction of the sessions; one closed-loop connection
//!   steps Zipf-drawn sessions, so LRU evict/restore and store
//!   append+fdatasync sit on the request path.
//!
//! `README.md` says on which clock each metric is taken, and why.
//!
//! With `--trace 0` the run measures the end-to-end metrics with nothing
//! but the request timing switched on. With `--trace 1` it first repeats
//! that untraced run, then runs again with the per-layer timers and probes
//! on, prints both runs' end-to-end numbers and the tracing overhead on a
//! context line, and reports the per-layer metrics.
//!
//! Every run checks its outputs; a run whose checks fail prints
//! `"correct": false` with no metrics and exits non-zero. The last stdout
//! line is always the result object. A run still going after
//! [`DEADLINE`] is abandoned with no result and a non-zero exit.

mod cpuclock;
mod edge;
mod fleet;
mod gen;
mod probes;
mod report;
mod served;
mod stats;

use std::process::{Command, ExitCode};
use std::time::Duration;

use report::{metrics_json, Metric, Outcome, J};

/// The workloads, by name.
const WORKLOADS: [&str; 2] = ["edge-step", "fleet-churn"];

/// Longest a run may take before it is abandoned (a wedged server would
/// otherwise leave a client blocked on its socket forever).
const DEADLINE: Duration = Duration::from_secs(170);

/// End-to-end metrics `(name, unit)` every untraced run reports, in
/// `BENCHMARK.json` order.
const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("step_p50_us", "us"),
    ("step_p99_us", "us"),
    ("acc_all", "%"),
    ("steps_per_s", "batches/s"),
    ("req_p50_ms", "ms"),
    ("req_p99_ms", "ms"),
    ("max_rps_at_slo", "req/s"),
];

/// Per-layer metrics `(name, unit)` a traced run reports, in
/// `BENCHMARK.json` order. A layer a workload never enters reads 0 there
/// and is listed under `not_on_path` in the context line.
const PER_LAYER: [(&str, &str); 30] = [
    ("core.observe_us", "us"),
    ("nn.extract_us", "us"),
    ("nn.head_fwd_us", "us"),
    ("nn.head_bwd_apply_us", "us"),
    ("replay.integrity_sweep_us", "us"),
    ("core.prototype_us", "us"),
    ("core.lt_select_us", "us"),
    ("core.lr_observe_us", "us"),
    ("core.head_rows_per_batch", "rows"),
    ("core.onchip_reads_per_batch", "samples"),
    ("core.offchip_reads_per_batch", "samples"),
    ("core.offchip_writes_per_batch", "samples"),
    ("replay.crc_bytes_per_batch", "bytes"),
    ("fleet.step_us", "us"),
    ("fleet.checkpoint_us", "us"),
    ("fleet.restore_us", "us"),
    ("fleet.restores_per_step", "ratio"),
    ("fleet.evictions_per_step", "ratio"),
    ("store.fsyncs_per_step", "ratio"),
    ("store.append_fsync_us", "us"),
    ("store.get_us", "us"),
    ("store.bytes_per_evict", "bytes"),
    ("serve.wait_us", "us"),
    ("serve.backpressure_frac", "ratio"),
    ("serve.wire_us", "us"),
    ("serve.frame_bytes_per_request", "bytes"),
    ("route.shadow_pull_us", "us"),
    ("route.hop_us", "us"),
    ("route.shadow_refreshes_per_step", "ratio"),
    ("route.forward_failures", "count"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s = value()?
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, not {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
    })
}

fn run(workload: &str, seed: u64, seconds: f64, traced: bool) -> Result<Outcome, String> {
    let mut o = match workload {
        "edge-step" => edge::run(seed, seconds, traced),
        "fleet-churn" => fleet::run(seed, seconds, traced),
        _ => unreachable!("validated in parse_args"),
    }?;
    if o.correct() {
        conform(&mut o, traced)?;
    }
    Ok(o)
}

/// Puts the metrics in the declared order with the declared units, and
/// fills the per-layer metrics of layers the workload never enters.
fn conform(o: &mut Outcome, traced: bool) -> Result<(), String> {
    let order = |list: &[(&'static str, &'static str)], got: &[Metric], fill: bool| {
        let mut out = Vec::new();
        let mut absent = Vec::new();
        for &(name, unit) in list {
            match got.iter().find(|m| m.name == name) {
                Some(m) if m.unit == unit => out.push(m.clone()),
                Some(m) => return Err(format!("{name} reported in {}, not {unit}", m.unit)),
                None if fill => {
                    absent.push(J::s(name));
                    out.push(Metric {
                        name,
                        unit,
                        value: 0.0,
                    });
                }
                None => return Err(format!("{name} was not measured")),
            }
        }
        if let Some(extra) = got.iter().find(|m| !list.iter().any(|(n, _)| *n == m.name)) {
            return Err(format!("{} is not a declared metric", extra.name));
        }
        Ok((out, absent))
    };
    o.e2e = order(&END_TO_END, &o.e2e, false)?.0;
    if traced {
        let (layers, absent) = order(&PER_LAYER, &o.layers, true)?;
        o.layers = layers;
        o.note("not_on_path", J::Arr(absent));
    }
    Ok(())
}

/// First line of a command's stdout, or `None` if it cannot run.
fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    if !out.status.success() {
        return None;
    }
    let text = String::from_utf8_lossy(&out.stdout);
    text.lines().next().map(|l| l.trim().to_string())
}

/// Where and with what the run happened.
fn host_context(args: &Args) -> Vec<(String, J)> {
    let opt = |v: Option<String>| v.map_or(J::Null, J::Str);
    vec![
        (
            "git_rev".into(),
            opt(command_line("git", &["rev-parse", "HEAD"])),
        ),
        ("host".into(), opt(command_line("uname", &["-nsrm"]))),
        (
            "nproc".into(),
            J::Int(std::thread::available_parallelism().map_or(0, |n| n.get() as u64)),
        ),
        ("rustc".into(), opt(command_line("rustc", &["--version"]))),
        ("workload".into(), J::s(&args.workload)),
        ("seed".into(), J::Int(args.seed)),
        ("run_seconds".into(), J::Num(args.seconds)),
        ("trace".into(), J::Bool(args.trace)),
    ]
}

fn outcome_json(o: &Outcome) -> J {
    J::obj([
        ("correct", J::Bool(o.correct())),
        ("attempted", J::Int(o.attempted)),
        ("succeeded", J::Int(o.attempted - o.failed)),
        ("failed", J::Int(o.failed)),
        (
            "checks",
            J::Arr(o.checks.iter().map(|c| J::s(c.clone())).collect()),
        ),
        (
            "check_failures",
            J::Arr(o.check_failures.iter().map(|c| J::s(c.clone())).collect()),
        ),
        ("end_to_end", metrics_json(&o.e2e)),
        ("notes", J::Obj(o.notes.clone())),
    ])
}

/// Relative change of every end-to-end metric from `base` to `traced`, in
/// percent.
fn overhead(base: &Outcome, traced: &Outcome) -> J {
    J::obj(base.e2e.iter().filter_map(|b| {
        let t = traced.e2e.iter().find(|t| t.name == b.name)?;
        let pct = if b.value != 0.0 {
            100.0 * (t.value - b.value) / b.value
        } else {
            0.0
        };
        Some((b.name, J::Num(pct)))
    }))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    std::thread::spawn(|| {
        std::thread::sleep(DEADLINE);
        eprintln!("perfbench: no result after {DEADLINE:?}; abandoned");
        std::process::exit(3);
    });
    let mut context = host_context(&args);
    let result = (|| -> Result<(Outcome, Outcome), String> {
        let untraced = run(&args.workload, args.seed, args.seconds, false)?;
        if !args.trace || !untraced.correct() {
            return Ok((untraced, Outcome::default()));
        }
        let traced = run(&args.workload, args.seed, args.seconds, true)?;
        Ok((untraced, traced))
    })();
    let (untraced, traced) = match result {
        Ok(pair) => pair,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload);
            return ExitCode::from(1);
        }
    };
    context.push(("untraced".into(), outcome_json(&untraced)));
    let (shown, metrics) = if args.trace && untraced.correct() {
        context.push(("traced".into(), outcome_json(&traced)));
        context.push(("trace_overhead_pct".into(), overhead(&untraced, &traced)));
        (&traced, &traced.layers)
    } else {
        (&untraced, &untraced.e2e)
    };
    let correct = untraced.correct() && (!args.trace || traced.correct());
    println!("{}", J::obj([("context", J::Obj(context))]).render());
    for failure in untraced.check_failures.iter().chain(&traced.check_failures) {
        eprintln!("perfbench: check failed: {failure}");
    }
    let result = J::obj([
        ("correct", J::Bool(correct)),
        ("attempted", J::Int(shown.attempted)),
        ("failed", J::Int(shown.failed)),
        (
            "metrics",
            if correct {
                metrics_json(metrics)
            } else {
                J::obj(Vec::<(&str, J)>::new())
            },
        ),
    ]);
    println!("{}", result.render());
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric lists above and `BENCHMARK.json` must agree.
    #[test]
    fn benchmark_json_declares_exactly_these_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
        for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        assert_eq!(
            json.matches("\"better\"").count(),
            END_TO_END.len() + PER_LAYER.len()
        );
        for workload in WORKLOADS {
            assert!(json.contains(&format!("\"name\": \"{workload}\"")));
        }
        assert_eq!(json.matches("\"why\"").count(), WORKLOADS.len());
    }
}
