//! `edge-step`: one in-process Chameleon learner (Ms=10, Ml=500, the
//! Table I matched-memory cell) trained single-pass over synthetic
//! CORe50-NI, closed loop — the next batch goes in only when `observe`
//! returns. The same pass is repeated until the run time is used up; every
//! repetition must end in the same learner checkpoint digest.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use chameleon_core::{
    Chameleon, ChameleonConfig, EvalReport, LatentReplay, ModelConfig, StepTrace, Strategy,
};
use chameleon_nn::loss;
use chameleon_replay::{crc32, StorePlacement, StoredSample};
use chameleon_stream::{Batch, DatasetSpec, DomainIlScenario, StreamConfig};
use chameleon_tensor::Matrix;

use crate::cpuclock::thread_cpu_ns;
use crate::gen::{derive, DATASET_SEED};
use crate::probes;
use crate::report::{Outcome, J};
use crate::stats::{median, tail};

const SHORT_TERM: usize = 10;
const LONG_TERM: usize = 500;
/// Latent Replay's buffer in the reference run (matched memory, ROADMAP).
const LR_CAPACITY: usize = 500;
/// Set-ups timed per run; the median is reported.
const SETUP_REPS: usize = 5;
/// Batches of domain 0 a throwaway learner observes during set-up.
const WARMUP_BATCHES: usize = 100;
/// Traced passes probe the layers after every this many batches.
const PROBE_EVERY: usize = 8;
/// Domains a fixture learner trains on before it is probed.
const FIXTURE_DOMAINS: usize = 1;
/// Latency limit of one batch, for the goodput figure.
const SLO_MS: f64 = 5.0;

fn learner_config() -> ChameleonConfig {
    ChameleonConfig {
        short_term_capacity: SHORT_TERM,
        long_term_capacity: LONG_TERM,
        ..ChameleonConfig::default()
    }
}

struct Seeds {
    learner: u64,
    stream: u64,
}

impl Seeds {
    fn new(seed: u64) -> Self {
        Self {
            learner: derive(seed, 0x1EA4_0000) >> 16,
            stream: derive(seed, 0x5743_0000) >> 16,
        }
    }
}

/// Per-layer probe samples (nanoseconds) from a traced pass.
#[derive(Default)]
struct Probes {
    extract: Vec<f64>,
    head_fwd: Vec<f64>,
    head_bwd_apply: Vec<f64>,
    integrity: Vec<f64>,
    prototype: Vec<f64>,
    lt_select: Vec<f64>,
    /// CRC-checked rows, computed from store sizes per batch.
    crc_rows: u64,
}

struct Pass {
    step_ns: Vec<f64>,
    cycle_ns: Vec<f64>,
    train_ns: f64,
    acc_all: f64,
    digest: u64,
    trace: StepTrace,
    batches: u64,
}

/// Thread CPU nanoseconds since `t0` (a [`thread_cpu_ns`] reading).
fn since(t0: u64) -> f64 {
    (thread_cpu_ns() - t0) as f64
}

/// Times one call of each layer the step is made of, on the learner's live
/// stores and the batch it just observed. The extractor and head are
/// benchmark-owned copies of the learner's shapes (the trunk is the same
/// frozen network; the head has the same dimensions), so timing them does
/// not disturb the learner.
fn probe(learner: &mut Chameleon, batch: &Batch, kit: &mut ProbeKit, probes: &mut Probes) {
    let t = thread_cpu_ns();
    let latents = black_box(kit.extractor.extract_batch(&batch.raw));
    probes.extract.push(since(t));

    let mut short_term: Vec<StoredSample> = Vec::new();
    let mut long_term: Vec<StoredSample> = Vec::new();
    learner.visit_stores(&mut |placement, sample| match placement {
        StorePlacement::OnChipSram => short_term.push(sample.clone()),
        _ => long_term.push(sample.clone()),
    });

    // The step trains on Z_t ∪ M_s ∪ m̂_l: the same row count here.
    let mut rows: Vec<&[f32]> = latents.iter_rows().collect();
    let mut labels = batch.labels.clone();
    let lt_draw = learner.config().long_term_batch.min(long_term.len());
    for s in short_term.iter().chain(&long_term[..lt_draw]) {
        rows.push(&s.features);
        labels.push(s.label);
    }
    let x = Matrix::try_from_row_iter(rows).expect("latent rows share a width");
    let t = thread_cpu_ns();
    let fwd = kit.head.forward(&x);
    probes.head_fwd.push(since(t));
    let (_, dlogits) = loss::softmax_cross_entropy(fwd.logits(), &labels);
    let t = thread_cpu_ns();
    let grads = kit.head.backward(&fwd, &dlogits);
    kit.head.apply(&grads, &mut kit.sgd);
    probes.head_bwd_apply.push(since(t));

    let t = thread_cpu_ns();
    black_box(learner.resilience());
    probes.integrity.push(since(t));

    if let Some(first) = short_term.first() {
        let t = thread_cpu_ns();
        black_box(learner.class_prototype(first.label));
        probes.prototype.push(since(t));
        let t = thread_cpu_ns();
        for s in &short_term {
            black_box(learner.prototype_kl_score(s));
        }
        probes.lt_select.push(since(t));
    }
}

struct ProbeKit {
    extractor: chameleon_nn::FrozenExtractor,
    head: chameleon_nn::MlpHead,
    sgd: chameleon_nn::Sgd,
}

impl ProbeKit {
    fn new(model: &ModelConfig, seeds: &Seeds) -> Self {
        Self {
            extractor: model.build_extractor(),
            head: model.build_head(seeds.learner),
            sgd: model.build_sgd(),
        }
    }
}

/// One single-pass run of `learner` over the first `domains` domains,
/// timing each `observe` (`step`) and each draw-plus-observe cycle
/// (`cycle`).
fn pass<S: Strategy>(
    scenario: &DomainIlScenario,
    learner: &mut S,
    stream_seed: u64,
    domains: usize,
    mut on_step: impl FnMut(&mut S, &Batch, usize),
) -> Pass {
    let stream = StreamConfig::default();
    let mut step_ns = Vec::with_capacity(2400);
    let mut cycle_ns = Vec::with_capacity(2400);
    for domain in 0..domains {
        learner.begin_domain(domain);
        let mut cursor = scenario.stream_cursor(
            domain,
            &stream,
            stream_seed.wrapping_add(domain as u64 * 0x9E37),
        );
        loop {
            let t0 = thread_cpu_ns();
            let Some(batch) = cursor.next_batch(scenario.generator()) else {
                break;
            };
            let t1 = thread_cpu_ns();
            learner.observe(&batch);
            let t2 = thread_cpu_ns();
            step_ns.push((t2 - t1) as f64);
            cycle_ns.push((t2 - t0) as f64);
            on_step(learner, &batch, step_ns.len());
        }
        learner.end_domain(domain);
    }
    learner.finalize();
    let train_ns = cycle_ns.iter().sum();
    let batches = step_ns.len() as u64;
    Pass {
        step_ns,
        cycle_ns,
        train_ns,
        acc_all: f64::from(EvalReport::evaluate(scenario, learner).acc_all),
        digest: 0,
        trace: learner.trace(),
        batches,
    }
}

fn chameleon_pass(
    scenario: &DomainIlScenario,
    model: &ModelConfig,
    config: &ChameleonConfig,
    seeds: &Seeds,
    probes: Option<(&mut ProbeKit, &mut Probes)>,
    domains: usize,
) -> Pass {
    let mut learner = Chameleon::new(model, config.clone(), seeds.learner);
    let h = learner.config().long_term_period as u64;
    let mut result = match probes {
        None => pass(scenario, &mut learner, seeds.stream, domains, |_, _, _| {}),
        Some((kit, probes)) => {
            let mut seen = 0u64;
            let mut reads = 0u64;
            let mut lt_before = 0u64;
            pass(
                scenario,
                &mut learner,
                seeds.stream,
                domains,
                |l, batch, k| {
                    // Rows CRC-checked by this step: the verified ST sweep, the
                    // LT integrity-fraction pass and purge when the LT is due,
                    // and the seal of the inserted sample.
                    let due = (seen + batch.len() as u64) / h > seen / h;
                    seen += batch.len() as u64;
                    let t = l.trace();
                    probes.crc_rows += t.onchip_sample_reads - reads + 1;
                    if due {
                        probes.crc_rows += 2 * lt_before;
                    }
                    reads = t.onchip_sample_reads;
                    lt_before = l.long_term_len() as u64;
                    if k % PROBE_EVERY == 0 {
                        probe(l, batch, kit, probes);
                    }
                },
            )
        }
    };
    let mut blob = Vec::new();
    learner
        .save_checkpoint(&mut blob)
        .expect("writing to a Vec cannot fail");
    result.digest = (u64::from(crc32(&blob)) << 32) ^ blob.len() as u64;
    result
}

pub fn run(seed: u64, seconds: f64, traced: bool) -> Result<Outcome, String> {
    let spec = DatasetSpec::core50();
    let model = ModelConfig::for_spec(&spec);
    let seeds = Seeds::new(seed);

    // Set-up: scenario generation, learner construction, warm-up.
    let mut setup_s = Vec::new();
    let mut scenario = None;
    for _ in 0..SETUP_REPS {
        let t = thread_cpu_ns();
        let sc = DomainIlScenario::generate(&spec, DATASET_SEED);
        let mut warm = Chameleon::new(&model, learner_config(), seeds.learner);
        let mut cursor = sc.stream_cursor(0, &StreamConfig::default(), seeds.stream);
        for _ in 0..WARMUP_BATCHES {
            let batch = cursor
                .next_batch(sc.generator())
                .ok_or("domain 0 too short")?;
            warm.observe(&batch);
        }
        black_box(&warm);
        setup_s.push(since(t) / 1e9);
        scenario = Some(sc);
    }
    let scenario = scenario.expect("at least one set-up");

    let mut kit = ProbeKit::new(&model, &seeds);
    let mut probes = Probes::default();
    let mut passes: Vec<Pass> = Vec::new();
    let config = learner_config();
    let domains = spec.num_domains;
    let start = Instant::now();
    while passes.len() < 2 || start.elapsed().as_secs_f64() < seconds {
        let traced_probes = traced.then_some((&mut kit, &mut probes));
        passes.push(chameleon_pass(
            &scenario,
            &model,
            &config,
            &seeds,
            traced_probes,
            domains,
        ));
    }

    let mut o = Outcome::default();
    let first = &passes[0];
    o.check(
        "checkpoint digest identical across repetitions",
        passes.iter().all(|p| p.digest == first.digest),
        || {
            let d: Vec<String> = passes
                .iter()
                .map(|p| format!("{:016x}", p.digest))
                .collect();
            format!("digests {d:?}")
        },
    );
    o.check(
        "acc_all identical across repetitions",
        passes.iter().all(|p| p.acc_all == first.acc_all),
        || format!("{:?}", passes.iter().map(|p| p.acc_all).collect::<Vec<_>>()),
    );
    o.check(
        "every batch observed",
        passes
            .iter()
            .all(|p| p.batches == first.batches && p.batches > 0),
        || "batch count differs between repetitions".into(),
    );

    let step: Vec<f64> = passes
        .iter()
        .flat_map(|p| p.step_ns.iter().copied())
        .collect();
    let cycle: Vec<f64> = passes
        .iter()
        .flat_map(|p| p.cycle_ns.iter().copied())
        .collect();
    let train_s: f64 = passes.iter().map(|p| p.train_ns).sum::<f64>() / 1e9;
    let within = cycle.iter().filter(|&&c| c <= SLO_MS * 1e6).count();
    o.attempted = step.len() as u64;
    o.failed = 0;
    o.e2e("setup_s", "s", median(&setup_s).expect("set-ups ran").value);
    o.pct("step_p50_us", "us", median(&step), 1e-3);
    o.pct("step_p99_us", "us", tail(&step, 0.99), 1e-3);
    o.e2e("acc_all", "%", first.acc_all);
    o.e2e("steps_per_s", "batches/s", step.len() as f64 / train_s);
    o.pct("req_p50_ms", "ms", median(&cycle), 1e-6);
    o.pct("req_p99_ms", "ms", tail(&cycle, 0.99), 1e-6);
    o.e2e("max_rps_at_slo", "req/s", within as f64 / train_s);
    o.note(
        "settings",
        J::obj([
            ("dataset", J::s(spec.name)),
            ("short_term_capacity", J::Int(SHORT_TERM as u64)),
            ("long_term_capacity", J::Int(LONG_TERM as u64)),
            (
                "batch_size",
                J::Int(StreamConfig::default().batch_size as u64),
            ),
            ("loop", J::s("closed, in-process, one learner")),
            ("repetitions", J::Int(passes.len() as u64)),
            ("batches_per_pass", J::Int(first.batches)),
            ("slo_ms", J::Num(SLO_MS)),
            ("setup_reps", J::Int(SETUP_REPS as u64)),
        ]),
    );
    o.note(
        "definitions",
        J::s(
            "all edge-step times are on the learner thread's CPU clock, so time a \
             shared VM host steals is not counted (on a dedicated edge core the two \
             agree); step = one Chameleon observe call; req = drawing the next stream \
             batch plus observe (the device's sensor loop); steps_per_s = batches per \
             CPU second of that loop; max_rps_at_slo = batches per CPU second whose req \
             latency met slo_ms (closed-loop goodput); setup_s = scenario generation, \
             learner construction and a warm-up",
        ),
    );
    o.note("checkpoint_digest", J::s(format!("{:016x}", first.digest)));

    if traced {
        layer_metrics(&mut o, &scenario, &model, &seeds, &passes, &probes, domains);
        probes::fill(&mut o, &Arc::new(scenario), &config, seed)?;
    }
    Ok(o)
}

/// The learner layers of a workload that hosts `config` learners but does
/// not run one in-process: a fixture learner trained on the first
/// `FIXTURE_DOMAINS` domains, probed as a traced edge-step pass is.
pub fn learner_fixture(
    o: &mut Outcome,
    scenario: &DomainIlScenario,
    config: &ChameleonConfig,
    seed: u64,
) {
    let model = ModelConfig::for_spec(scenario.spec());
    let seeds = Seeds::new(seed);
    let mut kit = ProbeKit::new(&model, &seeds);
    let mut probes = Probes::default();
    let p = chameleon_pass(
        scenario,
        &model,
        config,
        &seeds,
        Some((&mut kit, &mut probes)),
        FIXTURE_DOMAINS,
    );
    layer_metrics(o, scenario, &model, &seeds, &[p], &probes, FIXTURE_DOMAINS);
}

fn layer_metrics(
    o: &mut Outcome,
    scenario: &DomainIlScenario,
    model: &ModelConfig,
    seeds: &Seeds,
    passes: &[Pass],
    probes: &Probes,
    domains: usize,
) {
    let us = |v: &[f64]| median(v).map_or(0.0, |p| p.value / 1e3);
    let step: Vec<f64> = passes
        .iter()
        .flat_map(|p| p.step_ns.iter().copied())
        .collect();
    // Latent Replay(500) on the same stream: the ROADMAP reference point.
    let mut lr = LatentReplay::new(model, LR_CAPACITY, seeds.learner);
    let lr_pass = pass(scenario, &mut lr, seeds.stream, domains, |_, _, _| {});

    let t = passes[0].trace;
    let batches = passes[0].batches as f64;
    let crc_bytes_per_row = 8 + 8 + 4 * model.latent_dim + 2;
    let traced_batches = batches * passes.len() as f64;
    o.layer("core.observe_us", "us", us(&step));
    o.layer("nn.extract_us", "us", us(&probes.extract));
    o.layer("nn.head_fwd_us", "us", us(&probes.head_fwd));
    o.layer("nn.head_bwd_apply_us", "us", us(&probes.head_bwd_apply));
    o.layer("replay.integrity_sweep_us", "us", us(&probes.integrity));
    o.layer("core.prototype_us", "us", us(&probes.prototype));
    o.layer("core.lt_select_us", "us", us(&probes.lt_select));
    o.layer("core.lr_observe_us", "us", us(&lr_pass.step_ns));
    o.layer(
        "core.head_rows_per_batch",
        "rows",
        t.head_fwd_passes as f64 / batches,
    );
    o.layer(
        "core.onchip_reads_per_batch",
        "samples",
        t.onchip_sample_reads as f64 / batches,
    );
    o.layer(
        "core.offchip_reads_per_batch",
        "samples",
        t.offchip_latent_reads as f64 / batches,
    );
    o.layer(
        "core.offchip_writes_per_batch",
        "samples",
        t.offchip_latent_writes as f64 / batches,
    );
    o.layer(
        "replay.crc_bytes_per_batch",
        "bytes",
        (probes.crc_rows * crc_bytes_per_row as u64) as f64 / traced_batches,
    );
    o.note(
        "layer_notes",
        J::obj([
            ("probe_every_batches", J::Int(PROBE_EVERY as u64)),
            ("probe_samples", J::Int(probes.extract.len() as u64)),
            ("times", J::s("medians of per-call samples, in us")),
            (
                "replay.crc_bytes_per_batch",
                J::s(format!(
                    "computed, not measured: (ST rows verified + 2 x LT rows swept when the \
                     LT is due + 1 sealed) x {crc_bytes_per_row} B per latent sample"
                )),
            ),
            (
                "nn.head",
                J::s("benchmark-owned head of the learner's shape, on the step's rows"),
            ),
            ("lr_batches", J::Int(lr_pass.batches)),
        ]),
    );
}
