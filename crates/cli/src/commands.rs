//! Subcommand implementations.

use std::fs::File;
use std::io::BufWriter;

use chameleon_balance::{BalanceConfig, TrafficShape};
use chameleon_core::{
    Chameleon, ChameleonConfig, Der, DerConfig, Er, EvalReport, EwcConfig, EwcPlusPlus, Finetune,
    Gss, GssConfig, Joint, JointConfig, LatentReplay, Lwf, LwfConfig, ModelConfig, Precision, Slda,
    SldaConfig, Strategy, Trainer,
};
use chameleon_faults::{FaultInjector, FaultPlan};
use chameleon_fleet::{
    FleetConfig, FleetEngine, SessionCommand, SessionEventKind, SessionSpec as FleetSessionSpec,
};
use chameleon_hw::{Device, JetsonNano, NominalModel, SystolicAccelerator, Workload, Zcu102};
use chameleon_obs::json::Object;
use chameleon_route::{Router, RouterConfig};
use chameleon_serve::wire::StatsSnapshot;
use chameleon_serve::{Connection, ServeConfig, ServeCounters, Server};
use chameleon_simtest::Schedule;
use chameleon_stream::{DatasetSpec, DomainIlScenario, PreferenceProfile, StreamConfig};

use crate::args::Options;

const HELP: &str = "\
chameleon — dual memory replay for online continual learning (DATE 2023 reproduction)

USAGE:
  chameleon <command> [options]

COMMANDS:
  info                          list datasets, methods, and devices
  train                         train a strategy on a synthetic benchmark
    --dataset <name>            core50 | openloris | core50-tiny |
                                openloris-tiny | openloris-factored
    --method <name>             see `chameleon info`       [default: chameleon]
    --buffer <n>                replay buffer size         [default: 100]
    --runs <n>                  repetitions (mean ± std)   [default: 1]
    --seed <n>                  base seed                  [default: 1]
    --skewed                    user-preference-skewed stream
    --save <path>               save a checkpoint (chameleon, runs = 1 only)
    --precision <p>             latent storage codec: f32 | f16 | int8
                                (chameleon only)           [default: f32]
  evaluate                      evaluate a saved checkpoint
    --dataset <name>  --load <path>  [--buffer <n>]
  sweep                         one method across several buffer sizes
    --dataset <name>  --method <name>  --buffers <n,n,...>  [--runs <n>]
  price                         per-image cost on the three device models
    --method <name>  [--buffer <n>]
  resources                     ZCU102 utilization of an accelerator config
    [--st-kb <n>] [--array <RxC>]
  faults                        train under seeded fault injection and report
                                resilience counters
    --rate <r>                  DRAM bit-flips per bit per sample [default: 1e-5]
    [--dataset <name>] [--method <name>] [--buffer <n>] [--seed <n>]
    [--fault-seed <n>] [--no-quarantine] [--precision <p>]
    (quarantine/precision: chameleon only)
  fleet                         run many per-user sessions on a sharded engine
    --sessions <n>              concurrent user sessions   [default: 8]
    --shards <n>                worker shards (threads)    [default: 2]
    --budget-mb <n>             per-shard resident session-memory budget
    --store-dir <path>          durable session store: spill evictions to
                                disk and recover sealed sessions on start
    --balance <policy>          load-aware rebalancing via online session
                                migration: periodic[:<every>] | steal[:<depth>]
    [--dataset <name>] [--buffer <n>] [--seed <n>] [--queue <n>]
    [--step-batches <n>] [--rate <r>] [--fault-seed <n>] [--json]
    [--precision <p>]           quantize stored latents (f32 | f16 | int8)
  serve                         serve a fleet engine over TCP (CHAMWIRE)
    --addr <host:port>          bind address               [default: 127.0.0.1:0]
    --duration <secs>           run this long, then drain and exit;
                                omitted: run until stdin reaches EOF
    [--dataset <name>] [--shards <n>] [--workers <n>] [--queue <n>]
    [--budget-mb <n>] [--seed <n>] [--rate <r>] [--fault-seed <n>]
    [--store-dir <path>] [--balance <policy>] [--json]
  route                         front CHAMWIRE backends with a routing proxy:
                                rendezvous session placement, health probes,
                                live handoff on drain, shadow failover on death
    --backends <a:p,a:p,...>    backend server addresses (required)
    --addr <host:port>          bind address               [default: 127.0.0.1:0]
    --duration <secs>           run this long, then exit;
                                omitted: run until stdin reaches EOF
    [--state-dir <path>]        persist pins + shadow checkpoints to a
                                CHAMRTE1 log; a restarted router recovers
                                placement and failover state from it
    [--workers <n>] [--probe-interval-ms <n>] [--degraded-after <n>]
    [--dead-after <n>] [--salt <n>] [--json]
  loadgen                       drive a CHAMWIRE server with client traffic
    --addr <a:p[,a:p,...]>      target server(s); connections round-robin
                                over the list; omitted: a server is started
                                in-process (loopback self-serve)
    --connections <n>           concurrent client connections  [default: 2]
    --sessions <n>              sessions to create and run     [default: 4]
    --shape <spec>              seeded skewed-traffic shape for step order:
                                uniform | zipf:<s> | burst | diurnal | flood
    [--balance <policy>]        rebalance the self-served fleet (see fleet)
    [--slice <n>] [--dataset <name>] [--shards <n>] [--workers <n>]
    [--queue <n>] [--buffer <n>] [--seed <n>] [--precision <p>] [--json]
  stats                         observability snapshot of a running server
    --addr <host:port>          target CHAMWIRE server (required)
    --watch                     poll repeatedly instead of once
    --interval <ms>             delay between watch polls      [default: 1000]
    --count <n>                 stop after n polls (watch mode; 0 = forever)
    [--json]                    one JSON document per poll
    [--expo]                    Prometheus text exposition per poll
  simtest                       deterministic simulation soak + golden corpus
                                (one sweep, replay or golden mode per run)
    --seeds <n>                 scheduler seeds to sweep       [default: 25]
    --start-seed <n>            first seed of the sweep        [default: 0]
    --budget-secs <s>           wall-clock budget for any sweep
    --replay <seed>             re-check one seed and print its outcome
    --check-golden              re-derive the golden corpus and fail on drift
    --regen-golden              rewrite the golden corpus files
    --crash-seeds <n>           crash-schedule sweep: kill a store-attached
                                engine at every eviction boundary per seed,
                                recover, assert bit-identical outcomes
    --crash-replay <seed>       re-run one crash-schedule seed
    [--crash-start-seed <n>]    first crash seed          [default: 0]
    --route-seeds <n>           multi-node route sweep: seeded handoff/kill
                                schedules over a simulated cluster, assert
                                replay determinism and placement invisibility
    --route-replay <seed>       re-run one route seed and print its outcome
    [--route-start-seed <n>]    first route seed          [default: 0]
    --balance-seeds <n>         migration-schedule sweep: inject online
                                session migrations at seeded op boundaries,
                                assert outcomes match an unmigrated run
    --balance-replay <seed>     re-run one balance seed and print its outcome
    [--balance-start-seed <n>]  first balance seed        [default: 0]
    --quantized-seeds <n>       quantized (int8) sweep: re-run the lifecycle
                                explorer with packed latents, assert replay
                                determinism and shard-count invariance
    [--quantized-start-seed <n>] first quantized seed     [default: 0]
    [--golden-dir <path>]       corpus location   [default: tests/golden]
  help                          show this message
";

/// Dispatches `argv` to a subcommand.
pub fn dispatch(argv: &[String]) -> Result<(), String> {
    match argv.first().map(String::as_str) {
        None | Some("help") | Some("--help") | Some("-h") => {
            print!("{HELP}");
            Ok(())
        }
        Some("info") => info(),
        Some("train") => train(&Options::parse(&argv[1..])?),
        Some("evaluate") => evaluate(&Options::parse(&argv[1..])?),
        Some("sweep") => sweep(&Options::parse(&argv[1..])?),
        Some("price") => price(&Options::parse(&argv[1..])?),
        Some("resources") => resources(&Options::parse(&argv[1..])?),
        Some("faults") => faults(&Options::parse(&argv[1..])?),
        Some("fleet") => fleet(&Options::parse(&argv[1..])?),
        Some("serve") => serve(&Options::parse(&argv[1..])?),
        Some("route") => route(&Options::parse(&argv[1..])?),
        Some("loadgen") => loadgen(&Options::parse(&argv[1..])?),
        Some("stats") => stats(&Options::parse(&argv[1..])?),
        Some("simtest") => simtest(&Options::parse(&argv[1..])?),
        Some(other) => Err(format!("unknown command `{other}`")),
    }
}

fn dataset(name: &str) -> Result<DatasetSpec, String> {
    match name {
        "core50" => Ok(DatasetSpec::core50()),
        "openloris" => Ok(DatasetSpec::openloris()),
        "core50-tiny" => Ok(DatasetSpec::core50_tiny()),
        "openloris-tiny" => Ok(DatasetSpec::openloris_tiny()),
        "openloris-factored" => Ok(DatasetSpec::openloris_factored()),
        other => Err(format!("unknown dataset `{other}`")),
    }
}

const METHODS: [&str; 10] = [
    "chameleon",
    "latent-replay",
    "er",
    "der",
    "gss",
    "slda",
    "lwf",
    "ewc",
    "finetune",
    "joint",
];

/// Builds a Chameleon config for a CLI-provided buffer size and
/// latent-codec precision (the `--precision` knob of `train`, `faults`,
/// `fleet`, and `loadgen`), turning a validation failure into a
/// reportable error instead of a panic.
fn chameleon_config_at(buffer: usize, precision: Precision) -> Result<ChameleonConfig, String> {
    let config = ChameleonConfig {
        long_term_capacity: buffer,
        precision,
        ..ChameleonConfig::default()
    };
    config
        .validate()
        .map_err(|e| format!("invalid configuration: {e}"))?;
    Ok(config)
}

/// Parses the optional `--precision {f32,f16,int8}` flag.
fn precision_option(options: &Options) -> Result<Precision, String> {
    Precision::parse(options.get_or("precision", "f32")).map_err(|e| format!("--precision: {e}"))
}

fn build_method(
    name: &str,
    model: &ModelConfig,
    buffer: usize,
    precision: Precision,
    seed: u64,
) -> Result<Box<dyn Strategy>, String> {
    if precision != Precision::F32 && name != "chameleon" {
        return Err(format!(
            "--precision applies only to --method chameleon, not `{name}`"
        ));
    }
    Ok(match name {
        "chameleon" => Box::new(Chameleon::new(
            model,
            chameleon_config_at(buffer, precision)?,
            seed,
        )),
        "latent-replay" => Box::new(LatentReplay::new(model, buffer, seed)),
        "er" => Box::new(Er::new(model, buffer, seed)),
        "der" => Box::new(Der::new(model, DerConfig::new(buffer), seed)),
        "gss" => Box::new(Gss::new(model, GssConfig::new(buffer), seed)),
        "slda" => Box::new(Slda::new(model, SldaConfig::default(), seed)),
        "lwf" => Box::new(Lwf::new(model, LwfConfig::default(), seed)),
        "ewc" => Box::new(EwcPlusPlus::new(model, EwcConfig::default(), seed)),
        "finetune" => Box::new(Finetune::new(model, seed)),
        "joint" => Box::new(Joint::new(model, JointConfig::default(), seed)),
        other => {
            return Err(format!(
                "unknown method `{other}`; valid: {}",
                METHODS.join(", ")
            ))
        }
    })
}

fn stream_config(skewed: bool) -> StreamConfig {
    if skewed {
        StreamConfig {
            preference: PreferenceProfile::Skewed {
                preferred: vec![0, 1, 2, 3, 4],
                boost: 8.0,
            },
            ..StreamConfig::default()
        }
    } else {
        StreamConfig::default()
    }
}

fn info() -> Result<(), String> {
    println!("datasets:");
    for spec in [
        DatasetSpec::core50(),
        DatasetSpec::openloris(),
        DatasetSpec::core50_tiny(),
        DatasetSpec::openloris_tiny(),
        DatasetSpec::openloris_factored(),
    ] {
        println!(
            "  {:<16} {} classes × {} domains, {} train / {} test samples",
            spec.name,
            spec.num_classes,
            spec.num_domains,
            spec.train_len(),
            spec.test_len()
        );
    }
    println!("\nmethods: {}", METHODS.join(", "));
    println!("\ndevices:");
    for device in [
        JetsonNano::new().name().to_string(),
        Zcu102::new().name().to_string(),
        SystolicAccelerator::new().name().to_string(),
    ] {
        println!("  {device}");
    }
    Ok(())
}

fn train(options: &Options) -> Result<(), String> {
    options.expect_only(&[
        "dataset",
        "method",
        "buffer",
        "runs",
        "seed",
        "skewed",
        "save",
        "precision",
    ])?;
    let spec = dataset(options.get_or("dataset", "core50-tiny"))?;
    let method = options.get_or("method", "chameleon").to_string();
    let buffer: usize = options.get_parsed_or("buffer", 100)?;
    let runs: usize = options.get_parsed_or("runs", 1)?;
    let seed: u64 = options.get_parsed_or("seed", 1)?;
    let precision = precision_option(options)?;
    if runs == 0 {
        return Err("--runs must be at least 1".to_string());
    }

    let scenario = DomainIlScenario::generate(&spec, 0xDA7A);
    let model = ModelConfig::for_spec(&spec);
    let trainer = Trainer::new(stream_config(options.has_flag("skewed")));

    if runs > 1 {
        if options.get("save").is_some() {
            return Err("--save requires --runs 1".to_string());
        }
        let seeds: Vec<u64> = (seed..seed + runs as u64).collect();
        let agg = trainer.run_many(
            &scenario,
            |s| build_method(&method, &model, buffer, precision, s).expect("validated above"),
            &seeds,
        );
        println!(
            "{} on {}: Acc_all {} over {} runs, memory {:.1} MB",
            agg.name, spec.name, agg.acc_all, runs, agg.memory_overhead_mb
        );
        return Ok(());
    }

    if let Some(path) = options.get("save") {
        if method != "chameleon" {
            return Err("--save currently supports only --method chameleon".to_string());
        }
        let mut learner = Chameleon::new(&model, chameleon_config_at(buffer, precision)?, seed);
        let report = trainer.run(&scenario, &mut learner, seed);
        print_report(&spec, "Chameleon", &report);
        save_checkpoint_atomically(&learner, path)?;
        println!("checkpoint saved to {path}");
        return Ok(());
    }

    let mut strategy = build_method(&method, &model, buffer, precision, seed)?;
    let report = trainer.run(&scenario, strategy.as_mut(), seed);
    print_report(&spec, strategy.name(), &report);
    Ok(())
}

/// Writes a checkpoint through a temp file in the destination directory,
/// fsyncs it, then renames into place — a crash mid-save leaves either the
/// old checkpoint or none, never a half-written blob at `path`.
fn save_checkpoint_atomically(learner: &Chameleon, path: &str) -> Result<(), String> {
    let target = std::path::Path::new(path);
    let tmp = temp_sibling_path(target);
    let file = File::create(&tmp).map_err(|e| format!("cannot create {}: {e}", tmp.display()))?;
    let mut writer = BufWriter::new(file);
    learner
        .save_checkpoint(&mut writer)
        .map_err(|e| format!("cannot write checkpoint: {e}"))?;
    let file = writer
        .into_inner()
        .map_err(|e| format!("cannot flush checkpoint: {e}"))?;
    file.sync_all()
        .map_err(|e| format!("cannot sync checkpoint: {e}"))?;
    drop(file);
    std::fs::rename(&tmp, target).map_err(|e| {
        std::fs::remove_file(&tmp).ok();
        format!("cannot move checkpoint into place: {e}")
    })
}

/// Temp-file path for an atomic write to `target`: a dotted sibling in
/// the *destination's* directory, never the process CWD — `rename` is
/// only atomic within one filesystem, so the temp file must live next to
/// where it will land.
fn temp_sibling_path(target: &std::path::Path) -> std::path::PathBuf {
    let name = target
        .file_name()
        .and_then(|n| n.to_str())
        .unwrap_or("checkpoint");
    match target.parent().filter(|d| !d.as_os_str().is_empty()) {
        Some(dir) => dir.join(format!(".{name}.tmp")),
        None => std::path::PathBuf::from(format!(".{name}.tmp")),
    }
}

fn faults(options: &Options) -> Result<(), String> {
    options.expect_only(&[
        "dataset",
        "method",
        "buffer",
        "seed",
        "fault-seed",
        "rate",
        "no-quarantine",
        "precision",
    ])?;
    let spec = dataset(options.get_or("dataset", "core50-tiny"))?;
    let method = options.get_or("method", "chameleon").to_string();
    let buffer: usize = options.get_parsed_or("buffer", 100)?;
    let seed: u64 = options.get_parsed_or("seed", 1)?;
    let fault_seed: u64 = options.get_parsed_or("fault-seed", 7)?;
    let rate: f64 = options.get_parsed_or("rate", 1e-5)?;
    if !(rate >= 0.0 && rate.is_finite()) {
        return Err("--rate must be a finite non-negative number".to_string());
    }
    let quarantine = !options.has_flag("no-quarantine");
    if !quarantine && method != "chameleon" {
        return Err("--no-quarantine applies only to --method chameleon".to_string());
    }
    let precision = precision_option(options)?;

    let scenario = DomainIlScenario::generate(&spec, 0xDA7A);
    let model = ModelConfig::for_spec(&spec);
    let trainer = Trainer::new(StreamConfig::default());
    let plan = FaultPlan::bit_flips(fault_seed, rate);
    let mut injector = FaultInjector::new(plan);

    if method == "chameleon" {
        let config = ChameleonConfig {
            quarantine,
            ..chameleon_config_at(buffer, precision)?
        };
        let mut learner = Chameleon::new(&model, config, seed);
        let report = trainer.run_with_faults(&scenario, &mut learner, seed, &mut injector);
        print_report(&spec, "Chameleon", &report);
        let r = learner.resilience();
        println!(
            "  resilience: {} short-term / {} long-term evictions, {} rebuilds, {} skipped updates",
            r.short_term_evictions, r.long_term_evictions, r.prototype_rebuilds, r.skipped_updates
        );
        println!("  long-term integrity: {:.3}", r.long_term_integrity);
    } else {
        let mut strategy = build_method(&method, &model, buffer, precision, seed)?;
        let report = trainer.run_with_faults(&scenario, strategy.as_mut(), seed, &mut injector);
        print_report(&spec, strategy.name(), &report);
    }
    let stats = injector.stats();
    println!(
        "  faults injected (dram rate {rate:.1e}, seed {fault_seed}): {} bit flips across {} store residents",
        stats.bits_flipped, stats.vectors_hit
    );
    Ok(())
}

/// Runs a fleet of per-user sessions (each with its own preference skew)
/// to completion on a sharded engine, then reports per-user accuracy,
/// engine counters, and the hardware cost of the merged fleet trace.
fn fleet(options: &Options) -> Result<(), String> {
    options.expect_only(&[
        "dataset",
        "sessions",
        "shards",
        "buffer",
        "seed",
        "queue",
        "budget-mb",
        "step-batches",
        "rate",
        "fault-seed",
        "store-dir",
        "balance",
        "json",
        "precision",
    ])?;
    let spec = dataset(options.get_or("dataset", "core50-tiny"))?;
    let sessions: u64 = options.get_parsed_or("sessions", 8)?;
    let shards: usize = options.get_parsed_or("shards", 2)?;
    let buffer: usize = options.get_parsed_or("buffer", 30)?;
    let seed: u64 = options.get_parsed_or("seed", 1)?;
    let queue: usize = options.get_parsed_or("queue", 32)?;
    let step_batches: usize = options.get_parsed_or("step-batches", 4)?;
    let rate: f64 = options.get_parsed_or("rate", 0.0)?;
    let fault_seed: u64 = options.get_parsed_or("fault-seed", 7)?;
    if sessions == 0 {
        return Err("--sessions must be at least 1".to_string());
    }
    if step_batches == 0 {
        return Err("--step-batches must be at least 1".to_string());
    }
    if !(rate >= 0.0 && rate.is_finite()) {
        return Err("--rate must be a finite non-negative number".to_string());
    }
    let budget_bytes = match options.get("budget-mb") {
        None => u64::MAX,
        Some(v) => {
            let mb: f64 = v
                .parse()
                .map_err(|_| format!("invalid --budget-mb `{v}`"))?;
            if !(mb > 0.0 && mb.is_finite()) {
                return Err("--budget-mb must be a positive number".to_string());
            }
            (mb * 1024.0 * 1024.0) as u64
        }
    };

    let balance = options
        .get("balance")
        .map(|spec| BalanceConfig::parse(spec).map_err(|e| format!("invalid --balance: {e}")))
        .transpose()?;

    let precision = precision_option(options)?;
    let learner = chameleon_config_at(buffer, precision)?;
    let config = FleetConfig {
        num_shards: shards,
        queue_depth: queue,
        budget_bytes,
        assignment_seed: seed,
        faults: (rate > 0.0).then(|| FaultPlan::bit_flips(fault_seed, rate)),
    };
    config
        .validate()
        .map_err(|e| format!("invalid fleet config: {e}"))?;

    let scenario = std::sync::Arc::new(DomainIlScenario::generate(&spec, 0xDA7A));
    let (mut engine, recovery) = match options.get("store-dir") {
        Some(dir) => {
            let store = chameleon_store::SharedStore::open(chameleon_store::StoreConfig::new(dir))
                .map_err(|e| format!("open session store `{dir}`: {e}"))?;
            let (engine, report) = FleetEngine::recover(
                std::sync::Arc::clone(&scenario),
                config,
                chameleon_runtime::Runtime::Threads,
                store,
            )
            .map_err(|e| format!("recover session store `{dir}`: {e}"))?;
            (engine, Some(report))
        }
        None => (
            FleetEngine::new(std::sync::Arc::clone(&scenario), config),
            None,
        ),
    };
    if let Some(report) = &recovery {
        eprintln!(
            "store: recovered {} session(s), {} decode reject(s)",
            report.sessions_recovered, report.decode_rejects
        );
    }

    for user in 0..sessions {
        if engine.known(user) {
            continue; // recovered from the store; resumes on first step
        }
        engine
            .create_blocking(user, per_user_spec(user, spec.num_classes, &learner, seed))
            .map_err(|e| format!("create session {user}: {e}"))?;
    }

    let start = std::time::Instant::now();
    let mut balancer = balance.as_ref().map(BalanceConfig::build);
    let mut live: Vec<u64> = (0..sessions).collect();
    while !live.is_empty() {
        for &user in &live {
            engine
                .command_blocking(
                    user,
                    SessionCommand::Step {
                        batches: step_batches,
                    },
                )
                .map_err(|e| format!("step session {user}: {e}"))?;
            if let Some(balancer) = balancer.as_mut() {
                balancer.on_op(&mut engine);
            }
        }
        for event in engine.drain_pending() {
            match event.kind {
                SessionEventKind::Stepped { done: true, .. } => {
                    live.retain(|&u| u != event.session);
                }
                SessionEventKind::Failed(reason) => {
                    return Err(format!("session {} failed: {reason}", event.session));
                }
                _ => {}
            }
        }
    }
    let wall = start.elapsed();

    for user in 0..sessions {
        engine
            .command_blocking(user, SessionCommand::Evaluate)
            .map_err(|e| format!("evaluate session {user}: {e}"))?;
    }
    let mut reports: Vec<(u64, EvalReport)> = engine
        .drain_pending()
        .into_iter()
        .filter_map(|event| match event.kind {
            SessionEventKind::Evaluated(report) => Some((event.session, *report)),
            _ => None,
        })
        .collect();
    reports.sort_by_key(|(user, _)| *user);

    let mean = reports
        .iter()
        .map(|(_, r)| f64::from(r.acc_all))
        .sum::<f64>()
        / reports.len().max(1) as f64;
    let metrics = engine.metrics();

    if options.has_flag("json") {
        let users = reports
            .iter()
            .map(|(user, report)| (*user, engine.shard_of(*user), report.acc_all))
            .collect();
        println!(
            "{}",
            fleet_document(&FleetSummary {
                dataset: spec.name,
                sessions,
                wall_s: wall.as_secs_f64(),
                mean_acc: mean,
                users,
                metrics: &metrics,
                recovery: recovery.as_ref(),
                balance: balancer.as_ref().map(|b| b.counters()),
                store: engine.store_counters(),
                learner: &learner,
                num_classes: spec.num_classes,
            })
        );
        return Ok(());
    }

    println!(
        "fleet of {sessions} sessions on {} across {shards} shard(s):",
        spec.name
    );
    for (user, report) in &reports {
        println!(
            "  user {user:>3} (shard {}): Acc_all {:6.2} %",
            engine.shard_of(*user),
            report.acc_all
        );
    }
    println!("  mean Acc_all: {mean:.2} %");

    println!(
        "engine: {} batches in {:.2} s ({:.0} batches/s wall), {} evictions, {} restores",
        metrics.batches(),
        wall.as_secs_f64(),
        metrics.batches() as f64 / wall.as_secs_f64().max(1e-9),
        metrics.evictions(),
        metrics.restores()
    );
    if let Some(balancer) = &balancer {
        let c = balancer.counters();
        println!(
            "balance ({}): {} migration(s) over {} tick(s), {} skipped, {} failure(s)",
            balancer.policy_name(),
            c.migrations_total,
            c.rebalance_ticks,
            c.migrations_skipped,
            c.migration_failures
        );
    }
    for shard in &metrics.per_shard {
        println!(
            "  shard {}: {} resident / {} cold sessions, {} batches, {:.0} steps/s compute, {:.1} MB resident",
            shard.shard,
            shard.sessions_resident,
            shard.sessions_cold,
            shard.batches,
            shard.steps_per_sec(),
            shard.resident_bytes as f64 / (1024.0 * 1024.0)
        );
    }

    let merged = metrics.merged_trace();
    if let Some(per) = merged.per_input() {
        let workload = Workload::from_trace(&per, &NominalModel::mobilenet_v1());
        println!("fleet-wide hardware cost ({} inputs):", merged.inputs);
        for device in [
            &JetsonNano::new() as &dyn Device,
            &Zcu102::new(),
            &SystolicAccelerator::new(),
        ] {
            let cost = device.cost(&workload);
            println!(
                "  {:<26} {:10.1} ms   {:8.3} J",
                device.name(),
                cost.latency_ms * merged.inputs as f64,
                cost.energy_j * merged.inputs as f64
            );
        }
    }
    Ok(())
}

/// Per-user session spec shared by `fleet`, `serve`, and `loadgen`: a
/// rotating 3-class preference slice so each user is a genuinely
/// different workload.
fn per_user_spec(
    user: u64,
    num_classes: usize,
    learner: &ChameleonConfig,
    seed: u64,
) -> FleetSessionSpec {
    let base = (user as usize * 3) % num_classes;
    FleetSessionSpec {
        learner: learner.clone(),
        stream: StreamConfig {
            preference: PreferenceProfile::Skewed {
                preferred: vec![base, (base + 1) % num_classes, (base + 2) % num_classes],
                boost: 8.0,
            },
            ..StreamConfig::default()
        },
        learner_seed: seed.wrapping_add(user),
        stream_seed: seed.wrapping_add(user.wrapping_mul(0x51_7C)),
    }
}

/// Everything `fleet --json` reports, as plain data.
struct FleetSummary<'a> {
    dataset: &'a str,
    sessions: u64,
    wall_s: f64,
    mean_acc: f64,
    /// `(user, shard, acc_all)` per session, in user order.
    users: Vec<(u64, usize, f32)>,
    metrics: &'a chameleon_fleet::FleetMetrics,
    recovery: Option<&'a chameleon_fleet::RecoveryReport>,
    balance: Option<chameleon_balance::BalanceCounters>,
    store: Option<chameleon_store::StoreCounters>,
    learner: &'a ChameleonConfig,
    num_classes: usize,
}

fn fleet_document(summary: &FleetSummary) -> String {
    let metrics = summary.metrics;
    // Latent-codec accounting: per-session nominal footprint at the
    // configured precision versus unquantized pricing, plus the
    // serialized size of one nominal latent (the >=3x shrink claim is
    // packed-int8 bytes versus f32-serialized bytes).
    let learner = summary.learner;
    let precision = learner.precision;
    let shapes = chameleon_stream::shapes::NominalShapes::for_classes(summary.num_classes);
    let price_mb = |n: usize| match precision {
        Precision::F32 | Precision::F16 => shapes.latent_mb(n),
        Precision::Int8 => shapes.latent_packed_mb(n, 1, 8),
    };
    let bytes = |mb: f64| (mb * 1024.0 * 1024.0).ceil() as u64;
    let (st, lt) = (learner.short_term_capacity, learner.long_term_capacity);
    let elems = shapes.latent_elems();
    let latent_bytes = precision.packed_len(elems);
    let latent_bytes_f32 = Precision::F32.packed_len(elems);
    let mut doc = Object::block()
        .str("dataset", summary.dataset)
        .num("sessions", summary.sessions)
        .num("shards", metrics.per_shard.len())
        .num("wall_s", format!("{:.4}", summary.wall_s))
        .num("mean_acc_all", format!("{:.4}", summary.mean_acc))
        .num("batches", metrics.batches())
        .num("evictions", metrics.evictions())
        .num("restores", metrics.restores())
        .str("precision", precision)
        .num("session_bytes", bytes(price_mb(st) + price_mb(lt)))
        .num("session_bytes_nominal", bytes(shapes.latent_mb(st + lt)))
        .num("codec_bytes_saved", metrics.codec_bytes_saved())
        .num("latent_bytes_per_sample", latent_bytes)
        .num("latent_bytes_per_sample_f32", latent_bytes_f32)
        .num(
            "latent_shrink",
            format!("{:.2}", latent_bytes_f32 as f64 / latent_bytes as f64),
        );
    if let Some(c) = summary.balance {
        doc = doc.nums("balance.", c.named());
    }
    if let Some(report) = summary.recovery {
        doc = doc
            .num("sessions_recovered", report.sessions_recovered)
            .num("store_decode_rejects", report.decode_rejects);
    }
    if let Some(s) = &summary.store {
        doc = doc.object("store", Object::inline().nums("", s.named()));
    }
    doc.array(
        "users",
        summary.users.iter().map(|(user, shard, acc_all)| {
            Object::inline()
                .num("user", user)
                .num("shard", shard)
                .num("acc_all", format!("{acc_all:.4}"))
        }),
    )
    .array(
        "per_shard",
        metrics.per_shard.iter().map(|shard| {
            Object::inline()
                .num("shard", shard.shard)
                .num("resident", shard.sessions_resident)
                .num("cold", shard.sessions_cold)
                .num("batches", shard.batches)
                .num("evictions", shard.evictions)
                .num("restores", shard.restores)
        }),
    )
    .render()
}

/// The serving-layer counters as one block object, shared by `serve
/// --json` and each `loadgen --json` target so CI can grep one shape.
fn serve_object(c: &ServeCounters) -> Object {
    Object::block()
        .nums("", c.named())
        .num("latency_p50_us", c.latency.quantile_upper_us(0.5))
        .num("latency_p99_us", c.latency.quantile_upper_us(0.99))
}

fn serve_document(c: &ServeCounters) -> String {
    serve_object(c).render()
}

fn print_serve_counters(c: &ServeCounters) {
    println!(
        "serve: {} frames in / {} out, {} KiB in / {} KiB out",
        c.frames_in,
        c.frames_out,
        c.bytes_in / 1024,
        c.bytes_out / 1024
    );
    println!(
        "  {} ok, {} failed, {} decode rejects, {} backpressure replies",
        c.requests_ok, c.requests_failed, c.decode_rejects, c.backpressure_replies
    );
    println!(
        "  latency p50 ≤ {} µs, p99 ≤ {} µs over {} requests",
        c.latency.quantile_upper_us(0.5),
        c.latency.quantile_upper_us(0.99),
        c.latency.count()
    );
}

/// Builds the fleet + serve configs the `serve` and `loadgen` (self-serve)
/// commands share.
fn serve_configs(options: &Options) -> Result<(DatasetSpec, FleetConfig, ServeConfig), String> {
    let spec = dataset(options.get_or("dataset", "core50-tiny"))?;
    let shards: usize = options.get_parsed_or("shards", 2)?;
    let workers: usize = options.get_parsed_or("workers", 4)?;
    let queue: usize = options.get_parsed_or("queue", 32)?;
    let seed: u64 = options.get_parsed_or("seed", 1)?;
    let rate: f64 = options.get_parsed_or("rate", 0.0)?;
    let fault_seed: u64 = options.get_parsed_or("fault-seed", 7)?;
    if !(rate >= 0.0 && rate.is_finite()) {
        return Err("--rate must be a finite non-negative number".to_string());
    }
    let budget_bytes = match options.get("budget-mb") {
        None => u64::MAX,
        Some(v) => {
            let mb: f64 = v
                .parse()
                .map_err(|_| format!("invalid --budget-mb `{v}`"))?;
            if !(mb > 0.0 && mb.is_finite()) {
                return Err("--budget-mb must be a positive number".to_string());
            }
            (mb * 1024.0 * 1024.0) as u64
        }
    };
    let fleet_config = FleetConfig {
        num_shards: shards,
        queue_depth: queue,
        budget_bytes,
        assignment_seed: seed,
        faults: (rate > 0.0).then(|| FaultPlan::bit_flips(fault_seed, rate)),
    };
    fleet_config
        .validate()
        .map_err(|e| format!("invalid fleet config: {e}"))?;
    let balance = options
        .get("balance")
        .map(|spec| BalanceConfig::parse(spec).map_err(|e| format!("invalid --balance: {e}")))
        .transpose()?;
    let serve_config = ServeConfig {
        addr: options.get_or("addr", "127.0.0.1:0").to_string(),
        workers,
        store_dir: options.get("store-dir").map(std::path::PathBuf::from),
        balance,
        ..ServeConfig::default()
    };
    serve_config
        .validate()
        .map_err(|e| format!("invalid serve config: {e}"))?;
    Ok((spec, fleet_config, serve_config))
}

/// Serves a fleet engine over TCP until `--duration` elapses (or stdin
/// reaches EOF), then drains and reports the serving-layer counters.
fn serve(options: &Options) -> Result<(), String> {
    options.expect_only(&[
        "addr",
        "duration",
        "dataset",
        "shards",
        "workers",
        "queue",
        "budget-mb",
        "seed",
        "rate",
        "fault-seed",
        "store-dir",
        "balance",
        "json",
    ])?;
    let (spec, fleet_config, serve_config) = serve_configs(options)?;
    let duration = match options.get("duration") {
        None => None,
        Some(v) => {
            let secs: f64 = v.parse().map_err(|_| format!("invalid --duration `{v}`"))?;
            if !(secs >= 0.0 && secs.is_finite()) {
                return Err("--duration must be a finite non-negative number".to_string());
            }
            Some(std::time::Duration::from_secs_f64(secs))
        }
    };

    let scenario = std::sync::Arc::new(DomainIlScenario::generate(&spec, 0xDA7A));
    let mut server = Server::start(scenario, fleet_config, serve_config)
        .map_err(|e| format!("cannot start server: {e}"))?;
    eprintln!(
        "serving {} on {} ({} shard(s)); CHAMWIRE protocol",
        spec.name,
        server.local_addr(),
        options.get_or("shards", "2"),
    );
    match duration {
        Some(d) => std::thread::sleep(d),
        None => {
            eprintln!("running until stdin reaches EOF (Ctrl-D to stop)");
            let _ = std::io::copy(&mut std::io::stdin().lock(), &mut std::io::sink());
        }
    }
    server.shutdown();
    let counters = server.metrics();
    if options.has_flag("json") {
        println!("{}", serve_document(&counters));
    } else {
        print_serve_counters(&counters);
    }
    Ok(())
}

/// `route --json`: final backend states, then every routing counter as
/// `route.*`, so CI can grep `"route.sessions_handed_off"`.
fn route_document(
    states: &[(String, chameleon_route::BackendState)],
    counters: &chameleon_route::RouteCounters,
) -> String {
    Object::block()
        .array(
            "backends",
            states.iter().map(|(addr, state)| {
                Object::inline()
                    .str("addr", addr)
                    .str("state", format!("{state:?}"))
            }),
        )
        .nums("route.", counters.named())
        .render()
}

/// Fronts N CHAMWIRE backends with a routing proxy until `--duration`
/// elapses (or stdin reaches EOF), then reports the routing counters
/// and final backend states.
fn route(options: &Options) -> Result<(), String> {
    options.expect_only(&[
        "addr",
        "backends",
        "workers",
        "duration",
        "probe-interval-ms",
        "degraded-after",
        "dead-after",
        "salt",
        "state-dir",
        "json",
    ])?;
    let backends: Vec<String> = options
        .get("backends")
        .ok_or("route requires --backends <host:port,host:port,...>")?
        .split(',')
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .collect();
    if backends.is_empty() {
        return Err("--backends must list at least one address".to_string());
    }
    let duration = match options.get("duration") {
        None => None,
        Some(v) => {
            let secs: f64 = v.parse().map_err(|_| format!("invalid --duration `{v}`"))?;
            if !(secs >= 0.0 && secs.is_finite()) {
                return Err("--duration must be a finite non-negative number".to_string());
            }
            Some(std::time::Duration::from_secs_f64(secs))
        }
    };
    let defaults = RouterConfig::default();
    let config = RouterConfig {
        addr: options.get_or("addr", "127.0.0.1:0").to_string(),
        backends,
        workers: options.get_parsed_or("workers", defaults.workers)?,
        salt: options.get_parsed_or("salt", defaults.salt)?,
        probe_interval: std::time::Duration::from_millis(options.get_parsed_or(
            "probe-interval-ms",
            defaults.probe_interval.as_millis() as u64,
        )?),
        degraded_after: options.get_parsed_or("degraded-after", defaults.degraded_after)?,
        dead_after: options.get_parsed_or("dead-after", defaults.dead_after)?,
        state_dir: options.get("state-dir").map(std::path::PathBuf::from),
        ..defaults
    };

    let mut router = Router::start(config).map_err(|e| format!("cannot start router: {e}"))?;
    eprintln!(
        "routing on {} over {} backend(s); CHAMWIRE protocol",
        router.local_addr(),
        router.backend_states().len()
    );
    match duration {
        Some(d) => std::thread::sleep(d),
        None => {
            eprintln!("running until stdin reaches EOF (Ctrl-D to stop)");
            let _ = std::io::copy(&mut std::io::stdin().lock(), &mut std::io::sink());
        }
    }
    let states = router.backend_states();
    let counters = router.metrics();
    router.shutdown();

    if options.has_flag("json") {
        println!("{}", route_document(&states, &counters));
    } else {
        println!(
            "route: {} requests in, {} forwarded, {} forward failures, {} decode rejects",
            counters.requests_in,
            counters.requests_forwarded,
            counters.forward_failures,
            counters.decode_rejects
        );
        println!(
            "  {} sessions handed off ({} shadow failovers), {} / {} probes ok, \
             {} shadow refreshes ({} failed)",
            counters.sessions_handed_off,
            counters.failovers,
            counters.probes_ok,
            counters.probes_ok + counters.probes_failed,
            counters.shadow_refreshes,
            counters.shadow_refresh_failures
        );
        println!(
            "  {} pins + {} shadows recovered from state log, {} replays skipped, \
             {} state-append failures",
            counters.pins_recovered,
            counters.shadows_recovered,
            counters.failover_replays_skipped,
            counters.state_append_failures
        );
        for (addr, state) in &states {
            println!("  backend {addr}: {state:?}");
        }
    }
    Ok(())
}

/// Drives a CHAMWIRE server with concurrent client connections, each
/// running its share of sessions to completion (create → step* →
/// predict → checkpoint), then reports throughput and server counters.
fn loadgen(options: &Options) -> Result<(), String> {
    options.expect_only(&[
        "addr",
        "connections",
        "sessions",
        "slice",
        "dataset",
        "shards",
        "workers",
        "queue",
        "budget-mb",
        "buffer",
        "seed",
        "rate",
        "fault-seed",
        "shape",
        "balance",
        "json",
        "precision",
    ])?;
    let connections: usize = options.get_parsed_or("connections", 2)?;
    let sessions: u64 = options.get_parsed_or("sessions", 4)?;
    let slice: u32 = options.get_parsed_or("slice", 8)?;
    let buffer: usize = options.get_parsed_or("buffer", 20)?;
    let seed: u64 = options.get_parsed_or("seed", 1)?;
    if connections == 0 {
        return Err("--connections must be at least 1".to_string());
    }
    if sessions == 0 {
        return Err("--sessions must be at least 1".to_string());
    }
    if slice == 0 {
        // A zero-batch step can never finish a stream, so the step loop
        // below would spin on `Stepped { delivered: 0, done: false }`.
        return Err("--slice must be at least 1".to_string());
    }
    // Validate the shape grammar before any thread spawns; each
    // connection thread then builds its own seeded generator over its
    // share of the sessions.
    let shape_name = options
        .get("shape")
        .map(|spec| {
            TrafficShape::parse(spec, 1, 0)
                .map(|s| s.name())
                .map_err(|e| format!("invalid --shape: {e}"))
        })
        .transpose()?;
    let shape_spec = options.get("shape").map(String::from);
    let (spec, fleet_config, serve_config) = serve_configs(options)?;
    let learner = chameleon_config_at(buffer, precision_option(options)?)?;

    // No --addr: self-serve a loopback server so one process exercises
    // the full wire path (the CI smoke mode). A comma-separated --addr
    // list fans connections out round-robin over several targets (the
    // servers behind a router, or independent shards of a fleet).
    let server = match options.get("addr") {
        Some(_) => None,
        None => {
            let scenario = std::sync::Arc::new(DomainIlScenario::generate(&spec, 0xDA7A));
            Some(
                Server::start(scenario, fleet_config, serve_config)
                    .map_err(|e| format!("cannot start server: {e}"))?,
            )
        }
    };
    let targets: Vec<String> = match &server {
        Some(server) => vec![server.local_addr().to_string()],
        None => options
            .get("addr")
            .expect("checked above")
            .split(',')
            .map(|s| s.trim().to_string())
            .filter(|s| !s.is_empty())
            .collect(),
    };
    if targets.is_empty() {
        return Err("--addr must list at least one target".to_string());
    }

    let start = std::time::Instant::now();
    let num_classes = spec.num_classes;
    let handles: Vec<_> = (0..connections)
        .map(|c| {
            // Connections round-robin over the target list; sessions
            // stripe over connections, so each session stays on the one
            // target its connection talks to.
            let addr = targets[c % targets.len()].clone();
            let learner = learner.clone();
            let shape_spec = shape_spec.clone();
            // Sessions are striped across connections: c, c+N, c+2N, …
            let users: Vec<u64> = (0..sessions)
                .filter(|u| (*u as usize) % connections == c)
                .collect();
            std::thread::spawn(move || -> Result<(u64, u64, u64), String> {
                fn err<E: std::fmt::Display>(
                    stage: &'static str,
                    user: u64,
                ) -> impl FnOnce(E) -> String {
                    move |e| format!("{stage} session {user}: {e}")
                }
                let mut conn =
                    Connection::connect(&addr).map_err(|e| format!("connect {addr}: {e}"))?;
                let mut requests = 0u64;
                for &user in &users {
                    conn.create_session(user, per_user_spec(user, num_classes, &learner, seed))
                        .map_err(err("create", user))?;
                    requests += 1;
                }
                let (mut draws, mut hot_draws) = (0u64, 0u64);
                match &shape_spec {
                    // Shaped traffic: the generator picks which of this
                    // connection's sessions each step request hits, so
                    // hot-session skew reaches the server's shards in
                    // the same proportions the shape prescribes. A drawn
                    // session that already finished falls forward to the
                    // next unfinished one, keeping termination guaranteed.
                    Some(spec) if !users.is_empty() => {
                        let mut shape = TrafficShape::parse(spec, users.len(), seed ^ c as u64)
                            .expect("grammar validated before spawning");
                        let mut done = vec![false; users.len()];
                        let mut remaining = users.len();
                        while remaining > 0 {
                            let drawn = shape.next_session();
                            let idx = (0..users.len())
                                .map(|k| (drawn + k) % users.len())
                                .find(|&i| !done[i])
                                .expect("remaining > 0 means an unfinished session exists");
                            let user = users[idx];
                            let (_, finished) =
                                conn.step(user, slice).map_err(err("step", user))?;
                            requests += 1;
                            if finished {
                                done[idx] = true;
                                remaining -= 1;
                            }
                        }
                        draws = shape.draws();
                        hot_draws = shape.hot_draws();
                    }
                    _ => {
                        for &user in &users {
                            loop {
                                let (_, done) =
                                    conn.step(user, slice).map_err(err("step", user))?;
                                requests += 1;
                                if done {
                                    break;
                                }
                            }
                        }
                    }
                }
                for &user in &users {
                    conn.predict(user).map_err(err("predict", user))?;
                    let blob = conn.checkpoint(user).map_err(err("checkpoint", user))?;
                    // Quantized sessions seal under the v2 fleet magic.
                    let magic = blob.get(..8);
                    if magic != Some(&chameleon_fleet::FLEET_MAGIC[..])
                        && magic != Some(&chameleon_fleet::FLEET_MAGIC_V2[..])
                    {
                        return Err(format!(
                            "session {user}: checkpoint blob lacks a CHAMFLT magic"
                        ));
                    }
                    requests += 2;
                }
                Ok((requests, draws, hot_draws))
            })
        })
        .collect();
    let mut requests = 0u64;
    let (mut draws, mut hot_draws) = (0u64, 0u64);
    let mut target_requests = vec![0u64; targets.len()];
    for (c, handle) in handles.into_iter().enumerate() {
        let (n, d, h) = handle
            .join()
            .map_err(|_| "a loadgen connection panicked".to_string())??;
        requests += n;
        draws += d;
        hot_draws += h;
        target_requests[c % targets.len()] += n;
    }
    let wall = start.elapsed().as_secs_f64();

    let mut target_stats: Vec<StatsSnapshot> = Vec::with_capacity(targets.len());
    // One Observe round-trip per target: per-shard step distribution and
    // the balance.* counters, so skew (and its correction) shows up in
    // this command's own report.
    let mut shard_batches: Vec<u64> = Vec::new();
    let (mut migrations, mut rebalance_ticks) = (0u64, 0u64);
    for addr in &targets {
        let mut stats_conn =
            Connection::connect(addr).map_err(|e| format!("connect {addr} for stats: {e}"))?;
        target_stats.push(
            stats_conn
                .stats()
                .map_err(|e| format!("stats {addr}: {e}"))?,
        );
        let observation = stats_conn
            .observe()
            .map_err(|e| format!("observe {addr}: {e}"))?;
        for (name, value) in &observation.counters {
            if name.starts_with("fleet.shard") && name.ends_with(".batches") {
                shard_batches.push(*value);
            } else if name == "balance.migrations_total" {
                migrations += value;
            } else if name == "balance.rebalance_ticks" {
                rebalance_ticks += value;
            }
        }
    }
    if let Some(mut server) = server {
        server.shutdown();
    }
    let batches: u64 = target_stats.iter().map(|s| s.batches).sum();
    let evictions: u64 = target_stats.iter().map(|s| s.evictions).sum();
    // Max/min ratio of per-shard delivered batches across every target's
    // shards: 1.0 is perfectly level, large values mean one hot shard did
    // the work. The CI hot-shard smoke greps this.
    let shard_step_ratio = {
        let max = shard_batches.iter().copied().max().unwrap_or(0);
        let min = shard_batches.iter().copied().min().unwrap_or(0);
        max as f64 / min.max(1) as f64
    };

    if options.has_flag("json") {
        let summary = LoadgenSummary {
            connections,
            sessions,
            requests,
            wall_s: wall,
            batches,
            evictions,
            shape: shape_name.as_deref().map(|name| (name, draws, hot_draws)),
            migrations,
            rebalance_ticks,
            shard_step_ratio,
            targets: targets
                .iter()
                .zip(&target_requests)
                .zip(&target_stats)
                .map(|((addr, reqs), stats)| (addr.as_str(), *reqs, stats))
                .collect(),
        };
        println!("{}", loadgen_document(&summary));
    } else {
        println!(
            "loadgen: {requests} requests over {connections} connection(s) to {} target(s) \
             in {wall:.2} s ({:.0} req/s), {batches} batches trained",
            targets.len(),
            requests as f64 / wall.max(1e-9),
        );
        if let Some(name) = &shape_name {
            println!("  shape {name}: {draws} draws, {hot_draws} on the hot subset");
        }
        println!(
            "  shard step ratio {shard_step_ratio:.2} (max/min batches across shards), \
             {migrations} migration(s) over {rebalance_ticks} balance tick(s)"
        );
        for ((addr, stats), reqs) in targets.iter().zip(&target_stats).zip(&target_requests) {
            println!(
                "  target {addr}: {reqs} requests, {} batches",
                stats.batches
            );
            print_serve_counters(&stats.serve);
        }
    }
    Ok(())
}

/// Everything `loadgen --json` reports, as plain data.
struct LoadgenSummary<'a> {
    connections: usize,
    sessions: u64,
    requests: u64,
    wall_s: f64,
    batches: u64,
    evictions: u64,
    /// `(name, draws, hot_draws)` when `--shape` shaped the traffic.
    shape: Option<(&'a str, u64, u64)>,
    migrations: u64,
    rebalance_ticks: u64,
    shard_step_ratio: f64,
    /// `(addr, requests sent, server stats)` per target.
    targets: Vec<(&'a str, u64, &'a StatsSnapshot)>,
}

fn loadgen_document(summary: &LoadgenSummary) -> String {
    let mut doc = Object::block()
        .num("connections", summary.connections)
        .num("sessions", summary.sessions)
        .num("requests", summary.requests)
        .num("wall_s", format!("{:.4}", summary.wall_s))
        .num(
            "requests_per_sec",
            format!("{:.2}", summary.requests as f64 / summary.wall_s.max(1e-9)),
        )
        .num("batches", summary.batches)
        .num("evictions", summary.evictions);
    if let Some((name, draws, hot_draws)) = summary.shape {
        doc = doc
            .str("shape", name)
            .num("shape.draws", draws)
            .num("shape.hot_draws", hot_draws);
    }
    doc.num("balance.migrations_total", summary.migrations)
        .num("balance.rebalance_ticks", summary.rebalance_ticks)
        .num(
            "shard_step_ratio",
            format!("{:.2}", summary.shard_step_ratio),
        )
        .array(
            "targets",
            summary.targets.iter().map(|(addr, requests, stats)| {
                Object::block()
                    .str("addr", addr)
                    .num("requests", requests)
                    .num("batches", stats.batches)
                    .object("serve", serve_object(&stats.serve))
            }),
        )
        .render()
}

/// `stats --json`: one inline object per span stage on its own line, so
/// CI can grep `"stage": "step", "count": <nonzero>`, then the event
/// accounting and every counter.
fn stats_document(o: &chameleon_obs::Observation) -> String {
    Object::block()
        .array(
            "spans",
            o.spans.iter().map(|(stage, stats)| {
                Object::inline()
                    .str("stage", stage)
                    .num("count", stats.count)
                    .num("total_nanos", stats.total_nanos)
                    .num("max_nanos", stats.max_nanos)
                    .num("mean_nanos", stats.mean_nanos())
                    .num("p50_us", stats.histogram.quantile_upper_us(0.5))
                    .num("p99_us", stats.histogram.quantile_upper_us(0.99))
            }),
        )
        .object(
            "events",
            Object::inline()
                .num("logged", o.events.next_seq)
                .num("dropped", o.events.dropped)
                .num("retained", o.events.recent.len()),
        )
        .object(
            "counters",
            Object::block().nums("", o.counters.iter().map(|(n, v)| (n, v))),
        )
        .render()
}

fn print_observation(o: &chameleon_obs::Observation) {
    println!("spans:");
    for (stage, stats) in &o.spans {
        println!(
            "  {stage:<10} count {:>8}  total {:>12} ns  max {:>10} ns  p99 ≤ {} µs",
            stats.count,
            stats.total_nanos,
            stats.max_nanos,
            stats.histogram.quantile_upper_us(0.99)
        );
    }
    println!(
        "events: {} logged, {} dropped, {} retained",
        o.events.next_seq,
        o.events.dropped,
        o.events.recent.len()
    );
    for record in o.events.recent.iter().rev().take(5) {
        println!(
            "  [{}] t={} ns  {}",
            record.seq, record.nanos, record.message
        );
    }
    println!("counters:");
    for (name, value) in &o.counters {
        println!("  {name:<28} {value}");
    }
}

/// `chameleon stats` — snapshot (or `--watch`: poll) a running server's
/// unified observability view over one `Observe` round-trip per poll.
fn stats(options: &Options) -> Result<(), String> {
    options.expect_only(&["addr", "watch", "interval", "count", "json", "expo"])?;
    let addr = options
        .get("addr")
        .ok_or("stats requires --addr <host:port>")?;
    let json = options.has_flag("json");
    let expo = options.has_flag("expo");
    if json && expo {
        return Err("--json and --expo are mutually exclusive".to_string());
    }
    let watch = options.has_flag("watch");
    let interval_ms: u64 = options.get_parsed_or("interval", 1_000)?;
    let count: u64 = options.get_parsed_or("count", 0)?;
    let polls = if watch {
        if count == 0 {
            u64::MAX
        } else {
            count
        }
    } else {
        1
    };

    let mut conn = Connection::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    for poll in 0..polls {
        let observation = conn.observe().map_err(|e| format!("observe: {e}"))?;
        if json {
            println!("{}", stats_document(&observation));
        } else if expo {
            print!("{}", chameleon_obs::expose(&observation));
        } else {
            if watch {
                println!("--- poll {} ---", poll + 1);
            }
            print_observation(&observation);
        }
        if poll + 1 < polls {
            std::thread::sleep(std::time::Duration::from_millis(interval_ms.max(1)));
        }
    }
    Ok(())
}

/// `chameleon simtest` — a seed sweep or one-seed replay of a simulation
/// schedule, or the golden-corpus conformance gate.
fn simtest(options: &Options) -> Result<(), String> {
    options.expect_only(&[
        "seeds",
        "start-seed",
        "budget-secs",
        "replay",
        "check-golden",
        "regen-golden",
        "golden-dir",
        "crash-seeds",
        "crash-start-seed",
        "crash-replay",
        "route-seeds",
        "route-start-seed",
        "route-replay",
        "balance-seeds",
        "balance-start-seed",
        "balance-replay",
        "quantized-seeds",
        "quantized-start-seed",
    ])?;
    // One mode at most: a golden gate, a `--{X-}seeds N` sweep or a
    // `--{X-}replay SEED` replay. With none, 25 lifecycle seeds are swept.
    let mut modes: Vec<String> = ["regen-golden", "check-golden"]
        .into_iter()
        .filter(|flag| options.has_flag(flag))
        .map(str::to_string)
        .collect();
    let mut selected = None;
    for schedule in Schedule::ALL {
        for kind in ["seeds", "replay"] {
            let flag = format!("{}{kind}", schedule.flag_prefix());
            if options.get(&flag).is_some() {
                selected = Some((schedule, kind == "replay"));
                modes.push(flag);
            }
        }
    }
    if modes.len() > 1 {
        return Err(format!(
            "--{} select different simtest modes; pass one",
            modes.join(" and --")
        ));
    }
    let (schedule, replay) = selected.unwrap_or((Schedule::Lifecycle, false));
    let swept = (!replay && (selected.is_some() || modes.is_empty())).then_some(schedule);
    for other in Schedule::ALL {
        let prefix = other.flag_prefix();
        if options.get(&format!("{prefix}start-seed")).is_some() && swept != Some(other) {
            return Err(format!(
                "--{prefix}start-seed applies only to a --{prefix}seeds sweep"
            ));
        }
    }
    let golden_dir = std::path::PathBuf::from(options.get_or("golden-dir", "tests/golden"));

    if options.has_flag("regen-golden") {
        std::fs::create_dir_all(&golden_dir)
            .map_err(|e| format!("cannot create {}: {e}", golden_dir.display()))?;
        for file in chameleon_simtest::derive_corpus() {
            let path = golden_dir.join(file.file);
            std::fs::write(&path, chameleon_simtest::render(&file))
                .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
            println!(
                "simtest: wrote {} ({} entries, version {})",
                path.display(),
                file.entries.len(),
                file.version
            );
        }
        return Ok(());
    }

    if options.has_flag("check-golden") {
        let mut findings = Vec::new();
        for derived in chameleon_simtest::derive_corpus() {
            let path = golden_dir.join(derived.file);
            let text = std::fs::read_to_string(&path).map_err(|e| {
                format!(
                    "cannot read {}: {e} — run `chameleon simtest --regen-golden` \
                     and commit the corpus",
                    path.display()
                )
            })?;
            let committed = chameleon_simtest::parse(derived.file, &text)?;
            findings.extend(chameleon_simtest::diff(&committed, &derived));
        }
        if findings.is_empty() {
            println!(
                "simtest: golden corpus conformant ({} files)",
                chameleon_simtest::GOLDEN_FILE_NAMES.len()
            );
            return Ok(());
        }
        for finding in &findings {
            eprintln!("simtest: {finding}");
        }
        return Err(format!(
            "golden corpus drift: {} finding(s)",
            findings.len()
        ));
    }

    let scenario = chameleon_simtest::golden_scenario();
    let prefix = schedule.flag_prefix();
    if replay {
        let seed: u64 = options.get_parsed_or(&format!("{prefix}replay"), 0)?;
        println!("{}", schedule.check(&scenario, seed)?.line);
        return Ok(());
    }
    let seeds: u64 = options.get_parsed_or(&format!("{prefix}seeds"), 25)?;
    if seeds == 0 {
        return Err(format!("--{prefix}seeds must be at least 1"));
    }
    let start_seed: u64 = options.get_parsed_or(&format!("{prefix}start-seed"), 0)?;
    let budget = match options.get("budget-secs") {
        None => None,
        Some(raw) => {
            let secs: f64 = raw
                .parse()
                .map_err(|_| format!("invalid value `{raw}` for --budget-secs"))?;
            if !secs.is_finite() || secs < 0.0 {
                return Err("--budget-secs must be a non-negative number".to_string());
            }
            Some(std::time::Duration::from_secs_f64(secs))
        }
    };
    let report = chameleon_simtest::sweep(&scenario, schedule, start_seed, seeds, budget);
    println!("{}", report.summary());
    for (_, failure) in &report.failures {
        eprintln!("simtest: FAILED: {failure}");
    }
    match report.failures.first() {
        None => Ok(()),
        Some((_, first)) => Err(format!(
            "{} of {} seed(s) violated simulation invariants; first: {first}",
            report.failures.len(),
            report.checked
        )),
    }
}

fn print_report(spec: &DatasetSpec, name: &str, report: &EvalReport) {
    println!(
        "{name} on {}: Acc_all {:.2} %, memory {:.1} MB",
        spec.name, report.acc_all, report.memory_overhead_mb
    );
    let per_domain: Vec<String> = report
        .per_domain
        .iter()
        .map(|a| format!("{a:.0}"))
        .collect();
    println!("  per-domain accuracy: [{}]", per_domain.join(", "));
}

fn evaluate(options: &Options) -> Result<(), String> {
    options.expect_only(&["dataset", "load", "buffer"])?;
    let spec = dataset(options.get_or("dataset", "core50-tiny"))?;
    let path = options
        .get("load")
        .ok_or("evaluate requires --load <path>")?;
    let buffer: usize = options.get_parsed_or("buffer", 100)?;

    let scenario = DomainIlScenario::generate(&spec, 0xDA7A);
    let model = ModelConfig::for_spec(&spec);
    let blob = std::fs::read(path).map_err(|e| format!("cannot open {path}: {e}"))?;
    // A v3 checkpoint's samples live on a quantization grid; match the
    // loading config to the precision the blob records so `evaluate`
    // round-trips any checkpoint `train` writes, no flag needed.
    let precision = chameleon_core::checkpoint::stored_precision(&blob)
        .map_err(|e| format!("cannot load checkpoint: {e}"))?;
    let learner = Chameleon::load_checkpoint(
        &model,
        chameleon_config_at(buffer, precision)?,
        1,
        blob.as_slice(),
    )
    .map_err(|e| format!("cannot load checkpoint: {e}"))?;
    let report = EvalReport::evaluate(&scenario, &learner);
    print_report(&spec, "Chameleon (checkpoint)", &report);
    println!(
        "  stores: {} short-term / {} long-term samples",
        learner.short_term_len(),
        learner.long_term_len()
    );
    Ok(())
}

fn sweep(options: &Options) -> Result<(), String> {
    options.expect_only(&["dataset", "method", "buffers", "runs"])?;
    let spec = dataset(options.get_or("dataset", "core50-tiny"))?;
    let method = options.get_or("method", "latent-replay").to_string();
    let runs: usize = options.get_parsed_or("runs", 3)?;
    if runs == 0 {
        return Err("--runs must be at least 1".to_string());
    }
    let buffers: Vec<usize> = options
        .get_or("buffers", "100,200,500,1500")
        .split(',')
        .map(|v| {
            v.trim()
                .parse()
                .map_err(|_| format!("invalid buffer size `{v}`"))
        })
        .collect::<Result<_, _>>()?;
    if buffers.is_empty() {
        return Err("--buffers must list at least one size".to_string());
    }

    let scenario = DomainIlScenario::generate(&spec, 0xDA7A);
    let model = ModelConfig::for_spec(&spec);
    let trainer = Trainer::new(StreamConfig::default());
    let seeds: Vec<u64> = (1..=runs as u64).collect();

    println!(
        "{method} on {} across buffer sizes ({runs} runs each):",
        spec.name
    );
    for buffer in buffers {
        let agg = trainer.run_many(
            &scenario,
            |s| build_method(&method, &model, buffer, Precision::F32, s).expect("validated above"),
            &seeds,
        );
        println!(
            "  buffer {buffer:>5}: Acc_all {}   memory {:>7.1} MB",
            agg.acc_all, agg.memory_overhead_mb
        );
    }
    Ok(())
}

fn price(options: &Options) -> Result<(), String> {
    options.expect_only(&["method", "buffer"])?;
    let method = options.get_or("method", "chameleon").to_string();
    let buffer: usize = options.get_parsed_or("buffer", 100)?;

    let spec = DatasetSpec::core50_tiny();
    let scenario = DomainIlScenario::generate(&spec, 0xDA7A);
    let model = ModelConfig::for_spec(&spec);
    let mut strategy = build_method(&method, &model, buffer, Precision::F32, 1)?;

    // Paper hardware configuration: batch size one.
    let stream = StreamConfig {
        batch_size: 1,
        ..StreamConfig::default()
    };
    for domain in 0..spec.num_domains {
        for batch in scenario.domain_stream(domain, &stream, 5 + domain as u64) {
            strategy.observe(&batch);
        }
    }
    let per = strategy
        .trace()
        .per_input()
        .ok_or("strategy recorded no trace (joint trains offline)")?;
    let workload = Workload::from_trace(&per, &NominalModel::mobilenet_v1());

    println!("{} per-image cost (batch size 1):", strategy.name());
    println!(
        "  workload: {:.2} GMAC, {:.0} KB off-chip replay, {:.0} KB on-chip",
        workload.total_macs() / 1e9,
        workload.offchip_replay_bytes / 1e3,
        workload.onchip_bytes / 1e3
    );
    for device in [
        &JetsonNano::new() as &dyn Device,
        &Zcu102::new(),
        &SystolicAccelerator::new(),
    ] {
        let cost = device.cost(&workload);
        println!(
            "  {:<26} {:8.1} ms   {:6.3} J",
            device.name(),
            cost.latency_ms,
            cost.energy_j
        );
    }
    Ok(())
}

fn resources(options: &Options) -> Result<(), String> {
    options.expect_only(&["st-kb", "array"])?;
    let st_kb: usize = options.get_parsed_or("st-kb", 320)?;
    let array = options.get_or("array", "32x32");
    let (rows, cols) = array
        .split_once('x')
        .and_then(|(r, c)| Some((r.parse().ok()?, c.parse().ok()?)))
        .ok_or_else(|| format!("invalid --array `{array}`, expected RxC like 32x32"))?;

    let config = chameleon_hw::FpgaConfig {
        mac_rows: rows,
        mac_cols: cols,
        short_term_buffer_kb: st_kb,
        ..chameleon_hw::FpgaConfig::default()
    };
    let usage = chameleon_hw::ResourceModel::new(config).utilization();
    println!("ZCU102 utilization for a {rows}x{cols} array with {st_kb} KB short-term store:");
    println!(
        "  DSP  {:>7} / {}   ({:.2} %)",
        usage.dsp,
        chameleon_hw::ResourceUsage::DSP_AVAILABLE,
        usage.dsp_pct()
    );
    println!(
        "  BRAM {:>7} / {}   ({:.2} %)",
        usage.bram,
        chameleon_hw::ResourceUsage::BRAM_AVAILABLE,
        usage.bram_pct()
    );
    println!(
        "  LUT  {:>7} / {}   ({:.2} %)",
        usage.lut,
        chameleon_hw::ResourceUsage::LUT_AVAILABLE,
        usage.lut_pct()
    );
    println!("  fits: {}", if usage.fits() { "yes" } else { "NO" });
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(s: &[&str]) -> Vec<String> {
        s.iter().map(ToString::to_string).collect()
    }

    #[test]
    fn help_and_info_succeed() {
        assert!(dispatch(&toks(&["help"])).is_ok());
        assert!(dispatch(&toks(&[])).is_ok());
        assert!(dispatch(&toks(&["info"])).is_ok());
    }

    #[test]
    fn unknown_command_errors() {
        assert!(dispatch(&toks(&["frobnicate"])).is_err());
    }

    #[test]
    fn train_runs_on_tiny_dataset() {
        let argv = toks(&[
            "train",
            "--dataset",
            "core50-tiny",
            "--method",
            "finetune",
            "--seed",
            "2",
        ]);
        assert!(dispatch(&argv).is_ok());
    }

    #[test]
    fn train_rejects_unknown_method_and_dataset() {
        assert!(dispatch(&toks(&["train", "--method", "bogus"])).is_err());
        assert!(dispatch(&toks(&["train", "--dataset", "mnist"])).is_err());
        assert!(dispatch(&toks(&["train", "--runs", "0"])).is_err());
    }

    #[test]
    fn save_load_roundtrip_via_cli() {
        let dir = std::env::temp_dir().join("chameleon-cli-test");
        std::fs::create_dir_all(&dir).expect("tmp dir");
        let path = dir.join("ckpt.bin");
        let path_str = path.to_str().expect("utf8 path");
        let save = toks(&[
            "train",
            "--dataset",
            "core50-tiny",
            "--method",
            "chameleon",
            "--buffer",
            "30",
            "--save",
            path_str,
        ]);
        dispatch(&save).expect("train+save");
        let eval = toks(&[
            "evaluate",
            "--dataset",
            "core50-tiny",
            "--load",
            path_str,
            "--buffer",
            "30",
        ]);
        dispatch(&eval).expect("evaluate");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn sweep_runs_and_validates() {
        let argv = toks(&[
            "sweep",
            "--dataset",
            "core50-tiny",
            "--method",
            "latent-replay",
            "--buffers",
            "20,40",
            "--runs",
            "1",
        ]);
        assert!(dispatch(&argv).is_ok());
        assert!(dispatch(&toks(&["sweep", "--buffers", "abc"])).is_err());
        assert!(dispatch(&toks(&["sweep", "--buffers", ""])).is_err());
    }

    #[test]
    fn price_runs_for_slda() {
        assert!(dispatch(&toks(&["price", "--method", "slda"])).is_ok());
    }

    #[test]
    fn price_rejects_joint() {
        // Joint trains offline and records no online trace.
        assert!(dispatch(&toks(&["price", "--method", "joint"])).is_err());
    }

    #[test]
    fn resources_parses_array() {
        assert!(dispatch(&toks(&["resources", "--array", "16x16"])).is_ok());
        assert!(dispatch(&toks(&["resources", "--array", "16by16"])).is_err());
    }

    #[test]
    fn invalid_buffer_is_reported_not_panicked() {
        // A zero long-term capacity fails config validation; the CLI must
        // surface the message instead of aborting the process.
        let err = dispatch(&toks(&["train", "--method", "chameleon", "--buffer", "0"]))
            .expect_err("zero buffer accepted");
        assert!(err.contains("long-term capacity"), "{err}");
    }

    #[test]
    fn faults_command_runs_and_validates() {
        let argv = toks(&[
            "faults",
            "--dataset",
            "core50-tiny",
            "--buffer",
            "30",
            "--rate",
            "1e-4",
        ]);
        assert!(dispatch(&argv).is_ok());
        assert!(dispatch(&toks(&["faults", "--rate", "-1"])).is_err());
        assert!(dispatch(&toks(&["faults", "--rate", "nope"])).is_err());
        assert!(
            dispatch(&toks(&["faults", "--method", "er", "--no-quarantine"])).is_err(),
            "--no-quarantine must be chameleon-only"
        );
    }

    #[test]
    fn faults_command_supports_baselines() {
        let argv = toks(&[
            "faults",
            "--dataset",
            "core50-tiny",
            "--method",
            "latent-replay",
            "--buffer",
            "30",
            "--rate",
            "1e-5",
        ]);
        assert!(dispatch(&argv).is_ok());
    }

    #[test]
    fn fleet_command_runs_and_validates() {
        let argv = toks(&[
            "fleet",
            "--dataset",
            "core50-tiny",
            "--sessions",
            "3",
            "--shards",
            "2",
            "--buffer",
            "20",
        ]);
        assert!(dispatch(&argv).is_ok());
        assert!(dispatch(&toks(&["fleet", "--sessions", "0"])).is_err());
        assert!(dispatch(&toks(&["fleet", "--shards", "0"])).is_err());
        assert!(dispatch(&toks(&["fleet", "--step-batches", "0"])).is_err());
        assert!(dispatch(&toks(&["fleet", "--budget-mb", "-3"])).is_err());
        assert!(dispatch(&toks(&["fleet", "--rate", "nope"])).is_err());
    }

    #[test]
    fn fleet_command_survives_eviction_churn_and_faults() {
        let argv = toks(&[
            "fleet",
            "--dataset",
            "core50-tiny",
            "--sessions",
            "4",
            "--shards",
            "1",
            "--buffer",
            "20",
            "--budget-mb",
            "0.01",
            "--rate",
            "1e-5",
        ]);
        assert!(dispatch(&argv).is_ok());
    }

    #[test]
    fn fleet_json_flag_is_accepted() {
        let argv = toks(&[
            "fleet",
            "--dataset",
            "core50-tiny",
            "--sessions",
            "2",
            "--shards",
            "1",
            "--buffer",
            "20",
            "--json",
        ]);
        assert!(dispatch(&argv).is_ok());
    }

    #[test]
    fn fleet_balance_flag_runs_and_validates() {
        let argv = toks(&[
            "fleet",
            "--dataset",
            "core50-tiny",
            "--sessions",
            "4",
            "--shards",
            "2",
            "--buffer",
            "20",
            "--balance",
            "steal:2",
            "--json",
        ]);
        assert!(dispatch(&argv).is_ok());
        assert!(dispatch(&toks(&["fleet", "--balance", "roulette"])).is_err());
        assert!(dispatch(&toks(&["fleet", "--balance", "periodic:0"])).is_err());
    }

    #[test]
    fn serve_command_validates_options() {
        assert!(dispatch(&toks(&["serve", "--workers", "0"])).is_err());
        assert!(dispatch(&toks(&["serve", "--shards", "0"])).is_err());
        assert!(dispatch(&toks(&["serve", "--queue", "0"])).is_err());
        assert!(dispatch(&toks(&["serve", "--duration", "nope"])).is_err());
        assert!(dispatch(&toks(&["serve", "--addr", "not-an-address"])).is_err());
    }

    #[test]
    fn serve_runs_for_a_bounded_duration() {
        let argv = toks(&[
            "serve",
            "--dataset",
            "core50-tiny",
            "--duration",
            "0.05",
            "--json",
        ]);
        assert!(dispatch(&argv).is_ok());
    }

    #[test]
    fn loadgen_self_serve_round_trips() {
        // No --addr: loadgen hosts its own loopback server, so this covers
        // server start, the full client conversation, and clean shutdown.
        let argv = toks(&[
            "loadgen",
            "--dataset",
            "core50-tiny",
            "--connections",
            "2",
            "--sessions",
            "2",
            "--json",
        ]);
        assert!(dispatch(&argv).is_ok());
        assert!(dispatch(&toks(&["loadgen", "--connections", "0"])).is_err());
        assert!(dispatch(&toks(&["loadgen", "--sessions", "0"])).is_err());
        assert!(dispatch(&toks(&["loadgen", "--slice", "0"])).is_err());
    }

    #[test]
    fn loadgen_shaped_traffic_with_balance_round_trips() {
        // Skewed traffic against a self-served multi-shard fleet with the
        // rebalancer on: covers the --shape draw loop, the balance knob's
        // passage into the server engine thread, and the shard_step_ratio
        // observe round-trip.
        let argv = toks(&[
            "loadgen",
            "--dataset",
            "core50-tiny",
            "--connections",
            "1",
            "--sessions",
            "3",
            "--shards",
            "2",
            "--shape",
            "zipf:1.1",
            "--balance",
            "steal:2",
            "--json",
        ]);
        assert!(dispatch(&argv).is_ok());
        assert!(dispatch(&toks(&["loadgen", "--shape", "pareto"])).is_err());
        assert!(dispatch(&toks(&["loadgen", "--balance", "bogus"])).is_err());
    }

    // Byte-exact snapshots of every `--json` document, fed fixed inputs.
    // CI greps these shapes, so any drift is a format change.

    fn fixed_serve_counters(scale: u64) -> ServeCounters {
        let mut latency = chameleon_obs::LatencyHistogram::default();
        for micros in [3, 40, 40, 900] {
            latency.record(std::time::Duration::from_micros(micros * scale));
        }
        ServeCounters {
            connections_accepted: scale,
            connections_closed: scale + 1,
            frames_in: 100 * scale,
            frames_out: 99 * scale,
            bytes_in: 4096 * scale,
            bytes_out: 8192 * scale,
            decode_rejects: 0,
            backpressure_replies: 2,
            requests_ok: 97 * scale,
            requests_failed: 1,
            latency,
        }
    }

    fn fixed_fleet_metrics() -> chameleon_fleet::FleetMetrics {
        let shard = |shard: usize, batches: u64| chameleon_fleet::ShardMetrics {
            shard,
            sessions_resident: 2,
            sessions_cold: shard,
            batches,
            evictions: 3 + shard as u64,
            restores: 2,
            codec_bytes_saved: 1000 + batches,
            ..Default::default()
        };
        chameleon_fleet::FleetMetrics {
            per_shard: vec![shard(0, 40), shard(1, 36)],
        }
    }

    const FLEET_JSON: &str = r#"{
  "dataset": "CORe50-tiny",
  "sessions": 3,
  "shards": 2,
  "wall_s": 1.2346,
  "mean_acc_all": 41.5000,
  "batches": 76,
  "evictions": 7,
  "restores": 4,
  "precision": "int8",
  "session_bytes": 687531,
  "session_bytes_nominal": 1374390,
  "codec_bytes_saved": 2076,
  "latent_bytes_per_sample": 16397,
  "latent_bytes_per_sample_f32": 65541,
  "latent_shrink": 4.00,
  "balance.rebalance_ticks": 5,
  "balance.migrations_total": 2,
  "balance.migrations_skipped": 1,
  "balance.migration_failures": 0,
  "sessions_recovered": 3,
  "store_decode_rejects": 1,
  "users": [
    {"user": 0, "shard": 0, "acc_all": 40.2500},
    {"user": 1, "shard": 1, "acc_all": 42.7500},
    {"user": 2, "shard": 0, "acc_all": 41.5000}
  ],
  "per_shard": [
    {"shard": 0, "resident": 2, "cold": 0, "batches": 40, "evictions": 3, "restores": 2},
    {"shard": 1, "resident": 2, "cold": 1, "batches": 36, "evictions": 4, "restores": 2}
  ]
}"#;

    const FLEET_JSON_MINIMAL: &str = r#"{
  "dataset": "CORe50",
  "sessions": 0,
  "shards": 0,
  "wall_s": 0.0000,
  "mean_acc_all": 0.0000,
  "batches": 0,
  "evictions": 0,
  "restores": 0,
  "precision": "f32",
  "session_bytes": 1030793,
  "session_bytes_nominal": 1030793,
  "codec_bytes_saved": 0,
  "latent_bytes_per_sample": 65541,
  "latent_bytes_per_sample_f32": 65541,
  "latent_shrink": 1.00,
  "users": [
  ],
  "per_shard": [
  ]
}"#;

    #[test]
    fn fleet_document_is_pinned() {
        let learner = chameleon_config_at(30, Precision::Int8).expect("config");
        let metrics = fixed_fleet_metrics();
        let recovery = chameleon_fleet::RecoveryReport {
            sessions_recovered: 3,
            decode_rejects: 1,
        };
        let summary = FleetSummary {
            dataset: "CORe50-tiny",
            sessions: 3,
            wall_s: 1.234_56,
            mean_acc: 41.5,
            users: vec![(0, 0, 40.25), (1, 1, 42.75), (2, 0, 41.5)],
            metrics: &metrics,
            recovery: Some(&recovery),
            balance: Some(chameleon_balance::BalanceCounters {
                rebalance_ticks: 5,
                migrations_total: 2,
                migrations_skipped: 1,
                migration_failures: 0,
            }),
            store: None,
            learner: &learner,
            num_classes: 10,
        };
        assert_eq!(fleet_document(&summary), FLEET_JSON);
        let learner = chameleon_config_at(20, Precision::F32).expect("config");
        let empty = chameleon_fleet::FleetMetrics::default();
        let minimal = FleetSummary {
            dataset: "CORe50",
            sessions: 0,
            wall_s: 0.0,
            mean_acc: 0.0,
            users: Vec::new(),
            metrics: &empty,
            recovery: None,
            balance: None,
            store: None,
            learner: &learner,
            num_classes: 50,
        };
        assert_eq!(fleet_document(&minimal), FLEET_JSON_MINIMAL);
    }

    #[test]
    fn fleet_document_reports_every_store_counter_in_struct_order() {
        let learner = chameleon_config_at(20, Precision::F32).expect("config");
        let metrics = chameleon_fleet::FleetMetrics::default();
        let store = chameleon_store::StoreCounters {
            appends: 1,
            append_bytes: 2,
            fsyncs: 3,
            rotations: 4,
            compactions: 5,
            torn_truncations: 6,
            truncated_bytes: 7,
            decode_rejects: 8,
            short_reads: 9,
            sessions_recovered: 10,
            segments: 11,
            live_records: 12,
            dead_bytes: 13,
        };
        let summary = FleetSummary {
            dataset: "CORe50",
            sessions: 0,
            wall_s: 0.0,
            mean_acc: 0.0,
            users: Vec::new(),
            metrics: &metrics,
            recovery: None,
            balance: None,
            store: Some(store),
            learner: &learner,
            num_classes: 50,
        };
        let doc = fleet_document(&summary);
        let line = doc
            .lines()
            .find(|l| l.starts_with("  \"store\": "))
            .expect("store line");
        assert_eq!(
            line,
            "  \"store\": {\"appends\": 1, \"append_bytes\": 2, \"fsyncs\": 3, \"rotations\": 4, \
             \"compactions\": 5, \"torn_truncations\": 6, \"truncated_bytes\": 7, \
             \"decode_rejects\": 8, \"short_reads\": 9, \"sessions_recovered\": 10, \
             \"segments\": 11, \"live_records\": 12, \"dead_bytes\": 13},"
        );
    }

    const SERVE_JSON: &str = r#"{
  "connections_accepted": 1,
  "connections_closed": 2,
  "frames_in": 100,
  "frames_out": 99,
  "bytes_in": 4096,
  "bytes_out": 8192,
  "decode_rejects": 0,
  "backpressure_replies": 2,
  "requests_ok": 97,
  "requests_failed": 1,
  "latency_p50_us": 64,
  "latency_p99_us": 1024
}"#;

    #[test]
    fn serve_document_is_pinned() {
        assert_eq!(serve_document(&fixed_serve_counters(1)), SERVE_JSON);
    }

    const ROUTE_JSON: &str = r#"{
  "backends": [
    {"addr": "127.0.0.1:7411", "state": "Dead"},
    {"addr": "127.0.0.1:7412", "state": "Healthy"}
  ],
  "route.requests_in": 120,
  "route.requests_forwarded": 118,
  "route.forward_failures": 1,
  "route.sessions_handed_off": 4,
  "route.failovers": 2,
  "route.failover_replays_skipped": 1,
  "route.decode_rejects": 0,
  "route.probes_ok": 300,
  "route.probes_failed": 7,
  "route.shadow_refreshes": 60,
  "route.shadow_refresh_failures": 1,
  "route.pins_recovered": 6,
  "route.shadows_recovered": 5,
  "route.state_append_failures": 0
}"#;

    #[test]
    fn route_document_is_pinned() {
        use chameleon_route::BackendState;
        let counters = chameleon_route::RouteCounters {
            requests_in: 120,
            requests_forwarded: 118,
            forward_failures: 1,
            sessions_handed_off: 4,
            failovers: 2,
            failover_replays_skipped: 1,
            decode_rejects: 0,
            probes_ok: 300,
            probes_failed: 7,
            shadow_refreshes: 60,
            shadow_refresh_failures: 1,
            pins_recovered: 6,
            shadows_recovered: 5,
            state_append_failures: 0,
        };
        let states = vec![
            ("127.0.0.1:7411".to_string(), BackendState::Dead),
            ("127.0.0.1:7412".to_string(), BackendState::Healthy),
        ];
        assert_eq!(route_document(&states, &counters), ROUTE_JSON);
    }

    const LOADGEN_JSON: &str = r#"{
  "connections": 3,
  "sessions": 6,
  "requests": 150,
  "wall_s": 0.7500,
  "requests_per_sec": 200.00,
  "batches": 144,
  "evictions": 4,
  "shape": "zipf:1.1",
  "shape.draws": 130,
  "shape.hot_draws": 97,
  "balance.migrations_total": 3,
  "balance.rebalance_ticks": 12,
  "shard_step_ratio": 1.50,
  "targets": [
    {
      "addr": "127.0.0.1:7411",
      "requests": 50,
      "batches": 48,
      "serve": {
        "connections_accepted": 1,
        "connections_closed": 2,
        "frames_in": 100,
        "frames_out": 99,
        "bytes_in": 4096,
        "bytes_out": 8192,
        "decode_rejects": 0,
        "backpressure_replies": 2,
        "requests_ok": 97,
        "requests_failed": 1,
        "latency_p50_us": 64,
        "latency_p99_us": 1024
      }
    },
    {
      "addr": "127.0.0.1:7412",
      "requests": 100,
      "batches": 96,
      "serve": {
        "connections_accepted": 2,
        "connections_closed": 3,
        "frames_in": 200,
        "frames_out": 198,
        "bytes_in": 8192,
        "bytes_out": 16384,
        "decode_rejects": 0,
        "backpressure_replies": 2,
        "requests_ok": 194,
        "requests_failed": 1,
        "latency_p50_us": 128,
        "latency_p99_us": 2048
      }
    }
  ]
}"#;

    #[test]
    fn loadgen_document_is_pinned() {
        let stats = |scale: u64| StatsSnapshot {
            batches: 48 * scale,
            serve: fixed_serve_counters(scale),
            ..StatsSnapshot::default()
        };
        let (a, b) = (stats(1), stats(2));
        let summary = LoadgenSummary {
            connections: 3,
            sessions: 6,
            requests: 150,
            wall_s: 0.75,
            batches: 144,
            evictions: 4,
            shape: Some(("zipf:1.1", 130, 97)),
            migrations: 3,
            rebalance_ticks: 12,
            shard_step_ratio: 1.5,
            targets: vec![("127.0.0.1:7411", 50, &a), ("127.0.0.1:7412", 100, &b)],
        };
        assert_eq!(loadgen_document(&summary), LOADGEN_JSON);
    }

    const STATS_JSON: &str = r#"{
  "spans": [
    {"stage": "step", "count": 2, "total_nanos": 93000, "max_nanos": 90000, "mean_nanos": 46500, "p50_us": 4, "p99_us": 128},
    {"stage": "checkpoint", "count": 0, "total_nanos": 0, "max_nanos": 0, "mean_nanos": 0, "p50_us": 0, "p99_us": 0},
    {"stage": "restore", "count": 1, "total_nanos": 12000, "max_nanos": 12000, "mean_nanos": 12000, "p50_us": 16, "p99_us": 16},
    {"stage": "eval", "count": 0, "total_nanos": 0, "max_nanos": 0, "mean_nanos": 0, "p50_us": 0, "p99_us": 0},
    {"stage": "encode", "count": 0, "total_nanos": 0, "max_nanos": 0, "mean_nanos": 0, "p50_us": 0, "p99_us": 0},
    {"stage": "decode", "count": 0, "total_nanos": 0, "max_nanos": 0, "mean_nanos": 0, "p50_us": 0, "p99_us": 0}
  ],
  "events": {"logged": 1, "dropped": 0, "retained": 1},
  "counters": {
    "fleet.batches": 7,
    "serve.decode_rejects": 0
  }
}"#;

    #[test]
    fn stats_document_is_pinned() {
        use chameleon_obs::{Observer, Stage};
        use chameleon_runtime::VirtualClock;
        let observer = Observer::new(VirtualClock::shared(1_000));
        observer.record(Stage::Step, 3_000);
        observer.record(Stage::Step, 90_000);
        observer.record(Stage::Restore, 12_000);
        observer.event("hello");
        let mut observation = observer.observe();
        observation.push_counter("fleet.batches", 7);
        observation.push_counter("serve.decode_rejects", 0);
        assert_eq!(stats_document(&observation), STATS_JSON);
    }

    #[test]
    fn stats_document_escapes_counter_names_from_the_wire() {
        use chameleon_serve::wire::Response;
        let mut observation = chameleon_obs::Observation::default();
        observation.push_counter("a\"b\\c\n", 7);
        let payload = Response::Observed(Box::new(observation)).encode_payload(1);
        let Ok((_, Response::Observed(observation))) = Response::decode_payload(&payload) else {
            panic!("an observation round-trips the wire");
        };
        assert_eq!(
            stats_document(&observation),
            "{\n  \"spans\": [\n  ],\n  \"events\": {\"logged\": 0, \"dropped\": 0, \"retained\": 0},\n  \
             \"counters\": {\n    \"a\\\"b\\\\c\\n\": 7\n  }\n}"
        );
    }

    #[test]
    fn stats_command_polls_a_live_server() {
        // Boot an in-process server, generate some traffic, then drive
        // the `stats` dispatch path in every output format.
        let scenario = std::sync::Arc::new(DomainIlScenario::generate(
            &DatasetSpec::core50_tiny(),
            0xDA7A,
        ));
        let mut server = Server::start(scenario, FleetConfig::default(), ServeConfig::default())
            .expect("start server");
        let addr = server.local_addr().to_string();
        let mut conn = Connection::connect(&addr).expect("connect");
        let learner = chameleon_config_at(20, Precision::F32).expect("config");
        conn.create_session(
            1,
            per_user_spec(1, DatasetSpec::core50_tiny().num_classes, &learner, 1),
        )
        .expect("create");
        conn.run_to_completion(1, 8).expect("run");
        drop(conn);

        for format in [&["--json"][..], &["--expo"][..], &[][..]] {
            let mut argv = toks(&["stats", "--addr", &addr]);
            argv.extend(format.iter().map(ToString::to_string));
            dispatch(&argv).expect("stats poll");
        }
        // Watch mode with a bounded poll count terminates.
        dispatch(&toks(&[
            "stats",
            "--addr",
            &addr,
            "--watch",
            "--count",
            "2",
            "--interval",
            "1",
            "--json",
        ]))
        .expect("bounded watch");

        // The JSON document itself: step spans populated, shape greppable.
        let mut conn = Connection::connect(&addr).expect("reconnect");
        let observation = conn.observe().expect("observe");
        let json = stats_document(&observation);
        assert!(json.contains("\"stage\": \"step\""), "{json}");
        assert!(json.contains("\"fleet.batches\""), "{json}");
        let step_line = json
            .lines()
            .find(|l| l.contains("\"stage\": \"step\""))
            .expect("step span line");
        assert!(
            !step_line.contains("\"count\": 0"),
            "no step spans: {step_line}"
        );
        server.shutdown();

        // Option validation.
        assert!(dispatch(&toks(&["stats"])).is_err());
        assert!(dispatch(&toks(&["stats", "--addr", &addr, "--json", "--expo"])).is_err());
        assert!(dispatch(&toks(&["stats", "--addr", "not-an-address"])).is_err());
    }

    #[test]
    fn atomic_save_leaves_no_temp_file() {
        let dir = std::env::temp_dir().join("chameleon-cli-atomic-test");
        std::fs::create_dir_all(&dir).expect("tmp dir");
        let path = dir.join("ckpt.bin");
        let path_str = path.to_str().expect("utf8 path");
        let save = toks(&[
            "train",
            "--dataset",
            "core50-tiny",
            "--method",
            "chameleon",
            "--buffer",
            "30",
            "--save",
            path_str,
        ]);
        dispatch(&save).expect("train+save");
        assert!(path.exists(), "checkpoint missing");
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .expect("read dir")
            .filter_map(Result::ok)
            .filter(|e| e.file_name().to_string_lossy().ends_with(".tmp"))
            .collect();
        assert!(leftovers.is_empty(), "temp file left behind");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn simtest_rejects_bad_options() {
        assert!(dispatch(&toks(&["simtest", "--seeds", "0"])).is_err());
        assert!(dispatch(&toks(&["simtest", "--seeds", "nope"])).is_err());
        assert!(dispatch(&toks(&["simtest", "--budget-secs", "-1"])).is_err());
        assert!(dispatch(&toks(&["simtest", "--replay", "many"])).is_err());
        assert!(dispatch(&toks(&["simtest", "--bogus", "1"])).is_err());
        assert!(dispatch(&toks(&["simtest", "--crash-seeds", "0"])).is_err());
        assert!(dispatch(&toks(&["simtest", "--crash-seeds", "x"])).is_err());
        assert!(dispatch(&toks(&["simtest", "--crash-replay", "x"])).is_err());
        assert!(dispatch(&toks(&["simtest", "--route-seeds", "0"])).is_err());
        assert!(dispatch(&toks(&["simtest", "--route-seeds", "x"])).is_err());
        assert!(dispatch(&toks(&["simtest", "--route-replay", "x"])).is_err());
        assert!(dispatch(&toks(&["simtest", "--quantized-seeds", "0"])).is_err());
        assert!(dispatch(&toks(&["simtest", "--quantized-seeds", "x"])).is_err());
        // More than one mode selector, or a start seed for a sweep that
        // is not selected, is refused rather than silently ignored.
        for argv in [
            &["--route-seeds", "5", "--balance-seeds", "5"][..],
            &["--seeds", "10", "--crash-seeds", "2"],
            &["--replay", "1", "--seeds", "2"],
            &["--crash-replay", "3", "--balance-replay", "2"],
            &["--check-golden", "--seeds", "2"],
            &["--crash-start-seed", "4"],
            &["--start-seed", "4", "--crash-seeds", "1"],
            &["--crash-start-seed", "4", "--crash-replay", "3"],
            &["--quantized-start-seed", "1", "--check-golden"],
        ] {
            let args: Vec<&str> = std::iter::once("simtest")
                .chain(argv.iter().copied())
                .collect();
            let error = dispatch(&toks(&args)).expect_err("ambiguous simtest mode");
            assert!(
                error.contains("select different simtest modes")
                    || error.contains("applies only to a"),
                "{argv:?}: {error}"
            );
        }
    }

    #[test]
    fn simtest_runs_a_crash_schedule_seed() {
        assert!(dispatch(&toks(&[
            "simtest",
            "--crash-seeds",
            "1",
            "--crash-start-seed",
            "4",
        ]))
        .is_ok());
    }

    #[test]
    fn simtest_soaks_and_replays_a_seed() {
        assert!(dispatch(&toks(&["simtest", "--seeds", "2"])).is_ok());
        assert!(dispatch(&toks(&["simtest", "--replay", "1"])).is_ok());
        assert!(dispatch(&toks(&["simtest", "--quantized-seeds", "1"])).is_ok());
        assert!(dispatch(&toks(&[
            "simtest",
            "--route-seeds",
            "1",
            "--route-start-seed",
            "3",
        ]))
        .is_ok());
        assert!(dispatch(&toks(&["simtest", "--route-replay", "3"])).is_ok());
    }

    #[test]
    fn simtest_runs_a_balance_schedule_seed() {
        assert!(dispatch(&toks(&[
            "simtest",
            "--balance-seeds",
            "1",
            "--balance-start-seed",
            "2",
        ]))
        .is_ok());
        assert!(dispatch(&toks(&["simtest", "--balance-replay", "2"])).is_ok());
        assert!(dispatch(&toks(&["simtest", "--balance-seeds", "0"])).is_err());
        assert!(dispatch(&toks(&["simtest", "--balance-seeds", "x"])).is_err());
        assert!(dispatch(&toks(&["simtest", "--balance-replay", "x"])).is_err());
    }

    #[test]
    fn simtest_golden_regen_then_check_roundtrips() {
        let dir = std::env::temp_dir().join("chameleon-cli-golden-test");
        std::fs::create_dir_all(&dir).expect("tmp dir");
        let dir_str = dir.to_str().expect("utf8 path");
        // Checking a corpus that was never generated points at --regen-golden.
        let missing = dir.join("never-written");
        let err = dispatch(&toks(&[
            "simtest",
            "--check-golden",
            "--golden-dir",
            missing.to_str().expect("utf8 path"),
        ]))
        .expect_err("missing corpus must fail the gate");
        assert!(err.contains("regen-golden"), "{err}");
        dispatch(&toks(&[
            "simtest",
            "--regen-golden",
            "--golden-dir",
            dir_str,
        ]))
        .expect("regeneration succeeds");
        dispatch(&toks(&[
            "simtest",
            "--check-golden",
            "--golden-dir",
            dir_str,
        ]))
        .expect("freshly regenerated corpus is conformant");
        // A flipped byte without a version bump must trip the gate.
        let target = dir.join("wire_frames.golden");
        let mut text = std::fs::read_to_string(&target).expect("read corpus");
        let pos = text.rfind('0').expect("hex digit");
        text.replace_range(pos..=pos, "1");
        std::fs::write(&target, text).expect("write tampered corpus");
        let err = dispatch(&toks(&[
            "simtest",
            "--check-golden",
            "--golden-dir",
            dir_str,
        ]))
        .expect_err("tampered corpus must fail the gate");
        assert!(err.contains("drift"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn temp_sibling_path_stays_in_the_destination_directory() {
        use std::path::{Path, PathBuf};
        // An absolute nested target: the temp file must be its sibling,
        // never a CWD-relative orphan.
        assert_eq!(
            temp_sibling_path(Path::new("/a/b/ckpt.bin")),
            PathBuf::from("/a/b/.ckpt.bin.tmp")
        );
        assert_eq!(
            temp_sibling_path(Path::new("nested/dir/ckpt.bin")),
            PathBuf::from("nested/dir/.ckpt.bin.tmp")
        );
        // A bare filename has no parent; CWD-relative is then correct.
        assert_eq!(
            temp_sibling_path(Path::new("ckpt.bin")),
            PathBuf::from(".ckpt.bin.tmp")
        );
    }

    #[test]
    fn save_checkpoint_lands_in_a_nested_target_directory() {
        let root = std::env::temp_dir().join(format!("chameleon-cli-save-{}", std::process::id()));
        let dir = root.join("deep").join("nested");
        std::fs::create_dir_all(&dir).expect("mkdir");
        let target = dir.join("ckpt.bin");
        dispatch(&toks(&[
            "train",
            "--dataset",
            "core50-tiny",
            "--seed",
            "3",
            "--save",
            target.to_str().expect("utf8 path"),
        ]))
        .expect("train --save with a nested target");
        assert!(target.is_file(), "checkpoint missing at the nested target");
        // Renamed into place: no temp sibling left behind, and nothing
        // dropped into the process CWD.
        assert!(!dir.join(".ckpt.bin.tmp").exists());
        assert!(!std::path::Path::new(".ckpt.bin.tmp").exists());
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn fleet_store_dir_spills_and_recovers_across_runs() {
        let dir = std::env::temp_dir().join(format!("chameleon-cli-store-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let dir_str = dir.to_str().expect("utf8 path").to_string();
        let base = [
            "fleet",
            "--dataset",
            "core50-tiny",
            "--sessions",
            "2",
            "--shards",
            "1",
            "--budget-mb",
            "0.02",
            "--store-dir",
            &dir_str,
        ];
        dispatch(&toks(&base)).expect("first durable fleet run");
        assert!(
            dir.join("MANIFEST").is_file(),
            "store directory missing its manifest"
        );
        // Second run recovers the sealed sessions and keeps serving.
        let mut with_json: Vec<&str> = base.to_vec();
        with_json.push("--json");
        dispatch(&toks(&with_json)).expect("recovered durable fleet run");
        std::fs::remove_dir_all(&dir).ok();
    }
}
