//! `swifi-perfbench`: one step of the cold end-to-end campaign benchmark.
//!
//! `perfbench/run.py` builds this binary and runs it once per step, each
//! step in a fresh process so that every measured pass starts cold and
//! its CPU time and peak memory can be read from the process's resource
//! usage. Every step prints one JSON object as its last stdout line.
//!
//! ```text
//! swifi-perfbench reference --workload W --seed S --work DIR --out FILE
//! swifi-perfbench setup     --workload W --seed S --work DIR
//! swifi-perfbench pass      --workload W --seed S --work DIR --reference FILE
//! swifi-perfbench traced    --workload W --seed S --work DIR --reference FILE --trace-dir DIR
//! ```
//!
//! - `reference` runs the all-layers-off configuration and writes its
//!   per-fault records.
//! - `setup` times one cold set-up of the workload's campaigns.
//! - `pass` runs one cold default campaign pass and checks it against
//!   the reference. At the location seed the pass is a
//!   `class_campaign_with` call; at any other seed it is the engine
//!   schedule that call would run with the workload seed's test case.
//! - `traced` runs the traced schedule, interleaved with the untraced and
//!   one-layer-off campaigns, checks them all, runs each program's
//!   campaign through `class_campaign_with` and through the service at
//!   the location seed and checks those against each other, and reports
//!   the per-layer metrics.

mod layers;
mod records;
mod service;
mod stats;
mod traced;
mod workload;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::atomic::AtomicU64;
use std::time::Instant;

use serde::{Deserialize, Serialize, Value};

use records::{compare, strip_report, FaultRecord, Tally};
use service::Server;
use workload::{
    class_campaign, engine_campaign, setup_once, Layers, Workload, LOCATION_SEED, SERVICE_SHARDS,
};

/// Rounds of the traced, default and one-layer-off campaigns in a
/// traced run.
const ABLATION_ROUNDS: usize = 2;

/// Parsed command line.
struct Args {
    step: String,
    workload: Workload,
    seed: u64,
    work: PathBuf,
    reference: Option<PathBuf>,
    out: Option<PathBuf>,
    trace_dir: Option<PathBuf>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let step = argv
        .first()
        .ok_or("expected a step: reference, setup, pass or traced")?;
    let mut workload = None;
    let mut seed = None;
    let mut work = None;
    let mut reference = None;
    let mut out = None;
    let mut trace_dir = None;
    let mut rest = argv[1..].iter();
    while let Some(flag) = rest.next() {
        let value = rest
            .next()
            .ok_or_else(|| format!("`{flag}` needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(workload::workload(value)?),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed `{value}`"))?),
            "--work" => work = Some(PathBuf::from(value)),
            "--reference" => reference = Some(PathBuf::from(value)),
            "--out" => out = Some(PathBuf::from(value)),
            "--trace-dir" => trace_dir = Some(PathBuf::from(value)),
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(Args {
        step: step.clone(),
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        work: work.ok_or("--work is required")?,
        reference,
        out,
        trace_dir,
    })
}

/// The reference configuration's records for one program.
#[derive(Serialize, Deserialize)]
struct Reference {
    program: String,
    records: Vec<FaultRecord>,
}

fn write_reference(args: &Args) -> Result<Value, String> {
    let w = args.workload;
    let mut reference = Vec::new();
    for &program in w.programs {
        let run = engine_campaign(program, w.inputs, args.seed, Layers::NONE)?;
        reference.push(Reference {
            program: program.to_string(),
            records: run.records,
        });
    }
    let text = serde_json::to_string(&reference).map_err(|e| e.to_string())?;
    let out = args.out.as_ref().ok_or("--out is required")?;
    std::fs::write(out, text).map_err(|e| format!("cannot write `{}`: {e}", out.display()))?;
    Ok(Value::Object(vec![]))
}

fn read_reference(args: &Args) -> Result<Vec<Reference>, String> {
    let path = args.reference.as_ref().ok_or("--reference is required")?;
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read `{}`: {e}", path.display()))?;
    serde_json::from_str(&text).map_err(|e| format!("bad reference `{}`: {e}", path.display()))
}

/// The correctness side of a step: records compared, reports compared.
#[derive(Default)]
struct Check {
    tally: Tally,
    reports_equal: bool,
    mismatches: Vec<String>,
}

impl Check {
    fn new() -> Check {
        Check {
            reports_equal: true,
            ..Check::default()
        }
    }

    /// Compare `records` with `reference`, item by item.
    fn records(
        &mut self,
        what: &str,
        program: &str,
        reference: &[FaultRecord],
        records: &[FaultRecord],
    ) {
        let t = compare(reference, records);
        if t.failed > 0 {
            self.mismatches.push(format!(
                "{what} {program}: {} of {} fault records differ",
                t.failed, t.items
            ));
        }
        self.tally.add(t);
    }

    /// Compare two reports once their volatile lines are gone.
    fn report(&mut self, what: &str, program: &str, reference: &str, report: &str) {
        if strip_report(report) != strip_report(reference) {
            self.reports_equal = false;
            self.mismatches
                .push(format!("{what} {program}: report differs"));
        }
    }

    fn fields(&self) -> Vec<(String, Value)> {
        vec![
            ("items".to_string(), Value::U64(self.tally.items)),
            ("failed".to_string(), Value::U64(self.tally.failed)),
            ("abnormal".to_string(), Value::U64(self.tally.abnormal)),
            ("reports_equal".to_string(), Value::Bool(self.reports_equal)),
            (
                "mismatches".to_string(),
                Value::Array(self.mismatches.iter().cloned().map(Value::Str).collect()),
            ),
        ]
    }
}

fn setup(args: &Args) -> Result<Value, String> {
    let w = args.workload;
    let t0 = Instant::now();
    for &program in w.programs {
        setup_once(program, w.inputs, args.seed)?;
    }
    let setup_s = t0.elapsed().as_secs_f64();
    Ok(Value::Object(vec![(
        "setup_s".to_string(),
        Value::F64(setup_s),
    )]))
}

fn pass(args: &Args) -> Result<Value, String> {
    let w = args.workload;
    let mut check = Check::new();
    let (mut runs, mut wall_s) = (0, 0.0);
    for r in read_reference(args)? {
        let run = if args.seed == LOCATION_SEED {
            class_campaign(&r.program, w.inputs, &args.work)?.run
        } else {
            engine_campaign(&r.program, w.inputs, args.seed, Layers::default())?
        };
        check.records("campaign", &r.program, &r.records, &run.records);
        runs += run.runs;
        wall_s += run.wall_s;
    }
    let mut fields = vec![
        ("runs".to_string(), Value::U64(runs)),
        ("wall_s".to_string(), Value::F64(wall_s)),
    ];
    fields.extend(check.fields());
    Ok(Value::Object(fields))
}

fn traced(args: &Args) -> Result<Value, String> {
    let w = args.workload;
    let reference = read_reference(args)?;
    let mut check = Check::new();
    let epoch = Instant::now();
    let lanes = AtomicU64::new(1);

    let mut around = layers::Around {
        inputs: w.inputs * reference.len(),
        ..layers::Around::default()
    };
    // The traced loop, the default and the one-layer-off campaigns,
    // interleaved round by round so that host noise falls on every
    // configuration alike; each keeps its fastest round. The first
    // round's traced campaigns give the spans and the per-layer metrics.
    let configs = [
        Layers::default(),
        Layers {
            no_blocks: true,
            ..Layers::default()
        },
        Layers {
            no_fork: true,
            ..Layers::default()
        },
        Layers {
            no_prune: true,
            ..Layers::default()
        },
    ];
    let mut programs = Vec::new();
    let mut best_traced = f64::INFINITY;
    let mut best = [f64::INFINITY; 4];
    for round in 0..ABLATION_ROUNDS {
        let mut traced_wall_s = 0.0;
        for r in &reference {
            let p = traced::traced_campaign(&r.program, w.inputs, args.seed, epoch, &lanes)?;
            check.records("traced", &r.program, &r.records, &p.records);
            log(&format!(
                "round {round} traced {}: {} runs in {:.3}s",
                r.program,
                p.samples.len(),
                p.wall_s
            ));
            traced_wall_s += p.wall_s;
            if round == 0 {
                programs.push(p);
            }
        }
        best_traced = best_traced.min(traced_wall_s);
        for (k, layers) in configs.into_iter().enumerate() {
            let mut wall_s = 0.0;
            for (r, p) in reference.iter().zip(&programs) {
                let run = engine_campaign(&r.program, w.inputs, args.seed, layers)?;
                check.records("campaign", &r.program, &r.records, &run.records);
                if k == 0 && round == 0 {
                    // The traced loop must reproduce the untraced pass
                    // item by item, elapsed time aside.
                    check.records("traced vs untraced", &r.program, &run.records, &p.records);
                }
                wall_s += run.wall_s;
            }
            log(&format!("round {round} {layers:?}: {wall_s:.3}s"));
            best[k] = best[k].min(wall_s);
        }
    }
    around.traced_wall_s = best_traced;
    around.untraced_wall_s = best[0];
    around.without_wall_s = [best[1], best[2], best[3]];

    // At the location seed the workload's schedule is the class
    // campaign itself: the engine schedule must reproduce
    // `class_campaign_with` item by item, and the sharded service its
    // records and its report once the volatile lines are stripped.
    let dir = args.work.join("service");
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create `{}`: {e}", dir.display()))?;
    let server = Server::start(&dir)?;
    for r in &reference {
        let direct = class_campaign(&r.program, w.inputs, &args.work)?;
        let mirror = engine_campaign(&r.program, w.inputs, LOCATION_SEED, Layers::default())?;
        check.records(
            "engine schedule vs class_campaign_with",
            &r.program,
            &direct.run.records,
            &mirror.records,
        );
        // Only records are checked; the cost of the benchmark's copy of
        // the driver's loop is shown next to the driver's for the reader.
        log(&format!(
            "{}: class_campaign_with {:.3}s, engine schedule {:.3}s",
            r.program, direct.run.wall_s, mirror.wall_s
        ));
        let run = service::submit(
            &server,
            &dir,
            &r.program,
            w.inputs,
            LOCATION_SEED,
            SERVICE_SHARDS,
        )?;
        check.records(
            "service vs class_campaign_with",
            &r.program,
            &direct.run.records,
            &run.records,
        );
        check.report(
            "service vs class_campaign_with",
            &r.program,
            &direct.report,
            &run.report,
        );
        log(&format!("service {}: {:.3}s", r.program, run.wall_s));
        around.shard_s += run.shard_s;
        around.merge_s += run.merge_s;
        around.replay_s += run.replay_s;
        around.checkpoint_bytes += run.checkpoint_bytes;
    }
    server.shutdown()?;

    let trace_dir = args.trace_dir.as_ref().ok_or("--trace-dir is required")?;
    for (r, p) in reference.iter().zip(programs.iter_mut()) {
        let path = trace_dir.join(format!("{}-{}-{}.trace.json", w.name, args.seed, r.program));
        write_trace(&path, std::mem::take(&mut p.events))?;
        log(&format!("trace: {}", path.display()));
    }
    let metrics = layers::layer_metrics(&programs, &around);

    let mut fields = vec![(
        "metrics".to_string(),
        Value::Object(
            metrics
                .into_iter()
                .map(|(name, v)| (name.to_string(), Value::F64(v)))
                .collect(),
        ),
    )];
    fields.extend(check.fields());
    Ok(Value::Object(fields))
}

/// Progress for the reader of stderr.
fn log(msg: &str) {
    eprintln!("swifi-perfbench: {msg}");
}

/// Write the spans as a Chrome trace and hold it to the schema
/// `swifi trace-validate` enforces.
fn write_trace(path: &Path, events: Vec<swifi_trace::TraceEvent>) -> Result<(), String> {
    let text = swifi_trace::render_events(events);
    swifi_trace::validate_chrome_trace(&text)
        .map_err(|e| format!("trace fails validation: {e}"))?;
    std::fs::write(path, text).map_err(|e| format!("cannot write `{}`: {e}", path.display()))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let result = parse_args(&argv).and_then(|args| {
        std::fs::create_dir_all(&args.work)
            .map_err(|e| format!("cannot create `{}`: {e}", args.work.display()))?;
        match args.step.as_str() {
            "reference" => write_reference(&args),
            "setup" => setup(&args),
            "pass" => pass(&args),
            "traced" => traced(&args),
            other => Err(format!("unknown step `{other}`")),
        }
    });
    match result {
        Ok(v) => {
            println!("{}", serde_json::to_string(&v).expect("result serializes"));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("swifi-perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
