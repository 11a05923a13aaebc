//! Command-line simulator mirroring the paper artifact's flags.
//!
//! The artifact runs Legion applications with `-lg:*` flags (Appendix
//! A.5/A.7); this binary exposes the same knobs against the simulated
//! substrate:
//!
//! ```text
//! cargo run --release -p bench --bin apophenia_sim -- \
//!     --app flexflow --gpus 32 --iters 400 --mode auto \
//!     -lg:auto_trace:min_trace_length 25 \
//!     -lg:auto_trace:max_trace_length 200 \
//!     -lg:auto_trace:batchsize 5000 \
//!     -lg:auto_trace:multi_scale_factor 500 \
//!     -lg:window 30000
//! ```
//!
//! Prints runtime statistics, warmup, and steady-state throughput.

use apophenia::{Config, IdentifierAlgorithm, RepeatsAlgorithm};
use workloads::driver::{run_workload, AppParams, Mode, ProblemSize, Workload};

struct Args {
    app: String,
    gpus: u32,
    iters: usize,
    size: ProblemSize,
    mode: String,
    warmup: usize,
    config: Config,
    window: u32,
}

fn usage() -> ! {
    eprintln!(
        "usage: apophenia_sim --app <jacobi|s3d|htr|cfd|torchswe|flexflow|noisy-loop>\n\
         \x20                [--gpus N] [--iters N] [--size s|m|l]\n\
         \x20                [--mode untraced|manual|auto|distributed] [--warmup N]\n\
         \x20                [-lg:auto_trace:min_trace_length N]\n\
         \x20                [-lg:auto_trace:max_trace_length N]\n\
         \x20                [-lg:auto_trace:batchsize N]\n\
         \x20                [-lg:auto_trace:multi_scale_factor N]\n\
         \x20                [-lg:auto_trace:identifier_algorithm multi-scale|batched]\n\
         \x20                [-lg:auto_trace:repeats_algorithm quick_matching_of_substrings|tandem|lzw]\n\
         \x20                [-lg:window N]"
    );
    std::process::exit(2)
}

fn parse_args() -> Args {
    let mut args = Args {
        app: String::new(),
        gpus: 8,
        iters: 400,
        size: ProblemSize::Small,
        mode: "auto".into(),
        warmup: 300,
        config: Config::standard(),
        window: 30_000,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    let next = |i: &mut usize| -> String {
        *i += 1;
        argv.get(*i).cloned().unwrap_or_else(|| usage())
    };
    while i < argv.len() {
        match argv[i].as_str() {
            "--app" => args.app = next(&mut i),
            "--gpus" => args.gpus = next(&mut i).parse().unwrap_or_else(|_| usage()),
            "--iters" => args.iters = next(&mut i).parse().unwrap_or_else(|_| usage()),
            "--warmup" => args.warmup = next(&mut i).parse().unwrap_or_else(|_| usage()),
            "--size" => {
                args.size = match next(&mut i).as_str() {
                    "s" => ProblemSize::Small,
                    "m" => ProblemSize::Medium,
                    "l" => ProblemSize::Large,
                    _ => usage(),
                }
            }
            "--mode" => args.mode = next(&mut i),
            "-lg:auto_trace:min_trace_length" => {
                args.config.min_trace_length = next(&mut i).parse().unwrap_or_else(|_| usage())
            }
            "-lg:auto_trace:max_trace_length" => {
                args.config.max_trace_length =
                    Some(next(&mut i).parse().unwrap_or_else(|_| usage()))
            }
            "-lg:auto_trace:batchsize" => {
                args.config.batch_size = next(&mut i).parse().unwrap_or_else(|_| usage())
            }
            "-lg:auto_trace:multi_scale_factor" => {
                args.config.multi_scale_factor = next(&mut i).parse().unwrap_or_else(|_| usage())
            }
            "-lg:auto_trace:identifier_algorithm" => {
                args.config.identifier = match next(&mut i).as_str() {
                    "multi-scale" => IdentifierAlgorithm::MultiScale,
                    "batched" => IdentifierAlgorithm::FixedBatch,
                    _ => usage(),
                }
            }
            "-lg:auto_trace:repeats_algorithm" => {
                args.config.repeats = match next(&mut i).as_str() {
                    "quick_matching_of_substrings" => RepeatsAlgorithm::QuickMatching,
                    "tandem" => RepeatsAlgorithm::TandemRepeats,
                    "lzw" => RepeatsAlgorithm::Lzw,
                    _ => usage(),
                }
            }
            "-lg:window" => args.window = next(&mut i).parse().unwrap_or_else(|_| usage()),
            "-lg:enable_automatic_tracing" => args.mode = "auto".into(),
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown flag: {other}");
                usage()
            }
        }
        i += 1;
    }
    if args.app.is_empty() {
        usage();
    }
    args
}

fn main() {
    let args = parse_args();
    let noisy = workloads::synthetic::NoisyLoop::default();
    let (workload, perlmutter): (&dyn Workload, bool) = match args.app.as_str() {
        "jacobi" => (&workloads::Jacobi, false),
        "s3d" => (&workloads::S3d, true),
        "htr" => (&workloads::Htr, true),
        "cfd" => (&workloads::Cfd, false),
        "torchswe" => (&workloads::TorchSwe, false),
        "flexflow" => (&workloads::FlexFlow, false),
        "noisy-loop" => (&noisy, false),
        _ => usage(),
    };
    let mut params = if perlmutter {
        AppParams::perlmutter(args.gpus.max(4), args.size, args.iters)
    } else {
        AppParams::eos(args.gpus, args.size, args.iters)
    };
    params.iters = args.iters;

    let mode = match args.mode.as_str() {
        "untraced" => Mode::Untraced,
        "manual" => Mode::Manual,
        "auto" => Mode::Auto(args.config.clone()),
        // Control-replicated deployment (§5.1): one engine per node, a
        // skewed mining-latency model, and the agreement protocol keeping
        // nodes in lock-step.
        "distributed" => Mode::Distributed(
            args.config.clone().with_agreed_ingest(16, apophenia::DelayModel::new(2024, 50)),
        ),
        _ => usage(),
    };

    println!(
        "app={} gpus={} nodes={} size={} iters={} mode={}",
        workload.name(),
        params.total_gpus(),
        params.nodes,
        params.size.suffix(),
        params.iters,
        mode.label()
    );

    let out = run_workload(workload, &params, &mode).expect("run failed");
    let report = &out.report;
    println!("stats: {}", out.stats);
    if let Some(w) = out.warmup_iterations {
        println!("warmup iterations: {w}");
    }
    println!(
        "steady-state throughput: {:.3} iterations/s (warmup {} skipped)",
        report.steady_throughput(args.warmup.min(params.iters.saturating_sub(1))),
        args.warmup
    );
    println!(
        "analysis busy: {} | execution busy: {} | exec stalled on analysis: {} ({:.1}%)",
        report.analysis_busy,
        report.exec_busy,
        report.exec_stall,
        report.stall_fraction() * 100.0
    );
}
