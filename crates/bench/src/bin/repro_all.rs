//! Run every reproduction in order; the output is the source of EXPERIMENTS.md.
//!
//! Each experiment is wall-clock timed under a `repro_experiment` span
//! and a per-figure timing table is appended, so regressions in
//! reproduction cost are visible run-to-run.
//!
//! Flags:
//! * `--jobs <n>` — worker-pool width for every experiment grid
//!   (default: available parallelism / `NETSAMPLE_JOBS`; `1` forces the
//!   serial path). Results are bit-identical at any width.
//! * `--profile-out <file>` — write the aggregated span tree in
//!   collapsed-stack format (one `path;path;leaf self_us` line each),
//!   consumable by `inferno-flamegraph` or speedscope.
use bench::experiments as ex;
use bench::timing::Timings;
use sampling::Target;
use std::path::PathBuf;

struct Flags {
    profile_out: Option<PathBuf>,
    jobs: usize,
}

fn parse_flags() -> Flags {
    let mut flags = Flags {
        profile_out: None,
        jobs: parkit::default_jobs(),
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--profile-out" => match args.next() {
                Some(file) => flags.profile_out = Some(PathBuf::from(file)),
                None => {
                    eprintln!("--profile-out needs a file argument");
                    std::process::exit(64);
                }
            },
            "--jobs" => match args.next().and_then(|n| n.parse::<usize>().ok()) {
                Some(n) if n >= 1 => flags.jobs = n,
                _ => {
                    eprintln!("--jobs needs a positive integer argument");
                    std::process::exit(64);
                }
            },
            other => {
                eprintln!("unknown flag {other}; known: --jobs <n>, --profile-out <file>");
                std::process::exit(64);
            }
        }
    }
    flags
}

fn main() {
    let flags = parse_flags();
    parkit::set_default_jobs(flags.jobs);
    // Any JSONL trace sink installed via env gets flushed even if an
    // experiment panics partway through the run.
    let _flush = obskit::trace::flush_on_drop();
    let root = bench::timing::root_span();
    let t = bench::study_trace();
    println!(
        "# Reproduction run (seed {}, {} packets, {} jobs)\n",
        bench::STUDY_SEED,
        t.len(),
        flags.jobs
    );
    let mut timings = Timings::new();
    let tm = &mut timings;
    let show = |out: String| println!("{out}");
    show(tm.timed("table1", || ex::table1::run(&t)));
    show(tm.timed("figure1", ex::figure1::run));
    show(tm.timed("table2", || ex::table2_3::run_table2(&t)));
    show(tm.timed("table3", || ex::table2_3::run_table3(&t)));
    show(tm.timed("samplesize", || ex::samplesize::run(&t)));
    show(tm.timed("figure3", || ex::figure3::run(&t, Target::PacketSize)));
    show(tm.timed("figure4_5/size", || {
        ex::figure4_5::run(&t, Target::PacketSize)
    }));
    show(tm.timed("figure4_5/ia", || {
        ex::figure4_5::run(&t, Target::Interarrival)
    }));
    show(tm.timed("figure6_7", || ex::figure6_7::run(&t)));
    show(tm.timed("figure8_9/size", || {
        ex::figure8_9::run(&t, Target::PacketSize)
    }));
    show(tm.timed("figure8_9/ia", || {
        ex::figure8_9::run(&t, Target::Interarrival)
    }));
    show(tm.timed("figure10_11/size", || {
        ex::figure10_11::run(&t, Target::PacketSize)
    }));
    show(tm.timed("figure10_11/ia", || {
        ex::figure10_11::run(&t, Target::Interarrival)
    }));
    show(tm.timed("chi2test", || ex::chi2test::run(&t)));
    show(tm.timed("proportions", || ex::proportions::run(&t)));
    show(tm.timed("theory", || ex::theory::run(bench::STUDY_SEED)));
    show(tm.timed("matrix", || ex::matrix::run(&t, 100)));
    show(tm.timed("acf_ablation", || {
        ex::acf_ablation::run(&t, bench::STUDY_SEED)
    }));
    show(tm.timed("robustness", || ex::robustness::run(bench::STUDY_SEED)));
    show(tm.timed("adaptive_ablation", || {
        ex::adaptive_ablation::run(bench::STUDY_SEED)
    }));
    show(tm.timed("correlation", || ex::correlation::run(bench::STUDY_SEED)));
    show(tm.timed("gof_difficulty", || {
        ex::gof_difficulty::run(bench::STUDY_SEED)
    }));
    show(tm.timed("volume", || ex::volume::run(&t)));
    show(tm.timed("bins", || ex::bins::run(&t, bench::STUDY_SEED)));
    show(tm.timed("nullband", || ex::nullband::run(&t, bench::STUDY_SEED)));

    println!("## Timing\n");
    print!("{}", timings.render_table());

    if let Some(path) = &flags.profile_out {
        let folded = obskit::tree::render_folded();
        if let Err(e) = std::fs::write(path, folded) {
            eprintln!("cannot write profile {}: {e}", path.display());
            std::process::exit(74);
        }
        eprintln!("folded-stack profile written: {}", path.display());
    }
    drop(root);
}
