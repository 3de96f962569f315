//! Run every reproduction in order; the output is the source of EXPERIMENTS.md.
//!
//! Each experiment is wall-clock timed under a `repro_experiment` span
//! and a per-figure timing table is appended, so regressions in
//! reproduction cost are visible run-to-run.
//!
//! Flags:
//! * `--only <name>[,<name>…]` — run only the named experiments, by the
//!   names the timing table prints (`figure8_9/ia`); a name before the
//!   `/` selects every target (`figure8_9`). An unknown name exits 64
//!   and lists the valid ones.
//! * `--jobs <n>` — worker-pool width for every experiment grid
//!   (default: available parallelism / `NETSAMPLE_JOBS`; `1` forces the
//!   serial path). Results are bit-identical at any width.
//! * `--profile-out <file>` — write the aggregated span tree in
//!   collapsed-stack format (one `path;path;leaf self_us` line each),
//!   consumable by `inferno-flamegraph` or speedscope.
use bench::experiments as ex;
use bench::timing::Timings;
use nettrace::Trace;
use sampling::Target;
use std::path::PathBuf;

/// One reproduction: its timing-table name and how to run it on the
/// study trace.
type Experiment = (&'static str, fn(&Trace) -> String);

/// Every reproduction, in EXPERIMENTS.md order.
const EXPERIMENTS: &[Experiment] = &[
    ("table1", ex::table1::run),
    ("figure1", |_| ex::figure1::run()),
    ("table2", ex::table2_3::run_table2),
    ("table3", ex::table2_3::run_table3),
    ("samplesize", ex::samplesize::run),
    ("figure3", |t| ex::figure3::run(t, Target::PacketSize)),
    ("figure4_5/size", |t| {
        ex::figure4_5::run(t, Target::PacketSize)
    }),
    ("figure4_5/ia", |t| {
        ex::figure4_5::run(t, Target::Interarrival)
    }),
    ("figure6_7", ex::figure6_7::run),
    ("figure8_9/size", |t| {
        ex::figure8_9::run(t, Target::PacketSize)
    }),
    ("figure8_9/ia", |t| {
        ex::figure8_9::run(t, Target::Interarrival)
    }),
    ("figure10_11/size", |t| {
        ex::figure10_11::run(t, Target::PacketSize)
    }),
    ("figure10_11/ia", |t| {
        ex::figure10_11::run(t, Target::Interarrival)
    }),
    ("chi2test", ex::chi2test::run),
    ("proportions", ex::proportions::run),
    ("theory", |_| ex::theory::run(bench::STUDY_SEED)),
    ("matrix", |t| ex::matrix::run(t, 100)),
    ("acf_ablation", |t| {
        ex::acf_ablation::run(t, bench::STUDY_SEED)
    }),
    ("robustness", |_| ex::robustness::run(bench::STUDY_SEED)),
    ("adaptive_ablation", |_| {
        ex::adaptive_ablation::run(bench::STUDY_SEED)
    }),
    ("correlation", |_| ex::correlation::run(bench::STUDY_SEED)),
    ("gof_difficulty", |_| {
        ex::gof_difficulty::run(bench::STUDY_SEED)
    }),
    ("volume", ex::volume::run),
    ("bins", |t| ex::bins::run(t, bench::STUDY_SEED)),
    ("nullband", |t| ex::nullband::run(t, bench::STUDY_SEED)),
];

struct Flags {
    profile_out: Option<PathBuf>,
    jobs: usize,
    only: Vec<&'static Experiment>,
}

/// The experiments a comma-separated `--only` list names: each name is
/// a full timing-table name or the part before its `/`.
fn select(list: &str) -> Result<Vec<&'static Experiment>, String> {
    let names: Vec<&str> = list.split(',').collect();
    for name in &names {
        if !EXPERIMENTS.iter().any(|(e, _)| matches(e, name)) {
            let valid: Vec<&str> = EXPERIMENTS.iter().map(|(e, _)| *e).collect();
            return Err(format!(
                "unknown experiment '{name}'; valid: {}",
                valid.join(", ")
            ));
        }
    }
    Ok(EXPERIMENTS
        .iter()
        .filter(|(e, _)| names.iter().any(|n| matches(e, n)))
        .collect())
}

fn matches(experiment: &str, name: &str) -> bool {
    experiment == name || experiment.split('/').next() == Some(name)
}

fn usage_exit(msg: &str) -> ! {
    eprintln!("{msg}");
    std::process::exit(64);
}

fn parse_flags() -> Flags {
    let mut flags = Flags {
        profile_out: None,
        jobs: parkit::default_jobs(),
        only: EXPERIMENTS.iter().collect(),
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--profile-out" => match args.next() {
                Some(file) => flags.profile_out = Some(PathBuf::from(file)),
                None => usage_exit("--profile-out needs a file argument"),
            },
            "--jobs" => match args.next().and_then(|n| n.parse::<usize>().ok()) {
                Some(n) if n >= 1 => flags.jobs = n,
                _ => usage_exit("--jobs needs a positive integer argument"),
            },
            "--only" => match args.next().map(|list| select(&list)) {
                Some(Ok(only)) => flags.only = only,
                Some(Err(msg)) => usage_exit(&msg),
                None => usage_exit("--only needs a comma-separated list of experiments"),
            },
            other => usage_exit(&format!(
                "unknown flag {other}; known: --only <name>[,<name>...], --jobs <n>, \
                 --profile-out <file>"
            )),
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
    for (name, run) in flags.only {
        println!("{}", timings.timed(name, || run(&t)));
    }

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

#[cfg(test)]
mod tests {
    use super::*;

    fn names(list: &str) -> Result<Vec<&'static str>, String> {
        select(list).map(|v| v.iter().map(|(n, _)| *n).collect())
    }

    #[test]
    fn only_selects_by_name_or_by_figure_prefix() {
        assert_eq!(names("figure8_9/ia"), Ok(vec!["figure8_9/ia"]));
        assert_eq!(
            names("figure8_9"),
            Ok(vec!["figure8_9/size", "figure8_9/ia"])
        );
        // Selection keeps run order, whatever the list order.
        assert_eq!(names("theory,table1"), Ok(vec!["table1", "theory"]));
    }

    #[test]
    fn unknown_names_are_refused_with_the_valid_list() {
        for bad in ["figure9", "figure8", "", "table1,nope"] {
            let msg = names(bad).unwrap_err();
            assert!(
                msg.contains("figure8_9/ia") && msg.contains("nullband"),
                "{msg}"
            );
        }
    }
}
