//! End-to-end and per-layer benchmark of the SMX alignment service.
//!
//! ```text
//! perfbench --workload <serve-short|batch-long> --seed <n> \
//!           --seconds <s> --trace <0|1>
//! ```
//!
//! Every run generates its inputs from `--seed`, checks every output
//! against the golden DP (a mismatch exits 1), prints each metric with
//! its unit and sample count, and ends with one JSON result line: the
//! end-to-end metrics untraced (`--trace 0`), the per-layer metrics
//! traced (`--trace 1`). The traced run also writes its spans to
//! `.bench_work/spans-<workload>-<seed>.tsv`.

mod batch;
mod layers;
mod report;
mod serve;
mod stats;
mod sys;
mod trace;

use std::path::PathBuf;

use trace::Tracer;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        let at = argv.iter().position(|a| a == flag).ok_or(format!("missing {flag}"))?;
        argv.get(at + 1).map(String::as_str).ok_or(format!("{flag} needs a value"))
    };
    let seconds: f64 = value("--seconds")?.parse().map_err(|_| "bad --seconds")?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds {seconds} outside (0, 600]"));
    }
    Ok(Args {
        workload: value("--workload")?.to_string(),
        seed: value("--seed")?.parse().map_err(|_| "bad --seed")?,
        seconds,
        trace: match value("--trace")? {
            "0" => false,
            "1" => true,
            t => return Err(format!("--trace {t} must be 0 or 1")),
        },
    })
}

fn run() -> Result<bool, String> {
    let args = parse_args()?;
    let work = PathBuf::from(".bench_work");
    let scratch = work.join(format!("{}-{}", args.workload, std::process::id()));
    std::fs::create_dir_all(&scratch).map_err(|e| format!("{}: {e}", scratch.display()))?;
    let len = if args.workload == "serve-short" { 64 } else { 1500 };
    let meta = sys::meta_line(&args.workload, args.seed, args.trace, len);
    println!("{meta}");
    let mut tracer = args.trace.then(Tracer::new);
    let (steal0, wall0) = (sys::steal_seconds(), std::time::Instant::now());
    let report = match args.workload.as_str() {
        "serve-short" => serve::run(args.seed, args.seconds, &scratch, tracer.as_mut()),
        "batch-long" => batch::run(args.seed, args.seconds, tracer.as_mut()),
        w => Err(format!("unknown workload {w:?} (serve-short, batch-long)")),
    };
    let _ = std::fs::remove_dir_all(&scratch);
    println!(
        "# host: {:.2} s of CPU stolen by other guests in {:.1} s",
        sys::steal_seconds() - steal0,
        wall0.elapsed().as_secs_f64()
    );
    let mut report = report?;
    report.set("peak_rss_mib", sys::peak_rss_mib()?, "MiB", 1);
    if let Some(tr) = &tracer {
        for (name, (n, total, own)) in tr.self_times() {
            println!("# span {name}: n={n} total_us={total:.1} self_us={own:.1}");
        }
        let path = work.join(format!("spans-{}-{}.tsv", args.workload, args.seed));
        tr.write(&path, &meta)?;
        println!("# spans written to {}", path.display());
    }
    report.finish(args.trace)
}

fn main() {
    std::process::exit(match run() {
        Ok(true) => 0,
        Ok(false) => 1,
        Err(e) => {
            eprintln!("perfbench: {e}");
            2
        }
    });
}
