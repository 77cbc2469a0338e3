//! The repository benchmark. `run.py` builds this binary and calls
//!
//! ```text
//! perfbench run --workload <name> --seed <n> --seconds <s> --trace <0|1> --out <dir>
//! ```
//!
//! which prints the full result (provenance, timing details, gates) and
//! then, as its last line, the summary the benchmark contract asks for.
//! `perfbench setup ...` runs one workload's set-up alone and prints its
//! wall time; `run` takes its set-up samples from such child processes,
//! since the process-wide waveform assets are only built once per process.
//! See `README.md` for the workloads and metrics.

mod batch;
mod probe;
mod results;
mod schedule;
mod serve;
mod stats;
mod trace;

use probe::LayerCounts;
use results::Json;
use stats::{median, Timing};
use std::path::{Path, PathBuf};
use std::process::Command;
use trace::{self_times_ns, Tracer};
use uw_eval::CellReport;
use uw_serve::wire::JobSpec;

/// Set-up samples taken in child processes, besides the run's own.
const SETUP_CHILDREN: usize = 4;

/// The workloads, by name.
const WORKLOADS: [&str; 4] = ["hybrid-live", "replay-q15", "occluded-solve", "serve-fleet"];

/// Tail percentiles of (round, job) latency per workload: the highest
/// ladder percentile with at least twenty samples beyond it, twice the
/// ten the rule asks, at the sample counts a 30 s run gives on a 2-vCPU
/// host. serve-fleet's sit lower: its open-loop tail rides on queueing
/// bursts that a slow spell of the host inflates, and at p98 (jobs) and
/// p99 (rounds) its spread between runs came near the bound. Fixing the
/// percentiles keeps tails comparable between runs and commits; a run with
/// too few samples falls back to the ten-beyond rule and says so in its
/// `timings`.
fn tail_percentiles(workload: &str) -> (f64, f64) {
    match workload {
        "hybrid-live" => (99.0, 95.0),
        "replay-q15" => (98.0, 90.0),
        "occluded-solve" => (95.0, 80.0),
        _ => (97.5, 95.0),
    }
}

/// One correctness check.
#[derive(Debug, Clone)]
pub struct Gate {
    name: String,
    ok: bool,
    detail: String,
}

impl Gate {
    /// A named check and what it saw.
    pub fn new(name: &str, ok: bool, detail: String) -> Self {
        Self {
            name: name.to_string(),
            ok,
            detail,
        }
    }
}

/// Everything a workload run measured.
#[derive(Debug, Default)]
pub struct RunStats {
    /// This process's own set-up (s).
    pub setup_s: f64,
    /// Round latencies of the untraced phase (ms).
    pub round_ms: Vec<f64>,
    /// Job latencies of the untraced phase (ms).
    pub job_ms: Vec<f64>,
    /// When each round counted in the throughput completed, seconds into
    /// the throughput window.
    pub round_done_s: Vec<f64>,
    /// The same for jobs.
    pub job_done_s: Vec<f64>,
    /// Length of the throughput window (s).
    pub rate_wall_s: f64,
    /// Per-cell median 2D error of the fixed accuracy cells (m).
    pub cell_loc_err: Vec<f64>,
    /// Per-cell median ranging error of the same cells (m).
    pub cell_ranging_err: Vec<f64>,
    /// Rounds (round workloads) or jobs (serve-fleet) attempted.
    pub attempted: usize,
    /// Of which failed: an error, a lost job or output that is wrong.
    pub failed: usize,
    /// Rounds that ended without a fix, for the channel's reasons.
    pub no_fix: usize,
    /// Correctness checks.
    pub gates: Vec<Gate>,
    /// Traced-phase round latencies (ms).
    pub traced_round_ms: Vec<f64>,
    /// Traced-pass live job latencies (ms).
    pub traced_job_ms: Vec<f64>,
    /// Probe counts.
    pub counts: Option<LayerCounts>,
    /// Import-layer figures.
    pub audio: Option<batch::AudioFigures>,
    /// Serving-layer figures.
    pub serve: Option<serve::ServeFigures>,
    /// Compute time of the jobs the serve probe re-ran (ms).
    pub probed_compute_ms: Vec<f64>,
    /// Jobs whose wire frames the traced run encodes and decodes.
    pub wire_jobs: Vec<(JobSpec, CellReport)>,
}

struct Args {
    mode: String,
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: PathBuf,
    input: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let mode = it
        .next()
        .ok_or("usage: perfbench <run|setup> --workload <name> ...")?;
    let mut args = Args {
        mode,
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        out: PathBuf::from(".bench_out"),
        input: None,
    };
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => args.trace = value == "1",
            "--out" => args.out = PathBuf::from(value),
            "--input" => args.input = Some(PathBuf::from(value)),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "unknown workload {:?}; one of {WORKLOADS:?}",
            args.workload
        ));
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

fn kind(workload: &str) -> Option<batch::Kind> {
    match workload {
        "hybrid-live" => Some(batch::Kind::HybridLive),
        "replay-q15" => Some(batch::Kind::ReplayQ15),
        "occluded-solve" => Some(batch::Kind::OccludedSolve),
        _ => None,
    }
}

fn input_path(args: &Args) -> PathBuf {
    args.out
        .join("inputs")
        .join(format!("{}-s{}.wav", args.workload, args.seed))
}

/// `perfbench setup`: one set-up, its wall time on stdout.
fn setup_mode(args: &Args) -> f64 {
    match kind(&args.workload) {
        Some(k @ batch::Kind::ReplayQ15) => {
            let path = args
                .input
                .as_ref()
                .expect("--input names the rendered campaign");
            let input = batch::ReplayInput {
                scenario_seed: batch::CAMPAIGN_SCENARIO_SEED,
                wav: std::fs::read(path).expect("read rendered campaign"),
                skew_ppm: Vec::new(),
            };
            batch::setup_only(k, args.seed, Some(&input))
        }
        Some(k) => batch::setup_only(k, args.seed, None),
        None => serve::setup_only(args.seed, args.seconds),
    }
}

/// Set-up samples from child processes of this executable.
fn child_setups(args: &Args) -> Vec<f64> {
    let exe = std::env::current_exe().expect("own executable path");
    (0..SETUP_CHILDREN)
        .map(|_| {
            let mut cmd = Command::new(&exe);
            cmd.arg("setup")
                .args(["--workload", &args.workload])
                .args(["--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()]);
            if let Some(input) = &args.input {
                cmd.arg("--input").arg(input);
            }
            let out = cmd.output().expect("spawn set-up child");
            assert!(
                out.status.success(),
                "set-up child failed: {}",
                String::from_utf8_lossy(&out.stderr)
            );
            String::from_utf8_lossy(&out.stdout)
                .trim()
                .parse::<f64>()
                .expect("set-up child prints its wall time")
        })
        .collect()
}

fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

fn env_or(name: &str, default: &str) -> String {
    std::env::var(name).unwrap_or_else(|_| default.to_string())
}

fn provenance(args: &Args, offered: &str) -> Json {
    Json::obj()
        .with(
            "nproc",
            std::thread::available_parallelism().map_or(0, |n| n.get()),
        )
        .with("cpu_model", cpu_model())
        .with("rustc", env_or("PERFBENCH_RUSTC", "unknown"))
        .with("git_commit", env_or("PERFBENCH_COMMIT", "unknown"))
        .with(
            "source_sha256",
            env_or("PERFBENCH_SOURCE_SHA256", "unknown"),
        )
        .with("workload", args.workload.as_str())
        .with("seed", args.seed)
        .with("run_seconds", args.seconds)
        .with("trace", args.trace)
        .with("offered_rate", offered)
}

fn metric(value: f64, unit: &str) -> Json {
    Json::obj().with("value", value).with("unit", unit)
}

fn timing_json(t: &Timing) -> Json {
    Json::obj()
        .with("p50", t.p50)
        .with("tail", t.tail)
        .with("tail_percentile", t.tail_pct)
        .with("beyond_tail", t.beyond)
        .with("samples", t.n)
}

/// Slices the throughput window into this many equal parts.
const RATE_WINDOWS: usize = 5;

/// Completions per second: the median over [`RATE_WINDOWS`] equal slices
/// of the window, so one stall of the host moves one slice, not the rate.
fn per_s(done_s: &[f64], wall_s: f64) -> f64 {
    let width = wall_s / RATE_WINDOWS as f64;
    let rates: Vec<f64> = (0..RATE_WINDOWS)
        .map(|w| {
            let (lo, hi) = (w as f64 * width, (w + 1) as f64 * width);
            let last = w + 1 == RATE_WINDOWS;
            done_s
                .iter()
                .filter(|&&t| t >= lo && (t < hi || last))
                .count() as f64
                / width.max(1e-9)
        })
        .collect();
    median(&rates)
}

/// The end-to-end metrics of an untraced run.
fn end_to_end(stats: &RunStats, setup_s: f64, rounds: &Timing, jobs: &Timing) -> Json {
    Json::obj()
        .with("setup_s", metric(setup_s, "s"))
        .with("round_ms_p50", metric(rounds.p50, "ms"))
        .with("round_ms_tail", metric(rounds.tail, "ms"))
        .with(
            "rounds_per_s",
            metric(per_s(&stats.round_done_s, stats.rate_wall_s), "1/s"),
        )
        .with("job_ms_p50", metric(jobs.p50, "ms"))
        .with("job_ms_tail", metric(jobs.tail, "ms"))
        .with(
            "capacity_jobs_per_s",
            metric(per_s(&stats.job_done_s, stats.rate_wall_s), "1/s"),
        )
        .with("loc_err_m_p50", metric(median(&stats.cell_loc_err), "m"))
        .with(
            "ranging_err_m_p50",
            metric(median(&stats.cell_ranging_err), "m"),
        )
        .with("peak_rss_mb", metric(peak_rss_mb(), "MB"))
}

fn p50(tracer: &Tracer, name: &str) -> f64 {
    median(&tracer.durations_ms(name))
}

fn ratio(a: usize, b: usize) -> f64 {
    a as f64 / b.max(1) as f64
}

/// Share of the traced rounds' (or probed jobs') wall time that the
/// layer spans account for. Links a hybrid round synthesizes run in
/// parallel, so their sequential probe time is divided by the fan-out
/// width; replayed links run sequentially inside the round; statistical
/// rounds synthesize nothing.
fn coverage(workload: &str, tracer: &Tracer, stats: &RunStats) -> f64 {
    let selfs = self_times_ns(tracer.spans());
    let total = |name: &str| -> f64 {
        tracer
            .spans()
            .iter()
            .zip(&selfs)
            .filter(|(s, _)| s.name == name)
            .map(|(_, &ns)| ns as f64 / 1e6)
            .sum()
    };
    let protocol = total("uw-protocol.run_round");
    let solve = total("uw-localization.solve");
    let links = stats.counts.as_ref().map_or(0, |c| c.links);
    let rounds = stats.counts.as_ref().map_or(0, |c| c.rounds);
    let link_ms = match workload {
        "hybrid-live" => {
            let width = (links as f64 / rounds.max(1) as f64)
                .min(std::thread::available_parallelism().map_or(1, |n| n.get()) as f64)
                .max(1.0);
            (total("uw-channel.synth") + total("uw-ranging.estimate")) / width
        }
        "replay-q15" => total("uw-ranging.estimate"),
        _ => 0.0,
    };
    let covered = protocol + solve + link_ms;
    if workload == "serve-fleet" {
        // A served job's rounds run on a shard; the probed jobs' compute
        // time (Started to Finalized) is what their layer spans cover.
        let compute: f64 = stats.probed_compute_ms.iter().sum();
        return (covered + total("uw-eval.cell_new")) / compute.max(1e-9);
    }
    let round_wall: f64 = tracer.durations_ms("round").iter().sum();
    covered / round_wall.max(1e-9)
}

/// The per-layer metrics of a traced run, the serving-only ones, and the
/// percentile and sample count behind each per-layer tail.
fn per_layer(workload: &str, tracer: &mut Tracer, stats: &RunStats) -> (Json, Json, Json) {
    let c = stats.counts.clone().unwrap_or_default();
    let solve = Timing::from_samples(&tracer.durations_ms("uw-localization.solve"));
    let audio = stats.audio.clone().unwrap_or_default();
    let (frames_per_job, bytes_per_job) = serve::wire_probe(tracer, &stats.wire_jobs);
    let (plain, traced) = if workload == "serve-fleet" {
        (&stats.job_ms, &stats.traced_job_ms)
    } else {
        (&stats.round_ms, &stats.traced_round_ms)
    };
    let overhead = median(traced) / median(plain) - 1.0;
    let in_round_links = if workload == "hybrid-live" {
        c.links
    } else {
        0
    };
    let m = Json::obj()
        .with(
            "uw-channel.synth_ms_p50",
            metric(p50(tracer, "uw-channel.synth"), "ms"),
        )
        .with("uw-channel.links", metric(in_round_links as f64, "count"))
        .with(
            "uw-ranging.estimate_ms_p50",
            metric(p50(tracer, "uw-ranging.estimate"), "ms"),
        )
        .with(
            "uw-dsp.correlate_ms_p50",
            metric(p50(tracer, "uw-dsp.correlate"), "ms"),
        )
        .with(
            "uw-ranging.validate_ms_p50",
            metric(p50(tracer, "uw-ranging.validate"), "ms"),
        )
        .with(
            "uw-ranging.ls_ms_p50",
            metric(p50(tracer, "uw-ranging.ls"), "ms"),
        )
        .with(
            "uw-ranging.los_ms_p50",
            metric(p50(tracer, "uw-ranging.los"), "ms"),
        )
        .with(
            "uw-ranging.candidates_per_link",
            metric(ratio(c.candidates, c.links), "count"),
        )
        .with(
            "uw-ranging.validated_frac",
            metric(ratio(c.validated, c.candidates), "ratio"),
        )
        .with(
            "uw-ranging.link_fail_frac",
            metric(ratio(c.link_failures, c.links), "ratio"),
        )
        .with(
            "uw-protocol.round_ms_p50",
            metric(p50(tracer, "uw-protocol.run_round"), "ms"),
        )
        .with("uw-localization.solve_ms_p50", metric(solve.p50, "ms"))
        .with("uw-localization.solve_ms_tail", metric(solve.tail, "ms"))
        .with(
            "uw-localization.validation_frac",
            metric(ratio(c.validation_rounds, c.rounds), "ratio"),
        )
        .with(
            "uw-localization.hypotheses_per_round",
            metric(ratio(c.hypotheses, c.rounds), "count"),
        )
        .with(
            "uw-localization.smacof_iters_p50",
            metric(median(&c.smacof_iters), "count"),
        )
        .with(
            "uw-localization.dropped_per_round",
            metric(ratio(c.dropped, c.rounds), "count"),
        )
        .with(
            "uw-audio.scan_msamples_per_s",
            metric(audio.scan_msamples_per_s, "Msamples/s"),
        )
        .with("uw-eval.load_ms", metric(audio.load_ms, "ms"))
        .with(
            "uw-audio.bursts_matched_frac",
            metric(audio.bursts_matched_frac, "ratio"),
        )
        .with(
            "uw-audio.skew_err_ppm_max",
            metric(audio.skew_err_ppm_max, "ppm"),
        )
        .with("uw-audio.wav_mb", metric(audio.wav_mb, "MB"))
        .with(
            "uw-eval.cell_new_ms_p50",
            metric(p50(tracer, "uw-eval.cell_new"), "ms"),
        )
        .with(
            "uw-serve.encode_us_p50",
            metric(p50(tracer, "uw-serve.encode") * 1e3, "us"),
        )
        .with(
            "uw-serve.decode_us_p50",
            metric(p50(tracer, "uw-serve.decode") * 1e3, "us"),
        )
        .with("uw-serve.frames_per_job", metric(frames_per_job, "count"))
        .with("uw-serve.bytes_per_job", metric(bytes_per_job, "bytes"))
        .with("trace.overhead_frac", metric(overhead, "ratio"))
        .with(
            "trace.coverage_frac",
            metric(coverage(workload, tracer, stats), "ratio"),
        );
    // Figures only the serving workload has.
    let mut only = Json::obj();
    let mut timings = Json::obj().with("uw-localization.solve_ms", timing_json(&solve));
    if let Some(fig) = &stats.serve {
        let wait = Timing::from_samples(&fig.queue_wait_ms);
        let late = Timing::from_samples(&fig.late_ms);
        timings = timings
            .with("uw-serve.queue_wait_ms", timing_json(&wait))
            .with("gen.late_ms", timing_json(&late));
        only = only
            .with("uw-serve.queue_wait_ms_p50", metric(wait.p50, "ms"))
            .with("uw-serve.queue_wait_ms_tail", metric(wait.tail, "ms"))
            .with(
                "uw-serve.compute_ms_p50",
                metric(median(&fig.compute_ms), "ms"),
            )
            .with(
                "uw-serve.replay_job_ms_p50",
                metric(median(&fig.replay_job_ms), "ms"),
            )
            .with("uw-serve.stolen", metric(fig.stolen as f64, "count"))
            .with(
                "uw-serve.shard_jobs_max_over_min",
                metric(fig.shard_jobs_max_over_min, "ratio"),
            )
            .with("gen.late_ms_tail", metric(late.tail, "ms"));
    }
    (m, only, timings)
}

fn run_mode(mut args: Args) -> i32 {
    std::fs::create_dir_all(args.out.join("inputs")).expect("create output directory");
    let mut tracer = Tracer::new();
    let replay_input = if kind(&args.workload) == Some(batch::Kind::ReplayQ15) {
        let input = batch::replay_input(args.seed);
        let path = input_path(&args);
        std::fs::write(&path, &input.wav).expect("write rendered campaign");
        args.input = Some(path);
        Some(input)
    } else {
        None
    };
    let mut setups = child_setups(&args);
    let (stats, offered) = match kind(&args.workload) {
        Some(k) => (
            batch::run(
                k,
                args.seed,
                args.seconds,
                args.trace,
                replay_input.as_ref(),
                &mut tracer,
            ),
            "closed loop, one cell at a time".to_string(),
        ),
        None => (
            serve::run(args.seed, args.seconds, args.trace, &mut tracer),
            format!(
                "open loop {} jobs/s (Poisson), then closed loop",
                serve::OFFERED_JOBS_PER_S
            ),
        ),
    };
    if let Some(input) = &args.input {
        let _ = std::fs::remove_file(input);
    }
    setups.push(stats.setup_s);
    let setup_s = median(&setups);
    let (round_pct, job_pct) = tail_percentiles(&args.workload);
    let rounds = Timing::at(&stats.round_ms, round_pct);
    let jobs = Timing::at(&stats.job_ms, job_pct);
    let e2e = end_to_end(&stats, setup_s, &rounds, &jobs);

    let mut gates = stats.gates.clone();
    let (metrics, detail) = if args.trace {
        let (layers, only, layer_timings) = per_layer(&args.workload, &mut tracer, &stats);
        let spans = args
            .out
            .join(format!("spans-{}-s{}.jsonl", args.workload, args.seed));
        std::fs::write(&spans, tracer.to_jsonl()).expect("write spans");
        // Where the round tail sits against the solver's two cost modes:
        // it straddles them when the share of rounds beyond it is within
        // a factor of two of the share on the validation path.
        let c = stats.counts.clone().unwrap_or_default();
        let vf = ratio(c.validation_rounds, c.rounds);
        let share = (100.0 - round_pct) / 100.0;
        let straddles = vf > 0.0 && share > vf / 2.0 && share < 2.0 * vf;
        let detail = Json::obj()
            .with(
                "tail_mode",
                Json::obj()
                    .with("validation_frac", vf)
                    .with("round_tail_percentile", round_pct)
                    .with("straddles", straddles),
            )
            .with("workload_only", only)
            .with("layer_timings", layer_timings)
            .with("spans_file", spans.display().to_string())
            .with("spans", tracer.spans().len());
        (layers, detail)
    } else {
        (e2e.clone(), Json::obj())
    };

    let failed_frac = ratio(stats.failed + stats.no_fix, stats.attempted);
    let full = Json::obj()
        .with("provenance", provenance(&args, &offered))
        .with("metrics", metrics.clone())
        .with("end_to_end", e2e)
        .with(
            "timings",
            Json::obj()
                .with("round_ms", timing_json(&rounds))
                .with("job_ms", timing_json(&jobs))
                .with(
                    "setup_s_samples",
                    setups.iter().map(|&s| Json::Num(s)).collect::<Vec<_>>(),
                ),
        )
        .with("failed_frac", failed_frac)
        .with("attempted", stats.attempted)
        .with("failed", stats.failed)
        .with("no_fix_rounds", stats.no_fix)
        .with("detail", detail);
    let result_path = args.out.join(format!(
        "result-{}-s{}-t{}.json",
        args.workload,
        args.seed,
        u8::from(args.trace)
    ));
    let gates_json = |gates: &[Gate]| -> Json {
        Json::Arr(
            gates
                .iter()
                .map(|g| {
                    Json::obj()
                        .with("name", g.name.as_str())
                        .with("ok", g.ok)
                        .with("detail", g.detail.as_str())
                })
                .collect(),
        )
    };
    let written = full.clone().with("gates", gates_json(&gates));
    gates.push(write_and_check(&result_path, &written));
    let correct = gates.iter().all(|g| g.ok);
    println!(
        "{}",
        full.with("gates", gates_json(&gates)).to_string_compact()
    );
    for g in gates.iter().filter(|g| !g.ok) {
        eprintln!("perfbench: gate {} failed: {}", g.name, g.detail);
    }
    let summary = Json::obj()
        .with("correct", correct)
        .with("attempted", stats.attempted.max(1))
        .with("failed", stats.failed)
        .with("metrics", metrics);
    println!("{}", summary.to_string_compact());
    if correct {
        0
    } else {
        1
    }
}

/// Writes the results file, reads it back and checks it parses to the
/// same document.
fn write_and_check(path: &Path, doc: &Json) -> Gate {
    let text = doc.to_string_compact();
    let ok = std::fs::write(path, &text).is_ok()
        && std::fs::read_to_string(path)
            .ok()
            .and_then(|t| Json::parse(&t).ok())
            .is_some_and(|back| back.to_string_compact() == text);
    Gate::new("results.round_trip", ok, path.display().to_string())
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    match args.mode.as_str() {
        "setup" => println!("{:?}", setup_mode(&args)),
        "run" => std::process::exit(run_mode(args)),
        other => {
            eprintln!("perfbench: unknown mode {other:?}");
            std::process::exit(2);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn windowed_rate_is_the_median_slice() {
        // 10 completions per second for 5 s, except one stalled second.
        let mut done: Vec<f64> = (0..50).map(|i| i as f64 / 10.0).collect();
        done.retain(|&t| !(2.0..3.0).contains(&t));
        assert_eq!(per_s(&done, 5.0), 10.0);
        assert_eq!(per_s(&[], 5.0), 0.0);
        // A completion exactly at the window's end lands in the last slice.
        assert_eq!(per_s(&[0.5, 1.5, 2.5, 3.5, 5.0], 5.0), 1.0);
    }
}
