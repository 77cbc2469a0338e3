//! Round workloads: hybrid-live, occluded-solve and replay-q15. Each
//! steps cells through `CellExecution::step` from this one thread.

use crate::probe::{LayerCounts, Probe};
use crate::schedule::{cell_seed, SplitMix};
use crate::trace::Tracer;
use crate::{Gate, RunStats};
use std::sync::Arc;
use std::time::{Duration, Instant};
use uw_audio::wav::WavReader;
use uw_core::config::{Fidelity, NumericPath};
use uw_core::prelude::*;
use uw_core::waveform::warm_assets;
use uw_eval::{
    import_campaign, load_campaign, record_cell, render_campaign_wav, scan_campaign, CellExecution,
    CellReport, EvalCell, ImportParams, ImportedCampaign, LinkProfile, MobilityProfile,
    RenderOptions, ScenarioMatrix, Topology,
};
use uw_serve::wire::JobSpec;

/// Rounds in one batch cell; one cell is one job.
pub const CELL_ROUNDS: usize = 4;
/// Cells prepared at set-up. A run that finishes them starts over.
const POOL_CELLS: usize = 256;
/// Cells whose reports give the accuracy metrics; a run always finishes
/// at least these, so the accuracy metrics do not depend on speed.
/// Statistical occluded rounds cost several times a hybrid round, so that
/// workload averages fewer cells.
fn accuracy_cells(kind: Kind) -> usize {
    match kind {
        Kind::HybridLive => 128,
        Kind::OccludedSolve => 64,
        Kind::ReplayQ15 => 1,
    }
}
/// Rounds of the replay campaign (about two minutes of audio).
pub const CAMPAIGN_ROUNDS: usize = 40;
/// Devices in every round workload's groups.
const GROUP: usize = 5;
/// Largest fitted-minus-planted skew the import gate accepts (ppm).
const SKEW_GATE_PPM: f64 = 15.0;

/// The kinds of round workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Hybrid f64 cells at dock and boathouse, static and swimmer.
    HybridLive,
    /// Statistical occluded cells at the four paper sites.
    OccludedSolve,
    /// A blind-imported dock campaign replayed on Q15.
    ReplayQ15,
}

fn one_cell(
    env: EnvironmentKind,
    condition: LinkProfile,
    mobility: MobilityProfile,
    path: NumericPath,
    fidelity: Fidelity,
    seed: u64,
    rounds: usize,
) -> EvalCell {
    ScenarioMatrix {
        environments: vec![env],
        topologies: vec![Topology::Group(GROUP)],
        conditions: vec![condition],
        mobilities: vec![mobility],
        numeric_paths: vec![path],
        faults: vec![None],
        seeds: vec![seed],
        recordings: vec![],
        rounds_per_cell: rounds,
        fidelity,
    }
    .expand()
    .expect("benchmark cells expand")
    .remove(0)
}

/// Cell `k` of a simulated round workload's pool.
fn pool_cell(kind: Kind, seed: u64, k: usize) -> EvalCell {
    let s = cell_seed(seed, k as u64);
    match kind {
        Kind::HybridLive => {
            let env = [EnvironmentKind::Dock, EnvironmentKind::Boathouse][k % 2];
            let mobility = [
                MobilityProfile::Static,
                MobilityProfile::Swimmer { speed_cm_s: 40.0 },
            ][(k / 2) % 2];
            one_cell(
                env,
                LinkProfile::Clear,
                mobility,
                NumericPath::F64,
                Fidelity::Hybrid,
                s,
                CELL_ROUNDS,
            )
        }
        Kind::OccludedSolve => {
            let env = [
                EnvironmentKind::Pool,
                EnvironmentKind::Dock,
                EnvironmentKind::Viewpoint,
                EnvironmentKind::Boathouse,
            ][k % 4];
            one_cell(
                env,
                LinkProfile::Occluded { bias_m: 12.0 },
                MobilityProfile::Static,
                NumericPath::F64,
                Fidelity::Statistical,
                s,
                CELL_ROUNDS,
            )
        }
        Kind::ReplayQ15 => unreachable!("the replay workload has one imported cell"),
    }
}

/// Generated inputs of the replay workload: the rendered campaign WAV and
/// the skews planted in it.
pub struct ReplayInput {
    /// The campaign's scenario seed.
    pub scenario_seed: u64,
    /// The rendered 2-channel campaign.
    pub wav: Vec<u8>,
    /// Planted per-device skew, leader first (ppm).
    pub skew_ppm: Vec<f64>,
}

/// Scenario seed of the replayed recording. The recording is one fixed
/// two-minute dock capture, as a field team's is; the workload seed plants
/// the device clock skews the blind import has to recover.
pub const CAMPAIGN_SCENARIO_SEED: u64 = 1;

/// Renders the replay campaign for `seed` (input generation, not timed).
pub fn replay_input(seed: u64) -> ReplayInput {
    let scenario_seed = CAMPAIGN_SCENARIO_SEED;
    let cell = one_cell(
        EnvironmentKind::Dock,
        LinkProfile::Clear,
        MobilityProfile::Static,
        NumericPath::F64,
        Fidelity::Hybrid,
        scenario_seed,
        CAMPAIGN_ROUNDS,
    );
    let recording = record_cell(&cell).expect("campaign records");
    let mut rng = SplitMix::new(seed, 0x5EED_5CE3);
    // Followers run 20-80 ppm fast or slow; the leader's clock is the
    // recording clock.
    let skew_ppm: Vec<f64> = (0..GROUP)
        .map(|d| {
            if d == 0 {
                0.0
            } else {
                let sign = if rng.unit() < 0.5 { -1.0 } else { 1.0 };
                sign * (20.0 + 60.0 * rng.unit())
            }
        })
        .collect();
    let opts = RenderOptions {
        skew_ppm: skew_ppm.clone(),
        ..RenderOptions::default()
    };
    let wav = render_campaign_wav(&recording, &opts).expect("campaign renders");
    ReplayInput {
        scenario_seed,
        wav,
        skew_ppm,
    }
}

/// What a field team tells the importer: site, group size, scenario seed.
fn import_params(input: &ReplayInput) -> ImportParams {
    ImportParams::new(EnvironmentKind::Dock, GROUP, input.scenario_seed)
}

/// What set-up leaves ready to run.
enum Ready {
    Pool(Vec<(EvalCell, Option<CellExecution>)>),
    Replay {
        campaign: Box<ImportedCampaign>,
        cell: Box<EvalCell>,
        exec: Option<Box<CellExecution>>,
        import_gate: Gate,
    },
}

/// Set-up of a round workload: asset warm-up, cell expansion, session
/// build, and for replay the blind import. Returns the ready state and
/// its wall time.
fn setup(kind: Kind, seed: u64, input: Option<&ReplayInput>) -> (Ready, f64) {
    let t0 = Instant::now();
    let ready = match kind {
        Kind::HybridLive | Kind::OccludedSolve => {
            if kind == Kind::HybridLive {
                warm_assets(NumericPath::F64);
            }
            let pool = (0..POOL_CELLS)
                .map(|k| {
                    let cell = pool_cell(kind, seed, k);
                    let exec = CellExecution::new(&cell).expect("cell session builds");
                    (cell, Some(exec))
                })
                .collect();
            Ready::Pool(pool)
        }
        Kind::ReplayQ15 => {
            let input = input.expect("replay input generated");
            warm_assets(NumericPath::Q15);
            let (campaign, report) =
                import_campaign(&input.wav, &import_params(input)).expect("blind import");
            let cell = campaign
                .cell_with_path(NumericPath::Q15)
                .expect("imported cell");
            let exec = CellExecution::new(&cell).expect("replay session builds");
            let import_gate = import_gate(&report, &input.skew_ppm);
            Ready::Replay {
                campaign: Box::new(campaign),
                cell: Box::new(cell),
                exec: Some(Box::new(exec)),
                import_gate,
            }
        }
    };
    (ready, t0.elapsed().as_secs_f64())
}

fn import_gate(report: &uw_eval::ImportReport, planted: &[f64]) -> Gate {
    let expected = CAMPAIGN_ROUNDS * GROUP;
    let worst = report
        .skew_ppm
        .iter()
        .zip(planted)
        .map(|(fit, p)| (fit - p).abs())
        .fold(0.0, f64::max);
    let ok = report.bursts_found == expected
        && report.bursts_matched == expected
        && report.rounds_detected == CAMPAIGN_ROUNDS
        && report.skew_ppm.len() == planted.len()
        && worst <= SKEW_GATE_PPM;
    Gate::new(
        "replay.import",
        ok,
        format!(
            "bursts {}/{} matched (expected {expected}), rounds {}, worst skew error {worst:.2} ppm (gate {SKEW_GATE_PPM})",
            report.bursts_matched, report.bursts_found, report.rounds_detected
        ),
    )
}

/// Runs only set-up, for the set-up samples taken in child processes.
pub fn setup_only(kind: Kind, seed: u64, input: Option<&ReplayInput>) -> f64 {
    let (_ready, s) = setup(kind, seed, input);
    s
}

/// Timed-phase accumulators.
#[derive(Default)]
struct Phase {
    round_ms: Vec<f64>,
    job_ms: Vec<f64>,
    /// Completion times of rounds and jobs, seconds into the phase.
    round_done_s: Vec<f64>,
    job_done_s: Vec<f64>,
    wall_s: f64,
    attempted: usize,
    nonfinite: usize,
    reports: Vec<CellReport>,
    counts: Option<LayerCounts>,
    /// Rounds that returned no fix: the cell and the round index.
    no_fix: Vec<(EvalCell, usize)>,
}

/// Steps rounds and times them. When tracing, `probe` re-runs each
/// round's layers after it, against `shadow`, a second session of the
/// same cell that reproduces the round's outcome.
struct Stepper<'a> {
    phase: Phase,
    tracer: Option<&'a mut Tracer>,
    probe: Option<Probe>,
    shadow: Option<Session>,
    round_id: u64,
    t0: Instant,
}

impl Stepper<'_> {
    fn step(&mut self, exec: &mut CellExecution) -> bool {
        let round = exec.rounds_run();
        let t = Instant::now();
        let summary = match self.tracer.as_deref_mut() {
            Some(tracer) => tracer.span("round", self.round_id, |_| exec.step()),
            None => exec.step(),
        };
        let ms = t.elapsed().as_secs_f64() * 1e3;
        let Some(summary) = summary else {
            return false;
        };
        self.phase.round_ms.push(ms);
        self.phase
            .round_done_s
            .push(self.t0.elapsed().as_secs_f64());
        self.phase.attempted += 1;
        if !summary.ok {
            self.phase.no_fix.push((exec.cell().clone(), round));
        } else if !summary.median_error_2d_m.is_finite() {
            self.phase.nonfinite += 1;
        }
        if let (Some(tracer), Some(probe), Some(shadow)) = (
            self.tracer.as_deref_mut(),
            self.probe.as_mut(),
            self.shadow.as_mut(),
        ) {
            let cell = exec.cell();
            let id = self.round_id;
            let outcome = tracer.span("probe.shadow_round", id, |_| {
                shadow.run(cell.scenario.network())
            });
            if let Ok(outcome) = outcome {
                tracer.span("probe", id, |t| {
                    probe.round(t, id, cell, round, &outcome, cell.replay.as_ref())
                });
            }
        }
        self.round_id += 1;
        true
    }

    /// A fresh execution of `cell`, timed as `uw-eval.cell_new` when
    /// tracing.
    fn new_exec(&mut self, cell: &EvalCell) -> CellExecution {
        let build = || CellExecution::new(cell).expect("cell session builds");
        match self.tracer.as_deref_mut() {
            Some(tracer) => tracer.span("uw-eval.cell_new", self.round_id, |_| build()),
            None => build(),
        }
    }

    fn start_cell(&mut self, cell: &EvalCell) {
        if let Some(probe) = self.probe.as_mut() {
            probe.new_cell();
            self.shadow = Some(shadow_session(cell));
        }
    }
}

fn shadow_session(cell: &EvalCell) -> Session {
    let mut s = Session::new(cell.scenario.config().clone()).expect("shadow session");
    if let Some(replay) = &cell.replay {
        s.set_audio_source(Arc::clone(replay) as _);
    }
    s
}

/// Runs one timed phase of at least `seconds` (and, for the first phase,
/// at least the accuracy cells).
fn run_phase(
    ready: &mut Ready,
    seconds: f64,
    min_cells: usize,
    tracer: Option<&mut Tracer>,
    probe_path: Option<NumericPath>,
) -> Phase {
    let mut st = Stepper {
        phase: Phase::default(),
        tracer,
        probe: probe_path.map(Probe::new),
        shadow: None,
        round_id: 0,
        t0: Instant::now(),
    };
    let deadline = Duration::from_secs_f64(seconds);
    let t0 = st.t0;
    match ready {
        Ready::Pool(pool) => {
            let mut k = 0usize;
            loop {
                if t0.elapsed() >= deadline && st.phase.reports.len() >= min_cells {
                    break;
                }
                let (cell, slot) = &mut pool[k % POOL_CELLS];
                let mut exec = match slot.take() {
                    Some(exec) => exec,
                    None => st.new_exec(cell),
                };
                st.start_cell(cell);
                let tj = Instant::now();
                while st.step(&mut exec) {}
                st.phase.reports.push(exec.finalize());
                st.phase.job_ms.push(tj.elapsed().as_secs_f64() * 1e3);
                st.phase.job_done_s.push(t0.elapsed().as_secs_f64());
                k += 1;
            }
        }
        Ready::Replay { cell, exec, .. } => {
            // Passes over the campaign; a job is a window of CELL_ROUNDS
            // consecutive rounds.
            'passes: loop {
                let mut current = match exec.take() {
                    Some(e) => *e,
                    None => st.new_exec(cell),
                };
                st.start_cell(cell);
                loop {
                    if t0.elapsed() >= deadline && !st.phase.reports.is_empty() {
                        break 'passes;
                    }
                    let tj = Instant::now();
                    let mut stepped = 0;
                    while stepped < CELL_ROUNDS && st.step(&mut current) {
                        stepped += 1;
                    }
                    if stepped == CELL_ROUNDS {
                        st.phase.job_ms.push(tj.elapsed().as_secs_f64() * 1e3);
                        st.phase.job_done_s.push(t0.elapsed().as_secs_f64());
                    }
                    if current.is_complete() {
                        st.phase.reports.push(current.finalize());
                        continue 'passes;
                    }
                }
            }
        }
    }
    st.phase.wall_s = t0.elapsed().as_secs_f64();
    st.phase.counts = st.probe.map(|p| p.counts);
    st.phase
}

/// Runs a round workload: set-up, then a timed phase of `seconds`. With
/// `trace`, half the time runs untraced and half traced, so the
/// difference between the two halves gives the tracing overhead.
pub fn run(
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
    input: Option<&ReplayInput>,
    tracer: &mut Tracer,
) -> RunStats {
    let (mut ready, setup_s) = tracer.span("setup", 0, |_| setup(kind, seed, input));
    let path = match kind {
        Kind::ReplayQ15 => NumericPath::Q15,
        _ => NumericPath::F64,
    };
    let min_cells = accuracy_cells(kind);
    let (phase, traced) = if trace {
        let plain = run_phase(&mut ready, seconds / 2.0, min_cells, None, None);
        let traced = run_phase(&mut ready, seconds / 2.0, 1, Some(tracer), Some(path));
        (plain, Some(traced))
    } else {
        (run_phase(&mut ready, seconds, min_cells, None, None), None)
    };

    let mut gates = Vec::new();
    let mut all = vec![&phase];
    all.extend(traced.as_ref());
    // A round may legitimately end without a fix: the statistical channel
    // loses packets, and a group left with fewer links than a rigid 2D
    // embedding needs is reported as not localizable. Replaying the round
    // confirms that is why; any other failure fails the run.
    let no_fix: Vec<&(EvalCell, usize)> = all.iter().flat_map(|p| p.no_fix.iter()).collect();
    let unexplained: Vec<String> = no_fix
        .iter()
        .filter_map(|(cell, round)| {
            let mut session = shadow_session(cell);
            for _ in 0..*round {
                let _ = session.run(cell.scenario.network());
            }
            match session.run(cell.scenario.network()) {
                Err(uw_core::SystemError::RoundFailed {
                    reason: RoundFailureReason::SolverFailed { detail },
                    ..
                }) if detail.contains("not localizable") => None,
                other => Some(format!("{} round {round}: {other:?}", cell.id)),
            }
        })
        .collect();
    let nonfinite: usize = all.iter().map(|p| p.nonfinite).sum();
    gates.push(Gate::new(
        "rounds.no_errors",
        unexplained.is_empty() && nonfinite == 0,
        format!(
            "{} rounds without a fix, all after channel loss left too few links; \
             {nonfinite} rounds without finite errors; unexplained: {unexplained:?}",
            no_fix.len() - unexplained.len()
        ),
    ));
    let failed = unexplained.len() + nonfinite;
    let accuracy: Vec<&CellReport> = phase.reports.iter().take(min_cells).collect();
    let finite = accuracy
        .iter()
        .all(|r| r.error_2d.median.is_finite() && r.ranging_median_m.is_finite());
    gates.push(Gate::new(
        "cells.finite_errors",
        finite && !accuracy.is_empty(),
        format!("{} accuracy cells", accuracy.len()),
    ));
    if let Ready::Replay { import_gate, .. } = &ready {
        gates.push(import_gate.clone());
        // Every pass replays identical audio, so every pass must report
        // exactly what the first did.
        let first = &phase.reports[0];
        let same = all
            .iter()
            .flat_map(|p| p.reports.iter())
            .all(|r| r == first);
        gates.push(Gate::new(
            "replay.passes_identical",
            same,
            format!(
                "{} passes",
                all.iter().map(|p| p.reports.len()).sum::<usize>()
            ),
        ));
    }

    let mut stats = RunStats {
        setup_s,
        round_ms: phase.round_ms.clone(),
        job_ms: phase.job_ms.clone(),
        round_done_s: phase.round_done_s.clone(),
        job_done_s: phase.job_done_s.clone(),
        rate_wall_s: phase.wall_s,
        cell_loc_err: accuracy.iter().map(|r| r.error_2d.median).collect(),
        cell_ranging_err: accuracy.iter().map(|r| r.ranging_median_m).collect(),
        attempted: all.iter().map(|p| p.attempted).sum(),
        failed,
        no_fix: no_fix.len(),
        gates,
        ..RunStats::default()
    };
    if let Some(traced) = traced {
        stats.traced_round_ms = traced.round_ms;
        stats.counts = traced.counts;
        stats.wire_jobs = match &ready {
            Ready::Pool(pool) => phase
                .reports
                .iter()
                .enumerate()
                .map(|(k, r)| {
                    let spec = JobSpec::from_cell(&pool[k % POOL_CELLS].0).expect("simulated cell");
                    (spec, r.clone())
                })
                .collect(),
            Ready::Replay { campaign, .. } => {
                let spec = JobSpec {
                    environment: campaign.environment,
                    n_devices: campaign.n_devices as u32,
                    condition: campaign.condition,
                    mobility: campaign.mobility,
                    numeric_path: NumericPath::Q15,
                    fidelity: Fidelity::Hybrid,
                    seed: campaign.seed,
                    rounds: campaign.rounds as u32,
                    faults: None,
                    recording: Some("campaign".into()),
                };
                phase
                    .reports
                    .iter()
                    .map(|r| (spec.clone(), r.clone()))
                    .collect()
            }
        };
    }
    if trace {
        // Replay scans its own campaign; the others a small reference one.
        let small;
        let scanned = match input {
            Some(input) => input,
            None => {
                small = small_campaign(seed);
                &small
            }
        };
        stats.audio = Some(audio_probe(tracer, scanned));
    }
    stats
}

/// A two-round render of a dock group, the reference input for the audio
/// layers on workloads that import nothing.
pub fn small_campaign(seed: u64) -> ReplayInput {
    let scenario_seed = cell_seed(seed, 1);
    let cell = one_cell(
        EnvironmentKind::Dock,
        LinkProfile::Clear,
        MobilityProfile::Static,
        NumericPath::F64,
        Fidelity::Hybrid,
        scenario_seed,
        2,
    );
    let recording = record_cell(&cell).expect("reference campaign records");
    let wav = render_campaign_wav(&recording, &RenderOptions::default()).expect("renders");
    ReplayInput {
        scenario_seed,
        wav,
        skew_ppm: vec![0.0; GROUP],
    }
}

/// Figures of the import layers, from a traced scan + load.
#[derive(Debug, Clone, Default)]
pub struct AudioFigures {
    /// Scan throughput.
    pub scan_msamples_per_s: f64,
    /// Load wall time.
    pub load_ms: f64,
    /// Matched over found bursts.
    pub bursts_matched_frac: f64,
    /// Worst fitted-minus-planted skew.
    pub skew_err_ppm_max: f64,
    /// Size of the scanned WAV.
    pub wav_mb: f64,
}

/// Times a blind import's two passes over `input`, scan and load, and
/// compares the fitted skews with the planted ones.
pub fn audio_probe(tracer: &mut Tracer, input: &ReplayInput) -> AudioFigures {
    let (wav, params, planted) = (&input.wav, &import_params(input), &input.skew_ppm);
    let reader = WavReader::new(std::io::Cursor::new(wav)).expect("wav opens");
    let t = Instant::now();
    let (manifest, report) = tracer
        .span("uw-audio.scan", 0, |_| scan_campaign(reader, params))
        .expect("scan");
    let scan_s = t.elapsed().as_secs_f64();
    let reader = WavReader::new(std::io::Cursor::new(wav)).expect("wav opens");
    let t = Instant::now();
    tracer
        .span("uw-eval.load", 0, |_| load_campaign(reader, &manifest))
        .expect("load");
    let load_ms = t.elapsed().as_secs_f64() * 1e3;
    AudioFigures {
        scan_msamples_per_s: report.total_frames as f64 / scan_s / 1e6,
        load_ms,
        bursts_matched_frac: report.bursts_matched as f64 / report.bursts_found.max(1) as f64,
        skew_err_ppm_max: report
            .skew_ppm
            .iter()
            .zip(planted)
            .map(|(f, p)| (f - p).abs())
            .fold(0.0, f64::max),
        wav_mb: wav.len() as f64 / 1e6,
    }
}
