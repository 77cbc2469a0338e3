//! serve-fleet: Poisson arrivals of small statistical jobs over one
//! loopback TCP connection into an in-process 2-shard `TcpServer`, then a
//! closed-loop saturation phase.

use crate::batch;
use crate::probe::Probe;
use crate::schedule::{cell_seed, poisson_offsets, SplitMix};
use crate::trace::Tracer;
use crate::{Gate, RunStats};
use std::collections::BTreeMap;
use std::sync::mpsc;
use std::time::{Duration, Instant};
use uw_core::config::{Fidelity, NumericPath};
use uw_core::prelude::*;
use uw_eval::runner::run_suite;
use uw_eval::{
    CellExecution, CellReport, EvalCell, EvalReport, LinkProfile, MobilityProfile, ScenarioMatrix,
    Topology,
};
use uw_serve::tcp::{ClientReceiver, ClientSender};
use uw_serve::wire::{decode_frame, encode_frame, JobSpec};
use uw_serve::{
    Priority, ServeConfig, ShardStats, TcpClient, TcpConfig, TcpServer, TenantConfig, WireMessage,
};

/// Offered open-loop rate, about a third of the 2-shard capacity
/// measured on a 2-vCPU host.
pub const OFFERED_JOBS_PER_S: f64 = 120.0;
/// Server worker shards.
const SHARDS: usize = 2;
/// Tenants sharing the connection, weights 1-3, no rate limit.
const TENANTS: usize = 24;
/// Jobs in flight during the closed-loop phase.
const WINDOW: usize = 8;
/// Rounds and devices of every job.
const JOB_ROUNDS: usize = 4;
const JOB_DEVICES: usize = 4;
/// Share of the run spent in the open-loop phase.
const OPEN_SHARE: f64 = 0.6;
/// Jobs whose cells the traced run probes layer by layer.
const PROBED_JOBS: usize = 12;

/// One job of the fleet's traffic.
#[derive(Debug, Clone)]
pub struct FleetJob {
    /// The job's cell, as the batch runner expands it.
    pub cell: EvalCell,
    /// Its wire form.
    pub spec: JobSpec,
    /// Billing tenant.
    pub tenant: String,
    /// Priority class (live : replay = 2 : 1).
    pub priority: Priority,
}

/// The `k`-th job drawn from pool, dock, viewpoint and boathouse, clear
/// or missing-link, static or swimmer.
fn fleet_job(seed: u64, k: usize) -> FleetJob {
    let mut rng = SplitMix::new(seed, 0xF1EE_7000 + k as u64);
    let env = [
        EnvironmentKind::Pool,
        EnvironmentKind::Dock,
        EnvironmentKind::Viewpoint,
        EnvironmentKind::Boathouse,
    ][rng.index(4)];
    let condition = [LinkProfile::Clear, LinkProfile::MissingLink][rng.index(2)];
    let mobility = [
        MobilityProfile::Static,
        MobilityProfile::Swimmer { speed_cm_s: 40.0 },
    ][rng.index(2)];
    let priority = if rng.unit() < 2.0 / 3.0 {
        Priority::Live
    } else {
        Priority::Replay
    };
    let tenant = format!("tenant-{:02}", rng.index(TENANTS));
    let cell = fleet_matrix(
        env,
        condition,
        mobility,
        cell_seed(seed, 1 << 20 | k as u64),
    )
    .expand()
    .expect("fleet cell expands")
    .remove(0);
    let spec = JobSpec::from_cell(&cell).expect("simulated cells have wire specs");
    FleetJob {
        cell,
        spec,
        tenant,
        priority,
    }
}

fn fleet_matrix(
    env: EnvironmentKind,
    condition: LinkProfile,
    mobility: MobilityProfile,
    seed: u64,
) -> ScenarioMatrix {
    ScenarioMatrix {
        environments: vec![env],
        topologies: vec![Topology::Group(JOB_DEVICES)],
        conditions: vec![condition],
        mobilities: vec![mobility],
        numeric_paths: vec![NumericPath::F64],
        faults: vec![None],
        seeds: vec![seed],
        recordings: vec![],
        rounds_per_cell: JOB_ROUNDS,
        fidelity: Fidelity::Statistical,
    }
}

/// A client event as the receiver thread saw it.
#[derive(Debug)]
enum Event {
    Started,
    Round,
    Finalized(Box<CellReport>),
    Lost(String),
}

struct Ready {
    jobs: Vec<FleetJob>,
    server: TcpServer,
    sender: ClientSender,
    receiver: ClientReceiver,
}

/// Set-up: expand the open-loop jobs, bind the server, configure the
/// tenants and complete the handshake.
fn setup(seed: u64, n_jobs: usize) -> (Ready, f64) {
    let t0 = Instant::now();
    let jobs: Vec<FleetJob> = (0..n_jobs).map(|k| fleet_job(seed, k)).collect();
    let server = TcpServer::bind(
        "127.0.0.1:0",
        TcpConfig {
            serve: ServeConfig {
                shards: SHARDS,
                queue_capacity: 256,
            },
            conn_queue: 1024,
        },
    )
    .expect("bind loopback server");
    for t in 0..TENANTS {
        let mut tenant = TenantConfig::unlimited(&format!("tenant-{t:02}"));
        tenant.weight = 1.0 + (t % 3) as f64;
        server.configure_tenant(tenant);
    }
    let mut client = TcpClient::connect(server.local_addr()).expect("connect");
    client.hello("perfbench").expect("handshake");
    let (sender, receiver) = client.split();
    let s = t0.elapsed().as_secs_f64();
    (
        Ready {
            jobs,
            server,
            sender,
            receiver,
        },
        s,
    )
}

/// Open-loop job count of a run of `seconds`.
fn open_jobs(seed: u64, seconds: f64) -> Vec<f64> {
    poisson_offsets(seed, OFFERED_JOBS_PER_S, seconds * OPEN_SHARE)
}

/// Runs only set-up, for the set-up samples taken in child processes.
pub fn setup_only(seed: u64, seconds: f64) -> f64 {
    let (ready, s) = setup(seed, open_jobs(seed, seconds).len());
    let Ready {
        server,
        mut sender,
        mut receiver,
        ..
    } = ready;
    sender.send(&WireMessage::Goodbye).expect("goodbye");
    while let Ok(Some(_)) = receiver.recv() {}
    server.shutdown();
    s
}

fn submit(sender: &mut ClientSender, tag: u64, job: &FleetJob) {
    sender
        .send(&WireMessage::Submit {
            tag,
            tenant: job.tenant.clone(),
            priority: job.priority,
            deadline_ms: None,
            spec: job.spec.clone(),
        })
        .expect("submit");
}

/// What one fleet pass (open loop, then closed loop) measured.
struct Pass {
    /// Per open-loop job: scheduled send, actual send, events.
    due: Vec<Instant>,
    sent: Vec<Instant>,
    events: BTreeMap<u64, Vec<(Instant, Event)>>,
    closed_start: Instant,
    closed_end: Instant,
    /// Closed-loop `Round` frames and job completions, seconds after the
    /// closed loop started.
    closed_round_s: Vec<f64>,
    closed_job_s: Vec<f64>,
    shards: Vec<ShardStats>,
    jobs: Vec<FleetJob>,
    setup_s: f64,
}

fn run_pass(seed: u64, seconds: f64) -> Pass {
    let offsets = open_jobs(seed, seconds);
    let (ready, setup_s) = setup(seed, offsets.len());
    let Ready {
        jobs,
        server,
        mut sender,
        mut receiver,
    } = ready;
    let n_open = jobs.len();
    let (done_tx, done_rx) = mpsc::channel::<u64>();
    let reader = std::thread::spawn(move || {
        let mut events: BTreeMap<u64, Vec<(Instant, Event)>> = BTreeMap::new();
        while let Ok(Some(msg)) = receiver.recv() {
            let now = Instant::now();
            let (tag, event) = match msg {
                WireMessage::Started { tag, .. } => (tag, Event::Started),
                WireMessage::Round { tag, .. } => (tag, Event::Round),
                WireMessage::Finalized { tag, report } => (tag, Event::Finalized(Box::new(report))),
                WireMessage::Failed { tag, reason, .. } => (tag, Event::Lost(reason)),
                WireMessage::Rejected { tag, reason, .. } => {
                    (tag, Event::Lost(format!("{reason:?}")))
                }
                WireMessage::Cancelled { tag, .. } => (tag, Event::Lost("cancelled".into())),
                other => (u64::MAX, Event::Lost(format!("{other:?}"))),
            };
            let terminal = matches!(event, Event::Finalized(_) | Event::Lost(_));
            events.entry(tag).or_default().push((now, event));
            if terminal {
                let _ = done_tx.send(tag);
            }
        }
        events
    });

    // Open loop: send each job when due, however far behind the server is.
    let t0 = Instant::now();
    let due: Vec<Instant> = offsets
        .iter()
        .map(|&o| t0 + Duration::from_secs_f64(o))
        .collect();
    let mut sent = Vec::with_capacity(n_open);
    for (k, job) in jobs.iter().enumerate() {
        let now = Instant::now();
        if due[k] > now {
            std::thread::sleep(due[k] - now);
        }
        sent.push(Instant::now());
        submit(&mut sender, k as u64, job);
    }
    for _ in 0..n_open {
        done_rx
            .recv()
            .expect("open-loop job reaches a terminal event");
    }

    // Closed loop: a fixed window of jobs in flight, cycling the
    // open-loop jobs under fresh tags.
    let closed_s = seconds * (1.0 - OPEN_SHARE);
    let closed_start = Instant::now();
    let mut next = 0usize;
    let mut in_flight = 0usize;
    let mut closed_job_s = Vec::new();
    let mut closed_end = closed_start;
    while in_flight < WINDOW {
        submit(&mut sender, (n_open + next) as u64, &jobs[next % n_open]);
        next += 1;
        in_flight += 1;
    }
    while in_flight > 0 {
        done_rx
            .recv()
            .expect("closed-loop job reaches a terminal event");
        in_flight -= 1;
        closed_end = Instant::now();
        closed_job_s.push((closed_end - closed_start).as_secs_f64());
        if closed_start.elapsed().as_secs_f64() < closed_s {
            submit(&mut sender, (n_open + next) as u64, &jobs[next % n_open]);
            next += 1;
            in_flight += 1;
        }
    }
    sender.send(&WireMessage::Goodbye).expect("goodbye");
    let events = reader.join().expect("receiver thread");
    let shards = server.shutdown();
    let closed_round_s: Vec<f64> = events
        .range(n_open as u64..)
        .flat_map(|(_, evs)| evs.iter())
        .filter(|(t, e)| matches!(e, Event::Round) && *t <= closed_end)
        .map(|(t, _)| (*t - closed_start).as_secs_f64())
        .collect();
    Pass {
        due,
        sent,
        events,
        closed_start,
        closed_end,
        closed_round_s,
        closed_job_s,
        shards,
        jobs,
        setup_s,
    }
}

/// Client-side figures of the serving layer, for the traced run.
#[derive(Debug, Clone, Default)]
pub struct ServeFigures {
    /// Scheduled send to `Started` (ms), open loop.
    pub queue_wait_ms: Vec<f64>,
    /// `Started` to `Finalized` (ms), open loop.
    pub compute_ms: Vec<f64>,
    /// Replay-class job latency (ms), open loop.
    pub replay_job_ms: Vec<f64>,
    /// Actual minus scheduled send (ms).
    pub late_ms: Vec<f64>,
    /// Jobs stolen between shards.
    pub stolen: usize,
    /// Most over fewest jobs run by one shard.
    pub shard_jobs_max_over_min: f64,
}

/// Runs serve-fleet. With `trace`, an untraced pass and a traced pass of
/// half the time each.
pub fn run(seed: u64, seconds: f64, trace: bool, tracer: &mut Tracer) -> RunStats {
    let passes: Vec<Pass> = if trace {
        vec![run_pass(seed, seconds / 2.0), run_pass(seed, seconds / 2.0)]
    } else {
        vec![run_pass(seed, seconds)]
    };
    let main = &passes[0];
    let n_open = main.jobs.len();

    let mut gates = Vec::new();
    let mut lost = Vec::new();
    let mut attempted = 0usize;
    for pass in &passes {
        let total = pass.jobs.len() + pass.closed_job_s.len();
        attempted += total;
        for tag in 0..total as u64 {
            match pass.events.get(&tag).and_then(|e| e.last()) {
                Some((_, Event::Finalized(_))) => {}
                Some((_, Event::Lost(why))) => lost.push(format!("job {tag}: {why}")),
                _ => lost.push(format!("job {tag}: missing")),
            }
        }
    }
    gates.push(Gate::new(
        "serve.no_lost_jobs",
        lost.is_empty(),
        format!(
            "{} of {attempted} jobs failed, rejected, shed or missing {:?}",
            lost.len(),
            lost.iter().take(3).collect::<Vec<_>>()
        ),
    ));

    // The open-loop reports, in submission order, must equal the batch
    // runner's over the same cells byte for byte.
    let served: Vec<CellReport> = (0..n_open as u64)
        .filter_map(|tag| match main.events.get(&tag)?.last()? {
            (_, Event::Finalized(r)) => Some((**r).clone()),
            _ => None,
        })
        .collect();
    let matrices: Vec<ScenarioMatrix> = main
        .jobs
        .iter()
        .map(|j| {
            fleet_matrix(
                j.cell.environment,
                j.cell.condition,
                j.cell.mobility,
                j.cell.seed,
            )
        })
        .collect();
    let batch = run_suite(&matrices).expect("batch runner").to_json();
    let identical = served.len() == n_open && EvalReport::new(served.clone()).to_json() == batch;
    gates.push(Gate::new(
        "serve.report_matches_run_matrix",
        identical,
        format!("{} served reports vs {} batch cells", served.len(), n_open),
    ));
    let finite = served
        .iter()
        .all(|r| r.error_2d.median.is_finite() && r.ranging_median_m.is_finite());
    gates.push(Gate::new("serve.finite_errors", finite, String::new()));

    let fig = figures(main);
    let mut stats = RunStats {
        setup_s: main.setup_s,
        round_ms: round_gaps(main),
        job_ms: live_job_ms(main),
        round_done_s: main.closed_round_s.clone(),
        job_done_s: main.closed_job_s.clone(),
        rate_wall_s: (main.closed_end - main.closed_start).as_secs_f64(),
        cell_loc_err: served.iter().map(|r| r.error_2d.median).collect(),
        cell_ranging_err: served.iter().map(|r| r.ranging_median_m).collect(),
        attempted,
        failed: lost.len(),
        gates,
        serve: Some(fig),
        ..RunStats::default()
    };
    if let Some(traced) = passes.get(1) {
        stats.traced_job_ms = live_job_ms(traced);
        stats.serve = Some(figures(traced));
        record_job_spans(tracer, traced);
        let mut probe = Probe::new(NumericPath::F64);
        let mut compute = Vec::new();
        for (k, job) in traced.jobs.iter().take(PROBED_JOBS).enumerate() {
            let id = k as u64;
            let cell = job.spec.to_cell().expect("spec expands");
            tracer.span("uw-eval.cell_new", id, |_| {
                CellExecution::new(&cell).expect("cell builds")
            });
            let mut shadow = Session::new(cell.scenario.config().clone()).expect("shadow");
            probe.new_cell();
            for round in 0..JOB_ROUNDS {
                if let Ok(outcome) = shadow.run(cell.scenario.network()) {
                    tracer.span("probe", id, |t| {
                        probe.round(t, id, &cell, round, &outcome, None)
                    });
                }
            }
            if let Some(c) = compute_ms(traced, k as u64) {
                compute.push(c);
            }
        }
        stats.counts = Some(probe.counts);
        stats.audio = Some(batch::audio_probe(tracer, &batch::small_campaign(seed)));
        stats.probed_compute_ms = compute;
        stats.wire_jobs = traced
            .jobs
            .iter()
            .enumerate()
            .filter_map(|(k, j)| match traced.events.get(&(k as u64))?.last()? {
                (_, Event::Finalized(r)) => Some((j.spec.clone(), (**r).clone())),
                _ => None,
            })
            .collect();
    }
    stats
}

fn compute_ms(pass: &Pass, tag: u64) -> Option<f64> {
    let evs = pass.events.get(&tag)?;
    let started = evs.iter().find(|(_, e)| matches!(e, Event::Started))?.0;
    let done = evs
        .iter()
        .find(|(_, e)| matches!(e, Event::Finalized(_)))?
        .0;
    Some((done - started).as_secs_f64() * 1e3)
}

fn finalized_at(pass: &Pass, tag: u64) -> Option<Instant> {
    pass.events
        .get(&tag)?
        .iter()
        .find(|(_, e)| matches!(e, Event::Finalized(_)))
        .map(|(t, _)| *t)
}

/// Live-class open-loop latency: scheduled send to `Finalized` (ms).
fn live_job_ms(pass: &Pass) -> Vec<f64> {
    class_job_ms(pass, Priority::Live)
}

fn class_job_ms(pass: &Pass, class: Priority) -> Vec<f64> {
    pass.jobs
        .iter()
        .enumerate()
        .filter(|(_, j)| j.priority == class)
        .filter_map(|(k, _)| {
            Some((finalized_at(pass, k as u64)? - pass.due[k]).as_secs_f64() * 1e3)
        })
        .collect()
}

/// Per-round time of each open-loop job as its client sees it: `Started`
/// to `Finalized` over the job's rounds.
fn round_gaps(pass: &Pass) -> Vec<f64> {
    (0..pass.jobs.len() as u64)
        .filter_map(|tag| compute_ms(pass, tag))
        .map(|ms| ms / JOB_ROUNDS as f64)
        .collect()
}

fn figures(pass: &Pass) -> ServeFigures {
    let mut fig = ServeFigures::default();
    for k in 0..pass.jobs.len() {
        let tag = k as u64;
        let Some(evs) = pass.events.get(&tag) else {
            continue;
        };
        if let Some((started, _)) = evs.iter().find(|(_, e)| matches!(e, Event::Started)) {
            fig.queue_wait_ms
                .push((*started - pass.due[k]).as_secs_f64() * 1e3);
        }
        if let Some(c) = compute_ms(pass, tag) {
            fig.compute_ms.push(c);
        }
        fig.late_ms
            .push((pass.sent[k] - pass.due[k]).as_secs_f64() * 1e3);
    }
    fig.replay_job_ms = class_job_ms(pass, Priority::Replay);
    fig.stolen = pass.shards.iter().map(|s| s.stolen).sum();
    let max = pass.shards.iter().map(|s| s.jobs).max().unwrap_or(0) as f64;
    let min = pass.shards.iter().map(|s| s.jobs).min().unwrap_or(0) as f64;
    fig.shard_jobs_max_over_min = max / min.max(1.0);
    fig
}

/// Records each traced open-loop job as a `job` span with its queue-wait
/// and compute children.
fn record_job_spans(tracer: &mut Tracer, pass: &Pass) {
    for k in 0..pass.jobs.len() {
        let tag = k as u64;
        let Some(evs) = pass.events.get(&tag) else {
            continue;
        };
        let started = evs
            .iter()
            .find(|(_, e)| matches!(e, Event::Started))
            .map(|e| e.0);
        let (Some(started), Some(done)) = (started, finalized_at(pass, tag)) else {
            continue;
        };
        let job = tracer.record("job", tag, None, pass.due[k], done);
        tracer.record("uw-serve.queue_wait", tag, Some(job), pass.due[k], started);
        tracer.record("uw-serve.compute", tag, Some(job), started, done);
    }
}

/// Times wire encode and decode of each job's submit and final report.
pub fn wire_probe(tracer: &mut Tracer, jobs: &[(JobSpec, CellReport)]) -> (f64, f64) {
    let mut bytes = 0usize;
    let mut frames = 0usize;
    for (k, (spec, report)) in jobs.iter().enumerate() {
        let id = k as u64;
        let submit = WireMessage::Submit {
            tag: id,
            tenant: "tenant-00".into(),
            priority: Priority::Live,
            deadline_ms: None,
            spec: spec.clone(),
        };
        let started = WireMessage::Started {
            tag: id,
            cell_id: report.id.clone(),
            rounds: report.rounds as u64,
        };
        let round = WireMessage::Round {
            tag: id,
            cell_id: report.id.clone(),
            summary: uw_eval::RoundSummary {
                round: 0,
                ok: true,
                median_error_2d_m: report.error_2d.median,
                dropped_links: 0,
                flipping_correct: true,
            },
        };
        let finalized = WireMessage::Finalized {
            tag: id,
            report: report.clone(),
        };
        for msg in [&submit, &finalized] {
            let frame = tracer.span("uw-serve.encode", id, |_| encode_frame(msg));
            let (back, used) = tracer
                .span("uw-serve.decode", id, |_| decode_frame(&frame))
                .expect("frame decodes");
            assert!(
                used == frame.len() && encode_frame(&back) == frame,
                "wire round trip"
            );
        }
        frames += 3 + report.rounds;
        bytes += encode_frame(&submit).len()
            + encode_frame(&started).len()
            + report.rounds * encode_frame(&round).len()
            + encode_frame(&finalized).len();
    }
    let n = jobs.len().max(1) as f64;
    (frames as f64 / n, bytes as f64 / n)
}
