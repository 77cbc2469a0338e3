//! Per-layer probe: re-runs one round's layer calls through each crate's
//! public functions, on the same inputs the round used, inside spans.
//!
//! A round's own stages cannot be timed from outside `Session::run`, so
//! the traced run runs the round for real (the `round` span) and then a
//! shadow session of the same cell reproduces the round's outcome; the
//! probe feeds that outcome's inputs to the layers one by one.

use crate::trace::Tracer;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use uw_channel::environment::Environment;
use uw_core::config::NumericPath;
use uw_core::faults::FaultSchedule;
use uw_core::observers::{ReceptionModel, StatisticalObserver};
use uw_core::prelude::*;
use uw_core::session::leader_link_trials;
use uw_core::waveform::{estimate_from_capture, synthesize_dual_mic, LinkAudioSource};
use uw_dsp::ofdm::OfdmConfig;
use uw_dsp::peaks::find_peaks_above;
use uw_eval::EvalCell;
use uw_localization::ambiguity::geometric_side;
use uw_localization::matrix::{Vec2, WeightMatrix};
use uw_localization::outlier::{drop_hypotheses, DropEvidence};
use uw_localization::pipeline::{localize_with_evidence, truth_in_leader_frame, LocalizationInput};
use uw_localization::project::project_to_2d;
use uw_localization::smacof::smacof;
use uw_protocol::engine::{DeviceRoundState, ProtocolEngine};
use uw_protocol::latency::round_latency;
use uw_ranging::channel_est::ls_channel_estimate;
use uw_ranging::detect::{validation_score, DetectorConfig};
use uw_ranging::los::{dual_mic_los, LosConfig};
use uw_ranging::RangingPreamble;

/// Counts the probe accumulates across rounds.
#[derive(Debug, Default, Clone)]
pub struct LayerCounts {
    /// Rounds probed.
    pub rounds: usize,
    /// Leader links probed.
    pub links: usize,
    /// Links whose estimate failed.
    pub link_failures: usize,
    /// Detection candidates examined.
    pub candidates: usize,
    /// Candidates that passed PN validation.
    pub validated: usize,
    /// Rounds whose solve left the fast path: the full-link solve missed
    /// the stress threshold (Algorithm 1's validation path), or the pick
    /// contradicted a side vote or dropped a link (the rescue pass).
    pub validation_rounds: usize,
    /// Drop hypotheses returned across rounds.
    pub hypotheses: usize,
    /// Links dropped by the solve across rounds.
    pub dropped: usize,
    /// SMACOF iterations of each round's full-link solve.
    pub smacof_iters: Vec<f64>,
}

/// Which receive-side preamble the probe correlates against.
pub struct Probe {
    preamble: RangingPreamble,
    detector: DetectorConfig,
    /// Counts so far.
    pub counts: LayerCounts,
    evidence: DropEvidence,
}

/// Probability that the dual-microphone side vote of device `i` comes out
/// wrong: the session's model, high near the leader-device-1 line and
/// vanishing broadside.
fn sign_error_prob(frame: &[Vec2], i: usize, error_scale: f64) -> f64 {
    let (ui, u1) = (frame[i], frame[1]);
    let denom = ui.norm() * u1.norm();
    let sigma = 3.5 * error_scale;
    if denom <= 0.0 || sigma <= 0.0 {
        return if denom <= 0.0 { 0.5 } else { 0.0 };
    }
    let sin_angle = ((ui.x * u1.y - ui.y * u1.x) / denom).abs();
    (0.5 * (-(sin_angle / sigma).powi(2)).exp()).clamp(0.0, 0.5)
}

/// Per-round seed, the Weyl step `Session` advances its RNG streams by.
fn round_seed(config_seed: u64, round: usize) -> u64 {
    config_seed.wrapping_add((round as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

impl Probe {
    /// A probe for cells on `path`.
    pub fn new(path: NumericPath) -> Self {
        Self {
            preamble: RangingPreamble::new_with_path(OfdmConfig::default(), path)
                .expect("paper-default preamble parameters are valid"),
            detector: DetectorConfig::default(),
            counts: LayerCounts::default(),
            evidence: DropEvidence::new(),
        }
    }

    /// Starts a new cell: cross-round drop evidence resets.
    pub fn new_cell(&mut self) {
        self.evidence = DropEvidence::new();
    }

    /// Probes round `round` of `cell`, whose outcome `outcome` the shadow
    /// session reproduced. `audio` is the recorded source of a replay cell.
    pub fn round(
        &mut self,
        tracer: &mut Tracer,
        id: u64,
        cell: &EvalCell,
        round: usize,
        outcome: &SessionOutcome,
        audio: Option<&Arc<uw_eval::ReplayAudio>>,
    ) {
        let config = cell.scenario.config();
        let network = cell.scenario.network();
        let seed = round_seed(config.seed, round);
        self.counts.rounds += 1;

        // uw-protocol: the timestamp exchange over the statistical channel.
        let latency = round_latency(config.n_devices, config.report_bps).expect("valid group");
        let mid = latency.acoustic_s / 2.0;
        let devices: Vec<DeviceRoundState> = network
            .devices()
            .iter()
            .map(|d| DeviceRoundState {
                id: d.id,
                position: d.position_at(mid),
                clock: d.clock,
            })
            .collect();
        let engine =
            ProtocolEngine::new(config.schedule().expect("schedule"), network.sound_speed())
                .expect("protocol engine");
        let mut observer = StatisticalObserver::new(
            network,
            ReceptionModel::default(),
            config.packet_loss_prob,
            StdRng::seed_from_u64(seed ^ 0xABCD),
        );
        tracer.span("uw-protocol.run_round", id, |_| {
            std::hint::black_box(engine.run_round(&devices, &mut observer)).ok();
        });

        // uw-channel + uw-ranging: every leader link of the round.
        let trials = leader_link_trials(config, network, round, None::<&FaultSchedule>)
            .expect("leader-link plan");
        let sound_speed = Environment::preset(network.environment().kind).sound_speed();
        for lt in &trials {
            self.counts.links += 1;
            let synthesized = tracer.span("uw-channel.synth", id, |_| {
                synthesize_dual_mic(&lt.trial, lt.seed).expect("channel synthesis")
            });
            let capture = audio
                .and_then(|a| a.link_capture(round, lt.device))
                .unwrap_or(&synthesized);
            let mut trial = lt.trial.clone();
            trial.numeric_path = self.preamble.numeric_path();
            let estimate = tracer.span("uw-ranging.estimate", id, |_| {
                estimate_from_capture(&trial, capture)
            });
            if estimate.is_err() {
                self.counts.link_failures += 1;
            }
            self.detect_stages(tracer, id, &capture.mic1, &capture.mic2, sound_speed);
        }

        // uw-localization on the round's measured distances, with side
        // votes as noisy as the session's dual-microphone model makes them.
        let truth = network.positions_at(mid);
        let frame = truth_in_leader_frame(&truth);
        let mut votes = StdRng::seed_from_u64(seed ^ 0x5161);
        let input = LocalizationInput {
            distances: outcome.distances.clone(),
            depths: outcome.positions.iter().map(|p| p.z).collect(),
            pointing_azimuth_rad: network.leader_pointing_azimuth(mid).expect("pointing"),
            side_signs: (0..config.n_devices)
                .map(|i| {
                    (i >= 2).then(|| {
                        let sign = geometric_side(&frame, i);
                        let p = sign_error_prob(&frame, i, config.mic_sign_error_prob);
                        if votes.gen_bool(p) {
                            -sign
                        } else {
                            sign
                        }
                    })
                })
                .collect(),
        };
        let localizer = &config.localizer;
        let mut rng = StdRng::seed_from_u64(seed);
        let solved = tracer.span("uw-localization.solve", id, |_| {
            localize_with_evidence(&input, localizer, Some(&self.evidence), &mut rng)
        });
        // The solve left its fast path when Algorithm 1's stress gate
        // fired (below) or when the pick contradicted a side vote, which
        // runs the rescue enumeration.
        let mut slow = false;
        if let Ok(out) = &solved {
            self.counts.dropped += out.dropped_links.len();
            let contradicted = input.side_signs.iter().enumerate().any(|(i, vote)| {
                vote.is_some_and(|v| {
                    let geo = geometric_side(&out.positions_2d, i);
                    v != 0 && geo != 0 && geo != v
                })
            });
            slow = contradicted || !out.dropped_links.is_empty();
        }
        let d2 = project_to_2d(&input.distances, &input.depths).expect("depth projection");
        let weights = WeightMatrix::from_distances(&d2);
        let mut rng = StdRng::seed_from_u64(seed);
        if let Ok(sol) = tracer.span("uw-localization.smacof", id, |_| {
            smacof(&d2, &weights, &localizer.smacof, &mut rng)
        }) {
            self.counts.smacof_iters.push(sol.iterations as f64);
            slow |= sol.normalized_stress >= localizer.outlier.stress_threshold_m;
        }
        if slow {
            self.counts.validation_rounds += 1;
        }
        let mut rng = StdRng::seed_from_u64(seed);
        if let Ok(h) = tracer.span("uw-localization.drop_hypotheses", id, |_| {
            drop_hypotheses(
                &d2,
                &localizer.smacof,
                &localizer.outlier,
                Some(&self.evidence),
                &mut rng,
            )
        }) {
            self.counts.hypotheses += h.len();
        }
        self.evidence
            .observe_round(&outcome.localization.dropped_links);
    }

    /// The stages of `estimate_arrival_dual`, each in its own span.
    fn detect_stages(
        &mut self,
        tracer: &mut Tracer,
        id: u64,
        mic1: &[f64],
        mic2: &[f64],
        sound_speed: f64,
    ) {
        let pre = &self.preamble;
        let Ok(corr) = tracer.span("uw-dsp.correlate", id, |_| pre.correlate_normalized(mic1))
        else {
            return;
        };
        let mut candidates = find_peaks_above(&corr, self.detector.correlation_threshold);
        candidates.sort_by(|&a, &b| corr[b].total_cmp(&corr[a]));
        candidates.truncate(self.detector.max_candidates);
        self.counts.candidates += candidates.len();
        let threshold = self.detector.validation_threshold;
        let scores: Vec<(usize, f64)> = tracer.span("uw-ranging.validate", id, |_| {
            candidates
                .iter()
                .filter_map(|&c| validation_score(mic1, pre, c).ok().map(|s| (c, s)))
                .collect()
        });
        let validated: Vec<(usize, f64)> = scores
            .into_iter()
            .filter(|&(_, s)| s >= threshold)
            .collect();
        self.counts.validated += validated.len();
        let Some(&(start, _)) = validated.iter().max_by(|a, b| a.1.total_cmp(&b.1)) else {
            return;
        };
        let fine = start.saturating_sub(uw_ranging::RangingConfig::default().backoff_samples);
        let Ok((h1, h2)) = tracer.span("uw-ranging.ls", id, |_| {
            Ok::<_, uw_ranging::RangingError>((
                ls_channel_estimate(mic1, pre, fine)?,
                ls_channel_estimate(mic2, pre, fine)?,
            ))
        }) else {
            return;
        };
        let los = LosConfig {
            sound_speed,
            ..LosConfig::default()
        };
        tracer.span("uw-ranging.los", id, |_| {
            std::hint::black_box(dual_mic_los(
                &h1.impulse_magnitude,
                &h2.impulse_magnitude,
                &los,
            ))
            .ok();
        });
    }
}
