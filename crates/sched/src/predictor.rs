//! The Storlie-style per-job power predictor.
//!
//! Storlie et al. (PAPERS.md) admit jobs against a power budget using a
//! per-job *prediction* of draw rather than worst-case nameplate power.
//! Here the prediction comes from the paper's own machinery: each
//! [`WorkloadClass`] is a characterized [`ProgressModel`] (β from the
//! registry, uncapped package draw from the testbed), so one model
//! answers both admission questions:
//!
//! - **power**: what will `nodes` nodes of this class draw under a given
//!   per-node cap (with a safety margin playing the role of Storlie's
//!   upper quantile)?
//! - **time**: how much *slower* does the job run at that cap — the
//!   model's Eq. 4/5 slowdown, which is what a tenant's eco-mode slack
//!   declaration is compared against (via the closed-form inverse
//!   query, [`ProgressModel::required_cap_for_rate`]).

use serde::{Deserialize, Serialize};

use cluster::error::ConfigError;
use powermodel::predict::{ProgressModel, PAPER_ALPHA};

use crate::job::{JobSpec, WorkloadClass};

/// Predictor tuning: the machine's per-node cap range and the admission
/// safety margin.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PredictorConfig {
    /// Lowest per-node cap the scheduler will ever run a job at, W.
    pub min_cap_w: f64,
    /// The machine's full per-node cap, W (what "100 % speed" means for
    /// runtime estimates).
    pub max_cap_w: f64,
    /// Multiplier on the predicted class draw — the upper-quantile
    /// margin of a Storlie-style predictor (1.05 = admit against a 5 %
    /// over-prediction so transients don't trip the breaker).
    pub margin: f64,
}

impl Default for PredictorConfig {
    fn default() -> Self {
        Self {
            min_cap_w: 40.0,
            max_cap_w: 130.0,
            margin: 1.05,
        }
    }
}

impl PredictorConfig {
    /// Validate: a non-empty positive cap range and a margin ≥ 1.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if !(self.min_cap_w > 0.0 && self.min_cap_w <= self.max_cap_w && self.max_cap_w.is_finite())
        {
            return Err(ConfigError::new(
                "PredictorConfig.min_cap_w",
                format!(
                    "need 0 < min_cap_w ({} W) <= max_cap_w ({} W)",
                    self.min_cap_w, self.max_cap_w
                ),
            ));
        }
        if !(self.margin.is_finite() && self.margin >= 1.0) {
            return Err(ConfigError::new(
                "PredictorConfig.margin",
                format!(
                    "margin {} must be >= 1 (an under-prediction margin",
                    self.margin
                ) + " would defeat the admission test)",
            ));
        }
        Ok(())
    }
}

/// The per-class power/slowdown predictor.
#[derive(Debug, Clone)]
pub struct PowerPredictor {
    cfg: PredictorConfig,
    /// One characterized model per [`WorkloadClass::ALL`] entry, with
    /// `r_max` normalized to 1 so rates read directly as speed fractions.
    models: [ProgressModel; 4],
}

impl PowerPredictor {
    /// Build the predictor for a validated configuration.
    pub fn new(cfg: PredictorConfig) -> Result<Self, ConfigError> {
        cfg.validate()?;
        let models = WorkloadClass::ALL.map(|c| {
            ProgressModel::from_uncapped_run(c.beta(), PAPER_ALPHA, c.uncapped_node_power_w(), 1.0)
        });
        Ok(Self { cfg, models })
    }

    /// The configuration this predictor was built with.
    pub fn config(&self) -> &PredictorConfig {
        &self.cfg
    }

    /// The characterized model for one class.
    pub fn model(&self, class: WorkloadClass) -> &ProgressModel {
        // Indices follow the `WorkloadClass::ALL` order `models` is built in.
        let idx = match class {
            WorkloadClass::ComputeBound => 0,
            WorkloadClass::MonteCarlo => 1,
            WorkloadClass::Solver => 2,
            WorkloadClass::Streaming => 3,
        };
        &self.models[idx]
    }

    /// Predicted per-node package draw under a per-node cap, W: the
    /// margined class draw, ceilinged by the cap itself (RAPL enforces
    /// the cap; the margin only matters below the class's natural draw).
    pub fn node_power_w(&self, class: WorkloadClass, cap_w: f64) -> f64 {
        (class.uncapped_node_power_w() * self.cfg.margin).min(cap_w)
    }

    /// Predicted whole-job draw under a per-node cap, W.
    pub fn job_power_w(&self, spec: &JobSpec, cap_w: f64) -> f64 {
        spec.nodes as f64 * self.node_power_w(spec.class, cap_w)
    }

    /// Relative slowdown of this class at `cap_w` versus the machine's
    /// full cap (≥ 1; 1 at the full cap). This is the quantity a
    /// tenant's eco-slack declaration bounds: runtime estimates are
    /// quoted at the full cap, so `runtime × relative_slowdown` is the
    /// predicted runtime at `cap_w`.
    pub fn relative_slowdown(&self, class: WorkloadClass, cap_w: f64) -> f64 {
        let m = self.model(class);
        m.predict_rate(self.cfg.max_cap_w) / m.predict_rate(cap_w)
    }

    /// Predicted runtime of `spec` when granted `cap_w` per node, s.
    pub fn duration_s(&self, spec: &JobSpec, cap_w: f64) -> f64 {
        spec.runtime_s * self.relative_slowdown(spec.class, cap_w)
    }

    /// **Inverse query**: the smallest per-node cap at which this class
    /// stays within a relative slowdown of `slowdown` (≥ 1) versus the
    /// full cap, clamped into the machine's cap range. The eco-aware
    /// admission controller runs a slack-declaring job here — the
    /// slowest operating point the tenant consented to — freeing
    /// envelope for more tenants.
    pub fn cap_for_relative_slowdown(&self, class: WorkloadClass, slowdown: f64) -> f64 {
        assert!(slowdown >= 1.0, "a slowdown bound below 1 is a speedup");
        let m = self.model(class);
        let target_rate = m.predict_rate(self.cfg.max_cap_w) / slowdown;
        m.required_cap_for_rate(target_rate)
            .unwrap_or(0.0)
            .clamp(self.cfg.min_cap_w, self.cfg.max_cap_w)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pred() -> PowerPredictor {
        PowerPredictor::new(PredictorConfig::default()).unwrap()
    }

    fn spec(class: WorkloadClass, nodes: usize) -> JobSpec {
        JobSpec {
            id: 0,
            tenant: 0,
            nodes,
            runtime_s: 100.0,
            class,
            eco_slack: 0.0,
            arrival_s: 0.0,
        }
    }

    #[test]
    fn power_is_margined_class_draw_ceilinged_by_the_cap() {
        let p = pred();
        // At the full 130 W cap every class is cap-limited (all draws
        // exceed 130/1.05), so prediction = cap.
        assert_eq!(p.node_power_w(WorkloadClass::ComputeBound, 130.0), 130.0);
        // Below the class draw, the cap is the prediction; a 4-node job
        // scales linearly.
        assert_eq!(p.job_power_w(&spec(WorkloadClass::Solver, 4), 80.0), 320.0);
        // Above the margined draw, the margin caps it: AMG at 120 W
        // natural × 1.05 = 126 W < a 130 W cap.
        assert!((p.node_power_w(WorkloadClass::Solver, 130.0) - 126.0).abs() < 1e-9);
    }

    #[test]
    fn slowdown_is_one_at_the_full_cap_and_grows_below() {
        let p = pred();
        for class in WorkloadClass::ALL {
            assert!((p.relative_slowdown(class, 130.0) - 1.0).abs() < 1e-12);
            let s80 = p.relative_slowdown(class, 80.0);
            let s60 = p.relative_slowdown(class, 60.0);
            assert!(s60 > s80 && s80 >= 1.0, "{class:?}: {s80} {s60}");
        }
        // Memory-bound classes barely feel the cap; compute-bound ones
        // feel it fully (the paper's β ordering).
        assert!(
            p.relative_slowdown(WorkloadClass::Streaming, 80.0)
                < p.relative_slowdown(WorkloadClass::ComputeBound, 80.0)
        );
    }

    #[test]
    fn inverse_query_roundtrips_through_the_slowdown() {
        let p = pred();
        for class in WorkloadClass::ALL {
            for bound in [1.05, 1.2, 1.5] {
                let cap = p.cap_for_relative_slowdown(class, bound);
                assert!(
                    p.relative_slowdown(class, cap) <= bound + 1e-9,
                    "{class:?} at {cap} W violates the {bound} bound"
                );
            }
        }
        // A streaming job tolerating 20 % can drop much deeper than a
        // compute-bound one: that asymmetry is the eco-mode payoff.
        assert!(
            p.cap_for_relative_slowdown(WorkloadClass::Streaming, 1.2)
                < p.cap_for_relative_slowdown(WorkloadClass::ComputeBound, 1.2)
        );
    }

    #[test]
    fn eco_cap_saves_energy_per_unit_work() {
        // power × duration at the eco cap must undercut the full cap:
        // the reason eco-mode beats the baseline on energy, not just
        // admission.
        let p = pred();
        let s = spec(WorkloadClass::MonteCarlo, 8);
        let full = p.job_power_w(&s, 130.0) * p.duration_s(&s, 130.0);
        let cap = p.cap_for_relative_slowdown(s.class, 1.2);
        let eco = p.job_power_w(&s, cap) * p.duration_s(&s, cap);
        assert!(
            eco < full * 0.95,
            "eco {eco:.0} J should undercut full {full:.0} J"
        );
    }

    #[test]
    fn invalid_configs_are_named() {
        let e = PowerPredictor::new(PredictorConfig {
            margin: 0.9,
            ..PredictorConfig::default()
        })
        .unwrap_err();
        assert_eq!(e.what, "PredictorConfig.margin");
        let e = PowerPredictor::new(PredictorConfig {
            min_cap_w: 200.0,
            ..PredictorConfig::default()
        })
        .unwrap_err();
        assert_eq!(e.what, "PredictorConfig.min_cap_w");
    }
}
