//! EECS configuration.

use crate::controller::QuarantinePolicy;
use crate::profile::DowngradeRule;
use crate::telemetry::Telemetry;
use crate::{EecsError, Result};
use eecs_detect::eval::EvalConfig;
use eecs_detect::health::HealthPolicy;
use eecs_energy::comm::LinkModel;
use eecs_energy::model::DeviceEnergyModel;
use eecs_manifold::similarity::SimilarityConfig;
use eecs_net::reliable::RetryPolicy;
use std::fmt;

/// A structural problem in a simulation or framework configuration,
/// caught at construction instead of panicking rounds later.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ConfigError {
    /// The rig has no cameras at all.
    NoCameras,
    /// More cameras requested than the rig supports.
    TooManyCameras {
        /// Cameras requested.
        requested: usize,
        /// The rig's maximum.
        max: usize,
    },
    /// The frame range `[start, end)` contains no frames, so the run has
    /// zero rounds.
    EmptyFrameRange {
        /// Requested first frame.
        start: usize,
        /// Requested end frame (exclusive).
        end: usize,
    },
    /// The per-frame energy budget is NaN or infinite.
    NonFiniteBudget(f64),
    /// The per-frame energy budget is negative.
    NegativeBudget(f64),
    /// A nested knob (EECS tunables, health or quarantine policy) is out
    /// of its domain.
    BadKnob(String),
    /// `PartitionPolicy::election_timeout_rounds` is zero: an island
    /// would elect an acting controller the instant a probe round is
    /// missed, turning every transient hiccup into a split brain.
    ZeroElectionTimeout,
    /// `PartitionPolicy::max_epoch_skew` is zero: no handover could ever
    /// pass the fencing check, since a legitimate successor is always at
    /// least one epoch ahead of its audience.
    ZeroEpochSkew,
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::NoCameras => write!(f, "simulation needs at least one camera"),
            ConfigError::TooManyCameras { requested, max } => {
                write!(f, "{requested} cameras requested, the rig has {max}")
            }
            ConfigError::EmptyFrameRange { start, end } => {
                write!(f, "frame range [{start}, {end}) holds no rounds")
            }
            ConfigError::NonFiniteBudget(v) => {
                write!(f, "per-frame budget must be finite, got {v}")
            }
            ConfigError::NegativeBudget(v) => {
                write!(f, "per-frame budget must be non-negative, got {v}")
            }
            ConfigError::BadKnob(msg) => write!(f, "bad configuration knob: {msg}"),
            ConfigError::ZeroElectionTimeout => {
                write!(f, "partition election timeout must be at least 1 round")
            }
            ConfigError::ZeroEpochSkew => {
                write!(f, "partition max epoch skew must be at least 1")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

impl From<ConfigError> for EecsError {
    fn from(e: ConfigError) -> Self {
        EecsError::InvalidArgument(e.to_string())
    }
}

/// How islands behave when a partition cuts them off from the
/// controller seat.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PartitionPolicy {
    /// Rounds an island tolerates without hearing any seat before it
    /// elects its own acting controller. Must be positive — a zero
    /// timeout would split the brain on every missed probe.
    pub election_timeout_rounds: usize,
    /// How far ahead of a receiver's fenced epoch an announced epoch may
    /// run and still be accepted. Must be positive; a successor is
    /// always at least one epoch ahead. Announcements beyond the skew
    /// are treated as corrupt and ignored.
    pub max_epoch_skew: u64,
}

impl Default for PartitionPolicy {
    fn default() -> Self {
        PartitionPolicy {
            election_timeout_rounds: 1,
            max_epoch_skew: 8,
        }
    }
}

impl PartitionPolicy {
    /// Validates the policy.
    ///
    /// # Errors
    ///
    /// Returns the first out-of-domain knob as a typed [`ConfigError`].
    pub fn validate(&self) -> std::result::Result<(), ConfigError> {
        if self.election_timeout_rounds == 0 {
            return Err(ConfigError::ZeroElectionTimeout);
        }
        if self.max_epoch_skew == 0 {
            return Err(ConfigError::ZeroEpochSkew);
        }
        Ok(())
    }
}

/// All tunables of the framework, defaulted to the paper's evaluation
/// settings (Section VI-E).
#[derive(Debug, Clone, PartialEq)]
pub struct EecsConfig {
    /// `γ_n`: required fraction of the baseline object count `N*`.
    pub gamma_n: f64,
    /// `γ_p`: required fraction of the baseline mean probability `P*`.
    pub gamma_p: f64,
    /// Accuracy-assessment duration in frames (paper: 100).
    pub assessment_period: usize,
    /// Recalibration interval in frames (paper: 500).
    pub recalibration_interval: usize,
    /// Number of key frames uploaded for video comparison (paper: 100).
    pub key_frames: usize,
    /// Video-similarity settings (`β`, scale).
    pub similarity: SimilarityConfig,
    /// Detection evaluation settings (IoU, visibility floor).
    pub eval: EvalConfig,
    /// Device energy constants.
    pub device: DeviceEnergyModel,
    /// Camera ↔ controller link.
    pub link: LinkModel,
    /// Ground-distance gate for homography re-identification (meters).
    pub reid_ground_gate_m: f64,
    /// Mahalanobis distance gate for the color verification step.
    pub reid_color_gate: f64,
    /// Downgrade policy (Section IV-B.4; `AnyCheaper` is the ablation).
    pub downgrade_rule: DowngradeRule,
    /// Ack/retry policy of the camera ↔ controller transport.
    pub retry: RetryPolicy,
    /// Graceful degradation: how many rounds old a silent camera's cached
    /// assessment data may be and still feed selection. Past this age the
    /// camera is excluded from the round instead.
    pub staleness_limit_rounds: usize,
    /// Detector sanity-check thresholds (NaN scores, count explosions,
    /// score collapse). The lenient defaults never trip on healthy
    /// detectors, so fault-free runs are unaffected.
    pub health: HealthPolicy,
    /// Backoff policy for quarantining (camera, algorithm) pairs whose
    /// detector output failed the health checks.
    pub quarantine: QuarantinePolicy,
    /// Controller-state checkpoint cadence in rounds (used only when a
    /// `ControllerFaultPlan` or `PartitionPlan` is armed): a checkpoint
    /// is taken at the end of every round whose index is a multiple of
    /// this.
    pub checkpoint_every: usize,
    /// Partition tolerance knobs: island election timeout and the epoch
    /// fencing skew bound (used only when a `PartitionPlan` is armed).
    pub partition: PartitionPolicy,
    /// Observability handle every layer of the hot path publishes into
    /// (metrics + trace events). The default [`Telemetry::null`] records
    /// nothing and keeps reports bit-identical to a build without the
    /// telemetry layer; equality compares the sink configuration, not
    /// recorded history.
    pub telemetry: Telemetry,
}

impl Default for EecsConfig {
    fn default() -> Self {
        EecsConfig {
            gamma_n: 0.85,
            gamma_p: 0.8,
            assessment_period: 100,
            recalibration_interval: 500,
            key_frames: 100,
            similarity: SimilarityConfig::default(),
            eval: EvalConfig::default(),
            device: DeviceEnergyModel::default(),
            link: LinkModel::default(),
            reid_ground_gate_m: 0.9,
            reid_color_gate: 8.0,
            downgrade_rule: DowngradeRule::default(),
            retry: RetryPolicy::default(),
            staleness_limit_rounds: 2,
            health: HealthPolicy::default(),
            quarantine: QuarantinePolicy::default(),
            checkpoint_every: 1,
            partition: PartitionPolicy::default(),
            telemetry: Telemetry::null(),
        }
    }
}

impl EecsConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`EecsError::InvalidArgument`] when γ values leave `(0, 1]`,
    /// periods are zero, or the assessment period exceeds the
    /// recalibration interval.
    pub fn validate(&self) -> Result<()> {
        for (name, v) in [("gamma_n", self.gamma_n), ("gamma_p", self.gamma_p)] {
            if !(0.0 < v && v <= 1.0) {
                return Err(EecsError::InvalidArgument(format!(
                    "{name} must be in (0, 1], got {v}"
                )));
            }
        }
        if self.assessment_period == 0 || self.recalibration_interval == 0 {
            return Err(EecsError::InvalidArgument(
                "assessment and recalibration periods must be positive".into(),
            ));
        }
        if self.assessment_period > self.recalibration_interval {
            return Err(EecsError::InvalidArgument(
                "assessment period cannot exceed the recalibration interval".into(),
            ));
        }
        if self.reid_ground_gate_m <= 0.0 || self.reid_color_gate <= 0.0 {
            return Err(EecsError::InvalidArgument(
                "re-identification gates must be positive".into(),
            ));
        }
        if self.retry.base_backoff_s < 0.0
            || self.retry.backoff_factor < 1.0
            || self.retry.max_backoff_s < self.retry.base_backoff_s
        {
            return Err(EecsError::InvalidArgument(
                "retry backoff must be non-negative, non-shrinking, and capped \
                 at or above its base"
                    .into(),
            ));
        }
        self.health
            .validate()
            .map_err(|m| EecsError::from(ConfigError::BadKnob(m)))?;
        self.quarantine
            .validate()
            .map_err(|m| EecsError::from(ConfigError::BadKnob(m)))?;
        if self.checkpoint_every == 0 {
            return Err(
                ConfigError::BadKnob("checkpoint_every must be at least 1 round".into()).into(),
            );
        }
        self.partition.validate().map_err(EecsError::from)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = EecsConfig::default();
        assert_eq!(c.gamma_n, 0.85);
        assert_eq!(c.gamma_p, 0.8);
        assert_eq!(c.assessment_period, 100);
        assert_eq!(c.recalibration_interval, 500);
        assert_eq!(c.key_frames, 100);
        c.validate().unwrap();
    }

    #[test]
    fn validation_rejects_bad_gammas() {
        let mut c = EecsConfig {
            gamma_n: 0.0,
            ..EecsConfig::default()
        };
        assert!(c.validate().is_err());
        c.gamma_n = 1.2;
        assert!(c.validate().is_err());
    }

    #[test]
    fn validation_rejects_bad_periods() {
        let mut c = EecsConfig {
            assessment_period: 0,
            ..EecsConfig::default()
        };
        assert!(c.validate().is_err());
        c = EecsConfig {
            assessment_period: 600,
            ..EecsConfig::default()
        };
        assert!(c.validate().is_err());
    }

    #[test]
    fn validation_rejects_bad_gates() {
        let c = EecsConfig {
            reid_ground_gate_m: 0.0,
            ..EecsConfig::default()
        };
        assert!(c.validate().is_err());
    }

    #[test]
    fn validation_rejects_bad_health_and_checkpoint_knobs() {
        let mut c = EecsConfig::default();
        c.health.max_detections = 0;
        assert!(c.validate().is_err());
        c = EecsConfig::default();
        c.quarantine.base_backoff_rounds = 0;
        assert!(c.validate().is_err());
        c = EecsConfig::default();
        c.checkpoint_every = 0;
        assert!(c.validate().is_err());
    }

    #[test]
    fn validation_rejects_zero_election_timeout() {
        let mut c = EecsConfig::default();
        c.partition.election_timeout_rounds = 0;
        let err = c.validate().unwrap_err();
        assert!(err.to_string().contains("election timeout"), "{err}");
        assert_eq!(
            PartitionPolicy {
                election_timeout_rounds: 0,
                ..PartitionPolicy::default()
            }
            .validate(),
            Err(ConfigError::ZeroElectionTimeout)
        );
    }

    #[test]
    fn validation_rejects_zero_epoch_skew() {
        let mut c = EecsConfig::default();
        c.partition.max_epoch_skew = 0;
        let err = c.validate().unwrap_err();
        assert!(err.to_string().contains("epoch skew"), "{err}");
        assert_eq!(
            PartitionPolicy {
                max_epoch_skew: 0,
                ..PartitionPolicy::default()
            }
            .validate(),
            Err(ConfigError::ZeroEpochSkew)
        );
    }

    #[test]
    fn config_error_display_and_conversion() {
        let e = ConfigError::EmptyFrameRange { start: 50, end: 50 };
        assert!(e.to_string().contains("[50, 50)"));
        let ee: EecsError = ConfigError::NoCameras.into();
        assert!(matches!(ee, EecsError::InvalidArgument(_)));
        assert!(ConfigError::NonFiniteBudget(f64::NAN)
            .to_string()
            .contains("finite"));
    }

    #[test]
    fn validation_rejects_bad_retry_policies() {
        let mut c = EecsConfig::default();
        c.retry.backoff_factor = 0.5;
        assert!(c.validate().is_err());
        c = EecsConfig::default();
        c.retry.max_backoff_s = c.retry.base_backoff_s / 2.0;
        assert!(c.validate().is_err());
        c = EecsConfig::default();
        c.retry.base_backoff_s = -1.0;
        assert!(c.validate().is_err());
    }
}
