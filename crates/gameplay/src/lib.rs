//! # msopds-gameplay
//!
//! The multiplayer poisoning game simulator: the attacker commits first, the
//! opponents respond sequentially (each planning a demotion Comprehensive
//! Attack with BOPDS on the observed, already-poisoned data), and the victim
//! Het-RecSys is retrained from scratch to measure the §VI-A.6 metrics.

#![warn(missing_docs)]

pub mod detectors;
pub mod game;

pub use detectors::{
    run_defended_game_with, scrub, DegreeOutlierDetector, DetectionReport, Detector, DistMetric,
    DistributionDetector, ModeratorDetector, ShadowBanPolicy, SpectralDetector,
};
pub use game::{
    play_world, ranking_pool, run_game, score_world, AttackMethod, GameConfig, GameOutcome,
    PlayedWorld,
};
