//! What one run of one workload is asked to do.

use crate::metrics::RUN_SECONDS;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    TrainFig5,
    ServeDiverse,
    ServeTrunkBurst,
    ScoreOffline,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::TrainFig5,
        Workload::ServeDiverse,
        Workload::ServeTrunkBurst,
        Workload::ScoreOffline,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::TrainFig5 => "train_fig5",
            Workload::ServeDiverse => "serve_diverse",
            Workload::ServeTrunkBurst => "serve_trunk_burst",
            Workload::ScoreOffline => "score_offline",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

#[derive(Clone, Debug)]
pub struct RunConfig {
    pub workload: Workload,
    pub seed: u64,
    /// How long the timed section should take on the reference machine.
    /// The amount of work is fixed from this up front (window lengths,
    /// burst sizes, example counts), never by watching the clock, so the
    /// same `--seconds` always means the same job.
    pub seconds: f64,
    pub trace: bool,
    /// Smallest sizes that still exercise every code path and every
    /// correctness check; timings are meaningless and unreported.
    pub quick: bool,
}

impl RunConfig {
    /// Work multiplier relative to the nominal run length.
    pub fn scale(&self) -> f64 {
        if self.quick {
            0.02
        } else {
            (self.seconds / RUN_SECONDS as f64).clamp(0.02, 3.0)
        }
    }

    /// `nominal` scaled, rounded to a multiple of `step`, at least `step`.
    pub fn scaled(&self, nominal: usize, step: usize) -> usize {
        let n = (nominal as f64 * self.scale() / step as f64).round() as usize;
        n.max(1) * step
    }
}
