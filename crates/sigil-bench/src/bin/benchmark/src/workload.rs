//! The five workloads, the scale they run at, and the interface the
//! runner drives them through.

use std::collections::BTreeMap;

use sigil_core::SigilConfig;
use sigil_workloads::InputSize;

use crate::batch::Input;
use crate::checks::Checks;
use crate::json::Json;
use crate::speed::RefClock;

/// The seed the committed digests were made at.
pub const DEFAULT_SEED: u64 = 1;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    SuiteSerial,
    SuiteSharded2,
    DedupVipsFull,
    ServeTwoLanes,
    VmGuest,
}

impl Kind {
    pub const ALL: [Kind; 5] = [
        Kind::SuiteSerial,
        Kind::SuiteSharded2,
        Kind::DedupVipsFull,
        Kind::ServeTwoLanes,
        Kind::VmGuest,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Kind::SuiteSerial => "suite_serial",
            Kind::SuiteSharded2 => "suite_sharded2",
            Kind::DedupVipsFull => "dedup_vips_full",
            Kind::ServeTwoLanes => "serve_two_lanes",
            Kind::VmGuest => "vm_guest",
        }
    }

    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// Fewest timed samples per run: passes, or sessions per lane for the
    /// served workload, whose medians then have ten sessions beyond them.
    pub fn min_samples(self) -> usize {
        match self {
            Kind::ServeTwoLanes => 20,
            _ => 3,
        }
    }
}

/// How large the inputs are: the benchmark proper, or a smoke scale
/// that exercises the same code in a fraction of the time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scale {
    pub size: InputSize,
    /// Generated guest programs in `vm_guest`.
    pub programs: u64,
}

impl Scale {
    pub const FULL: Scale = Scale {
        size: InputSize::SimLarge,
        programs: 4096,
    };
    #[cfg(test)]
    pub const SMOKE: Scale = Scale {
        size: InputSize::SimSmall,
        programs: 32,
    };
}

/// How long a timed phase runs: closed-loop passes (or sessions) until
/// another would overrun `seconds`, but never fewer than `min`.
#[derive(Debug, Clone, Copy)]
pub struct Budget {
    pub seconds: f64,
    pub min: usize,
}

/// What one timed phase measured. Each vector holds one sample per pass
/// (per lanes run for the served workload), except `op_ms`: the latency
/// of every profile or session. `events_per_s` and
/// `sigil_added_ns_per_event` are in reference seconds (see `speed`);
/// `wall_s` and `op_ms` are wall time.
#[derive(Debug, Default)]
pub struct Timed {
    pub wall_s: Vec<f64>,
    pub events_per_s: Vec<f64>,
    pub sigil_added_ns_per_event: Vec<f64>,
    /// `events_per_s` by wall time.
    pub wall_events_per_s: Vec<f64>,
    /// The host's slowdown over the sample: wall over reference time.
    pub slowdown: Vec<f64>,
    pub op_ms: Vec<f64>,
    /// Per-layer numbers the workload measures itself (served stages,
    /// encoded event-file sizes).
    pub layers: BTreeMap<&'static str, f64>,
    /// Workload-specific numbers kept in the record.
    pub details: Json,
}

/// The recorded inputs and profiler configuration the traced ladder
/// climbs to.
pub struct LadderSpec<'a> {
    pub inputs: &'a [Input],
    pub config: SigilConfig,
    /// Extra per-pass work the ladder does not replay (encode, analyses),
    /// as span names whose totals join the layer sum.
    pub span_layers: &'static [&'static str],
    /// Whether a pass runs each input's Callgrind and Sigil arms by
    /// direct generation, so the ladder can predict the pass time.
    pub models_pass: bool,
}

pub trait Workload {
    /// The cold warm-up pass (or round of sessions); returns its wall
    /// time in seconds.
    fn first_pass(&mut self, checks: &mut Checks) -> f64;
    /// Closed-loop timed passes, calibrating `clock` between operations.
    fn timed(&mut self, budget: Budget, clock: &mut RefClock, checks: &mut Checks) -> Timed;
    /// Untimed output checks after timing.
    fn verify(&mut self, checks: &mut Checks);
    /// Peak RSS of the profiling process, in MiB, and how it was read.
    /// The served workload stops its daemon to read it, and the batch
    /// workloads drop their reference outputs, so call this last.
    fn peak_rss_mib(&mut self, checks: &mut Checks) -> (f64, Json);
    /// What the traced ladder replays.
    fn ladder(&self) -> LadderSpec<'_>;
}
