//! What every workload provides, and the helpers they share.

use std::time::Instant;

use decisive::engine::model_fp;
use decisive::obs::Telemetry;
use decisive::ssam::architecture::Component;
use decisive::ssam::id::Idx;
use decisive::ssam::model::SsamModel;

/// Worker threads of every engine the benchmark builds: the machine's two
/// vCPUs, so no workload oversubscribes them.
pub const JOBS: usize = 2;

/// One workload: generated inputs, program state built by [`Workload::setup`],
/// and a seeded script with a fixed number of ops.
pub trait Workload {
    /// Builds the program state from the generated inputs, including the
    /// cold first analysis of every subject, recording into `telemetry`.
    /// Returns the seconds the program itself took; generator work such as
    /// copying a model is left out.
    fn setup(&mut self, telemetry: Telemetry) -> Result<f64, String>;

    /// Runs step `step` of the script and
    /// returns its latency in milliseconds with whether its output was
    /// right. With `probes`, also times calls into single layers on the
    /// op's inputs, after the op's timed window.
    fn op(&mut self, step: usize, probes: Option<&mut Probes>) -> (f64, Result<(), String>);

    /// The output checks run after the timed loop, by name.
    fn checks(&mut self) -> Vec<(&'static str, Result<(), String>)>;

    /// Artifacts held by the program's cache at this point.
    fn cache_entries(&self) -> usize;
}

/// Benchmark-timed calls into single layers, in milliseconds per call.
#[derive(Debug, Default)]
pub struct Probes {
    /// `component_fingerprint` of every component plus the top's
    /// `topology_fingerprint`.
    pub model_fp: Vec<f64>,
    /// `serialized_fingerprint` of the op's FMEA table.
    pub serialized_fp: Vec<f64>,
    /// `persist::load_model` on the request's model file.
    pub load_model: Vec<f64>,
    /// `blocks::text::from_text` on the request's `.bd` file.
    pub parse: Vec<f64>,
}

/// Runs `f` and returns its result with its wall time in milliseconds.
pub fn time_ms<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let started = Instant::now();
    let result = f();
    (result, started.elapsed().as_secs_f64() * 1e3)
}

/// Runs one timed op: a `bench:op` span marks its window on the trace
/// timeline when `telemetry` records.
pub fn timed_op<R>(telemetry: &Telemetry, f: impl FnOnce() -> R) -> (R, f64) {
    let _window = telemetry.enabled().then(|| telemetry.span("bench:op", "bench"));
    time_ms(f)
}

/// Times fingerprinting `model` the way an engine run does: every
/// component, then the topology under `top`.
pub fn time_model_fp(model: &SsamModel, top: Idx<Component>) -> f64 {
    let (_, ms) = time_ms(|| {
        for (idx, _) in model.components.iter() {
            std::hint::black_box(model_fp::component_fingerprint(model, idx));
        }
        std::hint::black_box(model_fp::topology_fingerprint(model, top));
    });
    ms
}

/// SplitMix64: the benchmark's seeded generator, one `u64` of state.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed` and a stream label, so workloads drawing
    /// from the same seed do not share a sequence.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xa076_1d64_78bd_642f));
        rng.next_u64();
        rng
    }

    /// The next value.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A value in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}
