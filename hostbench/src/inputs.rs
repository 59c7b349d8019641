//! The pinned generation parameters of every workload, the seeded input
//! generator, and the input digest.
//!
//! Every parameter that shapes a workload's inputs lives in this file as a
//! literal. Arrival rates are stored in requests per millisecond rather
//! than re-derived from plan timing, so a change to the simulator's timing
//! model cannot change what the benchmark measures. The digest of the
//! default seed's inputs is recorded in [`Workload::pinned_digest`]; the benchmark
//! refuses to report when a regeneration disagrees with it.

use dnn_models::ModelKind;
use prema_workload::arrivals::{generate_open_loop, OpenLoopConfig};
use prema_workload::{
    generate_workload, FaultKind, FaultProcess, FaultSchedule, LinkFaultKind, LinkFaultProcess,
    WorkloadConfig, WorkloadSpec,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The seed whose input digest [`Workload::pinned_digest`] records.
pub const DEFAULT_SEED: u64 = 1;

/// paper-grid: seeded 8-task batches (`WorkloadConfig::paper_default`:
/// the eight evaluation DNNs, batch 1, uniform priorities, 20 ms dispatch
/// window), each replayed under the 14 configurations of Figs 11-12.
pub const GRID_BATCHES: usize = 500;
/// paper-grid: every this-many-th batch also replays through the
/// step-every-quantum reference engine, outside the timed region.
pub const GRID_REFERENCE_EVERY: usize = 50;

/// fleet-1024: NP-FCFS nodes behind the front-end.
pub const FLEET_NODES: usize = 1024;
/// fleet-1024: Poisson arrival rate, requests per millisecond (offered load
/// 0.95 at the 19.948 ms mean isolated service time of the model mix).
pub const FLEET_RATE_PER_MS: f64 = 48.766_504_230_711_41;
/// fleet-1024: length of the arrival window, milliseconds.
pub const FLEET_WINDOW_MS: f64 = 400.0;

/// storm-256: independent storms a pass replays, one cell each.
pub const STORM_STREAMS: usize = 8;
/// storm-256: Dynamic-PREMA nodes behind the front-end.
pub const STORM_NODES: usize = 256;
/// storm-256: Poisson arrival rate, requests per millisecond (offered load
/// 0.85 at the same mean service time).
pub const STORM_RATE_PER_MS: f64 = 10.908_296_998_974_92;
/// storm-256: length of the arrival window, milliseconds.
pub const STORM_WINDOW_MS: f64 = 200.0;
/// storm-256: SLA admission's p99 turnaround target, milliseconds.
pub const STORM_ADMISSION_P99_MS: f64 = 360.0;
/// storm-256: the migration SLA, milliseconds.
pub const STORM_MIGRATION_SLA_MS: f64 = 400.0;
/// storm-256: the custody layer's delivery deadline, milliseconds.
pub const STORM_DELIVERY_TIMEOUT_MS: f64 = 0.02;
/// storm-256: node faults strike nodes `0..STORM_FAULT_NODES`.
pub const STORM_FAULT_NODES: usize = 64;
/// storm-256: mean up-time between fault windows per node, milliseconds.
pub const STORM_FAULT_MTBF_MS: f64 = 120.0;
/// storm-256: mean fault-window length, milliseconds.
pub const STORM_FAULT_WINDOW_MS: f64 = 12.0;
/// storm-256: share of fault windows that are freezes.
pub const STORM_FREEZE_FRACTION: f64 = 0.2;
/// storm-256: share of fault windows that are degrade windows.
pub const STORM_DEGRADE_FRACTION: f64 = 0.4;
/// storm-256: degraded clock, as a fraction of full speed.
pub const STORM_DEGRADE_SPEED: (u32, u32) = (1, 8);
/// storm-256: link faults strike the directed links among nodes
/// `0..STORM_LINK_NODES`.
pub const STORM_LINK_NODES: usize = 16;
/// storm-256: mean up-time between fault windows per directed link,
/// milliseconds.
pub const STORM_LINK_MTBF_MS: f64 = 100.0;
/// storm-256: mean link fault-window length, milliseconds.
pub const STORM_LINK_OUTAGE_MS: f64 = 40.0;
/// storm-256: share of link windows that throttle instead of severing.
pub const STORM_LINK_DEGRADED_FRACTION: f64 = 0.9;
/// storm-256: throttled link bandwidth, as a fraction of nominal.
pub const STORM_LINK_BANDWIDTH: (u32, u32) = (1, 128);

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Seeded 8-task batches under the 14 single-NPU configurations.
    PaperGrid,
    /// One Poisson stream on 1,024 NP-FCFS nodes under three dispatchers.
    Fleet,
    /// Every synchronized mechanism and fault class on 256 PREMA nodes.
    Storm,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 3] = [Workload::PaperGrid, Workload::Fleet, Workload::Storm];

    /// The name the command line and `BENCHMARK.json` use.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperGrid => "paper-grid",
            Workload::Fleet => "fleet-1024",
            Workload::Storm => "storm-256",
        }
    }

    /// Looks a workload up by name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The recorded digest of this workload's inputs at [`DEFAULT_SEED`].
    pub fn pinned_digest(self) -> u64 {
        match self {
            Workload::PaperGrid => 0x145a_3e51_b81c_eec9,
            Workload::Fleet => 0x327f_f9cb_c0d0_5f1a,
            Workload::Storm => 0x8423_f6bc_72cc_b859,
        }
    }
}

/// A workload's generated inputs: what the simulator is handed.
#[derive(Debug, Clone, PartialEq)]
pub struct Inputs {
    /// The request sets: paper-grid's 8-task batches, fleet-1024's one
    /// stream, storm-256's [`STORM_STREAMS`] streams.
    pub specs: Vec<WorkloadSpec>,
    /// The node and link fault windows each request set meets (empty
    /// schedules outside storm-256).
    pub faults: Vec<FaultSchedule>,
}

/// A splitmix64 step: derives independent sub-seeds from one seed.
pub fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_add(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(stream.wrapping_mul(0xd1b5_4a32_d192_ed03));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Generates `workload`'s inputs from `seed`; the same seed always gives
/// the same inputs.
pub fn generate(workload: Workload, seed: u64) -> Inputs {
    let specs: Vec<WorkloadSpec> = match workload {
        Workload::PaperGrid => (0..GRID_BATCHES as u64)
            .map(|batch| {
                let mut rng = StdRng::seed_from_u64(mix(seed, batch));
                generate_workload(&WorkloadConfig::paper_default(), &mut rng)
            })
            .collect(),
        Workload::Fleet => {
            let mut rng = StdRng::seed_from_u64(mix(seed, 0));
            let config = OpenLoopConfig::poisson(FLEET_RATE_PER_MS, FLEET_WINDOW_MS);
            vec![generate_open_loop(&config, &mut rng)]
        }
        Workload::Storm => {
            let (specs, faults) = (0..STORM_STREAMS as u64)
                .map(|stream| storm(mix(seed, stream)))
                .unzip();
            return Inputs { specs, faults };
        }
    };
    let faults = vec![FaultSchedule::none(); specs.len()];
    Inputs { specs, faults }
}

/// One storm: a request stream, then the node fault windows, then the link
/// fault windows, all from one RNG.
fn storm(seed: u64) -> (WorkloadSpec, FaultSchedule) {
    let mut rng = StdRng::seed_from_u64(seed);
    let config = OpenLoopConfig::poisson(STORM_RATE_PER_MS, STORM_WINDOW_MS);
    let requests = generate_open_loop(&config, &mut rng);
    let (speed_num, speed_den) = STORM_DEGRADE_SPEED;
    let nodes = FaultProcess::crashes(
        STORM_FAULT_NODES,
        STORM_FAULT_MTBF_MS,
        STORM_FAULT_WINDOW_MS,
        STORM_WINDOW_MS,
    )
    .with_freeze_fraction(STORM_FREEZE_FRACTION)
    .with_degradation(STORM_DEGRADE_FRACTION, speed_num, speed_den)
    .generate(&mut rng);
    let (bandwidth_num, bandwidth_den) = STORM_LINK_BANDWIDTH;
    let links = LinkFaultProcess::outages(
        STORM_LINK_NODES,
        STORM_LINK_MTBF_MS,
        STORM_LINK_OUTAGE_MS,
        STORM_WINDOW_MS,
    )
    .with_degraded(STORM_LINK_DEGRADED_FRACTION, bandwidth_num, bandwidth_den)
    .generate(&mut rng);
    (requests, nodes.with_links(links))
}

impl Inputs {
    /// The FNV-1a digest of the inputs: every request's id, model, batch,
    /// priority, sequence lengths and arrival, then every node and link
    /// fault window.
    pub fn digest(&self) -> u64 {
        let mut digest = Fnv::default();
        for spec in &self.specs {
            digest.word(spec.len() as u64);
            for request in &spec.requests {
                digest.word(request.id.0);
                digest.word(model_code(request.model));
                digest.word(request.batch);
                digest.word(request.priority.index() as u64);
                digest.word(request.seq.input_len);
                digest.word(request.seq.output_len);
                digest.word(request.arrival.get());
            }
        }
        for faults in &self.faults {
            digest.word(faults.events.len() as u64);
            for fault in &faults.events {
                let (kind, num, den) = match fault.kind {
                    FaultKind::Crash => (0, 0, 0),
                    FaultKind::Freeze => (1, 0, 0),
                    FaultKind::Degrade {
                        speed_num,
                        speed_den,
                    } => (2, speed_num, speed_den),
                };
                digest.words(&[
                    fault.node as u64,
                    fault.start.get(),
                    fault.end.get(),
                    kind,
                    u64::from(num),
                    u64::from(den),
                ]);
            }
            digest.word(faults.links.len() as u64);
            for link in &faults.links {
                let (kind, num, den) = match link.kind {
                    LinkFaultKind::Down => (0, 0, 0),
                    LinkFaultKind::Degraded {
                        bandwidth_num,
                        bandwidth_den,
                    } => (1, bandwidth_num, bandwidth_den),
                };
                digest.words(&[
                    link.from as u64,
                    link.to as u64,
                    link.start.get(),
                    link.end.get(),
                    kind,
                    u64::from(num),
                    u64::from(den),
                ]);
            }
        }
        digest.finish()
    }
}

/// A stable code per model (its position in the evaluation set), so the
/// digest does not depend on how the type prints.
fn model_code(model: ModelKind) -> u64 {
    dnn_models::ALL_EVAL_MODELS
        .iter()
        .position(|&m| m == model)
        .map_or(u64::MAX, |i| i as u64)
}

/// 64-bit FNV-1a over little-endian words: stable across toolchains,
/// unlike the standard library's default hasher.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Folds one word into the digest.
    pub fn word(&mut self, word: u64) {
        for byte in word.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// Folds several words, in order.
    pub fn words(&mut self, words: &[u64]) {
        for &word in words {
            self.word(word);
        }
    }

    /// The digest so far.
    pub fn finish(self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use npu_sim::Cycles;

    #[test]
    fn one_seed_generates_identical_inputs_and_digests() {
        for workload in Workload::ALL {
            let a = generate(workload, 7);
            let b = generate(workload, 7);
            assert_eq!(a, b, "{}", workload.name());
            assert_eq!(a.digest(), b.digest(), "{}", workload.name());
            assert_ne!(
                a.digest(),
                generate(workload, 8).digest(),
                "{}",
                workload.name()
            );
        }
    }

    #[test]
    fn default_seed_digests_match_the_recorded_ones() {
        for workload in Workload::ALL {
            assert_eq!(
                generate(workload, DEFAULT_SEED).digest(),
                workload.pinned_digest(),
                "{}",
                workload.name()
            );
        }
    }

    #[test]
    fn digest_covers_fault_windows() {
        let inputs = generate(Workload::Storm, DEFAULT_SEED);
        assert_eq!(inputs.specs.len(), STORM_STREAMS);
        assert_eq!(inputs.faults.len(), STORM_STREAMS);
        assert!(inputs
            .faults
            .iter()
            .all(|f| !f.events.is_empty() && !f.links.is_empty()));
        let mut shifted = inputs.clone();
        shifted.faults[0].links[0].end += Cycles::new(1);
        assert_ne!(inputs.digest(), shifted.digest());
    }

    #[test]
    fn workload_names_round_trip() {
        for workload in Workload::ALL {
            assert_eq!(Workload::from_name(workload.name()), Some(workload));
        }
        assert_eq!(Workload::from_name("nope"), None);
    }

    #[test]
    fn fnv_matches_the_published_offset_basis() {
        assert_eq!(Fnv::default().finish(), 0xcbf2_9ce4_8422_2325);
    }
}
