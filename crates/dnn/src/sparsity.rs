//! Per-layer activation-density model (Figure 7 of the PREMA paper).
//!
//! The paper profiles VGGNet over 1000 ImageNet inferences and observes that
//! the per-layer activation density (the fraction of non-zero output
//! activations after ReLU) varies only slightly from input to input — this
//! stability is one of the two reasons DNN inference latency is predictable
//! even on sparsity-optimized NPUs (Section V-B, observation 3).
//!
//! We cannot re-run ImageNet through a GPU here, so this module substitutes a
//! synthetic generative model with the same qualitative shape: early
//! convolution layers are dense (~60–90 % non-zeros), density decays towards
//! the deeper layers (~20–40 %), fully-connected layers are sparsest, and the
//! per-input variation around each layer's mean density is small (a few
//! percent). The Figure 7 experiment consumes this model directly.

use rand::distributions::Distribution;
use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::layer::{Layer, LayerKind};
use crate::models::ModelKind;
use crate::network::Network;

/// Mean activation density and per-inference variation for one layer.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LayerDensityProfile {
    /// Mean fraction of non-zero output activations (0.0 – 1.0).
    pub mean_density: f64,
    /// Standard deviation of the density across inference inputs.
    pub std_dev: f64,
}

/// Synthetic activation-density model for a whole network.
///
/// ```
/// use dnn_models::{ActivationDensityModel, ModelKind, SeqSpec};
/// use rand::SeedableRng;
///
/// let net = ModelKind::CnnVggNet.build(1, SeqSpec::none());
/// let model = ActivationDensityModel::for_network(&net);
/// let mut rng = rand::rngs::StdRng::seed_from_u64(7);
/// let sample = model.sample(&mut rng);
/// assert_eq!(sample.len(), model.profiles().len());
/// assert!(sample.iter().all(|&d| (0.0..=1.0).contains(&d)));
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ActivationDensityModel {
    layer_names: Vec<String>,
    profiles: Vec<LayerDensityProfile>,
}

impl ActivationDensityModel {
    /// Builds the density model for every weight-bearing layer of a network.
    ///
    /// Only CONV/FC/RECR layers are profiled (they are the ones whose output
    /// activations feed a ReLU and therefore exhibit sparsity); pooling and
    /// stand-alone activation layers are skipped, matching the `c01..c13,
    /// fc1, fc2` x-axis of Figure 7.
    pub fn for_network(network: &Network) -> Self {
        let weighted: Vec<&Layer> = network
            .layers()
            .iter()
            .filter(|l| l.has_weights())
            .collect();
        let depth = weighted.len().max(1);
        let mut layer_names = Vec::with_capacity(weighted.len());
        let mut profiles = Vec::with_capacity(weighted.len());
        for (position, layer) in weighted.iter().enumerate() {
            layer_names.push(layer.name().to_string());
            profiles.push(Self::profile_for(layer, position, depth));
        }
        ActivationDensityModel {
            layer_names,
            profiles,
        }
    }

    /// Convenience constructor from a model kind at batch 1.
    pub fn for_model(kind: ModelKind) -> Self {
        Self::for_network(&kind.build(1, crate::SeqSpec::for_model(kind, 20)))
    }

    fn profile_for(layer: &Layer, position: usize, depth: usize) -> LayerDensityProfile {
        let relative_depth = position as f64 / depth.max(1) as f64;
        let mean_density = match layer.kind() {
            // Density decays with depth: early convs see dense natural-image
            // statistics, deep convs and classifiers see sparse ReLU outputs.
            LayerKind::Conv { .. } | LayerKind::DepthwiseConv { .. } => 0.85 - 0.5 * relative_depth,
            LayerKind::FullyConnected { .. } => 0.35 - 0.15 * relative_depth,
            LayerKind::Recurrent { .. } => 0.55 - 0.1 * relative_depth,
            LayerKind::Activation { .. } | LayerKind::Pool { .. } => 0.5,
        }
        .clamp(0.05, 0.95);
        // Small per-input variation, matching the narrow bands of Figure 7.
        let std_dev = 0.02 + 0.02 * relative_depth;
        LayerDensityProfile {
            mean_density,
            std_dev,
        }
    }

    /// The names of the profiled layers, in execution order.
    pub fn layer_names(&self) -> &[String] {
        &self.layer_names
    }

    /// The per-layer density profiles, in execution order.
    pub fn profiles(&self) -> &[LayerDensityProfile] {
        &self.profiles
    }

    /// Draws one inference's worth of per-layer densities.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> Vec<f64> {
        self.profiles
            .iter()
            .map(|p| {
                let normal = ApproxNormal::new(p.mean_density, p.std_dev);
                normal.sample(rng).clamp(0.0, 1.0)
            })
            .collect()
    }

    /// Draws `runs` inferences and returns, per layer, the observed
    /// (mean, min, max) densities — the statistics plotted in Figure 7.
    pub fn characterize<R: Rng + ?Sized>(&self, rng: &mut R, runs: usize) -> Vec<DensitySummary> {
        assert!(runs > 0, "at least one run is required");
        let mut summaries: Vec<DensitySummary> = self
            .profiles
            .iter()
            .map(|_| DensitySummary {
                mean: 0.0,
                min: f64::INFINITY,
                max: f64::NEG_INFINITY,
            })
            .collect();
        for _ in 0..runs {
            let sample = self.sample(rng);
            for (summary, value) in summaries.iter_mut().zip(sample) {
                summary.mean += value;
                summary.min = summary.min.min(value);
                summary.max = summary.max.max(value);
            }
        }
        for summary in &mut summaries {
            summary.mean /= runs as f64;
        }
        summaries
    }
}

/// Observed density statistics for one layer across many inferences.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DensitySummary {
    /// Mean observed density.
    pub mean: f64,
    /// Minimum observed density.
    pub min: f64,
    /// Maximum observed density.
    pub max: f64,
}

/// A cheap approximation of a normal distribution (sum of uniform draws),
/// avoiding a dependency on `rand_distr`.
#[derive(Debug, Clone, Copy)]
struct ApproxNormal {
    mean: f64,
    std_dev: f64,
}

impl ApproxNormal {
    fn new(mean: f64, std_dev: f64) -> Self {
        ApproxNormal { mean, std_dev }
    }
}

impl Distribution<f64> for ApproxNormal {
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        // Irwin–Hall approximation: sum of 12 uniforms has variance 1.
        let sum: f64 = (0..12).map(|_| rng.gen::<f64>()).sum();
        self.mean + (sum - 6.0) * self.std_dev
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ModelKind, SeqSpec};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn vgg_model() -> ActivationDensityModel {
        let net = ModelKind::CnnVggNet.build(1, SeqSpec::none());
        ActivationDensityModel::for_network(&net)
    }

    #[test]
    fn vgg_profiles_cover_all_weighted_layers() {
        let model = vgg_model();
        // VGG-16: 13 conv + 3 FC layers carry weights.
        assert_eq!(model.profiles().len(), 16);
        assert_eq!(model.layer_names().len(), 16);
    }

    #[test]
    fn densities_are_probabilities() {
        let model = vgg_model();
        for p in model.profiles() {
            assert!(p.mean_density > 0.0 && p.mean_density < 1.0);
            assert!(p.std_dev > 0.0 && p.std_dev < 0.1);
        }
    }

    #[test]
    fn density_decays_with_depth() {
        let model = vgg_model();
        let first = model.profiles().first().unwrap().mean_density;
        let last_conv = model.profiles()[12].mean_density;
        assert!(first > last_conv);
    }

    #[test]
    fn fc_layers_are_sparser_than_early_convs() {
        let model = vgg_model();
        let first_conv = model.profiles()[0].mean_density;
        let fc = model.profiles().last().unwrap().mean_density;
        assert!(fc < first_conv);
    }

    #[test]
    fn samples_are_bounded_and_vary_little() {
        let model = vgg_model();
        let mut rng = StdRng::seed_from_u64(42);
        let summaries = model.characterize(&mut rng, 200);
        for (summary, profile) in summaries.iter().zip(model.profiles()) {
            assert!(summary.min >= 0.0 && summary.max <= 1.0);
            assert!((summary.mean - profile.mean_density).abs() < 0.05);
            // The min-max band stays narrow, as in Figure 7.
            assert!(summary.max - summary.min < 0.4);
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let model = vgg_model();
        let a = model.sample(&mut StdRng::seed_from_u64(1));
        let b = model.sample(&mut StdRng::seed_from_u64(1));
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "at least one run")]
    fn characterize_requires_runs() {
        let model = vgg_model();
        let mut rng = StdRng::seed_from_u64(0);
        let _ = model.characterize(&mut rng, 0);
    }

    #[test]
    fn for_model_convenience_matches_network_build() {
        let via_kind = ActivationDensityModel::for_model(ModelKind::CnnAlexNet);
        let via_net =
            ActivationDensityModel::for_network(&ModelKind::CnnAlexNet.build(1, SeqSpec::none()));
        assert_eq!(via_kind.profiles().len(), via_net.profiles().len());
    }
}
