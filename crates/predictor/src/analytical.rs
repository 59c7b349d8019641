//! The architecture-aware analytical latency model of Algorithm 1.
//!
//! For every layer `(m, k, n)` of a network, the model computes the number of
//! systolic-array tiles the layer splits into and the per-tile latency as the
//! maximum of the tile's compute phase and the (double-buffered) memory phase
//! that prefetches the next tile's operands. The network-wide latency is the
//! sum over all layers. The predictor reads the model's distinct layer
//! shapes ([`dnn_models::LayerShapes`]): it runs Algorithm 1 once per
//! distinct shape and sums the per-layer cycles over the execution order,
//! the same integer sum as the walk over every layer of the built network.
//!
//! Two deliberate deviations from the paper's pseudo-code:
//!
//! * Algorithm 1 writes `⌊m/SW⌋·⌊k/SH⌋`; a literal floor would assign zero
//!   tiles to layers narrower than the array, so we use a ceiling (matching
//!   the simulator's tiling in `npu_sim::TilePlan`).
//! * Layers that never touch the GEMM unit (stand-alone activation / pooling
//!   layers) are ignored, exactly as in the paper. Their vector-unit time is
//!   what makes the prediction slightly under-estimate the simulated time —
//!   the paper reports a 1.6 % average estimation error.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use dnn_models::layer::GemmDims;
use dnn_models::{LayerShapes, ModelKind, Network, SeqSpec};
use npu_sim::{Cycles, NpuConfig};

use crate::seqlen::SeqLenTable;

/// Estimates the execution time of a single `(m, k, n)` layer using
/// Algorithm 1.
pub fn estimate_layer_cycles(dims: GemmDims, cfg: &NpuConfig) -> Cycles {
    let sw = cfg.systolic_width;
    let sh = cfg.systolic_height;
    let acc = cfg.accumulator_depth;
    let bytes_per_cycle = cfg.bytes_per_cycle();
    let bytes_per_element = npu_sim::config::BYTES_PER_ELEMENT as f64;

    let m_tiles = dims.m.div_ceil(sw);
    let k_tiles = dims.k.div_ceil(sh);
    let n_inner = dims.n / acc;
    let n_rem = dims.n % acc;

    // Inner tiles: full accumulator depth (Algorithm 1, lines 3-5).
    let c1 = acc + sh + 2 * sw;
    let m1 = ((sh * sw + sh * acc) as f64 * bytes_per_element / bytes_per_cycle).ceil() as u64;
    let t_inner = c1.max(m1);

    // Outer (edge) tiles: the leftover n columns (lines 6-9).
    let (t_outer, phi) = if n_rem == 0 {
        (0, 0)
    } else {
        let c2 = n_rem + sh + 2 * sw;
        let m2 =
            ((sh * sw + sh * n_rem) as f64 * bytes_per_element / bytes_per_cycle).ceil() as u64;
        (c2.max(m2), 1)
    };

    // Line 10: total tiles times per-tile latency.
    let total = m_tiles * k_tiles * n_inner * t_inner + m_tiles * k_tiles * phi * t_outer;
    Cycles::new(total)
}

/// Estimates the end-to-end latency of a network at the given batch size by
/// summing Algorithm 1 over every GEMM-bearing layer in execution order.
///
/// The predictor no longer calls this: it estimates each distinct shape of
/// [`ModelKind::shapes`] once. This walk over the named [`Network`] stays
/// as the oracle the shapes estimate is tested against.
pub fn estimate_network_cycles(network: &Network, batch: u64, cfg: &NpuConfig) -> Cycles {
    network
        .layers()
        .iter()
        .filter_map(|layer| layer.gemm_dims(batch))
        .map(|dims| estimate_layer_cycles(dims, cfg))
        .sum()
}

/// Estimates the same sum from a model's distinct layer shapes: Algorithm 1
/// runs once per distinct GEMM-bearing shape, and the per-layer estimates
/// are summed over the execution order in integer cycles, so the result
/// equals [`estimate_network_cycles`] over the built network exactly.
fn estimate_shapes_cycles(shapes: &LayerShapes, batch: u64, cfg: &NpuConfig) -> Cycles {
    let per_shape: Vec<Cycles> = shapes
        .distinct()
        .iter()
        .map(|shape| {
            shape
                .gemm_dims(batch)
                .map_or(Cycles::ZERO, |dims| estimate_layer_cycles(dims, cfg))
        })
        .collect();
    shapes
        .order()
        .iter()
        .map(|&slot| per_shape[slot as usize])
        .sum()
}

/// Statistics of one predictor's estimate cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EstimateCacheStats {
    /// Estimates answered from the cache.
    pub hits: u64,
    /// Estimates computed by running Algorithm 1 over the model's layers.
    pub misses: u64,
}

/// The estimate cache: one predicted cycle count per distinct
/// `(model, batch, input_len)` request shape.
///
/// A cluster sweep's dispatch path asks for estimates once per request, but
/// requests repeat a small pool of shapes thousands of times. An uncached
/// estimate runs the model's builder into [`LayerShapes`] (no network, no
/// layer names), runs Algorithm 1 once per distinct layer shape and sums
/// over the execution order. The estimate is a pure function of the key
/// (given the predictor's NPU configuration and sequence tables), so a hit
/// is bit-identical to a recomputation by construction; a unit test pins
/// it anyway.
type EstimateKey = (ModelKind, u64, u64);

#[derive(Debug, Default)]
struct EstimateCache {
    map: Mutex<(HashMap<EstimateKey, Cycles>, EstimateCacheStats)>,
}

/// The PREMA default predictor: Algorithm 1 plus the profile-driven sequence
/// length regression for seq2seq models, with a per-predictor estimate
/// cache keyed by `(model, batch, input_len)` so the repeated estimates a
/// cluster sweep's prepare/dispatch path issues are O(1) lookups.
#[derive(Debug, Clone)]
pub struct AnalyticalPredictor {
    cfg: NpuConfig,
    seq_tables: HashMap<ModelKind, SeqLenTable>,
    /// Shared by clones (they predict identically); replaced whenever a
    /// sequence table is registered, since that changes RNN predictions.
    cache: Arc<EstimateCache>,
}

impl AnalyticalPredictor {
    /// Creates a predictor for the given NPU configuration with no profiled
    /// sequence-length tables (RNN output lengths fall back to the mean
    /// characterization relation of [`ModelKind::expected_output_len`]).
    pub fn new(cfg: NpuConfig) -> Self {
        AnalyticalPredictor {
            cfg,
            seq_tables: HashMap::new(),
            cache: Arc::new(EstimateCache::default()),
        }
    }

    /// Registers the profiled sequence-length regression table for a model.
    /// Invalidates the estimate cache: the table changes the predicted
    /// output lengths RNN estimates build on.
    pub fn with_seq_table(mut self, kind: ModelKind, table: SeqLenTable) -> Self {
        self.seq_tables.insert(kind, table);
        self.cache = Arc::new(EstimateCache::default());
        self
    }

    /// Hit/miss counters of the estimate cache.
    pub fn cache_stats(&self) -> EstimateCacheStats {
        self.cache.map.lock().expect("estimate cache poisoned").1
    }

    /// Computes the estimate without consulting or filling the cache.
    /// Exists for the cache-identity regression test and baseline
    /// measurements; the cached result is bit-identical.
    pub fn predict_cycles_uncached(&self, kind: ModelKind, batch: u64, input_len: u64) -> Cycles {
        let seq = if kind.is_rnn() {
            SeqSpec::new(
                input_len.max(1),
                self.predict_output_len(kind, input_len.max(1)),
            )
        } else {
            SeqSpec::none()
        };
        estimate_shapes_cycles(&kind.shapes(batch, seq), batch, &self.cfg)
    }

    /// Predicts the output sequence length the scheduler should plan for.
    pub fn predict_output_len(&self, kind: ModelKind, input_len: u64) -> u64 {
        if !kind.is_rnn() {
            return 0;
        }
        match self.seq_tables.get(&kind) {
            Some(table) if !table.is_empty() => table.predict(input_len),
            _ => kind.expected_output_len(input_len),
        }
    }

    /// Predicts the isolated, uninterrupted execution time of one inference.
    ///
    /// `input_len` is the request's input sequence length, statically known
    /// when the request arrives (Section V-B); CNNs ignore it. A seq2seq
    /// model's output length comes from [`Self::predict_output_len`].
    pub fn predict_cycles(&self, kind: ModelKind, batch: u64, input_len: u64) -> Cycles {
        let key = (kind, batch, input_len);
        {
            let mut guard = self.cache.map.lock().expect("estimate cache poisoned");
            if let Some(&cycles) = guard.0.get(&key) {
                guard.1.hits += 1;
                return cycles;
            }
        }
        // Compute outside the lock: estimates are pure, so a racing
        // duplicate computation inserts the identical value. Only the insert
        // that adds the key counts as the miss; a racing duplicate counts as
        // a hit, so misses always equal the distinct shapes asked for.
        let cycles = self.predict_cycles_uncached(kind, batch, input_len);
        let mut guard = self.cache.map.lock().expect("estimate cache poisoned");
        if guard.0.insert(key, cycles).is_none() {
            guard.1.misses += 1;
        } else {
            guard.1.hits += 1;
        }
        cycles
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dnn_models::layer::GemmDims;
    use dnn_models::lowering::lower_network;
    use dnn_models::ALL_EVAL_MODELS;
    use npu_sim::LayerTiming;

    fn cfg() -> NpuConfig {
        NpuConfig::paper_default()
    }

    #[test]
    fn single_tile_layer_matches_formula() {
        let c = cfg();
        // Exactly one inner tile: m=SW, k=SH, n=ACC.
        let dims = GemmDims {
            m: c.systolic_width,
            k: c.systolic_height,
            n: c.accumulator_depth,
        };
        let t = estimate_layer_cycles(dims, &c);
        let c1 = c.accumulator_depth + c.systolic_height + 2 * c.systolic_width;
        let m1 = ((c.systolic_height * c.systolic_width + c.systolic_height * c.accumulator_depth)
            as f64
            * 2.0
            / c.bytes_per_cycle())
        .ceil() as u64;
        assert_eq!(t.get(), c1.max(m1));
    }

    #[test]
    fn edge_only_layer_uses_outer_tile_formula() {
        let c = cfg();
        let dims = GemmDims {
            m: 64,
            k: 64,
            n: 100,
        };
        let t = estimate_layer_cycles(dims, &c);
        let c2 = 100 + c.systolic_height + 2 * c.systolic_width;
        let m2 = ((c.systolic_height * c.systolic_width + c.systolic_height * 100) as f64 * 2.0
            / c.bytes_per_cycle())
        .ceil() as u64;
        assert_eq!(t.get(), c2.max(m2));
    }

    #[test]
    fn estimate_scales_with_tile_count() {
        let c = cfg();
        let one = estimate_layer_cycles(
            GemmDims {
                m: c.systolic_width,
                k: c.systolic_height,
                n: c.accumulator_depth,
            },
            &c,
        );
        let four = estimate_layer_cycles(
            GemmDims {
                m: 2 * c.systolic_width,
                k: 2 * c.systolic_height,
                n: c.accumulator_depth,
            },
            &c,
        );
        assert_eq!(four.get(), 4 * one.get());
    }

    #[test]
    fn network_estimate_sums_layer_estimates() {
        let c = cfg();
        let net = ModelKind::CnnAlexNet.build(1, SeqSpec::none());
        let total = estimate_network_cycles(&net, 1, &c);
        let by_hand: Cycles = net
            .layers()
            .iter()
            .filter_map(|l| l.gemm_dims(1))
            .map(|d| estimate_layer_cycles(d, &c))
            .sum();
        assert_eq!(total, by_hand);
        assert!(total > Cycles::ZERO);
    }

    /// The shapes estimate equals the oracle, Algorithm 1 over every layer
    /// of the built network, for every model, at three batches and input
    /// lengths 1–100 (with the predicted output lengths).
    #[test]
    fn shapes_estimate_equals_the_network_estimate() {
        let c = cfg();
        let predictor = AnalyticalPredictor::new(c.clone());
        let models = ALL_EVAL_MODELS.into_iter().chain([ModelKind::ResNet50]);
        for kind in models {
            for batch in [1u64, 4, 16] {
                for input_len in 1..=100 {
                    let seq = if kind.is_rnn() {
                        SeqSpec::new(input_len, predictor.predict_output_len(kind, input_len))
                    } else {
                        SeqSpec::none()
                    };
                    let oracle = estimate_network_cycles(&kind.build(batch, seq), batch, &c);
                    assert_eq!(
                        predictor.predict_cycles_uncached(kind, batch, input_len),
                        oracle,
                        "{kind} b{batch} len{input_len}"
                    );
                }
            }
        }
    }

    #[test]
    fn cnn_inference_times_are_in_the_millisecond_range() {
        let c = cfg();
        let predictor = AnalyticalPredictor::new(c.clone());
        for (kind, lo_ms, hi_ms) in [
            (ModelKind::CnnAlexNet, 0.05, 5.0),
            (ModelKind::CnnVggNet, 1.0, 45.0),
            (ModelKind::CnnGoogLeNet, 0.05, 10.0),
            (ModelKind::CnnMobileNet, 0.05, 10.0),
        ] {
            let ms = c.cycles_to_millis(predictor.predict_cycles(kind, 1, 0));
            assert!(ms > lo_ms && ms < hi_ms, "{kind}: {ms} ms");
        }
    }

    #[test]
    fn batch_sixteen_takes_longer_than_batch_one() {
        let predictor = AnalyticalPredictor::new(cfg());
        let b1 = predictor.predict_cycles(ModelKind::CnnVggNet, 1, 0);
        let b16 = predictor.predict_cycles(ModelKind::CnnVggNet, 16, 0);
        assert!(b16 > b1 * 4);
    }

    #[test]
    fn rnn_prediction_uses_seq_table_when_present() {
        let predictor = AnalyticalPredictor::new(cfg());
        let default_len = predictor.predict_output_len(ModelKind::RnnTranslation1, 20);
        assert_eq!(
            default_len,
            ModelKind::RnnTranslation1.expected_output_len(20)
        );

        let table = SeqLenTable::from_samples([(20, 40), (20, 40)]);
        let predictor = predictor.with_seq_table(ModelKind::RnnTranslation1, table);
        assert_eq!(
            predictor.predict_output_len(ModelKind::RnnTranslation1, 20),
            40
        );

        // A longer predicted output means a longer predicted latency.
        let short = AnalyticalPredictor::new(cfg())
            .with_seq_table(
                ModelKind::RnnTranslation1,
                SeqLenTable::from_samples([(20, 10)]),
            )
            .predict_cycles(ModelKind::RnnTranslation1, 1, 20);
        let long = AnalyticalPredictor::new(cfg())
            .with_seq_table(
                ModelKind::RnnTranslation1,
                SeqLenTable::from_samples([(20, 40)]),
            )
            .predict_cycles(ModelKind::RnnTranslation1, 1, 20);
        assert!(long > short);
    }

    #[test]
    fn cnn_output_len_prediction_is_zero() {
        let predictor = AnalyticalPredictor::new(cfg());
        assert_eq!(predictor.predict_output_len(ModelKind::CnnVggNet, 30), 0);
    }

    #[test]
    fn estimate_cache_is_bit_identical_to_uncached_calls() {
        let predictor = AnalyticalPredictor::new(cfg()).with_seq_table(
            ModelKind::RnnTranslation1,
            SeqLenTable::from_samples([(20, 35)]),
        );
        for &kind in &ALL_EVAL_MODELS {
            for batch in [1u64, 4, 16] {
                for input_len in [0u64, 10, 20] {
                    let uncached = predictor.predict_cycles_uncached(kind, batch, input_len);
                    let first = predictor.predict_cycles(kind, batch, input_len);
                    let second = predictor.predict_cycles(kind, batch, input_len);
                    assert_eq!(first, uncached, "{kind} b{batch} len{input_len}");
                    assert_eq!(second, uncached, "{kind} b{batch} len{input_len}");
                }
            }
        }
        let stats = predictor.cache_stats();
        let shapes = (ALL_EVAL_MODELS.len() * 9) as u64;
        assert_eq!(stats.misses, shapes, "one miss per distinct shape");
        assert_eq!(stats.hits, shapes, "one hit per repeated shape");

        // Registering a sequence table invalidates the cache (predictions
        // may change), and a clone shares its parent's cache.
        let retabled = predictor.clone().with_seq_table(
            ModelKind::RnnTranslation1,
            SeqLenTable::from_samples([(20, 60)]),
        );
        assert_eq!(retabled.cache_stats(), EstimateCacheStats::default());
        let longer = retabled.predict_cycles(ModelKind::RnnTranslation1, 1, 20);
        assert!(longer > predictor.predict_cycles(ModelKind::RnnTranslation1, 1, 20));
        let shared = predictor.clone();
        assert_eq!(shared.cache_stats(), predictor.cache_stats());
    }

    #[test]
    fn racing_misses_on_one_shape_count_one_miss() {
        use std::sync::Barrier;

        const THREADS: u64 = 8;
        let predictor = AnalyticalPredictor::new(cfg());
        let barrier = Barrier::new(THREADS as usize);
        std::thread::scope(|scope| {
            for _ in 0..THREADS {
                scope.spawn(|| {
                    barrier.wait();
                    predictor.predict_cycles(ModelKind::CnnVggNet, 4, 0)
                });
            }
        });
        let stats = predictor.cache_stats();
        assert_eq!(stats.misses, 1, "one distinct shape, one miss");
        assert_eq!(stats.hits, THREADS - 1);
    }

    /// The simulated isolated time: every lowered layer timed by the
    /// simulator's layer model.
    fn simulated_cycles(kind: ModelKind, batch: u64) -> Cycles {
        let network = kind.build(batch, SeqSpec::none());
        lower_network(&network, batch)
            .iter()
            .map(|work| LayerTiming::model(work, &cfg()).total_cycles())
            .sum()
    }

    #[test]
    fn estimate_never_exceeds_the_simulated_time() {
        // Algorithm 1 ignores vector-unit work and pipeline lead-in, so the
        // simulated time bounds it from above.
        let predictor = AnalyticalPredictor::new(cfg());
        for kind in [ModelKind::CnnAlexNet, ModelKind::CnnMobileNet] {
            let estimate = predictor.predict_cycles(kind, 1, 0);
            assert!(estimate <= simulated_cycles(kind, 1), "{kind}");
        }
    }

    #[test]
    fn estimate_stays_just_under_the_simulated_time() {
        // What Algorithm 1 leaves out is small: the simulated time stays in
        // the estimate's regime.
        let predictor = AnalyticalPredictor::new(cfg());
        for kind in [ModelKind::CnnAlexNet, ModelKind::CnnGoogLeNet] {
            let estimate = predictor.predict_cycles(kind, 4, 0).get() as f64;
            let simulated = simulated_cycles(kind, 4).get() as f64;
            assert!(simulated >= estimate, "{kind}: {simulated} < {estimate}");
            assert!(
                simulated < 1.6 * estimate,
                "{kind}: {simulated} vs {estimate}"
            );
        }
    }

    #[test]
    fn mac_count_proxy_underestimates_underutilized_networks_most() {
        // Figure 10: MACs / peak MACs per cycle ignores how a layer maps onto
        // the array. MobileNet's depthwise layers underutilize it, so the
        // proxy misses MobileNet by far more than it misses VGG.
        let c = cfg();
        let predictor = AnalyticalPredictor::new(c.clone());
        let gap = |kind: ModelKind| {
            let macs = kind.build(1, SeqSpec::none()).total_macs_for_batch(1);
            let proxy = macs.div_ceil(c.peak_macs_per_cycle()).max(1);
            predictor.predict_cycles(kind, 1, 0).get() as f64 / proxy as f64
        };
        let mobilenet = gap(ModelKind::CnnMobileNet);
        let vgg = gap(ModelKind::CnnVggNet);
        assert!(
            mobilenet > vgg && mobilenet > 2.0,
            "MobileNet gap {mobilenet} vs VGG gap {vgg}"
        );
    }
}
