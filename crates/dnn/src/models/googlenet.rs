//! CNN-GN: GoogLeNet / Inception v1 (Szegedy et al., 2015).
//!
//! A stem of three convolutions followed by nine inception modules in three
//! stages and a final classifier. Each inception module has four parallel
//! branches (1×1, 1×1→3×3, 1×1→5×5, pool→1×1) whose outputs are concatenated
//! channel-wise by an explicit (cheap) concatenation layer. Roughly 1.5
//! GMACs and 7 M parameters per 224×224 image.

use crate::layer::{ActivationKind, PoolKind};
use crate::network::LayerSink;

use super::builders::{conv_relu, elementwise, fully_connected, pool};

/// Channel configuration of one inception module.
struct InceptionSpec {
    name: &'static str,
    in_channels: u64,
    branch1x1: u64,
    branch3x3_reduce: u64,
    branch3x3: u64,
    branch5x5_reduce: u64,
    branch5x5: u64,
    pool_proj: u64,
    spatial: u64,
}

impl InceptionSpec {
    fn output_channels(&self) -> u64 {
        self.branch1x1 + self.branch3x3 + self.branch5x5 + self.pool_proj
    }
}

/// Appends one inception module, returning its output channel count.
///
/// The module runs its four branch heads first, all of which read the
/// module input, then each branch's second layer, then the concatenation.
fn inception<S: LayerSink>(net: &mut S, spec: &InceptionSpec) -> u64 {
    let s = spec.spatial;
    let name = spec.name;
    let cin = spec.in_channels;

    net.push(
        format_args!("{name}_1x1"),
        conv_relu(cin, spec.branch1x1, 1, 1, 0, s),
    );
    net.push(
        format_args!("{name}_3x3_reduce"),
        conv_relu(cin, spec.branch3x3_reduce, 1, 1, 0, s),
    );
    net.push(
        format_args!("{name}_5x5_reduce"),
        conv_relu(cin, spec.branch5x5_reduce, 1, 1, 0, s),
    );
    net.push(
        format_args!("{name}_pool"),
        pool(PoolKind::Max, 3, 1, cin, s),
    );

    net.push(
        format_args!("{name}_3x3"),
        conv_relu(spec.branch3x3_reduce, spec.branch3x3, 3, 1, 1, s),
    );
    net.push(
        format_args!("{name}_5x5"),
        conv_relu(spec.branch5x5_reduce, spec.branch5x5, 5, 1, 2, s),
    );
    // A 3x3/1 max pool without padding shrinks the map by 2; the original
    // network pads to keep it constant, so the projection sees `s` again.
    net.push(
        format_args!("{name}_pool_proj"),
        conv_relu(cin, spec.pool_proj, 1, 1, 0, s),
    );

    // Channel-wise concatenation of the four branches: a cheap on-chip copy,
    // modelled as a single element-wise layer.
    let out_channels = spec.output_channels();
    net.push(
        format_args!("{name}_concat"),
        elementwise(ActivationKind::Relu, out_channels * s * s),
    );
    out_channels
}

/// Pushes GoogLeNet's layers into `net`.
pub fn build<S: LayerSink>(mut net: S) -> S {
    // Stem: 7x7/2 conv, pool, 1x1 conv, 3x3 conv, pool.
    net.push(format_args!("conv1_7x7"), conv_relu(3, 64, 7, 2, 3, 224));
    net.push(format_args!("pool1"), pool(PoolKind::Max, 3, 2, 64, 112));
    net.push(format_args!("conv2_1x1"), conv_relu(64, 64, 1, 1, 0, 56));
    net.push(format_args!("conv2_3x3"), conv_relu(64, 192, 3, 1, 1, 56));
    net.push(format_args!("pool2"), pool(PoolKind::Max, 3, 2, 192, 56));

    let specs_28 = [
        InceptionSpec {
            name: "inception_3a",
            in_channels: 192,
            branch1x1: 64,
            branch3x3_reduce: 96,
            branch3x3: 128,
            branch5x5_reduce: 16,
            branch5x5: 32,
            pool_proj: 32,
            spatial: 28,
        },
        InceptionSpec {
            name: "inception_3b",
            in_channels: 256,
            branch1x1: 128,
            branch3x3_reduce: 128,
            branch3x3: 192,
            branch5x5_reduce: 32,
            branch5x5: 96,
            pool_proj: 64,
            spatial: 28,
        },
    ];
    let mut channels = 192;
    for spec in &specs_28 {
        channels = inception(&mut net, spec);
    }
    net.push(
        format_args!("pool3"),
        pool(PoolKind::Max, 3, 2, channels, 28),
    );

    let specs_14 = [
        InceptionSpec {
            name: "inception_4a",
            in_channels: 480,
            branch1x1: 192,
            branch3x3_reduce: 96,
            branch3x3: 208,
            branch5x5_reduce: 16,
            branch5x5: 48,
            pool_proj: 64,
            spatial: 14,
        },
        InceptionSpec {
            name: "inception_4b",
            in_channels: 512,
            branch1x1: 160,
            branch3x3_reduce: 112,
            branch3x3: 224,
            branch5x5_reduce: 24,
            branch5x5: 64,
            pool_proj: 64,
            spatial: 14,
        },
        InceptionSpec {
            name: "inception_4c",
            in_channels: 512,
            branch1x1: 128,
            branch3x3_reduce: 128,
            branch3x3: 256,
            branch5x5_reduce: 24,
            branch5x5: 64,
            pool_proj: 64,
            spatial: 14,
        },
        InceptionSpec {
            name: "inception_4d",
            in_channels: 512,
            branch1x1: 112,
            branch3x3_reduce: 144,
            branch3x3: 288,
            branch5x5_reduce: 32,
            branch5x5: 64,
            pool_proj: 64,
            spatial: 14,
        },
        InceptionSpec {
            name: "inception_4e",
            in_channels: 528,
            branch1x1: 256,
            branch3x3_reduce: 160,
            branch3x3: 320,
            branch5x5_reduce: 32,
            branch5x5: 128,
            pool_proj: 128,
            spatial: 14,
        },
    ];
    for spec in &specs_14 {
        channels = inception(&mut net, spec);
    }
    net.push(
        format_args!("pool4"),
        pool(PoolKind::Max, 3, 2, channels, 14),
    );

    let specs_7 = [
        InceptionSpec {
            name: "inception_5a",
            in_channels: 832,
            branch1x1: 256,
            branch3x3_reduce: 160,
            branch3x3: 320,
            branch5x5_reduce: 32,
            branch5x5: 128,
            pool_proj: 128,
            spatial: 7,
        },
        InceptionSpec {
            name: "inception_5b",
            in_channels: 832,
            branch1x1: 384,
            branch3x3_reduce: 192,
            branch3x3: 384,
            branch5x5_reduce: 48,
            branch5x5: 128,
            pool_proj: 128,
            spatial: 7,
        },
    ];
    for spec in &specs_7 {
        channels = inception(&mut net, spec);
    }

    net.push(
        format_args!("avg_pool"),
        pool(PoolKind::Avg, 7, 1, channels, 7),
    );
    net.push(
        format_args!("fc"),
        fully_connected(channels, 1000, ActivationKind::Softmax),
    );

    net
}

#[cfg(test)]
mod tests {
    use crate::layer::LayerKind;
    use crate::network::Network;

    fn build() -> Network {
        super::build(Network::new("googlenet"))
    }

    #[test]
    fn has_nine_inception_modules() {
        let g = build();
        let concats = g
            .layers()
            .iter()
            .filter(|l| l.name().ends_with("_concat"))
            .count();
        assert_eq!(concats, 9);
    }

    #[test]
    fn parameter_count_matches_reference() {
        // GoogLeNet has ~7 M parameters (6.8 M in the torchvision variant).
        let params = build().total_weights();
        assert!(params > 5_500_000 && params < 8_500_000, "{params}");
    }

    #[test]
    fn mac_count_matches_reference() {
        // ~1.5 GMACs per image.
        let macs = build().total_macs();
        assert!(macs > 1_000_000_000 && macs < 2_200_000_000, "{macs}");
    }

    #[test]
    fn final_stage_produces_1024_channels() {
        let g = build();
        let fc = g.layers().iter().find(|l| l.name() == "fc").unwrap();
        match fc.kind() {
            LayerKind::FullyConnected { in_features, .. } => assert_eq!(*in_features, 1024),
            other => panic!("unexpected classifier kind {other:?}"),
        }
    }
}
