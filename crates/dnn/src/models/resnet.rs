//! ResNet-50 (He et al., 2016).
//!
//! Used by the Figure 1 co-location experiment, which co-locates GoogLeNet
//! and ResNet on one accelerator. A 7×7 stem, four stages of bottleneck
//! blocks ([3, 4, 6, 3] blocks with 1×1 → 3×3 → 1×1 convolutions plus a
//! projection shortcut on the first block of each stage), global average
//! pooling and a classifier. Roughly 4 GMACs and 25 M parameters per
//! 224×224 image.

use crate::layer::{ActivationKind, PoolKind};
use crate::network::LayerSink;

use super::builders::{conv_relu, elementwise, fully_connected, pool};

struct StageSpec {
    name: &'static str,
    blocks: usize,
    mid_channels: u64,
    out_channels: u64,
    /// Spatial size of the stage's *output* feature maps.
    spatial: u64,
    /// Stride applied by the first block of the stage.
    first_stride: u64,
}

/// Appends bottleneck block `block` of stage `stage`.
///
/// A projection shortcut replaces the identity when the shape changes. It
/// reads the block input, like the first 1×1 convolution, and runs right
/// after it; the residual addition joins both paths last.
fn bottleneck<S: LayerSink>(
    net: &mut S,
    (stage, block): (&str, usize),
    in_channels: u64,
    mid_channels: u64,
    out_channels: u64,
    input_hw: u64,
    stride: u64,
) {
    let out_hw = input_hw / stride;
    net.push(
        format_args!("{stage}_{block}_1x1a"),
        conv_relu(in_channels, mid_channels, 1, stride, 0, input_hw),
    );
    if in_channels != out_channels || stride != 1 {
        net.push(
            format_args!("{stage}_{block}_proj"),
            conv_relu(in_channels, out_channels, 1, stride, 0, input_hw),
        );
    }
    net.push(
        format_args!("{stage}_{block}_3x3"),
        conv_relu(mid_channels, mid_channels, 3, 1, 1, out_hw),
    );
    net.push(
        format_args!("{stage}_{block}_1x1b"),
        conv_relu(mid_channels, out_channels, 1, 1, 0, out_hw),
    );
    // Residual addition followed by ReLU, executed on the vector unit.
    net.push(
        format_args!("{stage}_{block}_add"),
        elementwise(ActivationKind::Relu, out_channels * out_hw * out_hw),
    );
}

/// Pushes ResNet-50's layers into `net`.
pub fn build<S: LayerSink>(mut net: S) -> S {
    net.push(format_args!("conv1"), conv_relu(3, 64, 7, 2, 3, 224));
    net.push(format_args!("pool1"), pool(PoolKind::Max, 3, 2, 64, 112));

    let stages = [
        StageSpec {
            name: "res2",
            blocks: 3,
            mid_channels: 64,
            out_channels: 256,
            spatial: 56,
            first_stride: 1,
        },
        StageSpec {
            name: "res3",
            blocks: 4,
            mid_channels: 128,
            out_channels: 512,
            spatial: 28,
            first_stride: 2,
        },
        StageSpec {
            name: "res4",
            blocks: 6,
            mid_channels: 256,
            out_channels: 1024,
            spatial: 14,
            first_stride: 2,
        },
        StageSpec {
            name: "res5",
            blocks: 3,
            mid_channels: 512,
            out_channels: 2048,
            spatial: 7,
            first_stride: 2,
        },
    ];

    let mut in_channels = 64;
    for stage in &stages {
        for block in 0..stage.blocks {
            let (stride, input_hw) = if block == 0 {
                (stage.first_stride, stage.spatial * stage.first_stride)
            } else {
                (1, stage.spatial)
            };
            bottleneck(
                &mut net,
                (stage.name, block + 1),
                in_channels,
                stage.mid_channels,
                stage.out_channels,
                input_hw,
                stride,
            );
            in_channels = stage.out_channels;
        }
    }

    net.push(format_args!("avg_pool"), pool(PoolKind::Avg, 7, 1, 2048, 7));
    net.push(
        format_args!("fc"),
        fully_connected(2048, 1000, ActivationKind::Softmax),
    );

    net
}

#[cfg(test)]
mod tests {
    use crate::network::Network;

    fn build() -> Network {
        super::build(Network::new("resnet50"))
    }

    #[test]
    fn has_sixteen_bottleneck_blocks() {
        let g = build();
        let adds = g
            .layers()
            .iter()
            .filter(|l| l.name().ends_with("_add"))
            .count();
        assert_eq!(adds, 3 + 4 + 6 + 3);
    }

    #[test]
    fn has_four_projection_shortcuts() {
        let g = build();
        let projections = g
            .layers()
            .iter()
            .filter(|l| l.name().ends_with("_proj"))
            .count();
        assert_eq!(projections, 4);
    }

    #[test]
    fn parameter_count_matches_reference() {
        // ResNet-50 has ~25.5 M parameters.
        let params = build().total_weights();
        assert!(params > 22_000_000 && params < 28_000_000, "{params}");
    }

    #[test]
    fn mac_count_matches_reference() {
        // ~4 GMACs per image.
        let macs = build().total_macs();
        assert!(macs > 3_200_000_000 && macs < 5_000_000_000, "{macs}");
    }
}
