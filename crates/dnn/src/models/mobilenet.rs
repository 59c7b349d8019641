//! CNN-MN: MobileNet v1 (Howard et al., 2017).
//!
//! A stem convolution followed by 13 depthwise-separable blocks (depthwise
//! 3×3 + pointwise 1×1), global average pooling and a classifier. The
//! depthwise layers have tiny reduction depths and therefore badly
//! underutilize a 128×128 systolic array — these are the red-circled points
//! of Figure 10 in the paper. Roughly 0.57 GMACs and 4.2 M parameters per
//! 224×224 image.

use crate::layer::{ActivationKind, PoolKind};
use crate::network::LayerSink;

use super::builders::{conv_relu, depthwise_relu, fully_connected, pool};

/// One depthwise-separable block: (input channels, output channels,
/// depthwise stride, input spatial size).
const BLOCKS: [(u64, u64, u64, u64); 13] = [
    (32, 64, 1, 112),
    (64, 128, 2, 112),
    (128, 128, 1, 56),
    (128, 256, 2, 56),
    (256, 256, 1, 28),
    (256, 512, 2, 28),
    (512, 512, 1, 14),
    (512, 512, 1, 14),
    (512, 512, 1, 14),
    (512, 512, 1, 14),
    (512, 512, 1, 14),
    (512, 1024, 2, 14),
    (1024, 1024, 1, 7),
];

/// Pushes MobileNet v1's layers into `net`.
pub fn build<S: LayerSink>(mut net: S) -> S {
    net.push(format_args!("conv_stem"), conv_relu(3, 32, 3, 2, 1, 224));
    for (idx, &(in_ch, out_ch, stride, hw)) in BLOCKS.iter().enumerate() {
        let block = idx + 1;
        net.push(
            format_args!("dw{block}"),
            depthwise_relu(in_ch, 3, stride, 1, hw),
        );
        let pw_hw = if stride == 2 { hw / 2 } else { hw };
        net.push(
            format_args!("pw{block}"),
            conv_relu(in_ch, out_ch, 1, 1, 0, pw_hw),
        );
    }

    net.push(format_args!("avg_pool"), pool(PoolKind::Avg, 7, 1, 1024, 7));
    net.push(
        format_args!("fc"),
        fully_connected(1024, 1000, ActivationKind::Softmax),
    );

    net
}

#[cfg(test)]
mod tests {
    use crate::layer::LayerKind;
    use crate::network::Network;

    fn build() -> Network {
        super::build(Network::new("mobilenet_v1"))
    }

    #[test]
    fn layer_inventory() {
        let g = build();
        // stem + 13*(dw + pw) + avgpool + fc = 29 layers.
        assert_eq!(g.layer_count(), 29);
        let dw_count = g
            .layers()
            .iter()
            .filter(|l| matches!(l.kind(), LayerKind::DepthwiseConv { .. }))
            .count();
        assert_eq!(dw_count, 13);
    }

    #[test]
    fn parameter_count_matches_reference() {
        // MobileNet v1 has ~4.2 M parameters.
        let params = build().total_weights();
        assert!(params > 3_500_000 && params < 5_000_000, "{params}");
    }

    #[test]
    fn mac_count_matches_reference() {
        // ~0.57 GMACs per image.
        let macs = build().total_macs();
        assert!(macs > 400_000_000 && macs < 800_000_000, "{macs}");
    }

    #[test]
    fn depthwise_layers_have_shallow_reductions() {
        let g = build();
        for layer in g.layers() {
            if matches!(layer.kind(), LayerKind::DepthwiseConv { .. }) {
                let dims = layer.gemm_dims(1).unwrap();
                assert_eq!(dims.k, 9, "depthwise reduction depth is the 3x3 window");
            }
        }
    }
}
