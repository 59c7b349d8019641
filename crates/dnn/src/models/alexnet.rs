//! CNN-AN: AlexNet (Krizhevsky et al., 2012).
//!
//! 5 convolution layers, 3 max-pooling layers, and 3 fully-connected layers
//! operating on 227×227 RGB inputs. Roughly 0.7 GMACs and 61 M parameters per
//! image.

use crate::layer::{ActivationKind, PoolKind};
use crate::network::LayerSink;

use super::builders::{conv_relu, fully_connected, pool};

/// Pushes AlexNet's layers into `net`.
pub fn build<S: LayerSink>(mut net: S) -> S {
    net.push(format_args!("conv1"), conv_relu(3, 96, 11, 4, 0, 227));
    // 96 x 55 x 55 -> pool -> 96 x 27 x 27
    net.push(format_args!("pool1"), pool(PoolKind::Max, 3, 2, 96, 55));

    net.push(format_args!("conv2"), conv_relu(96, 256, 5, 1, 2, 27));
    // 256 x 27 x 27 -> pool -> 256 x 13 x 13
    net.push(format_args!("pool2"), pool(PoolKind::Max, 3, 2, 256, 27));

    net.push(format_args!("conv3"), conv_relu(256, 384, 3, 1, 1, 13));
    net.push(format_args!("conv4"), conv_relu(384, 384, 3, 1, 1, 13));
    net.push(format_args!("conv5"), conv_relu(384, 256, 3, 1, 1, 13));
    // 256 x 13 x 13 -> pool -> 256 x 6 x 6
    net.push(format_args!("pool5"), pool(PoolKind::Max, 3, 2, 256, 13));

    net.push(
        format_args!("fc6"),
        fully_connected(256 * 6 * 6, 4096, ActivationKind::Relu),
    );
    net.push(
        format_args!("fc7"),
        fully_connected(4096, 4096, ActivationKind::Relu),
    );
    net.push(
        format_args!("fc8"),
        fully_connected(4096, 1000, ActivationKind::Softmax),
    );

    net
}

#[cfg(test)]
mod tests {
    use crate::layer::LayerKind;
    use crate::network::Network;

    fn build() -> Network {
        super::build(Network::new("alexnet"))
    }

    #[test]
    fn layer_inventory() {
        let g = build();
        // 5 conv + 3 pool + 3 fc = 11 layers.
        assert_eq!(g.layer_count(), 11);
        let conv_count = g
            .layers()
            .iter()
            .filter(|l| matches!(l.kind(), LayerKind::Conv { .. }))
            .count();
        assert_eq!(conv_count, 5);
    }

    #[test]
    fn parameter_count_matches_reference() {
        // AlexNet has ~61 M parameters (dominated by fc6's 37.7 M).
        let params = build().total_weights();
        assert!(params > 55_000_000 && params < 65_000_000, "{params}");
    }

    #[test]
    fn mac_count_matches_reference() {
        // ~0.7 GMACs per 227x227 image with the original grouped convolutions;
        // our ungrouped variant (as used by most frameworks today) is ~1.1 G.
        let macs = build().total_macs();
        assert!(macs > 500_000_000 && macs < 1_300_000_000, "{macs}");
    }

    #[test]
    fn spatial_dimensions_shrink_to_six() {
        let g = build();
        let pool5 = g
            .layers()
            .iter()
            .find(|l| l.name() == "pool5")
            .map(|l| l.output_hw().unwrap())
            .unwrap();
        assert_eq!(pool5, (6, 6));
    }
}
