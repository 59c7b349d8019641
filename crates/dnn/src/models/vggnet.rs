//! CNN-VN: VGG-16 (Simonyan & Zisserman, 2015).
//!
//! 13 3×3 convolution layers in five blocks, followed by three
//! fully-connected layers. Roughly 15.5 GMACs and 138 M parameters per
//! 224×224 image — the longest-running CNN in the PREMA evaluation.

use crate::layer::{ActivationKind, PoolKind};
use crate::network::LayerSink;

use super::builders::{conv_relu, fully_connected, pool};

/// Pushes VGG-16's layers into `net`.
pub fn build<S: LayerSink>(mut net: S) -> S {
    net.push(format_args!("c01"), conv_relu(3, 64, 3, 1, 1, 224));
    net.push(format_args!("c02"), conv_relu(64, 64, 3, 1, 1, 224));
    net.push(format_args!("pool1"), pool(PoolKind::Max, 2, 2, 64, 224));

    net.push(format_args!("c03"), conv_relu(64, 128, 3, 1, 1, 112));
    net.push(format_args!("c04"), conv_relu(128, 128, 3, 1, 1, 112));
    net.push(format_args!("pool2"), pool(PoolKind::Max, 2, 2, 128, 112));

    net.push(format_args!("c05"), conv_relu(128, 256, 3, 1, 1, 56));
    net.push(format_args!("c06"), conv_relu(256, 256, 3, 1, 1, 56));
    net.push(format_args!("c07"), conv_relu(256, 256, 3, 1, 1, 56));
    net.push(format_args!("pool3"), pool(PoolKind::Max, 2, 2, 256, 56));

    net.push(format_args!("c08"), conv_relu(256, 512, 3, 1, 1, 28));
    net.push(format_args!("c09"), conv_relu(512, 512, 3, 1, 1, 28));
    net.push(format_args!("c10"), conv_relu(512, 512, 3, 1, 1, 28));
    net.push(format_args!("pool4"), pool(PoolKind::Max, 2, 2, 512, 28));

    net.push(format_args!("c11"), conv_relu(512, 512, 3, 1, 1, 14));
    net.push(format_args!("c12"), conv_relu(512, 512, 3, 1, 1, 14));
    net.push(format_args!("c13"), conv_relu(512, 512, 3, 1, 1, 14));
    net.push(format_args!("pool5"), pool(PoolKind::Max, 2, 2, 512, 14));

    net.push(
        format_args!("fc1"),
        fully_connected(512 * 7 * 7, 4096, ActivationKind::Relu),
    );
    net.push(
        format_args!("fc2"),
        fully_connected(4096, 4096, ActivationKind::Relu),
    );
    net.push(
        format_args!("fc3"),
        fully_connected(4096, 1000, ActivationKind::Softmax),
    );

    net
}

#[cfg(test)]
mod tests {
    use crate::layer::LayerKind;
    use crate::network::Network;

    fn build() -> Network {
        super::build(Network::new("vgg16"))
    }

    #[test]
    fn layer_inventory() {
        let g = build();
        // 13 conv + 5 pool + 3 fc = 21 layers.
        assert_eq!(g.layer_count(), 21);
        let conv_count = g
            .layers()
            .iter()
            .filter(|l| matches!(l.kind(), LayerKind::Conv { .. }))
            .count();
        assert_eq!(conv_count, 13);
    }

    #[test]
    fn parameter_count_matches_reference() {
        // VGG-16 has ~138 M parameters.
        let params = build().total_weights();
        assert!(params > 130_000_000 && params < 145_000_000, "{params}");
    }

    #[test]
    fn mac_count_matches_reference() {
        // ~15.5 GMACs per image.
        let macs = build().total_macs();
        assert!(macs > 14_000_000_000 && macs < 17_000_000_000, "{macs}");
    }

    #[test]
    fn fc1_is_the_biggest_weight_layer() {
        let g = build();
        let fc1 = g
            .layers()
            .iter()
            .find(|l| l.name() == "fc1")
            .map(|l| l.weight_count())
            .unwrap();
        assert_eq!(fc1, 512 * 7 * 7 * 4096);
        assert!(g.layers().iter().all(|l| l.weight_count() <= fc1));
    }
}
