//! Pins the order in which every model's layers execute.
//!
//! Models used to be stored as a layer-dependency graph whose execution
//! order came from a stable topological sort (Kahn's algorithm, ready
//! layers taken in insertion order). The constants below were recorded from
//! that sort. Plan timings, predictor estimates and every committed outcome
//! digest depend on this order, so a builder that pushes its layers in a
//! different order fails here first.

use dnn_models::{ModelKind, SeqSpec, ALL_EVAL_MODELS};

/// The input lengths each model is built at (CNNs ignore them).
const INPUT_LENS: [u64; 3] = [5, 20, 50];

/// Per model, the name-order digest and layer count at each of
/// [`INPUT_LENS`], identical at batch 1 and batch 4.
const RECORDED: [(ModelKind, [(u64, usize); 3]); 9] = [
    (ModelKind::CnnAlexNet, [(0xebba_d200_d988_8d58, 11); 3]),
    (ModelKind::CnnGoogLeNet, [(0x2957_844b_d178_292b, 81); 3]),
    (ModelKind::CnnVggNet, [(0x7f0a_ad94_3b7b_95e7, 21); 3]),
    (ModelKind::CnnMobileNet, [(0xcdc8_8418_4a74_3549, 29); 3]),
    (
        ModelKind::RnnSentiment,
        [
            (0x73be_207d_522d_8551, 11),
            (0xfd96_753a_8598_3cea, 41),
            (0x2664_908f_5192_14b2, 101),
        ],
    ),
    (
        ModelKind::RnnTranslation1,
        [
            (0x9624_ecd3_af88_c547, 56),
            (0xf4c6_724c_7f11_3b50, 218),
            (0x6568_edf0_ab0b_4ca2, 542),
        ],
    ),
    (
        ModelKind::RnnTranslation2,
        [
            (0xabde_b9fb_6be0_2d9d, 44),
            (0x4ea8_0521_1a05_5077, 176),
            (0x56b1_fa2a_0215_b997, 440),
        ],
    ),
    (
        ModelKind::RnnSpeech,
        [
            (0x9bbe_bb30_eca0_8ca9, 24),
            (0xd0bb_00da_bdde_bb1a, 106),
            (0x683c_6aca_571a_0d5c, 266),
        ],
    ),
    (ModelKind::ResNet50, [(0xf7d7_c79f_7333_1a03, 72); 3]),
];

/// FNV-1a over each layer name, in execution order, each followed by a
/// zero byte; returned with the layer count.
fn order_digest(kind: ModelKind, batch: u64, input_len: u64) -> (u64, usize) {
    let net = kind.build(batch, SeqSpec::for_model(kind, input_len));
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for layer in net.layers() {
        for &byte in layer.name().as_bytes().iter().chain(&[0]) {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0100_0000_01b3);
        }
    }
    (hash, net.layer_count())
}

/// The names of `kind`'s layers that start with `prefix`, in execution
/// order.
fn names_with_prefix(kind: ModelKind, prefix: &str) -> Vec<String> {
    kind.build(1, SeqSpec::none())
        .layers()
        .iter()
        .map(|layer| layer.name())
        .filter(|name| name.starts_with(prefix))
        .map(str::to_string)
        .collect()
}

#[test]
fn every_model_keeps_its_recorded_layer_order() {
    let models: Vec<ModelKind> = RECORDED.iter().map(|&(kind, _)| kind).collect();
    let expected: Vec<ModelKind> = ALL_EVAL_MODELS
        .into_iter()
        .chain([ModelKind::ResNet50])
        .collect();
    assert_eq!(models, expected);
    for (kind, recorded) in RECORDED {
        for (input_len, want) in INPUT_LENS.into_iter().zip(recorded) {
            for batch in [1, 4] {
                let (digest, count) = order_digest(kind, batch, input_len);
                assert_eq!(
                    (digest, count),
                    want,
                    "{kind} at batch {batch}, input length {input_len}: digest {digest:#018x}"
                );
            }
        }
    }
}

#[test]
fn inception_runs_its_branch_heads_first() {
    assert_eq!(
        names_with_prefix(ModelKind::CnnGoogLeNet, "inception_3a_"),
        [
            "inception_3a_1x1",
            "inception_3a_3x3_reduce",
            "inception_3a_5x5_reduce",
            "inception_3a_pool",
            "inception_3a_3x3",
            "inception_3a_5x5",
            "inception_3a_pool_proj",
            "inception_3a_concat",
        ]
    );
}

#[test]
fn resnet_projection_runs_right_after_the_first_convolution() {
    assert_eq!(
        names_with_prefix(ModelKind::ResNet50, "res2_1_"),
        [
            "res2_1_1x1a",
            "res2_1_proj",
            "res2_1_3x3",
            "res2_1_1x1b",
            "res2_1_add",
        ]
    );
}
