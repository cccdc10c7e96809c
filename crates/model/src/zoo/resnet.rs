//! ResNet family builders (He et al., CVPR 2016) and plain (no-shortcut)
//! controls.

use sm_tensor::Shape4;

use crate::{ConvSpec, LayerId, ModelError, Network, NetworkBuilder, PoolSpec};

/// Block flavour of a ResNet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Block {
    /// Two 3×3 convolutions (ResNet-18/34).
    Basic,
    /// 1×1 reduce, 3×3, 1×1 expand ×4 (ResNet-50/101/152).
    Bottleneck,
}

struct ResNetSpec {
    name: &'static str,
    block: Block,
    /// Blocks per stage (conv2_x .. conv5_x).
    stages: [usize; 4],
    /// Residual connections present (false builds the "plain" control).
    shortcuts: bool,
}

/// Base channel width of each stage's 3×3 convs.
const STAGE_WIDTH: [usize; 4] = [64, 128, 256, 512];

fn build(spec: &ResNetSpec, batch: usize) -> Network {
    let mut b = NetworkBuilder::new(spec.name, Shape4::new(batch, 3, 224, 224));
    let x = b.input_id();
    let stem = b
        .conv("conv1", x, ConvSpec::relu(64, 7, 2, 3))
        .expect("stem conv");
    let mut cur = b
        .pool("pool1", stem, PoolSpec::max(3, 2, 1))
        .expect("stem pool");

    for (stage, &blocks) in spec.stages.iter().enumerate() {
        let width = STAGE_WIDTH[stage];
        for block in 0..blocks {
            // conv2_x keeps 56x56 (the stem pool already downsampled);
            // later stages halve the resolution in their first block.
            let stride = if stage > 0 && block == 0 { 2 } else { 1 };
            let tag = format!("conv{}_{}", stage + 2, block + 1);
            cur = match spec.block {
                Block::Basic => basic_block(&mut b, &tag, cur, width, stride, spec.shortcuts),
                Block::Bottleneck => {
                    bottleneck_block(&mut b, &tag, cur, width, stride, spec.shortcuts)
                }
            };
        }
    }

    let gap = b.global_avg_pool("gap", cur).expect("gap");
    b.fc("fc1000", gap, 1000).expect("fc");
    b.finish().expect("resnet builds")
}

/// Whether the block needs a projection on the shortcut path: the spatial
/// resolution or channel count changes across the block.
fn needs_projection(
    b: &NetworkBuilder,
    input: LayerId,
    out_channels: usize,
    stride: usize,
) -> bool {
    let s = b.shape_of(input).expect("known layer");
    stride != 1 || s.c != out_channels
}

fn basic_block(
    b: &mut NetworkBuilder,
    tag: &str,
    input: LayerId,
    width: usize,
    stride: usize,
    shortcuts: bool,
) -> LayerId {
    let c1 = b
        .conv(
            format!("{tag}/a"),
            input,
            ConvSpec::relu(width, 3, stride, 1),
        )
        .expect("block conv a");
    if !shortcuts {
        return b
            .conv(format!("{tag}/b"), c1, ConvSpec::relu(width, 3, 1, 1))
            .expect("block conv b");
    }
    let c2 = b
        .conv(format!("{tag}/b"), c1, ConvSpec::linear(width, 3, 1, 1))
        .expect("block conv b");
    // The projection (when present) is scheduled just before the junction so
    // the shortcut data it reads must survive the whole residual branch.
    let shortcut = if needs_projection(b, input, width, stride) {
        b.conv(
            format!("{tag}/proj"),
            input,
            ConvSpec::linear(width, 1, stride, 0),
        )
        .expect("projection")
    } else {
        input
    };
    b.eltwise_add(format!("{tag}/add"), shortcut, c2, true)
        .expect("residual add")
}

fn bottleneck_block(
    b: &mut NetworkBuilder,
    tag: &str,
    input: LayerId,
    width: usize,
    stride: usize,
    shortcuts: bool,
) -> LayerId {
    let expanded = width * 4;
    let c1 = b
        .conv(format!("{tag}/a"), input, ConvSpec::relu(width, 1, 1, 0))
        .expect("bottleneck 1x1 reduce");
    // Stride lives on the 3x3, following the torchvision/v1.5 convention.
    let c2 = b
        .conv(format!("{tag}/b"), c1, ConvSpec::relu(width, 3, stride, 1))
        .expect("bottleneck 3x3");
    if !shortcuts {
        return b
            .conv(format!("{tag}/c"), c2, ConvSpec::relu(expanded, 1, 1, 0))
            .expect("bottleneck 1x1 expand");
    }
    let c3 = b
        .conv(format!("{tag}/c"), c2, ConvSpec::linear(expanded, 1, 1, 0))
        .expect("bottleneck 1x1 expand");
    let shortcut = if needs_projection(b, input, expanded, stride) {
        b.conv(
            format!("{tag}/proj"),
            input,
            ConvSpec::linear(expanded, 1, stride, 0),
        )
        .expect("projection")
    } else {
        input
    };
    b.eltwise_add(format!("{tag}/add"), shortcut, c3, true)
        .expect("residual add")
}

/// ResNet-18 (basic blocks, `[2, 2, 2, 2]`).
pub fn resnet18(batch: usize) -> Network {
    build(
        &ResNetSpec {
            name: "resnet18",
            block: Block::Basic,
            stages: [2, 2, 2, 2],
            shortcuts: true,
        },
        batch,
    )
}

/// ResNet-34 (basic blocks, `[3, 4, 6, 3]`) — one of the paper's headline
/// networks (58% feature-map traffic reduction).
pub fn resnet34(batch: usize) -> Network {
    build(
        &ResNetSpec {
            name: "resnet34",
            block: Block::Basic,
            stages: [3, 4, 6, 3],
            shortcuts: true,
        },
        batch,
    )
}

/// ResNet-50 (bottleneck blocks, `[3, 4, 6, 3]`).
pub fn resnet50(batch: usize) -> Network {
    build(
        &ResNetSpec {
            name: "resnet50",
            block: Block::Bottleneck,
            stages: [3, 4, 6, 3],
            shortcuts: true,
        },
        batch,
    )
}

/// ResNet-101 (bottleneck blocks, `[3, 4, 23, 3]`).
pub fn resnet101(batch: usize) -> Network {
    build(
        &ResNetSpec {
            name: "resnet101",
            block: Block::Bottleneck,
            stages: [3, 4, 23, 3],
            shortcuts: true,
        },
        batch,
    )
}

/// ResNet-152 (bottleneck blocks, `[3, 8, 36, 3]`) — one of the paper's
/// headline networks (43% feature-map traffic reduction).
pub fn resnet152(batch: usize) -> Network {
    build(
        &ResNetSpec {
            name: "resnet152",
            block: Block::Bottleneck,
            stages: [3, 8, 36, 3],
            shortcuts: true,
        },
        batch,
    )
}

/// ResNet by depth: accepts 18, 34, 50, 101 or 152.
///
/// # Panics
///
/// Panics on any other depth or on batch 0; [`try_resnet`] is the
/// non-panicking form.
pub fn resnet(depth: usize, batch: usize) -> Network {
    try_resnet(depth, batch).unwrap_or_else(|e| panic!("{e}"))
}

/// [`resnet`] with malformed input reported as a typed error instead of a
/// panic.
///
/// # Errors
///
/// [`ModelError::UnknownDepth`] for depths outside the family,
/// [`ModelError::InvalidBatch`] for batch 0.
pub fn try_resnet(depth: usize, batch: usize) -> Result<Network, ModelError> {
    if batch == 0 {
        return Err(ModelError::InvalidBatch);
    }
    Ok(match depth {
        18 => resnet18(batch),
        34 => resnet34(batch),
        50 => resnet50(batch),
        101 => resnet101(batch),
        152 => resnet152(batch),
        other => return Err(ModelError::UnknownDepth(other)),
    })
}

/// Plain-18: ResNet-18 topology with the shortcuts removed (control network
/// with zero shortcut data).
pub fn plain18(batch: usize) -> Network {
    build(
        &ResNetSpec {
            name: "plain18",
            block: Block::Basic,
            stages: [2, 2, 2, 2],
            shortcuts: false,
        },
        batch,
    )
}

/// Plain-34: ResNet-34 topology with the shortcuts removed.
pub fn plain34(batch: usize) -> Network {
    build(
        &ResNetSpec {
            name: "plain34",
            block: Block::Basic,
            stages: [3, 4, 6, 3],
            shortcuts: false,
        },
        batch,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::NetworkStats;
    use crate::LayerKind;

    #[test]
    fn resnet34_has_the_published_conv_count() {
        let net = resnet34(1);
        let convs = net
            .layers()
            .iter()
            .filter(|l| matches!(l.kind, LayerKind::Conv(_)))
            .count();
        // 33 "counted" convs (stem + 16 blocks * 2) + 3 projection convs.
        assert_eq!(convs, 36);
        let adds = net.layers().iter().filter(|l| l.kind.is_junction()).count();
        assert_eq!(adds, 16);
    }

    #[test]
    fn resnet50_macs_match_published_flops() {
        let net = resnet50(1);
        // ~4.1 GMACs for ResNet-50 at 224x224 (published ~4.1e9 fused ops).
        let g = net.total_macs() as f64 / 1e9;
        assert!((3.8..4.5).contains(&g), "got {g} GMACs");
    }

    #[test]
    fn resnet152_block_counts() {
        let net = resnet152(1);
        let adds = net.layers().iter().filter(|l| l.kind.is_junction()).count();
        assert_eq!(adds, 3 + 8 + 36 + 3);
        // Final stage output is 7x7x2048.
        let gap = net.layer_by_name("gap").unwrap();
        assert_eq!(
            net.layer(gap.inputs[0]).out_shape,
            Shape4::new(1, 2048, 7, 7)
        );
    }

    #[test]
    fn shortcut_share_is_near_forty_percent() {
        // The paper's motivation: shortcut data ~40% of FM data.
        let share34 = NetworkStats::of(&resnet34(1)).shortcut_share();
        let share152 = NetworkStats::of(&resnet152(1)).shortcut_share();
        assert!((0.25..0.45).contains(&share34), "resnet34 {share34}");
        assert!((0.30..0.50).contains(&share152), "resnet152 {share152}");
    }

    #[test]
    fn plain_controls_have_no_shortcuts() {
        assert_eq!(plain18(1).shortcut_edges().len(), 0);
        assert_eq!(plain34(1).shortcut_edges().len(), 0);
        // Same conv trunk MACs as the residual versions minus projections.
        assert!(plain34(1).total_macs() < resnet34(1).total_macs());
    }

    #[test]
    fn every_resnet_depth_builds() {
        for d in [18, 34, 50, 101, 152] {
            let net = resnet(d, 1);
            assert!(net.len() > 20, "resnet{d}");
            assert!(!net.shortcut_edges().is_empty(), "resnet{d}");
        }
    }

    #[test]
    #[should_panic(expected = "no ResNet-77")]
    fn unknown_depth_panics() {
        let _ = resnet(77, 1);
    }

    #[test]
    fn first_bottleneck_stage_projects_despite_stride_one() {
        let net = resnet50(1);
        assert!(net.layer_by_name("conv2_1/proj").is_some());
        assert!(net.layer_by_name("conv2_2/proj").is_none());
    }

    #[test]
    fn downsampling_blocks_project_in_basic_nets() {
        let net = resnet34(1);
        assert!(net.layer_by_name("conv2_1/proj").is_none()); // 64 -> 64
        for s in 3..=5 {
            assert!(net.layer_by_name(&format!("conv{s}_1/proj")).is_some());
            assert!(net.layer_by_name(&format!("conv{s}_2/proj")).is_none());
        }
    }

    #[test]
    fn batch_scales_macs_linearly() {
        let m1 = resnet18(1).total_macs();
        let m4 = resnet18(4).total_macs();
        assert_eq!(m4, 4 * m1);
    }
}
