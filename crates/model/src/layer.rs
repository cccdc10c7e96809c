use std::fmt;

use serde::Serialize;
use sm_tensor::Shape4;

/// Identifier of a layer within one [`crate::Network`].
///
/// Layer ids are dense indices into the network's schedule: `LayerId(k)` is
/// the `k`-th layer executed. This makes "is this edge a shortcut?" a simple
/// index comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize)]
pub struct LayerId(pub usize);

impl LayerId {
    /// Position of the layer in the execution schedule.
    pub const fn index(&self) -> usize {
        self.0
    }
}

impl fmt::Display for LayerId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "L{}", self.0)
    }
}

/// Convolution layer specification (square kernel, symmetric stride/pad).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub struct ConvSpec {
    /// Number of output channels.
    pub out_channels: usize,
    /// Kernel extent.
    pub kernel: usize,
    /// Stride.
    pub stride: usize,
    /// Zero padding on each border.
    pub pad: usize,
    /// Whether a ReLU is fused onto the output (does not affect shapes or
    /// traffic, tracked for functional fidelity).
    pub relu: bool,
}

impl ConvSpec {
    /// Creates a convolution spec with a fused ReLU.
    pub const fn relu(out_channels: usize, kernel: usize, stride: usize, pad: usize) -> Self {
        ConvSpec {
            out_channels,
            kernel,
            stride,
            pad,
            relu: true,
        }
    }

    /// Creates a convolution spec without an activation (used before
    /// residual additions, where the ReLU follows the junction).
    pub const fn linear(out_channels: usize, kernel: usize, stride: usize, pad: usize) -> Self {
        ConvSpec {
            out_channels,
            kernel,
            stride,
            pad,
            relu: false,
        }
    }
}

/// Depthwise convolution specification: one single-channel filter per
/// input channel (output channels equal input channels).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub struct DwConvSpec {
    /// Kernel extent.
    pub kernel: usize,
    /// Stride.
    pub stride: usize,
    /// Zero padding on each border.
    pub pad: usize,
    /// Fused ReLU on the output.
    pub relu: bool,
}

impl DwConvSpec {
    /// Creates a depthwise spec with a fused ReLU.
    pub const fn relu(kernel: usize, stride: usize, pad: usize) -> Self {
        DwConvSpec {
            kernel,
            stride,
            pad,
            relu: true,
        }
    }

    /// Creates a depthwise spec without an activation.
    pub const fn linear(kernel: usize, stride: usize, pad: usize) -> Self {
        DwConvSpec {
            kernel,
            stride,
            pad,
            relu: false,
        }
    }
}

/// Pooling flavour.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum PoolKind {
    /// Max pooling.
    Max,
    /// Average pooling (fixed divisor).
    Avg,
}

/// Pooling layer specification.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub struct PoolSpec {
    /// Pooling flavour.
    pub kind: PoolKind,
    /// Window extent.
    pub kernel: usize,
    /// Stride.
    pub stride: usize,
    /// Zero padding on each border.
    pub pad: usize,
}

impl PoolSpec {
    /// Max-pooling spec.
    pub const fn max(kernel: usize, stride: usize, pad: usize) -> Self {
        PoolSpec {
            kind: PoolKind::Max,
            kernel,
            stride,
            pad,
        }
    }

    /// Average-pooling spec.
    pub const fn avg(kernel: usize, stride: usize, pad: usize) -> Self {
        PoolSpec {
            kind: PoolKind::Avg,
            kernel,
            stride,
            pad,
        }
    }
}

/// The operator a layer performs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum LayerKind {
    /// Network input pseudo-layer; produces the input feature map.
    Input,
    /// 2-D convolution.
    Conv(ConvSpec),
    /// Depthwise 2-D convolution (one filter per channel).
    DepthwiseConv(DwConvSpec),
    /// 2-D pooling.
    Pool(PoolSpec),
    /// Global average pooling to `1x1` spatial.
    GlobalAvgPool,
    /// Fully-connected layer with the given output feature count.
    Fc {
        /// Number of output features.
        out_features: usize,
    },
    /// Element-wise addition of exactly two inputs (residual junction). The
    /// flag records a fused ReLU after the addition.
    EltwiseAdd {
        /// Fused ReLU after the addition.
        relu: bool,
    },
    /// Channel concatenation of two or more inputs (fire-module /
    /// bypass junction).
    ConcatChannels,
}

impl LayerKind {
    /// Short operator mnemonic used in reports (`conv`, `pool`, `add`, …).
    pub fn mnemonic(&self) -> &'static str {
        match self {
            LayerKind::Input => "input",
            LayerKind::Conv(_) => "conv",
            LayerKind::DepthwiseConv(_) => "dwconv",
            LayerKind::Pool(_) => "pool",
            LayerKind::GlobalAvgPool => "gap",
            LayerKind::Fc { .. } => "fc",
            LayerKind::EltwiseAdd { .. } => "add",
            LayerKind::ConcatChannels => "concat",
        }
    }

    /// Whether the layer is a shortcut junction (consumes a shortcut
    /// operand): element-wise add or concat.
    pub fn is_junction(&self) -> bool {
        matches!(
            self,
            LayerKind::EltwiseAdd { .. } | LayerKind::ConcatChannels
        )
    }
}

/// One layer of a network: an operator plus its resolved input/output shapes.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Layer {
    /// Identifier (schedule position).
    pub id: LayerId,
    /// Human-readable name, unique within the network (e.g. `"conv3_2/b"`).
    pub name: String,
    /// Operator.
    pub kind: LayerKind,
    /// Producers of this layer's inputs, in operand order.
    pub inputs: Vec<LayerId>,
    /// Resolved output shape.
    pub out_shape: Shape4,
}

impl Layer {
    /// Number of elements in the output feature map.
    pub fn out_elems(&self) -> usize {
        self.out_shape.len()
    }

    /// Number of weight elements the layer reads (zero for non-parametric
    /// layers). Bias elements are ignored: they are negligible against
    /// feature maps and kernels.
    pub fn weight_elems(&self, in_shapes: impl IntoIterator<Item = Shape4>) -> usize {
        let in_shapes = in_shapes.into_iter();
        match self.kind {
            LayerKind::Conv(spec) => {
                let c_in: usize = in_shapes.map(|s| s.c).sum();
                spec.out_channels * c_in * spec.kernel * spec.kernel
            }
            LayerKind::DepthwiseConv(spec) => {
                let c: usize = in_shapes.map(|s| s.c).sum();
                c * spec.kernel * spec.kernel
            }
            LayerKind::Fc { out_features } => {
                let in_features: usize = in_shapes.map(|s| s.per_image()).sum();
                out_features * in_features
            }
            _ => 0,
        }
    }

    /// Number of multiply-accumulate operations the layer performs for the
    /// full batch. Poolings and junctions count one op per output element so
    /// throughput denominators stay finite for every layer.
    pub fn macs(&self, in_shapes: impl IntoIterator<Item = Shape4>) -> u64 {
        let in_shapes = in_shapes.into_iter();
        match self.kind {
            LayerKind::Input => 0,
            LayerKind::Conv(spec) => {
                let c_in: usize = in_shapes.map(|s| s.c).sum();
                self.out_shape.len() as u64 * (c_in * spec.kernel * spec.kernel) as u64
            }
            LayerKind::Fc { .. } => {
                let in_features: usize = in_shapes.map(|s| s.per_image()).sum();
                self.out_shape.len() as u64 * in_features as u64
            }
            LayerKind::DepthwiseConv(spec) => {
                self.out_shape.len() as u64 * (spec.kernel * spec.kernel) as u64
            }
            LayerKind::Pool(spec) => {
                self.out_shape.len() as u64 * (spec.kernel * spec.kernel) as u64
            }
            LayerKind::GlobalAvgPool => in_shapes.map(|s| s.len() as u64).sum(),
            LayerKind::EltwiseAdd { .. } | LayerKind::ConcatChannels => self.out_shape.len() as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn conv_layer() -> Layer {
        Layer {
            id: LayerId(1),
            name: "conv1".into(),
            kind: LayerKind::Conv(ConvSpec::relu(64, 3, 1, 1)),
            inputs: vec![LayerId(0)],
            out_shape: Shape4::new(1, 64, 56, 56),
        }
    }

    #[test]
    fn conv_weight_and_mac_counts() {
        let l = conv_layer();
        let ins = [Shape4::new(1, 32, 56, 56)];
        assert_eq!(l.weight_elems(ins), 64 * 32 * 9);
        assert_eq!(l.macs(ins), (64 * 56 * 56) as u64 * (32 * 9) as u64);
    }

    #[test]
    fn fc_counts_flattened_features() {
        let l = Layer {
            id: LayerId(2),
            name: "fc".into(),
            kind: LayerKind::Fc { out_features: 10 },
            inputs: vec![LayerId(1)],
            out_shape: Shape4::new(1, 10, 1, 1),
        };
        let ins = [Shape4::new(1, 512, 2, 2)];
        assert_eq!(l.weight_elems(ins), 10 * 512 * 4);
        assert_eq!(l.macs(ins), 10 * 512 * 4);
    }

    #[test]
    fn junctions_have_no_weights() {
        let l = Layer {
            id: LayerId(3),
            name: "add".into(),
            kind: LayerKind::EltwiseAdd { relu: true },
            inputs: vec![LayerId(1), LayerId(2)],
            out_shape: Shape4::new(1, 64, 56, 56),
        };
        let ins = [Shape4::new(1, 64, 56, 56); 2];
        assert_eq!(l.weight_elems(ins), 0);
        assert_eq!(l.macs(ins), (64 * 56 * 56) as u64);
        assert!(l.kind.is_junction());
        assert!(!conv_layer().kind.is_junction());
    }

    #[test]
    fn mnemonics_are_stable() {
        assert_eq!(LayerKind::Input.mnemonic(), "input");
        assert_eq!(LayerKind::ConcatChannels.mnemonic(), "concat");
        assert_eq!(LayerKind::GlobalAvgPool.mnemonic(), "gap");
    }

    #[test]
    fn layer_id_orders_by_schedule() {
        assert!(LayerId(2) > LayerId(1));
        assert_eq!(format!("{}", LayerId(7)), "L7");
        assert_eq!(LayerId(7).index(), 7);
    }
}
