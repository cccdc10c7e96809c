use std::collections::HashMap;
use std::error::Error;
use std::fmt;

use serde::Serialize;
use sm_tensor::ops::conv_out_dim;
use sm_tensor::Shape4;

use crate::{ConvSpec, DwConvSpec, Layer, LayerId, LayerKind, PoolSpec};

/// A feature-map edge of the network DAG: `from` produced the feature map,
/// `to` consumes it as operand `operand`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub struct Edge {
    /// Producer layer.
    pub from: LayerId,
    /// Consumer layer.
    pub to: LayerId,
    /// Position of this feature map in the consumer's operand list.
    pub operand: usize,
}

impl Edge {
    /// A **shortcut edge** skips at least one scheduled layer: the consumer
    /// is not the layer executed immediately after the producer.
    ///
    /// This is the structural property Shortcut Mining exploits — the data
    /// must survive across the intermediate layers to be reused on chip.
    pub fn is_shortcut(&self) -> bool {
        self.to.index() > self.from.index() + 1
    }

    /// Number of intermediate layers the edge skips over.
    pub fn skip_distance(&self) -> usize {
        self.to.index().saturating_sub(self.from.index() + 1)
    }
}

/// Error produced while assembling a [`Network`].
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum BuildError {
    /// Referenced a layer id that does not exist yet.
    UnknownLayer(LayerId),
    /// Operator shapes are incompatible (message names the layer).
    Shape(String),
    /// Layer name already used.
    DuplicateName(String),
    /// The network has no layers or no input layer.
    Empty,
}

impl fmt::Display for BuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildError::UnknownLayer(id) => write!(f, "unknown layer {id}"),
            BuildError::Shape(msg) => write!(f, "shape error: {msg}"),
            BuildError::DuplicateName(name) => write!(f, "duplicate layer name {name:?}"),
            BuildError::Empty => write!(f, "network has no input layer"),
        }
    }
}

impl Error for BuildError {}

/// An immutable CNN description: layers in execution order plus the
/// feature-map edges between them.
///
/// Constructed through [`NetworkBuilder`]; construction resolves every output
/// shape and validates operand compatibility, so a `Network` in hand is
/// always internally consistent.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Network {
    name: String,
    layers: Vec<Layer>,
    consumers: Vec<Vec<LayerId>>,
}

impl Network {
    /// Network name (e.g. `"resnet34"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Layers in execution (schedule) order.
    pub fn layers(&self) -> &[Layer] {
        &self.layers
    }

    /// Number of layers, including the input pseudo-layer.
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// `true` when the network has no layers (never the case for a built
    /// network, but required for API completeness).
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }

    /// The layer with the given id.
    ///
    /// # Panics
    ///
    /// Panics when the id does not belong to this network.
    pub fn layer(&self, id: LayerId) -> &Layer {
        &self.layers[id.index()]
    }

    /// The input pseudo-layer.
    pub fn input(&self) -> &Layer {
        &self.layers[0]
    }

    /// Layers that consume `id`'s output, in schedule order.
    pub fn consumers(&self, id: LayerId) -> &[LayerId] {
        &self.consumers[id.index()]
    }

    /// Schedule position of the last consumer of `id`'s output, or `None`
    /// for the network output (no consumers).
    pub fn last_use(&self, id: LayerId) -> Option<LayerId> {
        self.consumers[id.index()].last().copied()
    }

    /// Resolved input shapes of a layer, in operand order. Nothing is
    /// allocated: the shapes are read from the producers as the iterator
    /// advances.
    pub fn in_shapes(&self, id: LayerId) -> impl ExactSizeIterator<Item = Shape4> + '_ {
        self.layer(id)
            .inputs
            .iter()
            .map(|&p| self.layer(p).out_shape)
    }

    /// All feature-map edges of the DAG, ordered by consumer then operand.
    pub fn edges(&self) -> Vec<Edge> {
        let mut edges = Vec::new();
        for layer in &self.layers {
            for (operand, &from) in layer.inputs.iter().enumerate() {
                edges.push(Edge {
                    from,
                    to: layer.id,
                    operand,
                });
            }
        }
        edges
    }

    /// All shortcut edges (see [`Edge::is_shortcut`]).
    pub fn shortcut_edges(&self) -> Vec<Edge> {
        self.edges().into_iter().filter(Edge::is_shortcut).collect()
    }

    /// Ids of layers whose output feeds at least one shortcut edge.
    pub fn shortcut_sources(&self) -> Vec<LayerId> {
        let mut sources: Vec<LayerId> = self.shortcut_edges().iter().map(|e| e.from).collect();
        sources.sort_unstable();
        sources.dedup();
        sources
    }

    /// Weight elements read over the whole network (one pass, no batch
    /// dependence).
    pub fn total_weight_elems(&self) -> usize {
        self.layers
            .iter()
            .map(|l| l.weight_elems(self.in_shapes(l.id)))
            .sum()
    }

    /// Multiply-accumulate operations over the whole network for the built
    /// batch size.
    pub fn total_macs(&self) -> u64 {
        self.layers
            .iter()
            .map(|l| l.macs(self.in_shapes(l.id)))
            .sum()
    }

    /// Returns the layer with the given unique name.
    pub fn layer_by_name(&self, name: &str) -> Option<&Layer> {
        self.layers.iter().find(|l| l.name == name)
    }
}

/// Incremental [`Network`] constructor.
///
/// Layers are appended in execution order; every `add_*` method returns the
/// new layer's [`LayerId`] for wiring later layers. Shapes are resolved and
/// validated eagerly so errors point at the offending layer.
///
/// # Example
///
/// ```
/// use sm_model::{ConvSpec, NetworkBuilder};
/// use sm_tensor::Shape4;
///
/// # fn main() -> Result<(), sm_model::BuildError> {
/// let mut b = NetworkBuilder::new("toy", Shape4::new(1, 3, 8, 8));
/// let input = b.input_id();
/// let c1 = b.conv("c1", input, ConvSpec::relu(16, 3, 1, 1))?;
/// let c2 = b.conv("c2", c1, ConvSpec::linear(16, 3, 1, 1))?;
/// let add = b.eltwise_add("add", c1, c2, true)?; // c1 -> add is a shortcut
/// let net = b.finish()?;
/// assert_eq!(net.shortcut_edges().len(), 1);
/// # let _ = add;
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct NetworkBuilder {
    name: String,
    layers: Vec<Layer>,
    names: HashMap<String, LayerId>,
}

impl NetworkBuilder {
    /// Starts a network with the given input feature-map shape. The input
    /// pseudo-layer is created immediately as layer 0.
    pub fn new(name: impl Into<String>, input_shape: Shape4) -> Self {
        let input = Layer {
            id: LayerId(0),
            name: "input".into(),
            kind: LayerKind::Input,
            inputs: Vec::new(),
            out_shape: input_shape,
        };
        let mut names = HashMap::new();
        names.insert("input".to_string(), LayerId(0));
        NetworkBuilder {
            name: name.into(),
            layers: vec![input],
            names,
        }
    }

    /// Id of the input pseudo-layer.
    pub fn input_id(&self) -> LayerId {
        LayerId(0)
    }

    /// Output shape of an already-added layer.
    ///
    /// # Errors
    ///
    /// Returns [`BuildError::UnknownLayer`] for ids not in this builder.
    pub fn shape_of(&self, id: LayerId) -> Result<Shape4, BuildError> {
        self.layers
            .get(id.index())
            .map(|l| l.out_shape)
            .ok_or(BuildError::UnknownLayer(id))
    }

    fn push(
        &mut self,
        name: impl Into<String>,
        kind: LayerKind,
        inputs: Vec<LayerId>,
        out_shape: Shape4,
    ) -> Result<LayerId, BuildError> {
        let name = name.into();
        let id = LayerId(self.layers.len());
        if self.names.insert(name.clone(), id).is_some() {
            return Err(BuildError::DuplicateName(name));
        }
        self.layers.push(Layer {
            id,
            name,
            kind,
            inputs,
            out_shape,
        });
        Ok(id)
    }

    /// Appends a convolution layer consuming `input`.
    ///
    /// # Errors
    ///
    /// Returns [`BuildError::UnknownLayer`] or [`BuildError::Shape`] when the
    /// kernel is degenerate for the input extent, and
    /// [`BuildError::DuplicateName`] on name reuse.
    pub fn conv(
        &mut self,
        name: impl Into<String>,
        input: LayerId,
        spec: ConvSpec,
    ) -> Result<LayerId, BuildError> {
        let name = name.into();
        let in_shape = self.shape_of(input)?;
        let oh = conv_out_dim(in_shape.h, spec.kernel, spec.stride, spec.pad);
        let ow = conv_out_dim(in_shape.w, spec.kernel, spec.stride, spec.pad);
        let (oh, ow) = match (oh, ow) {
            (Some(oh), Some(ow)) => (oh, ow),
            _ => {
                return Err(BuildError::Shape(format!(
                    "{name}: conv k{} s{} p{} has no output for input {in_shape}",
                    spec.kernel, spec.stride, spec.pad
                )))
            }
        };
        let out = Shape4::new(in_shape.n, spec.out_channels, oh, ow);
        self.push(name, LayerKind::Conv(spec), vec![input], out)
    }

    /// Appends a depthwise convolution consuming `input` (output channels
    /// equal input channels).
    ///
    /// # Errors
    ///
    /// Same error conditions as [`NetworkBuilder::conv`].
    pub fn depthwise_conv(
        &mut self,
        name: impl Into<String>,
        input: LayerId,
        spec: DwConvSpec,
    ) -> Result<LayerId, BuildError> {
        let name = name.into();
        let in_shape = self.shape_of(input)?;
        let oh = conv_out_dim(in_shape.h, spec.kernel, spec.stride, spec.pad);
        let ow = conv_out_dim(in_shape.w, spec.kernel, spec.stride, spec.pad);
        let (oh, ow) = match (oh, ow) {
            (Some(oh), Some(ow)) => (oh, ow),
            _ => {
                return Err(BuildError::Shape(format!(
                    "{name}: depthwise k{} s{} p{} has no output for input {in_shape}",
                    spec.kernel, spec.stride, spec.pad
                )))
            }
        };
        let out = Shape4::new(in_shape.n, in_shape.c, oh, ow);
        self.push(name, LayerKind::DepthwiseConv(spec), vec![input], out)
    }

    /// Appends a pooling layer consuming `input`.
    ///
    /// # Errors
    ///
    /// Same error conditions as [`NetworkBuilder::conv`].
    pub fn pool(
        &mut self,
        name: impl Into<String>,
        input: LayerId,
        spec: PoolSpec,
    ) -> Result<LayerId, BuildError> {
        let name = name.into();
        let in_shape = self.shape_of(input)?;
        let oh = conv_out_dim(in_shape.h, spec.kernel, spec.stride, spec.pad);
        let ow = conv_out_dim(in_shape.w, spec.kernel, spec.stride, spec.pad);
        let (oh, ow) = match (oh, ow) {
            (Some(oh), Some(ow)) => (oh, ow),
            _ => {
                return Err(BuildError::Shape(format!(
                    "{name}: pool k{} s{} p{} has no output for input {in_shape}",
                    spec.kernel, spec.stride, spec.pad
                )))
            }
        };
        let out = Shape4::new(in_shape.n, in_shape.c, oh, ow);
        self.push(name, LayerKind::Pool(spec), vec![input], out)
    }

    /// Appends a global-average-pooling layer consuming `input`.
    ///
    /// # Errors
    ///
    /// Returns [`BuildError::UnknownLayer`] or [`BuildError::DuplicateName`].
    pub fn global_avg_pool(
        &mut self,
        name: impl Into<String>,
        input: LayerId,
    ) -> Result<LayerId, BuildError> {
        let in_shape = self.shape_of(input)?;
        let out = Shape4::new(in_shape.n, in_shape.c, 1, 1);
        self.push(name, LayerKind::GlobalAvgPool, vec![input], out)
    }

    /// Appends a fully-connected layer consuming `input`.
    ///
    /// # Errors
    ///
    /// Returns [`BuildError::UnknownLayer`] or [`BuildError::DuplicateName`].
    pub fn fc(
        &mut self,
        name: impl Into<String>,
        input: LayerId,
        out_features: usize,
    ) -> Result<LayerId, BuildError> {
        let in_shape = self.shape_of(input)?;
        let out = Shape4::new(in_shape.n, out_features, 1, 1);
        self.push(name, LayerKind::Fc { out_features }, vec![input], out)
    }

    /// Appends an element-wise addition of `a` and `b` (residual junction).
    ///
    /// # Errors
    ///
    /// Returns [`BuildError::Shape`] when the operand shapes differ, plus the
    /// usual unknown-layer/duplicate-name conditions.
    pub fn eltwise_add(
        &mut self,
        name: impl Into<String>,
        a: LayerId,
        b: LayerId,
        relu: bool,
    ) -> Result<LayerId, BuildError> {
        let name = name.into();
        let (sa, sb) = (self.shape_of(a)?, self.shape_of(b)?);
        if sa != sb {
            return Err(BuildError::Shape(format!(
                "{name}: eltwise_add operands {sa} and {sb} differ"
            )));
        }
        self.push(name, LayerKind::EltwiseAdd { relu }, vec![a, b], sa)
    }

    /// Appends a channel concatenation of the given inputs (fire-module /
    /// bypass junction).
    ///
    /// # Errors
    ///
    /// Returns [`BuildError::Shape`] when fewer than two inputs are given or
    /// batch/spatial dims differ, plus unknown-layer/duplicate-name.
    pub fn concat(
        &mut self,
        name: impl Into<String>,
        inputs: &[LayerId],
    ) -> Result<LayerId, BuildError> {
        let name = name.into();
        if inputs.len() < 2 {
            return Err(BuildError::Shape(format!(
                "{name}: concat needs at least two inputs"
            )));
        }
        let first = self.shape_of(inputs[0])?;
        let mut channels = 0;
        for &i in inputs {
            let s = self.shape_of(i)?;
            if s.n != first.n || s.h != first.h || s.w != first.w {
                return Err(BuildError::Shape(format!(
                    "{name}: concat operand {s} incompatible with {first}"
                )));
            }
            channels += s.c;
        }
        let out = Shape4::new(first.n, channels, first.h, first.w);
        self.push(name, LayerKind::ConcatChannels, inputs.to_vec(), out)
    }

    /// Finalizes the network, computing the consumer lists.
    ///
    /// # Errors
    ///
    /// Returns [`BuildError::Empty`] when only the input pseudo-layer exists.
    pub fn finish(self) -> Result<Network, BuildError> {
        if self.layers.len() < 2 {
            return Err(BuildError::Empty);
        }
        let mut consumers = vec![Vec::new(); self.layers.len()];
        for layer in &self.layers {
            for &input in &layer.inputs {
                consumers[input.index()].push(layer.id);
            }
        }
        Ok(Network {
            name: self.name,
            layers: self.layers,
            consumers,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn residual_toy() -> Network {
        let mut b = NetworkBuilder::new("toy", Shape4::new(1, 3, 8, 8));
        let x = b.input_id();
        let c1 = b.conv("c1", x, ConvSpec::relu(8, 3, 1, 1)).unwrap();
        let c2 = b.conv("c2", c1, ConvSpec::relu(8, 3, 1, 1)).unwrap();
        let c3 = b.conv("c3", c2, ConvSpec::linear(8, 3, 1, 1)).unwrap();
        let add = b.eltwise_add("add", c1, c3, true).unwrap();
        let _fc = b.fc("fc", add, 10).unwrap();
        b.finish().unwrap()
    }

    #[test]
    fn builder_resolves_shapes() {
        let net = residual_toy();
        assert_eq!(
            net.layer_by_name("c1").unwrap().out_shape,
            Shape4::new(1, 8, 8, 8)
        );
        assert_eq!(
            net.layer_by_name("fc").unwrap().out_shape,
            Shape4::new(1, 10, 1, 1)
        );
        assert_eq!(net.len(), 6);
        assert!(!net.is_empty());
    }

    #[test]
    fn shortcut_edges_skip_layers() {
        let net = residual_toy();
        let shortcuts = net.shortcut_edges();
        assert_eq!(shortcuts.len(), 1);
        let e = shortcuts[0];
        assert_eq!(net.layer(e.from).name, "c1");
        assert_eq!(net.layer(e.to).name, "add");
        assert_eq!(e.skip_distance(), 2);
        assert_eq!(net.shortcut_sources().len(), 1);
    }

    #[test]
    fn consumers_and_last_use() {
        let net = residual_toy();
        let c1 = net.layer_by_name("c1").unwrap().id;
        let names: Vec<_> = net
            .consumers(c1)
            .iter()
            .map(|&id| net.layer(id).name.as_str())
            .collect();
        assert_eq!(names, ["c2", "add"]);
        assert_eq!(net.layer(net.last_use(c1).unwrap()).name, "add");
        let fc = net.layer_by_name("fc").unwrap().id;
        assert_eq!(net.last_use(fc), None);
    }

    #[test]
    fn add_requires_matching_shapes() {
        let mut b = NetworkBuilder::new("bad", Shape4::new(1, 3, 8, 8));
        let x = b.input_id();
        let c1 = b.conv("c1", x, ConvSpec::relu(8, 3, 1, 1)).unwrap();
        let c2 = b.conv("c2", c1, ConvSpec::relu(8, 3, 2, 1)).unwrap();
        assert!(matches!(
            b.eltwise_add("add", c1, c2, true),
            Err(BuildError::Shape(_))
        ));
    }

    #[test]
    fn concat_sums_channels_and_validates() {
        let mut b = NetworkBuilder::new("cat", Shape4::new(1, 3, 8, 8));
        let x = b.input_id();
        let a = b.conv("a", x, ConvSpec::relu(4, 1, 1, 0)).unwrap();
        let c = b.conv("c", x, ConvSpec::relu(6, 3, 1, 1)).unwrap();
        let cat = b.concat("cat", &[a, c]).unwrap();
        assert_eq!(b.shape_of(cat).unwrap(), Shape4::new(1, 10, 8, 8));
        assert!(b.concat("cat1", &[a]).is_err());
        let d = b.conv("d", x, ConvSpec::relu(6, 3, 2, 1)).unwrap();
        assert!(b.concat("cat2", &[a, d]).is_err());
    }

    #[test]
    fn duplicate_names_and_unknown_layers_are_rejected() {
        let mut b = NetworkBuilder::new("dup", Shape4::new(1, 3, 8, 8));
        let x = b.input_id();
        b.conv("c", x, ConvSpec::relu(4, 3, 1, 1)).unwrap();
        assert!(matches!(
            b.conv("c", x, ConvSpec::relu(4, 3, 1, 1)),
            Err(BuildError::DuplicateName(_))
        ));
        assert!(matches!(
            b.conv("c9", LayerId(99), ConvSpec::relu(4, 3, 1, 1)),
            Err(BuildError::UnknownLayer(_))
        ));
    }

    #[test]
    fn degenerate_conv_is_rejected() {
        let mut b = NetworkBuilder::new("deg", Shape4::new(1, 3, 2, 2));
        let x = b.input_id();
        assert!(matches!(
            b.conv("c", x, ConvSpec::relu(4, 5, 1, 0)),
            Err(BuildError::Shape(_))
        ));
    }

    #[test]
    fn empty_network_is_rejected() {
        let b = NetworkBuilder::new("empty", Shape4::new(1, 3, 8, 8));
        assert!(matches!(b.finish(), Err(BuildError::Empty)));
    }

    #[test]
    fn totals_accumulate() {
        let net = residual_toy();
        assert!(net.total_weight_elems() > 0);
        assert!(net.total_macs() > 0);
        // Conv c1: 8 out channels, 3 in, 3x3 kernel.
        let c1 = net.layer_by_name("c1").unwrap();
        assert_eq!(c1.weight_elems(net.in_shapes(c1.id)), 8 * 3 * 9);
    }
}
