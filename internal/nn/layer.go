// Package nn is a from-scratch convolutional neural network substrate:
// layers, backpropagation, a concurrent trainer, and model serialization.
//
// It exists because Deep Validation instruments a *trained* CNN: the
// framework needs per-layer activation taps during inference (paper
// Algorithm 2) and input gradients for the white-box attacks of the
// evaluation (Section IV-D5). Both fall out of the Layer contract below.
//
// Concurrency model: layers hold parameters but no per-call state. All
// forward caches and per-sample parameter gradients live in a Context,
// so any number of samples can flow through the same network
// concurrently. The trainer reduces per-worker gradients in fixed
// parameter order, keeping training deterministic for a given seed.
package nn

import (
	"math/rand"

	"deepvalidation/internal/tensor"
)

// Param is a single learnable tensor with a stable name for
// serialization and optimizer state lookup.
type Param struct {
	Name  string
	Value *tensor.Tensor
}

// Layer is one component of a network. Forward computes the layer output
// for a single sample, recording whatever Backward will need in ctx.
// Backward consumes the upstream gradient, accumulates parameter
// gradients into ctx, and returns the gradient with respect to the
// layer input.
type Layer interface {
	// Name returns a short human-readable identifier, unique within a
	// network (the builder enforces uniqueness by suffixing).
	Name() string
	// OutShape returns the output shape for a given input shape,
	// allowing architectures to be assembled without running data
	// through them.
	OutShape(in []int) []int
	// Forward computes the output for one sample.
	Forward(x *tensor.Tensor, ctx *Context) *tensor.Tensor
	// Backward computes the input gradient for one sample; it must be
	// called after Forward with the same Context.
	Backward(grad *tensor.Tensor, ctx *Context) *tensor.Tensor
	// Params returns the learnable parameters, or nil for stateless
	// layers.
	Params() []*Param
}

// Context carries per-sample forward caches and parameter gradients.
// A Context must not be shared between concurrently processed samples.
type Context struct {
	train     bool
	calibrate bool
	rng       *rand.Rand
	cache     map[Layer]any
	grads     map[*Param]*tensor.Tensor
}

// NewContext returns a Context for one forward/backward pass.
// train selects training behaviour (e.g. dropout active); rng supplies
// any stochastic layers and may be nil when train is false.
func NewContext(train bool, rng *rand.Rand) *Context {
	return &Context{
		train: train,
		rng:   rng,
		cache: make(map[Layer]any),
		grads: make(map[*Param]*tensor.Tensor),
	}
}

// NewCalibrationContext returns a Context for a statistics-calibration
// forward pass: layers with running statistics (BatchNorm) fold the
// sample into them. Calibration passes must run single-threaded.
func NewCalibrationContext() *Context {
	c := NewContext(false, nil)
	c.calibrate = true
	return c
}

// Training reports whether this pass runs in training mode.
func (c *Context) Training() bool { return c.train }

// Calibrating reports whether this pass should refresh running
// statistics.
func (c *Context) Calibrating() bool { return c.calibrate }

// Rand returns the context's random source (nil in inference contexts
// that were created without one).
func (c *Context) Rand() *rand.Rand { return c.rng }

// put stores a layer's forward cache.
func (c *Context) put(l Layer, v any) { c.cache[l] = v }

// get retrieves a layer's forward cache; ok is false if Forward was not
// called for l in this context.
func (c *Context) get(l Layer) (any, bool) {
	v, ok := c.cache[l]
	return v, ok
}

// AddGrad accumulates g into the gradient slot for p, allocating it on
// first use.
func (c *Context) AddGrad(p *Param, g *tensor.Tensor) {
	if acc, ok := c.grads[p]; ok {
		acc.AddInPlace(g)
		return
	}
	c.grads[p] = g.Clone()
}

// Grad returns the accumulated gradient for p, or nil if none was
// recorded.
func (c *Context) Grad(p *Param) *tensor.Tensor { return c.grads[p] }

// MergeGradsInto adds this context's parameter gradients into dst,
// keyed by parameter, allocating slots as needed. The caller controls
// iteration determinism by supplying the parameter order.
func (c *Context) MergeGradsInto(dst map[*Param]*tensor.Tensor, params []*Param) {
	for _, p := range params {
		g, ok := c.grads[p]
		if !ok {
			continue
		}
		if acc, ok := dst[p]; ok {
			acc.AddInPlace(g)
		} else {
			dst[p] = g.Clone()
		}
	}
}
