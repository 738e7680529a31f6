package nn

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"

	"deepvalidation/internal/tensor"
)

// Optimizer applies one update to a named parameter given its averaged
// gradient. Implementations live in internal/opt; the interface is
// defined here so nn does not depend on them.
type Optimizer interface {
	Step(name string, value, grad *tensor.Tensor)
}

// Trainer runs minibatch gradient descent over a network.
//
// Each batch fans out across Workers goroutines; every worker owns a
// Context and a derived random source, accumulates parameter gradients
// locally, and the reduction happens on the caller's goroutine in fixed
// worker order — so a given seed always produces the same model,
// independent of scheduling.
type Trainer struct {
	Net       *Network
	Optimizer Optimizer
	BatchSize int
	Workers   int
	Rng       *rand.Rand

	// CalibrateWith, when non-empty, is streamed through the network
	// after every epoch to refresh BatchNorm running statistics.
	CalibrateWith []*tensor.Tensor

	// OnEpoch, when non-nil, observes training progress.
	OnEpoch func(epoch int, meanLoss, accuracy float64)
}

// EpochStats summarizes one training epoch.
type EpochStats struct {
	Epoch    int
	MeanLoss float64
	Accuracy float64
}

// NewTrainer returns a trainer with sensible defaults: batch size 128
// (the paper's setting), workers = GOMAXPROCS.
func NewTrainer(net *Network, optimizer Optimizer, rng *rand.Rand) *Trainer {
	return &Trainer{
		Net:       net,
		Optimizer: optimizer,
		BatchSize: 128,
		Workers:   runtime.GOMAXPROCS(0),
		Rng:       rng,
	}
}

// Train runs the given number of epochs over (xs, ys) and returns
// per-epoch statistics. It returns an error on malformed input rather
// than panicking, since callers typically feed it external data.
func (t *Trainer) Train(xs []*tensor.Tensor, ys []int, epochs int) ([]EpochStats, error) {
	if len(xs) == 0 {
		return nil, fmt.Errorf("nn: empty training set")
	}
	if len(xs) != len(ys) {
		return nil, fmt.Errorf("nn: %d samples but %d labels", len(xs), len(ys))
	}
	for i, y := range ys {
		if y < 0 || y >= t.Net.Classes {
			return nil, fmt.Errorf("nn: label %d out of range [0,%d) at index %d", y, t.Net.Classes, i)
		}
	}
	if t.BatchSize <= 0 {
		return nil, fmt.Errorf("nn: batch size %d must be positive", t.BatchSize)
	}
	workers := t.Workers
	if workers <= 0 {
		workers = 1
	}

	idx := make([]int, len(xs))
	for i := range idx {
		idx[i] = i
	}
	stats := make([]EpochStats, 0, epochs)
	for epoch := 0; epoch < epochs; epoch++ {
		t.Rng.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
		lossSum := 0.0
		correct := 0
		for start := 0; start < len(idx); start += t.BatchSize {
			end := start + t.BatchSize
			if end > len(idx) {
				end = len(idx)
			}
			batch := idx[start:end]
			bl, bc := t.trainBatch(xs, ys, batch, workers)
			lossSum += bl
			correct += bc
		}
		st := EpochStats{
			Epoch:    epoch,
			MeanLoss: lossSum / float64(len(idx)),
			Accuracy: float64(correct) / float64(len(idx)),
		}
		stats = append(stats, st)
		if len(t.CalibrateWith) > 0 {
			t.Net.Calibrate(t.CalibrateWith)
		}
		if t.OnEpoch != nil {
			t.OnEpoch(epoch, st.MeanLoss, st.Accuracy)
		}
	}
	return stats, nil
}

// trainBatch processes one minibatch and applies a single optimizer
// step with gradients averaged over the batch. It returns the summed
// loss and the number of correct predictions.
func (t *Trainer) trainBatch(xs []*tensor.Tensor, ys []int, batch []int, workers int) (lossSum float64, correct int) {
	if workers > len(batch) {
		workers = len(batch)
	}
	type result struct {
		loss    float64
		correct int
		grads   map[*Param]*tensor.Tensor
	}
	results := make([]result, workers)
	seeds := make([]int64, workers)
	for w := range seeds {
		seeds[w] = t.Rng.Int63()
	}

	var wg sync.WaitGroup
	per := (len(batch) + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo := w * per
		hi := lo + per
		if hi > len(batch) {
			hi = len(batch)
		}
		if lo >= hi {
			continue
		}
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seeds[w]))
			grads := make(map[*Param]*tensor.Tensor)
			loss := 0.0
			corr := 0
			for _, i := range batch[lo:hi] {
				ctx := NewContext(true, rng)
				probs := t.Net.ForwardCtx(xs[i], ctx)
				if probs.ArgMax() == ys[i] {
					corr++
				}
				l, g := CrossEntropy(probs, ys[i])
				loss += l
				t.Net.Backward(g, ctx)
				ctx.MergeGradsInto(grads, t.Net.Params())
			}
			results[w] = result{loss: loss, correct: corr, grads: grads}
		}(w, lo, hi)
	}
	wg.Wait()

	params := t.Net.Params()
	total := make(map[*Param]*tensor.Tensor, len(params))
	for w := range results {
		if results[w].grads == nil {
			continue
		}
		lossSum += results[w].loss
		correct += results[w].correct
		for _, p := range params {
			g, ok := results[w].grads[p]
			if !ok {
				continue
			}
			if acc, ok := total[p]; ok {
				acc.AddInPlace(g)
			} else {
				total[p] = g
			}
		}
	}
	inv := 1.0 / float64(len(batch))
	for _, p := range params {
		g, ok := total[p]
		if !ok {
			continue
		}
		g.ScaleInPlace(inv)
		t.Optimizer.Step(p.Name, p.Value, g)
	}
	return lossSum, correct
}
