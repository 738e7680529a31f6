package main

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"deepvalidation"
	"deepvalidation/internal/core"
	"deepvalidation/internal/nn"
	"deepvalidation/internal/tensor"
)

// batchSize is the fixed CheckBatch size of the batch workload: the
// scale of a busy micro-batch and of one hunt candidate batch.
const batchSize = 64

// reference scores the whole pool once in batchSize chunks: the
// verdicts every later pass, served or in-process, must reproduce.
func reference(det *deepvalidation.Detector, pool []deepvalidation.Image) ([]deepvalidation.Verdict, error) {
	ref := make([]deepvalidation.Verdict, 0, len(pool))
	for lo := 0; lo < len(pool); lo += batchSize {
		vs, err := det.CheckBatch(pool[lo:min(lo+batchSize, len(pool))])
		if err != nil {
			return nil, err
		}
		ref = append(ref, vs...)
	}
	return ref, nil
}

// checkSequential compares a workers=1 detector's verdicts on the first
// n pool images with the reference.
func checkSequential(e *env, ref []deepvalidation.Verdict, n int) error {
	det, err := deepvalidation.Load(e.modelPath, e.valPath)
	if err != nil {
		return err
	}
	det.SetEpsilon(e.eps)
	det.SetWorkers(1)
	vs, err := det.CheckBatch(e.pool[:n])
	if err != nil {
		return err
	}
	for i, v := range vs {
		if v != ref[i] {
			return fmt.Errorf("workers=1 verdict %d = %+v, reference %+v", i, v, ref[i])
		}
	}
	return nil
}

// batchResult is one timed run of back-to-back batches.
type batchResult struct {
	calls  []sample // work: images
	failed int
	errs   []error
}

// runBatches calls score on consecutive batchSize slices of the pool,
// cycling, until d has passed, and counts every batch whose verdicts
// differ from ref as failed.
func runBatches(n int, d time.Duration, score func(lo, hi int) error) batchResult {
	var r batchResult
	t0 := time.Now()
	for lo := 0; time.Since(t0) < d; lo = (lo + batchSize) % n {
		hi := min(lo+batchSize, n)
		c0 := time.Now()
		err := score(lo, hi)
		c1 := time.Now()
		r.calls = append(r.calls, sample{at: c1.Sub(t0), dur: c1.Sub(c0), work: hi - lo})
		if err != nil {
			r.failed++
			if len(r.errs) < 3 {
				r.errs = append(r.errs, err)
			}
		}
	}
	return r
}

// checkBatchScorer is the untraced batch operation: Detector.CheckBatch.
func checkBatchScorer(e *env, ref []deepvalidation.Verdict) func(lo, hi int) error {
	return func(lo, hi int) error {
		vs, err := e.det.CheckBatch(e.pool[lo:hi])
		if err != nil {
			return err
		}
		for i, v := range vs {
			if v != ref[lo+i] {
				return fmt.Errorf("image %d: verdict %+v, reference %+v", lo+i, v, ref[lo+i])
			}
		}
		return nil
	}
}

// layerNames are the span names of the traced scoring path.
type layerNames struct {
	score, forward, reduce, decision int32
	layer                            map[nn.Layer]int32
}

// tracedScorer scores each batch by calling the layers' public
// functions directly — every nn.Seq child's ForwardInfer on one
// Scratch, then FeatureReducer.ReduceInto and DecisionBatchInto per
// validated tap — on GOMAXPROCS workers like CheckBatch, recording a
// span around every call. The result must equal the reference.
func tracedScorer(e *env, ref []deepvalidation.Verdict, rec *recorder) func(lo, hi int) error {
	ln := layerNames{score: rec.id("score"), forward: rec.id("nn.forward"),
		reduce: rec.id("core.reduce"), decision: rec.id("svm.decision"), layer: map[nn.Layer]int32{}}
	for _, l := range e.net.Layers {
		if seq, ok := l.(*nn.Seq); ok {
			for _, c := range seq.Children {
				ln.layer[c] = rec.id("nn." + c.Name())
			}
		} else {
			ln.layer[l] = rec.id("nn." + l.Name())
		}
	}
	workers := runtime.GOMAXPROCS(0)
	type worker struct {
		buf  *spanBuf
		sc   *nn.Scratch
		feat [][]float64
	}
	ws := make([]*worker, workers)
	for i := range ws {
		ws[i] = &worker{buf: rec.buf(), sc: nn.NewScratch(), feat: make([][]float64, len(e.val.LayerIdx))}
	}
	return func(lo, hi int) error {
		var next atomic.Int64
		next.Store(int64(lo))
		var wg sync.WaitGroup
		var mu sync.Mutex
		var firstErr error
		for _, w := range ws {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1)) - 1
					if i >= hi {
						return
					}
					res := scoreLayered(e, e.poolT[i], w.sc, w.feat, w.buf, &ln)
					if r := ref[i]; res.Label != r.Label || res.Confidence != r.Confidence || res.Joint != r.Discrepancy {
						mu.Lock()
						if firstErr == nil {
							firstErr = fmt.Errorf("image %d: layered score %+v, reference %+v", i, res, r)
						}
						mu.Unlock()
					}
				}
			}()
		}
		wg.Wait()
		return firstErr
	}
}

// scoreLayered is Validator.ScoreTimed's arithmetic, written as calls
// into the layers with a span around each.
func scoreLayered(e *env, x *tensor.Tensor, sc *nn.Scratch, feat [][]float64, b *spanBuf, ln *layerNames) core.Result {
	root := b.begin(ln.score, -1)
	fwd := b.begin(ln.forward, root)
	taps := make([]*tensor.Tensor, 0, len(e.net.Layers))
	for _, l := range e.net.Layers {
		if seq, ok := l.(*nn.Seq); ok {
			for _, c := range seq.Children {
				s := b.begin(ln.layer[c], fwd)
				x = c.(nn.InferenceLayer).ForwardInfer(x, sc)
				b.end(s)
			}
		} else {
			s := b.begin(ln.layer[l], fwd)
			x = l.(nn.InferenceLayer).ForwardInfer(x, sc)
			b.end(s)
		}
		taps = append(taps, x)
	}
	b.end(fwd)
	label := x.ArgMax()
	res := core.Result{Label: label, Confidence: x.Data[label]}
	var row [1][]float64
	var d [1]float64
	for p, l := range e.val.LayerIdx {
		s := b.begin(ln.reduce, root)
		feat[p] = e.val.Reducers[p].ReduceInto(feat[p], taps[l])
		b.end(s)
		s = b.begin(ln.decision, root)
		row[0] = feat[p]
		di := -e.val.SVMs[p][label].DecisionBatchInto(d[:], row[:])[0]
		b.end(s)
		if math.IsNaN(di) || math.IsInf(di, 0) {
			res.NonFinite = true
			continue
		}
		res.Joint += di
	}
	b.end(root)
	return res
}
