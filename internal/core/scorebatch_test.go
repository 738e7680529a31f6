package core

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"deepvalidation/internal/nn"
	"deepvalidation/internal/tensor"
)

// Allocation-budget and scratch-aliasing guards for the batched scoring
// hot path, plus the artifact-compatibility check for validators that
// carry the retired support-vector norms field.

// TestScoreSteadyStateAllocBudget pins the per-sample allocation budget
// of a warmed-up Score. The Result itself owns one fresh Layer slice
// (callers retain Results, so it cannot alias scratch); everything else
// — forward-pass tensors, reduced features, SVM rows — must come from
// the per-worker arena. The budget is deliberately a hard small number:
// a regression that reintroduces per-call buffers jumps it by orders of
// magnitude.
func TestScoreSteadyStateAllocBudget(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("race-detector instrumentation allocates; budgets apply to plain builds")
	}
	net, xs, ys := trainedToyModel(t)
	v := fitToyValidator(t, net, xs, ys)
	v.Score(net, xs[0]) // warm the scratch pool
	allocs := testing.AllocsPerRun(30, func() {
		v.Score(net, xs[0])
	})
	// Observed: 2 allocs/op (the Result.Layer slice plus one pool
	// round-trip interface box). Allow slack for runtime variation but
	// fail hard before the pre-diet regime (hundreds per score).
	if allocs > 8 {
		t.Errorf("steady-state Score allocates %.1f/op, budget is 8", allocs)
	}
}

// TestScoreBatchSteadyStateAllocBudget pins the per-batch budget of
// ScoreBatchWorkers at workers=1: linear in the batch size with the
// same tiny per-sample constant, plus the Results slice.
func TestScoreBatchSteadyStateAllocBudget(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("race-detector instrumentation allocates; budgets apply to plain builds")
	}
	net, xs, ys := trainedToyModel(t)
	v := fitToyValidator(t, net, xs, ys)
	batch := xs[:8]
	v.ScoreBatchWorkers(net, batch, 1) // warm the scratch pool
	allocs := testing.AllocsPerRun(20, func() {
		v.ScoreBatchWorkers(net, batch, 1)
	})
	budget := float64(8*len(batch) + 8)
	if allocs > budget {
		t.Errorf("steady-state ScoreBatch(8) allocates %.1f/op, budget is %.0f", allocs, budget)
	}
}

// TestConcurrentScoresBitEqualSequential is the scratch-aliasing guard:
// many goroutines scoring through the shared pool concurrently (and
// concurrent ScoreBatchWorkers calls on top) must produce verdicts
// bit-identical to a single-threaded pass. Run under -race (the core
// package is part of the race gate) this also proves no arena is ever
// visible to two workers at once.
func TestConcurrentScoresBitEqualSequential(t *testing.T) {
	net, xs, ys := trainedToyModel(t)
	v := fitToyValidator(t, net, xs, ys)
	samples := xs[:12]

	want := make([]Result, len(samples))
	for i, x := range samples {
		want[i] = v.Score(net, x)
	}

	const goroutines = 8
	var wg sync.WaitGroup
	errs := make(chan string, goroutines*len(samples))
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			if g%2 == 0 {
				// Half the goroutines drive whole batches...
				rs := v.ScoreBatchWorkers(net, samples, 3)
				for i, r := range rs {
					if !resultBitsEqual(r, want[i]) {
						errs <- "batch verdict diverged under concurrency"
					}
				}
				return
			}
			// ...the other half hammer single scores in shuffled order.
			rng := rand.New(rand.NewSource(int64(g)))
			for _, i := range rng.Perm(len(samples)) {
				if r := v.Score(net, samples[i]); !resultBitsEqual(r, want[i]) {
					errs <- "single verdict diverged under concurrency"
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}

func resultBitsEqual(a, b Result) bool {
	if a.Label != b.Label || a.NonFinite != b.NonFinite ||
		math.Float64bits(a.Confidence) != math.Float64bits(b.Confidence) ||
		math.Float64bits(a.Joint) != math.Float64bits(b.Joint) ||
		len(a.Layer) != len(b.Layer) {
		return false
	}
	for i := range a.Layer {
		if math.Float64bits(a.Layer[i]) != math.Float64bits(b.Layer[i]) {
			return false
		}
	}
	return true
}

// TestGoldenNormsArtifactAgreesWithLegacy pins artifact compatibility:
// validator_norms.dvart still carries per-SVM support-vector norms, a
// field the validator no longer has, and must load to decisions and
// verdicts bit-identical to the plain validator.dvart.
func TestGoldenNormsArtifactAgreesWithLegacy(t *testing.T) {
	net, err := nn.Load("../../artifacts/golden/model.dvart")
	if err != nil {
		t.Fatal(err)
	}
	legacy, err := LoadValidator("../../artifacts/golden/validator.dvart")
	if err != nil {
		t.Fatal(err)
	}
	withNorms, err := LoadValidator("../../artifacts/golden/validator_norms.dvart")
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(77))
	for p, row := range legacy.SVMs {
		for c, lm := range row {
			// Decisions on random probes of the right dimensionality.
			xs := make([][]float64, 4)
			for i := range xs {
				xs[i] = make([]float64, lm.Dim)
				for j := range xs[i] {
					xs[i][j] = rng.NormFloat64()
				}
			}
			lv := lm.DecisionBatchInto(make([]float64, len(xs)), xs)
			nv := withNorms.SVMs[p][c].DecisionBatchInto(make([]float64, len(xs)), xs)
			for i := range lv {
				if math.Float64bits(lv[i]) != math.Float64bits(nv[i]) {
					t.Fatalf("SVM [%d][%d] probe %d: decision %x vs %x", p, c, i, math.Float64bits(lv[i]), math.Float64bits(nv[i]))
				}
			}
		}
	}
	for i := 0; i < 8; i++ {
		x := tensor.New(net.InShape...)
		for j := range x.Data {
			x.Data[j] = rng.Float64()
		}
		if a, b := legacy.Score(net, x), withNorms.Score(net, x); !resultBitsEqual(a, b) {
			t.Fatalf("input %d: verdict %+v vs %+v", i, a, b)
		}
	}
}

// TestCheckCompatRejectsDimMismatch: a validator whose reducer/SVM
// dimensionalities disagree with the network's tap shapes must be
// rejected before it can panic inside a decision call.
func TestCheckCompatRejectsDimMismatch(t *testing.T) {
	net, xs, ys := trainedToyModel(t)
	v := fitToyValidator(t, net, xs, ys)
	if err := CheckCompat(net, v); err != nil {
		t.Fatalf("compatible pair rejected: %v", err)
	}
	broken := v.Clone()
	for _, m := range broken.SVMs[0] {
		m.Dim++ // simulates a validator fitted for a wider layer
	}
	if err := CheckCompat(net, broken); err == nil {
		t.Fatal("CheckCompat accepted a validator with mismatched feature dims")
	}
}
