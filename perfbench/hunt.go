package main

import (
	"fmt"
	"math/rand"
	"reflect"
	"time"

	"deepvalidation/internal/corner"
	"deepvalidation/internal/hunt"
	"deepvalidation/internal/telemetry"
	"deepvalidation/internal/tensor"
)

// The hunt workload: back-to-back hunt.Hunt runs at huntBudget
// evaluations, each with its own search seed derived from the workload
// seed, so a run's latencies and throughput average over many search
// trajectories. Repeatability is checked by re-running searches.
const huntBudget = 256

// hunter runs hunts on one env and checks every repeat of a search seed
// against the search's first report.
type hunter struct {
	e    *env
	reg  *telemetry.Registry // non-nil only when traced
	refs map[int64]*hunt.Report
}

// huntResult is one timed run of back-to-back hunts.
type huntResult struct {
	calls  []sample // work: evals + minimize evals
	failed int
	errs   []error
}

func (h *hunter) target() hunt.Target { return hunt.Target{Net: h.e.net, Val: h.e.val} }

func (h *hunter) searchSeed(k int) int64 { return h.e.seed*1_000_000 + int64(k) }

// one runs search k and checks that Evals equals the budget and that a
// repeated search reproduces its first report exactly.
func (h *hunter) one(k int) (*hunt.Report, *hunt.Corpus, error) {
	seed := h.searchSeed(k)
	corpus, rep, err := hunt.Hunt(h.target(), h.e.huntSeeds, h.e.huntLabels, hunt.Config{
		Budget: huntBudget, Seed: seed, Epsilon: h.e.eps, Registry: h.reg,
	})
	if err != nil {
		return nil, nil, err
	}
	if rep.Evals != huntBudget {
		return rep, corpus, fmt.Errorf("search %d: %d evals, budget %d", seed, rep.Evals, huntBudget)
	}
	if ref, seen := h.refs[seed]; !seen {
		h.refs[seed] = rep
	} else if !reflect.DeepEqual(rep, ref) {
		return rep, corpus, fmt.Errorf("search %d: report %+v differs from the first run %+v", seed, *rep, *ref)
	}
	return rep, corpus, nil
}

// recheck repeats searches 0..n-1 untimed: each must reproduce its
// report, and every escape it saved must replay.
func (h *hunter) recheck(n int) error {
	for k := 0; k < n; k++ {
		_, corpus, err := h.one(k)
		if err != nil {
			return err
		}
		if err := replayEscapes(h, corpus); err != nil {
			return fmt.Errorf("search %d: %w", h.searchSeed(k), err)
		}
	}
	return nil
}

// replayEscapes re-scores every saved escape: each must reproduce its
// pixels, prediction and joint discrepancy, and a full escape must
// still slip under ε.
func replayEscapes(h *hunter, corpus *hunt.Corpus) error {
	outs, err := hunt.Replay(h.target(), corpus, h.e.eps, 0)
	if err != nil {
		return err
	}
	for i, o := range outs {
		esc := corpus.Escapes[i]
		if !o.PixelsMatch || o.Pred != esc.Pred || o.Joint != esc.Joint || (!esc.Near && o.Caught) {
			return fmt.Errorf("escape %s does not replay: %+v", o.ID, o)
		}
	}
	return nil
}

// run hunts back to back, searches k0, k0+1, ..., until d has passed.
func (h *hunter) run(k0 int, d time.Duration, b *spanBuf, name int32) huntResult {
	var r huntResult
	t0 := time.Now()
	for k := k0; time.Since(t0) < d; k++ {
		c0 := time.Now()
		rep, _, err := h.one(k)
		c1 := time.Now()
		if b != nil {
			b.record(name, c0, c1)
		}
		smp := sample{at: c1.Sub(t0), dur: c1.Sub(c0)}
		if rep != nil {
			smp.work = rep.Evals + rep.MinimizeEvals
		}
		r.calls = append(r.calls, smp)
		if err != nil {
			r.failed++
			if len(r.errs) < 3 {
				r.errs = append(r.errs, err)
			}
		}
	}
	return r
}

// candidateBatches reproduces the hunt's inner step outside Hunt, which
// cannot be observed from outside: n batches of hunt-sized candidate
// batches, each candidate a mutated chain materialised and applied to
// a seed (span imgtrans.apply), then one ScoreBatch over the batch
// (span hunt.score_batch).
func candidateBatches(e *env, rec *recorder, n int) {
	b := rec.buf()
	root, apply, score := rec.id("hunt.batch"), rec.id("imgtrans.apply"), rec.id("hunt.score_batch")
	spaces := corner.Spaces(true, e.huntSeeds[0].Shape[1], e.huntSeeds[0].Shape[2])
	mut := &hunt.Mutator{Spaces: spaces, MaxStages: 3}
	rng := rand.New(rand.NewSource(e.seed))
	for j := 0; j < n; j++ {
		r := b.begin(root, -1)
		imgs := make([]*tensor.Tensor, batchSize)
		for i := range imgs {
			chain := mut.Mutate(mut.Random(rng), rng)
			seed := e.huntSeeds[rng.Intn(len(e.huntSeeds))]
			s := b.begin(apply, r)
			tr, err := chain.Materialize(spaces)
			if err == nil {
				imgs[i] = tr.Apply(seed)
			} else {
				imgs[i] = seed
			}
			b.end(s)
		}
		s := b.begin(score, r)
		e.val.ScoreBatchWorkers(e.net, imgs, 0)
		b.end(s)
		b.end(r)
	}
}
