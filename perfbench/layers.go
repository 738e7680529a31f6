package main

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"deepvalidation"
	"deepvalidation/internal/artifact"
	"deepvalidation/internal/core"
	"deepvalidation/internal/gateway"
	"deepvalidation/internal/nn"
	"deepvalidation/internal/opt"
	"deepvalidation/internal/serve"
	"deepvalidation/internal/telemetry"
)

// huntCountSearches is how many of the seed's first searches the hunt
// counts are summed over.
const huntCountSearches = 8

// perLayer is the rest of a traced run: after the untraced phase u it
// replays Build stage by stage, runs the workload traced for the same
// time (the difference is the tracing overhead), runs the other two
// workloads traced for a quarter of it, probes the detector, and
// derives every per-layer metric from the recorded spans and the
// programs' own counters.
func (b *bench) perLayer(ref []deepvalidation.Verdict, u phase) error {
	e := b.e
	if err := b.stagedBuild(); err != nil {
		return err
	}
	t := b.phase(b.workload, ref, true, b.dur, 3)
	b.account("traced "+b.workload, t)
	b.set("trace.overhead_pct", "%", (u.throughput()-t.throughput())/u.throughput()*100)
	for _, w := range []string{"fleet", "batch", "hunt"} {
		if w != b.workload {
			b.account("traced "+w, b.phase(w, ref, true, b.dur/4, 4))
		}
	}
	b.detectorProbe(ref)
	candidateBatches(e, b.rec, 16)

	tot, cnt := b.rec.selfByName()
	imgs := float64(cnt["score"])
	perImage := func(n string) float64 { return float64(tot[n]) / imgs / 1e3 }
	mean := func(n string) float64 { return float64(tot[n]) / float64(cnt[n]) }
	forward := float64(tot["nn.forward"])
	act := 0.0
	for _, l := range e.net.Layers {
		seq, ok := l.(*nn.Seq)
		if !ok {
			return fmt.Errorf("layer %s is not a Seq; the per-layer names assume the seven-layer CNN", l.Name())
		}
		for _, c := range seq.Children {
			n := c.Name()
			forward += float64(tot["nn."+n])
			if strings.HasPrefix(n, "conv") || strings.HasPrefix(n, "pool") || strings.HasPrefix(n, "fc") {
				b.set("nn."+n+"_us", "us", perImage("nn."+n))
			} else {
				act += perImage("nn." + n)
			}
		}
	}
	b.set("nn.act_us", "us", act)
	b.set("nn.forward_us", "us", forward/imgs/1e3)
	b.set("core.reduce_us", "us", perImage("core.reduce"))
	b.set("svm.decision_us", "us", perImage("svm.decision"))
	b.set("svm.support_vectors", "count", float64(supportVectors(e.val)))
	b.set("artifact.save_ms", "ms", mean("save")/1e6)
	b.set("artifact.load_ms", "ms", mean("load")/1e6)
	b.set("detector.calibrate_ms", "ms", mean("calibrate")/1e6)
	b.set("imgtrans.apply_us", "us", mean("imgtrans.apply")/1e3)
	b.set("hunt.score_batch_ms", "ms", mean("hunt.score_batch")/1e6)
	// Exact counts summed over the seed's first searches; a search the
	// traced phases did not reach is run here.
	var evals, minimize, escapes, signatures int
	for k := 0; k < huntCountSearches; k++ {
		rep, ok := b.hunter.refs[b.hunter.searchSeed(k)]
		if !ok {
			var err error
			rep, _, err = b.hunter.one(k)
			b.check("hunt search", err)
			if rep == nil {
				return err
			}
		}
		evals += rep.Evals
		minimize += rep.MinimizeEvals
		escapes += rep.Escapes
		signatures += rep.Signatures
	}
	b.set("hunt.evals", "count", float64(evals))
	b.set("hunt.minimize_evals", "count", float64(minimize))
	b.set("hunt.escapes", "count", float64(escapes))
	b.set("hunt.signatures", "count", float64(signatures))
	b.infof("traced: %d images scored layer by layer, %d hunts, %d candidate batches",
		int(imgs), cnt["hunt.hunt"], cnt["hunt.score_batch"])
	path := filepath.Join(".bench_build", "trace-"+b.workload+".tsv")
	if err := b.rec.write(path); err != nil {
		return err
	}
	b.infof("span trees written to %s", path)
	return nil
}

// stagedBuild repeats deepvalidation.Build's steps — network, trainer,
// core.Fit — with a span around Trainer.Train and core.Fit's own stage
// telemetry, and checks that the result is the artifact Build saved.
func (b *bench) stagedBuild() error {
	e, cfg := b.e, buildConfig()
	buf := b.rec.buf()
	root := buf.begin(b.rec.id("staged_build"), -1)
	shape := e.trainX[0].Shape
	net, err := nn.NewSevenLayerCNN("detector", shape[0], shape[1], cfg.Classes,
		nn.ArchConfig{Width: cfg.Width, FCWidth: cfg.FCWidth}, rand.New(rand.NewSource(cfg.Seed)))
	if err != nil {
		return err
	}
	tr := nn.NewTrainer(net, opt.NewAdadelta(1.0, 0.95), rand.New(rand.NewSource(cfg.Seed+1)))
	s := buf.begin(b.rec.id("nn.train"), root)
	t0 := time.Now()
	_, err = tr.Train(e.trainX, e.trainY, cfg.Epochs)
	trainS := time.Since(t0).Seconds()
	buf.end(s)
	if err != nil {
		return err
	}
	reg := telemetry.New()
	s = buf.begin(b.rec.id("core.fit"), root)
	val, err := core.Fit(net, e.trainX, e.trainY, core.Config{
		Nu: cfg.Nu, MaxPerClass: cfg.SVMPerClass, MaxFeatures: cfg.SVMFeatures, Workers: cfg.Workers, Telemetry: reg,
	})
	buf.end(s)
	buf.end(root)
	if err != nil {
		return err
	}
	dir := mkdir(b.dir, "staged")
	mp, vp := filepath.Join(dir, "model.dvart"), filepath.Join(dir, "validator.dvart")
	if err := net.Save(mp); err != nil {
		return err
	}
	if err := val.Save(vp); err != nil {
		return err
	}
	mh, err := artifact.ReadHeader(mp)
	if err != nil {
		return err
	}
	vh, err := artifact.ReadHeader(vp)
	if err != nil {
		return err
	}
	var mismatch error
	if mh.Header.PayloadSHA256 != e.modelSHA || vh.Header.PayloadSHA256 != e.valSHA {
		mismatch = fmt.Errorf("staged build gave %s / %s, Build gave %s / %s",
			mh.Header.PayloadSHA256, vh.Header.PayloadSHA256, e.modelSHA, e.valSHA)
	}
	b.check("staged build reproduces Build", mismatch)
	sum := func(name string) float64 { return reg.Histogram(name, telemetry.DefLatencyBuckets).Sum() }
	b.set("nn.train_s", "s", trainS)
	b.set("core.fit_s", "s", sum(core.MetricFitTotal))
	b.set("core.fit_collect_s", "s", sum(core.MetricFitCollect))
	b.set("core.fit_svm_s", "s", sum(core.MetricFitSVMStage))
	b.set("core.fit_drift_s", "s", sum(core.MetricFitDrift))
	return nil
}

// detectorProbe times, on the same pool, Detector.CheckBatch against
// the Validator.ScoreBatchWorkers it wraps (the difference per image is
// the detector's own overhead) and ScoreBatch at GOMAXPROCS workers
// against one worker.
func (b *bench) detectorProbe(ref []deepvalidation.Verdict) {
	e := b.e
	var over, speedup []float64
	for r := 0; r < 5; r++ {
		var vs []deepvalidation.Verdict
		var err error
		tc := timed(func() { vs, err = e.det.CheckBatch(e.pool) })
		for i := 0; err == nil && i < len(vs); i++ {
			if vs[i] != ref[i] {
				err = fmt.Errorf("image %d: verdict %+v, reference %+v", i, vs[i], ref[i])
			}
		}
		b.check("pool-sized CheckBatch equals the reference", err)
		tn := timed(func() { e.val.ScoreBatchWorkers(e.net, e.poolT, runtime.GOMAXPROCS(0)) })
		t1 := timed(func() { e.val.ScoreBatchWorkers(e.net, e.poolT, 1) })
		over = append(over, float64(tc-tn)/float64(len(e.pool))/1e3)
		speedup = append(speedup, float64(t1)/float64(tn))
	}
	b.set("detector.check_overhead_us", "us", median(over))
	b.set("detector.pool_speedup", "ratio", median(speedup))
}

// fleetWarm is the discarded warm-up of a freshly started fleet.
func (b *bench) fleetWarm(f *fleet, ref []deepvalidation.Verdict, rng *rand.Rand) {
	r := runFleet(f, ref, rng, runtime.NumCPU(), 250*time.Millisecond, 250*time.Millisecond, 0)
	p := phase{ops: r.attempted, failed: r.failed}
	if r.firstErr != nil {
		p.errs = []error{r.firstErr}
	}
	b.account("fleet warm-up", p)
}

// fleetLayers derives the serve and gateway metrics of a traced fleet
// phase: p50 self times from the stitched traces of the sampled
// requests, and the tiers' own counters.
func (b *bench) fleetLayers(f *fleet, p phase) {
	traces, err := f.fetchTraces(p.traceIDs)
	b.check("sampled requests have complete stitched traces", err)
	self := traceSelfP50(traces)
	for _, s := range []string{"admission", "batch_wait", "dispatch", "score"} {
		b.set("serve."+s+"_ms", "ms", self["serve."+s])
	}
	b.set("gateway.admission_ms", "ms", self["gateway.admission"])
	b.set("gateway.route_ms", "ms", self["gateway.route"])
	b.set("gateway.hop_ms", "ms", self["gateway.upstream"])

	var sizeSum, sizeN float64
	var shed, expired int64
	for _, r := range f.reps {
		h := r.reg.Histogram(serve.MetricBatchSize, serve.BatchSizeBuckets)
		sizeSum += h.Sum()
		sizeN += float64(h.Count())
		shed += r.reg.Counter(serve.MetricShed).Value()
		expired += r.reg.Counter(serve.MetricDeadline).Value()
	}
	b.set("serve.batch_size_mean", "count", sizeSum/sizeN)
	b.set("serve.shed", "count", float64(shed))
	b.set("serve.deadline_expired", "count", float64(expired))

	c := func(name string) int64 { return f.gwReg.Counter(name).Value() }
	b.set("gateway.retries", "count", float64(c(gateway.MetricRetries)))
	b.set("gateway.shed", "count", float64(c(gateway.MetricShed)))
	b.set("gateway.passthrough", "count", float64(
		c(telemetry.Label(gateway.MetricPassthrough, "code", "429"))+c(telemetry.Label(gateway.MetricPassthrough, "code", "503"))))
	var routed, most int64
	for _, r := range f.reps {
		n := c(telemetry.Label(gateway.MetricReplicaRequests, "replica", r.name))
		routed += n
		most = max(most, n)
	}
	b.set("gateway.replica_share_max", "ratio", float64(most)/float64(routed))
	b.set("loadgen.late_p90_ms", "ms", percentile(p.late, 90).Value)
	b.infof("traced fleet: %d stitched traces", len(traces))
}
