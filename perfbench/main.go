// Command perfbench is the repository's benchmark. For one workload and
// seed it sets up a detector, drives load for a fixed time, checks every
// output against an in-process reference, and prints the end-to-end
// metrics — or, with --trace 1, the per-layer metrics of a traced run —
// as one JSON object on the last line of standard output.
//
//	bash perfbench/run.sh --workload fleet --seed 1 --seconds 10 --trace 0
//
// Workloads (see README.md for why each exists):
//
//	fleet  single-image /v1/check requests through dvgateway to two
//	       in-process dvserve replicas: an open-loop phase at a fixed
//	       rate, then a closed-loop saturation phase
//	batch  back-to-back Detector.CheckBatch calls of 64 images
//	hunt   back-to-back hunt.Hunt runs at a fixed budget
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"deepvalidation"
	"deepvalidation/internal/hunt"
	"deepvalidation/internal/telemetry"
)

// setupRepeats is how many times a run sets up from scratch; setup_s
// is their median, and every repeat must produce the same artifacts.
const setupRepeats = 3

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type output struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout)) }

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "fleet, batch or hunt")
	seed := fs.Int64("seed", 1, "workload seed: draws the traffic, arrivals and hunt seeds")
	seconds := fs.Float64("seconds", 10, "length of the measured phase")
	traced := fs.Int("trace", 0, "1: traced run printing the per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	switch *workload {
	case "fleet", "batch", "hunt":
	default:
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want fleet, batch or hunt)\n", *workload)
		return 2
	}
	if *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	dir := filepath.Join(".bench_build", fmt.Sprintf("work-%d", os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(dir)
	b := &bench{workload: *workload, seed: *seed, dur: time.Duration(*seconds * float64(time.Second)),
		traced: *traced == 1, dir: dir, metrics: map[string]metric{}}
	if err := b.run(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	for _, line := range b.info {
		fmt.Fprintln(stdout, line)
	}
	out := output{Correct: b.failed == 0, Attempted: b.attempted, Failed: b.failed, Metrics: b.metrics}
	raw, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(raw))
	if !out.Correct {
		return 1
	}
	return 0
}

// bench is one run's state.
type bench struct {
	workload string
	seed     int64
	dur      time.Duration
	traced   bool
	dir      string

	attempted, failed int
	metrics           map[string]metric
	info              []string

	rec    *recorder
	e      *env
	hunter *hunter
}

func (b *bench) set(name, unit string, v float64) { b.metrics[name] = metric{Value: v, Unit: unit} }

func (b *bench) infof(format string, a ...any) { b.info = append(b.info, fmt.Sprintf(format, a...)) }

// check counts one output check as an operation, failed when err is
// non-nil.
func (b *bench) check(what string, err error) {
	b.attempted++
	if err != nil {
		b.failed++
		fmt.Fprintf(os.Stderr, "perfbench: check failed: %s: %v\n", what, err)
	}
}

// account adds a phase's operations and failures.
func (b *bench) account(what string, p phase) {
	b.attempted += p.ops
	b.failed += p.failed
	for _, err := range p.errs {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", what, err)
	}
}

// phase is what one timed stretch of a workload measured.
type phase struct {
	ops, failed int
	errs        []error
	lat         []sample // operations timed for p50/p90, over latSpan
	latSpan     time.Duration
	done        []sample // operations counted for throughput, over doneSpan
	doneSpan    time.Duration
	conc        int       // operations in flight at once in done
	late        []float64 // open-loop generator lateness, ms
	traceIDs    []string
}

// throughput is work units (verdicts, images or evals) per second.
func (p phase) throughput() float64 { return windowedThroughput(p.done, p.doneSpan, p.conc) }

func (b *bench) run() error {
	conns := runtime.NumCPU()
	if b.traced {
		b.rec = newRecorder()
	}
	// Set up several times from scratch; keep the last.
	var setupBuf *spanBuf
	names := map[string]int32{}
	if b.rec != nil {
		setupBuf = b.rec.buf()
		for _, n := range []string{"setup", "dataset", "build", "calibrate", "save", "load"} {
			names[n] = b.rec.id(n)
		}
	}
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		t0 := time.Now()
		e, err := setup(b.seed, mkdir(b.dir, fmt.Sprintf("setup%d", i)), setupBuf, names)
		if err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		if b.workload == "fleet" {
			if e.fleet, err = startFleet(e, false, conns); err != nil {
				return fmt.Errorf("starting the fleet: %w", err)
			}
		}
		setups = append(setups, time.Since(t0).Seconds())
		if b.e != nil {
			var err error
			if e.modelSHA != b.e.modelSHA || e.valSHA != b.e.valSHA {
				err = fmt.Errorf("setup %d built model %s / validator %s, setup 0 built %s / %s",
					i, e.modelSHA, e.valSHA, b.e.modelSHA, b.e.valSHA)
			}
			b.check("repeated setup reproduces the artifacts", err)
			b.e.close()
		}
		b.e = e
	}
	defer b.e.close()
	e := b.e
	meta, err := json.Marshal(map[string]any{"meta": e.meta(b.workload, b.traced)})
	if err != nil {
		return err
	}
	b.info = append(b.info, string(meta))

	ref, err := reference(e.det, e.pool)
	if err != nil {
		return err
	}
	b.check("workers=1 verdicts equal the reference", checkSequential(e, ref, 2*batchSize))
	b.hunter = &hunter{e: e, refs: map[int64]*hunt.Report{}}

	// The untraced measured phase, after a discarded warm-up.
	warm := b.dur / 5
	b.account("warm-up", b.phase(b.workload, ref, false, warm, 1))
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	p := b.phase(b.workload, ref, false, b.dur, 2)
	runtime.ReadMemStats(&m1)
	// Two cycles: the second empties the sync.Pool victim caches the
	// first one only demoted, so pooled buffers do not count as live.
	runtime.GC()
	runtime.GC()
	var mLive runtime.MemStats
	runtime.ReadMemStats(&mLive)
	b.account("measured", p)
	if b.workload == "hunt" {
		b.check("repeated searches reproduce their reports and escapes", b.hunter.recheck(4))
	}
	b.infof("attempted=%d ok=%d failed=%d (measured phase: %d operations, %d failed)",
		b.attempted, b.attempted-b.failed, b.failed, p.ops, p.failed)

	if !b.traced {
		b.set("setup_s", "s", median(setups))
		b.set("throughput_per_s", "1/s", p.throughput())
		b.set("p50_ms", "ms", windowedPercentile(p.lat, p.latSpan, 50))
		b.set("p90_ms", "ms", windowedPercentile(p.lat, p.latSpan, 90))
		b.set("live_heap_mb", "MB", float64(mLive.HeapAlloc)/1e6)
		b.set("alloc_kb_per_op", "KB", float64(m1.TotalAlloc-m0.TotalAlloc)/1e3/float64(totalWork(p.done)))
		q := percentile(durationsMs(p.lat), 99)
		b.infof("p99_ms=%.4f over the whole phase (n=%d, %d beyond) — information only", q.Value, q.N, q.Beyond)
		if len(p.late) > 0 {
			q := percentile(p.late, 90)
			b.infof("open-loop generator lateness p90=%.4f ms (n=%d)", q.Value, q.N)
		}
		return nil
	}
	b.set("runtime.gc_cycles", "count", float64(m1.NumGC-m0.NumGC))
	b.set("runtime.gc_pause_ms", "ms", float64(m1.PauseTotalNs-m0.PauseTotalNs)/1e6)
	return b.perLayer(ref, p)
}

// mkdir creates parent/name and returns it; a failure surfaces as the
// error of the first file written there.
func mkdir(parent, name string) string {
	d := filepath.Join(parent, name)
	_ = os.MkdirAll(d, 0o755)
	return d
}

// phase runs workload w for d. Untraced it is the end-to-end
// measurement; traced it records spans and per-layer counters as well.
func (b *bench) phase(w string, ref []deepvalidation.Verdict, traced bool, d time.Duration, salt int64) phase {
	e := b.e
	rng := rand.New(rand.NewSource(e.seed*7919 + salt))
	var p phase
	switch w {
	case "fleet":
		f := e.fleet
		every := 0
		if traced {
			every = 4
			var err error
			if f, err = startFleet(e, true, runtime.NumCPU()); err != nil {
				return phase{ops: 1, failed: 1, errs: []error{err}}
			}
			defer f.close()
			b.fleetWarm(f, ref, rng)
		}
		conns := runtime.NumCPU()
		r := runFleet(f, ref, rng, conns, d/2, d/2, every)
		p = phase{ops: r.attempted, failed: r.failed, traceIDs: r.traceIDs,
			latSpan: d / 2, done: r.closed, doneSpan: d / 2, conc: conns}
		if r.firstErr != nil {
			p.errs = []error{r.firstErr}
		}
		for i, s := range r.open {
			p.late = append(p.late, float64(s.late)/1e6)
			if s.ok {
				p.lat = append(p.lat, sample{at: r.dues[i], dur: s.latency, work: 1})
			}
		}
		if traced {
			b.fleetLayers(f, p)
		}
	case "batch":
		score := checkBatchScorer(e, ref)
		if traced {
			score = tracedScorer(e, ref, b.rec)
		}
		r := runBatches(len(e.pool), d, score)
		p = phase{ops: len(r.calls), failed: r.failed, errs: r.errs,
			lat: r.calls, latSpan: d, done: r.calls, doneSpan: d, conc: 1}
	case "hunt":
		h := b.hunter
		var buf *spanBuf
		var name int32
		if traced {
			h = &hunter{e: e, refs: b.hunter.refs, reg: telemetry.New()}
			buf, name = b.rec.buf(), b.rec.id("hunt.hunt")
		}
		// The warm-up searches (salt 1) are distinct from the measured ones.
		k0 := 0
		if salt == 1 {
			k0 = 500_000
		}
		r := h.run(k0, d, buf, name)
		p = phase{ops: len(r.calls), failed: r.failed, errs: r.errs,
			lat: r.calls, latSpan: d, done: r.calls, doneSpan: d, conc: 1}
	}
	return p
}
