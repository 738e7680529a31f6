package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"deepvalidation"
	"deepvalidation/internal/artifact"
	"deepvalidation/internal/gateway"
	"deepvalidation/internal/serve"
	"deepvalidation/internal/telemetry"
	"deepvalidation/internal/trace"
)

// fleetRate is the open-loop arrival rate (requests/s): about half of
// the closed-loop saturation throughput of the untraced fleet measured
// with 2 connections on a 2-CPU host (see BENCHMARK.json).
const fleetRate = 140

const fleetReplicas = 2

// replicaProc is one in-process dvserve replica on a loopback listener.
type replicaProc struct {
	name string
	srv  *serve.Server
	hs   *http.Server
	done chan error
	reg  *telemetry.Registry
}

// fleet is dvgateway fronting fleetReplicas dvserve replicas, all in
// this process and talking HTTP over loopback TCP, with the client the
// load generator uses.
type fleet struct {
	reps   []*replicaProc
	gw     *gateway.Gateway
	gwReg  *telemetry.Registry
	gws    *http.Server
	gwDone chan error
	base   string
	client *http.Client
	bodies [][]byte
}

// startFleet starts the fleet on e's artifacts. Untraced it runs the
// command-line defaults with sinks off; traced it adds registries and
// traces every request on both tiers.
func startFleet(e *env, traced bool, conns int) (*fleet, error) {
	f := &fleet{}
	shas := func() (string, string) {
		m, _ := artifact.ReadHeader(e.modelPath)
		v, _ := artifact.ReadHeader(e.valPath)
		return m.Header.PayloadSHA256, v.Header.PayloadSHA256
	}
	specs := make([]gateway.ReplicaSpec, fleetReplicas)
	for i := range specs {
		loader := func() (*deepvalidation.Detector, error) { return deepvalidation.Load(e.modelPath, e.valPath) }
		det, err := loader()
		if err != nil {
			f.close()
			return nil, err
		}
		det.SetEpsilon(e.eps)
		cfg := serve.Config{Loader: loader, ArtifactInfo: shas}
		p := &replicaProc{name: fmt.Sprintf("replica%d", i+1)}
		if traced {
			p.reg = telemetry.New()
			cfg.Registry, cfg.TraceSample, cfg.TraceStore = p.reg, 1, 1<<14
		}
		if p.srv, err = serve.New(deepvalidation.NewHandle(det), cfg); err != nil {
			f.close()
			return nil, err
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			p.srv.Close()
			f.close()
			return nil, err
		}
		p.hs = &http.Server{Handler: p.srv.Handler(), ReadHeaderTimeout: 5 * time.Second}
		p.done = make(chan error, 1)
		go func() { p.done <- p.hs.Serve(ln) }()
		f.reps = append(f.reps, p)
		specs[i] = gateway.ReplicaSpec{Name: p.name, Addr: ln.Addr().String()}
	}
	gcfg := gateway.Config{Replicas: specs}
	if traced {
		f.gwReg = telemetry.New()
		gcfg.Registry, gcfg.TraceSample, gcfg.TraceStore = f.gwReg, 1, 1<<14
	}
	var err error
	if f.gw, err = gateway.New(gcfg); err != nil {
		f.close()
		return nil, err
	}
	f.gw.ProbeAll()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		f.close()
		return nil, err
	}
	f.gws = &http.Server{Handler: f.gw.Handler(), ReadHeaderTimeout: 5 * time.Second}
	f.gwDone = make(chan error, 1)
	go func() { f.gwDone <- f.gws.Serve(ln) }()
	f.base = "http://" + ln.Addr().String()
	f.client = &http.Client{Transport: &http.Transport{
		MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, DisableCompression: true,
	}}
	f.bodies = make([][]byte, len(e.pool))
	for i, im := range e.pool {
		if f.bodies[i], err = json.Marshal(serve.CheckRequest{
			Channels: im.Channels, Height: im.Height, Width: im.Width, Pixels: im.Pixels,
		}); err != nil {
			f.close()
			return nil, err
		}
	}
	// Warm-up: one verdict through the gateway to each replica.
	for i := 0; i < 4; i++ {
		if _, _, err := f.check(i); err != nil {
			f.close()
			return nil, fmt.Errorf("fleet warm-up: %w", err)
		}
	}
	return f, nil
}

// close stops the gateway and every replica and waits for their
// goroutines to end.
func (f *fleet) close() {
	if f.client != nil {
		f.client.CloseIdleConnections()
	}
	if f.gws != nil {
		_ = f.gws.Close()
		<-f.gwDone
	}
	if f.gw != nil {
		f.gw.Close()
	}
	for _, p := range f.reps {
		if p.hs != nil {
			_ = p.hs.Close()
			<-p.done
		}
		p.srv.Close()
	}
	f.reps = nil
}

// check sends pool image i to /v1/check and returns the decoded
// verdict and the response's trace ID. Anything but a 200 is an error.
func (f *fleet) check(i int) (serve.VerdictResponse, string, error) {
	var v serve.VerdictResponse
	resp, err := f.client.Post(f.base+"/v1/check", "application/json", bytes.NewReader(f.bodies[i]))
	if err != nil {
		return v, "", err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return v, "", err
	}
	if resp.StatusCode != http.StatusOK {
		return v, "", fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(body))
	}
	if err := json.Unmarshal(body, &v); err != nil {
		return v, "", err
	}
	return v, resp.Header.Get(trace.HeaderTraceID), nil
}

// sameVerdict reports whether a served verdict equals the in-process
// reference bit for bit.
func sameVerdict(v serve.VerdictResponse, r deepvalidation.Verdict) bool {
	return v.Label == r.Label && v.Confidence == r.Confidence && v.Discrepancy == r.Discrepancy &&
		v.Valid == r.Valid && v.Quarantined == r.Quarantined
}

// fleetResult is what one fleet phase pair measured.
type fleetResult struct {
	open      []sent
	dues      []time.Duration
	closed    []sample // successful closed-loop requests
	attempted int
	failed    int
	traceIDs  []string
	firstErr  error
}

// runFleet drives the open-loop phase (seeded Poisson arrivals at
// fleetRate) for open, then the closed-loop saturation phase on conns
// connections for closed. Every verdict is compared with ref. When
// sampleEvery > 0, every sampleEvery-th open-loop request's trace ID is
// kept.
func runFleet(f *fleet, ref []deepvalidation.Verdict, rng *rand.Rand, conns int, open, closed time.Duration, sampleEvery int) fleetResult {
	var res fleetResult
	var mu sync.Mutex
	fail := func(err error) {
		mu.Lock()
		res.failed++
		if res.firstErr == nil {
			res.firstErr = err
		}
		mu.Unlock()
	}
	do := func(img int) (string, bool) {
		v, id, err := f.check(img)
		if err == nil && !sameVerdict(v, ref[img]) {
			err = fmt.Errorf("image %d: served verdict %+v differs from reference %+v", img, v, ref[img])
		}
		if err != nil {
			fail(err)
			return "", false
		}
		return id, true
	}

	dues := arrivals(rng, fleetRate, open)
	imgs := make([]int, len(dues))
	for i := range imgs {
		imgs[i] = rng.Intn(len(f.bodies))
	}
	ids := make([]string, len(dues))
	res.open = openLoop(wallClock{time.Now()}, dues, conns, func(i int) bool {
		id, ok := do(imgs[i])
		ids[i] = id
		return ok
	})
	if sampleEvery > 0 {
		for i := 0; i < len(ids); i += sampleEvery {
			if ids[i] != "" {
				res.traceIDs = append(res.traceIDs, ids[i])
			}
		}
	}

	var tried atomic.Int64
	var wg sync.WaitGroup
	t0 := time.Now()
	stop := t0.Add(closed)
	done := make([][]sample, conns)
	for w := 0; w < conns; w++ {
		wg.Add(1)
		wrng := rand.New(rand.NewSource(rng.Int63()))
		go func() {
			defer wg.Done()
			for c0 := time.Now(); c0.Before(stop); c0 = time.Now() {
				tried.Add(1)
				if _, ok := do(wrng.Intn(len(f.bodies))); ok {
					c1 := time.Now()
					done[w] = append(done[w], sample{at: c1.Sub(t0), dur: c1.Sub(c0), work: 1})
				}
			}
		}()
	}
	wg.Wait()
	for _, d := range done {
		res.closed = append(res.closed, d...)
	}
	res.dues = dues
	res.attempted = len(dues) + int(tried.Load())
	return res
}

// fetchTraces pulls the stitched cross-tier trace of each ID from the
// gateway.
func (f *fleet) fetchTraces(ids []string) ([]*gateway.StitchedTrace, error) {
	var out []*gateway.StitchedTrace
	for _, id := range ids {
		resp, err := f.client.Get(f.base + "/debug/dv/trace/" + id)
		if err != nil {
			return nil, err
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return nil, err
		}
		if resp.StatusCode != http.StatusOK {
			return nil, fmt.Errorf("trace %s: status %d", id, resp.StatusCode)
		}
		var st gateway.StitchedTrace
		if err := json.Unmarshal(body, &st); err != nil {
			return nil, err
		}
		if st.Partial || st.Root == nil {
			return nil, errors.New("trace " + id + " is partial")
		}
		out = append(out, &st)
	}
	return out, nil
}

// traceSelfP50 returns, per tier-qualified span name, the median over
// traces of the span's self time (ms) within one trace.
func traceSelfP50(traces []*gateway.StitchedTrace) map[string]float64 {
	per := map[string][]float64{}
	for _, st := range traces {
		spans, names := flattenTrace(st.Root)
		self := selfTimes(spans)
		sum := map[string]int64{}
		for i, s := range spans {
			sum[names[s.name]] += self[i]
		}
		for n, v := range sum {
			per[n] = append(per[n], float64(v)/1e6)
		}
	}
	out := map[string]float64{}
	for n, xs := range per {
		out[n] = median(xs)
	}
	return out
}
