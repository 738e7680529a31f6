//go:build e2e

package e2e

import (
	"encoding/json"
	"fmt"
	"path/filepath"
	"regexp"
	"strings"
	"syscall"
	"testing"
	"time"
)

// testTelemetry scores with the metrics endpoint on an ephemeral port
// and scrapes it while it lingers.
func testTelemetry(t *testing.T) {
	args := append([]string{"score", "-model", fx.model, "-validator", fx.validator}, dataFlags...)
	p := launch(t, nil, "dvvalidate", append(args, "-telemetry", "-metrics-addr", "127.0.0.1:0", "-metrics-linger", "30s")...)
	base := "http://" + p.mustAddr(t, "metrics")
	checked := regexp.MustCompile(`(?m)^dv_checked_total [1-9]`)
	waitFor(t, "dv_checked_total > 0", func() bool {
		r, err := send(base+"/metrics", "")
		return err == nil && checked.MatchString(r.body)
	})
	do(t, base+"/metrics", "").want(t, 200, "# TYPE dv_checked_total counter",
		"# TYPE dv_verdict_latency_seconds histogram", "dv_verdict_latency_seconds_bucket",
		"dv_layer_discrepancy_bucket", "dv_epsilon")
	do(t, base+"/metrics?format=json", "").want(t, 200, `"dv_checked_total"`)
	do(t, base+"/debug/vars", "").want(t, 200, `"deepvalidation"`, `"memstats"`)
	do(t, base+"/debug/pprof/", "").want(t, 200, "goroutine")
}

// testServe drives dvserve's request surface: check/batch agreement,
// input rejection, hot reload, 429 shedding and the SIGTERM drain.
func testServe(t *testing.T) {
	p := serve(t, nil, fx.validator, "127.0.0.1:0", "-metrics-addr", "127.0.0.1:0", "-eps", "0.5")
	base, metrics := "http://"+p.addr, "http://"+p.mustAddr(t, "metrics")
	do(t, base+"/healthz", "").want(t, 200, "ok")
	do(t, base+"/readyz", "").want(t, 200, "ready")
	verdict := do(t, base+"/v1/check", checkJSON).want(t, 200, `"label"`, `"valid"`).body
	// Micro-batching must not change verdicts: the same image three
	// times gives the single-check verdict byte for byte, three times.
	batch := do(t, base+"/v1/batch", batchJSON(3)).want(t, 200).body
	if n := strings.Count(batch, verdict); n != 3 {
		t.Fatalf("%d/3 batch verdicts match the check verdict\ncheck: %s\nbatch: %s", n, verdict, batch)
	}
	do(t, base+"/v1/check", "not json").want(t, 400)
	do(t, base+"/v1/check", image(8, 8)).want(t, 400, "model expects")

	do(t, base+"/v1/reload", "{}").want(t, 200, `"reloaded":true`)
	if err := p.cmd.Process.Signal(syscall.SIGHUP); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "the SIGHUP reload", func() bool { return strings.Contains(p.stderr(), "dvserve: reloaded") })
	do(t, base+"/v1/check", checkJSON).want(t, 200)
	do(t, metrics+"/metrics", "").want(t, 200, `dv_serve_requests_total{endpoint="check"}`,
		`dv_serve_requests_total{endpoint="batch"}`, "dv_serve_batch_size_bucket",
		"dv_serve_reload_total 2", "dv_checked_total")

	// 32 clients starting together, 8 requests each, against a one-deep
	// queue and one sequential worker: the first request scores, most
	// of the rest must shed with a Retry-After hint.
	shed := serve(t, nil, fx.validator, "127.0.0.1:0", "-queue-depth", "1", "-max-batch", "1",
		"-batch-window", "0", "-dispatch-workers", "1", "-workers", "1", "-request-timeout", "10s")
	codes, retryAfter := burst(32, 8, "http://"+shed.addr+"/v1/check", checkJSON)
	if codes[200] == 0 || codes[429] == 0 || retryAfter != codes[429] {
		t.Fatalf("overload codes %v, %d of the 429s carry Retry-After; want 200s and 429s that all do", codes, retryAfter)
	}
	t.Logf("overload codes %v", codes)

	// The request parks in the 2s batch window when SIGTERM arrives;
	// the drain must answer it, not drop it.
	drain := serve(t, nil, fx.validator, "127.0.0.1:0", "-max-batch", "8", "-batch-window", "2s", "-eps", "0.5")
	inflight := make(chan reply, 1)
	go func() {
		r, err := send("http://"+drain.addr+"/v1/check", checkJSON)
		if err != nil {
			r.body = err.Error()
		}
		inflight <- r
	}()
	time.Sleep(500 * time.Millisecond)
	if err := drain.stop(syscall.SIGTERM); err != nil {
		t.Fatalf("dvserve after SIGTERM: %v", err)
	}
	if r := <-inflight; r.code != 200 || r.body != verdict {
		t.Fatalf("drained request: %d %s, want 200 %s", r.code, r.body, verdict)
	}
	contains(t, "dvserve stderr", drain.stderr(), "drained cleanly")
}

// testChaos proves the artifact failure model: checksummed saves, a
// crash between write and rename that leaves the old artifact intact,
// corrupt reloads refused while the old detector keeps its verdicts,
// /readyz degraded after -reload-max-failures, and healing on restore.
func testChaos(t *testing.T) {
	val := writeFile(t, filepath.Join(t.TempDir(), "validator.gob"), readFile(t, fx.validator))
	backup := readFile(t, val)
	wantMagic(t, fx.model)
	wantMagic(t, val)

	_, err := execBin([]string{"DV_FAULT=artifact.rename"}, "dvvalidate", fitArgs(val, "40")...)
	if err == nil {
		t.Fatal("fit with the rename fault armed exited 0")
	}
	contains(t, "faulted fit", err.Error(), "injected fault")
	sameFile(t, val, fx.validator)
	if litter, _ := filepath.Glob(val + ".tmp-*"); len(litter) > 0 {
		t.Fatalf("failed save left temp files: %v", litter)
	}

	p := serve(t, nil, val, "127.0.0.1:0", "-metrics-addr", "127.0.0.1:0", "-eps", "0.5", "-reload-max-failures", "3")
	base, metrics := "http://"+p.addr, "http://"+p.mustAddr(t, "metrics")
	good := do(t, base+"/v1/check", checkJSON).want(t, 200).body

	corrupt := append([]byte(nil), backup...)
	corrupt[len(corrupt)-10]++ // one byte deep in the payload
	writeFile(t, val, corrupt)
	for i := 1; i <= 3; i++ {
		do(t, base+"/v1/reload", "{}").want(t, 500, "corrupt")
		if got := do(t, base+"/v1/check", checkJSON).want(t, 200).body; got != good {
			t.Fatalf("verdict drifted after failed reload %d:\nbefore: %s\nafter:  %s", i, good, got)
		}
	}
	do(t, base+"/readyz", "").want(t, 503, "degraded")
	do(t, metrics+"/metrics", "").want(t, 200, "dv_serve_reload_failed_total 3", "dv_serve_reload_fail_streak 3")

	writeFile(t, val, backup)
	do(t, base+"/v1/reload", "{}").want(t, 200)
	do(t, base+"/readyz", "").want(t, 200, "ready")
	if got := do(t, base+"/v1/check", checkJSON).want(t, 200).body; got != good {
		t.Fatalf("post-recovery verdict %s, want %s", got, good)
	}
}

// testTrace walks the per-verdict triage loop: span trees, explain=1,
// the flight recorder, drift warm-up, and a validator without a drift
// reference degrading the drift watch to disabled.
func testTrace(t *testing.T) {
	contains(t, "fit output", fx.fitOut, "drift reference: persisted")
	p := serve(t, nil, fx.validator, "127.0.0.1:0", "-trace-sample", "1", "-metrics-addr", "127.0.0.1:0", "-eps", "1000")
	base, metrics := "http://"+p.addr, "http://"+p.mustAddr(t, "metrics")
	contains(t, "dvserve banner", p.stderr(), "drift on")

	r := do(t, base+"/v1/check", checkJSON, "X-DV-Trace-Id", "e2e-trace-1").want(t, 200)
	if got := r.hdr.Get("X-DV-Trace-Id"); got != "e2e-trace-1" {
		t.Fatalf("X-DV-Trace-Id echoed as %q", got)
	}
	do(t, base+"/debug/dv/trace/e2e-trace-1", "").want(t, 200, `"id":"e2e-trace-1"`, `"endpoint":"check"`,
		`"name":"verdict"`, `"name":"admission"`, `"name":"batch_wait"`, `"name":"dispatch"`,
		`"name":"score"`, `"name":"forward"`, `"name":"svm_layer_`, `"d":`)
	do(t, base+"/v1/check?explain=1", checkJSON).want(t, 200, `"per_layer"`)
	if body := do(t, base+"/v1/check", checkJSON).want(t, 200).body; strings.Contains(body, `"per_layer"`) {
		t.Fatalf("per_layer without explain=1: %s", body)
	}
	do(t, base+"/debug/dv/flight", "").want(t, 200, `"trace_id":"e2e-trace-1"`, `"per_layer"`,
		`"outcome":"ok"`, `"endpoint":"check"`)

	// 3 x 16 accepted verdicts clear the drift watch's 32-observation floor.
	for i := 0; i < 3; i++ {
		do(t, base+"/v1/batch", batchJSON(16)).want(t, 200)
	}
	m := do(t, metrics+"/metrics", "").want(t, 200, `dv_drift_score{layer="`, "dv_drift_alarm", "dv_drift_window_fill").body
	if fill := metric(t, m, "dv_drift_window_fill"); fill < 32 {
		t.Fatalf("drift window fill %v, want >= 32", fill)
	}
	rz := do(t, base+"/readyz", "").want(t, 200).body
	if first, _, _ := strings.Cut(rz, "\n"); !strings.Contains(first, "ready") {
		t.Fatalf("readyz line 1 not ready: %s", rz)
	}
	match(t, "readyz", rz, `(?m)^drift: (ok|ALARM)`)
	do(t, base+"/debug/dv/drift", "").want(t, 200, `"enabled":true`, `"scores"`)

	// A tiny eps rejects everything: the triage query must find it.
	rej := "http://" + serve(t, nil, fx.validator, "127.0.0.1:0", "-trace-sample", "1", "-eps", "0.000001").addr
	do(t, rej+"/v1/check", checkJSON, "X-DV-Trace-Id", "e2e-reject-1").want(t, 200, `"valid":false`)
	do(t, rej+"/debug/dv/flight?valid=false", "").want(t, 200, `"trace_id":"e2e-reject-1"`, `"valid":false`, `"per_layer"`)
	do(t, rej+"/debug/dv/flight?valid=true", "").want(t, 200, `"count":0`)

	nodrift := filepath.Join(t.TempDir(), "validator-nodrift.gob")
	contains(t, "fit -drift=false", output(t, nil, "dvvalidate", fitArgs(nodrift, "40", "-drift=false")...),
		"drift reference: none")
	legacy := serve(t, nil, nodrift, "127.0.0.1:0", "-trace-sample", "1")
	contains(t, "dvserve banner", legacy.stderr(), "drift off")
	base = "http://" + legacy.addr
	do(t, base+"/v1/check", checkJSON).want(t, 200)
	match(t, "readyz", do(t, base+"/readyz", "").want(t, 200).body, `(?m)^drift: disabled`)
	do(t, base+"/debug/dv/drift", "").want(t, 200, `"enabled":false`)
}

// testObs covers wide events with log rotation, runtime and SLO
// gauges, and a forced 429 burst burning the availability objective
// into a breach whose event cross-links a resolvable shed trace.
func testObs(t *testing.T) {
	events := filepath.Join(t.TempDir(), "events.ndjson")
	// Admission is all-or-nothing per request: a 16-image batch fills
	// the 16-slot queue and drains one image at a time through the one
	// dispatcher, so batches posted together shed. The 2000-byte
	// rotation threshold makes the request events roll the log.
	p := serve(t, nil, fx.validator, "127.0.0.1:0", "-metrics-addr", "127.0.0.1:0", "-eps", "1000",
		"-slo", "-slo-interval", "1s", "-trace-sample", "1",
		"-queue-depth", "16", "-dispatch-workers", "1", "-max-batch", "1", "-batch-window", "0", "-workers", "1",
		"-log", "info", "-log-file", events, "-log-max-bytes", "2000")
	base, metrics := "http://"+p.addr, "http://"+p.mustAddr(t, "metrics")

	for i := 1; i <= 6; i++ {
		do(t, base+"/v1/check", checkJSON, "X-DV-Trace-Id", fmt.Sprintf("obs-%d", i)).want(t, 200)
	}
	do(t, base+"/v1/batch", batchJSON(16)).want(t, 200)
	requests := `dv_events_emitted_total{type="request"}`
	m := do(t, metrics+"/metrics", "").want(t, 200, "dv_build_info{", `model_sha256="`,
		"dv_runtime_goroutines", "dv_runtime_heap_bytes", "dv_runtime_gc_cycles_total",
		`dv_slo_objective{slo="availability"}`, `dv_slo_burn_rate{slo="availability",window="5m"}`,
		`dv_slo_breach{slo="latency"}`, requests).body
	if g := metric(t, m, "dv_runtime_goroutines"); g <= 0 {
		t.Fatalf("dv_runtime_goroutines = %v", g)
	}
	emitted := metric(t, m, requests)

	do(t, base+"/debug/dv/events?type=request&limit=3", "").want(t, 200, `"type":"request"`, `"count":3`)
	do(t, base+"/debug/dv/events?type=lifecycle", "").want(t, 200, `"msg":"server ready"`)
	do(t, base+"/debug/dv/events?valid=maybe", "").want(t, 400)
	match(t, "readyz", do(t, base+"/readyz", "").want(t, 200, `"slo":{"enabled":true`).body, `(?m)^slo: `)

	sheds := 0
	for round := 0; round < 6 && sheds < 3; round++ {
		codes, _ := burst(6, 1, base+"/v1/batch", batchJSON(16))
		sheds += codes[429]
	}
	if sheds == 0 {
		t.Fatal("no batch shed; the availability budget cannot burn")
	}
	var ev string
	waitFor(t, "the availability breach event", func() bool {
		r, err := send(base+"/debug/dv/events?type=slo_breach&level=error", "")
		ev = r.body
		return err == nil && strings.Contains(ev, `"slo":"availability"`)
	})
	do(t, base+"/debug/dv/slo", "").want(t, 200, `"breaching":true`)
	match(t, "readyz", do(t, base+"/readyz", "").body, `(?m)^slo: BREACH`)
	tid := match(t, "breach event", ev, `"trace_ids":\["([^"]+)"`)
	do(t, base+"/debug/dv/trace/"+tid, "").want(t, 200, `"id":"`+tid+`"`, `"outcome":"shed"`)
	m = do(t, metrics+"/metrics", "").want(t, 200, `dv_slo_breach{slo="availability"} 1`).body
	if after := metric(t, m, requests); after <= emitted {
		t.Fatalf("%s did not move: %v -> %v", requests, emitted, after)
	}

	// Both log generations hold only complete, typed events, and the
	// breach reached the sink.
	var all string
	for _, f := range []string{events, events + ".1"} {
		log := string(readFile(t, f))
		lines := strings.Split(log, "\n")
		if len(lines) < 2 {
			t.Fatalf("%s holds no complete event", f)
		}
		for _, line := range lines[:len(lines)-1] {
			var e struct{ Type string }
			if err := json.Unmarshal([]byte(line), &e); err != nil || e.Type == "" {
				t.Fatalf("%s: not a typed event (%v): %s", f, err, line)
			}
		}
		all += log
	}
	contains(t, "event log", all, `"type":"slo_breach"`)
}
