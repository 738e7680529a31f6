package telemetry

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func TestMetricsHandler(t *testing.T) {
	r := New()
	r.Counter("dv_checked_total").Add(3)
	r.Histogram("dv_verdict_latency_seconds", DefLatencyBuckets).Observe(0.001)

	srv := httptest.NewServer(NewServeMux(r))
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("content type = %q", ct)
	}
	text := string(body)
	for _, want := range []string{
		"# TYPE dv_checked_total counter",
		"dv_checked_total 3",
		"# TYPE dv_verdict_latency_seconds histogram",
		"dv_verdict_latency_seconds_count 1",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q in:\n%s", want, text)
		}
	}

	// JSON variant.
	resp, err = http.Get(srv.URL + "/metrics?format=json")
	if err != nil {
		t.Fatal(err)
	}
	var snap Snapshot
	err = json.NewDecoder(resp.Body).Decode(&snap)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if snap.Counters["dv_checked_total"] != 3 {
		t.Errorf("json snapshot counters = %v", snap.Counters)
	}
}

func TestExpvarBridge(t *testing.T) {
	r := New()
	r.Counter("dv_flagged_total").Add(9)
	srv := httptest.NewServer(NewServeMux(r))
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var vars map[string]json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&vars); err != nil {
		t.Fatal(err)
	}
	raw, ok := vars["deepvalidation"]
	if !ok {
		t.Fatalf("/debug/vars lacks the deepvalidation bridge; keys: %v", keys(vars))
	}
	var snap Snapshot
	if err := json.Unmarshal(raw, &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Counters["dv_flagged_total"] != 9 {
		t.Errorf("expvar snapshot counters = %v", snap.Counters)
	}
	// cmdline/memstats prove the stock expvar handler is serving too.
	if _, ok := vars["memstats"]; !ok {
		t.Error("/debug/vars lacks memstats")
	}
}

// TestExpvarRepublishSafe proves PublishExpvar tolerates being called
// once per constructed mux (expvar.Publish itself panics on duplicate
// names).
func TestExpvarRepublishSafe(t *testing.T) {
	r := New()
	_ = NewServeMux(r)
	_ = NewServeMux(r) // must not panic
}

func TestPprofEndpoint(t *testing.T) {
	srv := httptest.NewServer(NewServeMux(New()))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "goroutine") {
		t.Errorf("pprof index status %d, body %q", resp.StatusCode, truncate(string(body), 120))
	}
}

// TestServe exercises the real-listener path the CLIs use, including
// the ":0" ephemeral-port form the e2e harness scrapes.
func TestServe(t *testing.T) {
	r := New()
	r.Counter("dv_checked_total").Inc()
	addr, shutdown, err := Serve("127.0.0.1:0", r)
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown()
	resp, err := http.Get("http://" + addr.String() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), "dv_checked_total 1") {
		t.Errorf("served metrics = %q", truncate(string(body), 200))
	}
	if err := shutdown(); err != nil && err != http.ErrServerClosed {
		t.Errorf("shutdown: %v", err)
	}
}

func keys(m map[string]json.RawMessage) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}

func truncate(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n] + "..."
}
