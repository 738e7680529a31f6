package main

import (
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"

	"deepvalidation/internal/trace"
)

func TestSelfTimesHandBuiltTree(t *testing.T) {
	// root [0,100)
	// ├── a [10,40)
	// │   └── a1 [20,30)
	// ├── b [30,60)        overlaps a by 10: the union of root's
	// │                    children covers [10,60), not 60
	// └── c [90,120)       runs past root's end: only [90,100) counts
	spans := []span{
		{name: 0, parent: -1, start: 0, end: 100},
		{name: 1, parent: 0, start: 10, end: 40},
		{name: 2, parent: 1, start: 20, end: 30},
		{name: 3, parent: 0, start: 30, end: 60},
		{name: 4, parent: 0, start: 90, end: 120},
	}
	got := selfTimes(spans)
	want := []int64{100 - 50 - 10, 30 - 10, 10, 30, 30}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("span %d: self %d, want %d", i, got[i], want[i])
		}
	}
}

func TestSpanBufFoldsTrees(t *testing.T) {
	rec := newRecorder()
	b := rec.buf()
	root, leaf := rec.id("score"), rec.id("nn.conv1")
	n := keepEvery + 1
	for i := 0; i < n; i++ {
		b.spans = append(b.spans,
			span{name: root, parent: -1, start: 0, end: 100},
			span{name: leaf, parent: 0, start: 10, end: 40})
		b.fold()
	}
	if len(b.spans) != 0 {
		t.Fatalf("folding must clear the tree, %d spans left", len(b.spans))
	}
	tot, cnt := rec.selfByName()
	if cnt["score"] != n || cnt["nn.conv1"] != n || tot["score"] != int64(70*n) || tot["nn.conv1"] != int64(30*n) {
		t.Errorf("totals %v counts %v, want %d trees of 70ns root self and a 30ns leaf", tot, cnt, n)
	}
	// Trees 0 and keepEvery are kept, each re-parented into kept.
	if len(b.kept) != 4 || b.kept[3].parent != 2 || b.kept[2].parent != -1 {
		t.Errorf("kept spans %+v", b.kept)
	}
}

func TestWindowedMetricsIgnoreOneDisturbedSlice(t *testing.T) {
	ms := time.Millisecond
	// Five 1s slices of 1ms operations doing 1 unit each; the third
	// slice is disturbed: its operations take 10ms.
	var ss []sample
	for w := 0; w < windows; w++ {
		d := ms
		if w == 2 {
			d = 10 * ms
		}
		for i := 0; i < 100; i++ {
			ss = append(ss, sample{at: time.Duration(w)*time.Second + time.Duration(i)*5*ms, dur: d, work: 1})
		}
	}
	span := windows * time.Second
	if got := windowedPercentile(ss, span, 90); got != 1 {
		t.Errorf("windowed p90 = %v ms, want 1", got)
	}
	if got := windowedThroughput(ss, span, 2); math.Abs(got-2000) > 1e-6 {
		t.Errorf("windowed throughput = %v/s, want 2000 (1 unit per ms on each of 2 lanes)", got)
	}
	// A sample ending just past the span counts in the last slice.
	late := append(ss, sample{at: span + ms, dur: ms, work: 1})
	if s := sliced(late, span); len(s[windows-1]) != 101 {
		t.Errorf("last slice holds %d samples, want 101", len(s[windows-1]))
	}
}

func TestFlattenTraceNamesTiers(t *testing.T) {
	ms := func(n int) int64 { return int64(n) * 1e6 }
	replica := &trace.Span{Name: "verdict", StartNs: ms(2), DurNs: ms(6),
		Attrs: map[string]any{"tier": "replica"},
		Children: []*trace.Span{
			{Name: "admission", StartNs: ms(2), DurNs: ms(1)},
			{Name: "dispatch", StartNs: ms(3), DurNs: ms(4)},
		}}
	root := &trace.Span{Name: "gateway", StartNs: 0, DurNs: ms(10), Children: []*trace.Span{
		{Name: "admission", StartNs: 0, DurNs: ms(1)},
		{Name: "upstream", StartNs: ms(1), DurNs: ms(8), Children: []*trace.Span{replica}},
	}}
	spans, names := flattenTrace(root)
	self := selfTimes(spans)
	got := map[string]int64{}
	for i, s := range spans {
		got[names[s.name]] += self[i]
	}
	want := map[string]int64{
		"gateway.gateway": ms(1), "gateway.admission": ms(1), "gateway.upstream": ms(2),
		"serve.verdict": ms(1), "serve.admission": ms(1), "serve.dispatch": ms(4),
	}
	for n, v := range want {
		if got[n] != v {
			t.Errorf("%s: self %d ns, want %d", n, got[n], v)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 0, 100)
	for i := 100; i >= 1; i-- {
		xs = append(xs, float64(i))
	}
	cases := []struct {
		p         float64
		value     float64
		n, beyond int
	}{
		{50, 50, 100, 50},
		{90, 90, 100, 10}, // ten samples beyond: the highest percentile 100 samples support
		{99, 99, 100, 1},
		{100, 100, 100, 0},
	}
	for _, c := range cases {
		q := percentile(xs, c.p)
		if q.Value != c.value || q.N != c.n || q.Beyond != c.beyond {
			t.Errorf("p%v = %+v, want value %v n %d beyond %d", c.p, q, c.value, c.n, c.beyond)
		}
	}
	if xs[0] != 100 {
		t.Error("percentile must not reorder its input")
	}
	// Ties: every sample beyond the chosen value is strictly greater.
	q := percentile([]float64{1, 2, 2, 2, 3}, 50)
	if q.Value != 2 || q.Beyond != 1 {
		t.Errorf("p50 of ties = %+v, want value 2 with 1 beyond", q)
	}
	if q := percentile(nil, 50); q.N != 0 || !math.IsNaN(q.Value) {
		t.Errorf("empty sample gave %+v, want NaN with n 0", q)
	}
}

// fakeClock advances only when a request is served or a sender sleeps
// past now; one sender keeps it deterministic.
type fakeClock struct {
	mu sync.Mutex
	t  time.Duration
}

func (c *fakeClock) now() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) sleepUntil(t time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if t > c.t {
		c.t = t
	}
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t += d
	c.mu.Unlock()
}

func TestOpenLoopTimesFromDueTime(t *testing.T) {
	ms := time.Millisecond
	// Requests due every 2ms, each served in 3ms by one sender: every
	// request after the first goes out 1ms later than the one before,
	// and its latency counts that wait.
	dues := []time.Duration{0, 2 * ms, 4 * ms, 6 * ms, 20 * ms}
	c := &fakeClock{}
	got := openLoop(c, dues, 1, func(i int) bool {
		c.advance(3 * ms)
		return i != 2
	})
	want := []sent{
		{late: 0, latency: 3 * ms, ok: true},
		{late: 1 * ms, latency: 4 * ms, ok: true},
		{late: 2 * ms, latency: 5 * ms, ok: false},
		{late: 3 * ms, latency: 6 * ms, ok: true},
		{late: 0, latency: 3 * ms, ok: true}, // the backlog drained
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("request %d: %+v, want %+v", i, got[i], want[i])
		}
	}
}

func TestArrivalsAreSeededAndBounded(t *testing.T) {
	a := arrivals(rand.New(rand.NewSource(7)), 1000, time.Second)
	b := arrivals(rand.New(rand.NewSource(7)), 1000, time.Second)
	if len(a) != len(b) || len(a) < 900 || len(a) > 1100 {
		t.Fatalf("got %d and %d arrivals at 1000/s over 1s", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] || a[i] >= time.Second || (i > 0 && a[i] < a[i-1]) {
			t.Fatalf("arrival %d: %v vs %v", i, a[i], b[i])
		}
	}
}
