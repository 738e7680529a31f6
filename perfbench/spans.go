package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"

	"deepvalidation/internal/trace"
)

// span is one recorded interval. Times are nanoseconds since the
// recorder's base; parent indexes the same buffer (-1 for a root).
type span struct {
	name       int32
	parent     int32
	start, end int64
}

// recorder keeps the spans of a traced run in memory. Names are
// interned once, outside the timed loops; each goroutine records into
// its own spanBuf, so recording takes no lock.
type recorder struct {
	base  time.Time
	mu    sync.Mutex
	names []string
	ids   map[string]int32
	bufs  []*spanBuf
}

func newRecorder() *recorder {
	return &recorder{base: time.Now(), ids: map[string]int32{}}
}

// id interns a span name.
func (r *recorder) id(name string) int32 {
	r.mu.Lock()
	defer r.mu.Unlock()
	if id, ok := r.ids[name]; ok {
		return id
	}
	id := int32(len(r.names))
	r.names = append(r.names, name)
	r.ids[name] = id
	return id
}

// buf returns a new per-goroutine span buffer.
func (r *recorder) buf() *spanBuf {
	b := &spanBuf{base: r.base, self: map[int32]int64{}, count: map[int32]int{}}
	r.mu.Lock()
	r.bufs = append(r.bufs, b)
	r.mu.Unlock()
	return b
}

// spanBuf is one goroutine's spans. It holds one span tree at a time:
// when a root span ends, the tree's self times are folded into
// per-name totals and the tree is dropped, except every keepEvery-th
// tree, which is kept for the trace file written at exit.
type spanBuf struct {
	base  time.Time
	spans []span
	self  map[int32]int64
	count map[int32]int
	trees int
	kept  []span
}

// keepEvery is the sampling stride of span trees kept for the trace
// file; the metrics use every tree.
const keepEvery = 64

func (b *spanBuf) now() int64 { return int64(time.Since(b.base)) }

// begin opens a span under parent (-1 for a root) and returns its index.
func (b *spanBuf) begin(name, parent int32) int32 {
	b.spans = append(b.spans, span{name: name, parent: parent, start: b.now()})
	return int32(len(b.spans) - 1)
}

// end closes the span at index i.
func (b *spanBuf) end(i int32) {
	b.spans[i].end = b.now()
	if b.spans[i].parent < 0 {
		b.fold()
	}
}

// record adds an already-measured interval as a tree of one span.
func (b *spanBuf) record(name int32, start, end time.Time) {
	b.spans = append(b.spans, span{name: name, parent: -1,
		start: int64(start.Sub(b.base)), end: int64(end.Sub(b.base))})
	b.fold()
}

// fold accounts the finished tree and clears the buffer.
func (b *spanBuf) fold() {
	for i, v := range selfTimes(b.spans) {
		b.self[b.spans[i].name] += v
		b.count[b.spans[i].name]++
	}
	if b.trees%keepEvery == 0 {
		off := int32(len(b.kept))
		for _, s := range b.spans {
			if s.parent >= 0 {
				s.parent += off
			}
			b.kept = append(b.kept, s)
		}
	}
	b.trees++
	b.spans = b.spans[:0]
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval covered by the union of its children's intervals.
// Overlapping children (concurrent work under one parent) are counted
// once, and a child's time outside its parent's interval is ignored.
func selfTimes(spans []span) []int64 {
	children := make([][]int32, len(spans))
	for i, s := range spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], int32(i))
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.end - s.start - covered(spans, children[i], s.start, s.end)
	}
	return self
}

// covered is the length of the union of the given spans' intervals
// clipped to [lo, hi].
func covered(spans []span, idx []int32, lo, hi int64) int64 {
	if len(idx) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(idx))
	for _, c := range idx {
		a, b := spans[c].start, spans[c].end
		if a < lo {
			a = lo
		}
		if b > hi {
			b = hi
		}
		if b > a {
			iv = append(iv, [2]int64{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total int64
	curA, curB := int64(0), int64(-1)
	for _, v := range iv {
		if v[0] > curB {
			if curB > curA {
				total += curB - curA
			}
			curA, curB = v[0], v[1]
		} else if v[1] > curB {
			curB = v[1]
		}
	}
	if curB > curA {
		total += curB - curA
	}
	return total
}

// selfByName sums self time (ns) and counts spans per name across all
// buffers.
func (r *recorder) selfByName() (total map[string]int64, count map[string]int) {
	total, count = map[string]int64{}, map[string]int{}
	for _, b := range r.bufs {
		for id, v := range b.self {
			total[r.names[id]] += v
			count[r.names[id]] += b.count[id]
		}
	}
	return total, count
}

// write dumps the kept span trees, one span per tab-separated line
// (buffer, name, start_ns, dur_ns, parent) — the run's raw trace.
func (r *recorder) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for bi, b := range r.bufs {
		for _, s := range b.kept {
			fmt.Fprintf(w, "%d\t%s\t%d\t%d\t%d\n", bi, r.names[s.name], s.start, s.end-s.start, s.parent)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// flattenTrace converts a stitched trace tree into spans, naming each
// by tier: spans under a subtree whose root carries tier=replica are
// prefixed "serve.", the rest "gateway.".
func flattenTrace(root *trace.Span) (spans []span, names []string) {
	ids := map[string]int32{}
	var walk func(s *trace.Span, parent int32, tier string)
	walk = func(s *trace.Span, parent int32, tier string) {
		if t, _ := s.Attrs["tier"].(string); t == "replica" {
			tier = "serve"
		}
		name := tier + "." + s.Name
		id, ok := ids[name]
		if !ok {
			id = int32(len(names))
			names = append(names, name)
			ids[name] = id
		}
		spans = append(spans, span{name: id, parent: parent, start: s.StartNs, end: s.StartNs + s.DurNs})
		me := int32(len(spans) - 1)
		for _, c := range s.Children {
			walk(c, me, tier)
		}
	}
	walk(root, -1, "gateway")
	return spans, names
}
