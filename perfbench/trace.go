package main

import (
	"bufio"
	"encoding/json"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer: its name, the span that caused it
// (0 for a root), the request it belongs to (0 outside the service
// workload), and an optional tag such as the kernel a sim.Run used.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Req    int    `json:"req,omitempty"`
	Name   string `json:"name"`
	Tag    string `json:"tag,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory for the whole run. A nil *tracer records
// nothing, so untraced runs pay one nil check per call site.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id (0 on a nil tracer).
func (t *tracer) begin(name string, parent, req int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Req: req, Name: name, Start: now})
	return len(t.spans)
}

// end closes span id, tagging it when tag is non-empty.
func (t *tracer) end(id int, tag string) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = now
	if tag != "" {
		t.spans[id-1].Tag = tag
	}
}

// layerTimes aggregates the closed spans by name (and by name/tag when
// tagged): the total self time in seconds and every span's full duration in
// milliseconds. Self time is a span's duration minus the part of it that
// its child spans cover.
type layerTimes struct {
	self  map[string]float64
	durMS map[string][]float64
}

func (t *tracer) aggregate() layerTimes {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int][]span{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	lt := layerTimes{self: map[string]float64{}, durMS: map[string][]float64{}}
	for _, s := range t.spans {
		if s.End == 0 {
			continue
		}
		self := s.End - s.Start - covered(s, children[s.ID])
		keys := []string{s.Name}
		if s.Tag != "" {
			keys = append(keys, s.Name+"/"+s.Tag)
		}
		for _, k := range keys {
			lt.self[k] += float64(self) / 1e9
			lt.durMS[k] = append(lt.durMS[k], float64(s.End-s.Start)/1e6)
		}
	}
	return lt
}

// covered is the length of the union of the children's intervals clipped to
// the parent's.
func covered(parent span, kids []span) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if k.End != 0 && hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	for i, v := range iv {
		if i == 0 || v[0] > curHi {
			total += curHi - curLo
			curLo, curHi = v[0], v[1]
		} else if v[1] > curHi {
			curHi = v[1]
		}
	}
	return total + curHi - curLo
}

// write stores the spans as JSON lines at path.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// goStats samples the Go runtime around a traced phase: allocation and GC
// counts as deltas, and the peak live heap from a sampler goroutine.
type goStats struct {
	samples     []metrics.Sample
	allocs0, gc uint64
	stop        chan struct{}
	done        chan struct{}
	peakHeap    uint64
}

const (
	metricAllocs = "/gc/heap/allocs:bytes"
	metricGC     = "/gc/cycles/total:gc-cycles"
	metricHeap   = "/memory/classes/heap/objects:bytes"
)

func startGoStats() *goStats {
	g := &goStats{
		samples: []metrics.Sample{{Name: metricAllocs}, {Name: metricGC}, {Name: metricHeap}},
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
	}
	metrics.Read(g.samples)
	g.allocs0, g.gc = g.samples[0].Value.Uint64(), g.samples[1].Value.Uint64()
	g.peakHeap = g.samples[2].Value.Uint64()
	go func() {
		defer close(g.done)
		s := []metrics.Sample{{Name: metricHeap}}
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-g.stop:
				return
			case <-tick.C:
				metrics.Read(s)
				if v := s[0].Value.Uint64(); v > g.peakHeap {
					g.peakHeap = v
				}
			}
		}
	}()
	return g
}

// finish stops the sampler and records the go.* per-layer metrics.
func (g *goStats) finish(rep *report) {
	close(g.stop)
	<-g.done
	metrics.Read(g.samples)
	if v := g.samples[2].Value.Uint64(); v > g.peakHeap {
		g.peakHeap = v
	}
	rep.set("go.heap_peak_mb", "MiB", float64(g.peakHeap)/(1<<20))
	rep.set("go.alloc_mb", "MiB", float64(g.samples[0].Value.Uint64()-g.allocs0)/(1<<20))
	rep.set("go.gc_cycles", "count", float64(g.samples[1].Value.Uint64()-g.gc))
}

// settle runs the garbage collector before a timed phase, so garbage left
// by set-up is not collected on the clock.
func settle() { runtime.GC() }
