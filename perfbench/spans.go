package main

// The traced run's own spans: recorded by this benchmark around its
// calls into each layer, kept in memory, and written out at the end.

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call.  Spans of one run share the tracer; Parent
// is the index of the enclosing span, -1 for the root.
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// tracer records spans when enabled; a disabled tracer records nothing,
// so the untraced run pays one branch per call site.
type tracer struct {
	on    bool
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer(on bool) *tracer { return &tracer{on: on, t0: time.Now()} }

// activeSpan is an open span; end closes it.  The zero value is inert.
type activeSpan struct {
	t  *tracer
	id int
}

// start opens a span named "<layer>.<call>" under parent (nil: root).
func (t *tracer) start(name string, parent *activeSpan) *activeSpan {
	if !t.on {
		return &activeSpan{id: -1}
	}
	p := -1
	if parent != nil {
		p = parent.id
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: p, Name: name, Start: time.Since(t.t0), End: -1})
	return &activeSpan{t: t, id: id}
}

func (a *activeSpan) end() {
	if a.t == nil {
		return
	}
	a.t.mu.Lock()
	a.t.spans[a.id].End = time.Since(a.t.t0)
	a.t.mu.Unlock()
}

// selfTimes returns each span's duration minus the part of its interval
// that its children cover (children may overlap one another).
func (t *tracer) selfTimes() []time.Duration {
	children := make([][]span, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make([]time.Duration, len(t.spans))
	for i, s := range t.spans {
		cs := children[i]
		sort.Slice(cs, func(a, b int) bool { return cs[a].Start < cs[b].Start })
		covered := time.Duration(0)
		cur := s.Start
		for _, c := range cs {
			lo, hi := max(c.Start, cur), min(c.End, s.End)
			if hi > lo {
				covered += hi - lo
				cur = hi
			}
		}
		self[i] = s.End - s.Start - covered
	}
	return self
}

// layerSelf sums self time per layer, the name's prefix before the
// first dot.
func (t *tracer) layerSelf() map[string]time.Duration {
	out := map[string]time.Duration{}
	for i, d := range t.selfTimes() {
		layer, _, _ := strings.Cut(t.spans[i].Name, ".")
		out[layer] += d
	}
	return out
}

// writeTable prints the self-time table, per span name and per layer.
func (t *tracer) writeTable(w io.Writer) {
	type row struct {
		name        string
		n           int
		total, self time.Duration
	}
	rows := map[string]*row{}
	self := t.selfTimes()
	for i, s := range t.spans {
		r := rows[s.Name]
		if r == nil {
			r = &row{name: s.Name}
			rows[s.Name] = r
		}
		r.n++
		r.total += s.End - s.Start
		r.self += self[i]
	}
	var list []*row
	for _, r := range rows {
		list = append(list, r)
	}
	sort.Slice(list, func(i, j int) bool { return list[i].self > list[j].self })
	fmt.Fprintf(w, "self time by span (host ms):\n  %-34s %6s %12s %12s\n", "span", "n", "total_ms", "self_ms")
	for _, r := range list {
		fmt.Fprintf(w, "  %-34s %6d %12.3f %12.3f\n", r.name, r.n, ms(r.total), ms(r.self))
	}
	layers := t.layerSelf()
	var names []string
	for l := range layers {
		names = append(names, l)
	}
	sort.Slice(names, func(i, j int) bool { return layers[names[i]] > layers[names[j]] })
	fmt.Fprintln(w, "self time by layer (host ms):")
	for _, l := range names {
		fmt.Fprintf(w, "  %-34s %12.3f\n", l, ms(layers[l]))
	}
}

// writeJSONL writes every span, one JSON object per line.
func (t *tracer) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
