package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one traced step: a call into a layer's public function, timed
// from outside. Spans of one operation share Req; Parent is the index of
// the enclosing span (-1 for the operation itself). A replayed step runs
// after the operation, so a parent "covers" its children's durations,
// not their wall intervals: self time is duration minus the children's
// summed durations.
type span struct {
	Req    int    `json:"req"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run ends.
type tracer struct {
	epoch time.Time
	spans []span
	reqs  int
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// newReq returns a fresh request id.
func (t *tracer) newReq() int {
	t.reqs++
	return t.reqs
}

// add records a finished span and returns its id.
func (t *tracer) add(req, parent int, name string, start, end time.Time) int {
	id := len(t.spans)
	t.spans = append(t.spans, span{
		Req: req, ID: id, Parent: parent, Name: name,
		Start: start.Sub(t.epoch).Nanoseconds(), End: end.Sub(t.epoch).Nanoseconds(),
	})
	return id
}

// timed runs f as a span under parent and returns the span's id.
func (t *tracer) timed(req, parent int, name string, f func() error) (int, error) {
	start := time.Now()
	err := f()
	return t.add(req, parent, name, start, time.Now()), err
}

// layerTimes aggregates the spans: for every span name, the per-request
// sums of its duration and of its self time (duration minus direct
// children), in milliseconds.
func (t *tracer) layerTimes() (total, self map[string][]float64) {
	childSum := make([]time.Duration, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			childSum[s.Parent] += s.dur()
		}
	}
	type key struct {
		req  int
		name string
	}
	tot := map[key]time.Duration{}
	slf := map[key]time.Duration{}
	var order []key
	for i, s := range t.spans {
		k := key{s.Req, s.Name}
		if _, ok := tot[k]; !ok {
			order = append(order, k)
		}
		tot[k] += s.dur()
		slf[k] += s.dur() - childSum[i]
	}
	sort.SliceStable(order, func(i, j int) bool { return order[i].req < order[j].req })
	total, self = map[string][]float64{}, map[string][]float64{}
	for _, k := range order {
		total[k.name] = append(total[k.name], ms(tot[k]))
		self[k.name] = append(self[k.name], ms(slf[k]))
	}
	return total, self
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
