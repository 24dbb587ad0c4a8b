package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// Spans are recorded from the benchmark's own files, around each call into
// a layer's exported functions; nothing inside the program is instrumented
// (that is a later change). They stay in memory and are written out as
// Chrome trace-event JSON when the run ends. A nil *recorder is tracing
// switched off: begin and end do nothing, so the untraced run shares the
// code path and pays one nil check per call.

// span is one timed call: what ran, when, under which parent span, and for
// which operation (step index, request sequence number, replay index).
type span struct {
	name       string
	start, end time.Duration // since the recorder's epoch
	parent     int           // index into recorder.spans, -1 for a root
	op         int64
}

type recorder struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// begin opens a span and returns its id for end and for children's parent.
func (r *recorder) begin(name string, parent int, op int64) int {
	return r.beginAt(name, parent, op, time.Now())
}

// beginAt opens a span whose start lies in the past (an open-loop request
// is timed from when it was due, not from when the generator got to it).
func (r *recorder) beginAt(name string, parent int, op int64, at time.Time) int {
	if r == nil {
		return -1
	}
	r.mu.Lock()
	id := len(r.spans)
	r.spans = append(r.spans, span{name: name, start: at.Sub(r.epoch), end: -1, parent: parent, op: op})
	r.mu.Unlock()
	return id
}

func (r *recorder) end(id int) {
	if r == nil {
		return
	}
	now := time.Since(r.epoch)
	r.mu.Lock()
	r.spans[id].end = now
	r.mu.Unlock()
}

// in times fn as one span.
func (r *recorder) in(name string, parent int, op int64, fn func(id int)) {
	id := r.begin(name, parent, op)
	fn(id)
	r.end(id)
}

// selfTimes returns, per span, its duration minus the part of its interval
// that its direct children cover (children may overlap each other; the
// covered part is their union clipped to the parent).
func selfTimes(spans []span) []time.Duration {
	kids := make([][]int, len(spans))
	for i, s := range spans {
		if s.parent >= 0 {
			kids[s.parent] = append(kids[s.parent], i)
		}
	}
	out := make([]time.Duration, len(spans))
	for i, s := range spans {
		ks := kids[i]
		sort.Slice(ks, func(a, b int) bool { return spans[ks[a]].start < spans[ks[b]].start })
		var covered time.Duration
		frontier := s.start
		for _, k := range ks {
			lo, hi := spans[k].start, spans[k].end
			if lo < frontier {
				lo = frontier
			}
			if hi > s.end {
				hi = s.end
			}
			if hi > lo {
				covered += hi - lo
				frontier = hi
			}
		}
		out[i] = (s.end - s.start) - covered
	}
	return out
}

// totals sums span durations and self times by span name.
func (r *recorder) totals() (dur, self map[string]time.Duration, count map[string]int) {
	dur = map[string]time.Duration{}
	self = map[string]time.Duration{}
	count = map[string]int{}
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	st := selfTimes(r.spans)
	for i, s := range r.spans {
		if s.end < 0 {
			continue
		}
		dur[s.name] += s.end - s.start
		self[s.name] += st[i]
		count[s.name]++
	}
	return
}

// chromeEvent is one complete ("X") event of the Chrome trace-event format,
// which Perfetto and chrome://tracing load.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`  // microseconds
	Dur  float64        `json:"dur"` // microseconds
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// lanes assigns every span a display lane ("tid"): root spans that overlap
// in time get different lanes (greedy interval colouring in start order),
// and a child shares its root's lane, so complete events nest the way the
// viewers require.
func lanes(spans []span) []int {
	lane := make([]int, len(spans))
	var roots []int
	for i, s := range spans {
		if s.parent < 0 {
			roots = append(roots, i)
		}
	}
	sort.Slice(roots, func(a, b int) bool { return spans[roots[a]].start < spans[roots[b]].start })
	var busyUntil []time.Duration
	for _, i := range roots {
		placed := false
		for l, until := range busyUntil {
			if until <= spans[i].start {
				lane[i], busyUntil[l], placed = l, spans[i].end, true
				break
			}
		}
		if !placed {
			lane[i] = len(busyUntil)
			busyUntil = append(busyUntil, spans[i].end)
		}
	}
	// Parents are recorded before their children, so one forward pass
	// propagates lanes down the tree.
	for i, s := range spans {
		if s.parent >= 0 {
			lane[i] = lane[s.parent]
		}
	}
	return lane
}

// writeChrome writes the finished spans to path as
// {"traceEvents": [...]}.
func (r *recorder) writeChrome(path, workload string) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	lane := lanes(r.spans)
	doc := struct {
		DisplayTimeUnit string        `json:"displayTimeUnit"`
		TraceEvents     []chromeEvent `json:"traceEvents"`
	}{DisplayTimeUnit: "ms", TraceEvents: []chromeEvent{}}
	for i, s := range r.spans {
		if s.end < 0 {
			continue
		}
		doc.TraceEvents = append(doc.TraceEvents, chromeEvent{
			Name: s.name, Cat: workload, Ph: "X",
			Ts: us(s.start), Dur: us(s.end - s.start),
			Pid: 1, Tid: lane[i],
			Args: map[string]any{"op": s.op, "span": i, "parent": s.parent},
		})
	}
	out, err := json.Marshal(doc)
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	if err := os.WriteFile(path, out, 0o644); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	return nil
}
