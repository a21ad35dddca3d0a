package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary. Spans of one request or
// probe share a trace identifier; Parent is the span that caused this one
// (0 for a root).
type span struct {
	ID, Parent, Trace int64
	Name              string
	Start, End        time.Duration // since the recorder's epoch
}

// recorder keeps spans in memory until the run ends. A nil *recorder is a
// disabled recorder: every method is a no-op, so the untraced end-to-end
// run pays only a nil check per boundary.
type recorder struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// active is an open span.
type active struct {
	r  *recorder
	i  int
	id int64
}

// start opens a span named name under parent (the zero active for a root).
func (r *recorder) start(name string, parent active, trace int64) active {
	if r == nil {
		return active{}
	}
	now := time.Since(r.epoch)
	r.mu.Lock()
	defer r.mu.Unlock()
	id := int64(len(r.spans) + 1)
	r.spans = append(r.spans, span{ID: id, Parent: parent.id, Trace: trace, Name: name, Start: now, End: -1})
	return active{r: r, i: len(r.spans) - 1, id: id}
}

// end closes the span and returns its duration.
func (a active) end() time.Duration {
	if a.r == nil {
		return 0
	}
	now := time.Since(a.r.epoch)
	a.r.mu.Lock()
	defer a.r.mu.Unlock()
	s := &a.r.spans[a.i]
	s.End = now
	return s.End - s.Start
}

// snapshot returns a copy of the closed spans.
func (r *recorder) snapshot() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]span, 0, len(r.spans))
	for _, s := range r.spans {
		if s.End >= 0 {
			out = append(out, s)
		}
	}
	return out
}

// selfTimes returns each span's self time, keyed by span ID: its duration
// minus the part of its interval that its children cover. Children may
// overlap each other (concurrent clients), so the covered part is the
// length of the union of the children's intervals, clipped to the parent.
func selfTimes(spans []span) map[int64]time.Duration {
	kids := map[int64][][2]time.Duration{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]time.Duration{s.Start, s.End})
		}
	}
	out := make(map[int64]time.Duration, len(spans))
	for _, s := range spans {
		out[s.ID] = (s.End - s.Start) - covered(s.Start, s.End, kids[s.ID])
	}
	return out
}

// covered is the length of the union of ivs clipped to [lo, hi].
func covered(lo, hi time.Duration, ivs [][2]time.Duration) time.Duration {
	clipped := make([][2]time.Duration, 0, len(ivs))
	for _, iv := range ivs {
		a, b := max(iv[0], lo), min(iv[1], hi)
		if b > a {
			clipped = append(clipped, [2]time.Duration{a, b})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i][0] < clipped[j][0] })
	var total time.Duration
	curA, curB := time.Duration(0), time.Duration(-1)
	for _, iv := range clipped {
		if iv[0] > curB {
			if curB > curA {
				total += curB - curA
			}
			curA, curB = iv[0], iv[1]
		} else if iv[1] > curB {
			curB = iv[1]
		}
	}
	if curB > curA {
		total += curB - curA
	}
	return total
}

// spanSummary aggregates spans by name.
type spanSummary struct {
	Name  string
	Count int
	Total time.Duration
	Self  time.Duration
}

func summarize(spans []span) []spanSummary {
	self := selfTimes(spans)
	byName := map[string]*spanSummary{}
	for _, s := range spans {
		a := byName[s.Name]
		if a == nil {
			a = &spanSummary{Name: s.Name}
			byName[s.Name] = a
		}
		a.Count++
		a.Total += s.End - s.Start
		a.Self += self[s.ID]
	}
	out := make([]spanSummary, 0, len(byName))
	for _, a := range byName {
		out = append(out, *a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Self > out[j].Self })
	return out
}

func printSummary(w io.Writer, spans []span) {
	fmt.Fprintf(w, "%-44s %8s %12s %12s\n", "span", "count", "total_ms", "self_ms")
	for _, a := range summarize(spans) {
		fmt.Fprintf(w, "%-44s %8d %12.3f %12.3f\n", a.Name, a.Count,
			float64(a.Total)/1e6, float64(a.Self)/1e6)
	}
}

// writeSpans writes the spans as Chrome trace_event JSON (complete "X"
// events, one thread row per trace identifier), loadable in Perfetto or
// chrome://tracing. Each event's args carry its span and parent IDs and its
// self time.
func writeSpans(path string, spans []span) error {
	self := selfTimes(spans)
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int64          `json:"tid"`
		Args map[string]any `json:"args"`
	}
	evs := make([]event, len(spans))
	for i, s := range spans {
		evs[i] = event{Name: s.Name, Ph: "X", Pid: 1, Tid: s.Trace,
			Ts:  float64(s.Start) / 1e3,
			Dur: float64(s.End-s.Start) / 1e3,
			Args: map[string]any{"id": s.ID, "parent": s.Parent,
				"self_us": float64(self[s.ID]) / 1e3}}
	}
	data, err := json.Marshal(map[string]any{"traceEvents": evs, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
