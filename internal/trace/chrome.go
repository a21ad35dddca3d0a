package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// Chrome collects events and exports them as Chrome trace_event JSON
// ("JSON Array Format" with the traceEvents envelope), loadable in
// Perfetto (ui.perfetto.dev) and chrome://tracing.
//
// Layout: one timeline track per link and one per network tier. Link
// occupancy windows render on their link's track; phase spans render on
// their tier's track; synchronization and DMA staging share a "control"
// track; host-relay stages a "host" track; recovery-ladder events a
// "recovery" track. Track identity is the tid, assigned in first-emission
// order, so the export is byte-deterministic for a deterministic run.
type Chrome struct {
	events []Event
}

// NewChrome returns an empty exporter.
func NewChrome() *Chrome { return &Chrome{} }

// Emit implements Tracer. KindPhaseStart points are absorbed (the
// matching KindPhaseEnd carries the full span; drawing both would
// double-report every phase).
func (c *Chrome) Emit(ev Event) {
	if ev.Kind == KindPhaseStart {
		return
	}
	c.events = append(c.events, ev)
}

// Len returns the number of exportable events collected.
func (c *Chrome) Len() int { return len(c.events) }

// chromeEvent is one trace_event record. Field order is fixed, so the
// marshalled output is stable.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  *float64       `json:"dur,omitempty"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// chromeEnvelope is the JSON Object Format wrapper.
type chromeEnvelope struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// track returns the timeline an event renders on.
func track(ev Event) string {
	switch ev.Kind {
	case KindLinkBusy:
		return ev.Link
	case KindPhaseEnd:
		return "tier " + ev.Tier.String()
	case KindSyncTree, KindMemStage:
		return "control"
	case KindHostStage:
		return "host"
	case KindFaultDetected, KindRetry, KindReroute, KindFallback:
		return "recovery"
	default:
		return "misc"
	}
}

// usec converts picoseconds to the format's microsecond unit.
func usec(ps int64) float64 { return float64(ps) / 1e6 }

// render converts one event to its trace_event record.
func render(ev Event, tid int) chromeEvent {
	name := ev.Name
	if name == "" {
		name = ev.Kind.String()
	}
	out := chromeEvent{Name: name, Cat: ev.Kind.String(), TS: usec(ev.Start), PID: 1, TID: tid}
	if ev.Kind.Span() {
		out.Ph = "X"
		d := usec(ev.End - ev.Start)
		out.Dur = &d
	} else {
		out.Ph = "i"
		out.Args = map[string]any{"s": "t"} // instant scope: thread
	}
	args := out.Args
	add := func(k string, v any) {
		if args == nil {
			args = map[string]any{}
		}
		args[k] = v
	}
	if ev.Bytes > 0 {
		add("bytes", ev.Bytes)
	}
	if ev.Tier != TierNone {
		add("tier", ev.Tier.String())
	}
	if ev.From >= 0 {
		add("from", ev.From)
	}
	if ev.To >= 0 {
		add("to", ev.To)
	}
	if ev.Kind == KindLinkBusy || ev.Kind == KindRetry {
		add("seq", ev.Seq)
	}
	out.Args = args
	return out
}

// WriteTo implements io.WriterTo: it serializes the collected events as
// indented trace_event JSON. The exporter stays usable afterwards.
func (c *Chrome) WriteTo(w io.Writer) (int64, error) {
	env := chromeEnvelope{DisplayTimeUnit: "ns", TraceEvents: []chromeEvent{}}
	tids := map[string]int{}
	var order []string
	for _, ev := range c.events {
		tr := track(ev)
		if _, ok := tids[tr]; !ok {
			tids[tr] = len(tids) + 1
			order = append(order, tr)
		}
	}
	// Metadata first: name every track so Perfetto labels the timelines.
	for _, tr := range order {
		env.TraceEvents = append(env.TraceEvents, chromeEvent{
			Name: "thread_name", Ph: "M", PID: 1, TID: tids[tr],
			Args: map[string]any{"name": tr},
		})
	}
	for _, ev := range c.events {
		env.TraceEvents = append(env.TraceEvents, render(ev, tids[track(ev)]))
	}
	data, err := json.MarshalIndent(env, "", " ")
	if err != nil {
		return 0, fmt.Errorf("trace: marshal chrome trace: %w", err)
	}
	data = append(data, '\n')
	n, err := w.Write(data)
	return int64(n), err
}

// WriteFile exports the trace to path.
func (c *Chrome) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	if _, err := c.WriteTo(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ValidateChrome checks that data is structurally valid trace_event JSON:
// the envelope parses, every record has a name and a legal phase type,
// spans have non-negative durations, instants and spans carry sane
// timestamps, and every non-metadata record's track was named by a
// preceding metadata record. It is the contract `make trace-smoke`
// enforces on CLI output.
func ValidateChrome(data []byte) error {
	var env chromeEnvelope
	if err := json.Unmarshal(data, &env); err != nil {
		return fmt.Errorf("trace: chrome trace does not parse: %w", err)
	}
	if len(env.TraceEvents) == 0 {
		return fmt.Errorf("trace: chrome trace has no events")
	}
	named := map[int]bool{}
	for i, ev := range env.TraceEvents {
		if ev.Name == "" {
			return fmt.Errorf("trace: event %d has no name", i)
		}
		if ev.PID <= 0 || ev.TID <= 0 {
			return fmt.Errorf("trace: event %d (%s) has pid %d tid %d, want positive", i, ev.Name, ev.PID, ev.TID)
		}
		switch ev.Ph {
		case "M":
			named[ev.TID] = true
		case "X":
			if ev.TS < 0 {
				return fmt.Errorf("trace: event %d (%s) has negative ts %v", i, ev.Name, ev.TS)
			}
			if ev.Dur == nil || *ev.Dur < 0 {
				return fmt.Errorf("trace: span %d (%s) has missing or negative dur", i, ev.Name)
			}
			if !named[ev.TID] {
				return fmt.Errorf("trace: event %d (%s) uses unnamed track tid %d", i, ev.Name, ev.TID)
			}
		case "i":
			if ev.TS < 0 {
				return fmt.Errorf("trace: event %d (%s) has negative ts %v", i, ev.Name, ev.TS)
			}
			if !named[ev.TID] {
				return fmt.Errorf("trace: event %d (%s) uses unnamed track tid %d", i, ev.Name, ev.TID)
			}
		default:
			return fmt.Errorf("trace: event %d (%s) has unsupported phase type %q", i, ev.Name, ev.Ph)
		}
	}
	return nil
}
