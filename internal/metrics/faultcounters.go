package metrics

import "fmt"

// FaultCounters tallies fault-subsystem events across a run. Each field
// counts one rung of the recovery ladder:
//
//	Injected   faults realized into the network (fault-model size)
//	Detected   detection firings: phase-timeout guard, payload integrity
//	           check, or READY/START watchdog
//	Retried    bounded re-executions (transient corruption, sync drop)
//	Recompiled plans recompiled to route around hard link failures
//	Degraded   completions in degraded mode: a slow run accepted as-is or
//	           a fallback to the host-relay baseline
//
// The zero value is ready to use.
type FaultCounters struct {
	Injected   uint64 `json:"injected"`
	Detected   uint64 `json:"detected"`
	Retried    uint64 `json:"retried"`
	Recompiled uint64 `json:"recompiled"`
	Degraded   uint64 `json:"degraded"`
}

// Merge adds another counter set into f.
func (f *FaultCounters) Merge(o FaultCounters) {
	f.Injected += o.Injected
	f.Detected += o.Detected
	f.Retried += o.Retried
	f.Recompiled += o.Recompiled
	f.Degraded += o.Degraded
}

// Sub returns f - o component-wise; used to attribute a cumulative backend
// counter snapshot to one workload run. Underflow panics: counters are
// monotone, so a negative delta always indicates snapshots taken out of
// order.
func (f FaultCounters) Sub(o FaultCounters) FaultCounters {
	if o.Injected > f.Injected || o.Detected > f.Detected || o.Retried > f.Retried ||
		o.Recompiled > f.Recompiled || o.Degraded > f.Degraded {
		panic(fmt.Sprintf("metrics: fault counter underflow: %v - %v", f, o))
	}
	return FaultCounters{
		Injected:   f.Injected - o.Injected,
		Detected:   f.Detected - o.Detected,
		Retried:    f.Retried - o.Retried,
		Recompiled: f.Recompiled - o.Recompiled,
		Degraded:   f.Degraded - o.Degraded,
	}
}

// String renders the counters in ladder order.
func (f FaultCounters) String() string {
	return fmt.Sprintf("{injected:%d detected:%d retried:%d recompiled:%d degraded:%d}",
		f.Injected, f.Detected, f.Retried, f.Recompiled, f.Degraded)
}
