// Package metrics provides execution-time breakdown accounting. Every
// backend in pimnet attributes simulated time to one of a fixed set of
// components so that the paper's stacked-bar figures (Fig. 10 execution
// breakdown, Fig. 11 communication breakdown) can be regenerated directly.
package metrics

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"pimnet/internal/sim"
)

// Component identifies where simulated time was spent.
type Component int

// The component set covers both the paper's application breakdown
// (compute vs. communication, Fig. 10) and its PIM-communication breakdown
// (inter-bank / inter-chip / inter-rank / Sync / Mem, Fig. 11), plus the
// host-path costs that only the software implementations incur.
const (
	Compute     Component = iota // DPU kernel execution
	InterBank                    // PIMnet tier 1 / bank-level transfers
	InterChip                    // PIMnet tier 2 / chip-level transfers
	InterRank                    // PIMnet tier 3 / rank-level (DDR bus) transfers
	HostXfer                     // CPU<->PIM data movement over the memory channel
	HostCompute                  // host-side reduction / reshaping work
	Launch                       // driver and kernel-launch overhead
	Sync                         // READY/START synchronization
	Mem                          // MRAM<->WRAM DMA staging (WRAM overflow)
	Recovery                     // fault handling: timeouts, retries, recompilation
	CXLLink                      // CXL fabric traversals (CXL-PIM backend only)
	numComponents
)

var componentNames = [numComponents]string{
	"compute", "inter-bank", "inter-chip", "inter-rank",
	"host-xfer", "host-compute", "launch", "sync", "mem", "recovery",
	"cxl-link",
}

// String returns the component's short name.
func (c Component) String() string {
	if c < 0 || c >= numComponents {
		return fmt.Sprintf("component(%d)", int(c))
	}
	return componentNames[c]
}

// Components lists every component in canonical order.
func Components() []Component {
	out := make([]Component, numComponents)
	for i := range out {
		out[i] = Component(i)
	}
	return out
}

// Breakdown accumulates time per component. The zero value is ready to use.
type Breakdown struct {
	t [numComponents]sim.Time
}

// Add charges d to component c. Negative charges panic: time cannot be
// refunded, and a negative duration always indicates an accounting bug.
func (b *Breakdown) Add(c Component, d sim.Time) {
	if d < 0 {
		panic(fmt.Sprintf("metrics: negative charge %v to %v", d, c))
	}
	if c < 0 || c >= numComponents {
		panic(fmt.Sprintf("metrics: unknown component %d", int(c)))
	}
	b.t[c] += d
}

// Get returns the time charged to c.
func (b *Breakdown) Get(c Component) sim.Time {
	if c < 0 || c >= numComponents {
		return 0
	}
	return b.t[c]
}

// Total returns the sum over all components.
func (b *Breakdown) Total() sim.Time {
	var s sim.Time
	for _, v := range b.t {
		s += v
	}
	return s
}

// CommTotal returns the total communication time (everything but Compute).
func (b *Breakdown) CommTotal() sim.Time { return b.Total() - b.t[Compute] }

// Merge adds another breakdown into b.
func (b *Breakdown) Merge(other Breakdown) {
	for i := range b.t {
		b.t[i] += other.t[i]
	}
}

// Scale multiplies every component by k (k >= 0); used when a measured
// iteration is replicated analytically.
func (b *Breakdown) Scale(k int64) {
	if k < 0 {
		panic("metrics: negative scale")
	}
	for i := range b.t {
		b.t[i] *= sim.Time(k)
	}
}

// Fraction returns component c's share of the total (0 when empty).
func (b *Breakdown) Fraction(c Component) float64 {
	tot := b.Total()
	if tot == 0 {
		return 0
	}
	return float64(b.Get(c)) / float64(tot)
}

// Reset zeroes the breakdown.
func (b *Breakdown) Reset() { b.t = [numComponents]sim.Time{} }

// Map returns the nonzero components keyed by their canonical names, in
// picoseconds. This is the JSON/wire form of a breakdown.
func (b Breakdown) Map() map[string]sim.Time {
	out := make(map[string]sim.Time)
	for i, v := range b.t {
		if v > 0 {
			out[componentNames[i]] = v
		}
	}
	return out
}

// MarshalJSON encodes the breakdown as its component map, e.g.
// {"inter-bank":1200,"sync":300}. encoding/json sorts map keys, so equal
// breakdowns always encode to identical bytes — the serving tier's
// bit-identical-response contract depends on this.
func (b Breakdown) MarshalJSON() ([]byte, error) {
	return json.Marshal(b.Map())
}

// UnmarshalJSON decodes the component-map form produced by MarshalJSON.
// Unknown component names are an error (they indicate a schema mismatch, not
// a forward-compatible extension: the component set is the paper's fixed
// attribution taxonomy).
func (b *Breakdown) UnmarshalJSON(data []byte) error {
	var m map[string]sim.Time
	if err := json.Unmarshal(data, &m); err != nil {
		return err
	}
	b.Reset()
	for name, v := range m {
		if v < 0 {
			return fmt.Errorf("metrics: negative time %d for component %q", v, name)
		}
		found := false
		for i, n := range componentNames {
			if n == name {
				b.Add(Component(i), v)
				found = true
				break
			}
		}
		if !found {
			return fmt.Errorf("metrics: unknown breakdown component %q", name)
		}
	}
	return nil
}

// String renders the nonzero components, largest first.
func (b *Breakdown) String() string {
	type kv struct {
		c Component
		v sim.Time
	}
	var parts []kv
	for i, v := range b.t {
		if v > 0 {
			parts = append(parts, kv{Component(i), v})
		}
	}
	sort.Slice(parts, func(i, j int) bool {
		if parts[i].v != parts[j].v {
			return parts[i].v > parts[j].v
		}
		return parts[i].c < parts[j].c
	})
	var sb strings.Builder
	sb.WriteString("{")
	for i, p := range parts {
		if i > 0 {
			sb.WriteString(" ")
		}
		fmt.Fprintf(&sb, "%v:%v", p.c, p.v)
	}
	sb.WriteString("}")
	return sb.String()
}
