// Package trace is pimnet's structured execution-tracing layer. Timing
// models emit typed events — phase spans, per-link occupancy windows,
// READY/START synchronization, recovery-ladder transitions — to a Tracer;
// concrete tracers record them (Recorder), export them as Chrome
// trace_event JSON loadable in Perfetto (Chrome), or aggregate them into
// per-tier link-utilization statistics (Util).
//
// The package is a leaf: it imports nothing from the simulator, so every
// layer (core, host, baselines, machine) can emit into it without import
// cycles. Times are raw int64 picoseconds — the same unit as
// sim.Time — converted at the emission site by a plain integer cast.
//
// The nil-tracer contract: tracing is opt-in, and every emission site
// guards with a nil check, so a disabled tracer costs one predictable
// branch and zero allocations on the hot paths gated by BENCH_baseline.json.
// Event is a flat value struct (its strings are pre-allocated link and
// phase names), so emitting through the interface never boxes or escapes.
package trace

import "fmt"

// Kind discriminates the event taxonomy.
type Kind uint8

// The event taxonomy. Span kinds carry [Start, End]; point kinds carry
// only Start. See DESIGN.md §10 for which layer emits each kind.
const (
	// KindPhaseStart marks the release instant of a compiled plan phase
	// (point event; the matching KindPhaseEnd carries the full span).
	KindPhaseStart Kind = iota
	// KindPhaseEnd closes a plan phase: Start..End is the phase's
	// wall-clock span, Tier its network tier, Name its compiled name.
	KindPhaseEnd
	// KindLinkBusy is one transfer's serialization window on a link:
	// Start..End is the time the wire is occupied (propagation excluded),
	// Link the link's diagnostic name, Bytes the volume, From/To the
	// endpoint coordinates where the topology defines them (-1 otherwise),
	// Seq the lock-step index within the phase.
	KindLinkBusy
	// KindSyncTree is the READY/START synchronization-tree traversal span.
	KindSyncTree
	// KindMemStage is the MRAM<->WRAM DMA staging span (WRAM overflow).
	KindMemStage
	// KindHostStage is one stage of a host-relayed or buffer-chip
	// collective (launch, gather-to-host, reduce, scatter, forward...);
	// Name identifies the stage.
	KindHostStage
	// KindFaultDetected marks the watchdog or integrity check flagging a
	// failure; Name describes the detection.
	KindFaultDetected
	// KindRetry is a bounded-retry backoff span of the recovery ladder.
	KindRetry
	// KindReroute is a host-side recompilation span: the schedule was
	// rebuilt around hard faults and re-uploaded.
	KindReroute
	// KindFallback marks the ladder degrading to the host-relay backend.
	KindFallback
	numKinds
)

var kindNames = [numKinds]string{
	"phase-start", "phase-end", "link-busy", "sync-tree", "mem-stage",
	"host-stage", "fault-detected", "retry", "reroute", "fallback",
}

// String returns the kind's short name.
func (k Kind) String() string {
	if k >= numKinds {
		return fmt.Sprintf("kind(%d)", int(k))
	}
	return kindNames[k]
}

// Span reports whether the kind carries a [Start, End] interval (as
// opposed to a point instant).
func (k Kind) Span() bool {
	switch k {
	case KindPhaseEnd, KindLinkBusy, KindSyncTree, KindMemStage,
		KindHostStage, KindRetry, KindReroute:
		return true
	default:
		return false
	}
}

// Tier identifies the network tier an event belongs to. The numbering
// matches core.Tier so conversion is a cast; TierNone marks events that
// are not tied to a PIMnet tier (host stages, engine steps).
type Tier int8

// Tiers in packaging order, plus the "no tier" sentinel.
const (
	TierNone Tier = iota - 1
	TierBank
	TierChip
	TierRank
)

// NumTiers is the number of real (non-sentinel) tiers.
const NumTiers = 3

// String returns the tier name.
func (t Tier) String() string {
	switch t {
	case TierBank:
		return "inter-bank"
	case TierChip:
		return "inter-chip"
	case TierRank:
		return "inter-rank"
	case TierNone:
		return "none"
	default:
		return fmt.Sprintf("tier(%d)", int(t))
	}
}

// Event is one trace record. It is a flat value type: emitting it copies
// a few words (the string fields alias pre-allocated names), so a tracer
// call allocates nothing unless the tracer itself retains state.
type Event struct {
	Kind Kind
	Tier Tier
	// Start and End are picosecond instants on the simulated timeline
	// (the same unit as sim.Time). Point events carry End == Start.
	Start, End int64
	// Link is the occupied link's diagnostic name (KindLinkBusy only).
	Link string
	// Name labels the phase, stage, or detection detail.
	Name string
	// From and To are endpoint coordinates where the topology defines
	// them (ring bank indices, chip indices); -1 otherwise.
	From, To int32
	// Bytes is the transferred volume (KindLinkBusy, KindHostStage).
	Bytes int64
	// Seq is a kind-specific ordinal: the lock-step index of a transfer,
	// the engine's schedule sequence, or a retry attempt number.
	Seq int64
}

// Duration returns End - Start.
func (e Event) Duration() int64 { return e.End - e.Start }

// Tracer receives trace events. Implementations must not mutate or retain
// the event beyond Emit (copying it is fine — it is a value). Tracers are
// used from a single simulation goroutine; they need not be safe for
// concurrent use unless documented otherwise.
type Tracer interface {
	Emit(ev Event)
}

// Level selects how much the instrumented layers emit. It gates the
// emission site, not the tracer: below LevelLink the executor never
// constructs per-transfer events at all.
type Level uint8

const (
	// LevelPhase emits phase, synchronization, staging, host-stage, and
	// recovery-ladder events.
	LevelPhase Level = iota
	// LevelLink additionally emits one KindLinkBusy per scheduled
	// transfer — the finest granularity, one event per link reservation.
	LevelLink
)

// String returns the level's flag spelling.
func (l Level) String() string {
	switch l {
	case LevelPhase:
		return "phase"
	case LevelLink:
		return "link"
	default:
		return fmt.Sprintf("level(%d)", int(l))
	}
}

// ParseLevel parses the -trace-level flag syntax.
func ParseLevel(s string) (Level, error) {
	switch s {
	case "phase":
		return LevelPhase, nil
	case "link":
		return LevelLink, nil
	default:
		return 0, fmt.Errorf("trace: unknown level %q (want phase or link)", s)
	}
}

// multi fans one event out to several tracers.
type multi []Tracer

// Emit implements Tracer.
func (m multi) Emit(ev Event) {
	for _, t := range m {
		t.Emit(ev)
	}
}

// Multi combines tracers into one. Nil entries are dropped; a single
// survivor is returned unwrapped, and no survivors yield nil (tracing
// disabled).
func Multi(ts ...Tracer) Tracer {
	var out multi
	for _, t := range ts {
		if t != nil {
			out = append(out, t)
		}
	}
	switch len(out) {
	case 0:
		return nil
	case 1:
		return out[0]
	default:
		return out
	}
}

// FindUtil returns the first Util aggregator reachable from t (directly
// or inside a Multi), or nil. The machine layer uses it to surface
// utilization summaries in reports without a second plumbing path.
func FindUtil(t Tracer) *Util {
	switch v := t.(type) {
	case *Util:
		return v
	case multi:
		for _, child := range v {
			if u := FindUtil(child); u != nil {
				return u
			}
		}
	}
	return nil
}
