package pimnet

import (
	"fmt"
	"strings"

	"pimnet/internal/baselines"
	"pimnet/internal/core"
	"pimnet/internal/cxlpim"
	"pimnet/internal/host"
	"pimnet/internal/trace"
)

// Tracing types re-exported from internal/trace. A Tracer receives the typed
// event stream a traced run emits (phase spans, per-link occupancy, sync and
// host stages, recovery-ladder events); see DESIGN.md §10 for the taxonomy
// and the nil-tracer zero-overhead contract.
type (
	// Tracer consumes trace events. Implementations must not retain the
	// event past Emit.
	Tracer = trace.Tracer
	// TraceEvent is one typed observation from a traced run.
	TraceEvent = trace.Event
	// TraceEventKind discriminates TraceEvent payloads.
	TraceEventKind = trace.Kind
	// TraceLevel selects how much a traced component emits.
	TraceLevel = trace.Level
	// TraceSummary is the link-utilization aggregate a trace.Util builds.
	TraceSummary = trace.Summary
	// PlanCache shares compiled plans across PIMnet backends.
	PlanCache = core.PlanCache
)

// Trace levels.
const (
	// TraceLevelPhase emits phase, sync, memory, host, and recovery events.
	TraceLevelPhase = trace.LevelPhase
	// TraceLevelLink additionally emits one event per link reservation —
	// the full occupancy timeline Perfetto renders per link.
	TraceLevelLink = trace.LevelLink
)

// NewTraceRecorder returns an in-memory ring-buffer tracer keeping the most
// recent capacity events (capacity <= 0 selects a default).
func NewTraceRecorder(capacity int) *trace.Recorder { return trace.NewRecorder(capacity) }

// NewChromeTrace returns a tracer that renders the event stream as Chrome
// trace_event JSON (load the file at https://ui.perfetto.dev).
func NewChromeTrace() *trace.Chrome { return trace.NewChrome() }

// NewLinkUtil returns a streaming link-utilization aggregator; attach it
// with WithTracer (alone or inside MultiTracer) and read its Summary, or let
// machine.Run copy the summary into the Report.
func NewLinkUtil() *trace.Util { return trace.NewUtil() }

// MultiTracer fans one event stream out to several tracers (nils dropped).
func MultiTracer(ts ...Tracer) Tracer { return trace.Multi(ts...) }

// ParseTraceLevel parses "phase" or "link".
func ParseTraceLevel(s string) (TraceLevel, error) { return trace.ParseLevel(s) }

// NewPlanCache returns an empty shared compiled-plan cache.
func NewPlanCache() *PlanCache { return core.NewPlanCache() }

// buildConfig is the merged result of applying a construction option list.
type buildConfig struct {
	tracer   Tracer
	level    TraceLevel
	faults   *FaultSpec
	fallback Backend
	// fallbackSet distinguishes WithFallback(nil) — "no fallback, make
	// unrecoverable faults hard errors" — from the option being absent,
	// which defaults the fallback to the host-relay baseline.
	fallbackSet bool
	cache       *PlanCache
}

// Option configures backend construction (NewPIMnet, NewBackend, Backends).
// Options that do not apply to the backend kind being built are ignored, so
// one option list can configure a whole comparison set.
type Option func(*buildConfig)

func applyOptions(opts []Option) buildConfig {
	cfg := buildConfig{level: TraceLevelLink}
	for _, opt := range opts {
		if opt != nil {
			opt(&cfg)
		}
	}
	return cfg
}

// WithTracer attaches a tracer to the backend: the PIMnet executor emits
// phase/sync/mem spans plus per-link occupancy (at the default
// TraceLevelLink), the recovery ladder emits detection and recovery events,
// and the host-relay and prior-work backends emit their stage timelines.
// A nil tracer leaves the backend on its zero-allocation untraced path.
func WithTracer(t Tracer) Option { return func(c *buildConfig) { c.tracer = t } }

// WithTraceLevel selects the emission level for WithTracer (default
// TraceLevelLink).
func WithTraceLevel(l TraceLevel) Option { return func(c *buildConfig) { c.level = l } }

// WithFaults arms the PIMnet backend with a deterministic fault model
// realized from spec, enabling the detection/retry/recompilation recovery
// ladder. Unless WithFallback overrides it, unrecoverable faults degrade to
// the host-relay baseline. Ignored by the other backend kinds.
func WithFaults(spec FaultSpec) Option {
	return func(c *buildConfig) { s := spec; c.faults = &s }
}

// WithFallback sets the backend consulted when fault recovery cannot
// reconnect the topology (only meaningful together with WithFaults).
// Passing nil makes unrecoverable faults hard errors.
func WithFallback(be Backend) Option {
	return func(c *buildConfig) { c.fallback = be; c.fallbackSet = true }
}

// WithPlanCache shares a compiled-plan cache with the plan-compiling
// backends — PIMnet and CXL-PIM (typically across the workers of a parallel
// sweep). Ignored by backends that do not compile plans.
func WithPlanCache(cache *PlanCache) Option {
	return func(c *buildConfig) { c.cache = cache }
}

// BackendKind identifies one of the six comparison backends.
type BackendKind int

// The paper's five backends in figure order (B, S, N, D, P), plus the
// CXL-attached PIM crossover model (C) appended after them.
const (
	Baseline      BackendKind = iota // host-relayed, measured overheads
	IdealSoftware                    // zero-overhead software upper bound
	NDPBridge                        // hierarchical forwarding, host-relayed inter-rank
	DIMMLink                         // inter-DIMM bridges, buffer-chip collectives
	PIMnet                           // the paper's interconnect
	CXLPIM                           // CXL-attached PIM: capacity vs link latency
)

// String returns the canonical backend name used in reports and figures.
func (k BackendKind) String() string {
	switch k {
	case Baseline:
		return "Baseline"
	case IdealSoftware:
		return "Software(Ideal)"
	case NDPBridge:
		return "NDPBridge"
	case DIMMLink:
		return "DIMM-Link"
	case PIMnet:
		return "PIMnet"
	case CXLPIM:
		return "CXL-PIM"
	default:
		return fmt.Sprintf("BackendKind(%d)", int(k))
	}
}

// BackendKinds returns all six kinds in figure order (B, S, N, D, P, C).
func BackendKinds() []BackendKind {
	return []BackendKind{Baseline, IdealSoftware, NDPBridge, DIMMLink, PIMnet, CXLPIM}
}

// ParseBackendKind resolves a CLI-style backend name: the canonical names
// (case-insensitive) and the short aliases baseline, ideal, ndpbridge,
// dimmlink, pimnet, cxlpim.
func ParseBackendKind(s string) (BackendKind, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "baseline", "b":
		return Baseline, nil
	case "ideal", "software(ideal)", "software-ideal", "s":
		return IdealSoftware, nil
	case "ndpbridge", "n":
		return NDPBridge, nil
	case "dimmlink", "dimm-link", "d":
		return DIMMLink, nil
	case "pimnet", "p":
		return PIMnet, nil
	case "cxlpim", "cxl-pim", "cxl", "c":
		return CXLPIM, nil
	}
	return 0, fmt.Errorf("pimnet: unknown backend %q (want baseline, ideal, ndpbridge, dimmlink, pimnet, or cxlpim)", s)
}

// NewBackend builds one comparison backend by kind. All construction options
// are accepted uniformly; those that do not apply to the kind are ignored
// (WithFaults only arms the PIMnet backend; WithPlanCache configures the
// plan-compiling backends, PIMnet and CXL-PIM).
func NewBackend(kind BackendKind, sys System, opts ...Option) (Backend, error) {
	cfg := applyOptions(opts)
	switch kind {
	case Baseline:
		p, err := host.NewBaseline(sys)
		if err != nil {
			return nil, err
		}
		p.SetTracer(cfg.tracer)
		return p, nil
	case IdealSoftware:
		p, err := host.NewIdeal(sys)
		if err != nil {
			return nil, err
		}
		p.SetTracer(cfg.tracer)
		return p, nil
	case NDPBridge:
		nb, err := baselines.NewNDPBridge(sys)
		if err != nil {
			return nil, err
		}
		nb.SetTracer(cfg.tracer)
		return nb, nil
	case DIMMLink:
		d, err := baselines.NewDIMMLink(sys)
		if err != nil {
			return nil, err
		}
		d.SetTracer(cfg.tracer)
		return d, nil
	case PIMnet:
		return newPIMnetWith(sys, cfg)
	case CXLPIM:
		x, err := cxlpim.New(sys)
		if err != nil {
			return nil, err
		}
		if cfg.cache != nil {
			x.WithPlanCache(cfg.cache)
		}
		if cfg.tracer != nil {
			x.SetTracer(cfg.tracer, cfg.level)
		}
		return x, nil
	default:
		return nil, fmt.Errorf("pimnet: unknown backend kind %v", kind)
	}
}

// newPIMnetWith assembles the PIMnet backend from a merged option set; it is
// the single construction path behind NewPIMnet, NewBackend(PIMnet, ...),
// and the deprecated NewFaultyPIMnet.
func newPIMnetWith(sys System, cfg buildConfig) (*core.PIMnet, error) {
	p, err := core.NewPIMnet(sys)
	if err != nil {
		return nil, err
	}
	if cfg.cache != nil {
		p.WithPlanCache(cfg.cache)
	}
	if cfg.tracer != nil {
		p.SetTracer(cfg.tracer, cfg.level)
	}
	if cfg.faults != nil {
		m, err := NewFaultModel(*cfg.faults, sys)
		if err != nil {
			return nil, err
		}
		fb := cfg.fallback
		if !cfg.fallbackSet {
			b, err := host.NewBaseline(sys)
			if err != nil {
				return nil, err
			}
			fb = b
		}
		if err := p.EnableFaults(m, fb); err != nil {
			return nil, err
		}
	}
	return p, nil
}
