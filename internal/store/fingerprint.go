package store

import (
	"crypto/sha256"
	"fmt"
	"io"

	"pimnet/internal/collective"
	"pimnet/internal/config"
	"pimnet/internal/core"
	"pimnet/internal/version"
)

// fingerprintFormat names the store's on-disk layout and blob framing; bump
// it when either changes so old directories purge instead of misparse.
// Format 3 stores results only; format 2 also kept compiled plans.
const fingerprintFormat = "pimnet-store-format-3"

// probe is one compilation point whose plan digest feeds the fingerprint.
// Plans are not stored, but every stored result was timed on a compiled
// schedule, so a compiler change must invalidate the results. The set
// mirrors the golden-trace corpus: the four scaling patterns at the two
// cheap population sizes the corpus pins, enough to observe every compiler
// path without a paper-scale compile at daemon boot.
var probes = []struct {
	pattern collective.Pattern
	dpus    int
}{
	{collective.ReduceScatter, 64}, {collective.AllGather, 64},
	{collective.AllReduce, 64}, {collective.AllToAll, 64},
	{collective.ReduceScatter, 256}, {collective.AllGather, 256},
	{collective.AllReduce, 256}, {collective.AllToAll, 256},
}

// Fingerprint derives the version stamp persisted entries are valid under:
// a digest over the store format, the build identity (internal/version), and
// the plan digests of a fixed probe set — the same digests the
// golden-trace corpus pins. Any code change that alters compiled schedules,
// and with them the results timed on those schedules, changes a probe digest; any rebuild changes the build identity; either way
// a store stamped by the old world is purged on Open rather than trusted.
// Within one binary the result is deterministic, which is what makes warm
// restarts warm.
func Fingerprint() (string, error) {
	h := sha256.New()
	io.WriteString(h, fingerprintFormat+"\n")
	io.WriteString(h, version.String()+"\n")
	for _, p := range probes {
		sys, err := config.Default().WithDPUs(p.dpus)
		if err != nil {
			return "", fmt.Errorf("store: fingerprint probe %v/%d: %w", p.pattern, p.dpus, err)
		}
		n, err := core.NewNetwork(sys)
		if err != nil {
			return "", fmt.Errorf("store: fingerprint probe %v/%d: %w", p.pattern, p.dpus, err)
		}
		req := collective.Request{
			Pattern: p.pattern, Op: collective.Sum,
			BytesPerNode: 32 << 10, ElemSize: 4, Nodes: p.dpus,
		}
		plan, err := core.PlanFor(n, req)
		if err != nil {
			return "", fmt.Errorf("store: fingerprint probe %v/%d: %w", p.pattern, p.dpus, err)
		}
		io.WriteString(h, plan.Digest()+"\n")
	}
	return fmt.Sprintf("%x", h.Sum(nil)), nil
}
