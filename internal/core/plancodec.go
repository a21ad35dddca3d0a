package core

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
)

// This file is the serialization boundary of the plan cache: the persistent
// store (internal/store) holds plans as bytes, and this codec is the only
// way across. The envelope embeds the plan's own digest so a decoded
// artifact proves it is the schedule that was encoded — a second,
// independent line of defense behind the store's blob-level checksum (the
// blob digest guards the bytes; the envelope digest guards the semantics,
// catching codec drift the store cannot see). Bytes read from disk are
// outside input, so a decoded plan is also verified before it is shared.

// planEnvelope is the persisted wire form of one plan.
type planEnvelope struct {
	// Digest is Plan.Digest() of the payload, re-derived and compared on
	// decode.
	Digest string `json:"digest"`
	Plan   *Plan  `json:"plan"`
}

// EncodePlan renders p as a self-verifying envelope. Plans contain only
// scalars and slices, so encoding is deterministic: encode -> decode ->
// encode is byte-identical (FuzzStoreRoundTrip locks this in from the store
// side).
func EncodePlan(p *Plan) ([]byte, error) {
	if p == nil {
		return nil, errors.New("core: cannot encode nil plan")
	}
	return json.Marshal(planEnvelope{Digest: p.Digest(), Plan: p})
}

// DecodePlan parses an envelope and verifies it: the payload must decode,
// carry a plan over a valid topology, and re-digest to the embedded digest;
// every link index must lie in that topology's link table, the schedule
// must pass CheckContention, and no transfer may be dead. It never panics
// on arbitrary bytes, and the plan it returns is bit-for-bit the schedule
// EncodePlan saw, verified and ready to share.
func DecodePlan(data []byte) (*Plan, error) {
	var env planEnvelope
	if err := json.Unmarshal(data, &env); err != nil {
		return nil, fmt.Errorf("core: plan envelope: %w", err)
	}
	p := env.Plan
	if p == nil {
		return nil, errors.New("core: plan envelope has no plan")
	}
	if t := p.Topo; !t.Valid() || float64(t.Ranks)*float64(t.Chips)*(float64(t.Banks)+2) >= math.MaxInt32 {
		return nil, fmt.Errorf("core: plan topology %v has no addressable link table", p.Topo)
	}
	if got := p.Digest(); got != env.Digest {
		return nil, fmt.Errorf("core: plan digest mismatch: envelope %.12s.., payload %.12s..", env.Digest, got)
	}
	if err := p.CheckContention(); err != nil {
		return nil, err
	}
	if err := p.checkHealthy(); err != nil {
		return nil, err
	}
	return p, nil
}
