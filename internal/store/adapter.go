package store

import "pimnet/internal/core"

// PlanAdapter bridges the plan namespace to core.PlanCache's persistence
// hook: plans are serialized through the self-verifying core codec and
// stored under their PlanKey digest. Persistence is strictly best-effort in
// both directions — a load failure is a miss (the cache recompiles), a store
// failure is dropped (the blob layer and the codec both reject rather than
// serve damage) — so attaching a store can only ever skip work, never change
// what a plan lookup returns.
type PlanAdapter struct {
	S *Store
}

var _ core.PlanStore = PlanAdapter{}

// LoadPlan implements read-through: fetch, decode, verify the embedded
// digest and the schedule. An undecodable payload inside a valid blob is
// codec-level corruption — rejected and counted like a bit flip, never
// served.
func (a PlanAdapter) LoadPlan(k core.PlanKey) (*core.Plan, bool) {
	key := k.Digest()
	payload, ok := a.S.Get(NSPlans, key)
	if !ok {
		return nil, false
	}
	p, err := core.DecodePlan(payload)
	if err != nil {
		a.S.Reject(NSPlans, key)
		return nil, false
	}
	return p, true
}

// StorePlan implements write-behind on cache fill.
func (a PlanAdapter) StorePlan(k core.PlanKey, p *core.Plan) {
	payload, err := core.EncodePlan(p)
	if err != nil {
		return
	}
	a.S.Put(NSPlans, k.Digest(), payload)
}
