package store

import (
	"testing"

	"pimnet/internal/collective"
	"pimnet/internal/config"
	"pimnet/internal/core"
)

// TestFingerprintDeterministic: within one binary the fingerprint is a
// fixed 64-hex-digit string — that stability is what makes a restart warm.
func TestFingerprintDeterministic(t *testing.T) {
	fp1, err := Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if len(fp1) != 64 {
		t.Fatalf("fingerprint %q is not a hex SHA-256", fp1)
	}
	fp2, err := Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if fp1 != fp2 {
		t.Fatalf("fingerprint changed within one process: %s vs %s", fp1, fp2)
	}
}

// compile produces a real (plan key, plan) pair for adapter tests.
func compile(t *testing.T, dpus int) (core.PlanKey, *core.Plan) {
	t.Helper()
	sys, err := config.Default().WithDPUs(dpus)
	if err != nil {
		t.Fatal(err)
	}
	n, err := core.NewNetwork(sys)
	if err != nil {
		t.Fatal(err)
	}
	req := collective.Request{Pattern: collective.AllReduce, Op: collective.Sum,
		BytesPerNode: 32 << 10, ElemSize: 4, Nodes: dpus}
	plan, err := core.PlanFor(n, req)
	if err != nil {
		t.Fatal(err)
	}
	return core.KeyFor(n, req), plan
}

// TestPlanAdapterRoundTrip: a plan stored through the adapter loads
// back with the identical digest — the persistence hook cannot change what
// a plan lookup returns.
func TestPlanAdapterRoundTrip(t *testing.T) {
	s := open(t, t.TempDir(), 0)
	a := PlanAdapter{S: s}
	k, plan := compile(t, 64)

	if _, ok := a.LoadPlan(k); ok {
		t.Fatal("empty store reported a plan")
	}
	a.StorePlan(k, plan)
	got, ok := a.LoadPlan(k)
	if !ok {
		t.Fatal("stored plan missing")
	}
	if got.Digest() != plan.Digest() {
		t.Fatalf("digest changed through persistence: %s vs %s", got.Digest(), plan.Digest())
	}
	if st := s.Stats(); st.Plans.Writes != 1 || st.Plans.Hits != 1 {
		t.Fatalf("plan namespace stats: %+v", st.Plans)
	}
}

// TestPlanAdapterRejectsUndecodablePayload: a perfectly framed blob whose
// payload is not a plan envelope is codec-level corruption — the load is a
// miss, the entry is rejected and counted, never served.
func TestPlanAdapterRejectsUndecodablePayload(t *testing.T) {
	s := open(t, t.TempDir(), 0)
	a := PlanAdapter{S: s}
	k, _ := compile(t, 64)
	mustPut(t, s, NSPlans, k.Digest(), []byte("framed fine, but not an envelope"))

	if _, ok := a.LoadPlan(k); ok {
		t.Fatal("undecodable payload reported as a plan")
	}
	st := s.Stats()
	if st.Plans.Corrupt != 1 || st.Plans.Entries != 0 {
		t.Fatalf("after codec rejection: %+v", st.Plans)
	}
	// The poisoned entry is gone: a subsequent store-then-load works.
	_, plan := compile(t, 64)
	a.StorePlan(k, plan)
	if _, ok := a.LoadPlan(k); !ok {
		t.Fatal("recovery store-then-load failed")
	}
}
