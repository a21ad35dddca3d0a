package workloads

import (
	"strings"
	"testing"

	"pimnet/internal/collective"
)

func TestPIMfusedShape(t *testing.T) {
	opt := Options{Nodes: 256, Seed: 1}
	layers := DefaultConvStack(true)
	wl, err := PIMfused(opt, layers, 2)
	if err != nil {
		t.Fatal(err)
	}
	if wl.Name != "PIMfused" {
		t.Fatalf("name = %q", wl.Name)
	}
	if len(wl.Phases) != len(layers) {
		t.Fatalf("%d phases for %d layers", len(wl.Phases), len(layers))
	}
	for i, ph := range wl.Phases {
		last := i == len(layers)-1
		groupEnd := i%2 == 1 || last
		switch {
		case last:
			if ph.Collective != nil {
				t.Errorf("final layer carries a collective")
			}
		case !groupEnd:
			if ph.Collective == nil || ph.Collective.Pattern != collective.AllGather {
				t.Errorf("phase %d: want halo AllGather, got %+v", i, ph.Collective)
			}
		default:
			if ph.Collective == nil || ph.Collective.Pattern != collective.AllToAll {
				t.Errorf("phase %d: want A2A repartition, got %+v", i, ph.Collective)
			}
		}
		if ph.Collective != nil {
			if err := ph.Collective.Validate(); err != nil {
				t.Errorf("phase %d: invalid collective: %v", i, err)
			}
		}
		if ph.Kernel.Muls < 1 || ph.MRAMBytes < 1 {
			t.Errorf("phase %d: empty compute model", i)
		}
	}
	// The fusion signature: the halo payload is a fixed boundary (latency
	// bound — independent of the population), while the repartition slice
	// shrinks as nodes are added (bandwidth bound).
	small, err := PIMfused(Options{Nodes: 64, Seed: 1}, layers, 2)
	if err != nil {
		t.Fatal(err)
	}
	if a, b := wl.Phases[0].Collective.BytesPerNode, small.Phases[0].Collective.BytesPerNode; a != b {
		t.Errorf("halo bytes scale with nodes: %d at 256 vs %d at 64", a, b)
	}
	if a, b := wl.Phases[1].Collective.BytesPerNode, small.Phases[1].Collective.BytesPerNode; a > b {
		t.Errorf("repartition slice grew with nodes: %d at 256 vs %d at 64", a, b)
	}
}

func TestPIMfusedRejectsBadStacks(t *testing.T) {
	opt := Options{Nodes: 64, Seed: 1}
	if _, err := PIMfused(opt, nil, 2); err == nil {
		t.Error("accepted empty stack")
	}
	if _, err := PIMfused(opt, DefaultConvStack(true), 0); err == nil {
		t.Error("accepted zero fusion depth")
	}
	broken := []ConvLayer{{C: 3, H: 8, W: 8, K: 3, F: 16}, {C: 99, H: 8, W: 8, K: 3, F: 16}}
	if _, err := PIMfused(opt, broken, 2); err == nil {
		t.Error("accepted non-chaining fused pair")
	}
	if _, err := PIMfused(opt, []ConvLayer{{C: 1, H: 2, W: 2, K: 5, F: 1}}, 1); err == nil {
		t.Error("accepted kernel larger than feature map")
	}
}

func TestPIMfusedDeterministic(t *testing.T) {
	opt := Options{Nodes: 256, Seed: 7}
	a, err := PIMfusedDefault(opt, true)
	if err != nil {
		t.Fatal(err)
	}
	b, err := PIMfusedDefault(opt, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Phases) != len(b.Phases) {
		t.Fatal("phase counts differ")
	}
	for i := range a.Phases {
		if a.Phases[i].Kernel != b.Phases[i].Kernel ||
			a.Phases[i].MRAMBytes != b.Phases[i].MRAMBytes {
			t.Fatalf("phase %d differs across builds", i)
		}
	}
}

func TestNamed(t *testing.T) {
	cfg := SuiteConfig{Nodes: 256, Seed: 1, Scaled: true}
	for _, name := range []string{"PIMfused", "pimfused", "PIMFUSED", "pim"} {
		wl, err := Named(name, cfg)
		if err != nil {
			t.Fatalf("Named(%q): %v", name, err)
		}
		if wl.Name != "PIMfused" {
			t.Fatalf("Named(%q) = %q", name, wl.Name)
		}
	}
	wl, err := Named("gemv", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(wl.Name, "GEMV") {
		t.Fatalf("Named(gemv) = %q", wl.Name)
	}
	_, err = Named("upmem", cfg)
	const unknown = `workloads: unknown workload "upmem" (have BFS, CC, GEMV, MLP, SpMV, EMB, NTT, Join, PIMfused)`
	if err == nil || err.Error() != unknown {
		t.Errorf("Named(upmem) error = %v, want %s", err, unknown)
	}
	if _, err := Named("  ", cfg); err == nil {
		t.Error("Named accepted a blank name")
	}
}

// TestNamedBuildsOnlyItsWorkload checks that Named runs one constructor:
// GEMV at 512 DPUs builds, although NTT's 256-column transform cannot take
// that many DPUs and fails the whole suite.
func TestNamedBuildsOnlyItsWorkload(t *testing.T) {
	cfg := SuiteConfig{Nodes: 512, Seed: 1, Scaled: true}
	if _, err := Suite(cfg); err == nil || !strings.Contains(err.Error(), "building NTT") {
		t.Fatalf("Suite at 512 DPUs: err = %v, want an NTT failure", err)
	}
	if _, err := Named("GEMV", cfg); err != nil {
		t.Fatalf("Named(GEMV) at 512 DPUs: %v", err)
	}
	if _, err := Named("NTT", cfg); err == nil || !strings.HasPrefix(err.Error(), "workloads: building NTT: ") {
		t.Fatalf("Named(NTT) at 512 DPUs: err = %v", err)
	}
}

func TestCanonical(t *testing.T) {
	for name, want := range map[string]string{
		"bfs": "BFS", "C": "CC", "gemv": "GEMV", "m": "MLP", "SPMV": "SpMV", "e": "EMB",
		"ntt": "NTT", "j": "Join", "pim": "PIMfused",
	} {
		if got, ok := Canonical(name); !ok || got != want {
			t.Errorf("Canonical(%q) = %q, %v; want %q", name, got, ok, want)
		}
	}
	for _, name := range []string{"", " gemv", "gemv-2048x128", "resnet"} {
		if got, ok := Canonical(name); ok {
			t.Errorf("Canonical(%q) = %q, want no match", name, got)
		}
	}
	if got := strings.Join(Names(), ","); got != "BFS,CC,GEMV,MLP,SpMV,EMB,NTT,Join,PIMfused" {
		t.Errorf("Names() = %s", got)
	}
}
