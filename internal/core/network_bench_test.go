package core

import (
	"testing"
	"unsafe"

	"pimnet/internal/config"
)

// The NewNetwork benchmarks measure building one channel's link table, which
// a collective simulate pays on a plan-cache miss, a traced run or a faulted
// run. They are part of the regression-gated suite (make benchcmp).

func benchNewNetwork(b *testing.B, dpus int) {
	b.Helper()
	sys, err := config.Default().WithDPUs(dpus)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := NewNetwork(sys); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkNewNetwork256(b *testing.B) {
	benchNewNetwork(b, 256)
}

func BenchmarkNewNetwork2560(b *testing.B) {
	benchNewNetwork(b, 2560)
}

// TestNewNetworkAllocs pins the network's layout: the Network itself and one
// slab holding every link, however many links the topology has.
func TestNewNetworkAllocs(t *testing.T) {
	sys, err := config.Default().WithDPUs(2560)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := NewNetwork(sys); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 2 {
		t.Fatalf("NewNetwork(2560 DPUs) allocates %.1f times, want <= 2", allocs)
	}
}

// TestTransferSize pins a Transfer at 16 bytes: transfers are most of a
// compiled plan's footprint.
func TestTransferSize(t *testing.T) {
	if got := unsafe.Sizeof(Transfer{}); got != 16 {
		t.Fatalf("Transfer is %d bytes, want 16", got)
	}
}
