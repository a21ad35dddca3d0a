package store

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// The store sits on the serving hot path: every request pays a cold miss
// (one index lookup) before simulating, and warm restarts pay a warm hit
// (read + decode + verify) instead of a simulation. Both are gated by
// cmd/benchcmp against BENCH_baseline.json so a store-path regression trips
// the same check as an engine regression.

// benchPayload approximates a rendered /v1/simulate body.
var benchPayload = []byte(fmt.Sprintf(`{"backend":"pimnet","pattern":"allreduce","dpus":256,"bytes_per_node":32768,"time_ps":123456789,"breakdown":{"link":%d}}`, 1<<30))

func benchStore(b *testing.B) *Store {
	b.Helper()
	s, err := Open(Config{Dir: b.TempDir(), Fingerprint: "bench-fp"})
	if err != nil {
		b.Fatal(err)
	}
	return s
}

// BenchmarkStoreColdMiss measures the tax an attached store adds to every
// first-time request: the lookup that finds nothing.
func BenchmarkStoreColdMiss(b *testing.B) {
	s := benchStore(b)
	k := fmt.Sprintf("%x", sha256.Sum256([]byte("never stored")))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := s.Get(NSResults, k); ok {
			b.Fatal("impossible hit")
		}
	}
}

// BenchmarkStoreWarmHit measures the warm-restart payoff path: read one
// blob from disk, verify its frame and digest, return the payload verbatim.
func BenchmarkStoreWarmHit(b *testing.B) {
	s := benchStore(b)
	k := fmt.Sprintf("%x", sha256.Sum256(benchPayload))
	if err := s.Put(NSResults, k, benchPayload); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := s.Get(NSResults, k); !ok {
			b.Fatal("warm entry missing")
		}
	}
}

// BenchmarkStoreWrite measures write-behind: frame, temp-write, fsync,
// rename. This bounds the latency the store adds to a cache fill. Every
// iteration writes a fresh key — a wrapped key set would degenerate into
// duplicate no-ops at large b.N and make the numbers N-dependent. For the
// same reason the 256 fan-out directories are made before the timer starts:
// the first write into each pays a mkdir that a long-running store pays
// once, and timing it made allocs/op fall as b.N grew.
func BenchmarkStoreWrite(b *testing.B) {
	s := benchStore(b)
	for i := range 256 {
		if err := os.MkdirAll(filepath.Dir(blobPath(s.dir, fmt.Sprintf("%02x", i))), 0o755); err != nil {
			b.Fatal(err)
		}
	}
	var kb [8]byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		binary.LittleEndian.PutUint64(kb[:], uint64(i))
		k := fmt.Sprintf("%x", sha256.Sum256(kb[:]))
		if err := s.Put(NSResults, k, benchPayload); err != nil {
			b.Fatal(err)
		}
	}
}
