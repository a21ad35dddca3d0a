package workloads

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pimnet/internal/graphgen"
	"pimnet/internal/sparse"
)

var update = flag.Bool("update", false, "regenerate testdata/inputs.sha256")

// digest hashes values in order: slices and fixed-size integers as
// little-endian binary, anything else (phase graphs) as JSON.
func digest(t *testing.T, vals ...any) string {
	t.Helper()
	h := sha256.New()
	for _, v := range vals {
		var err error
		switch v.(type) {
		case int64, []int64, []int32:
			err = binary.Write(h, binary.LittleEndian, v)
		default:
			var b []byte
			if b, err = json.Marshal(v); err == nil {
				_, err = h.Write(b)
			}
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

func graphDigest(t *testing.T, cfg graphgen.RMATConfig) string {
	t.Helper()
	g, err := graphgen.RMAT(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return digest(t, int64(g.N), g.Offsets, g.Edges)
}

func matrixDigest(t *testing.T, cfg sparse.Config) string {
	t.Helper()
	m, err := sparse.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return digest(t, int64(m.Rows), int64(m.Cols), m.RowIdx, m.ColIdx, m.Val)
}

// TestInputDigests locks every generated workload input bit for bit: the
// R-MAT graphs, the sparse matrices (including a high-collision shape where
// most draws repeat a coordinate) and every workload's phase graph, at the
// paper-sized and the scaled configurations. Regenerate with `make golden`
// only after an intentional change to what the generators produce.
func TestInputDigests(t *testing.T) {
	scaledGraph := func(seed int64) graphgen.RMATConfig {
		return graphgen.RMATConfig{Vertices: 4096, Edges: 20000, A: 0.57, B: 0.19, C: 0.19, Seed: seed}
	}
	fullMatrix := func(seed int64) sparse.Config {
		return sparse.Config{Rows: 1 << 16, Cols: 1 << 16, NNZ: 2 << 20, Skew: 1, Seed: seed}
	}
	scaledMatrix := func(seed int64) sparse.Config {
		return sparse.Config{Rows: 4096, Cols: 4096, NNZ: 40000, Skew: 1, Seed: seed}
	}
	var lines []string
	add := func(label, sum string) { lines = append(lines, sum+"  "+label) }

	add("graphgen.RMAT/LogGowalla", graphDigest(t, graphgen.LogGowalla()))
	for _, seed := range []int64{1, 2} {
		add(fmt.Sprintf("graphgen.RMAT/scaled/seed=%d", seed), graphDigest(t, scaledGraph(seed)))
	}
	for _, seed := range []int64{1, 2} {
		add(fmt.Sprintf("sparse.Generate/full/seed=%d", seed), matrixDigest(t, fullMatrix(seed)))
		add(fmt.Sprintf("sparse.Generate/scaled/seed=%d", seed), matrixDigest(t, scaledMatrix(seed)))
	}
	add("sparse.Generate/64x64-nnz4000/seed=1",
		matrixDigest(t, sparse.Config{Rows: 64, Cols: 64, NNZ: 4000, Skew: 1, Seed: 1}))

	for _, scaled := range []bool{false, true} {
		size := "full"
		if scaled {
			size = "scaled"
		}
		cfg := SuiteConfig{Nodes: 256, Seed: 1, Scaled: scaled}
		suite, err := Suite(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, wl := range suite {
			add(fmt.Sprintf("workloads.Suite/%s/%s", size, wl.Name), digest(t, wl))
		}
		for _, name := range []string{"BFS", "CC", "GEMV", "MLP", "SpMV", "EMB", "NTT", "Join", "PIMfused"} {
			wl, err := Named(name, cfg)
			if err != nil {
				t.Fatal(err)
			}
			add(fmt.Sprintf("workloads.Named/%s/%s", size, name), digest(t, wl))
		}
	}
	checkDigests(t, lines)
}

func checkDigests(t *testing.T, lines []string) {
	t.Helper()
	got := []byte(strings.Join(lines, "\n") + "\n")
	path := filepath.Join("testdata", "inputs.sha256")
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run make golden)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("generated inputs diverged from %s:\n got:\n%s\nwant:\n%s", path, got, want)
	}
}
