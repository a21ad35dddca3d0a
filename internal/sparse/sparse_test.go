package sparse

import (
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"testing"
)

func testMatrix(t *testing.T) *COO {
	t.Helper()
	m, err := Generate(Config{Rows: 512, Cols: 256, NNZ: 4000, Skew: 1, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestGenerateValidation(t *testing.T) {
	bad := []Config{
		{Rows: 0, Cols: 4, NNZ: 1},
		{Rows: 4, Cols: 0, NNZ: 1},
		{Rows: 4, Cols: 4, NNZ: 0},
		{Rows: 4, Cols: 4, NNZ: 17},
		{Rows: 4, Cols: 4, NNZ: 4, Skew: -1},
	}
	for i, cfg := range bad {
		if _, err := Generate(cfg); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestGenerateStructure(t *testing.T) {
	m := testMatrix(t)
	if m.NNZ() != 4000 {
		t.Fatalf("nnz = %d, want 4000 (map dedup guarantees exact count)", m.NNZ())
	}
	for i := range m.Val {
		if m.RowIdx[i] < 0 || int(m.RowIdx[i]) >= m.Rows {
			t.Fatal("row index out of range")
		}
		if m.ColIdx[i] < 0 || int(m.ColIdx[i]) >= m.Cols {
			t.Fatal("col index out of range")
		}
		if m.Val[i] == 0 {
			t.Fatal("explicit zero stored")
		}
	}
	// Sorted by (row, col) with no duplicates.
	for i := 1; i < len(m.Val); i++ {
		if m.RowIdx[i] < m.RowIdx[i-1] ||
			(m.RowIdx[i] == m.RowIdx[i-1] && m.ColIdx[i] <= m.ColIdx[i-1]) {
			t.Fatal("coordinates not strictly sorted")
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := testMatrix(t)
	b := testMatrix(t)
	if a.NNZ() != b.NNZ() {
		t.Fatal("same seed, different nnz")
	}
	for i := range a.Val {
		if a.Val[i] != b.Val[i] || a.RowIdx[i] != b.RowIdx[i] {
			t.Fatal("same seed, different matrix")
		}
	}
}

func TestSkewConcentratesRows(t *testing.T) {
	uniform, _ := Generate(Config{Rows: 1000, Cols: 100, NNZ: 5000, Skew: 0, Seed: 3})
	skewed, _ := Generate(Config{Rows: 1000, Cols: 100, NNZ: 5000, Skew: 2, Seed: 3})
	firstDecile := func(m *COO) int64 {
		var n int64
		for _, r := range m.RowIdx {
			if r < 100 {
				n++
			}
		}
		return n
	}
	if firstDecile(skewed) < 2*firstDecile(uniform) {
		t.Fatalf("skew did not concentrate nonzeros: %d vs %d",
			firstDecile(skewed), firstDecile(uniform))
	}
}

func TestSpMVReference(t *testing.T) {
	// Tiny hand-checked case: [[1,2],[0,3]] * [10, 20] = [50, 60].
	m := &COO{Rows: 2, Cols: 2,
		RowIdx: []int32{0, 0, 1}, ColIdx: []int32{0, 1, 1}, Val: []int32{1, 2, 3}}
	y, err := SpMV(m, []int32{10, 20})
	if err != nil {
		t.Fatal(err)
	}
	if y[0] != 50 || y[1] != 60 {
		t.Fatalf("y = %v", y)
	}
	if _, err := SpMV(m, []int32{1}); err == nil {
		t.Fatal("wrong x length accepted")
	}
}

func TestDBCOOPartition(t *testing.T) {
	m := testMatrix(t)
	d, err := PartitionDBCOO(m, 32, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Parts) != 256 {
		t.Fatalf("parts = %d, want 256", len(d.Parts))
	}
	var sum int64
	for _, p := range d.Parts {
		sum += p.NNZ
	}
	if sum != m.NNZ() {
		t.Fatalf("partition nnz %d != matrix nnz %d", sum, m.NNZ())
	}
	if d.MaxPartNNZ() <= 0 || d.MaxPartNNZ() > m.NNZ() {
		t.Fatalf("max part nnz = %d", d.MaxPartNNZ())
	}
	if d.PartialOutputBytes() != int64((512+7)/8)*4 {
		t.Fatalf("partial output bytes = %d", d.PartialOutputBytes())
	}
	if _, err := PartitionDBCOO(m, 0, 8); err == nil {
		t.Fatal("bad partition accepted")
	}
}

// TestGenerateLastDrawWins replays the generator's RNG stream draw by draw
// on shapes where many draws repeat a coordinate, and checks that every
// nonzero carries the last value drawn for its coordinate, not a sum or the
// first draw. At NNZ 4000 of 4096 cells the long tail of the draws decides
// most values; at NNZ 2000 the first draws do. At skew 3 so many draws
// collide that a later round draws more than the scratch holds.
func TestGenerateLastDrawWins(t *testing.T) {
	for _, cfg := range []Config{
		{Rows: 64, Cols: 64, NNZ: 4000, Skew: 1, Seed: 1},
		{Rows: 64, Cols: 64, NNZ: 2000, Skew: 1, Seed: 1},
		{Rows: 64, Cols: 64, NNZ: 3000, Skew: 3, Seed: 1},
	} {
		nnz := cfg.NNZ
		m, err := Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		type coord struct{ r, c int32 }
		rng := rand.New(rand.NewSource(cfg.Seed))
		last := map[coord]int32{}
		first := map[coord]int32{}
		for int64(len(last)) < cfg.NNZ {
			u := rng.Float64()
			for i := 0.0; i < cfg.Skew; i++ {
				u *= rng.Float64()
			}
			r := min(int(u*float64(cfg.Rows)), cfg.Rows-1)
			k := coord{int32(r), int32(rng.Intn(cfg.Cols))}
			v := int32(rng.Intn(100) + 1)
			if _, ok := first[k]; !ok {
				first[k] = v
			}
			last[k] = v
		}
		if m.NNZ() != cfg.NNZ {
			t.Fatalf("nnz %d: got %d nonzeros", nnz, m.NNZ())
		}
		overwritten := 0
		for i := range m.Val {
			k := coord{m.RowIdx[i], m.ColIdx[i]}
			want, ok := last[k]
			if !ok {
				t.Fatalf("nnz %d: nonzero %d at %v was never drawn", nnz, i, k)
			}
			if m.Val[i] != want {
				t.Fatalf("nnz %d: nonzero at %v = %d, want last draw %d", nnz, k, m.Val[i], want)
			}
			if first[k] != want {
				overwritten++
			}
		}
		if overwritten == 0 {
			t.Fatalf("nnz %d: no value was overwritten; the shape no longer exercises collisions", nnz)
		}
	}
}

// referenceGenerate is Generate drawn one nonzero at a time: draw until
// NNZ distinct coordinates exist, each keeping its last drawn value, then
// list them by row and column.
func referenceGenerate(cfg Config) *COO {
	type coord struct{ r, c int32 }
	rng := rand.New(rand.NewSource(cfg.Seed))
	last := map[coord]int32{}
	for int64(len(last)) < cfg.NNZ {
		var r int
		if cfg.Skew > 0 {
			u := rng.Float64()
			for i := 0.0; i < cfg.Skew; i++ {
				u *= rng.Float64()
			}
			r = min(int(u*float64(cfg.Rows)), cfg.Rows-1)
		} else {
			r = rng.Intn(cfg.Rows)
		}
		k := coord{int32(r), int32(rng.Intn(cfg.Cols))}
		last[k] = int32(rng.Intn(100) + 1)
	}
	keys := make([]coord, 0, len(last))
	for k := range last {
		keys = append(keys, k)
	}
	slices.SortFunc(keys, func(a, b coord) int {
		if a.r != b.r {
			return int(a.r - b.r)
		}
		return int(a.c - b.c)
	})
	m := &COO{Rows: cfg.Rows, Cols: cfg.Cols}
	for _, k := range keys {
		m.RowIdx, m.ColIdx, m.Val = append(m.RowIdx, k.r), append(m.ColIdx, k.c), append(m.Val, last[k])
	}
	return m
}

// TestGenerateMatchesDrawByDraw compares Generate, nonzero for nonzero,
// with the draw-by-draw reference on small counts: NNZ 1-9 on a 3x3 matrix
// (up to every cell, so later rounds redraw the deficit many times), and
// sizes on each side of a piece boundary (NNZ 4k-1, 4k and 4k+1, and
// deficits that span several pieces) on shapes with and without skew.
func TestGenerateMatchesDrawByDraw(t *testing.T) {
	var cfgs []Config
	for nnz := int64(1); nnz <= 9; nnz++ {
		cfgs = append(cfgs, Config{Rows: 3, Cols: 3, NNZ: nnz, Skew: 1, Seed: nnz})
	}
	for _, nnz := range []int64{11, 12, 13, 15, 16, 17, 63, 64, 65, 100, 255, 256, 257} {
		cfgs = append(cfgs,
			Config{Rows: 17, Cols: 16, NNZ: nnz, Skew: 0, Seed: 7},
			Config{Rows: 16, Cols: 17, NNZ: nnz, Skew: 2, Seed: 8},
			Config{Rows: 1 << 12, Cols: 3, NNZ: nnz, Skew: 1, Seed: 9})
	}
	for _, cfg := range cfgs {
		got, err := Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		want := referenceGenerate(cfg)
		if !slices.Equal(got.RowIdx, want.RowIdx) || !slices.Equal(got.ColIdx, want.ColIdx) ||
			!slices.Equal(got.Val, want.Val) {
			t.Fatalf("%+v: Generate differs from the draw-by-draw reference\ngot  %v %v %v\nwant %v %v %v",
				cfg, got.RowIdx, got.ColIdx, got.Val, want.RowIdx, want.ColIdx, want.Val)
		}
	}
}

// TestGenerateFootprint pins the generator's footprint: the result and a
// scratch a quarter its size, however many rounds the collisions take.
func TestGenerateFootprint(t *testing.T) {
	for _, cfg := range []Config{
		{Rows: 1 << 12, Cols: 1 << 12, NNZ: 1 << 18, Skew: 1, Seed: 1},
		{Rows: 64, Cols: 64, NNZ: 4000, Skew: 1, Seed: 1},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := Generate(cfg); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		matrix := uint64(cfg.NNZ) * 12 // row, column and value per nonzero
		if got := after.TotalAlloc - before.TotalAlloc; got > matrix+matrix/4+64<<10 {
			t.Errorf("%dx%d nnz %d: allocated %d bytes, want at most one and a quarter %d-byte matrices",
				cfg.Rows, cfg.Cols, cfg.NNZ, got, matrix)
		}
	}
}

// TestCountDBCOOMatchesPartition checks the counter tile for tile against
// PartitionDBCOO over Generate: the paper-sized matrix at two seeds, the
// scaled one, a shape where most draws repeat a coordinate, skew 0, a
// matrix with every cell set, the colBlocks = DPUs fallback of a DPU count
// that 32 does not divide, a single column, and a shape whose keys need
// more than 32 bits.
func TestCountDBCOOMatchesPartition(t *testing.T) {
	full := func(seed int64) Config {
		return Config{Rows: 1 << 16, Cols: 1 << 16, NNZ: 2 << 20, Skew: 1, Seed: seed}
	}
	scaled := Config{Rows: 4096, Cols: 4096, NNZ: 40000, Skew: 1, Seed: 1}
	for _, c := range []struct {
		cfg                 Config
		colBlocks, rowBands int
	}{
		{full(1), 32, 8},
		{full(2), 32, 8},
		{scaled, 32, 8},
		{Config{Rows: 64, Cols: 64, NNZ: 4000, Skew: 1, Seed: 1}, 32, 8},
		{Config{Rows: 1000, Cols: 700, NNZ: 20000, Skew: 0, Seed: 5}, 32, 2},
		{Config{Rows: 37, Cols: 23, NNZ: 37 * 23, Skew: 1, Seed: 6}, 4, 3},
		{scaled, 48, 1},
		{Config{Rows: 999, Cols: 1, NNZ: 400, Skew: 2, Seed: 7}, 1, 16},
		{Config{Rows: 1 << 17, Cols: 1 << 16, NNZ: 5000, Skew: 1, Seed: 8}, 32, 8},
	} {
		m, err := Generate(c.cfg)
		if err != nil {
			t.Fatal(err)
		}
		want, err := PartitionDBCOO(m, c.colBlocks, c.rowBands)
		if err != nil {
			t.Fatal(err)
		}
		got, err := CountDBCOO(c.cfg, c.colBlocks, c.rowBands)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%+v in %dx%d tiles: counter differs from PartitionDBCOO(Generate)",
				c.cfg, c.colBlocks, c.rowBands)
		}
	}
	if _, err := CountDBCOO(Config{Rows: 4, Cols: 4, NNZ: 17}, 2, 2); err == nil {
		t.Error("nnz above the cell count accepted")
	}
	if _, err := CountDBCOO(scaled, 0, 8); err == nil {
		t.Error("bad partition accepted")
	}
}

// TestCountDBCOOFootprint pins the counter's paper-sized footprint: one
// 4-byte key per nonzero and a quarter as many in scratch, half of one
// 8-byte key per nonzero and its quarter, and a third of what Generate
// allocates.
func TestCountDBCOOFootprint(t *testing.T) {
	cfg := Config{Rows: 1 << 16, Cols: 1 << 16, NNZ: 2 << 20, Skew: 1, Seed: 1}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := CountDBCOO(cfg, 32, 8); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	keys := uint64(cfg.NNZ) * 4
	if got := after.TotalAlloc - before.TotalAlloc; got > keys+keys/4+64<<10 {
		t.Errorf("allocated %d bytes, want at most one and a quarter %d-byte key arrays", got, keys)
	}
}

// BenchmarkSparseGenerate times the paper-sized SpMV input (2M nonzeros in
// a 64K x 64K matrix), the suite's costliest generator.
func BenchmarkSparseGenerate(b *testing.B) {
	cfg := Config{Rows: 1 << 16, Cols: 1 << 16, NNZ: 2 << 20, Skew: 1, Seed: 1}
	b.ReportAllocs()
	for range b.N {
		if _, err := Generate(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCountDBCOO times the SpMV workload's input: the paper-sized
// matrix's 32x8 tile counts, drawn and deduplicated without the matrix.
func BenchmarkCountDBCOO(b *testing.B) {
	cfg := Config{Rows: 1 << 16, Cols: 1 << 16, NNZ: 2 << 20, Skew: 1, Seed: 1}
	b.ReportAllocs()
	for range b.N {
		if _, err := CountDBCOO(cfg, 32, 8); err != nil {
			b.Fatal(err)
		}
	}
}
