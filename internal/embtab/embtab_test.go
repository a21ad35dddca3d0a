package embtab

import "testing"

func TestTableValidation(t *testing.T) {
	bad := []Table{
		{Entries: 0, Dim: 64, Pooling: 8, Batch: 256},
		{Entries: 100, Dim: 0, Pooling: 8, Batch: 256},
		{Entries: 100, Dim: 64, Pooling: 0, Batch: 256},
		{Entries: 100, Dim: 64, Pooling: 8, Batch: 0},
		{Entries: 100, Dim: 64, Pooling: 8, Batch: 256, Zipf: -1},
	}
	for i, tb := range bad {
		if err := tb.Validate(); err == nil {
			t.Errorf("bad table %d accepted", i)
		}
	}
	if err := Synthetic().Validate(); err != nil {
		t.Fatalf("synthetic invalid: %v", err)
	}
}

func TestPresetShapes(t *testing.T) {
	s := Synthetic()
	// Paper: 4M entries, 64 dims, pooling 8, batch 256.
	if s.Entries != 4<<20 || s.Dim != 64 || s.Pooling != 8 || s.Batch != 256 {
		t.Fatalf("synthetic shape wrong: %+v", s)
	}
	if s.Bytes() != int64(4<<20)*64*4 {
		t.Fatalf("bytes = %d", s.Bytes())
	}
	// RM3 must have the highest communication-to-compute ratio: comm
	// scales with batch, compute with batch x pooling, so the ratio is
	// 1/pooling — strictly growing RM1 -> RM3 (the paper's reason RM3
	// benefits most).
	if !(RM1().Pooling > RM2().Pooling && RM2().Pooling > RM3().Pooling) {
		t.Fatal("RM pooling must shrink from RM1 to RM3")
	}
	if !(RM1().Batch <= RM2().Batch && RM2().Batch <= RM3().Batch) {
		t.Fatal("RM batch must grow from RM1 to RM3")
	}
	for _, tb := range []Table{RM1(), RM2(), RM3()} {
		if err := tb.Validate(); err != nil {
			t.Fatalf("preset invalid: %v", err)
		}
	}
}

func TestPartitioning(t *testing.T) {
	p := Partitioning{Cols: 4, Rows: 64}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if p.DPUs() != 256 {
		t.Fatalf("DPUs = %d", p.DPUs())
	}
	if p.String() != "C4-R64" {
		t.Fatalf("String = %q", p.String())
	}
	if err := (Partitioning{Cols: 0, Rows: 1}).Validate(); err == nil {
		t.Fatal("bad partitioning accepted")
	}
}

func TestGenerateBatchDeterministic(t *testing.T) {
	tb := Table{Entries: 1 << 16, Dim: 64, Pooling: 8, Batch: 32, Zipf: 1.1}
	a, err := GenerateBatch(tb, 42)
	if err != nil {
		t.Fatal(err)
	}
	b, err := GenerateBatch(tb, 42)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Indices) != 32 {
		t.Fatalf("batch size %d", len(a.Indices))
	}
	for i := range a.Indices {
		for j := range a.Indices[i] {
			if a.Indices[i][j] != b.Indices[i][j] {
				t.Fatal("same seed, different batch")
			}
			if a.Indices[i][j] < 0 || int(a.Indices[i][j]) >= tb.Entries {
				t.Fatal("index out of range")
			}
		}
	}
	if _, err := GenerateBatch(Table{}, 1); err == nil {
		t.Fatal("invalid table accepted")
	}
}

func TestZipfSkewsLookups(t *testing.T) {
	tb := Table{Entries: 1 << 20, Dim: 64, Pooling: 8, Batch: 512, Zipf: 1.2}
	b, _ := GenerateBatch(tb, 7)
	var hot, total int64
	cut := int32(tb.Entries / 100) // hottest 1%
	for _, sample := range b.Indices {
		for _, idx := range sample {
			total++
			if idx < cut {
				hot++
			}
		}
	}
	if float64(hot)/float64(total) < 0.5 {
		t.Fatalf("Zipf batch not skewed: %.2f of lookups in hottest 1%%",
			float64(hot)/float64(total))
	}
	uniform := tb
	uniform.Zipf = 0
	ub, _ := GenerateBatch(uniform, 7)
	hot = 0
	for _, sample := range ub.Indices {
		for _, idx := range sample {
			if idx < cut {
				hot++
			}
		}
	}
	if float64(hot)/float64(total) > 0.05 {
		t.Fatalf("uniform batch unexpectedly skewed")
	}
}

func TestAnalyze(t *testing.T) {
	tb := Table{Entries: 1 << 16, Dim: 64, Pooling: 8, Batch: 256, Zipf: 0}
	b, _ := GenerateBatch(tb, 9)
	p := Partitioning{Cols: 4, Rows: 64}
	st, err := Analyze(tb, p, b)
	if err != nil {
		t.Fatal(err)
	}
	// Partial output: batch x (64/4) x 4 bytes = 16 KB.
	if st.PartialBytes != 256*16*4 {
		t.Fatalf("partial bytes = %d", st.PartialBytes)
	}
	// Busiest row partition sees at least the average lookup load.
	avg := int64(tb.Batch) * int64(tb.Pooling) / int64(p.Rows)
	if st.LookupsPerDPU < avg {
		t.Fatalf("max lookups %d below average %d", st.LookupsPerDPU, avg)
	}
	if st.AccumOps != st.LookupsPerDPU*16 {
		t.Fatalf("accum ops = %d", st.AccumOps)
	}
	if _, err := Analyze(Table{}, p, b); err == nil {
		t.Fatal("invalid table accepted")
	}
	if _, err := Analyze(tb, Partitioning{}, b); err == nil {
		t.Fatal("invalid partitioning accepted")
	}
}
