// Package embtab provides the embedding-table substrate of the DLRM
// workload (EMB): table geometry, the Cx-Ry column/row partitioning of
// RecNMP [49] used by the paper's synthetic tables, Zipf-skewed lookup
// batches, and shape presets standing in for the production RM1-RM3 tables
// of [63] (which are proprietary; the experiment depends only on geometry
// and lookup counts, both published).
package embtab

import (
	"fmt"
	"math/rand"
)

// Table is one embedding table.
type Table struct {
	Entries int     // rows
	Dim     int     // embedding dimension (4-byte elements)
	Pooling int     // lookups pooled (summed) per sample
	Batch   int     // samples per inference batch
	Zipf    float64 // lookup skew exponent; 0 = uniform
}

// Validate reports malformed geometry.
func (t Table) Validate() error {
	switch {
	case t.Entries < 1:
		return fmt.Errorf("embtab: %d entries", t.Entries)
	case t.Dim < 1:
		return fmt.Errorf("embtab: dim %d", t.Dim)
	case t.Pooling < 1:
		return fmt.Errorf("embtab: pooling %d", t.Pooling)
	case t.Batch < 1:
		return fmt.Errorf("embtab: batch %d", t.Batch)
	case t.Zipf < 0:
		return fmt.Errorf("embtab: zipf %v", t.Zipf)
	}
	return nil
}

// Bytes returns the table's storage footprint (4-byte elements).
func (t Table) Bytes() int64 { return int64(t.Entries) * int64(t.Dim) * 4 }

// Synthetic returns the paper's EMB_Synth geometry: 4M entries, dimension
// 64, pooling factor 8, batch 256.
func Synthetic() Table {
	return Table{Entries: 4 << 20, Dim: 64, Pooling: 8, Batch: 256, Zipf: 1.05}
}

// RM1, RM2, RM3 return shapes mimicking the production-scale models of
// [63]. The paper observes that RM3 benefits most from PIMnet "because of
// a higher amount of communication and a relatively low amount of memory
// access": communication volume scales with the batch while lookup work
// scales with batch x pooling, so the presets raise the batch and lower
// the pooling from RM1 to RM3.
func RM1() Table { return Table{Entries: 1 << 20, Dim: 64, Pooling: 16, Batch: 256, Zipf: 1.1} }

// RM2 is the mid-size production shape.
func RM2() Table { return Table{Entries: 4 << 20, Dim: 64, Pooling: 8, Batch: 512, Zipf: 1.05} }

// RM3 is the largest-batch, most communication-heavy production shape.
func RM3() Table { return Table{Entries: 8 << 20, Dim: 64, Pooling: 2, Batch: 1024, Zipf: 1.0} }

// Partitioning is the Cx-Ry decomposition: x column-wise partitions of the
// embedding dimension and y row-wise partitions of the entries; x*y DPUs
// hold the table.
type Partitioning struct {
	Cols int // x: column partitions
	Rows int // y: row partitions
}

// Validate reports malformed partitionings.
func (p Partitioning) Validate() error {
	if p.Cols < 1 || p.Rows < 1 {
		return fmt.Errorf("embtab: partitioning C%d-R%d", p.Cols, p.Rows)
	}
	return nil
}

// DPUs returns the DPU count the partitioning occupies.
func (p Partitioning) DPUs() int { return p.Cols * p.Rows }

// String renders the paper's Cx-Ry notation.
func (p Partitioning) String() string { return fmt.Sprintf("C%d-R%d", p.Cols, p.Rows) }

// Batch is a deterministic lookup batch.
type Batch struct {
	Indices [][]int32 // [sample][pooling] row indices
}

// GenerateBatch draws the batch's row indices with the table's Zipf skew.
func GenerateBatch(t Table, seed int64) (*Batch, error) {
	if err := t.Validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	b := &Batch{Indices: make([][]int32, t.Batch)}
	var z *rand.Zipf
	if t.Zipf > 0 {
		// rand.Zipf requires s > 1.
		s := t.Zipf
		if s <= 1 {
			s = 1.0001
		}
		z = rand.NewZipf(rng, s, 1, uint64(t.Entries-1))
	}
	for i := range b.Indices {
		row := make([]int32, t.Pooling)
		for j := range row {
			if z != nil {
				row[j] = int32(z.Uint64())
			} else {
				row[j] = int32(rng.Intn(t.Entries))
			}
		}
		b.Indices[i] = row
	}
	return b, nil
}

// Stats summarizes the per-DPU work and communication of one batch under a
// partitioning.
type Stats struct {
	// LookupsPerDPU is the busiest row-partition's row reads (rows are
	// sharded; each lookup hits exactly one row partition, all column
	// partitions of it).
	LookupsPerDPU int64
	// PartialBytes is each DPU's partial-sum output: batch x (dim/cols) x 4.
	// Row partitions hold disjoint rows, so their pooled partials must be
	// summed — the Reduce-Scatter the workload issues.
	PartialBytes int64
	// AccumOps is the busiest DPU's accumulation operation count.
	AccumOps int64
}

// Analyze computes the stats of a batch under a partitioning.
func Analyze(t Table, p Partitioning, b *Batch) (Stats, error) {
	if err := t.Validate(); err != nil {
		return Stats{}, err
	}
	if err := p.Validate(); err != nil {
		return Stats{}, err
	}
	perRowPart := make([]int64, p.Rows)
	rowsPerPart := (t.Entries + p.Rows - 1) / p.Rows
	for _, sample := range b.Indices {
		for _, idx := range sample {
			part := int(idx) / rowsPerPart
			if part >= p.Rows {
				part = p.Rows - 1
			}
			perRowPart[part]++
		}
	}
	var maxLookups int64
	for _, c := range perRowPart {
		if c > maxLookups {
			maxLookups = c
		}
	}
	dimPerCol := (t.Dim + p.Cols - 1) / p.Cols
	st := Stats{
		LookupsPerDPU: maxLookups,
		PartialBytes:  int64(t.Batch) * int64(dimPerCol) * 4,
		AccumOps:      maxLookups * int64(dimPerCol),
	}
	return st, nil
}
