// Package sparse provides the sparse-matrix substrate for the SpMV
// workload: COO/CSR representations, a deterministic skewed nonzero
// generator (stand-in for the SparseP input set, which requires SuiteSparse
// downloads), reference SpMV, and the DBCOO partitioning of SparseP [31] —
// a 2D decomposition with vertical (column-block) partitions whose partial
// output vectors are combined with Reduce-Scatter on PIM.
package sparse

import (
	"fmt"
	"math/rand"
)

// COO is a coordinate-format sparse matrix.
type COO struct {
	Rows, Cols int
	RowIdx     []int32
	ColIdx     []int32
	Val        []int32
}

// NNZ returns the nonzero count.
func (m *COO) NNZ() int64 { return int64(len(m.Val)) }

// Config parameterizes the generator.
type Config struct {
	Rows, Cols int
	NNZ        int64
	Skew       float64 // 0 = uniform; higher concentrates nonzeros in early rows
	Seed       int64
}

// Generate produces a deterministic sparse matrix with the requested shape.
// It draws (row, column, value) triples until NNZ distinct coordinates
// exist; a coordinate drawn again keeps its last drawn value.
func Generate(cfg Config) (*COO, error) {
	if cfg.Rows < 1 || cfg.Cols < 1 {
		return nil, fmt.Errorf("sparse: shape %dx%d", cfg.Rows, cfg.Cols)
	}
	if cfg.NNZ < 1 || cfg.NNZ > int64(cfg.Rows)*int64(cfg.Cols) {
		return nil, fmt.Errorf("sparse: nnz %d out of range for %dx%d", cfg.NNZ, cfg.Rows, cfg.Cols)
	}
	if cfg.Skew < 0 {
		return nil, fmt.Errorf("sparse: negative skew %v", cfg.Skew)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	// The nonzeros are built in the result's own slices: the distinct
	// coordinates so far fill a prefix, sorted by packed row<<32|col key,
	// and each round draws exactly the remaining deficit into the rest. The
	// set can only reach NNZ on a round's last draw, so the rounds consume
	// the RNG stream exactly as a draw-by-draw loop that stops at NNZ would.
	// The scratch holds a quarter as many nonzeros, so a round of NNZ draws
	// is sorted and merged in four pieces and a build peaks at one and a
	// quarter matrices; a daemon serving SpMV requests at once holds that
	// much per request.
	n := int(cfg.NNZ)
	m := &COO{Rows: cfg.Rows, Cols: cfg.Cols,
		RowIdx: make([]int32, n), ColIdx: make([]int32, n), Val: make([]int32, n)}
	quarter := (n + 3) / 4
	tmp := &COO{RowIdx: make([]int32, quarter), ColIdx: make([]int32, quarter), Val: make([]int32, quarter)}
	for have := 0; have < n; {
		for i := have; i < n; i++ {
			var r int
			if cfg.Skew > 0 {
				// Exponent-skewed row choice: row ~ N * u^(1+skew).
				u := rng.Float64()
				for i := 0.0; i < cfg.Skew; i++ {
					u *= rng.Float64()
				}
				r = int(u * float64(cfg.Rows))
			} else {
				r = rng.Intn(cfg.Rows)
			}
			if r >= cfg.Rows {
				r = cfg.Rows - 1
			}
			m.RowIdx[i], m.ColIdx[i], m.Val[i] = int32(r), int32(rng.Intn(cfg.Cols)), int32(rng.Intn(100)+1)
		}
		have = m.fold(have, tmp)
	}
	return m, nil
}

// key returns nonzero i's packed row<<32|col key.
func (m *COO) key(i int) uint64 { return uint64(m.RowIdx[i])<<32 | uint64(m.ColIdx[i]) }

// span returns nonzeros [lo, hi) of m, sharing m's storage.
func (m *COO) span(lo, hi int) *COO {
	return &COO{Rows: m.Rows, Cols: m.Cols, RowIdx: m.RowIdx[lo:hi], ColIdx: m.ColIdx[lo:hi], Val: m.Val[lo:hi]}
}

// move copies nonzero j of src to nonzero i of m.
func (m *COO) move(i int, src *COO, j int) {
	m.RowIdx[i], m.ColIdx[i], m.Val[i] = src.RowIdx[j], src.ColIdx[j], src.Val[j]
}

// copyFrom copies src's nonzeros over m's first ones.
func (m *COO) copyFrom(src *COO) {
	copy(m.RowIdx, src.RowIdx)
	copy(m.ColIdx, src.ColIdx)
	copy(m.Val, src.Val)
}

// fold merges one round's draws, nonzeros [have, NNZ) of m, into the sorted
// distinct prefix [0, have) and returns the prefix's new length. It takes
// the draws in pieces as long as tmp, its scratch, in draw order, so a later
// draw of a coordinate overwrites an earlier one, within a piece and against
// the prefix alike.
func (m *COO) fold(have int, tmp *COO) int {
	for lo := have; lo < len(m.Val); lo += len(tmp.Val) {
		piece := m.span(lo, min(lo+len(tmp.Val), len(m.Val)))
		sorted := sortByKey(piece, tmp.span(0, len(piece.Val)))
		// Keep the last draw of each key (stability puts it last among
		// equals) in tmp: the merge writes over the piece's place, so it
		// reads the batch from the scratch.
		d := 0
		for j := range sorted.Val {
			if j+1 < len(sorted.Val) && sorted.key(j+1) == sorted.key(j) {
				continue
			}
			tmp.move(d, sorted, j)
			d++
		}
		have = m.merge(have, tmp.span(0, d))
	}
	return have
}

// merge folds batch, sorted by key and distinct, into the sorted distinct
// prefix [0, have) of m, which has room behind it for all of batch, and
// returns the prefix's new length. A key in both takes batch's value.
func (m *COO) merge(have int, batch *COO) int {
	rows, cols, vals := m.RowIdx, m.ColIdx, m.Val
	key := func(i int) uint64 { return uint64(rows[i])<<32 | uint64(cols[i]) }
	// Merge from the back as if every key were new, so no nonzero is
	// overwritten before it moves; each key already present leaves a gap.
	i, j, w := have-1, len(batch.Val)-1, have+len(batch.Val)-1
	for ; j >= 0; w-- {
		k := batch.key(j)
		if i >= 0 {
			if ki := key(i); ki > k {
				rows[w], cols[w], vals[w] = rows[i], cols[i], vals[i]
				i--
				continue
			} else if ki == k {
				i--
			}
		}
		rows[w], cols[w], vals[w] = batch.RowIdx[j], batch.ColIdx[j], batch.Val[j]
		j--
	}
	// Close the gaps: the merged run [w+1, end) moves down onto i+1.
	end := have + len(batch.Val)
	if w > i {
		m.span(i+1, end).copyFrom(m.span(w+1, end))
		end -= w - i
	}
	return end
}

// sortByKey stable-sorts the nonzeros of the non-empty m by key, so equal
// keys keep their draw order, and returns whichever of m and buf (of equal
// length) holds the sorted sequence: a least-significant-digit radix sort
// over the key's bytes that skips every byte all keys share, its passes
// alternating between the two.
func sortByKey(m, buf *COO) *COO {
	// A key's low four bytes are its column's and its high four its row's,
	// so each pass reads its digit from one of the two.
	var counts [8][256]int
	for i := range m.Val {
		c, r := uint32(m.ColIdx[i]), uint32(m.RowIdx[i])
		counts[0][byte(c)]++
		counts[1][byte(c>>8)]++
		counts[2][byte(c>>16)]++
		counts[3][byte(c>>24)]++
		counts[4][byte(r)]++
		counts[5][byte(r>>8)]++
		counts[6][byte(r>>16)]++
		counts[7][byte(r>>24)]++
	}
	src, dst := m, buf
	for b := range counts {
		c := &counts[b]
		digits, shift := src.ColIdx, 8*(b%4)
		if b >= 4 {
			digits = src.RowIdx
		}
		if c[byte(uint32(digits[0])>>shift)] == len(digits) {
			continue
		}
		pos := 0
		for d, n := range c {
			c[d], pos = pos, pos+n
		}
		rows, cols, vals := src.RowIdx[:len(digits)], src.ColIdx[:len(digits)], src.Val[:len(digits)]
		for i, x := range digits {
			d := byte(uint32(x) >> shift)
			j := c[d]
			c[d]++
			dst.RowIdx[j], dst.ColIdx[j], dst.Val[j] = rows[i], cols[i], vals[i]
		}
		src, dst = dst, src
	}
	return src
}

// SpMV computes y = A*x (reference implementation, the ground truth for
// partitioned execution).
func SpMV(m *COO, x []int32) ([]int64, error) {
	if len(x) != m.Cols {
		return nil, fmt.Errorf("sparse: x has %d entries, want %d", len(x), m.Cols)
	}
	y := make([]int64, m.Rows)
	for i := range m.Val {
		y[m.RowIdx[i]] += int64(m.Val[i]) * int64(x[m.ColIdx[i]])
	}
	return y, nil
}

// DBCOOPart is one tile of the DBCOO 2D decomposition: the nonzeros of one
// (row-band, column-block) tile, assigned to one DPU.
type DBCOOPart struct {
	RowBand  int // horizontal band index
	ColBlock int // vertical partition index
	NNZ      int64
}

// DBCOO partitions the matrix into vertical column blocks x horizontal row
// bands (SparseP's DBCOO with the paper's 32 vertical partitions). Each
// column block computes a partial y over its columns; the partials are
// combined with Reduce-Scatter across the blocks.
type DBCOO struct {
	Matrix    *COO
	ColBlocks int
	RowBands  int
	Parts     []DBCOOPart
}

// PartitionDBCOO builds the decomposition; colBlocks*rowBands should equal
// the DPU count.
func PartitionDBCOO(m *COO, colBlocks, rowBands int) (*DBCOO, error) {
	if colBlocks < 1 || rowBands < 1 {
		return nil, fmt.Errorf("sparse: partition %dx%d", colBlocks, rowBands)
	}
	d := &DBCOO{Matrix: m, ColBlocks: colBlocks, RowBands: rowBands}
	counts := make([]int64, colBlocks*rowBands)
	for i := range m.Val {
		cb := int(m.ColIdx[i]) * colBlocks / m.Cols
		rb := int(m.RowIdx[i]) * rowBands / m.Rows
		counts[rb*colBlocks+cb]++
	}
	for rb := 0; rb < rowBands; rb++ {
		for cb := 0; cb < colBlocks; cb++ {
			d.Parts = append(d.Parts, DBCOOPart{
				RowBand: rb, ColBlock: cb, NNZ: counts[rb*colBlocks+cb],
			})
		}
	}
	return d, nil
}

// MaxPartNNZ returns the heaviest tile — the busiest DPU's multiply count.
func (d *DBCOO) MaxPartNNZ() int64 {
	var m int64
	for _, p := range d.Parts {
		if p.NNZ > m {
			m = p.NNZ
		}
	}
	return m
}

// PartialOutputBytes returns the per-DPU partial-result volume that the
// Reduce-Scatter combines: each tile produces a partial y over its row
// band (4-byte accumulators).
func (d *DBCOO) PartialOutputBytes() int64 {
	rowsPerBand := (d.Matrix.Rows + d.RowBands - 1) / d.RowBands
	return int64(rowsPerBand) * 4
}
