// Package sparse provides the sparse-matrix substrate for the SpMV
// workload: COO/CSR representations, a deterministic skewed nonzero
// generator (stand-in for the SparseP input set, which requires SuiteSparse
// downloads) and the DBCOO partitioning of SparseP [31] —
// a 2D decomposition with vertical (column-block) partitions whose partial
// output vectors are combined with Reduce-Scatter on PIM.
package sparse

import (
	"fmt"
	"math/bits"
	"math/rand"
)

// COO is a coordinate-format sparse matrix.
type COO struct {
	Rows, Cols int
	RowIdx     []int32
	ColIdx     []int32
	Val        []int32
}

// Config parameterizes the generator.
type Config struct {
	Rows, Cols int
	NNZ        int64
	Skew       float64 // 0 = uniform; higher concentrates nonzeros in early rows
	Seed       int64
}

// validate rejects a shape, count or skew that Generate cannot draw.
func (cfg *Config) validate() error {
	if cfg.Rows < 1 || cfg.Cols < 1 {
		return fmt.Errorf("sparse: shape %dx%d", cfg.Rows, cfg.Cols)
	}
	if cfg.NNZ < 1 || cfg.NNZ > int64(cfg.Rows)*int64(cfg.Cols) {
		return fmt.Errorf("sparse: nnz %d out of range for %dx%d", cfg.NNZ, cfg.Rows, cfg.Cols)
	}
	if cfg.Skew < 0 {
		return fmt.Errorf("sparse: negative skew %v", cfg.Skew)
	}
	return nil
}

// draw takes one nonzero, its row, column and value, from rng: the one
// definition of the generator's RNG stream.
func (cfg *Config) draw(rng *rand.Rand) (row, col, val int32) {
	var r int
	if cfg.Skew > 0 {
		// Exponent-skewed row choice: row ~ N * u^(1+skew).
		u := rng.Float64()
		for i := 0.0; i < cfg.Skew; i++ {
			u *= rng.Float64()
		}
		r = min(int(u*float64(cfg.Rows)), cfg.Rows-1)
	} else {
		r = rng.Intn(cfg.Rows)
	}
	return int32(r), int32(rng.Intn(cfg.Cols)), int32(rng.Intn(100) + 1)
}

// Generate produces a deterministic sparse matrix with the requested shape.
// It draws (row, column, value) triples until NNZ distinct coordinates
// exist; a coordinate drawn again keeps its last drawn value.
func Generate(cfg Config) (*COO, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	// The nonzeros are built in the result's own slices: the distinct
	// coordinates so far fill a prefix, sorted by packed row<<32|col key,
	// and each round draws exactly the remaining deficit into the rest. The
	// set can only reach NNZ on a round's last draw, so the rounds consume
	// the RNG stream exactly as a draw-by-draw loop that stops at NNZ would.
	// The scratch holds a quarter as many nonzeros, so a round of NNZ draws
	// is sorted and merged in four pieces and a build peaks at one and a
	// quarter matrices.
	n := int(cfg.NNZ)
	m := &COO{Rows: cfg.Rows, Cols: cfg.Cols,
		RowIdx: make([]int32, n), ColIdx: make([]int32, n), Val: make([]int32, n)}
	quarter := (n + 3) / 4
	tmp := &COO{RowIdx: make([]int32, quarter), ColIdx: make([]int32, quarter), Val: make([]int32, quarter)}
	for have := 0; have < n; {
		for i := have; i < n; i++ {
			m.RowIdx[i], m.ColIdx[i], m.Val[i] = cfg.draw(rng)
		}
		have = m.fold(have, tmp)
	}
	return m, nil
}

// CountDBCOO partitions the matrix Generate(cfg) builds as PartitionDBCOO
// does, without building it: a tile count is all the SpMV workload reads.
// It draws Generate's RNG stream, values included, and dedups packed
// row<<colBits|col keys by Generate's scheme (rounds that draw the deficit,
// pieces as long as a quarter-size scratch, a radix sort, a merge from the
// back), so its rounds and its set are Generate's. Where a key fits in 32
// bits, as up to a 64K x 64K matrix's do, a build holds 4 bytes per
// nonzero and the scratch: 5 bytes per nonzero, against Generate's 15. A
// wider matrix is generated and partitioned.
func CountDBCOO(cfg Config, colBlocks, rowBands int) (*DBCOO, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	colBits := bits.Len(uint(cfg.Cols - 1))
	if bits.Len(uint(cfg.Rows-1))+colBits > 32 {
		m, err := Generate(cfg)
		if err != nil {
			return nil, err
		}
		return PartitionDBCOO(m, colBlocks, rowBands)
	}
	d, err := newDBCOO(cfg.Rows, cfg.Cols, colBlocks, rowBands)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	n := int(cfg.NNZ)
	keys, tmp := make([]uint32, n), make([]uint32, (n+3)/4)
	for have := 0; have < n; {
		for i := have; i < n; i++ {
			r, c, _ := cfg.draw(rng)
			keys[i] = uint32(r)<<colBits | uint32(c)
		}
		have = foldKeys(keys, have, tmp)
	}
	for _, k := range keys {
		d.add(int32(k>>colBits), int32(k&(1<<colBits-1)))
	}
	return d, nil
}

// foldKeys is fold on bare keys: it merges keys [have, len(keys)) into the
// sorted distinct prefix [0, have), in pieces as long as tmp, and returns
// the prefix's new length.
func foldKeys(keys []uint32, have int, tmp []uint32) int {
	for lo := have; lo < len(keys); lo += len(tmp) {
		piece := keys[lo:min(lo+len(tmp), len(keys))]
		sorted := sortKeys(piece, tmp[:len(piece)])
		// Compact the piece's distinct keys into tmp, which sorted may be:
		// the merge writes over the piece's place.
		d := 0
		for _, k := range sorted {
			if d == 0 || k != tmp[d-1] {
				tmp[d] = k
				d++
			}
		}
		have = mergeKeys(keys, have, tmp[:d])
	}
	return have
}

// mergeKeys is merge on bare keys: it folds batch, sorted and distinct,
// into the sorted distinct prefix [0, have) of keys, which has room behind
// it for all of batch, and returns the prefix's new length.
func mergeKeys(keys []uint32, have int, batch []uint32) int {
	i, j, w := have-1, len(batch)-1, have+len(batch)-1
	for ; j >= 0; w-- {
		k := batch[j]
		if i >= 0 {
			if keys[i] > k {
				keys[w] = keys[i]
				i--
				continue
			} else if keys[i] == k {
				i--
			}
		}
		keys[w] = k
		j--
	}
	end := have + len(batch)
	if w > i {
		copy(keys[i+1:], keys[w+1:end])
		end -= w - i
	}
	return end
}

// sortKeys is sortByKey on bare keys: it sorts the non-empty keys and
// returns whichever of keys and buf (of equal length) holds the result.
func sortKeys(keys, buf []uint32) []uint32 {
	var counts [4][256]int
	for _, k := range keys {
		counts[0][byte(k)]++
		counts[1][byte(k>>8)]++
		counts[2][byte(k>>16)]++
		counts[3][byte(k>>24)]++
	}
	src, dst := keys, buf
	for b := range counts {
		c, shift := &counts[b], 8*b
		if c[byte(src[0]>>shift)] == len(src) {
			continue
		}
		pos := 0
		for d, n := range c {
			c[d], pos = pos, pos+n
		}
		for _, k := range src {
			d := byte(k >> shift)
			dst[c[d]] = k
			c[d]++
		}
		src, dst = dst, src
	}
	return src
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
	Rows, Cols int // the partitioned matrix's shape
	ColBlocks  int
	RowBands   int
	Parts      []DBCOOPart // row band by row band, column blocks in order
}

// newDBCOO returns the decomposition of a rows x cols matrix with every
// tile empty.
func newDBCOO(rows, cols, colBlocks, rowBands int) (*DBCOO, error) {
	if colBlocks < 1 || rowBands < 1 {
		return nil, fmt.Errorf("sparse: partition %dx%d", colBlocks, rowBands)
	}
	d := &DBCOO{Rows: rows, Cols: cols, ColBlocks: colBlocks, RowBands: rowBands,
		Parts: make([]DBCOOPart, 0, colBlocks*rowBands)}
	for rb := 0; rb < rowBands; rb++ {
		for cb := 0; cb < colBlocks; cb++ {
			d.Parts = append(d.Parts, DBCOOPart{RowBand: rb, ColBlock: cb})
		}
	}
	return d, nil
}

// add counts a nonzero at (row, col) into its tile.
func (d *DBCOO) add(row, col int32) {
	cb := int(col) * d.ColBlocks / d.Cols
	rb := int(row) * d.RowBands / d.Rows
	d.Parts[rb*d.ColBlocks+cb].NNZ++
}

// PartitionDBCOO builds the decomposition; colBlocks*rowBands should equal
// the DPU count.
func PartitionDBCOO(m *COO, colBlocks, rowBands int) (*DBCOO, error) {
	d, err := newDBCOO(m.Rows, m.Cols, colBlocks, rowBands)
	if err != nil {
		return nil, err
	}
	for i := range m.Val {
		d.add(m.RowIdx[i], m.ColIdx[i])
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
	rowsPerBand := (d.Rows + d.RowBands - 1) / d.RowBands
	return int64(rowsPerBand) * 4
}
