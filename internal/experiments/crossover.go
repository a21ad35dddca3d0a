package experiments

import (
	"fmt"

	"pimnet"
	"pimnet/internal/collective"
	"pimnet/internal/config"
	"pimnet/internal/report"
	"pimnet/internal/sim"
	"pimnet/internal/sweep"
)

// CrossoverPoint is one (population, payload) cell of the architectural
// crossover study: AllReduce latency on every backend, plus the headline
// comparison between the DIMM-attached PIMnet and the CXL-attached fabric.
type CrossoverPoint struct {
	DPUs  int
	Bytes int64
	// Times maps backend name to AllReduce latency; a backend that cannot
	// run the cell is absent.
	Times map[string]sim.Time
	// Winner is the fastest buildable design (Software(Ideal), an upper
	// bound rather than a design, is excluded).
	Winner string
	// PIMvsCXL is PIMnet time / CXL-PIM time: above 1 the CXL fabric wins
	// the cell, below 1 the DIMM-attached interconnect does.
	PIMvsCXL float64
}

// crossoverCell is one grid point plus its rendered table row.
type crossoverCell struct {
	point CrossoverPoint
	row   []string
}

// CrossoverDPUs and CrossoverBytes are the default study grid: one rank to
// twenty DIMMs, latency-bound to bandwidth-bound payloads.
var (
	CrossoverDPUs  = []int{64, 256, 1024, 2560}
	CrossoverBytes = []int64{1 << 10, 32 << 10, 1 << 20, 16 << 20}
)

// FigCrossover sweeps AllReduce over the DPUs x bytes grid on all six
// backends and locates the PIM <-> CXL-PIM win region ("PIM or CXL-PIM?",
// PAPERS.md). nil grids select the defaults. The grid is row-major over
// (dpus, bytes); results are bit-identical at any sweep worker count.
func FigCrossover(dpus []int, bytes []int64, opts ...sweep.Option) ([]CrossoverPoint, *report.Table, error) {
	if len(dpus) == 0 {
		dpus = CrossoverDPUs
	}
	if len(bytes) == 0 {
		bytes = CrossoverBytes
	}
	type gridCell struct {
		dpus  int
		bytes int64
	}
	var grid []gridCell
	for _, n := range dpus {
		for _, b := range bytes {
			grid = append(grid, gridCell{dpus: n, bytes: b})
		}
	}
	var names []string
	for _, k := range pimnet.BackendKinds() {
		names = append(names, k.String())
	}
	cells, _, err := sweep.Run(grid, func(ctx *sweep.Context, g gridCell) (crossoverCell, error) {
		sys, err := config.Default().WithDPUs(g.dpus)
		if err != nil {
			return crossoverCell{}, err
		}
		// Both plan-compiling backends share the sweep's cache, so a
		// device-shaped plan compiled for CXL-PIM serves a PIMnet cell of
		// the same shape and vice versa.
		bes, err := pimnet.Backends(sys, pimnet.WithPlanCache(ctx.Cache))
		if err != nil {
			return crossoverCell{}, err
		}
		req := collective.Request{Pattern: collective.AllReduce, Op: collective.Sum,
			BytesPerNode: g.bytes, ElemSize: 4, Nodes: g.dpus}
		pt := CrossoverPoint{DPUs: g.dpus, Bytes: g.bytes, Times: map[string]sim.Time{}}
		row := []string{fmt.Sprintf("%d", g.dpus), report.Bytes(g.bytes)}
		var best sim.Time
		for _, be := range bes {
			res, err := be.Collective(req)
			if err != nil {
				row = append(row, "n/a")
				continue
			}
			pt.Times[be.Name()] = res.Time
			row = append(row, res.Time.String())
			if be.Name() == "Software(Ideal)" {
				continue
			}
			if pt.Winner == "" || res.Time < best {
				pt.Winner, best = be.Name(), res.Time
			}
		}
		if p, c := pt.Times["PIMnet"], pt.Times["CXL-PIM"]; p > 0 && c > 0 {
			pt.PIMvsCXL = float64(p) / float64(c)
		}
		row = append(row, fmt.Sprintf("%.2f", pt.PIMvsCXL), pt.Winner)
		return crossoverCell{point: pt, row: row}, nil
	}, opts...)
	if err != nil {
		return nil, nil, err
	}
	cols := append([]string{"DPUs", "bytes/DPU"}, names...)
	cols = append(cols, "PIMnet/CXL-PIM", "winner")
	tbl := report.New("Crossover — AllReduce latency, DIMM-attached vs CXL-attached PIM", cols...)
	points := make([]CrossoverPoint, 0, len(cells))
	for _, cell := range cells {
		points = append(points, cell.point)
		tbl.AddRow(cell.row...)
	}
	return points, tbl, nil
}
