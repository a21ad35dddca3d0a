package workloads

import (
	"fmt"

	"pimnet/internal/collective"
	"pimnet/internal/dpu"
	"pimnet/internal/machine"
)

// ConvLayer is one convolutional layer's shape: C input channels over an
// H x W spatial extent, a K x K kernel, F output channels (stride 1, same
// padding — the spatial extent is preserved within a layer).
type ConvLayer struct {
	C, H, W, K, F int
}

func (l ConvLayer) validate(i int) error {
	if l.C < 1 || l.H < 1 || l.W < 1 || l.K < 1 || l.F < 1 {
		return fmt.Errorf("workloads: PIMfused layer %d has non-positive shape %+v", i, l)
	}
	if l.K > l.H {
		return fmt.Errorf("workloads: PIMfused layer %d kernel %d exceeds height %d", i, l.K, l.H)
	}
	return nil
}

// PIMfused builds the fused-layer CNN dataflow workload ("PIMfused" in
// PAPERS.md): the layer stack is cut into fused groups of fusionDepth
// consecutive layers. Rows of the feature map are partitioned across the
// DPUs. Inside a fused group the intermediate activations never leave
// WRAM; what remains on the network is a small halo exchange per fused
// layer pair — each DPU needs its neighbours' (K-1) boundary rows before
// it can continue, a latency-bound collective far smaller than the
// activations DLRM or NTT move. At every group boundary the full feature
// map spills and is re-partitioned with an All-to-All. This is the traffic
// pattern that stresses the inter-bank ring differently from the Table VII
// suite: many small AllGathers punctuated by bursty A2A repartitions.
//
// Fusion requires the grouped layers to agree on spatial extent and to
// chain channels (next.C == cur.F); DefaultConvStack satisfies this.
func PIMfused(opt Options, layers []ConvLayer, fusionDepth int) (machine.Workload, error) {
	if err := opt.validate(); err != nil {
		return machine.Workload{}, err
	}
	if len(layers) == 0 {
		return machine.Workload{}, fmt.Errorf("workloads: PIMfused needs layers")
	}
	if fusionDepth < 1 {
		return machine.Workload{}, fmt.Errorf("workloads: fusion depth %d", fusionDepth)
	}
	nodes := int64(opt.Nodes)
	wl := machine.Workload{Name: "PIMfused"}
	for i, l := range layers {
		if err := l.validate(i); err != nil {
			return machine.Workload{}, err
		}
		groupStart := i%fusionDepth == 0
		groupEnd := i%fusionDepth == fusionDepth-1 || i == len(layers)-1
		if !groupStart {
			prev := layers[i-1]
			if prev.H != l.H || prev.W != l.W || prev.F != l.C {
				return machine.Workload{}, fmt.Errorf(
					"workloads: PIMfused layers %d->%d cannot fuse: %+v does not chain into %+v",
					i-1, i, prev, l)
			}
		}

		macs := int64(l.C) * int64(l.K) * int64(l.K) * int64(l.F) * int64(l.H) * int64(l.W) / nodes
		if macs < 1 {
			macs = 1
		}
		outPerNode := int64(l.F)*int64(l.H)*int64(l.W)/nodes + 1
		ph := machine.Phase{
			Name: fmt.Sprintf("conv-%d", i+1),
			Kernel: dpu.Kernel{
				Muls:   macs,
				Adds:   macs + outPerNode, // MAC + ReLU
				Loads:  2 * macs,
				Stores: outPerNode,
			},
			// Weights always stream from MRAM: row partitioning replicates
			// the full filter bank on every DPU.
			MRAMBytes: int64(l.C) * int64(l.K) * int64(l.K) * int64(l.F) * 4,
		}
		if groupStart {
			// Input activations enter from MRAM only at a group boundary;
			// inside the group they stay resident in WRAM — that is the
			// fusion win.
			ph.MRAMBytes += int64(l.C) * int64(l.H) * int64(l.W) * 4 / nodes
		}
		switch {
		case !groupEnd:
			// Halo for the next fused layer: (K-1) boundary rows of this
			// layer's output, exchanged before the neighbour can proceed.
			next := layers[i+1]
			halo := int64(next.K-1) * int64(l.W) * int64(l.F) * 4
			ph.Collective = &collective.Request{Pattern: collective.AllGather,
				Op: collective.Sum, BytesPerNode: alignUp(halo, 4),
				ElemSize: 4, Nodes: opt.Nodes}
		case i != len(layers)-1:
			// Group boundary: spill and re-partition the feature map.
			ph.MRAMBytes += int64(l.F) * int64(l.H) * int64(l.W) * 4 / nodes
			repart := alignUp(int64(l.F)*int64(l.H)*int64(l.W)*4/nodes, nodes*4)
			ph.Collective = &collective.Request{Pattern: collective.AllToAll,
				Op: collective.Sum, BytesPerNode: repart,
				ElemSize: 4, Nodes: opt.Nodes}
		default:
			// Final layer: the output spills, no further repartition.
			ph.MRAMBytes += int64(l.F) * int64(l.H) * int64(l.W) * 4 / nodes
		}
		wl.Phases = append(wl.Phases, ph)
	}
	return wl, nil
}

// DefaultConvStack returns the PIMfused evaluation stack: a VGG-style
// eight-layer feature extractor (halving the spatial extent and doubling
// channels every two layers), or a reduced six-layer variant when scaled.
func DefaultConvStack(scaled bool) []ConvLayer {
	if scaled {
		return []ConvLayer{
			{C: 3, H: 28, W: 28, K: 3, F: 16},
			{C: 16, H: 28, W: 28, K: 3, F: 16},
			{C: 16, H: 14, W: 14, K: 3, F: 32},
			{C: 32, H: 14, W: 14, K: 3, F: 32},
			{C: 32, H: 7, W: 7, K: 3, F: 64},
			{C: 64, H: 7, W: 7, K: 3, F: 64},
		}
	}
	return []ConvLayer{
		{C: 3, H: 112, W: 112, K: 3, F: 64},
		{C: 64, H: 112, W: 112, K: 3, F: 64},
		{C: 64, H: 56, W: 56, K: 3, F: 128},
		{C: 128, H: 56, W: 56, K: 3, F: 128},
		{C: 128, H: 28, W: 28, K: 3, F: 256},
		{C: 256, H: 28, W: 28, K: 3, F: 256},
		{C: 256, H: 14, W: 14, K: 3, F: 512},
		{C: 512, H: 14, W: 14, K: 3, F: 512},
	}
}

// DefaultFusionDepth pairs consecutive layers — the deepest fusion the
// default stack admits, since the spatial extent halves every two layers.
const DefaultFusionDepth = 2

// PIMfusedDefault builds the PIMfused workload with the evaluation stack.
func PIMfusedDefault(opt Options, scaled bool) (machine.Workload, error) {
	return PIMfused(opt, DefaultConvStack(scaled), DefaultFusionDepth)
}
