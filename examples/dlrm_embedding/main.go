// DLRM embedding-table lookups on PIM (the paper's EMB workload): pooled
// gathers over a Cx-Ry partitioned table whose per-partition partial sums
// are combined with Reduce-Scatter. Runs the synthetic table and the three
// production-shaped tables (RM1-RM3) on the baseline host path and on
// PIMnet, and then scales memory channels (the Fig. 16 experiment): PIMnet
// reduces channel-locally before involving the host, so its advantage
// grows as channels are added.
package main

import (
	"fmt"
	"log"

	"pimnet"
	"pimnet/internal/machine"
	"pimnet/internal/workloads"
)

func main() {
	sys, err := pimnet.DefaultSystem().WithDPUs(256)
	if err != nil {
		log.Fatal(err)
	}
	opt := workloads.Options{Nodes: 256, Seed: 1}

	// Synthetic + production tables.
	wls, err := workloads.EMBProduction(opt)
	if err != nil {
		log.Fatal(err)
	}
	synth, err := workloads.Named("EMB", workloads.SuiteConfig{Nodes: 256, Seed: 1})
	if err != nil {
		log.Fatal(err)
	}
	synth.Name = "EMB-Synth"
	wls = append([]machine.Workload{synth}, wls...)

	b, _ := pimnet.NewBackend(pimnet.Baseline, sys)
	p, _ := pimnet.NewPIMnet(sys)
	mb, _ := pimnet.NewMachine(sys, b)
	mp, _ := pimnet.NewMachine(sys, p)

	fmt.Println("Embedding-table lookup (batch inference) — Baseline vs PIMnet")
	for _, wl := range wls {
		rb, err := mb.Run(wl)
		if err != nil {
			log.Fatal(err)
		}
		rp, err := mp.Run(wl)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-10s baseline %9v (comm %4.0f%%)   pimnet %9v (comm %4.0f%%)   speedup %.2fx\n",
			wl.Name, rb.Total, rb.CommFraction()*100, rp.Total, rp.CommFraction()*100,
			pimnet.Speedup(rb, rp))
	}

	// Channel scaling (Fig. 16).
	fmt.Println("\nEMB-Synth with memory-channel scaling (cross-channel combine via host):")
	for _, ch := range []int{1, 2, 4, 8} {
		msys := pimnet.DefaultSystem()
		msys.Channels = ch
		wl := wls[0]
		bb, _ := pimnet.NewBackend(pimnet.Baseline, msys)
		pp, _ := pimnet.NewPIMnet(msys)
		mbb, _ := pimnet.NewMachine(msys, bb)
		mpp, _ := pimnet.NewMachine(msys, pp)
		rb, err := mbb.RunMultiChannel(wl)
		if err != nil {
			log.Fatal(err)
		}
		rp, err := mpp.RunMultiChannel(wl)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %d channel(s): baseline %9v   pimnet %9v   speedup %.2fx\n",
			ch, rb.Total, rp.Total, pimnet.Speedup(rb, rp))
	}
}
