// Flow-control study (Fig. 13): credit-based flow control (buffered,
// arbitrated, inject-when-ready) against PIM-controlled static scheduling
// (bufferless, launch-after-global-READY) on the packet-level network
// simulator, with per-DPU compute finish times skewed the way real UPMEM
// measurements are.
package main

import (
	"fmt"
	"log"

	"pimnet/internal/noc"
	"pimnet/internal/sim"
)

func main() {
	cfg := noc.DefaultConfig(4, 8, 8)
	done := noc.SkewedFinishTimes(cfg.Nodes(), 100*sim.Microsecond, 20*sim.Microsecond, 42)

	fmt.Println("Credit-based flow control vs PIM-controlled scheduling (256 DPUs, 32 KiB):")
	for _, c := range []struct {
		name string
		run  func(noc.Config, noc.Mode, []sim.Time, int64) (noc.Result, error)
	}{
		{"AllReduce ", noc.SimulateAllReduce},
		{"All-to-All", noc.SimulateAllToAll},
	} {
		credit, err := c.run(cfg, noc.CreditBased, done, 32<<10)
		if err != nil {
			log.Fatal(err)
		}
		static, err := c.run(cfg, noc.StaticScheduled, done, 32<<10)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %s  credit %9v (max queue %d)   static %9v (max queue %d)   static/credit %.3f\n",
			c.name, credit.Finish, credit.MaxQueue, static.Finish, static.MaxQueue,
			float64(static.Finish)/float64(credit.Finish))
	}
	fmt.Println("  -> AllReduce ties (neighbor-only traffic never contends); All-to-All")
	fmt.Println("     collides in the crossbar under credit flow control, so the compiled")
	fmt.Println("     schedule wins despite waiting for the slowest DPU (paper: 18.7%).")
}
