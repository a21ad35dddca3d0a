// Benchmarks regenerating every table and figure of the paper's evaluation.
// Each benchmark runs the corresponding experiment end to end and reports
// the headline quantity of that figure as a custom metric, so
//
//	go test -bench=. -benchmem
//
// reproduces the whole evaluation and prints the numbers EXPERIMENTS.md
// records. Workload-based benchmarks use the reduced ("scaled") inputs so
// the suite completes in seconds; cmd/pimnetbench runs the paper-sized
// inputs.
package pimnet_test

import (
	"testing"

	"pimnet"
	"pimnet/internal/collective"
	"pimnet/internal/experiments"
)

func BenchmarkFig02Roofline(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, _, err := experiments.Fig2Roofline()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.BW["PIMnet"]/res.BW["Software(Ideal)"], "pimnet/ideal-bw-ratio")
	}
}

func BenchmarkFig03Scalability(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ar, _, _, err := experiments.Fig3Scalability()
		if err != nil {
			b.Fatal(err)
		}
		for _, pt := range ar {
			if pt.DPUs == 256 && pt.Backend == "PIMnet" {
				b.ReportMetric(pt.Speedup, "ar-speedup-at-256")
			}
		}
	}
}

func BenchmarkTab04TierBandwidth(b *testing.B) {
	b.ReportAllocs()
	// The aggregate per-rank PIMnet bandwidth of Table IV / Section IV-B:
	// 2.8 GB/s per bank x 64 banks = 179.2 GB/s.
	sys := pimnet.DefaultSystem()
	for i := 0; i < b.N; i++ {
		perBank := float64(sys.Net.BankChannels) * sys.Net.BankChannelBW
		b.ReportMetric(perBank*float64(sys.BanksPerRank())/1e9, "rank-aggregate-GB/s")
	}
}

func BenchmarkFig10Applications(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		apps, _, err := experiments.Fig10Applications(true)
		if err != nil {
			b.Fatal(err)
		}
		var geo float64 = 1
		for _, a := range apps {
			geo *= a.Speedup("PIMnet")
		}
		b.ReportMetric(geo, "speedup-product")
	}
}

func BenchmarkFig11CommBreakdown(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rows, _, err := experiments.Fig11CommBreakdown(true)
		if err != nil {
			b.Fatal(err)
		}
		var worst float64 = 1e18
		for _, r := range rows {
			if r.CommSpeedup < worst {
				worst = r.CommSpeedup
			}
		}
		b.ReportMetric(worst, "min-comm-speedup")
	}
}

func BenchmarkFig12CollectiveScaling(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, a2a, _, err := experiments.Fig12CollectiveScaling()
		if err != nil {
			b.Fatal(err)
		}
		for _, pt := range a2a {
			if pt.DPUs == 256 && pt.Backend == "PIMnet" {
				b.ReportMetric(pt.Speedup, "a2a-speedup-at-256")
			}
		}
	}
}

func BenchmarkFig13FlowControl(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, _, err := experiments.Fig13FlowControl()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.A2AReduction()*100, "a2a-static-reduction-%")
		b.ReportMetric((res.ARRatio()-1)*100, "ar-static-overhead-%")
	}
}

func BenchmarkFig14BandwidthScaling(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		pts, _, err := experiments.Fig14BankBandwidth()
		if err != nil {
			b.Fatal(err)
		}
		gpts, _, err := experiments.Fig14GlobalBandwidth()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(pts[len(pts)-1].Speedup, "speedup-at-1GBps-bank")
		b.ReportMetric(gpts[2].Speedup, "speedup-at-1x-global")
	}
}

func BenchmarkFig15AltPIM(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rows, _, err := experiments.Fig15AltPIM(true)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Workload == "MLP" && r.Scale == 180 {
				b.ReportMetric(r.Speedup, "mlp-speedup-at-aim")
			}
		}
	}
}

func BenchmarkFig16ChannelScaling(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		pts, _, err := experiments.Fig16ChannelScaling()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(pts[len(pts)-1].Speedup, "speedup-at-8ch")
	}
}

func BenchmarkFig17MultiTenancy(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, _, err := experiments.Fig17MultiTenancy()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Isolation, "isolation-benefit")
	}
}

func BenchmarkHWOverhead(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r, _ := experiments.HWOverhead()
		b.ReportMetric(r.RouterToStopRatio, "router/stop-area")
		b.ReportMetric(r.StopAreaOverheadPct, "stop-area-overhead-%")
	}
}

// BenchmarkPIMnetAllReduce measures the simulator itself: how fast one
// 256-DPU AllReduce compiles and executes (plan building, contention
// checking, resource reservation).
func BenchmarkPIMnetAllReduce(b *testing.B) {
	b.ReportAllocs()
	sys, err := pimnet.DefaultSystem().WithDPUs(256)
	if err != nil {
		b.Fatal(err)
	}
	p, err := pimnet.NewPIMnet(sys)
	if err != nil {
		b.Fatal(err)
	}
	req := pimnet.Request{Pattern: pimnet.AllReduce, Op: pimnet.Sum,
		BytesPerNode: 32 << 10, ElemSize: 4, Nodes: 256}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.Collective(req); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPIMnetAllToAll measures the simulator on the densest plan
// (65k-block personalized exchange).
func BenchmarkPIMnetAllToAll(b *testing.B) {
	b.ReportAllocs()
	sys, err := pimnet.DefaultSystem().WithDPUs(256)
	if err != nil {
		b.Fatal(err)
	}
	p, err := pimnet.NewPIMnet(sys)
	if err != nil {
		b.Fatal(err)
	}
	req := pimnet.Request{Pattern: pimnet.AllToAll, Op: pimnet.Sum,
		BytesPerNode: 32 << 10, ElemSize: 4, Nodes: 256}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.Collective(req); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHierarchicalAllReduceVerify measures the data-level oracle on
// the full 256-node hierarchy (the correctness path, not the timing path).
func BenchmarkHierarchicalAllReduceVerify(b *testing.B) {
	b.ReportAllocs()
	d := collective.NewData(256, 1024, 42)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := d.Clone()
		if err := collective.HierarchicalAllReduce(c, 4, 8, 8, collective.Sum); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationFlatVsHierarchical(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rows, _, err := experiments.AblationFlatVsHierarchical()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rows[len(rows)-1].HierAdvantage, "hier-advantage-at-1us-step")
	}
}

func BenchmarkAblationSyncSensitivity(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rows, _, err := experiments.AblationSyncSensitivity()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rows[0].SyncShare*100, "sync-share-at-15ns-%")
	}
}

func BenchmarkAblationWRAMStaging(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rows, _, err := experiments.AblationWRAMStaging()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rows[len(rows)-1].MemShare*100, "mem-share-at-512KiB-%")
	}
}

func BenchmarkAblationNocParameters(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rows, _, err := experiments.AblationNocParameters()
		if err != nil {
			b.Fatal(err)
		}
		var def float64
		for _, r := range rows {
			if r.BufferPackets == 2 && r.PacketBytes == 1024 {
				def = r.A2AReduction * 100
			}
		}
		b.ReportMetric(def, "default-a2a-reduction-%")
	}
}

func BenchmarkAblationInterChannel(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rows, _, err := experiments.AblationInterChannel()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rows[len(rows)-1].Benefit, "link-benefit-at-8ch")
	}
}
