package noc

import (
	"testing"

	"pimnet/internal/sim"
)

// FuzzNocDelivery drives randomized shapes, buffer depths, patterns, rates,
// and payloads through both simulation forms (the scripted one in both
// flow-control modes) and asserts the delivery invariants of the flat core
// via the deliverObserver seam:
//
//   - exactly-once: every observed uid appears once (arena slot recycling
//     must never double-deliver or lose a packet), and every uid lies in
//     1..N for the N packets the run sends, so a run that delivers them all
//     delivers exactly 1..N: a message's segments keep the uids reserved
//     for them at send, however late they become packets;
//   - the observed delivery count equals Result.PacketsDelivered;
//   - monotone timestamps: arrivals are observed in nondecreasing time
//     order, and every arrival strictly follows its packet's injection.
func FuzzNocDelivery(f *testing.F) {
	f.Add(uint8(2), uint8(4), uint8(8), uint8(0), false, int64(8192), uint8(2), int64(7), false, uint8(2))
	f.Add(uint8(1), uint8(2), uint8(4), uint8(1), true, int64(100), uint8(3), int64(1), false, uint8(1))
	f.Add(uint8(2), uint8(2), uint8(2), uint8(4), false, int64(1<<16), uint8(1), int64(42), true, uint8(4))
	f.Add(uint8(1), uint8(1), uint8(5), uint8(3), true, int64(1), uint8(4), int64(-3), true, uint8(2))
	f.Add(uint8(2), uint8(3), uint8(7), uint8(2), false, int64(3000), uint8(2), int64(99), false, uint8(3))
	f.Add(uint8(2), uint8(4), uint8(8), uint8(2), true, int64(5000), uint8(3), int64(5), true, uint8(1))
	f.Add(uint8(1), uint8(4), uint8(4), uint8(1), true, int64(40000), uint8(2), int64(8), false, uint8(4))

	f.Fuzz(func(t *testing.T, ranks, chips, banks, pat uint8, scripted bool,
		bytes int64, steps uint8, seed int64, static bool, buf uint8) {
		cfg := DefaultConfig(int(ranks%3), int(chips%5), int(banks%9))
		if cfg.Nodes() < 2 || cfg.Ranks < 1 || cfg.Chips < 1 || cfg.Banks < 1 {
			t.Skip("degenerate shape")
		}
		cfg.BufferPackets = int(buf%4) + 1
		mode := CreditBased
		if static {
			mode = StaticScheduled
		}
		pattern := TrafficPattern(pat % 5)
		if bytes < 1 {
			bytes = 1
		}
		bytes %= 1 << 18

		seen := make(map[int64]int)
		last := sim.Time(-1)
		var observed int64
		deliverObserver = func(uid int64, born, at sim.Time) {
			observed++
			seen[uid]++
			if seen[uid] > 1 {
				t.Errorf("uid %d delivered %d times", uid, seen[uid])
			}
			if at < last {
				t.Errorf("arrival at %v observed after %v: delivery order not monotone", at, last)
			}
			last = at
			if at <= born {
				t.Errorf("uid %d arrived at %v, not after its injection at %v", uid, at, born)
			}
		}
		defer func() { deliverObserver = nil }()

		var delivered, sent int64
		if scripted {
			res, err := SimulatePattern(cfg, mode, pattern,
				make([]sim.Time, cfg.Nodes()), bytes+1, int(steps%4)+1, seed)
			if err != nil {
				t.Fatal(err)
			}
			delivered = res.PacketsDelivered
			for _, s := range patternScripts(pattern, cfg.Nodes(), int(steps%4)+1, bytes+1, seed) {
				for _, m := range s.msgs {
					sent += (m.bytes + cfg.PacketBytes - 1) / cfg.PacketBytes
				}
			}
		} else {
			res, err := SimulateTraffic(cfg, TrafficSpec{Pattern: pattern,
				PerNodeBps: float64(bytes%100000 + 1e6), Duration: 50 * sim.Microsecond, Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			delivered, sent = res.PacketsDelivered, res.Injected
		}
		if sent < delivered {
			t.Errorf("delivered %d of %d packets sent", delivered, sent)
		}
		if observed != delivered {
			t.Errorf("observed %d deliveries, result reports %d", observed, delivered)
		}
		if int64(len(seen)) != delivered {
			t.Errorf("%d distinct uids for %d deliveries", len(seen), delivered)
		}
		for uid := range seen {
			if uid < 1 || uid > sent {
				t.Errorf("uid %d delivered; the run's %d packets carry uids 1..%d", uid, sent, sent)
			}
		}
	})
}
