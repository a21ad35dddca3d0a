package core

import (
	"testing"
	"testing/quick"
)

func TestTopologyRoundTrip(t *testing.T) {
	topo := Topology{Ranks: 4, Chips: 8, Banks: 8}
	if topo.Nodes() != 256 {
		t.Fatalf("nodes = %d", topo.Nodes())
	}
	for id := NodeID(0); int(id) < topo.Nodes(); id++ {
		c := topo.Coord(id)
		if topo.ID(c) != id {
			t.Fatalf("roundtrip failed for node %d: coord %+v", id, c)
		}
	}
	// Spot checks of the packing order.
	if c := topo.Coord(0); c != (Coord{0, 0, 0}) {
		t.Fatalf("node 0 coord %+v", c)
	}
	if c := topo.Coord(8); c != (Coord{Rank: 0, Chip: 1, Bank: 0}) {
		t.Fatalf("node 8 coord %+v", c)
	}
	if c := topo.Coord(64); c != (Coord{Rank: 1, Chip: 0, Bank: 0}) {
		t.Fatalf("node 64 coord %+v", c)
	}
	if c := topo.Coord(255); c != (Coord{Rank: 3, Chip: 7, Bank: 7}) {
		t.Fatalf("node 255 coord %+v", c)
	}
}

func TestTopologyRoundTripProperty(t *testing.T) {
	f := func(r, c, b uint8, sel uint16) bool {
		topo := Topology{Ranks: int(r)%5 + 1, Chips: int(c)%9 + 1, Banks: int(b)%9 + 1}
		id := NodeID(int(sel) % topo.Nodes())
		return topo.ID(topo.Coord(id)) == id
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTopologyPanics(t *testing.T) {
	topo := Topology{Ranks: 2, Chips: 2, Banks: 2}
	for _, fn := range []func(){
		func() { topo.Coord(8) },
		func() { topo.Coord(-1) },
		func() { topo.ID(Coord{Rank: 2}) },
		func() { topo.ID(Coord{Bank: -1}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestSameChipSameRank(t *testing.T) {
	topo := Topology{Ranks: 2, Chips: 2, Banks: 2}
	if topo.Coord(0) != (Coord{0, 0, 0}) || topo.Coord(1) != (Coord{0, 0, 1}) {
		t.Fatal("banks 0,1 share a chip")
	}
	if topo.Coord(2).Chip != 1 {
		t.Fatal("nodes 1,2 are on different chips")
	}
	if topo.Coord(3).Rank != 0 || topo.Coord(4).Rank != 1 {
		t.Fatal("nodes 0-3 share rank 0, node 4 is on rank 1")
	}
	if topo.String() != "2x2x2" {
		t.Fatalf("String = %q", topo.String())
	}
}
