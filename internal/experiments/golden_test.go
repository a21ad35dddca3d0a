package experiments

import (
	"flag"
	"os"
	"path/filepath"
	"testing"
)

// update regenerates testdata/nocfigs.csv after an intentional change:
//
//	go test ./internal/experiments -run TestNocFiguresGolden -update
var update = flag.Bool("update", false, "regenerate testdata/nocfigs.csv")

// TestNocFiguresGolden locks the bytes of the packet-NoC flow-control
// studies: the Fig. 13 table followed by the A4 table, exactly as
// `pimnetbench -fig 13 -csv` and `pimnetbench -fig a4 -csv` print them.
func TestNocFiguresGolden(t *testing.T) {
	_, fig13, err := Fig13FlowControl()
	if err != nil {
		t.Fatal(err)
	}
	_, a4, err := AblationNocParameters()
	if err != nil {
		t.Fatal(err)
	}
	got := fig13.CSV() + a4.CSV()
	path := filepath.Join("testdata", "nocfigs.csv")
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Fatalf("Fig. 13 / A4 CSV drifted from %s (rerun with -update if intended):\n--- got ---\n%s--- want ---\n%s",
			path, got, want)
	}
}
