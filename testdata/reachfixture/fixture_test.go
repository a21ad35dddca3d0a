package reachfixture

import "testing"

func TestReset(t *testing.T) {
	x := T{n: 1}
	x.Reset()
	if x.n != 0 || describe(&U{n: 1}) != "S 0" {
		t.Fatal("Reset kept state")
	}
}
