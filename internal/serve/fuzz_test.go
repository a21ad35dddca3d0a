package serve

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzDecodeRequest drives the /v1/simulate JSON decoder with arbitrary
// bytes: malformed shapes must come back as structured errors (the handler
// turns them into 400s), never panic. Accepted payloads must normalize to a
// fixed point — re-encoding and re-decoding the echoed request yields the
// same executable point — so the echo in every response is itself a valid
// request.
func FuzzDecodeRequest(f *testing.F) {
	seeds := []string{
		``,
		`{}`,
		`null`,
		`[1,2,3]`,
		`{"pattern": "allreduce"}`,
		`{"pattern": "allreduce", "bytes_per_node": 32768, "dpus": 256}`,
		`{"backend": "baseline", "pattern": "alltoall", "op": "max"}`,
		`{"pattern": "broadcast", "root": 3, "dpus": 8}`,
		`{"workload": "CC", "scaled": false, "seed": 42}`,
		`{"faults": "fail-chip=1,corrupt=0.05", "fault_seed": 7}`,
		`{"trace_level": "link", "step_overhead_ps": 250}`,
		`{"pattern": "allreduce", "dpus": -1}`,
		`{"pattern": "allreduce", "dpus": 1099511627776}`,
		`{"pattern": "allreduce", "bytes_per_node": 9223372036854775807}`,
		`{"patern": "allreduce"}`,
		`{"pattern": "allreduce"} trailing`,
		`{"pattern": 12}`,
		`{"dpus": 3.5}`,
		`{"workload": "CC", "pattern": "allreduce"}`,
		"{\"pattern\": \"\\u0000\"}",
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		echo, pt, err := DecodeSimulateRequest(bytes.NewReader(data))
		if err != nil {
			if err.Error() == "" {
				t.Fatal("error with empty message")
			}
			return
		}
		// The flight key and plan key must be computable for every accepted
		// request — the handler derives them before admission.
		_ = pt.key()

		// The serving cap holds for every accepted point: no request can ask
		// the daemon for a machine larger than maxDPUs.
		if echo.DPUs > maxDPUs || pt.sys.DPUsPerChannel() > maxDPUs {
			t.Fatalf("accepted %d DPUs (%d in the system) past the cap of %d", echo.DPUs, pt.sys.DPUsPerChannel(), maxDPUs)
		}

		// Normalization must be idempotent: the echoed request is complete
		// (no defaults left to apply), so re-normalizing it reproduces the
		// same point and the same coalescing identity.
		echo2, pt2, err := echo.normalize()
		if err != nil {
			t.Fatalf("echoed request failed to re-normalize: %v (echo %+v)", err, echo)
		}
		if pt2.key() != pt.key() {
			t.Fatalf("re-normalization changed the flight key:\n%+v\nvs\n%+v", pt, pt2)
		}
		if !strings.EqualFold(echo2.Workload, echo.Workload) || echo2.Pattern != echo.Pattern {
			t.Fatalf("re-normalization changed the echo: %+v vs %+v", echo, echo2)
		}
	})
}
