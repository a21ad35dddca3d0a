package serve

import (
	"bytes"
	"flag"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "regenerate testdata/golden/*.txt")

// goldenCase is one request of the response-body corpus. job, when set,
// submits body as an async job of that kind and replays its result through
// GET /v1/jobs/{id}/result instead of calling the endpoint directly.
type goldenCase struct {
	name, method, path, body, job string
}

// goldenCases cover every endpoint's success shape on all six backends and
// each error envelope class. Every case names a distinct point, so running
// them in order on one store-backed server exercises the cold write and,
// after a restart, the warm read of each one.
var goldenCases = []goldenCase{
	{name: "simulate-pimnet", path: "/v1/simulate", body: `{"backend":"pimnet","pattern":"allreduce","dpus":64,"bytes_per_node":4096}`},
	{name: "simulate-baseline", path: "/v1/simulate", body: `{"backend":"baseline","pattern":"allreduce","dpus":64,"bytes_per_node":4096}`},
	{name: "simulate-ideal", path: "/v1/simulate", body: `{"backend":"ideal","pattern":"allreduce","dpus":64,"bytes_per_node":4096}`},
	{name: "simulate-ndpbridge", path: "/v1/simulate", body: `{"backend":"ndpbridge","pattern":"alltoall","dpus":64,"bytes_per_node":4096}`},
	{name: "simulate-dimmlink", path: "/v1/simulate", body: `{"backend":"dimmlink","pattern":"allreduce","dpus":64,"bytes_per_node":4096}`},
	{name: "simulate-cxlpim", path: "/v1/simulate", body: `{"backend":"CXL-PIM","pattern":"allreduce","dpus":256,"bytes_per_node":4096}`},
	{name: "simulate-alias-echo", path: "/v1/simulate", body: `{"backend":"P","pattern":"Broadcast","op":"MAX","dpus":8,"root":3}`},
	{name: "simulate-workload", path: "/v1/simulate", body: `{"workload":"gemv","dpus":64}`},
	{name: "simulate-workload-baseline", path: "/v1/simulate", body: `{"backend":"baseline","workload":"pimfused","dpus":64,"seed":3}`},
	{name: "simulate-faults", path: "/v1/simulate", body: `{"pattern":"allreduce","dpus":64,"faults":"fail-chip=1","fault_seed":7}`},
	{name: "simulate-trace-link", path: "/v1/simulate", body: `{"pattern":"allreduce","dpus":64,"trace_level":"link"}`},
	{name: "simulate-step-overhead", path: "/v1/simulate", body: `{"pattern":"allreduce","dpus":64,"bytes_per_node":4096,"step_overhead_ps":250}`},
	{name: "sweep", path: "/v1/sweep", body: `{"pattern":"allreduce","dpus":[8,64],"bytes_per_node":[4096,16384]}`},
	{name: "sweep-baseline", path: "/v1/sweep", body: `{"backend":"baseline","pattern":"alltoall","dpus":[8],"bytes_per_node":[1024,2048],"workers":1}`},
	{name: "chunk", path: "/v1/chunk", body: `{"pattern":"allreduce","chunk":1,"points":[{"dpus":64,"bytes_per_node":16384},{"dpus":8,"bytes_per_node":4096}]}`},
	{name: "noc-sweep", path: "/v1/noc/sweep", body: `{"ranks":2,"chips":4,"banks":8,"patterns":["hotspot","tornado"],"steps":2}`},
	{name: "noc-sweep-all-patterns", path: "/v1/noc/sweep", body: `{"ranks":2,"chips":2,"banks":4,"bytes_per_node":4096,"steps":1}`},
	{name: "job-simulate", job: "simulate", body: `{"pattern":"reduce","dpus":64,"bytes_per_node":4096}`},
	{name: "job-sweep", job: "sweep", body: `{"pattern":"alltoall","dpus":[8,16],"bytes_per_node":[512]}`},
	{name: "job-noc-sweep", job: "noc_sweep", body: `{"ranks":2,"chips":2,"banks":4,"patterns":["uniform"],"steps":1}`},
	{name: "400-simulate-pattern", path: "/v1/simulate", body: `{"pattern":"allscatter"}`},
	{name: "400-simulate-unknown-workload", path: "/v1/simulate", body: `{"workload":"resnet","dpus":64}`},
	{name: "400-simulate-unknown-field", path: "/v1/simulate", body: `{"patern":"allreduce"}`},
	{name: "400-sweep-no-dpus", path: "/v1/sweep", body: `{"pattern":"allreduce","bytes_per_node":[4096]}`},
	{name: "400-chunk-no-points", path: "/v1/chunk", body: `{"pattern":"allreduce","points":[]}`},
	{name: "400-noc-mode", path: "/v1/noc/sweep", body: `{"modes":["tcp"]}`},
	{name: "400-job-kind", path: "/v1/jobs", body: `{"kind":"explode","request":{}}`},
	{name: "404-path", method: "GET", path: "/v1/nope"},
	{name: "404-job", method: "GET", path: "/v1/jobs/j-999999/result"},
	{name: "405-simulate", method: "GET", path: "/v1/simulate"},
	{name: "405-healthz", path: "/healthz", body: `{}`},
	{name: "422-simulate", path: "/v1/simulate", body: `{"backend":"ndpbridge","pattern":"allreduce","dpus":64}`},
	{name: "422-sweep", path: "/v1/sweep", body: `{"backend":"ndpbridge","pattern":"allreduce","dpus":[8,64],"bytes_per_node":[4096]}`},
	{name: "422-chunk", path: "/v1/chunk", body: `{"backend":"ndpbridge","pattern":"allreduce","points":[{"dpus":8,"bytes_per_node":4096},{"dpus":64,"bytes_per_node":4096}]}`},
}

// goldenBody renders one response as the corpus stores it: the status line,
// then the body with the wall-clock "stats" member (always last) cut out.
func goldenBody(status int, body []byte) []byte {
	if i := bytes.Index(body, []byte(`,"stats":`)); i >= 0 {
		body = append(body[:i:i], '}')
	}
	return []byte(fmt.Sprintf("%d\n%s\n", status, body))
}

// goldenResponse issues one corpus case against a server.
func goldenResponse(t *testing.T, url string, c goldenCase) []byte {
	t.Helper()
	if c.job != "" {
		view := submitJob(t, url, c.job, "", c.body)
		waitJob(t, url, view.ID)
		status, body := get(t, url+"/v1/jobs/"+view.ID+"/result")
		return goldenBody(status, body)
	}
	method := c.method
	if method == "" {
		method = http.MethodPost
	}
	req, err := http.NewRequest(method, url+c.path, strings.NewReader(c.body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body bytes.Buffer
	if _, err := body.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return goldenBody(resp.StatusCode, body.Bytes())
}

// TestGoldenResponses locks every endpoint's response bytes: a storeless
// server, a store-backed server filling an empty store, and a restarted
// server answering from that store must all reproduce the corpus exactly.
// Regenerate with `make golden` after an intentional change.
func TestGoldenResponses(t *testing.T) {
	dir := t.TempDir()
	modes := []struct {
		name string
		cfg  func() Config
	}{
		{"storeless", func() Config { return Config{} }},
		{"store-cold", func() Config { return Config{Store: openStore(t, dir)} }},
		{"store-warm", func() Config { return Config{Store: openStore(t, dir)} }},
	}
	for _, m := range modes {
		if *update && m.name != "storeless" {
			continue
		}
		t.Run(m.name, func(t *testing.T) {
			_, ts := newTestServer(t, m.cfg())
			defer ts.Close()
			for _, c := range goldenCases {
				got := goldenResponse(t, ts.URL, c)
				path := filepath.Join("testdata", "golden", c.name+".txt")
				if *update {
					if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
						t.Fatal(err)
					}
					if err := os.WriteFile(path, got, 0o644); err != nil {
						t.Fatal(err)
					}
					continue
				}
				want, err := os.ReadFile(path)
				if err != nil {
					t.Fatalf("%s: %v (run make golden)", c.name, err)
				}
				if !bytes.Equal(got, want) {
					t.Errorf("%s: response diverged from the corpus:\n got %s\nwant %s", c.name, got, want)
				}
			}
		})
	}
}
