package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"pimnet"
	"pimnet/internal/collective"
)

// identity checks that identical requests get byte-identical 2xx bodies:
// within a phase, across passes, and between a fill and its replay.
type identity struct {
	digests  map[string][sha256.Size]byte // path + body -> first 2xx digest
	problems []string
}

func newIdentity() *identity { return &identity{digests: map[string][sha256.Size]byte{}} }

func (id *identity) add(items []item, outs []outcome) {
	for _, o := range outs {
		if !o.ok() {
			continue
		}
		it := items[o.idx]
		key := it.path + " " + string(it.body)
		if prev, ok := id.digests[key]; !ok {
			id.digests[key] = o.digest
		} else if prev != o.digest && len(id.problems) < 10 {
			id.problems = append(id.problems,
				fmt.Sprintf("identical requests got different bodies: %s %s", it.path, it.body))
		}
	}
}

// sampler keeps one daemon body per sampled collective point for the
// post-run library check.
type sampler struct {
	want   map[collectivePoint]bool
	bodies map[collectivePoint][]byte
}

func newSampler(points []collectivePoint) *sampler {
	s := &sampler{want: map[collectivePoint]bool{}, bodies: map[collectivePoint][]byte{}}
	for _, p := range points {
		s.want[p] = true
	}
	return s
}

// keep is the closed loop's body-retention predicate.
func (s *sampler) keep(it item) bool { return it.point != nil && s.want[*it.point] }

func (s *sampler) add(items []item, outs []outcome) {
	for _, o := range outs {
		if p := items[o.idx].point; p != nil && o.ok() && o.body != nil {
			if _, ok := s.bodies[*p]; !ok {
				s.bodies[*p] = o.body
			}
		}
	}
}

// check recomputes every sampled point through the library
// (pimnet.NewBackend(...).Collective) and compares the simulated time and
// breakdown with the daemon's answer. It runs after the timed phases.
func (s *sampler) check() []string {
	points := make([]collectivePoint, 0, len(s.bodies))
	for p := range s.bodies {
		points = append(points, p)
	}
	sort.Slice(points, func(i, j int) bool { return fmt.Sprint(points[i]) < fmt.Sprint(points[j]) })
	var problems []string
	for _, p := range points {
		if err := checkPoint(p, s.bodies[p]); err != nil {
			problems = append(problems, err.Error())
		}
	}
	return problems
}

func checkPoint(p collectivePoint, body []byte) error {
	var got struct {
		TimePs    int64           `json:"time_ps"`
		Breakdown json.RawMessage `json:"breakdown"`
	}
	if err := json.Unmarshal(body, &got); err != nil {
		return fmt.Errorf("library check %+v: decoding daemon body: %v", p, err)
	}
	res, err := libraryCollective(p)
	if err != nil {
		return fmt.Errorf("library check %+v: %v", p, err)
	}
	want, err := json.Marshal(res.Breakdown)
	if err != nil {
		return err
	}
	var gotBD bytes.Buffer
	if err := json.Compact(&gotBD, got.Breakdown); err != nil {
		return fmt.Errorf("library check %+v: breakdown: %v", p, err)
	}
	if int64(res.Time) != got.TimePs || !bytes.Equal(gotBD.Bytes(), want) {
		return fmt.Errorf("library check %+v: daemon time_ps %d breakdown %s, library %d %s",
			p, got.TimePs, gotBD.Bytes(), int64(res.Time), want)
	}
	return nil
}

// libraryCollective runs one point through the library the way the daemon
// does (sum reduction, 4-byte elements, root 0).
func libraryCollective(p collectivePoint, opts ...pimnet.Option) (pimnet.Result, error) {
	kind, err := pimnet.ParseBackendKind(p.Backend)
	if err != nil {
		return pimnet.Result{}, err
	}
	sys, err := pimnet.DefaultSystem().WithDPUs(p.DPUs)
	if err != nil {
		return pimnet.Result{}, err
	}
	be, err := pimnet.NewBackend(kind, sys, opts...)
	if err != nil {
		return pimnet.Result{}, err
	}
	pat, err := collective.ParsePattern(p.Pattern)
	if err != nil {
		return pimnet.Result{}, err
	}
	return be.Collective(pimnet.Request{Pattern: pat, Op: pimnet.Sum,
		BytesPerNode: p.Bytes, ElemSize: 4, Nodes: p.DPUs})
}

// readDigest reads a committed SHA-256 digest from bench/testdata.
func readDigest(root, name string) (string, error) {
	data, err := os.ReadFile(filepath.Join(root, "bench", "testdata", name))
	if err != nil {
		return "", err
	}
	return strings.TrimSpace(string(data)), nil
}

func sha256Hex(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}
