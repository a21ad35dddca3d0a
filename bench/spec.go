package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
)

// spec mirrors BENCHMARK.json at the repository root: the command that runs
// the benchmark, its workloads, and every metric with its unit, direction
// and (for end-to-end metrics) the regression bound.
type spec struct {
	Command    []string     `json:"command"`
	Paths      []string     `json:"paths"`
	RunSeconds int          `json:"run_seconds"`
	Workloads  []specLoad   `json:"workloads"`
	EndToEnd   []specMetric `json:"end_to_end"`
	PerLayer   []specMetric `json:"per_layer"`
}

type specLoad struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// loadSpec reads and validates BENCHMARK.json under root.
func loadSpec(root string) (*spec, error) {
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	if err := s.validate(); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &s, nil
}

// validate enforces the structural limits of the benchmark description:
// 2 to 8 workloads, 1 to 16 end-to-end metrics (setup_s among them), 1 to
// 128 per-layer metrics, unique well-formed names, and bounds in (0, 0.25].
func (s *spec) validate() error {
	if n := len(s.Workloads); n < 2 || n > 8 {
		return fmt.Errorf("%d workloads, want 2 to 8", n)
	}
	if n := len(s.EndToEnd); n < 1 || n > 16 {
		return fmt.Errorf("%d end-to-end metrics, want 1 to 16", n)
	}
	if n := len(s.PerLayer); n < 1 || n > 128 {
		return fmt.Errorf("%d per-layer metrics, want 1 to 128", n)
	}
	if s.RunSeconds < 1 || s.RunSeconds > 60 {
		return fmt.Errorf("run_seconds %d, want 1 to 60", s.RunSeconds)
	}
	seen := map[string]bool{}
	name := func(n string) error {
		if !nameRE.MatchString(n) {
			return fmt.Errorf("name %q is not [A-Za-z0-9][A-Za-z0-9_.-]*", n)
		}
		if seen[n] {
			return fmt.Errorf("name %q used twice", n)
		}
		seen[n] = true
		return nil
	}
	for _, w := range s.Workloads {
		if err := name(w.Name); err != nil {
			return err
		}
		if w.Why == "" || len(w.Why) > 200 {
			return fmt.Errorf("workload %s: why must be 1 to 200 characters", w.Name)
		}
	}
	setup := false
	for _, m := range s.EndToEnd {
		if err := s.checkMetric(m, name); err != nil {
			return err
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			return fmt.Errorf("metric %s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			setup = m.Unit == "s" && m.Better == "lower"
		}
	}
	if !setup {
		return fmt.Errorf("end-to-end metrics need setup_s in s, lower is better")
	}
	for _, m := range s.PerLayer {
		if err := s.checkMetric(m, name); err != nil {
			return err
		}
		if m.Bound != 0 {
			return fmt.Errorf("per-layer metric %s has a bound", m.Name)
		}
	}
	return nil
}

func (s *spec) checkMetric(m specMetric, name func(string) error) error {
	if err := name(m.Name); err != nil {
		return err
	}
	if !unitRE.MatchString(m.Unit) {
		return fmt.Errorf("metric %s: unit %q", m.Name, m.Unit)
	}
	if m.Better != "lower" && m.Better != "higher" {
		return fmt.Errorf("metric %s: better %q, want lower or higher", m.Name, m.Better)
	}
	return nil
}
