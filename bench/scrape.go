package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
)

// promScrape is one /metrics exposition: series (name plus labels, exactly
// as exposed) to value.
type promScrape map[string]float64

// scrapeMetrics fetches and parses the daemon's Prometheus exposition.
func scrapeMetrics(ctx context.Context, base string) (promScrape, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, fmt.Errorf("scraping /metrics: %w", err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("scraping /metrics: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scraping /metrics: status %d", resp.StatusCode)
	}
	return parseProm(data)
}

// parseProm parses Prometheus text exposition samples, skipping comments.
func parseProm(data []byte) (promScrape, error) {
	out := promScrape{}
	sc := bufio.NewScanner(bytes.NewReader(data))
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			return nil, fmt.Errorf("malformed exposition line %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("malformed exposition line %q: %w", line, err)
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// scrapeDelta is the change in the daemon's counters over a measured phase.
type scrapeDelta struct {
	planHits, planLookups   float64
	storeHits, storeLookups float64
	coalesced, rejected     float64
}

func diffScrape(before, after promScrape) scrapeDelta {
	d := func(name string) float64 { return after[name] - before[name] }
	hits := d("pimnetd_plan_cache_hits_total") + d("pimnetd_plan_cache_disk_hits_total")
	storeHits := d(`pimnetd_store_hits_total{namespace="results"}`)
	return scrapeDelta{
		planHits:     hits,
		planLookups:  hits + d("pimnetd_plan_cache_misses_total"),
		storeHits:    storeHits,
		storeLookups: storeHits + d(`pimnetd_store_misses_total{namespace="results"}`),
		coalesced:    d("pimnetd_coalesced_total"),
		rejected:     d("pimnetd_rejected_total"),
	}
}

func (s *scrapeDelta) add(o scrapeDelta) {
	s.planHits += o.planHits
	s.planLookups += o.planLookups
	s.storeHits += o.storeHits
	s.storeLookups += o.storeLookups
	s.coalesced += o.coalesced
	s.rejected += o.rejected
}

// ratio is hits over lookups, 0 when nothing was looked up.
func ratio(hits, lookups float64) float64 {
	if lookups == 0 {
		return 0
	}
	return hits / lookups
}
