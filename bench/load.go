package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// outcome is the result of one request of a closed-loop run.
type outcome struct {
	idx    int // index of the item in the stream
	status int // 0 when the transport failed
	lat    time.Duration
	digest [sha256.Size]byte // of the body, with sweep "stats" removed
	body   []byte            // kept only when the caller asked for it
}

// ok reports whether the request completed with a 2xx status.
func (o outcome) ok() bool { return o.status >= 200 && o.status < 300 }

// barrier releases its waiters once n of them have arrived.
type barrier struct {
	n       int32
	arrived atomic.Int32
	open    chan struct{}
}

func (b *barrier) wait(ctx context.Context) {
	if b.arrived.Add(1) == b.n {
		close(b.open)
	}
	select {
	case <-b.open:
	case <-ctx.Done():
	}
}

// closedLoop is a fixed set of clients, each on its own keep-alive
// connection, that each send their next request only when the previous
// response has been read in full.
type closedLoop struct {
	base    string
	clients int
	rec     *recorder // nil when tracing is off
	parent  active
	// keep reports whether the body of a request must be kept in its
	// outcome (for the post-run library check).
	keep func(it item) bool
}

// run sends every item, in order across the clients, and returns one
// outcome per request plus the wall time of the whole run. A twin item is
// sent by every client at once: its copies meet at a barrier, so they reach
// the daemon concurrently. With a single client a twin is sent once. When
// ctx ends early the outcomes are incomplete and the caller must discard
// them.
func (l closedLoop) run(ctx context.Context, items []item) ([]outcome, time.Duration) {
	type job struct {
		idx int
		bar *barrier
	}
	var jobs []job
	for i, it := range items {
		if !it.twin || l.clients < 2 {
			jobs = append(jobs, job{idx: i})
			continue
		}
		b := &barrier{n: int32(l.clients), open: make(chan struct{})}
		for c := 0; c < l.clients; c++ {
			jobs = append(jobs, job{idx: i, bar: b})
		}
	}
	outs := make([]outcome, len(jobs))
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < l.clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tr := &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true}
			client := &http.Client{Transport: tr}
			defer tr.CloseIdleConnections()
			for ctx.Err() == nil {
				j := int(next.Add(1) - 1)
				if j >= len(jobs) {
					return
				}
				jb := jobs[j]
				it := items[jb.idx]
				if jb.bar != nil {
					jb.bar.wait(ctx)
				}
				sp := l.rec.start("client."+it.kind, l.parent, int64(j))
				o := send(ctx, client, l.base+it.path, it.body, l.keep != nil && l.keep(it))
				sp.end()
				o.idx = jb.idx
				outs[j] = o
			}
		}()
	}
	wg.Wait()
	return outs, time.Since(start)
}

// send performs one POST and times it from just before the request is
// written to just after the last byte of the response is read.
func send(ctx context.Context, client *http.Client, url string, body []byte, keep bool) outcome {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return outcome{}
	}
	req.Header.Set("Content-Type", "application/json")
	start := time.Now()
	resp, err := client.Do(req)
	if err != nil {
		return outcome{lat: time.Since(start)}
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	lat := time.Since(start)
	if err != nil {
		return outcome{lat: lat}
	}
	o := outcome{status: resp.StatusCode, lat: lat, digest: sha256.Sum256(stripStats(data))}
	if keep {
		o.body = data
	}
	return o
}

// stripStats removes the wall-clock "stats" member that sweep responses
// carry, leaving only the deterministic part of the body. Other bodies are
// returned unchanged.
func stripStats(body []byte) []byte {
	if !bytes.Contains(body, []byte(`"stats":`)) {
		return body
	}
	var m map[string]json.RawMessage
	if err := json.Unmarshal(body, &m); err != nil {
		return body
	}
	delete(m, "stats")
	out, err := json.Marshal(m)
	if err != nil {
		return body
	}
	return out
}
