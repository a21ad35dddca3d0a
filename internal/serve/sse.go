package serve

import (
	"encoding/json"
	"net/http"
)

// Server-sent events for GET /v1/jobs/{id}/events. The stream opens with a
// "status" event (the subscription-time JobView), emits a "progress" event
// per executor report, and closes with a terminal "done" event carrying the
// final JobView. SSE needs no client library — curl -N and an
// http.Response body scanner both consume it — which keeps the daemon
// dependency-free.

// sseWriter frames events onto one streaming response.
type sseWriter struct {
	w http.ResponseWriter
	f http.Flusher
}

// newSSE upgrades a response to an event stream. It reports false when the
// ResponseWriter cannot flush (no streaming transport — the handler then
// answers a plain error).
func newSSE(w http.ResponseWriter) (*sseWriter, bool) {
	f, ok := w.(http.Flusher)
	if !ok {
		return nil, false
	}
	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("Connection", "keep-alive")
	h.Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)
	f.Flush()
	return &sseWriter{w: w, f: f}, true
}

// send frames one named event with a JSON data payload and flushes it.
func (s *sseWriter) send(event string, v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return err
	}
	if _, err := s.w.Write([]byte("event: " + event + "\ndata: ")); err != nil {
		return err
	}
	if _, err := s.w.Write(data); err != nil {
		return err
	}
	if _, err := s.w.Write([]byte("\n\n")); err != nil {
		return err
	}
	s.f.Flush()
	return nil
}

// sseProgress is the wire form of one "progress" event.
type sseProgress struct {
	Done  int `json:"done"`
	Total int `json:"total"`
	// Chunk is the completed cluster chunk's index (-1 for per-point
	// progress from a local sweep).
	Chunk int `json:"chunk"`
	// Points carries the just-completed results when the executor has them
	// in wire form.
	Points []SweepPoint `json:"points,omitempty"`
}

// handleJobEvents is GET /v1/jobs/{id}/events: the live progress stream.
// The handler deliberately skips the drain tracker — a subscriber is a
// long-lived observer, not admitted work — and the job runs on a
// server-owned context, so a client disconnecting mid-stream never cancels
// the job it was watching.
func (s *Server) handleJobEvents(w http.ResponseWriter, r *http.Request) {
	s.met.jobEvents.Add(1)
	id := r.PathValue("id")
	j, sub, view, ok := s.jobs.subscribe(id)
	if !ok {
		s.write(w, notFoundResponse("no such job: "+id))
		return
	}
	defer s.jobs.unsubscribe(j, sub)

	sse, ok := newSSE(w)
	if !ok {
		s.write(w, errorResponse(http.StatusInternalServerError,
			http.ErrNotSupported))
		return
	}
	if err := sse.send("status", view); err != nil {
		return
	}
	progress := func(ev ProgressEvent) error {
		return sse.send("progress", sseProgress{Done: ev.Done, Total: ev.Total, Chunk: ev.Chunk, Points: ev.Points})
	}
	for {
		select {
		case ev := <-sub.ch:
			if err := progress(ev); err != nil {
				return
			}
		case <-j.doneCh:
			// select picks among ready cases at random, so progress the job
			// published before it finished may still be buffered: send it
			// first, so a stream never ends before progress it was given.
			for len(sub.ch) > 0 {
				if err := progress(<-sub.ch); err != nil {
					return
				}
			}
			final, _ := s.jobs.view(id, false)
			sse.send("done", final)
			return
		case <-s.jobs.drainCh:
			// Server draining: close the stream with the current status; the
			// client re-polls /v1/jobs/{id} after the restart.
			cur, _ := s.jobs.view(id, false)
			sse.send("status", cur)
			return
		case <-r.Context().Done():
			// Client went away; the job keeps running.
			return
		}
	}
}
