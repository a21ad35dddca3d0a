package serve

import (
	"bytes"
	"encoding/json"

	"pimnet/internal/store"
)

// This file wires the persistent result store (internal/store) into the
// serving tier. The store holds two shapes under store.NSResults. The
// first is a point's record, keyed by point.key — the same identity the
// coalescer uses — so a result computed for any endpoint (simulate, sweep,
// chunk, NoC sweep, or a job) answers every later request for the point,
// across process lifetimes. The second is an interrupted job's final
// JobView, an audit record jobManager.persistInterrupted writes at
// shutdown under jobRecordKey; no request reads it back.
//
// Only completed points are stored; a failing point, a shed or cancelled
// execution never enters the store. Reads are strictly best-effort: a miss,
// a torn blob, a bit flip, or a payload that does not decode strictly into a
// record all fall back to recompute — the store can skip work, never change
// bytes.

// storeGet returns the stored record under key k, if any. A payload that no
// longer decodes into a record, or decodes into an empty one (no point's
// result is empty), is codec-level corruption: rejected (counted) and
// recomputed, never served.
func (s *Server) storeGet(k string) (record, bool) {
	if s.cfg.Store == nil {
		return record{}, false
	}
	payload, ok := s.cfg.Store.Get(store.NSResults, k)
	if !ok {
		return record{}, false
	}
	var rec record
	if err := decodeJSON(bytes.NewReader(payload), &rec); err != nil || rec == (record{}) {
		s.cfg.Store.Reject(k)
		return record{}, false
	}
	return rec, true
}

// storePut persists one completed point. Write-behind is best-effort: an
// eviction race or divergence rejection only means the next identical
// point recomputes.
func (s *Server) storePut(k string, rec record) {
	if s.cfg.Store == nil {
		return
	}
	payload, err := json.Marshal(rec)
	if err != nil {
		return
	}
	s.cfg.Store.Put(store.NSResults, k, payload)
}
