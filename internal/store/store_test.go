package store

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// testFP is a stand-in fingerprint: the unit battery exercises the blob and
// directory machinery, not probe compilation (fingerprint_test covers that).
const testFP = "test-fingerprint"

// open opens a store on dir with the test fingerprint, failing the test on
// error.
func open(t *testing.T, dir string, max int64) *Store {
	t.Helper()
	s, err := Open(Config{Dir: dir, MaxBytes: max, Fingerprint: testFP})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// key derives a valid store key from any string (lowercase hex, fanned out).
func key(s string) string {
	return fmt.Sprintf("%x", sha256.Sum256([]byte(s)))
}

// mustPut stores payload, failing the test on error.
func mustPut(t *testing.T, s *Store, k string, payload []byte) {
	t.Helper()
	if err := s.Put(NSResults, k, payload); err != nil {
		t.Fatalf("Put(%.12s..): %v", k, err)
	}
}

// TestPutGetRoundTrip: the fundamental contract — what goes in comes out
// verbatim, including empty and binary payloads.
func TestPutGetRoundTrip(t *testing.T) {
	s := open(t, t.TempDir(), 0)
	payloads := map[string][]byte{
		"empty":  {},
		"json":   []byte(`{"time_ps": 123456}`),
		"binary": {0x00, 0xff, 0x7f, 0x80, '\n', 0x00},
	}
	for name, want := range payloads {
		k := key(name)
		mustPut(t, s, k, want)
		got, ok := s.Get(NSResults, k)
		if !ok {
			t.Fatalf("%s: stored payload missing", name)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: got %q, want %q", name, got, want)
		}
	}
	st := s.Stats()
	if st.Entries != len(payloads) {
		t.Fatalf("Entries = %d, want %d", st.Entries, len(payloads))
	}
	if st.Writes != uint64(len(payloads)) {
		t.Fatalf("writes = %d, want %d", st.Writes, len(payloads))
	}
	if st.Hits != uint64(len(payloads)) {
		t.Fatalf("hits = %d, want %d", st.Hits, len(payloads))
	}
}

// TestGetMiss: an absent key is a counted miss, not an error.
func TestGetMiss(t *testing.T) {
	s := open(t, t.TempDir(), 0)
	if _, ok := s.Get(NSResults, key("absent")); ok {
		t.Fatal("Get of absent key reported ok")
	}
	if st := s.Stats(); st.Misses != 1 {
		t.Fatalf("Misses = %d, want 1", st.Misses)
	}
}

// TestInvalidInputs: bad namespaces (the retired "plans" among them) and
// non-hex keys are rejected without touching the disk — Put errors, Get
// misses.
func TestInvalidInputs(t *testing.T) {
	s := open(t, t.TempDir(), 0)
	for _, ns := range []string{"schemes", "plans"} {
		if err := s.Put(ns, key("x"), []byte("p")); err == nil {
			t.Fatalf("Put accepted the unknown namespace %q", ns)
		}
	}
	for _, bad := range []string{"", "a", "UPPERHEX00", "..", "../../etc/passwd", "zz00"} {
		if err := s.Put(NSResults, bad, []byte("p")); err == nil {
			t.Fatalf("Put accepted key %q", bad)
		}
		if _, ok := s.Get(NSResults, bad); ok {
			t.Fatalf("Get(%q) reported ok", bad)
		}
	}
}

// TestDuplicateWrites: an agreeing duplicate is a no-op; a divergent one is
// a loud ErrDivergent, counted, and the original bytes survive.
func TestDuplicateWrites(t *testing.T) {
	s := open(t, t.TempDir(), 0)
	k := key("dup")
	want := []byte("the one true result")
	mustPut(t, s, k, want)
	mustPut(t, s, k, want) // agreeing duplicate: fine

	err := s.Put(NSResults, k, []byte("a different result"))
	if !errors.Is(err, ErrDivergent) {
		t.Fatalf("divergent Put: err = %v, want ErrDivergent", err)
	}
	got, ok := s.Get(NSResults, k)
	if !ok || !bytes.Equal(got, want) {
		t.Fatalf("after divergent write: got %q ok=%v, want original %q", got, ok, want)
	}
	st := s.Stats()
	if st.Divergent != 1 {
		t.Fatalf("Divergent = %d, want 1", st.Divergent)
	}
	if st.Writes != 1 {
		t.Fatalf("Writes = %d, want 1 (duplicates must not recount)", st.Writes)
	}
}

// TestReopenKeepsEntries: a clean restart sees every stored blob, verbatim.
func TestReopenKeepsEntries(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, 0)
	want := map[string][]byte{}
	for i := 0; i < 8; i++ {
		k := key(fmt.Sprint("entry", i))
		p := []byte(fmt.Sprint("payload ", i))
		want[k] = p
		mustPut(t, s, k, p)
	}

	s2 := open(t, dir, 0)
	for k, p := range want {
		got, ok := s2.Get(NSResults, k)
		if !ok || !bytes.Equal(got, p) {
			t.Fatalf("after reopen: %0.12s.. got %q ok=%v, want %q", k, got, ok, p)
		}
	}
	st := s2.Stats()
	if st.Entries != len(want) {
		t.Fatalf("after reopen: Entries = %d, want %d", st.Entries, len(want))
	}
	if st.Bytes == 0 {
		t.Fatalf("after reopen: Bytes = %d", st.Bytes)
	}
}

// TestVersionMismatchPurges: a store stamped by a different fingerprint is
// ignored, never trusted — opening it purges every entry and restamps.
func TestVersionMismatchPurges(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, 0)
	k := key("stale")
	mustPut(t, s, k, []byte("compiled under the old world"))

	s2, err := Open(Config{Dir: dir, Fingerprint: "a-newer-build"})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s2.Get(NSResults, k); ok {
		t.Fatal("entry from a differently-stamped store was served")
	}
	if st := s2.Stats(); st.Entries != 0 {
		t.Fatalf("Entries = %d after purge, want 0", st.Entries)
	}
	// The purge restamps: reopening under the new fingerprint keeps fresh
	// entries, and the old fingerprint now purges in turn.
	mustPut(t, s2, k, []byte("new world"))
	s3, err := Open(Config{Dir: dir, Fingerprint: "a-newer-build"})
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := s3.Get(NSResults, k); !ok || string(got) != "new world" {
		t.Fatalf("restamped store lost its entry: %q ok=%v", got, ok)
	}
}

// corruptOnDisk rewrites the stored blob file of key k through mutate.
func corruptOnDisk(t *testing.T, s *Store, k string, mutate func([]byte) []byte) {
	t.Helper()
	path := blobPath(s.dir, k)
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, mutate(blob), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestCorruptionBattery: every flavor of on-disk damage — truncation into
// the payload, truncation into the header, a payload bit flip, a header bit
// flip, total garbage — must be detected on Get, counted, dropped, and never
// served. A fresh Put of the key must then succeed (recompute path).
func TestCorruptionBattery(t *testing.T) {
	cases := []struct {
		name   string
		mutate func([]byte) []byte
	}{
		{"torn payload", func(b []byte) []byte { return b[:len(b)-3] }},
		{"torn header", func(b []byte) []byte { return b[:headerSize-4] }},
		{"payload bit flip", func(b []byte) []byte {
			b[len(b)-1] ^= 0x01
			return b
		}},
		{"digest bit flip", func(b []byte) []byte {
			b[len(blobMagic)+8] ^= 0x80
			return b
		}},
		{"length field flip", func(b []byte) []byte {
			b[len(blobMagic)] ^= 0x01
			return b
		}},
		{"bad magic", func(b []byte) []byte {
			b[0] = 'X'
			return b
		}},
		{"garbage", func(b []byte) []byte { return []byte("not a blob at all") }},
		{"empty file", func(b []byte) []byte { return nil }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := open(t, t.TempDir(), 0)
			k := key(tc.name)
			want := []byte("precious deterministic bytes for " + tc.name)
			mustPut(t, s, k, want)
			corruptOnDisk(t, s, k, tc.mutate)

			if got, ok := s.Get(NSResults, k); ok {
				t.Fatalf("corrupt blob served: %q", got)
			}
			st := s.Stats()
			if st.Corrupt != 1 {
				t.Fatalf("Corrupt = %d, want 1", st.Corrupt)
			}
			if st.Entries != 0 {
				t.Fatalf("Entries = %d, want 0 (corrupt entry must drop)", st.Entries)
			}
			// The recompute path: the key is writable again and round-trips.
			mustPut(t, s, k, want)
			if got, ok := s.Get(NSResults, k); !ok || !bytes.Equal(got, want) {
				t.Fatalf("recomputed entry: got %q ok=%v", got, ok)
			}
		})
	}
}

// TestCorruptionSurvivesReopen: damage written while the store is closed
// must not be served by the next process either. Header-level damage is
// swept by the reopen scan as crash debris; payload damage passes the scan
// (only headers are read at startup) and must then be caught by Get.
func TestCorruptionSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, 0)
	k := key("reopened-corruption")
	mustPut(t, s, k, []byte("original"))
	corruptOnDisk(t, s, k, func(b []byte) []byte {
		b[headerSize] ^= 0xff // payload damage: invisible to the scan
		return b
	})

	s2 := open(t, dir, 0)
	if got, ok := s2.Get(NSResults, k); ok {
		t.Fatalf("reopened store served corrupt bytes: %q", got)
	}
	if st := s2.Stats(); st.Corrupt != 1 {
		t.Fatalf("Corrupt = %d, want 1", st.Corrupt)
	}
}

// TestScanRemovesCrashDebris: files whose header cannot be trusted — too
// short, wrong magic, or a declared length that disagrees with the file
// size — are removed by the reopen scan and never indexed (no reader ever
// trusted them, so they are debris, not counted corruption).
func TestScanRemovesCrashDebris(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, 0)
	k := key("good")
	mustPut(t, s, k, []byte("good payload"))

	// Plant debris next to it: a truncated header and an appended tail
	// (size disagrees with the declared length).
	short := blobPath(dir, key("short"))
	if err := os.MkdirAll(filepath.Dir(short), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(short, []byte(blobMagic[:4]), 0o644); err != nil {
		t.Fatal(err)
	}
	corruptOnDisk(t, s, k, func(b []byte) []byte { return append(b, "trailing garbage"...) })
	// And a file whose name is not a digest at all.
	if err := os.WriteFile(filepath.Join(dir, NSResults, key("good")[:2], "README"), []byte("hi"), 0o644); err != nil {
		t.Fatal(err)
	}

	s2 := open(t, dir, 0)
	if st := s2.Stats(); st.Entries != 0 {
		t.Fatalf("Entries = %d, want 0 (all debris)", st.Entries)
	}
	for _, p := range []string{short, blobPath(dir, k)} {
		if _, err := os.Stat(p); !errors.Is(err, os.ErrNotExist) {
			t.Fatalf("debris %s survived the scan (err %v)", p, err)
		}
	}
}

// TestFailpointBattery: a simulated crash at each stage of the write
// protocol — mid-write (header only on disk), before fsync, before rename —
// must leave the store without the key, and a reopened store must sweep the
// leftovers and accept a clean rewrite. This is the crash-consistency
// contract: readers see the complete blob or nothing, in every interleaving.
func TestFailpointBattery(t *testing.T) {
	boom := errors.New("injected crash")
	for _, stage := range []string{"write", "sync", "rename"} {
		t.Run(stage, func(t *testing.T) {
			dir := t.TempDir()
			arm := stage
			s, err := Open(Config{Dir: dir, Fingerprint: testFP, Failpoint: func(st string) error {
				if st == arm {
					return boom
				}
				return nil
			}})
			if err != nil {
				t.Fatal(err)
			}
			k := key("crash-" + stage)
			if err := s.Put(NSResults, k, []byte("doomed")); !errors.Is(err, boom) {
				t.Fatalf("Put under failpoint: err = %v, want injected crash", err)
			}
			if _, ok := s.Get(NSResults, k); ok {
				t.Fatal("half-written key visible after simulated crash")
			}
			if st := s.Stats(); st.Writes != 0 || st.Entries != 0 {
				t.Fatalf("stats after crash: %+v, want no writes, no entries", st)
			}
			// A crashed process cleans nothing up: the torn temp file must
			// still be on disk, and reopening must sweep it.
			tmps, err := os.ReadDir(filepath.Join(dir, "tmp"))
			if err != nil || len(tmps) == 0 {
				t.Fatalf("no temp leftover after crash at %s (err %v)", stage, err)
			}

			s2 := open(t, dir, 0)
			if tmps, err := os.ReadDir(filepath.Join(dir, "tmp")); err != nil || len(tmps) != 0 {
				t.Fatalf("reopen left %d temp files (err %v)", len(tmps), err)
			}
			if _, ok := s2.Get(NSResults, k); ok {
				t.Fatal("reopened store surfaced a crashed write")
			}
			// Disarmed (fresh store, no failpoint): the write now lands.
			want := []byte("recomputed after crash")
			mustPut(t, s2, k, want)
			if got, ok := s2.Get(NSResults, k); !ok || !bytes.Equal(got, want) {
				t.Fatalf("rewrite after crash: got %q ok=%v", got, ok)
			}
		})
	}
}

// TestReject: a caller-level rejection (framing-valid blob, garbage
// semantics) drops the entry, counts it corrupt, and removes the file.
func TestReject(t *testing.T) {
	s := open(t, t.TempDir(), 0)
	k := key("framed-garbage")
	mustPut(t, s, k, []byte("not a decodable blueprint"))
	s.Reject(k)
	if _, ok := s.Get(NSResults, k); ok {
		t.Fatal("rejected entry still served")
	}
	st := s.Stats()
	if st.Corrupt != 1 || st.Entries != 0 {
		t.Fatalf("after Reject: %+v", st)
	}
	if _, err := os.Stat(blobPath(s.dir, k)); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("rejected blob still on disk (err %v)", err)
	}
	// Rejecting an absent or invalid key is a harmless no-op.
	s.Reject(k)
	s.Reject("ZZ")
}

// TestLRUEviction: once the byte budget is exceeded the least-recently-used
// entries go first, and a Get refreshes recency.
func TestLRUEviction(t *testing.T) {
	s := open(t, t.TempDir(), 0)
	payload := bytes.Repeat([]byte("x"), 100)
	blobSize := int64(headerSize + len(payload))
	s.max = 3 * blobSize // budget: exactly three blobs

	keys := make([]string, 4)
	for i := 0; i < 3; i++ {
		keys[i] = key(fmt.Sprint("lru", i))
		mustPut(t, s, keys[i], payload)
	}
	// Touch the oldest so it is now the most recent.
	if _, ok := s.Get(NSResults, keys[0]); !ok {
		t.Fatal("warm entry missing before eviction")
	}
	// A fourth blob must evict exactly one entry: keys[1], the true LRU.
	keys[3] = key("lru3")
	mustPut(t, s, keys[3], payload)

	if _, ok := s.Get(NSResults, keys[1]); ok {
		t.Fatal("LRU victim survived")
	}
	for _, k := range []string{keys[0], keys[2], keys[3]} {
		if _, ok := s.Get(NSResults, k); !ok {
			t.Fatalf("non-victim %0.12s.. evicted", k)
		}
	}
	st := s.Stats()
	if st.Evictions != 1 {
		t.Fatalf("Evictions = %d, want 1", st.Evictions)
	}
	if st.Bytes > s.max {
		t.Fatalf("Bytes = %d over budget %d", st.Bytes, s.max)
	}
}

// TestEvictionOrderSurvivesRestart: the reopen scan seeds recency from
// modification times, so the eviction order a restarted store applies is
// oldest-written-first, not arbitrary.
func TestEvictionOrderSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, 0)
	payload := bytes.Repeat([]byte("y"), 64)
	blobSize := int64(headerSize + len(payload))
	old, young := key("older"), key("younger")
	mustPut(t, s, old, payload)
	mustPut(t, s, young, payload)
	// Make the age gap visible to filesystems with coarse mtimes.
	oldPath := blobPath(dir, old)
	info, err := os.Stat(oldPath)
	if err != nil {
		t.Fatal(err)
	}
	older := info.ModTime().Add(-10 * time.Second)
	if err := os.Chtimes(oldPath, older, older); err != nil {
		t.Fatal(err)
	}

	s2 := open(t, dir, 2*blobSize)
	mustPut(t, s2, key("third"), payload) // forces one eviction
	if _, ok := s2.Get(NSResults, old); ok {
		t.Fatal("restart evicted the younger entry instead of the older")
	}
	if _, ok := s2.Get(NSResults, young); !ok {
		t.Fatal("younger entry lost")
	}
}

// TestOpenValidation: the config invariants fail fast.
func TestOpenValidation(t *testing.T) {
	if _, err := Open(Config{Fingerprint: testFP}); err == nil {
		t.Fatal("Open accepted an empty Dir")
	}
	if _, err := Open(Config{Dir: t.TempDir()}); err == nil {
		t.Fatal("Open accepted an empty Fingerprint")
	}
}

// TestConcurrentRemovalIsMiss: a blob whose file vanished underneath the
// index (external cleanup) is absence, not corruption.
func TestConcurrentRemovalIsMiss(t *testing.T) {
	s := open(t, t.TempDir(), 0)
	k := key("vanishing")
	mustPut(t, s, k, []byte("p"))
	if err := os.Remove(blobPath(s.dir, k)); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(NSResults, k); ok {
		t.Fatal("Get served a removed file")
	}
	st := s.Stats()
	if st.Corrupt != 0 {
		t.Fatalf("Corrupt = %d, want 0 (removal is absence)", st.Corrupt)
	}
	if st.Misses != 1 || st.Entries != 0 {
		t.Fatalf("stats after removal: %+v", st)
	}
}
