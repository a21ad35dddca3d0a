// Package store is the persistent, content-addressed blob store behind warm
// daemon restarts and cross-fleet dedup: immutable simulation results survive
// the process, so a restarted or freshly scaled-out pimnetd starts hot and
// repeated experiment points become a read. Compiled plans are not stored:
// recompiling one is cheaper than reading it back.
//
// The store holds the serving tier's results — point records and finished
// job views — as immutable blobs keyed by hex digests. Three invariants
// define it:
//
//   - Byte identity: a stored blob is returned verbatim or not at all. Every
//     blob carries its own SHA-256; any header damage, truncation, or payload
//     bit flip is detected on read, counted, and the entry discarded — the
//     store can never change bytes, only skip work.
//   - Crash safety: writes go through temp file + fsync + atomic rename, so
//     a reader (or a reopened store) sees either the complete blob or
//     nothing. Leftover temp files from a crash are swept on Open.
//   - Version hygiene: the directory is stamped with a fingerprint derived
//     from the build identity and probe compilations (see Fingerprint). A
//     store stamped by a different build is purged on Open, never trusted —
//     a code change that alters timing invalidates everything cleanly.
//
// Duplicate writes of the same key must agree: writing different bytes under
// an existing key is rejected loudly (ErrDivergent), mirroring the cluster
// reassembler's disagreeing-duplicate rule — silent last-wins would let a
// nondeterminism bug corrupt a study.
package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
)

// NSResults is the store's only namespace and the directory its blobs live
// under. Get and Put still take it because the benchmark ladder calls them
// that way; any other namespace is refused.
const NSResults = "results"

// blob wire format: magic, little-endian payload length, SHA-256 of the
// payload, payload. The digest makes every blob self-verifying; the length
// makes truncation detectable even when the tail would still hash.
const (
	blobMagic  = "PIMSTOR1"
	headerSize = len(blobMagic) + 8 + sha256.Size
)

// ErrDivergent is returned by Put when the key already holds different
// bytes. Determinism means duplicate writers must agree; a divergence is a
// bug upstream and must fail loudly, not last-wins silently.
var ErrDivergent = errors.New("store: divergent duplicate write")

// errCorrupt classifies blob validation failures (internal; surfaced to
// callers only as a miss plus a counter).
var errCorrupt = errors.New("store: corrupt blob")

// Config parameterizes Open.
type Config struct {
	// Dir is the store's root directory (created if absent).
	Dir string
	// MaxBytes bounds the bytes on disk; once exceeded, least-recently-used
	// entries are evicted. <= 0 is unlimited.
	MaxBytes int64
	// Fingerprint is the version stamp entries are only valid under
	// (normally Fingerprint()). Opening a directory stamped differently
	// purges it. Must be non-empty.
	Fingerprint string
	// Failpoint, when non-nil, is called at each stage of the write
	// protocol ("write", "sync", "rename") and aborts the write when it
	// returns an error — test instrumentation simulating a crash mid-write.
	Failpoint func(stage string) error
}

// Stats is a point-in-time snapshot of the store's traffic.
type Stats struct {
	Hits      uint64
	Misses    uint64
	Writes    uint64
	Evictions uint64
	// Corrupt counts blobs rejected on read: torn writes, truncations, bit
	// flips, undecodable payloads (via Reject). Every rejection is also a
	// recompute upstream — this counter is the audit trail that the store
	// never served them.
	Corrupt uint64
	// Divergent counts loud ErrDivergent write rejections.
	Divergent uint64
	Entries   int
	// Bytes includes blob headers: it is the on-disk footprint the MaxBytes
	// budget bounds.
	Bytes int64
}

// entry is the in-memory index record of one on-disk blob.
type entry struct {
	key  string
	size int64             // file size (header + payload)
	sum  [sha256.Size]byte // payload digest, from the blob header
	seq  uint64            // logical access clock; lowest = evict first
}

// Store is the on-disk store. All methods are safe for concurrent use.
type Store struct {
	dir  string
	max  int64
	fp   string
	fail func(stage string) error

	mu    sync.Mutex
	index map[string]*entry // key -> entry
	seq   uint64
	stats Stats // Entries and Bytes track the index
}

// Open opens (creating if needed) the store rooted at cfg.Dir. A directory
// stamped with a different fingerprint is purged before use: stale-version
// entries are ignored, never trusted. Crash leftovers (temp files, blobs
// whose header does not match their size) are swept. The surviving entries
// are indexed oldest-modification-first, so eviction order is sensible from
// the first Put.
func Open(cfg Config) (*Store, error) {
	if cfg.Dir == "" {
		return nil, errors.New("store: Dir must be set")
	}
	if cfg.Fingerprint == "" {
		return nil, errors.New("store: Fingerprint must be set")
	}
	s := &Store{
		dir:   cfg.Dir,
		max:   cfg.MaxBytes,
		fp:    cfg.Fingerprint,
		fail:  cfg.Failpoint,
		index: make(map[string]*entry),
	}
	for _, d := range []string{cfg.Dir, s.tmpDir(), s.blobDir()} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, fmt.Errorf("store: %w", err)
		}
	}
	if err := s.checkVersion(); err != nil {
		return nil, err
	}
	s.sweepTmp()
	if err := s.scan(); err != nil {
		return nil, err
	}
	return s, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

func (s *Store) tmpDir() string      { return filepath.Join(s.dir, "tmp") }
func (s *Store) blobDir() string     { return filepath.Join(s.dir, NSResults) }
func (s *Store) versionPath() string { return filepath.Join(s.dir, "VERSION") }

func blobPath(dir, key string) string {
	// Two-hex-char fan-out keeps any one directory small at fleet scale.
	return filepath.Join(dir, NSResults, key[:2], key)
}

// checkVersion compares the on-disk stamp with the configured fingerprint
// and purges a mismatched (or unstamped) directory, including the plans/
// tree older formats kept beside the results. The stamp itself is written
// with the same atomic protocol as blobs, so a crash between purge and stamp
// leaves an unstamped directory that simply purges again.
func (s *Store) checkVersion() error {
	cur, err := os.ReadFile(s.versionPath())
	if err == nil && string(cur) == s.fp+"\n" {
		return nil
	}
	for _, d := range []string{filepath.Join(s.dir, "plans"), s.blobDir()} {
		if err := os.RemoveAll(d); err != nil {
			return fmt.Errorf("store: purging stale %s: %w", d, err)
		}
	}
	if err := os.MkdirAll(s.blobDir(), 0o755); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	return s.atomicWrite(s.versionPath(), []byte(s.fp+"\n"))
}

// sweepTmp removes write-protocol leftovers from crashed processes.
func (s *Store) sweepTmp() {
	ents, err := os.ReadDir(s.tmpDir())
	if err != nil {
		return
	}
	for _, e := range ents {
		os.Remove(filepath.Join(s.tmpDir(), e.Name()))
	}
}

// scan indexes the surviving blobs. Only headers are read — a full payload
// verification of a large store would stall startup, and every Get verifies
// anyway. Files too short to carry a header or whose declared length does
// not match their size are crash debris: removed, not counted as corrupt
// (no reader ever trusted them).
func (s *Store) scan() error {
	var found []*entry
	fans, err := os.ReadDir(s.blobDir())
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	for _, fan := range fans {
		if !fan.IsDir() {
			continue
		}
		dir := filepath.Join(s.blobDir(), fan.Name())
		files, err := os.ReadDir(dir)
		if err != nil {
			return fmt.Errorf("store: %w", err)
		}
		for _, f := range files {
			path := filepath.Join(dir, f.Name())
			info, err := f.Info()
			if err != nil {
				continue
			}
			e := &entry{key: f.Name(), size: info.Size()}
			if !validKey(e.key) || !s.scanHeader(path, e) {
				os.Remove(path)
				continue
			}
			// mtime seeds the access order; Get/Put refresh it.
			e.seq = uint64(info.ModTime().UnixNano())
			found = append(found, e)
		}
	}
	sort.Slice(found, func(i, j int) bool { return found[i].seq < found[j].seq })
	for i, e := range found {
		e.seq = uint64(i + 1)
		s.index[e.key] = e
		s.stats.Entries++
		s.stats.Bytes += e.size
	}
	s.seq = uint64(len(found))
	return nil
}

// scanHeader reads and sanity-checks one blob header into e.
func (s *Store) scanHeader(path string, e *entry) bool {
	f, err := os.Open(path)
	if err != nil {
		return false
	}
	defer f.Close()
	var hdr [headerSize]byte
	if _, err := f.ReadAt(hdr[:], 0); err != nil {
		return false
	}
	if string(hdr[:len(blobMagic)]) != blobMagic {
		return false
	}
	plen := binary.LittleEndian.Uint64(hdr[len(blobMagic) : len(blobMagic)+8])
	if int64(plen)+int64(headerSize) != e.size {
		return false
	}
	copy(e.sum[:], hdr[len(blobMagic)+8:])
	return true
}

// validKey accepts lowercase-hex keys of at least one fan-out byte — the
// only shape the digest-producing callers emit, and the only shape that is
// unconditionally safe as a file name.
func validKey(key string) bool {
	if len(key) < 2 {
		return false
	}
	for i := 0; i < len(key); i++ {
		c := key[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

func checkNS(ns string) error {
	if ns != NSResults {
		return fmt.Errorf("store: unknown namespace %q", ns)
	}
	return nil
}

// encodeBlob frames payload in the self-verifying wire format.
func encodeBlob(payload []byte) []byte {
	out := make([]byte, headerSize+len(payload))
	copy(out, blobMagic)
	binary.LittleEndian.PutUint64(out[len(blobMagic):], uint64(len(payload)))
	sum := sha256.Sum256(payload)
	copy(out[len(blobMagic)+8:], sum[:])
	copy(out[headerSize:], payload)
	return out
}

// decodeBlob validates a framed blob and returns its payload. It must never
// panic on arbitrary bytes (FuzzStoreDecode) and must reject any torn,
// truncated, or bit-flipped encoding.
func decodeBlob(blob []byte) ([]byte, error) {
	if len(blob) < headerSize {
		return nil, fmt.Errorf("%w: %d bytes, need at least %d", errCorrupt, len(blob), headerSize)
	}
	if string(blob[:len(blobMagic)]) != blobMagic {
		return nil, fmt.Errorf("%w: bad magic", errCorrupt)
	}
	plen := binary.LittleEndian.Uint64(blob[len(blobMagic) : len(blobMagic)+8])
	if plen != uint64(len(blob)-headerSize) {
		return nil, fmt.Errorf("%w: declared %d payload bytes, have %d", errCorrupt, plen, len(blob)-headerSize)
	}
	payload := blob[headerSize:]
	sum := sha256.Sum256(payload)
	if !bytes.Equal(sum[:], blob[len(blobMagic)+8:headerSize]) {
		return nil, fmt.Errorf("%w: payload digest mismatch", errCorrupt)
	}
	return payload, nil
}

// Get returns the payload stored under key verbatim, or (nil, false); ns
// must be NSResults. Corrupt entries — torn, truncated, bit-flipped, or not
// matching the digest the index expects — are discarded and counted; the
// caller recomputes.
func (s *Store) Get(ns, key string) ([]byte, bool) {
	if checkNS(ns) != nil || !validKey(key) {
		return nil, false
	}
	s.mu.Lock()
	e, ok := s.index[key]
	if !ok {
		s.stats.Misses++
		s.mu.Unlock()
		return nil, false
	}
	s.seq++
	e.seq = s.seq // LRU touch
	path, want := blobPath(s.dir, key), e.sum
	s.mu.Unlock()

	blob, err := os.ReadFile(path)
	if err != nil {
		// Evicted or removed concurrently: absence, not corruption.
		s.mu.Lock()
		s.dropLocked(key, false)
		s.stats.Misses++
		s.mu.Unlock()
		return nil, false
	}
	payload, derr := decodeBlob(blob)
	if derr == nil {
		sum := sha256.Sum256(payload)
		if sum != want {
			derr = fmt.Errorf("%w: payload does not match indexed digest", errCorrupt)
		}
	}
	if derr != nil {
		s.mu.Lock()
		s.dropLocked(key, true)
		s.stats.Misses++
		s.mu.Unlock()
		os.Remove(path)
		return nil, false
	}
	s.mu.Lock()
	s.stats.Hits++
	s.mu.Unlock()
	return payload, true
}

// Reject discards key as corrupt at a layer above blob framing — the caller
// decoded a perfectly framed payload and found garbage (a codec version skew
// the fingerprint should have caught, or a tampered file whose digest was
// recomputed). Counted alongside framing-level rejections.
func (s *Store) Reject(key string) {
	if !validKey(key) {
		return
	}
	s.mu.Lock()
	s.dropLocked(key, true)
	s.mu.Unlock()
	os.Remove(blobPath(s.dir, key))
}

// dropLocked removes key from the index, optionally counting it corrupt.
// Callers hold s.mu and remove the file themselves.
func (s *Store) dropLocked(key string, corrupt bool) {
	if e, ok := s.index[key]; ok {
		delete(s.index, key)
		s.stats.Entries--
		s.stats.Bytes -= e.size
	}
	if corrupt {
		s.stats.Corrupt++
	}
}

// Put stores payload under key; ns must be NSResults. An agreeing duplicate
// (identical bytes already stored) is a cheap no-op; a divergent one is
// ErrDivergent. The write is crash-safe: temp file, fsync, atomic rename — a
// reader or a reopened store sees the complete blob or nothing.
func (s *Store) Put(ns, key string, payload []byte) error {
	if err := checkNS(ns); err != nil {
		return err
	}
	if !validKey(key) {
		return fmt.Errorf("store: key %q is not lowercase hex", key)
	}
	sum := sha256.Sum256(payload)

	s.mu.Lock()
	if e, ok := s.index[key]; ok {
		defer s.mu.Unlock()
		return s.duplicateLocked(e, sum)
	}
	s.mu.Unlock()

	blob := encodeBlob(payload)
	tmp, err := os.CreateTemp(s.tmpDir(), "put-*")
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	// Failpoints abandon the write exactly as a crash would: a torn temp
	// file stays behind (Open sweeps it), the index never learns the key.
	// "write" fires with only the header on disk — the torn-write shape.
	if _, err := tmp.Write(blob[:headerSize]); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("store: %w", err)
	}
	if err := s.failpoint("write", tmp); err != nil {
		return err
	}
	if _, err := tmp.Write(blob[headerSize:]); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("store: %w", err)
	}
	if err := s.failpoint("sync", tmp); err != nil {
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("store: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("store: %w", err)
	}

	// Commit under the lock: the divergence re-check, rename, and index
	// update are one atomic step, so racing writers of the same key cannot
	// interleave rename and bookkeeping (the concurrency contract: readers
	// see absence or one complete agreed-upon blob).
	s.mu.Lock()
	defer s.mu.Unlock()
	if e, ok := s.index[key]; ok {
		os.Remove(tmp.Name())
		return s.duplicateLocked(e, sum)
	}
	if err := s.failpoint("rename", nil); err != nil {
		return err // fully synced temp file left behind, like a real crash
	}
	final := blobPath(s.dir, key)
	if err := os.MkdirAll(filepath.Dir(final), 0o755); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("store: %w", err)
	}
	if err := os.Rename(tmp.Name(), final); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("store: %w", err)
	}
	syncDir(filepath.Dir(final))

	s.seq++
	e := &entry{key: key, size: int64(len(blob)), sum: sum, seq: s.seq}
	s.index[key] = e
	s.stats.Entries++
	s.stats.Bytes += e.size
	s.stats.Writes++
	s.evictLocked()
	return nil
}

// duplicateLocked settles a Put of an already-indexed key: agreeing bytes
// refresh its recency, different bytes are ErrDivergent. Callers hold s.mu.
func (s *Store) duplicateLocked(e *entry, sum [sha256.Size]byte) error {
	if e.sum != sum {
		s.stats.Divergent++
		return fmt.Errorf("%w: %s already holds different bytes", ErrDivergent, e.key)
	}
	s.seq++
	e.seq = s.seq
	return nil
}

// failpoint triggers the configured crash injection for one write stage,
// leaving the temp file behind (a crashed process cleans nothing up).
func (s *Store) failpoint(stage string, tmp *os.File) error {
	if s.fail == nil {
		return nil
	}
	if err := s.fail(stage); err != nil {
		if tmp != nil {
			tmp.Close()
		}
		return fmt.Errorf("store: simulated crash at %s: %w", stage, err)
	}
	return nil
}

// evictLocked enforces the byte budget by discarding least-recently-used
// entries. Linear scans are fine at the store's scale (thousands of blobs);
// the disk I/O around it dwarfs the walk.
func (s *Store) evictLocked() {
	if s.max <= 0 {
		return
	}
	for s.stats.Bytes > s.max && len(s.index) > 0 {
		var victim *entry
		for _, e := range s.index {
			if victim == nil || e.seq < victim.seq {
				victim = e
			}
		}
		s.dropLocked(victim.key, false)
		s.stats.Evictions++
		os.Remove(blobPath(s.dir, victim.key))
	}
}

// Stats snapshots the counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// atomicWrite is the write protocol for non-blob metadata (the VERSION
// stamp): temp file, fsync, rename.
func (s *Store) atomicWrite(path string, data []byte) error {
	tmp, err := os.CreateTemp(s.tmpDir(), "meta-*")
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("store: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("store: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("store: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("store: %w", err)
	}
	syncDir(filepath.Dir(path))
	return nil
}

// syncDir fsyncs a directory so a rename survives power loss. Best-effort:
// some filesystems refuse directory fsync, and the rename is still atomic.
func syncDir(dir string) {
	d, err := os.Open(dir)
	if err != nil {
		return
	}
	d.Sync()
	d.Close()
}
