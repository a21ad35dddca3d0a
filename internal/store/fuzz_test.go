package store

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"testing"
)

// FuzzStoreDecode: loading arbitrary bytes must never panic and must never
// yield a payload other than the one the index expects. The fuzzer both
// drives the frame decoder directly and writes its input over a real stored
// blob, then proves Get either misses or returns the original bytes.
func FuzzStoreDecode(f *testing.F) {
	good := encodeBlob([]byte("seed payload"))
	f.Add([]byte{})
	f.Add([]byte(blobMagic))
	f.Add(good)
	f.Add(good[:len(good)-1])
	f.Add(bytes.Repeat([]byte{0xff}, headerSize+8))

	dir := f.TempDir()
	s, err := Open(Config{Dir: dir, Fingerprint: testFP})
	if err != nil {
		f.Fatal(err)
	}
	want := []byte("the indexed payload")
	k := fmt.Sprintf("%x", sha256.Sum256(want))

	f.Fuzz(func(t *testing.T, data []byte) {
		// Frame layer: decode never panics, and any accepted payload
		// re-frames to exactly the input (the encoding is canonical).
		if payload, err := decodeBlob(data); err == nil {
			if !bytes.Equal(encodeBlob(payload), data) {
				t.Fatalf("decodeBlob accepted a non-canonical frame: %q", data)
			}
		}

		// Store layer: overwrite a real blob with the fuzz input. Get must
		// not panic and must not serve anything but the original bytes —
		// even an impeccably framed substitute payload must fail the
		// index's digest check.
		if err := s.Put(NSResults, k, want); err != nil {
			t.Fatalf("re-store: %v", err)
		}
		if err := os.WriteFile(blobPath(dir, k), data, 0o644); err != nil {
			t.Fatal(err)
		}
		if got, ok := s.Get(NSResults, k); ok && !bytes.Equal(got, want) {
			t.Fatalf("store served substituted bytes %q, want %q or a miss", got, want)
		}
	})
}

// FuzzStoreRoundTrip: any payload must round-trip byte-identically through
// both the frame codec and a real on-disk Put/Get, and re-encoding must be
// deterministic — encode(decode(encode(p))) == encode(p).
func FuzzStoreRoundTrip(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte(`{"time_ps": 42}`))
	f.Add([]byte{0x00, 0xff, 0x00})
	f.Add(bytes.Repeat([]byte("pim"), 1000))

	dir := f.TempDir()
	s, err := Open(Config{Dir: dir, Fingerprint: testFP})
	if err != nil {
		f.Fatal(err)
	}

	f.Fuzz(func(t *testing.T, payload []byte) {
		frame := encodeBlob(payload)
		back, err := decodeBlob(frame)
		if err != nil {
			t.Fatalf("own encoding rejected: %v", err)
		}
		if !bytes.Equal(back, payload) {
			t.Fatalf("frame round trip changed bytes: %q -> %q", payload, back)
		}
		if again := encodeBlob(back); !bytes.Equal(again, frame) {
			t.Fatal("re-encoding is not deterministic")
		}

		k := fmt.Sprintf("%x", sha256.Sum256(payload))
		if err := s.Put(NSResults, k, payload); err != nil {
			t.Fatalf("Put: %v", err)
		}
		got, ok := s.Get(NSResults, k)
		if !ok || !bytes.Equal(got, payload) {
			t.Fatalf("disk round trip: got %q ok=%v, want %q", got, ok, payload)
		}
	})
}
