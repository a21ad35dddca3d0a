package store

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// TestFingerprintDeterministic: within one binary the fingerprint is a
// fixed 64-hex-digit string — that stability is what makes a restart warm.
func TestFingerprintDeterministic(t *testing.T) {
	fp1, err := Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if len(fp1) != 64 {
		t.Fatalf("fingerprint %q is not a hex SHA-256", fp1)
	}
	fp2, err := Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if fp1 != fp2 {
		t.Fatalf("fingerprint changed within one process: %s vs %s", fp1, fp2)
	}
}

// TestFormatTwoStorePurgesBothTrees: a directory left by a format-2 daemon
// (its own VERSION stamp, blobs under plans/ as well as results/) opens
// empty under the current fingerprint, and neither old tree keeps a blob on
// disk — the plans/ tree is removed outright.
func TestFormatTwoStorePurgesBothTrees(t *testing.T) {
	dir := t.TempDir()
	old := map[string]string{"plans": key("old plan"), NSResults: key("old result")}
	for ns, k := range old {
		path := filepath.Join(dir, ns, k[:2], k)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, encodeBlob([]byte("format-2 "+ns)), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.WriteFile(filepath.Join(dir, "VERSION"), []byte(key("format-2 build")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	fp, err := Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	s, err := Open(Config{Dir: dir, Fingerprint: fp})
	if err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Entries != 0 || st.Bytes != 0 {
		t.Fatalf("format-2 store opened with %d entries, %d bytes", st.Entries, st.Bytes)
	}
	if _, err := os.Stat(filepath.Join(dir, "plans")); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("plans/ tree survived the purge (err %v)", err)
	}
	if fans, err := os.ReadDir(filepath.Join(dir, NSResults)); err != nil || len(fans) != 0 {
		t.Fatalf("results/ holds %d entries after the purge (err %v)", len(fans), err)
	}
}
