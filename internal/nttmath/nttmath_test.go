package nttmath

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

func randVec(n int, seed int64) []uint64 {
	rng := rand.New(rand.NewSource(seed))
	v := make([]uint64, n)
	for i := range v {
		v[i] = rng.Uint64() % P
	}
	return v
}

// inv returns the multiplicative inverse of a mod P (Fermat). a must be
// nonzero mod P.
func inv(a uint64) (uint64, error) {
	if a%P == 0 {
		return 0, fmt.Errorf("nttmath: zero has no inverse")
	}
	return Pow(a, P-2), nil
}

// intt computes the inverse transform of a in place; intt(NTT(x)) == x.
func intt(a []uint64) error {
	if err := checkLen(len(a)); err != nil {
		return err
	}
	n := len(a)
	if n == 1 {
		return nil
	}
	root, err := RootOfUnity(uint64(n))
	if err != nil {
		return err
	}
	invRoot, err := inv(root)
	if err != nil {
		return err
	}
	if err := transform(a, invRoot); err != nil {
		return err
	}
	invN, err := inv(uint64(n))
	if err != nil {
		return err
	}
	for i := range a {
		a[i] = Mul(a[i], invN)
	}
	return nil
}

func TestFieldArithmetic(t *testing.T) {
	if Add(P-1, 1) != 0 {
		t.Fatal("add wraparound wrong")
	}
	if Sub(0, 1) != P-1 {
		t.Fatal("sub wraparound wrong")
	}
	if Mul(P-1, P-1) != 1 { // (-1)*(-1) = 1
		t.Fatal("mul wraparound wrong")
	}
	if Pow(3, 0) != 1 || Pow(3, 1) != 3 || Pow(3, 2) != 9 {
		t.Fatal("pow wrong")
	}
	x, err := inv(12345)
	if err != nil {
		t.Fatal(err)
	}
	if Mul(12345, x) != 1 {
		t.Fatal("inverse wrong")
	}
	if _, err := inv(0); err == nil {
		t.Fatal("zero inverse accepted")
	}
}

// Property: field axioms hold for random elements.
func TestFieldProperties(t *testing.T) {
	f := func(a, b, c uint64) bool {
		a, b, c = a%P, b%P, c%P
		// Commutativity and distributivity.
		if Add(a, b) != Add(b, a) || Mul(a, b) != Mul(b, a) {
			return false
		}
		if Mul(a, Add(b, c)) != Add(Mul(a, b), Mul(a, c)) {
			return false
		}
		// Sub inverts Add.
		return Sub(Add(a, b), b) == a
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestRootOfUnity(t *testing.T) {
	for _, n := range []uint64{2, 4, 256, 65536} {
		w, err := RootOfUnity(n)
		if err != nil {
			t.Fatal(err)
		}
		if Pow(w, n) != 1 {
			t.Fatalf("w^%d != 1", n)
		}
		if Pow(w, n/2) == 1 {
			t.Fatalf("root of order %d not primitive", n)
		}
	}
	if _, err := RootOfUnity(3); err == nil {
		t.Fatal("non-power-of-two accepted")
	}
	if _, err := RootOfUnity(0); err == nil {
		t.Fatal("zero accepted")
	}
	if _, err := RootOfUnity(1 << 33); err == nil {
		t.Fatal("beyond 2-adicity accepted")
	}
}

func TestNTTMatchesDirectDFT(t *testing.T) {
	// Compare against the O(n^2) definition for a small size.
	n := 16
	a := randVec(n, 1)
	w, _ := RootOfUnity(uint64(n))
	want := make([]uint64, n)
	for k := 0; k < n; k++ {
		var acc uint64
		for j := 0; j < n; j++ {
			acc = Add(acc, Mul(a[j], Pow(w, uint64(j*k))))
		}
		want[k] = acc
	}
	got := append([]uint64(nil), a...)
	if err := NTT(got); err != nil {
		t.Fatal(err)
	}
	for k := range want {
		if got[k] != want[k] {
			t.Fatalf("NTT[%d] = %d, want %d", k, got[k], want[k])
		}
	}
}

func TestInverseProperty(t *testing.T) {
	for _, n := range []int{1, 2, 8, 256, 4096} {
		a := randVec(n, int64(n))
		orig := append([]uint64(nil), a...)
		if err := NTT(a); err != nil {
			t.Fatal(err)
		}
		if err := intt(a); err != nil {
			t.Fatal(err)
		}
		for i := range a {
			if a[i] != orig[i] {
				t.Fatalf("n=%d: intt(NTT(x)) != x at %d", n, i)
			}
		}
	}
}

func TestLengthValidation(t *testing.T) {
	if err := NTT(make([]uint64, 3)); err == nil {
		t.Fatal("non-power-of-two length accepted")
	}
	if err := intt(make([]uint64, 0)); err == nil {
		t.Fatal("empty accepted")
	}
}

func TestConvolutionTheorem(t *testing.T) {
	// NTT-based cyclic convolution must match the schoolbook computation.
	n := 32
	a := randVec(n, 2)
	b := randVec(n, 3)
	want := make([]uint64, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			k := (i + j) % n
			want[k] = Add(want[k], Mul(a[i], b[j]))
		}
	}
	fa := append([]uint64(nil), a...)
	fb := append([]uint64(nil), b...)
	if err := NTT(fa); err != nil {
		t.Fatal(err)
	}
	if err := NTT(fb); err != nil {
		t.Fatal(err)
	}
	for i := range fa {
		fa[i] = Mul(fa[i], fb[i])
	}
	if err := intt(fa); err != nil {
		t.Fatal(err)
	}
	for k := range want {
		if fa[k] != want[k] {
			t.Fatalf("convolution[%d] = %d, want %d", k, fa[k], want[k])
		}
	}
}

func TestNTT2DMatches1D(t *testing.T) {
	cases := []struct{ rows, cols int }{
		{2, 2}, {4, 8}, {16, 16}, {64, 64},
	}
	for _, c := range cases {
		n := c.rows * c.cols
		a := randVec(n, int64(n))
		want := append([]uint64(nil), a...)
		if err := NTT(want); err != nil {
			t.Fatal(err)
		}
		got := append([]uint64(nil), a...)
		if err := NTT2D(got, c.rows, c.cols); err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%dx%d: 2D NTT differs from 1D at %d", c.rows, c.cols, i)
			}
		}
	}
}

func TestNTT2DPaperShape(t *testing.T) {
	// The paper's configuration: N = 2^16 as 256 x 256.
	if testing.Short() {
		t.Skip("65536-point transform")
	}
	n := 1 << 16
	a := randVec(n, 99)
	want := append([]uint64(nil), a...)
	if err := NTT(want); err != nil {
		t.Fatal(err)
	}
	got := append([]uint64(nil), a...)
	if err := NTT2D(got, 256, 256); err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("256x256 NTT differs from 1D at %d", i)
		}
	}
}

func TestNTT2DValidation(t *testing.T) {
	if err := NTT2D(make([]uint64, 8), 2, 2); err == nil {
		t.Fatal("shape mismatch accepted")
	}
	if err := NTT2D(make([]uint64, 6), 2, 3); err == nil {
		t.Fatal("non-power-of-two cols accepted")
	}
}

func TestButterflyOps(t *testing.T) {
	if ButterflyOps(1) != 0 {
		t.Fatal("single point should need no butterflies")
	}
	if got := ButterflyOps(8); got != 12 { // (8/2)*3
		t.Fatalf("ButterflyOps(8) = %d, want 12", got)
	}
	if got := ButterflyOps(65536); got != 65536/2*16 {
		t.Fatalf("ButterflyOps(2^16) = %d", got)
	}
}

func TestLinearity(t *testing.T) {
	n := 64
	a := randVec(n, 7)
	b := randVec(n, 8)
	sum := make([]uint64, n)
	for i := range sum {
		sum[i] = Add(a[i], b[i])
	}
	fa := append([]uint64(nil), a...)
	fb := append([]uint64(nil), b...)
	fs := append([]uint64(nil), sum...)
	if err := NTT(fa); err != nil {
		t.Fatal(err)
	}
	if err := NTT(fb); err != nil {
		t.Fatal(err)
	}
	if err := NTT(fs); err != nil {
		t.Fatal(err)
	}
	for i := range fs {
		if fs[i] != Add(fa[i], fb[i]) {
			t.Fatalf("linearity violated at %d", i)
		}
	}
}
