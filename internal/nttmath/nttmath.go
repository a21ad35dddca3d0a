// Package nttmath implements the Number Theoretic Transform substrate used
// by the NTT workload (homomorphic-encryption kernels, Section II-C): exact
// modular arithmetic over the Goldilocks prime 2^64 - 2^32 + 1 (whose
// multiplicative group has 2-adicity 32, covering every transform size the
// paper uses), the iterative Cooley-Tukey NTT, and the 2D (Bailey
// four-step) decomposition — 256 x 256 for N = 2^16 — whose inter-step
// transpose is the All-to-All collective PIMnet accelerates.
package nttmath

import (
	"fmt"
	"math/bits"
)

// P is the Goldilocks prime 2^64 - 2^32 + 1.
const P uint64 = 0xFFFFFFFF00000001

// MaxLogN is the 2-adicity of P-1: power-of-two transforms up to 2^32.
const MaxLogN = 32

// generator is a primitive root of the multiplicative group mod P.
const generator uint64 = 7

// Add returns (a + b) mod P.
func Add(a, b uint64) uint64 {
	s, carry := bits.Add64(a, b, 0)
	if carry != 0 || s >= P {
		s -= P
	}
	return s
}

// Sub returns (a - b) mod P.
func Sub(a, b uint64) uint64 {
	d, borrow := bits.Sub64(a, b, 0)
	if borrow != 0 {
		d += P
	}
	return d
}

// Mul returns (a * b) mod P.
func Mul(a, b uint64) uint64 {
	hi, lo := bits.Mul64(a, b)
	// hi < P because a, b < P < 2^64, so Div64 is safe.
	_, rem := bits.Div64(hi, lo, P)
	return rem
}

// Pow returns a^e mod P.
func Pow(a, e uint64) uint64 {
	result := uint64(1)
	base := a % P
	for e > 0 {
		if e&1 == 1 {
			result = Mul(result, base)
		}
		base = Mul(base, base)
		e >>= 1
	}
	return result
}

// RootOfUnity returns a primitive n-th root of unity; n must be a power of
// two not exceeding 2^MaxLogN.
func RootOfUnity(n uint64) (uint64, error) {
	if n == 0 || n&(n-1) != 0 {
		return 0, fmt.Errorf("nttmath: n=%d not a power of two", n)
	}
	logN := bits.TrailingZeros64(n)
	if logN > MaxLogN {
		return 0, fmt.Errorf("nttmath: n=2^%d exceeds 2-adicity %d", logN, MaxLogN)
	}
	// g^((P-1)/n) has order exactly n because g generates the full group.
	return Pow(generator, (P-1)/n), nil
}

// bitReverse permutes a in place by bit-reversed index.
func bitReverse(a []uint64) {
	n := len(a)
	shift := 64 - uint(bits.TrailingZeros(uint(n)))
	for i := 0; i < n; i++ {
		j := int(bits.Reverse64(uint64(i)) >> shift)
		if i < j {
			a[i], a[j] = a[j], a[i]
		}
	}
}

// checkLen validates a transform length.
func checkLen(n int) error {
	if n == 0 || n&(n-1) != 0 {
		return fmt.Errorf("nttmath: length %d not a power of two", n)
	}
	if bits.TrailingZeros(uint(n)) > MaxLogN {
		return fmt.Errorf("nttmath: length %d exceeds 2-adicity", n)
	}
	return nil
}

// NTT computes the forward transform of a in place (iterative radix-2
// Cooley-Tukey with bit-reversal, natural-order output).
func NTT(a []uint64) error {
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
	return transform(a, root)
}

// transform is the shared Cooley-Tukey butterfly network.
func transform(a []uint64, root uint64) error {
	n := len(a)
	bitReverse(a)
	for length := 2; length <= n; length <<= 1 {
		w := Pow(root, uint64(n/length))
		half := length / 2
		for start := 0; start < n; start += length {
			tw := uint64(1)
			for j := 0; j < half; j++ {
				u := a[start+j]
				v := Mul(a[start+j+half], tw)
				a[start+j] = Add(u, v)
				a[start+j+half] = Sub(u, v)
				tw = Mul(tw, w)
			}
		}
	}
	return nil
}

// NTT2D computes an N = rows*cols transform with the Bailey four-step
// decomposition (the paper's 2D NTT [12]):
//
//  1. length-rows NTT on every column,
//  2. twiddle multiplication by w_N^(kr*c),
//  3. length-cols NTT on every row,
//
// with input a in row-major order (a[r*cols+c]) and output element
// X[kr + rows*kc] at position kr*cols + kc... — returned as the standard
// natural-order spectrum, identical to NTT(a). The column step and the row
// step each parallelize across DPUs; the reshuffle between them is the
// All-to-All the workload measures.
func NTT2D(a []uint64, rows, cols int) error {
	if rows*cols != len(a) {
		return fmt.Errorf("nttmath: %d x %d != length %d", rows, cols, len(a))
	}
	if err := checkLen(rows); err != nil {
		return err
	}
	if err := checkLen(cols); err != nil {
		return err
	}
	n := len(a)
	if err := checkLen(n); err != nil {
		return err
	}
	wN, err := RootOfUnity(uint64(n))
	if err != nil {
		return err
	}
	// Step 1: column NTTs (stride access = the transposed layout each DPU
	// group holds after distribution).
	col := make([]uint64, rows)
	spectra := make([]uint64, n) // B[kr][c] stored row-major kr*cols + c
	for c := 0; c < cols; c++ {
		for r := 0; r < rows; r++ {
			col[r] = a[r*cols+c]
		}
		if err := NTT(col); err != nil {
			return err
		}
		for kr := 0; kr < rows; kr++ {
			spectra[kr*cols+c] = col[kr]
		}
	}
	// Step 2: twiddle factors w_N^(kr*c).
	for kr := 0; kr < rows; kr++ {
		wkr := Pow(wN, uint64(kr))
		tw := uint64(1)
		for c := 0; c < cols; c++ {
			spectra[kr*cols+c] = Mul(spectra[kr*cols+c], tw)
			tw = Mul(tw, wkr)
		}
	}
	// Step 3: row NTTs.
	for kr := 0; kr < rows; kr++ {
		row := spectra[kr*cols : (kr+1)*cols]
		if err := NTT(row); err != nil {
			return err
		}
	}
	// Reorder: X[kr + rows*kc] = M[kr][kc].
	for kr := 0; kr < rows; kr++ {
		for kc := 0; kc < cols; kc++ {
			a[kr+rows*kc] = spectra[kr*cols+kc]
		}
	}
	return nil
}

// ButterflyOps returns the butterfly count of a length-n transform:
// (n/2) log2 n. Each butterfly is one modular multiply plus an add and a
// subtract — the compute cost driver of the NTT workload.
func ButterflyOps(n int) int64 {
	if n <= 1 {
		return 0
	}
	return int64(n/2) * int64(bits.Len(uint(n-1)))
}
