// Package sim provides the deterministic discrete-event simulation kernel
// used by every timing model in pimnet: a picosecond-resolution clock, an
// event engine with stable FIFO ordering for simultaneous events, and
// serializing bandwidth resources (links and buses).
//
// Determinism is a design requirement: two runs with the same inputs must
// produce bit-identical schedules, because the paper's central claim is that
// PIMnet communication is compile-time scheduled and contention-free. The
// kernel therefore never consults wall-clock time or global randomness, and
// ties between events scheduled for the same instant are broken by insertion
// sequence.
package sim

import (
	"fmt"
	"math"
)

// Time is a simulated instant or duration in picoseconds. The picosecond
// granularity lets the kernel represent both sub-nanosecond wire delays
// (a 350 MHz DPU cycle is 2857 ps) and multi-second runs without overflow:
// the int64 range covers about 106 days.
type Time int64

// Common durations.
const (
	Picosecond  Time = 1
	Nanosecond  Time = 1000 * Picosecond
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// MaxTime is the largest representable instant. It is used as an "infinitely
// far in the future" sentinel by resource bookkeeping.
const MaxTime Time = math.MaxInt64

// Seconds converts t to floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// String renders the duration with an auto-selected unit, e.g. "12.50us".
func (t Time) String() string {
	neg := ""
	v := t
	if v < 0 {
		neg = "-"
		v = -v
	}
	switch {
	case v < Nanosecond:
		return fmt.Sprintf("%s%dps", neg, int64(v))
	case v < Microsecond:
		return fmt.Sprintf("%s%.2fns", neg, float64(v)/float64(Nanosecond))
	case v < Millisecond:
		return fmt.Sprintf("%s%.2fus", neg, float64(v)/float64(Microsecond))
	case v < Second:
		return fmt.Sprintf("%s%.2fms", neg, float64(v)/float64(Millisecond))
	default:
		return fmt.Sprintf("%s%.3fs", neg, float64(v)/float64(Second))
	}
}

// Cycles returns the duration of n clock cycles at the given frequency.
// A zero or negative frequency yields zero, so an unconfigured clock is
// harmless rather than a division trap.
func Cycles(n int64, freqHz float64) Time {
	if n <= 0 || freqHz <= 0 {
		return 0
	}
	return Time(math.Ceil(float64(n) / freqHz * float64(Second)))
}

// TransferTime returns the serialization time of moving bytes at bw bytes
// per second. Zero-byte transfers take zero time; a non-positive bandwidth
// is treated as infinitely slow and returns MaxTime, making configuration
// mistakes loudly visible in results instead of silently free.
func TransferTime(bytes int64, bw float64) Time {
	if bytes <= 0 {
		return 0
	}
	if bw <= 0 {
		return MaxTime
	}
	return Time(math.Ceil(float64(bytes) / bw * float64(Second)))
}

// AddSat returns a+b saturated at MaxTime. Fault modelling uses MaxTime as
// an "never completes" sentinel (a hard-failed link), and sums involving it
// must stay pinned at the sentinel instead of wrapping negative.
func AddSat(a, b Time) Time {
	if b > 0 && a > MaxTime-b {
		return MaxTime
	}
	return a + b
}

// MaxOf returns the larger of a and b.
func MaxOf(a, b Time) Time {
	if a > b {
		return a
	}
	return b
}
