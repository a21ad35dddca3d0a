package noc

import (
	"fmt"

	"pimnet/internal/sim"
)

// Adversarial traffic patterns. Uniform-random measures average-case
// capacity; the others are the standard worst-case spatial distributions of
// the NoC literature, mapped onto the PIMnet topology:
//
//   - Hotspot: a fraction of all traffic converges on one node, saturating
//     that node's chip port and ring while the rest of the fabric idles.
//   - Transpose: the matrix-transpose permutation (src = x*b+y sends to
//     y*a+x for n = a*b), which concentrates flows onto a few chip-to-chip
//     port pairs instead of spreading them.
//   - Tornado: node i sends to (i + ceil(n/2) - 1) mod n — maximum-distance
//     traffic that defeats locality and keeps every packet crossing the
//     shared bus tier.
//   - Bursty multi-tenant: the node space is split into tenant blocks that
//     take turns bursting at full rate, with a cross-tenant fraction that
//     drags the shared bus into every burst — the interference pattern a
//     multi-tenant PIM deployment would see.
//
// Every pattern exists in two forms. The open-loop form (SimulateTraffic)
// picks per-packet destinations at a configured injection rate. The
// scripted form (SimulatePattern) phrases the pattern as a bounded number
// of per-node message steps and runs it through the same dependency-gated
// machinery as the collectives — which is what makes the credit-based vs
// PIM-controlled comparison meaningful on adversarial traffic.

// TrafficPattern selects the spatial traffic distribution.
type TrafficPattern int

// The synthetic patterns.
const (
	Uniform TrafficPattern = iota
	Hotspot
	Transpose
	Tornado
	BurstyTenants
)

const (
	// hotspotFraction of hotspot-pattern packets target the hot node.
	hotspotFraction = 0.25
	// crossTenantFraction of a bursting tenant's packets leave its block.
	crossTenantFraction = 0.2
	// burstyTenantCount tenant blocks take turns bursting.
	burstyTenantCount = 4
)

// String names the pattern.
func (p TrafficPattern) String() string {
	switch p {
	case Uniform:
		return "uniform"
	case Hotspot:
		return "hotspot"
	case Transpose:
		return "transpose"
	case Tornado:
		return "tornado"
	case BurstyTenants:
		return "bursty"
	}
	return fmt.Sprintf("pattern(%d)", int(p))
}

func (p TrafficPattern) validate() error {
	if p < Uniform || p > BurstyTenants {
		return fmt.Errorf("noc: unknown traffic pattern %d", int(p))
	}
	return nil
}

// ParseTrafficPattern resolves a pattern name.
func ParseTrafficPattern(s string) (TrafficPattern, error) {
	for _, p := range TrafficPatterns() {
		if s == p.String() {
			return p, nil
		}
	}
	return 0, fmt.Errorf("noc: unknown traffic pattern %q", s)
}

// TrafficPatterns lists every pattern, in sweep order.
func TrafficPatterns() []TrafficPattern {
	return []TrafficPattern{Uniform, Hotspot, Transpose, Tornado, BurstyTenants}
}

// transposeFactors splits n = a*b with a the largest divisor <= sqrt(n).
// For prime n this degenerates to 1*n and the transpose permutation
// collapses to identity (handled by the self-send bump).
func transposeFactors(n int) (a, b int) {
	a = 1
	for d := 2; d*d <= n; d++ {
		if n%d == 0 {
			a = d
		}
	}
	return a, n / a
}

// transposeDest maps src = x*b+y to y*a+x, bumping self-sends to the ring
// successor.
func transposeDest(src, a, b, n int) int {
	x, y := src/b, src%b
	dst := y*a + x
	if dst == src {
		dst = (src + 1) % n
	}
	return dst
}

// tornadoDest sends half way around the node space.
func tornadoDest(src, off, n int) int {
	dst := (src + off) % n
	if dst == src {
		dst = (dst + 1) % n
	}
	return dst
}

// tenantOf assigns nodes to equal tenant blocks.
func tenantOf(node, n int) int { return node * burstyTenantCount / n }

// tenantBounds returns tenant t's half-open node range.
func tenantBounds(t, n int) (lo, hi int) {
	return t * n / burstyTenantCount, (t + 1) * n / burstyTenantCount
}

// --- open-loop destination selection ---

// burstOn reports whether src's tenant is in its burst window at time t.
// Tenants take turns: one burstWindow each, round-robin.
func (d *trafDriver) burstOn(src int, t sim.Time) bool {
	active := int(t/d.burstWindow) % burstyTenantCount
	return tenantOf(src, d.n) == active
}

// uniformDest draws a destination uniformly from all nodes except src.
func (d *trafDriver) uniformDest(src int) int {
	dst := d.rng.Intn(d.n - 1)
	if dst >= src {
		dst++
	}
	return dst
}

// dest picks the next packet's destination for src under the pattern.
func (d *trafDriver) dest(src int) int {
	switch d.pattern {
	case Hotspot:
		if src != d.hot && d.rng.Float64() < hotspotFraction {
			return d.hot
		}
		return d.uniformDest(src)
	case Transpose:
		return transposeDest(src, d.transposeA, d.transposeB, d.n)
	case Tornado:
		return tornadoDest(src, d.tornadoOff, d.n)
	case BurstyTenants:
		if d.rng.Float64() < crossTenantFraction {
			return d.uniformDest(src)
		}
		lo, hi := tenantBounds(tenantOf(src, d.n), d.n)
		if hi-lo <= 1 {
			return d.uniformDest(src)
		}
		dst := lo + d.rng.Intn(hi-lo-1)
		if dst >= src {
			dst++
		}
		return dst
	default: // Uniform
		return d.uniformDest(src)
	}
}

// --- scripted adversarial workloads ---

// patternScripts phrases a pattern as steps of one message per node, the
// same shape as the collective scripts, so the dependency-gated injection
// machinery (and both flow-control modes) apply unchanged. Every node sends
// every step; patterns that idle nodes (bursty off-windows) model the idle
// phase as a small background message so script shapes stay rectangular.
func patternScripts(pattern TrafficPattern, n, steps int, bytesPerNode int64, seed int64) []nodeScript {
	if n <= 1 || steps < 1 {
		return make([]nodeScript, n)
	}
	scripts := newScripts(n, steps)
	a, b := transposeFactors(n)
	torOff := (n+1)/2 - 1
	hot := n / 2
	rng := newScriptRng(seed)
	succ := func(i int) int { return (i + 1) % n }
	for s := 0; s < steps; s++ {
		for i := 0; i < n; i++ {
			m := message{src: i, bytes: bytesPerNode}
			switch pattern {
			case Hotspot:
				if i == hot {
					m.dst = succ(i)
				} else {
					m.dst = hot
				}
			case Transpose:
				m.dst = transposeDest(i, a, b, n)
			case Tornado:
				m.dst = tornadoDest(i, torOff, n)
			case BurstyTenants:
				lo, hi := tenantBounds(tenantOf(i, n), n)
				if tenantOf(i, n) == s%burstyTenantCount && hi-lo > 1 {
					// Bursting tenant: full-size message, destination walks
					// the tenant block so successive bursts differ.
					shift := 1 + (s/burstyTenantCount)%(hi-lo-1)
					m.dst = lo + ((i-lo)+shift)%(hi-lo)
					if m.dst == i {
						m.dst = succ(i)
					}
				} else {
					// Off-window: background trickle to the ring successor.
					m.dst = succ(i)
					m.bytes = bytesPerNode/16 + 1
				}
			case Uniform:
				dst := rng.intn(n - 1)
				if dst >= i {
					dst++
				}
				m.dst = dst
			}
			scripts[i].msgs = append(scripts[i].msgs, m)
		}
	}
	return scripts
}

// scriptRng is a tiny deterministic generator (splitmix64) for scripted
// uniform destinations, so pattern scripts don't depend on math/rand's
// stream and stay stable across Go releases.
type scriptRng struct{ state uint64 }

func newScriptRng(seed int64) *scriptRng {
	return &scriptRng{state: uint64(seed)*0x9e3779b97f4a7c15 + 0x632be59bd9b4e019}
}

func (r *scriptRng) next() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *scriptRng) intn(n int) int { return int(r.next() % uint64(n)) }

// SimulatePattern runs steps rounds of the pattern's scripted messages
// (bytesPerNode per node per step) through the packet network under the
// chosen flow-control mode. computeDone has the same meaning as for the
// collectives. seed only affects the Uniform pattern's destinations.
func SimulatePattern(cfg Config, mode Mode, pattern TrafficPattern, computeDone []sim.Time,
	bytesPerNode int64, steps int, seed int64) (Result, error) {
	if err := pattern.validate(); err != nil {
		return Result{}, err
	}
	if steps < 1 {
		return Result{}, fmt.Errorf("noc: pattern steps %d", steps)
	}
	if bytesPerNode < 1 {
		return Result{}, fmt.Errorf("noc: pattern bytes %d", bytesPerNode)
	}
	scripts := patternScripts(pattern, cfg.Nodes(), steps, bytesPerNode, seed)
	return simulate(cfg, mode, computeDone, scripts, false)
}
