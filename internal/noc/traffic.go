package noc

import (
	"fmt"

	"pimnet/internal/collective"
	"pimnet/internal/sim"
)

// message is one logical transfer of a collective step.
type message struct {
	src, dst int
	bytes    int64
}

// nodeScript is a node's ordered message sequence, one message per step
// (ring collectives and shift all-to-all both have this shape).
type nodeScript struct {
	msgs []message
}

// newScripts returns n empty node scripts with room for steps messages
// each, carved from one backing array, so appending a step never grows one.
func newScripts(n, steps int) []nodeScript {
	scripts := make([]nodeScript, n)
	all := make([]message, n*steps)
	for i := range scripts {
		scripts[i].msgs = all[i*steps : i*steps : (i+1)*steps]
	}
	return scripts
}

// allReduceScripts builds the logical-ring AllReduce over all N nodes:
// N-1 reduce-scatter steps followed by N-1 all-gather steps, each node
// sending one chunk to its clockwise successor per step.
func allReduceScripts(n int, bytesPerNode int64) []nodeScript {
	if n <= 1 {
		return make([]nodeScript, n)
	}
	scripts := newScripts(n, 2*collective.RingSteps(n))
	chunk := func(i int) int64 {
		lo, hi := collective.ChunkBounds(int(bytesPerNode), n, i)
		return int64(hi - lo)
	}
	for s := 0; s < collective.RingSteps(n); s++ {
		for i := 0; i < n; i++ {
			scripts[i].msgs = append(scripts[i].msgs, message{
				src: i, dst: collective.RingSuccessor(n, i),
				bytes: chunk(collective.RSSendChunk(n, i, s)),
			})
		}
	}
	for s := 0; s < collective.RingSteps(n); s++ {
		for i := 0; i < n; i++ {
			scripts[i].msgs = append(scripts[i].msgs, message{
				src: i, dst: collective.RingSuccessor(n, i),
				bytes: chunk(collective.AGSendChunk(n, i, s)),
			})
		}
	}
	return scripts
}

// allToAllScripts builds the shift-schedule personalized exchange: at step
// s node i sends its block for node (i+s) mod n directly to it.
func allToAllScripts(n int, bytesPerNode int64) []nodeScript {
	if n <= 1 {
		return make([]nodeScript, n)
	}
	scripts := newScripts(n, n-1)
	blk := allToAllBlock(n, bytesPerNode)
	for s := 1; s < n; s++ {
		for i := 0; i < n; i++ {
			scripts[i].msgs = append(scripts[i].msgs, message{
				src: i, dst: collective.ShiftDest(n, i, s), bytes: blk,
			})
		}
	}
	return scripts
}

// allToAllBlock is the size of every message of the n-node shift exchange:
// one destination's share of bytesPerNode, at least one byte.
func allToAllBlock(n int, bytesPerNode int64) int64 {
	return max(bytesPerNode/int64(n), 1)
}

// AllToAllConfig returns the canonical form of cfg for SimulateAllToAll at
// bytesPerNode: PacketBytes clamped to the exchange's message size. A
// packet size at or above the message size sends every message as one
// packet of exactly that size, so all such configurations simulate the
// same network, and this one stands for them all: SimulateAllToAll returns
// the same Result for cfg and for AllToAllConfig(cfg, bytesPerNode). Being
// comparable, the returned Config keys a set of distinct simulations.
func AllToAllConfig(cfg Config, bytesPerNode int64) Config {
	if n := cfg.Nodes(); n >= 1 {
		cfg.PacketBytes = min(cfg.PacketBytes, allToAllBlock(n, bytesPerNode))
	}
	return cfg
}

// SimulateAllReduce runs the ring AllReduce on the packet network under the
// chosen flow-control mode. computeDone gives each DPU's kernel completion
// time (the injection gate in credit mode; the max forms the global START
// in static mode).
func SimulateAllReduce(cfg Config, mode Mode, computeDone []sim.Time, bytesPerNode int64) (Result, error) {
	return simulate(cfg, mode, computeDone, func(n int) []nodeScript { return allReduceScripts(n, bytesPerNode) }, true)
}

// SimulateAllToAll runs the personalized exchange on the packet network.
func SimulateAllToAll(cfg Config, mode Mode, computeDone []sim.Time, bytesPerNode int64) (Result, error) {
	return simulate(cfg, mode, computeDone, func(n int) []nodeScript { return allToAllScripts(n, bytesPerNode) }, false)
}

// collDriver gates scripted message injection.
//
// Credit mode: node i injects its step-k message once its own compute is
// done, its step k-1 message has drained (send buffer reuse), and — when
// recvGate — its step k-1 incoming data has arrived (ring collectives
// forward received chunks).
//
// Static mode: every node is released at one global START, after the
// slowest DPU reports READY plus the sync tree propagation. From then on it
// runs the same dependency gating and the same buffered hops as credit
// mode; only the launch differs. There are no compile-time injection
// offsets yet, so static packets can wait in input queues (ROADMAP, "Static
// mode runs a compiled, contention-free schedule").
type collDriver struct {
	scripts  []nodeScript
	release  []sim.Time
	sent     []int32 // messages fully drained per node
	recvd    []int32 // messages received per node
	next     []int32 // next step index to inject
	steps    int32
	recvGate bool
	finish   sim.Time
}

// tryInject schedules node i's next message once its gates open.
func (c *collDriver) tryInject(nw *network, i int32) {
	k := c.next[i]
	if k >= c.steps || c.sent[i] < k || (c.recvGate && c.recvd[i] < k) {
		return
	}
	c.next[i]++
	at := c.release[i]
	if now := nw.eng.Now(); now > at {
		at = now
	}
	nw.eng.At(at, evSend, i, k)
}

// send segments node i's step-k message and injects the segments its first
// hop has room for as packets; the rest waits there as one block, which
// makes each remaining segment a packet only when a credit frees. The
// message's uids are reserved here, so they do not depend on when its
// segments become packets. The message group tracks the undelivered count;
// msgDone fires when the last packet lands.
func (c *collDriver) send(nw *network, i, k int32, t sim.Time) {
	m := c.scripts[i].msgs[k]
	pb := nw.f.cfg.PacketBytes
	segs := int32(1) // a zero-byte message still sends one empty packet
	if m.bytes > 0 {
		segs = int32((m.bytes + pb - 1) / pb)
	}
	off, plen := nw.f.path(m.src, m.dst)
	bk := block{born: t, uid0: nw.uidNext + 1, bytes: m.bytes, pathOff: off, pathLen: plen,
		msg: nw.allocMsg(i, k, int32(m.dst), segs), segs: segs}
	nw.uidNext += int64(segs)
	first := nw.f.paths[off]
	for ; bk.seg < segs && !nw.full(first); bk.seg++ {
		nw.admit(first, nw.allocPacket(bk.segment(bk.seg, pb)), t)
	}
	switch segs - bk.seg {
	case 0:
	case 1: // a lone segment waits as the packet it is
		nw.pushWaiter(first, encPktWaiter(nw.allocPacket(bk.segment(bk.seg, pb))))
	default:
		nw.pushWaiter(first, encBlockWaiter(nw.allocBlock(bk)))
	}
}

// msgDone advances the gates when node's step-k message has fully landed.
func (c *collDriver) msgDone(nw *network, node, step, dst int32, t sim.Time) {
	if t > c.finish {
		c.finish = t
	}
	c.sent[node] = step + 1
	c.recvd[dst]++
	c.tryInject(nw, node)
	c.tryInject(nw, dst)
}

// simulate validates cfg before building its node scripts (so a bad shape
// never sizes an allocation), then drives them through the queueing
// network.
func simulate(cfg Config, mode Mode, computeDone []sim.Time, scripts func(n int) []nodeScript, recvGate bool) (Result, error) {
	if err := cfg.validate(); err != nil {
		return Result{}, err
	}
	_, res, err := runScripts(cfg, mode, computeDone, scripts(cfg.Nodes()), recvGate)
	return res, err
}

// runScripts is simulate's core, additionally returning the network so
// in-package tests can assert on arena high-water marks (the bounded-peak-
// heap regression lock) and attach delivery instrumentation.
func runScripts(cfg Config, mode Mode, computeDone []sim.Time, scripts []nodeScript, recvGate bool) (*network, Result, error) {
	if err := cfg.validate(); err != nil {
		return nil, Result{}, err
	}
	n := cfg.Nodes()
	if len(computeDone) != n {
		return nil, Result{}, fmt.Errorf("noc: %d finish times for %d nodes", len(computeDone), n)
	}
	if n <= 1 || len(scripts[0].msgs) == 0 {
		return nil, Result{}, nil
	}

	// Injection gates. Static mode is not barriered step by step: a single
	// global START after the slowest DPU reports READY (plus the sync tree
	// propagation) replaces credit mode's inject-on-own-retire.
	release := computeDone
	if mode == StaticScheduled {
		var start sim.Time
		for _, t := range computeDone {
			if t > start {
				start = t
			}
		}
		start += tableIV.start
		release = make([]sim.Time, n)
		for i := range release {
			release[i] = start
		}
	} else if mode != CreditBased {
		return nil, Result{}, fmt.Errorf("noc: unknown mode %d", int(mode))
	}

	f := buildFabric(cfg)
	nw := newNetwork(f, cfg)
	// A node sends its next message only after its last one drained, so
	// at most n messages are live at once.
	nw.msgs = make([]msgGroup, 0, n)
	nw.deliverHook = deliverObserver
	nw.coll = &collDriver{
		scripts:  scripts,
		release:  release,
		sent:     make([]int32, n),
		recvd:    make([]int32, n),
		next:     make([]int32, n),
		steps:    int32(len(scripts[0].msgs)),
		recvGate: recvGate,
	}
	for i := 0; i < n; i++ {
		nw.eng.At(release[i], evTry, int32(i), 0)
	}

	nw.run()
	res := nw.res
	res.Finish = nw.coll.finish
	res.MaxQueue = nw.maxQueue()
	return nw, res, nil
}

// deliverObserver, when non-nil, is attached as the deliverHook of every
// network the package builds — the seam FuzzNocDelivery uses to watch every
// (uid, born, arrival) triple. Set only by in-package tests, before any
// simulation runs.
var deliverObserver func(uid int64, born, t sim.Time)
