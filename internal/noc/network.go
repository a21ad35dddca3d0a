package noc

import "pimnet/internal/sim"

// The packet-forwarding core. Every hop is a store-and-forward stage with
// one server, FIFO service, a finite input buffer, and blocking when the
// downstream buffer is full. The state machine is the original
// serve/finishService/forward/depart chain, but nothing on it allocates in
// steady state:
//
//   - hop state lives in one []hopState arena indexed by hop id;
//   - each hop's buffered packets sit in a power-of-two ring buffer carved
//     from one shared backing array (no q = q[1:] reslicing, which pinned
//     the whole backing array for the run);
//   - waiters (blocked upstream hops, packets awaiting an injection credit,
//     blocks) form intrusive FIFO chains of int32 ids threaded through the
//     hop, packet and block arenas — no closure slices;
//   - packets, message groups and blocks are free-list arenas;
//   - a message's segments become packets only when its first hop has room:
//     the unsent rest of a message waits as one block, which turns its next
//     segment into a packet per credit freed, so live packets are bounded
//     by hop occupancy rather than by the messages in flight;
//   - events are plain values on the engine's queue: a kind and two int32
//     operands, dispatched by one switch in run.
//
// The event flow is call-for-call identical to the original closure design:
// the same events are scheduled at the same instants in the same order,
// and every packet keeps the uid, size and birth time it had when all of a
// message's packets were made at send. That is what keeps results
// bit-identical to the pre-rewrite implementation (locked by
// testdata/golden and TestDeliveryStreamDigest).

const nilIdx = int32(-1)

// Waiter ids encode their arena in the low bits: hop h -> h<<1, packet p ->
// p<<2|1, block b -> b<<2|3, so the hops, the commonest waiters, take one
// bit test. The chain links live in hopState.waitNext, packet.waitNext and
// block.waitNext.
func encHopWaiter(h int32) int32   { return h << 1 }
func encPktWaiter(p int32) int32   { return p<<2 | 1 }
func encBlockWaiter(b int32) int32 { return b<<2 | 3 }

// isBlockWaiter reports whether waiter w is a block.
func isBlockWaiter(w int32) bool { return w&3 == 3 }

// hopState is one hop's dynamic state.
type hopState struct {
	q        []int32 // ring storage; len is a power of two
	qhead    int32
	qlen     int32
	maxSeen  int32
	serving  bool
	blocked  bool // head finished service but cannot move downstream
	waitHead int32
	waitTail int32
	waitNext int32 // chain link when this hop waits on a downstream hop
}

// push appends p to the ring, growing this hop's storage (rare: only when
// same-instant wakes overshoot the nominal buffer depth) by doubling.
func (hs *hopState) push(p int32) {
	if int(hs.qlen) == len(hs.q) {
		grown := make([]int32, 2*len(hs.q))
		mask := int32(len(hs.q) - 1)
		for i := int32(0); i < hs.qlen; i++ {
			grown[i] = hs.q[(hs.qhead+i)&mask]
		}
		hs.q = grown
		hs.qhead = 0
	}
	hs.q[(hs.qhead+hs.qlen)&int32(len(hs.q)-1)] = p
	hs.qlen++
	if hs.qlen > hs.maxSeen {
		hs.maxSeen = hs.qlen
	}
}

// head returns the packet at the front of the ring.
func (hs *hopState) head() int32 { return hs.q[hs.qhead] }

// pop removes the front packet.
func (hs *hopState) pop() {
	hs.qhead = (hs.qhead + 1) & int32(len(hs.q)-1)
	hs.qlen--
}

// packet is one in-flight segment. uid is a run-unique injection id (arena
// slots recycle; uid does not), used by delivery instrumentation.
type packet struct {
	bytes    int64
	born     sim.Time
	uid      int64
	pathOff  int32
	pathLen  int32
	idx      int32
	msg      int32 // message group, nilIdx for open-loop traffic
	waitNext int32 // waiter chain link; doubles as the free-list link
}

// block is the unsent rest of one message, segments seg..segs-1, waiting
// as one waiter in its first hop's credit FIFO. Its segments are not
// packets yet: each credit the hop frees hands out the next one, and the
// block keeps its FIFO place until its last segment leaves. Segment j is
// the packet of uid uid0+j holding bytes [j*PacketBytes, (j+1)*PacketBytes)
// of the message, so a message keeps the uids and sizes it would have had
// as packets made at send.
type block struct {
	born     sim.Time
	uid0     int64
	bytes    int64 // the whole message
	pathOff  int32
	pathLen  int32
	msg      int32
	seg      int32 // next segment to hand out
	segs     int32
	waitNext int32 // waiter chain link; doubles as the free-list link
}

// msgGroup tracks the undelivered packets of one logical message.
type msgGroup struct {
	outstanding int32
	node        int32 // sending node
	step        int32 // script step index
	dst         int32
	next        int32 // free-list link
}

// Event kinds dispatched by network.run.
const (
	evFinish uint8 = iota // a = hop, b = packet: service completed
	evAdmit               // a = hop, b = packet: arrival after wire latency
	evArrive              // a = packet: delivery out of the network
	evWake                // a = encoded waiter, b = block segment: buffer credit released
	evTry                 // a = node: collective injection gate check
	evSend                // a = node, b = step: segment + inject one message
	evTick                // a = node: open-loop traffic generator
)

// network drives the hops on its own engine.
type network struct {
	eng sim.Engine
	f   *fabric
	res Result

	lat sim.Time
	cap int32

	hops []hopState

	pkts    []packet
	pktFree int32
	pktLive int32
	pktPeak int32
	uidNext int64

	msgs    []msgGroup
	msgFree int32

	blocks    []block
	blockFree int32

	coll *collDriver
	traf *trafDriver

	// lastArrive is the latest inline-completed arrival instant (see depart);
	// the run's end time is max(engine end, lastArrive).
	lastArrive sim.Time

	// deliverHook, when non-nil, observes every packet delivery (uid, birth
	// time, arrival time). Test/fuzz instrumentation only: one predictable
	// branch on the arrival path.
	deliverHook func(uid int64, born, t sim.Time)
}

func newNetwork(f *fabric, cfg Config) *network {
	nw := &network{
		f:         f,
		lat:       tableIV.hop,
		cap:       int32(cfg.BufferPackets),
		hops:      make([]hopState, f.numHops),
		pktFree:   nilIdx,
		msgFree:   nilIdx,
		blockFree: nilIdx,
	}
	// One backing array holds every hop's initial ring window. A hop that
	// overshoots its window (possible: a same-instant credit wake admits on
	// top of a just-refilled buffer) doubles into its own storage.
	stride := 4
	for stride < cfg.BufferPackets+2 {
		stride *= 2
	}
	arena := make([]int32, int(f.numHops)*stride)
	for i := range nw.hops {
		hs := &nw.hops[i]
		hs.q = arena[i*stride : (i+1)*stride : (i+1)*stride]
		hs.waitHead, hs.waitTail, hs.waitNext = nilIdx, nilIdx, nilIdx
	}
	return nw
}

// run dispatches events until the queue drains and returns the instant of
// the last one.
func (nw *network) run() sim.Time {
	for ev, ok := nw.eng.Next(); ok; ev, ok = nw.eng.Next() {
		a, b, t := ev.A, ev.B, ev.At
		switch ev.Kind {
		case evFinish:
			nw.finishService(a, b, t)
		case evAdmit:
			nw.admit(a, b, t)
		case evArrive:
			nw.arrive(a, t)
		case evWake:
			nw.wake(a, b, t)
		case evTry:
			nw.coll.tryInject(nw, a)
		case evSend:
			nw.coll.send(nw, a, b, t)
		case evTick:
			nw.traf.tick(nw, a, t)
		}
	}
	return nw.eng.Now()
}

// allocPacket takes a packet slot from the free list (or grows the arena)
// and stores pk in it, unlinked. Callers must not hold *packet across this
// call: arena growth moves it.
func (nw *network) allocPacket(pk packet) int32 {
	var p int32
	if nw.pktFree != nilIdx {
		p = nw.pktFree
		nw.pktFree = nw.pkts[p].waitNext
	} else {
		nw.pkts = append(nw.pkts, packet{})
		p = int32(len(nw.pkts) - 1)
	}
	nw.pktLive++
	if nw.pktLive > nw.pktPeak {
		nw.pktPeak = nw.pktLive
	}
	pk.waitNext = nilIdx
	nw.pkts[p] = pk
	return p
}

func (nw *network) freePacket(p int32) {
	nw.pkts[p].waitNext = nw.pktFree
	nw.pktFree = p
	nw.pktLive--
}

// allocMsg takes a message-group slot for a message of n packets.
func (nw *network) allocMsg(node, step, dst, n int32) int32 {
	var g int32
	if nw.msgFree != nilIdx {
		g = nw.msgFree
		nw.msgFree = nw.msgs[g].next
	} else {
		nw.msgs = append(nw.msgs, msgGroup{})
		g = int32(len(nw.msgs) - 1)
	}
	nw.msgs[g] = msgGroup{outstanding: n, node: node, step: step, dst: dst, next: nilIdx}
	return g
}

func (nw *network) freeMsg(g int32) {
	nw.msgs[g].next = nw.msgFree
	nw.msgFree = g
}

// allocBlock stores bk, the unsent rest of a message, in the block arena.
func (nw *network) allocBlock(bk block) int32 {
	var b int32
	if nw.blockFree != nilIdx {
		b = nw.blockFree
		nw.blockFree = nw.blocks[b].waitNext
		nw.blocks[b] = bk
	} else {
		nw.blocks = append(nw.blocks, bk)
		b = int32(len(nw.blocks) - 1)
	}
	return b
}

func (nw *network) freeBlock(b int32) {
	nw.blocks[b].waitNext = nw.blockFree
	nw.blockFree = b
}

// segment returns segment j of bk's message as a packet cut at pb bytes:
// the last segment holds what the full ones before it leave (zero bytes
// for an empty message).
func (bk *block) segment(j int32, pb int64) packet {
	return packet{bytes: min(pb, bk.bytes-int64(j)*pb), born: bk.born, uid: bk.uid0 + int64(j),
		pathOff: bk.pathOff, pathLen: bk.pathLen, msg: bk.msg}
}

func (nw *network) full(h int32) bool { return nw.hops[h].qlen >= nw.cap }

// --- waiter chains ---

func (nw *network) waiterNext(w int32) int32 {
	switch {
	case w&1 == 0:
		return nw.hops[w>>1].waitNext
	case isBlockWaiter(w):
		return nw.blocks[w>>2].waitNext
	}
	return nw.pkts[w>>2].waitNext
}

func (nw *network) setWaiterNext(w, next int32) {
	switch {
	case w&1 == 0:
		nw.hops[w>>1].waitNext = next
	case isBlockWaiter(w):
		nw.blocks[w>>2].waitNext = next
	default:
		nw.pkts[w>>2].waitNext = next
	}
}

// pushWaiter appends waiter w to hop h's FIFO credit queue.
func (nw *network) pushWaiter(h, w int32) {
	nw.setWaiterNext(w, nilIdx)
	hs := &nw.hops[h]
	if hs.waitHead == nilIdx {
		hs.waitHead, hs.waitTail = w, w
		return
	}
	nw.setWaiterNext(hs.waitTail, w)
	hs.waitTail = w
}

// popWaiter removes and returns the first waiter of hop h.
func (nw *network) popWaiter(h int32) int32 {
	hs := &nw.hops[h]
	w := hs.waitHead
	hs.waitHead = nw.waiterNext(w)
	if hs.waitHead == nilIdx {
		hs.waitTail = nilIdx
	}
	return w
}

// --- the serve/finishService/forward/depart chain ---

// admit places packet p into hop h (space must exist) and kicks the server.
func (nw *network) admit(h, p int32, t sim.Time) {
	nw.hops[h].push(p)
	nw.serve(h, t)
}

// serve starts service on the head packet if the server is idle.
func (nw *network) serve(h int32, t sim.Time) {
	hs := &nw.hops[h]
	if hs.serving || hs.blocked || hs.qlen == 0 {
		return
	}
	hs.serving = true
	p := hs.head()
	svc := nw.f.ttFull[h]
	if b := nw.pkts[p].bytes; b != nw.f.cfg.PacketBytes {
		svc = sim.TransferTime(b, nw.f.rate(h))
	}
	// The head cannot change while the server holds it, so evFinish carries
	// p and finishService skips the head reload.
	nw.eng.At(t+svc, evFinish, h, p)
}

// finishService moves the head packet toward the next hop, blocking when
// the downstream buffer is full (backpressure).
func (nw *network) finishService(h, p int32, t sim.Time) {
	hs := &nw.hops[h]
	hs.serving = false
	pk := &nw.pkts[p]
	if pk.idx+1 >= pk.pathLen {
		nw.depart(h, p, t)
		return
	}
	next := nw.f.paths[pk.pathOff+pk.idx+1]
	if nw.full(next) {
		hs.blocked = true
		nw.pushWaiter(next, encHopWaiter(h))
		return
	}
	nw.forward(h, p, t)
}

// forward hands the head packet to the next hop after the wire latency.
func (nw *network) forward(h, p int32, t sim.Time) {
	nw.popHead(h, t)
	pk := &nw.pkts[p]
	pk.idx++
	next := nw.f.paths[pk.pathOff+pk.idx]
	nw.eng.At(t+nw.lat, evAdmit, next, p)
}

// depart delivers the packet out of the network.
//
// Open-loop traffic packets (no message group) complete inline: their
// arrival at t+lat only logs a latency and frees the slot — it touches no
// hop state, and arrival order equals depart order because every arrival
// shares the same +lat offset — so the evArrive round-trip through the
// event queue is pure overhead. lastArrive preserves the run-end clock the
// explicit arrival events used to establish. Message packets still take the
// event: msgDone opens injection gates, which is real same-instant ordering.
func (nw *network) depart(h, p int32, t sim.Time) {
	nw.popHead(h, t)
	nw.res.PacketsDelivered++
	at := t + nw.lat
	pk := &nw.pkts[p]
	if pk.msg == nilIdx {
		if nw.deliverHook != nil {
			nw.deliverHook(pk.uid, pk.born, at)
		}
		if at > nw.lastArrive {
			nw.lastArrive = at
		}
		born := pk.born
		nw.freePacket(p)
		nw.traf.delivered(born, at)
		return
	}
	nw.eng.At(at, evArrive, p, 0)
}

// popHead removes the head packet, releases one buffer credit to a waiter,
// and resumes service. A block at the head of the waiters takes the credit
// for its next segment and leaves the FIFO only with its last one.
func (nw *network) popHead(h int32, t sim.Time) {
	hs := &nw.hops[h]
	hs.pop()
	if w := hs.waitHead; w != nilIdx {
		seg := int32(0)
		if isBlockWaiter(w) {
			seg = nw.takeSegment(h, w>>2)
		} else {
			nw.popWaiter(h)
		}
		nw.eng.At(t, evWake, w, seg)
	}
	nw.serve(h, t)
}

// takeSegment hands block b, the head waiter of hop h, one credit: it
// returns the block's next segment index and pops the block off the FIFO
// when that is its last.
func (nw *network) takeSegment(h, b int32) int32 {
	bk := &nw.blocks[b]
	seg := bk.seg
	bk.seg++
	if bk.seg == bk.segs {
		nw.popWaiter(h)
	}
	return seg
}

// wake consumes a released buffer credit: a blocked upstream hop forwards
// its head; a packet awaiting injection retries (re-checking occupancy); a
// block's segment becomes a packet and tries the same way.
func (nw *network) wake(w, seg int32, t sim.Time) {
	if w&1 == 0 {
		h := w >> 1
		nw.hops[h].blocked = false
		nw.forward(h, nw.hops[h].head(), t)
		return
	}
	p := w >> 2
	if isBlockWaiter(w) {
		p = nw.makeSegment(p, seg)
	}
	nw.inject(p, t)
}

// makeSegment turns segment seg of block b into a packet, freeing the block
// with its last segment.
func (nw *network) makeSegment(b, seg int32) int32 {
	bk := &nw.blocks[b]
	p := nw.allocPacket(bk.segment(seg, nw.f.cfg.PacketBytes))
	if seg == bk.segs-1 {
		nw.freeBlock(b)
	}
	return p
}

// inject queues the packet at its first hop, waiting for a credit if full.
func (nw *network) inject(p int32, t sim.Time) {
	first := nw.f.paths[nw.pkts[p].pathOff]
	if nw.full(first) {
		nw.pushWaiter(first, encPktWaiter(p))
		return
	}
	nw.admit(first, p, t)
}

// arrive completes a message packet's delivery (depart completes open-loop
// packets inline): it closes the packet's message group once its last packet
// lands, and returns the packet slot to the free list.
func (nw *network) arrive(p int32, t sim.Time) {
	pk := &nw.pkts[p]
	if nw.deliverHook != nil {
		nw.deliverHook(pk.uid, pk.born, t)
	}
	g := pk.msg
	m := &nw.msgs[g]
	m.outstanding--
	if m.outstanding > 0 {
		nw.freePacket(p)
		return
	}
	node, step, dst := m.node, m.step, m.dst
	nw.freeMsg(g)
	nw.freePacket(p)
	nw.coll.msgDone(nw, node, step, dst, t)
}

// maxQueue returns the deepest queue observed on any hop.
func (nw *network) maxQueue() int {
	m := int32(0)
	for i := range nw.hops {
		if nw.hops[i].maxSeen > m {
			m = nw.hops[i].maxSeen
		}
	}
	return int(m)
}
