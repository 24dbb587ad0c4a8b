// Package comm is the in-process collective-communication runtime that
// stands in for NCCL. Ranks are goroutines; a Group is a private full mesh
// of unbounded FIFO mailboxes; collectives (AlltoAll, AllReduce,
// AllGather) move real tensors between ranks; the SPTT
// embedding AlltoAll and the batched gradient AllGather also run over a
// quantized wire (compressed.go).
//
// Payloads travel by reference and are never serialized: each message is
// charged the bytes its wire encoding would take, a size the generic
// AlltoAll/IAlltoAll takes from its caller (SPTT step (a)'s bag records and
// an embedding tier's round requests, charged their int32 encodings).
//
// Every collective has a non-blocking I* form (IAlltoAllTensors,
// IAllReduceSum, ...) that posts its sends immediately and returns a
// Pending handle whose Wait() drains the receives and finishes the
// reduction. The blocking calls (AlltoAllTensors, AllReduceSum, ...) are
// thin I*-plus-Wait wrappers, so both forms share one implementation, one
// traffic accounting, and one determinism argument. Handles let callers
// overlap communication with compute: post, do rank-local work, then Wait —
// the runtime accounts, on the virtual clock below, how much communication
// each rank left exposed and how much it hid behind compute.
//
// The runtime is deterministic: every collective delivers results in source
// rank order and reductions accumulate in rank order, so repeated runs are
// bit-identical — which is what lets the SPTT semantic-preservation tests
// (package sptt) compare the transformed dataflow against the baseline
// global AlltoAll exactly, and what makes the pipelined training schedule
// (package distributed) bitwise identical to the sequential one.
//
// Per-pair traffic counters record how many bytes each rank sent to each
// other rank; they are maintained atomically so monitors may snapshot them
// while ranks are still sending. Given a host mapping, callers can split
// traffic into intra-host (NVLink in the real system) and cross-host (RDMA)
// volumes — the quantity the paper's whole argument is about.
//
// # Simulated latency
//
// Every group runs on a Network: a latency model plus one deterministic
// virtual clock per global rank. Every message carries a ready-time — the
// sender's virtual clock at issue plus a modeled point-to-point transfer
// cost (LatencyModel, typically netsim.P2PTime) — and a receiver whose clock
// is behind a message's ready-time advances its clock to it and charges the
// gap to its exposed counter. Hidden time is the union of the Pending
// handles' issue→Wait windows on the same clock. Compute advances a rank's
// clock only through explicit Clock.Advance calls, so the whole timeline is
// a pure function of the byte stream and the charged compute: bit-identical
// across runs, however the goroutines are actually scheduled. A nil model is
// zero delay — instant delivery is the cheapest latency model, not a
// separate mode — so with nothing modeled, exposed and hidden time are both
// zero. NewGroup builds its group such a network of its own.
//
// The Network is also the failure domain: a rank panic inside Run cancels
// every group on the rank's network (see Run).
package comm

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"dmt/internal/tensor"
)

// errCanceled is the panic value of a send or receive on a group of a
// canceled network (see Run).
var errCanceled = errors.New("comm: network canceled")

// Comm is one rank's handle to a communication group. All collective calls
// must be made by every rank of the group, in the same order, each from its
// own goroutine (see Run). Pending handles issued on a group must be waited
// in issue order, with no other collective on the same group in between
// (mailbox FIFO order is the wire format; Wait enforces the order and
// panics on a violation).
//
// Payloads are delivered by reference, not copied (the in-process analog of
// zero-copy RDMA). A sender must therefore not mutate a tensor after
// sending it within the same collective epoch; clone first if the buffer
// will be overwritten.
type Comm struct {
	rank int
	g    *group

	// clock is this rank's virtual clock on the group's network, shared with
	// every other group the same global rank joins on that network.
	clock *Clock

	// Issue/wait sequence numbers for Pending handles and the per-rank
	// exposed/hidden time counters. Touched only by this rank's goroutine;
	// read by others only after the rank goroutines have been joined.
	issueSeq uint64
	waitSeq  uint64
	// carried counts the pending handles deliberately marked as spanning a
	// step boundary (Pending.Carry) so the idle guards can tell a pipelined
	// handle apart from a leaked one. Same ownership rule as the sequence
	// numbers above.
	carried   uint64
	exposedNS int64
	hiddenNS  int64
}

// LatencyModel prices one point-to-point message. Implementations must be
// pure functions of their arguments — the determinism of the virtual
// timeline rests on it. src and dst are GLOBAL ranks (the identity callers
// pass to NewGroupNet), so a model can price intra-host and cross-host links
// differently; self-delivery (src == dst) is never priced.
type LatencyModel interface {
	P2PDelay(src, dst, nbytes int) time.Duration
}

// zeroDelay is the latency model of a network built with a nil one: every
// message is ready the instant it is sent.
type zeroDelay struct{}

func (zeroDelay) P2PDelay(int, int, int) time.Duration { return 0 }

// Clock is one rank's deterministic virtual clock: the simulated instant
// that rank has reached. Receives advance it to late messages' ready-times
// (charging the gap as exposed communication); compute advances it only
// through Advance, with whatever modeled duration the caller derives —
// never wall time, or determinism would be lost. A Clock is shared by every
// group the rank belongs to and must only be ADVANCED by the goroutine
// currently acting as that rank (phases hand it off through Run joins, like
// the Comm itself; an embedding server's clock passes with its turn from
// client to client); ns is read atomically so observers — Network.Now
// between phases — see whole values.
type Clock struct {
	ns atomic.Int64
	// hiddenFrontierNS is the virtual end of the latest hidden window
	// already credited across ALL of the rank's groups, so concurrently
	// in-flight handles credit the union of their issue→Wait windows rather
	// than the sum. Touched only by the goroutine acting as the rank.
	hiddenFrontierNS int64
}

// Advance moves the clock forward by a modeled compute duration — the hook
// that lets posted collectives hide behind compute in virtual time.
func (k *Clock) Advance(d time.Duration) {
	if d < 0 {
		panic(fmt.Sprintf("comm: clock advanced by %v", d))
	}
	k.ns.Add(d.Nanoseconds())
}

// Network couples a latency model with one virtual clock per global rank,
// and is the failure domain of every group built on it. Build it once per
// simulated world and pass it to every NewGroupNet call, so the global
// group and all sub-groups (SPTT's host and peer families, an embedding
// tier's pair groups) share each rank's single timeline and fail together.
type Network struct {
	model  LatencyModel
	clocks []*Clock

	mu       sync.Mutex
	mail     []*mailbox // every mailbox of every group on the network
	canceled bool
	done     chan struct{} // closed when canceled is set
}

// NewNetwork creates a simulated network of `ranks` global ranks priced by
// the model; a nil model delivers every message instantly.
func NewNetwork(model LatencyModel, ranks int) *Network {
	if model == nil {
		model = zeroDelay{}
	}
	if ranks <= 0 {
		panic(fmt.Sprintf("comm: network of %d ranks", ranks))
	}
	n := &Network{model: model, clocks: make([]*Clock, ranks), done: make(chan struct{})}
	for i := range n.clocks {
		n.clocks[i] = &Clock{}
	}
	return n
}

// Clock returns global rank's virtual clock.
func (n *Network) Clock(rank int) *Clock { return n.clocks[rank] }

// Done is closed once a rank of a Run on the network has panicked. Code
// that waits for a peer outside the collectives (an embedding server's
// turn) selects on it, so it aborts with the network's groups.
func (n *Network) Done() <-chan struct{} { return n.done }

// cancel poisons every mailbox of the network, so blocked receivers wake
// and panic with errCanceled, as do further sends, and closes Done. It
// reports whether this call canceled the network.
func (n *Network) cancel() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.canceled {
		return false
	}
	n.canceled = true
	close(n.done)
	for _, m := range n.mail {
		m.cancel()
	}
	return true
}

// Now returns the per-rank mean virtual time — the simulated wall clock of
// the whole world (ranks progress together through collectives).
func (n *Network) Now() time.Duration {
	var total int64
	for _, k := range n.clocks {
		total += k.ns.Load()
	}
	return time.Duration(total / int64(len(n.clocks)))
}

// message is one queued message: the payload and the virtual instant it is
// ready at the receiver. Queued by value, so a send allocates nothing
// beyond the queue's amortized growth.
type message struct {
	v       any
	readyNS int64
}

// mailbox is one directed (src, dst) link: an unbounded FIFO queue. The
// unbounded capacity is what makes non-blocking collectives possible — a
// rank can post the sends of several collectives before any peer drains
// them, and per-pair FIFO order keeps consecutive collectives from
// interleaving.
type mailbox struct {
	mu       sync.Mutex
	cond     sync.Cond
	q        []message
	head     int
	canceled bool
}

func (m *mailbox) put(v message) {
	m.mu.Lock()
	if m.canceled {
		m.mu.Unlock()
		panic(errCanceled)
	}
	m.q = append(m.q, v)
	m.cond.Signal()
	m.mu.Unlock()
}

// take pops the oldest message, blocking until one arrives.
func (m *mailbox) take() message {
	m.mu.Lock()
	for m.head == len(m.q) && !m.canceled {
		m.cond.Wait()
	}
	if m.canceled {
		m.mu.Unlock()
		panic(errCanceled)
	}
	v := m.q[m.head]
	m.q[m.head] = message{}
	m.head++
	if m.head == len(m.q) {
		m.q = m.q[:0]
		m.head = 0
	}
	m.mu.Unlock()
	return v
}

func (m *mailbox) cancel() {
	m.mu.Lock()
	m.canceled = true
	m.cond.Broadcast()
	m.mu.Unlock()
}

type group struct {
	size int
	// mail[dst][src] carries messages from src to dst.
	mail [][]*mailbox
	// sent[src][dst] counts payload bytes. Written with atomic adds on the
	// send path and read with atomic loads, so monitors can snapshot
	// traffic while ranks are still sending without a group-wide lock on
	// the hot path.
	sent [][]int64

	// net is the group's network; granks[i] is group rank i's global rank
	// on it, the identity the latency model prices links by.
	net    *Network
	granks []int
}

// NewGroup creates a group of the given size on a zero-delay network of its
// own and returns one Comm per rank.
func NewGroup(size int) []*Comm {
	return NewGroupNet(size, NewNetwork(nil, size), nil)
}

// NewGroupNet creates a group whose rank i acts as global rank
// globalRanks[i] on the network (nil globalRanks means the identity — group
// rank == global rank). Every message is stamped with a modeled ready-time,
// and the ranks' shared virtual clocks (net.Clock) drive the exposed/hidden
// accounting.
func NewGroupNet(size int, net *Network, globalRanks []int) []*Comm {
	if size <= 0 {
		panic(fmt.Sprintf("comm: group size %d", size))
	}
	if globalRanks == nil {
		globalRanks = make([]int, size)
		for i := range globalRanks {
			globalRanks[i] = i
		}
	}
	if len(globalRanks) != size {
		panic(fmt.Sprintf("comm: %d global ranks for group of %d", len(globalRanks), size))
	}
	for _, gr := range globalRanks {
		if gr < 0 || gr >= len(net.clocks) {
			panic(fmt.Sprintf("comm: global rank %d outside network of %d", gr, len(net.clocks)))
		}
	}
	g := &group{size: size, net: net, granks: globalRanks}
	g.mail = make([][]*mailbox, size)
	g.sent = make([][]int64, size)
	net.mu.Lock()
	for d := 0; d < size; d++ {
		g.mail[d] = make([]*mailbox, size)
		g.sent[d] = make([]int64, size)
		for s := 0; s < size; s++ {
			m := &mailbox{canceled: net.canceled}
			m.cond.L = &m.mu
			g.mail[d][s] = m
			net.mail = append(net.mail, m)
		}
	}
	net.mu.Unlock()
	comms := make([]*Comm, size)
	for r := 0; r < size; r++ {
		comms[r] = &Comm{rank: r, g: g, clock: net.Clock(globalRanks[r])}
	}
	return comms
}

// Rank returns this handle's rank within the group.
func (c *Comm) Rank() int { return c.rank }

// BytesSentTo returns the bytes this rank sent to dst so far. Safe to call
// while rank goroutines are still running (atomic snapshot).
func (c *Comm) BytesSentTo(dst int) int64 {
	return atomic.LoadInt64(&c.g.sent[c.rank][dst])
}

// Times returns this rank's cumulative collective timing in virtual time:
// exposed is communication the schedule failed to hide — the gaps from the
// rank's clock to later message ready-times — and hidden is the union of the
// Pending handles' issue→Wait windows (communication covered by overlapping
// compute; overlapping windows are merged, so a rank's hidden time never
// exceeds the span its clock covered). Both are zero when nothing is
// modeled. Valid to read after the rank goroutines have been joined.
func (c *Comm) Times() (exposed, hidden time.Duration) {
	return time.Duration(c.exposedNS), time.Duration(c.hiddenNS)
}

// GroupTimes sums Times over all ranks of a group. Valid after the rank
// goroutines have been joined.
func GroupTimes(comms []*Comm) (exposed, hidden time.Duration) {
	for _, c := range comms {
		e, h := c.Times()
		exposed += e
		hidden += h
	}
	return exposed, hidden
}

// TrafficMatrix returns a copy of the (src, dst) byte counters for the whole
// group. The snapshot is taken with atomic loads, so it is safe to call
// while rank goroutines are still sending.
func TrafficMatrix(comms []*Comm) [][]int64 {
	g := comms[0].g
	out := make([][]int64, g.size)
	for s := range out {
		out[s] = make([]int64, g.size)
		for d := range out[s] {
			out[s][d] = atomic.LoadInt64(&g.sent[s][d])
		}
	}
	return out
}

// SplitByHost splits a global-rank-indexed (src, dst) traffic matrix into
// intra-host (NVLink in the real system) and cross-host (RDMA) byte totals,
// given l ranks per host. Self-deliveries (the diagonal) carry no wire
// traffic and are excluded from both totals.
func SplitByHost(m [][]int64, l int) (intra, cross int64) {
	if l <= 0 {
		panic(fmt.Sprintf("comm: %d ranks per host", l))
	}
	for s := range m {
		for d, b := range m[s] {
			switch {
			case s == d:
			case s/l == d/l:
				intra += b
			default:
				cross += b
			}
		}
	}
	return intra, cross
}

// send stamps the payload with its ready-time. The ready-time reads only
// the SENDER's clock, so it is fixed at issue and travels with the payload;
// the mailbox mutex gives the receiver a happens-before edge to read it.
func (c *Comm) send(dst int, v any, nbytes int) {
	atomic.AddInt64(&c.g.sent[c.rank][dst], int64(nbytes))
	ready := c.clock.ns.Load()
	if src, d := c.g.granks[c.rank], c.g.granks[dst]; src != d {
		delay := c.g.net.model.P2PDelay(src, d, nbytes)
		if delay < 0 {
			panic(fmt.Sprintf("comm: negative p2p delay %v", delay))
		}
		ready += delay.Nanoseconds()
	}
	c.g.mail[dst][c.rank].put(message{v: v, readyNS: ready})
}

// recv takes src's next payload. How long the goroutine blocked is a
// scheduling artifact (the sender hadn't posted yet), not modeled transfer:
// the exposed cost is the virtual gap to the message's ready-time.
func (c *Comm) recv(src int) any {
	m := c.g.mail[c.rank][src].take()
	if gap := m.readyNS - c.clock.ns.Load(); gap > 0 {
		c.exposedNS += gap
		c.clock.ns.Store(m.readyNS)
	}
	return m.v
}

func tensorBytes(t *tensor.Tensor) int {
	if t == nil {
		return 0
	}
	return 4 * t.Len()
}

// AlltoAllTensors sends chunks[j] to rank j and returns the received chunks
// indexed by source rank. Chunk shapes may differ per destination (the "V"
// variant), which the embedding distribution steps rely on.
func (c *Comm) AlltoAllTensors(chunks []*tensor.Tensor) []*tensor.Tensor {
	c.checkIdle("AlltoAllTensors")
	return c.IAlltoAllTensors(chunks).Wait()
}

// AlltoAll is the blocking IAlltoAll: it sends chunks[j] to rank j,
// charged size(chunks[j]) bytes, and returns the received chunks indexed by
// source rank.
func AlltoAll[T any](c *Comm, chunks []T, size func(T) int) []T {
	c.checkIdle("AlltoAll")
	return IAlltoAll(c, chunks, size).Wait()
}

// AllReduceSum returns the elementwise sum of every rank's x. The reduction
// is performed in rank order on every rank, so all ranks obtain bit-identical
// results (deterministic, unlike real ring reductions).
func (c *Comm) AllReduceSum(x *tensor.Tensor) *tensor.Tensor {
	c.checkIdle("AllReduceSum")
	return c.IAllReduceSum(x).Wait()
}

// checkIdle panics if this rank still has unwaited Pending handles. Every
// blocking wrapper runs it before posting its sends: the wrapper's immediate
// Wait would panic on the sequencing violation anyway, but by then the sends
// would already sit in peers' mailboxes, so the guard fails the call loudly
// BEFORE the wire is touched.
func (c *Comm) checkIdle(op string) {
	if c.waitSeq != c.issueSeq {
		n := c.issueSeq - c.waitSeq
		if c.carried > 0 {
			panic(fmt.Sprintf("comm: rank %d called %s with %d pending handle(s) unwaited (%d carried across a step boundary — finish the pipelined step before issuing blocking collectives)",
				c.rank, op, n, c.carried))
		}
		panic(fmt.Sprintf("comm: rank %d called %s with %d pending handle(s) unwaited",
			c.rank, op, n))
	}
}

// AssertDrained panics if any rank of comms still has unwaited Pending
// handles. The cross-step pipelined trainer calls it after its drain pass:
// at that point even carried handles must have been waited, so anything
// left is a leak regardless of the Carry marking.
func AssertDrained(comms []*Comm) {
	for _, c := range comms {
		if n := c.issueSeq - c.waitSeq; n > 0 {
			panic(fmt.Sprintf("comm: rank %d has %d unwaited handle(s) after drain (%d marked carried)",
				c.rank, n, c.carried))
		}
	}
}

// Run executes fn once per rank, each in its own goroutine, and waits for
// all of them. The first rank to panic cancels the group's network, so
// peers blocked on any of its groups abort instead of deadlocking, and Run
// re-raises that panic with its rank attached. Panics after the
// cancellation are its cascade, not failures of their own. A canceled
// network stays canceled: its groups must not be used again.
func Run(comms []*Comm, fn func(c *Comm)) {
	net := comms[0].g.net
	var wg sync.WaitGroup
	panics := make([]any, len(comms))
	first := -1
	for i, c := range comms {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					panics[i] = r
					if net.cancel() {
						first = i
					}
				}
			}()
			fn(c)
		}()
	}
	wg.Wait()
	if first < 0 { // canceled before this run: report any rank it aborted
		first = slices.IndexFunc(panics, func(p any) bool { return p != nil })
	}
	if first >= 0 {
		panic(fmt.Sprintf("comm: rank %d panicked: %v", first, panics[first]))
	}
}
