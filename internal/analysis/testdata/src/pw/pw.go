// Package pw is the pendingwait fixture corpus: flagged leaks, including
// one under a former escape-hatch comment, and allowed transfer/discharge
// patterns.
package pw

import "dmt/internal/comm"

// ---- flagged -----------------------------------------------------------

func dropped(c *comm.Comm, x []float32) {
	c.IAllReduceSum(x) // want `comm\.Pending from IAllReduceSum is dropped without Wait or Carry`
}

func blankAssigned(c *comm.Comm, x []float32) {
	_ = c.IBroadcast(x, 0) // want `comm\.Pending from IBroadcast is dropped without Wait or Carry`
}

func consumedWithoutWait(c *comm.Comm, x []float32) int {
	return c.IAllReduceSum(x).Ticket() // want `comm\.Pending from IAllReduceSum is consumed by Ticket without Wait or Carry`
}

func leakOnBranch(c *comm.Comm, x []float32, cond bool) {
	h := c.IAllReduceSum(x) // want `comm\.Pending "h" from IAllReduceSum may reach a return without Wait or Carry`
	if cond {
		h.Wait()
	}
}

func leakStraightLine(c *comm.Comm, x []float32) int {
	h := c.IAllReduceSum(x) // want `comm\.Pending "h" from IAllReduceSum may reach a return without Wait or Carry`
	return h.Ticket()
}

func overwrittenInLoop(c *comm.Comm, x []float32, n int) {
	var h *comm.Pending[[]float32]
	for i := 0; i < n; i++ {
		h = c.IAllReduceSum(x) // want `comm\.Pending "h" from IAllReduceSum may reach a return without Wait or Carry`
	}
	if h != nil {
		h.Wait()
	}
}

func formerMarkerSilencesNothing(c *comm.Comm, x []float32) {
	c.IAllReduceSum(x) /* want `dropped without Wait or Carry` */ //dmt:pending-ok a former escape hatch silences nothing
}

// ---- allowed -----------------------------------------------------------

func waitedOnAllPaths(c *comm.Comm, x []float32, cond bool) []float32 {
	h := c.IAllReduceSum(x)
	if cond {
		return h.Wait()
	}
	h.Wait()
	return x
}

func carried(c *comm.Comm, x []float32) {
	h := c.IBroadcast(x, 0)
	h.Carry()
}

func deferredWait(c *comm.Comm, x []float32, cond bool) {
	h := c.IAllReduceSum(x)
	defer h.Wait()
	if cond {
		return
	}
}

func returned(c *comm.Comm, x []float32) *comm.Pending[[]float32] {
	return c.IAllReduceSum(x)
}

// bucketArena mirrors the trainer's cross-step carry arena: storing the
// handle transfers the obligation, so no path-sensitive reasoning applies.
type bucketArena struct {
	pending []*comm.Pending[[]float32]
}

func carryThroughArena(c *comm.Comm, a *bucketArena, x []float32) {
	h := c.IAllReduceSum(x)
	a.pending = append(a.pending, h)
}

func transferInLoop(c *comm.Comm, a *bucketArena, x []float32, n int) {
	h := c.IAllReduceSum(x)
	for i := 0; i < n; i++ {
		a.pending = append(a.pending, h)
	}
}

func capturedByClosure(c *comm.Comm, x []float32) func() []float32 {
	h := c.IAllReduceSum(x)
	return func() []float32 { return h.Wait() }
}

func passedOn(c *comm.Comm, x []float32) {
	h := c.IAllReduceSum(x)
	drain(h)
}

func drain(h *comm.Pending[[]float32]) { h.Wait() }

// A handle asserted out of an interface value was acquired by whoever
// issued the collective: the assertion mints no obligation of its own.
func assertedIsNotAcquired(v any) int {
	return v.(*comm.Pending[[]float32]).Ticket()
}

func panicPathIsNotALeak(c *comm.Comm, x []float32, cond bool) {
	h := c.IAllReduceSum(x)
	if cond {
		panic("torn down: the runtime cancels the group and reclaims handles")
	}
	h.Wait()
}
