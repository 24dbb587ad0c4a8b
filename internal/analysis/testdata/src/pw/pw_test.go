package pw

import "dmt/internal/comm"

// Test files are not exempt from pendingwait: a handle a test drops
// leaves its payloads queued just as one in production code does.
func droppedInTestFile(c *comm.Comm, x []float32) {
	c.IAllReduceSum(x) // want `comm\.Pending from IAllReduceSum is dropped without Wait or Carry`
}
