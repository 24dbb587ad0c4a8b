package pw

import (
	"log"
	"os"
	"testing"

	"dmt/internal/comm"
)

// Each function below leaves h open on its !ok branch, then returns: the
// return counts as a leak only when the call before it can return.

func fatalTest(t *testing.T, c *comm.Comm, x []float32, ok bool) []float32 {
	h := c.IAllReduceSum(x)
	if !ok {
		t.Fatalf("no result")
		return nil
	}
	return h.Wait()
}

func fatalLog(c *comm.Comm, x []float32, ok bool) []float32 {
	h := c.IAllReduceSum(x)
	if !ok {
		log.Fatalf("no result")
		return nil
	}
	return h.Wait()
}

func exits(c *comm.Comm, x []float32, ok bool) []float32 {
	h := c.IAllReduceSum(x)
	if !ok {
		os.Exit(2)
		return nil
	}
	return h.Wait()
}

// fail never returns, so neither does a call to it.
func fail(msg string) { panic(msg) }

func failsThroughHelper(c *comm.Comm, x []float32, ok bool) []float32 {
	h := c.IAllReduceSum(x)
	if !ok {
		fail("no result")
		return nil
	}
	return h.Wait()
}

// failIf returns when bad is false.
func failIf(bad bool) {
	if bad {
		panic("bad")
	}
}

func mayFailThroughHelper(c *comm.Comm, x []float32, ok bool) []float32 {
	h := c.IAllReduceSum(x) // want `comm\.Pending "h" from IAllReduceSum may reach a return without Wait or Carry`
	if !ok {
		failIf(true)
		return nil
	}
	return h.Wait()
}
