package tensor

import (
	"reflect"
	"testing"
)

// TestAVX2RowRoutinesSelected checks that init put the AVX2 row routines
// under MatMul and MatMulAT (one strided routine), MatMulBT and
// AddMatMulAT, and the AVX2
// elementwise routines under AddInPlace, ScaleInPlace, AdamUpdate,
// ReLUGate and PairwiseUpperGrad, so
// the bitwise tests and the fuzzers compare the kernels with the scalar
// routines rather than the scalar routines with themselves. A CPU without
// AVX2 skips it, visibly.
func TestAVX2RowRoutinesSelected(t *testing.T) {
	if !HasAVX2() {
		t.Skip("CPU without AVX2: the entry points run the scalar routines")
	}
	for _, c := range []struct {
		name      string
		got, want any
	}{
		{"mulRows", mulRows, matMulRowsAVX2},
		{"mulBTRows", mulBTRows, matMulBTRowsAVX2},
		{"mulATAddRows", mulATAddRows, matMulATAddRowsAVX2},
		{"addVec", addVec, addAVX2},
		{"scaleVec", scaleVec, scaleAVX2},
		{"adamVec", adamVec, adamAVX2},
		{"gateVec", gateVec, gateAVX2},
		{"pairGradVec", pairGradVec, pairGradAVX2},
	} {
		if reflect.ValueOf(c.got).Pointer() != reflect.ValueOf(c.want).Pointer() {
			t.Errorf("%s is not the AVX2 routine on an AVX2 CPU", c.name)
		}
	}
}
