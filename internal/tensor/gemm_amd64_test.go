package tensor

import (
	"reflect"
	"testing"
)

// TestAVX2RowRoutinesSelected checks that init put the AVX2 row routines
// under MatMul, MatMulBT and MatMulAT, so the bitwise tests and the fuzzer
// compare the kernel with the scalar routines rather than the scalar
// routines with themselves. A CPU without AVX2 skips it, visibly.
func TestAVX2RowRoutinesSelected(t *testing.T) {
	if !hasAVX2() {
		t.Skip("CPU without AVX2: the entry points run the scalar row routines")
	}
	for _, c := range []struct {
		name      string
		got, want any
	}{
		{"mulRows", mulRows, matMulRowsAVX2},
		{"mulBTRows", mulBTRows, matMulBTRowsAVX2},
		{"mulATRows", mulATRows, matMulATRowsAVX2},
	} {
		if reflect.ValueOf(c.got).Pointer() != reflect.ValueOf(c.want).Pointer() {
			t.Errorf("%s is not the AVX2 row routine on an AVX2 CPU", c.name)
		}
	}
}
