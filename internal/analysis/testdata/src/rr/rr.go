// Package rr is the retainrelease fixture corpus: dropped pooled
// references, including one under a former escape-hatch comment, and
// allowed release/transfer patterns.
package rr

import "dmt/internal/quant"

// ---- flagged -----------------------------------------------------------

func dropped(x []float32) {
	quant.Encode(quant.FP16, x) // want `pooled quant\.Encoded from Encode is dropped without Release`
}

func blankAssigned(x, r []float32) {
	_ = quant.EncodeResidual(quant.FP16, x, r) // want `pooled quant\.Encoded from EncodeResidual is dropped without Release`
}

func decodedAndDropped(x []float32) []float32 {
	return quant.Encode(quant.FP16, x).Decode() // want `pooled quant\.Encoded from Encode is consumed by Decode and then dropped without Release`
}

func leakOnBranch(x []float32, cond bool) {
	e := quant.Encode(quant.FP16, x) // want `pooled quant\.Encoded "e" from Encode may reach a return without Release`
	if cond {
		e.Release()
	}
}

func wireDeliveryDropped(v any) []float32 {
	e := v.(*quant.Encoded) // want `pooled quant\.Encoded "e" from the wire may reach a return without Release`
	return e.Decode()
}

func formerMarkerSilencesNothing(x []float32) {
	quant.Encode(quant.FP16, x) /* want `dropped without Release` */ //dmt:refcount-ok a former escape hatch silences nothing
}

// ---- allowed -----------------------------------------------------------

func releasedOnAllPaths(x []float32, cond bool) []float32 {
	e := quant.Encode(quant.FP16, x)
	if cond {
		out := e.Decode()
		e.Release()
		return out
	}
	e.Release()
	return nil
}

func deferredRelease(v any) []float32 {
	e := v.(*quant.Encoded)
	defer e.Release()
	return e.Decode()
}

func retainThenRelease(x []float32) {
	e := quant.Encode(quant.FP16, x)
	e.Retain(2)
	e.Release()
}

func returnedToCaller(x []float32) *quant.Encoded {
	return quant.Encode(quant.FP16, x)
}

func sentOnTheWire(x []float32, wire chan<- any) {
	e := quant.Encode(quant.FP16, x)
	wire <- e
}

func fannedOutInLoop(x []float32, wires []chan<- any) {
	e := quant.Encode(quant.FP16, x)
	e.Retain(len(wires) - 1)
	for _, w := range wires {
		w <- e
	}
}

func typeSwitchIsNotAnAcquisition(v any) int {
	switch v.(type) {
	case *quant.Encoded:
		return 1
	default:
		return 0
	}
}
