// Package nr is the noretain fixture corpus: Predict implementations
// that retain the batch, transient-result call sites that let arena
// storage escape, and the allowed copy-out patterns.
package nr

import (
	"dmt/arena"
	"dmt/internal/data"
)

// vecCache mimics the serve-side cache API the analyzer guards.
type vecCache struct{}

func (vecCache) PutVec(ns int, key uint64, v []float32) {}

func (vecCache) PutRows(keys []uint64, src rows) {}

func (vecCache) FillRows(keys []uint64, f *filler) {}

// rows is a strided row view, filler a row filler over a buffer.
type rows struct {
	Base          []float32
	Stride, Width int
}

type filler struct{ out []float32 }

// ---- rule 1, flagged: Predict retaining the batch ----------------------

type fieldRetainer struct{ last []float32 }

func (m *fieldRetainer) Predict(b *data.Batch) []float32 {
	m.last = b.Dense // want `the batch is stored outside the call frame`
	out := make([]float32, len(b.Dense))
	copy(out, b.Dense)
	return out
}

type aliasReturner struct{}

func (aliasReturner) Predict(b *data.Batch) []float32 {
	return b.Dense // want `the batch is returned`
}

type channelLeaker struct{ sink chan []float32 }

func (m *channelLeaker) Predict(b *data.Batch) []float32 {
	m.sink <- b.Dense // want `the batch is sent on a channel`
	return nil
}

type goroutineLeaker struct{}

func (goroutineLeaker) Predict(b *data.Batch) []float32 {
	go func() { // want `the batch is captured by a goroutine that may outlive the call`
		_ = b.Dense
	}()
	return nil
}

type subsliceRetainer struct{ last []float32 }

func (m *subsliceRetainer) Predict(b *data.Batch) []float32 {
	d := b.Dense[:4]
	m.last = d // want `the batch is stored outside the call frame`
	return nil
}

type cacheLeaker struct{ cache vecCache }

func (m *cacheLeaker) Predict(b *data.Batch) []float32 {
	m.cache.PutVec(0, 1, b.Dense) // want `the batch is stored in a cache without a copy`
	return nil
}

type rowsLeaker struct{ cache vecCache }

func (m *rowsLeaker) Predict(b *data.Batch) []float32 {
	m.cache.PutRows(nil, rows{Base: b.Dense, Stride: 1, Width: 1}) // want `the batch is stored in a cache without a copy`
	m.cache.PutRows(nil, rows{b.Dense[2:], 1, 1})                  // want `the batch is stored in a cache without a copy`
	return nil
}

type fillLeaker struct{ cache vecCache }

func (m *fillLeaker) Predict(b *data.Batch) []float32 {
	d := b.Dense
	m.cache.FillRows(nil, &filler{out: d}) // want `the batch is stored in a cache without a copy`
	return nil
}

type formerMarkerRetainer struct{ last []float32 }

func (m *formerMarkerRetainer) Predict(b *data.Batch) []float32 {
	m.last = b.Dense /* want `the batch is stored outside the call frame` */ //dmt:retain-ok a former escape hatch silences nothing
	return nil
}

// ---- rule 1, allowed ---------------------------------------------------

type copyOut struct{ last []float32 }

func (m *copyOut) Predict(b *data.Batch) []float32 {
	out := make([]float32, len(b.Dense))
	copy(out, b.Dense)
	m.last = out // fresh storage: the call boundary stops the taint
	return out
}

type rowsCopyOut struct{ cache vecCache }

func (m *rowsCopyOut) Predict(b *data.Batch) []float32 {
	out := make([]float32, len(b.Dense))
	copy(out, b.Dense)
	m.cache.PutRows(nil, rows{Base: out, Stride: 1, Width: 1})
	m.cache.FillRows(nil, &filler{out: out})
	return out
}

type passesDown struct{}

func (passesDown) Predict(b *data.Batch) []float32 {
	return score(b.Dense)
}

func score(d []float32) []float32 {
	out := make([]float32, len(d))
	copy(out, d)
	return out
}

// notPredict has no *data.Batch parameter, so rule 1 does not apply.
type notPredict struct{ last []float32 }

func (m *notPredict) Predict(d []float32) { m.last = d }

// ---- rule 2, flagged: transient results escaping -----------------------

var global []float32

func returnsTransient(s *arena.Scratch) []float32 {
	return s.Merge(8) // want `Merge returns arena-backed storage \(//dmt:transient-result\): it must not escape the caller`
}

func storesTransientDirect(s *arena.Scratch) {
	global = s.Merge(8) // want `Merge returns arena-backed storage \(//dmt:transient-result\): storing it retains memory the arena will reuse`
}

func storesTransientViaLocal(s *arena.Scratch) {
	m := s.Merge(8)
	global = m // want `Merge's arena-backed result is stored outside the call frame`
}

func sendsTransient(s *arena.Scratch, ch chan []float32) {
	ch <- s.Merge(8) // want `Merge returns arena-backed storage \(//dmt:transient-result\): it must not be sent on a channel`
}

// ---- rule 2, allowed ---------------------------------------------------

func consumesInPlace(s *arena.Scratch) float64 {
	m := s.Merge(8)
	var t float64
	for _, v := range m {
		t += float64(v)
	}
	return t
}

func passesTransientDown(s *arena.Scratch) []float32 {
	return score(s.Merge(8))
}

func copiesTransientOut(s *arena.Scratch) []float32 {
	m := s.Merge(8)
	out := make([]float32, len(m))
	copy(out, m)
	return out
}
