// Package arena declares a //dmt:transient-result API so the noretain
// fixtures can check that the fact crosses the package boundary.
package arena

// Scratch is a reusable merge arena.
type Scratch struct{ buf []float32 }

// Merge returns storage backed by the scratch's arrays; the result is
// valid only until the next Merge.
//
//dmt:transient-result
func (s *Scratch) Merge(n int) []float32 {
	if cap(s.buf) < n {
		s.buf = make([]float32, n)
	}
	return s.buf[:n]
}

// Split returns two halves of storage backed by the scratch's arrays; both
// are valid only until the next Merge or Split.
//
//dmt:transient-result
func (s *Scratch) Split(n int) ([]float32, []float32) {
	m := s.Merge(2 * n)
	return m[:n], m[n:]
}
