package tensor

import "fmt"

// Transpose3D01 swaps the first two axes of a (d0, d1, d2) tensor,
// returning (d1, d0, d2). This is the "local data shuffle" primitive of
// SPTT step (e): viewing a buffer as (features, peers, payload) and
// transposing to (peers, features, payload).
func Transpose3D01(a *Tensor) *Tensor {
	if len(a.shape) != 3 {
		panic("tensor: Transpose3D01 requires a 3-D tensor")
	}
	d0, d1, d2 := a.shape[0], a.shape[1], a.shape[2]
	out := New(d1, d0, d2)
	for i := 0; i < d0; i++ {
		for j := 0; j < d1; j++ {
			src := a.data[(i*d1+j)*d2 : (i*d1+j+1)*d2]
			dst := out.data[(j*d0+i)*d2 : (j*d0+i+1)*d2]
			copy(dst, src)
		}
	}
	return out
}

// Concat concatenates tensors along the given axis. All other dimensions
// must match. axis supports negative indexing.
func Concat(axis int, ts ...*Tensor) *Tensor { return (*Arena)(nil).Concat(axis, ts...) }

// Concat is tensor.Concat with the result taken from the arena.
func (a *Arena) Concat(axis int, ts ...*Tensor) *Tensor {
	if len(ts) == 0 {
		panic("tensor: Concat of zero tensors")
	}
	rank := len(ts[0].shape)
	if axis < 0 {
		axis += rank
	}
	if axis < 0 || axis >= rank {
		panic(fmt.Sprintf("tensor: Concat axis %d out of range for rank %d", axis, rank))
	}
	var dims [4]int
	outShape := append(dims[:0], ts[0].shape...)
	total := 0
	for _, t := range ts {
		if len(t.shape) != rank {
			panic("tensor: Concat rank mismatch")
		}
		for d := 0; d < rank; d++ {
			if d != axis && t.shape[d] != outShape[d] {
				panic(fmt.Sprintf("tensor: Concat dim %d mismatch %v vs %v", d, t.shape, ts[0].shape))
			}
		}
		total += t.shape[axis]
	}
	outShape[axis] = total

	// outer = product of dims before axis, inner = product after.
	outer, inner := 1, 1
	for d := 0; d < axis; d++ {
		outer *= outShape[d]
	}
	for d := axis + 1; d < rank; d++ {
		inner *= outShape[d]
	}
	out := a.New(outShape...)
	rowLen := total * inner
	offset := 0
	for _, t := range ts {
		tw := t.shape[axis] * inner
		for o := 0; o < outer; o++ {
			copy(out.data[o*rowLen+offset:o*rowLen+offset+tw], t.data[o*tw:(o+1)*tw])
		}
		offset += tw
	}
	return out
}

// SplitCols splits a (h, w) tensor into column blocks of the given widths,
// which must sum to w. The inverse of Concat(1, ...). Each output is a copy.
func SplitCols(a *Tensor, widths []int) []*Tensor {
	if len(a.shape) != 2 {
		panic("tensor: SplitCols requires a 2-D tensor")
	}
	h, w := a.shape[0], a.shape[1]
	sum := 0
	for _, wd := range widths {
		sum += wd
	}
	if sum != w {
		panic(fmt.Sprintf("tensor: SplitCols widths %v do not sum to %d", widths, w))
	}
	outs := make([]*Tensor, len(widths))
	off := 0
	for i, wd := range widths {
		t := New(h, wd)
		for r := 0; r < h; r++ {
			copy(t.data[r*wd:(r+1)*wd], a.data[r*w+off:r*w+off+wd])
		}
		outs[i] = t
		off += wd
	}
	return outs
}

// SelectFeatures gathers feature slots of a (B, F, N) tensor:
// out[b, i, :] = a[b, idx[i], :]. Used to materialize a tower's feature
// subset from the full feature set.
func SelectFeatures(a *Tensor, idx []int) *Tensor {
	if len(a.shape) != 3 {
		panic("tensor: SelectFeatures requires a (B,F,N) tensor")
	}
	b, f, n := a.shape[0], a.shape[1], a.shape[2]
	out := New(b, len(idx), n)
	for s := 0; s < b; s++ {
		for i, fi := range idx {
			if fi < 0 || fi >= f {
				panic(fmt.Sprintf("tensor: SelectFeatures index %d out of range [0,%d)", fi, f))
			}
			src := a.data[(s*f+fi)*n : (s*f+fi+1)*n]
			dst := out.data[(s*len(idx)+i)*n : (s*len(idx)+i+1)*n]
			copy(dst, src)
		}
	}
	return out
}
