package serve

// The micro-batching scheduler. Batcher is its flush rule, with no clock:
// the request that fills a batch flushes it, or else a timer armed by the
// batch's first request flushes it MaxWait later. The Server below drives
// it from a mutex and time.AfterFunc, the cluster simulator from its event
// heap. The generation contract: each timer carries the generation Add
// armed it with and every flush advances the generation, so a timer that
// outlives its batch hands Expire a stale one and flushes nothing, whether
// or not the driver tried to cancel it.
//
// The Server's Predict adds to the batch under a mutex, with no
// per-request goroutine handoff.

import "time"

// Batcher forms micro-batches of T. The driver serialises its calls.
type Batcher[T any] struct {
	maxBatch int
	maxWait  time.Duration
	pending  []T
	spare    [][]T // emptied batches handed back by Reuse, for later batches
	gen      uint64
}

// NewBatcher returns an empty batcher: maxBatch < 1 is 1, maxWait <= 0 is 1 ms.
func NewBatcher[T any](maxBatch int, maxWait time.Duration) *Batcher[T] {
	if maxWait <= 0 {
		maxWait = time.Millisecond
	}
	return &Batcher[T]{maxBatch: max(maxBatch, 1), maxWait: maxWait}
}

// MaxWait is how long after an arm Expire is due.
func (b *Batcher[T]) MaxWait() time.Duration { return b.maxWait }

// Add appends x and returns the batch if x filled it; else, if x opened it,
// arm is set and the driver must call Expire(gen) MaxWait from now.
func (b *Batcher[T]) Add(x T) (flush []T, gen uint64, arm bool) {
	b.pending = append(b.pending, x)
	if len(b.pending) >= b.maxBatch {
		return b.Take(), 0, false
	}
	return nil, b.gen, len(b.pending) == 1
}

// Expire returns the batch timer gen was armed for, nil if already flushed.
func (b *Batcher[T]) Expire(gen uint64) []T {
	if gen != b.gen {
		return nil
	}
	return b.Take()
}

// Take detaches what is pending (nil if nothing) and advances the generation.
func (b *Batcher[T]) Take() []T {
	b.gen++
	if len(b.pending) == 0 {
		return nil
	}
	batch := b.pending
	b.pending = nil
	if n := len(b.spare); n > 0 {
		b.pending, b.spare = b.spare[n-1], b.spare[:n-1]
	}
	return batch
}

// Reuse hands back a batch the driver is done with; a later batch forms in
// its backing array. Both drivers hand back every batch they answer (the
// Server's workers under the mutex its Add, Expire and Take hold); a driver
// that did not would grow a new array for every batch.
func (b *Batcher[T]) Reuse(batch []T) {
	clear(batch)
	b.spare = append(b.spare, batch[:0])
}

// flushExpired is timer gen's callback. After Close it does nothing —
// Close flushes the remainder itself.
func (s *Server) flushExpired(gen uint64) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return
	}
	s.pmu.Lock()
	group := s.batch.Expire(gen)
	s.pmu.Unlock()
	if group != nil {
		s.work <- group
	}
}

// worker executes flushed batches until the work channel closes. Each
// worker carries its own mergeScratch, so steady-state flushes reuse the
// batch arena instead of allocating one per forward, and hands each
// answered batch back to the batcher, so later batches form in its array.
func (s *Server) worker() {
	defer s.workerWG.Done()
	var scratch mergeScratch
	for group := range s.work {
		b := scratch.merge(group, s.schema)
		logits := s.model.Predict(b, s.opt)
		// Count before delivering: a client returning from Predict must
		// already be visible in Stats.
		s.batches.Add(1)
		s.served.Add(uint64(len(group)))
		ld := logits.Data()
		for i := range group {
			group[i].out <- ld[i]
		}
		s.pmu.Lock()
		s.batch.Reuse(group)
		s.pmu.Unlock()
	}
}
