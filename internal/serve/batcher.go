package serve

// The micro-batching scheduler. Enqueue is a mutex-guarded append — no
// per-request goroutine handoff — and the batch is flushed to the worker
// pool by whichever request fills it (flush-on-full) or by a timer armed
// when the oldest pending request arrived (flush-on-timeout), so the first
// request of a partial batch waits at most MaxWait. Every sender into the
// work channel runs under the server's read lock and re-checks closed, so
// Close can safely close the channel once the write lock has been held.

import "time"

// enqueue hands one accepted request to the scheduler. Called with s.mu
// read-held (see Predict), which also pins the work channel open for the
// duration of any flush this request performs.
func (s *Server) enqueue(r request) {
	s.pmu.Lock()
	s.pending = append(s.pending, r)
	if len(s.pending) >= s.cfg.MaxBatch {
		group := s.pending
		s.pending = nil
		if s.ptimer != nil {
			s.ptimer.Stop()
			s.ptimer = nil
		}
		s.pmu.Unlock()
		s.work <- group
		return
	}
	if s.ptimer == nil {
		s.ptimer = time.AfterFunc(s.cfg.MaxWait, s.flushExpired)
	}
	s.pmu.Unlock()
}

// flushExpired is the MaxWait timer callback: it dispatches whatever is
// pending. After Close it does nothing — Close flushes the remainder
// itself.
func (s *Server) flushExpired() {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return
	}
	group := s.takePending()
	if len(group) > 0 {
		s.work <- group
	}
}

// takePending detaches the pending batch and disarms the timer.
func (s *Server) takePending() []request {
	s.pmu.Lock()
	defer s.pmu.Unlock()
	if s.ptimer != nil {
		s.ptimer.Stop()
		s.ptimer = nil
	}
	group := s.pending
	s.pending = nil
	return group
}

// worker executes flushed batches until the work channel closes. Each
// worker carries its own mergeScratch, so steady-state flushes reuse the
// batch arena instead of allocating one per forward.
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
	}
}
