package serve

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

// BenchmarkServerPath times the server's own request path: a Server over
// stubModel, whose Predict costs next to nothing, answering 1, 8 and 32
// closed-loop clients. MaxBatch is min(32, clients), as the serving
// experiment clamps it, so no batch waits out MaxWait for company a closed
// loop cannot send. ns/op and allocs/op are per request; avg-batch is the
// requests per flushed batch.
func BenchmarkServerPath(b *testing.B) {
	for _, clients := range []int{1, 8, 32} {
		b.Run(fmt.Sprintf("clients-%d", clients), func(b *testing.B) {
			cfg := DefaultConfig()
			cfg.MaxBatch = min(cfg.MaxBatch, clients)
			srv := NewServer(newStub(), cfg)
			defer srv.Close()
			var next atomic.Int64
			var wg sync.WaitGroup
			b.ReportAllocs()
			b.ResetTimer()
			for c := range clients {
				wg.Add(1)
				go func() {
					defer wg.Done()
					sm := stubSample(float32(c), int32(c))
					for next.Add(1) <= int64(b.N) {
						if _, err := srv.Predict(sm); err != nil {
							b.Error(err)
							return
						}
					}
				}()
			}
			wg.Wait()
			b.StopTimer()
			b.ReportMetric(srv.Stats().AvgBatch, "avg-batch")
		})
	}
}
