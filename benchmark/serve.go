package main

import (
	"math"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"dmt/internal/data"
	"dmt/internal/models"
	"dmt/internal/serve"
	"dmt/internal/tensor"
	"dmt/internal/workload"
)

// The serving workloads drive the real serve.Server over a DMT-DLRM whose
// tower modules dominate the forward (p-ensemble towers of width 128 over
// 26 Criteo-like features; one 32-wide top layer), so a tower-cache hit
// skips most of a request's compute and a miss pays for all of it.
//
// Phase A is an open loop: one generator goroutine replays a Poisson trace
// in real time at a fixed sub-saturation rate, and every request is timed
// from the instant it was due. Phase B is a closed loop of 64 clients, the
// saturation throughput; it runs in two halves, one before and one after
// phase A, so that its rate is read from two windows several seconds apart
// (the host's slow episodes outlast a single window of this length).
// serve_hot and serve_cold differ only in the keys.

const (
	serveN       = 32
	serveTowers  = 8
	serveD       = 128
	serveCache   = 1 << 14
	serveMaxWait = time.Millisecond
	serveBatch   = 32
	hotPool      = 1024
	hotZipf      = 1.2
	// coldPool is the distinct-sample pool serve_cold cycles through. One
	// sample holds 8 tower entries, so the 16 Ki-entry tower cache covers
	// 2048 samples: a cycle eight times that long never finds an entry
	// still resident. (A zipf stream cannot be this cold — math/rand's Zipf
	// with s = 1.01 over 65 536 keys still puts ~70% of its mass on the
	// 2048 hottest.)
	coldPool = 16384
	// backlogGrace is how long after the last due time an open-loop request
	// may stay unanswered before it counts as backlog.
	backlogGrace = 20 * serveMaxWait
)

func serveModel(schema data.Schema) *models.DMTDLRM {
	return models.NewDMTDLRM(models.DMTDLRMConfig{
		Schema: schema, N: serveN,
		Towers: models.RoundRobinTowers(serveTowers, schema.NumSparse()),
		C:      0, P: 1, D: serveD,
		BottomMLP: []int{64, serveD},
		TopMLP:    []int{32},
		Seed:      modelSeed,
	})
}

func serveConfig() serve.Config {
	return serve.Config{
		MaxBatch: serveBatch, MaxWait: serveMaxWait,
		Workers:         runtime.GOMAXPROCS(0),
		EmbCacheEntries: serveCache, TowerCacheEntries: serveCache,
		CacheShards: 8,
	}
}

// serveInputs is everything generated from the seed: the sample pool, the
// open-loop trace, and one key per request of every phase.
type serveInputs struct {
	samples               []serve.Sample
	trace                 *workload.Trace
	warmKeys, openKeys    []int32
	closedKeys, traceKeys []int32
	checkKeys             []int32
	genNSPerReq           float64
}

func makeServeInputs(seed uint64, hot bool, sz serveSizes, openN, closedN int) *serveInputs {
	in := &serveInputs{}
	pool := coldPool
	if hot {
		pool = hotPool
	}
	in.samples = serve.BuildSamples(data.NewGenerator(data.CriteoLike(seed)), pool)

	g0 := time.Now()
	in.trace = workload.Generate(workload.Config{
		Arrival: workload.Poisson, Rate: sz.openRate,
		Requests: openN + sz.traceRequests,
		Samples:  pool, ZipfS: hotZipf, Seed: seed,
	})
	in.genNSPerReq = float64(time.Since(g0).Nanoseconds()) / float64(openN+sz.traceRequests)

	// Hot: one zipf stream of the trace's skew. Cold: one seeded permutation
	// of the pool, cycled across all phases, so that a key's reuse distance
	// is always the whole pool.
	var nextKey func() int
	if hot {
		nextKey = workload.NewKeyStream(int64(seed), hotZipf, pool).Next
	} else {
		perm, at := rand.New(rand.NewSource(int64(seed))).Perm(pool), 0
		nextKey = func() int { at++; return perm[(at-1)%pool] }
	}
	draw := func(n int) []int32 {
		keys := make([]int32, n)
		for j := range keys {
			keys[j] = int32(nextKey())
		}
		return keys
	}
	// Drawn in the order the phases run, so that the cold cycle's reuse
	// distance holds across phase boundaries too.
	in.warmKeys = draw(sz.warmup)
	in.closedKeys = draw(closedN / 2)
	in.openKeys = draw(openN)
	in.closedKeys = append(in.closedKeys, draw(closedN-closedN/2)...)
	in.traceKeys, in.checkKeys = draw(sz.traceRequests), draw(sz.checkSamples)
	if hot {
		// The open loops replay the trace's own zipf draws.
		for j := range in.openKeys {
			in.openKeys[j] = int32(in.trace.Requests[j].Sample)
		}
		for j := range in.traceKeys {
			in.traceKeys[j] = int32(in.trace.Requests[openN+j].Sample)
		}
	}
	return in
}

// serveRig is one set-up round's product.
type serveRig struct {
	in    *serveInputs
	model *models.DMTDLRM
	srv   *serve.Server
}

// closedLoop pushes keys through the server from `clients` blocking
// clients, which take the next key off a shared cursor. It returns each
// request's latency (ms, by key index) and completion time (seconds since
// the phase began), and counts failures into rep.
func closedLoop(rep *report, srv *serve.Server, samples []serve.Sample, keys []int32, clients int) (lat, doneAt []float64) {
	lat = make([]float64, len(keys))
	doneAt = make([]float64, len(keys))
	var cursor atomic.Int64
	var failed atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(cursor.Add(1)) - 1
				if i >= len(keys) {
					return
				}
				t0 := time.Now()
				if _, err := srv.Predict(samples[keys[i]]); err != nil {
					failed.Add(1)
				}
				now := time.Now()
				lat[i] = now.Sub(t0).Seconds() * 1e3
				doneAt[i] = now.Sub(start).Seconds()
			}
		}()
	}
	wg.Wait()
	if rep != nil {
		rep.op(len(keys))
		rep.failN(int(failed.Load()), "closed loop: %d of %d Predict calls failed", failed.Load(), len(keys))
	}
	return lat, doneAt
}

func setUpServe(seed uint64, hot bool, sz serveSizes, openN, closedN int) *serveRig {
	in := makeServeInputs(seed, hot, sz, openN, closedN)
	model := serveModel(data.CriteoLike(seed).Schema)
	srv := serve.NewServer(model, serveConfig())
	closedLoop(nil, srv, in.samples, in.warmKeys, closedClients)
	return &serveRig{in: in, model: model, srv: srv}
}

// openLoopResult is one open-loop replay.
type openLoopResult struct {
	lat       []float64 // ms from due time, by trace order; NaN if the request failed or went unanswered
	elapsed   float64   // seconds, first due time to last answer
	lateMaxMS float64   // the latest the generator sent a request after it was due
	backlog   int       // requests unanswered backlogGrace after the last due time
	failed    int       // requests without an answer: Predict errors and stragglers past the timeout
}

// openLoop replays reqs (arrival offsets) in real time from one generator
// goroutine, which hands each request, when it is due, to one of
// openClients parked client goroutines (Predict blocks). A request is timed
// from when it was due, so a generator or server stall — or a wait for a
// free client — is charged to every request it delays. With a recorder,
// each request leaves a "serve.request" span (due → answered) over a
// "serve.predict" child (sent → answered).
func openLoop(rec *recorder, srv *serve.Server, samples []serve.Sample, reqs []workload.Request, keys []int32, timeout time.Duration) openLoopResult {
	n := len(keys)
	// Latencies are stored as float bits through atomics: after a drain
	// timeout, stragglers may still be writing while the result is read.
	unanswered := math.Float64bits(math.NaN())
	lat := make([]atomic.Uint64, n)
	for i := range lat {
		lat[i].Store(unanswered)
	}
	type job struct {
		i   int
		due time.Time
	}
	jobs := make(chan job)
	var returned atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < openClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				root := rec.beginAt("serve.request", -1, int64(j.i), j.due)
				child := rec.begin("serve.predict", root, int64(j.i))
				_, err := srv.Predict(samples[keys[j.i]])
				rec.end(child)
				rec.end(root)
				if err == nil {
					lat[j.i].Store(math.Float64bits(time.Since(j.due).Seconds() * 1e3))
				}
				returned.Add(1)
			}
		}()
	}

	base := reqs[0].At
	start := time.Now()
	var lateMax time.Duration
	for i := 0; i < n; i++ {
		due := start.Add(reqs[i].At - base)
		for now := time.Now(); now.Before(due); now = time.Now() {
			time.Sleep(due.Sub(now))
		}
		jobs <- job{i, due}
		if late := time.Since(due); late > lateMax {
			lateMax = late
		}
	}
	close(jobs)
	lastDue := start.Add(reqs[n-1].At - base)
	if d := time.Until(lastDue.Add(backlogGrace)); d > 0 {
		time.Sleep(d)
	}
	res := openLoopResult{lat: make([]float64, n), backlog: n - int(returned.Load())}

	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(timeout):
		// Stragglers keep their NaN and count as failed; their goroutines
		// end when the caller closes the server.
	}
	res.elapsed = time.Since(start).Seconds()
	res.lateMaxMS = ms(lateMax)
	for i := range lat {
		res.lat[i] = math.Float64frombits(lat[i].Load())
		if math.IsNaN(res.lat[i]) {
			res.failed++
		}
	}
	return res
}

func runServeHot(rc runConfig) (*report, error)  { return runServe(rc, true, rc.sizes.serveHot) }
func runServeCold(rc runConfig) (*report, error) { return runServe(rc, false, rc.sizes.serveCold) }

func runServe(rc runConfig, hot bool, sz serveSizes) (*report, error) {
	rep := newReport()
	openN := scaled(sz.openRequests, rc.scale, latencySegments)
	closedN := scaled(sz.closedRequests, rc.scale, fineSegments)

	var rig *serveRig
	setupS, _ := rc.setUp(
		func() error { rig = setUpServe(rc.seed, hot, sz, openN, closedN); return nil },
		func() { rig.srv.Close(); rig = nil })
	defer func() { rig.srv.Close() }()
	rep.set("setup_s", setupS)
	rep.set("workload.generate_ns_per_req", rig.in.genNSPerReq)
	in, srv := rig.in, rig.srv
	st0 := srv.Stats()

	// Phase B, first half: closed loop, saturation. A unit is a run of per
	// consecutive completions; its time is how long the server took to
	// answer that many more requests.
	half, per := closedN/2, closedN/fineSegments
	var (
		clat, unitSecs []float64
		closedSecs     float64
	)
	closedHalf := func(keys []int32) {
		lat, doneAt := closedLoop(rep, srv, in.samples, keys, closedClients)
		sort.Float64s(doneAt)
		prev := 0.0
		for u := per; u <= len(keys); u += per {
			unitSecs = append(unitSecs, doneAt[u-1]-prev)
			prev = doneAt[u-1]
		}
		clat = append(clat, lat...)
		closedSecs += doneAt[len(keys)-1]
	}
	refB1 := refKernel()
	closedHalf(in.closedKeys[:half])

	// Phase A: open loop at the fixed rate.
	refA := refKernel()
	stA0, c0 := srv.Stats(), cpuSeconds()
	open := openLoop(nil, srv, in.samples, in.trace.Requests[:openN], in.openKeys, drainTimeout)
	cpuA := cpuSeconds() - c0
	stA := srv.Stats()
	rep.op(openN)
	rep.failN(open.failed, "open loop: %d of %d requests failed or went unanswered", open.failed, openN)
	lat := answeredOnly(open.lat)
	rep.set("latency_p50_ms", quietSegments(lat, latencySegments, 0.50))
	p99s := segmentQuantile(lat, p99Segments(len(lat)), 0.99)
	rep.set("bench.latency_p99_ms", median(p99s))
	if len(p99s) > 0 {
		rep.set("serve.latency_p99_worst_segment_ms", sortedCopy(p99s)[len(p99s)-1])
	}
	rep.set("bench.cpu_ms_per_op", cpuA*1e3/float64(openN))
	rep.set("serve.generator_late_ms_max", open.lateMaxMS)
	rep.set("serve.backlog_at_end", float64(open.backlog))
	if b := stA.Batches - stA0.Batches; b > 0 {
		rep.set("serve.avg_batch", float64(stA.Served-stA0.Served)/float64(b))
		rep.set("serve.batches_per_s", float64(b)/open.elapsed)
	}

	// Phase B, second half.
	refB2 := refKernel()
	closedHalf(in.closedKeys[half:])
	stB := srv.Stats()
	rep.set("throughput_per_s", fastDecileRate(unitSecs, float64(per)))
	rep.set("bench.throughput_mean_per_s", float64(closedN)/closedSecs)
	rep.set("serve.saturation_latency_p50_ms", quietSegments(clat, latencySegments, 0.50))
	rep.set("bench.ref_rate", median([]float64{refB1, refA, refB2}))
	rep.set("serve.tower_hit_share", hitShare(st0.Tower.Hits, st0.Tower.Misses, stB.Tower.Hits, stB.Tower.Misses))
	rep.set("serve.emb_hit_share", hitShare(st0.Emb.Hits, st0.Emb.Misses, stB.Emb.Hits, stB.Emb.Misses))

	checkServe(rep, rig)

	if rc.trace {
		traceServe(rc, rep, rig, sz, openN)
	}
	return rep, nil
}

// p99Segments is the segment count for a p99 over n requests: the usual
// ten where that leaves a segment at least 5000 requests (50 beyond its
// p99), fewer and larger segments where it does not.
func p99Segments(n int) int {
	return max(1, min(segments, n/5000))
}

func answeredOnly(lat []float64) []float64 {
	out := make([]float64, 0, len(lat))
	for _, l := range lat {
		if !math.IsNaN(l) {
			out = append(out, l)
		}
	}
	return out
}

func hitShare(h0, m0, h1, m1 uint64) float64 {
	h, m := float64(h1-h0), float64(m1-m0)
	if h+m == 0 {
		return 0
	}
	return h / (h + m)
}

// sampleBatch lays requests out as the models' batch, the way the server's
// merge does.
func sampleBatch(sms []serve.Sample) *data.Batch {
	nd := len(sms[0].Dense)
	nf := len(sms[0].Indices)
	dense := make([]float32, 0, len(sms)*nd)
	b := &data.Batch{Size: len(sms), Indices: make([][]int32, nf), Offsets: make([][]int32, nf)}
	for _, sm := range sms {
		dense = append(dense, sm.Dense...)
		for f := 0; f < nf; f++ {
			b.Offsets[f] = append(b.Offsets[f], int32(len(b.Indices[f])))
			b.Indices[f] = append(b.Indices[f], sm.Indices[f]...)
		}
	}
	b.Dense = tensor.FromSlice(dense, len(sms), nd)
	return b
}

// checkServe compares sampled Server.Predict logits with a direct,
// cache-less Predictor.Predict on the same sample. Requests are sent one
// at a time, so each is its own batch; tower rows may still come from the
// cache, computed inside another batch, hence the tolerance.
func checkServe(rep *report, rig *serveRig) {
	const tol = 1e-5
	for _, k := range rig.in.checkKeys {
		sm := rig.in.samples[k]
		rep.op(1)
		got, err := rig.srv.Predict(sm)
		if err != nil {
			rep.fail("check: Predict(sample %d): %v", k, err)
			continue
		}
		want := rig.model.Predict(sampleBatch([]serve.Sample{sm}), models.PredictOptions{}).Data()[0]
		if d := math.Abs(float64(got) - float64(want)); !(d <= tol*math.Max(1, math.Abs(float64(want)))) {
			rep.fail("check: sample %d served logit %v, direct Predict %v", k, got, want)
		}
	}
}

// traceServe is the traced window: a short open-loop replay with a span per
// request, then the layers the server sits on, each timed through its
// exported entry point.
func traceServe(rc runConfig, rep *report, rig *serveRig, sz serveSizes, openN int) {
	in := rig.in
	reqs := in.trace.Requests[openN : openN+sz.traceRequests]
	m0 := readMem()
	res := openLoop(rc.rec, rig.srv, in.samples, reqs, in.traceKeys, drainTimeout)
	rep.set("serve.allocs_per_req", float64(readMem().mallocs-m0.mallocs)/float64(len(reqs)))
	rep.op(len(reqs))
	rep.failN(res.failed, "traced open loop: %d requests failed", res.failed)
	// Tracing overhead on the metric the open loop owns: traced median
	// latency against the untraced one (rates are fixed by the schedule).
	if base := rep.values["latency_p50_ms"]; base > 0 {
		rep.set("bench.tracing_overhead_share", median(answeredOnly(res.lat))/base-1)
	}

	serveLayers(rc.rec, rep, rig, int(math.Round(rep.values["serve.avg_batch"])))
}
