package main

import (
	"runtime"
	"time"

	"flexdp/internal/smooth"
	"flexdp/internal/workload"
)

// closedSpec is a closed-loop workload: one client sends its next query
// through System.Run when the previous one returns.
type closedSpec struct {
	name  string
	setup func(seed int64) (*env, error)
	// stream returns the workload's query generator for a seed; it never
	// runs out.
	stream func(seed int64) (func() string, error)
	// setupBatch is how many set-ups a run times before the measured
	// region and again between each pair of windows; setup_s is the median
	// of them all. Spreading them over the run keeps one slow spell of the
	// host from moving them all.
	setupBatch int
	// windows splits the measured region into equal-time windows; qps and
	// the latencies are the medians of their per-window values, so a slow
	// spell of the host that covers less than half the run does not move
	// them.
	windows int
	// tailPct is the latency_tail_ms percentile: the highest round one with
	// at least ten samples beyond it in every window.
	tailPct float64
	// warmup queries run before timing starts, to fault in code and heap.
	warmup int
	// replay is the fixed number of queries of the traced run, so that its
	// counts repeat exactly for a seed.
	replay int
}

var coldSpec = closedSpec{
	name: "cold-analysis",
	setup: func(seed int64) (*env, error) {
		return buildEnv(withSeed(coldConfig, seed), seed, true)
	},
	stream: func(seed int64) (func() string, error) {
		g := newQueryGen(seed, coldConfig)
		return func() string { sql, _ := g.next(); return sql }, nil
	},
	setupBatch: 5,
	windows:    10,
	tailPct:    99,
	warmup:     5,
	replay:     400,
}

// corpusPerTemplate sizes the paper-corpus stream: 40 queries per template,
// 400 in all, as many as the paper's Section 5 corpus.
const corpusPerTemplate = 40

var corpusSpec = closedSpec{
	name: "paper-corpus",
	setup: func(seed int64) (*env, error) {
		return buildEnv(workload.DefaultRideshare(), seed, true)
	},
	stream: func(seed int64) (func() string, error) {
		qs, err := paperCorpus(seed, corpusPerTemplate)
		if err != nil {
			return nil, err
		}
		i := 0
		return func() string { q := qs[i%len(qs)]; i++; return q }, nil
	},
	setupBatch: 2,
	windows:    5,
	tailPct:    95,
	warmup:     corpusRound,
	replay:     100,
}

// setupTimed runs the workload's set-up reps times and returns the last
// instance with every set-up time in seconds.
func setupTimed(reps int, setup func() (*env, error)) (*env, []float64, error) {
	var e *env
	times := make([]float64, reps)
	for i := range times {
		runtime.GC()
		t0 := time.Now()
		var err error
		if e, err = setup(); err != nil {
			return nil, nil, err
		}
		times[i] = time.Since(t0).Seconds()
	}
	return e, times, nil
}

func runClosed(spec closedSpec, cfg runConfig) (*report, error) {
	rep := newReport()
	next, err := spec.stream(cfg.seed)
	if err != nil {
		return nil, err
	}
	if cfg.trace {
		e, err := spec.setup(cfg.seed)
		if err != nil {
			return nil, err
		}
		return rep, traceClosed(rep, spec, e, next, cfg)
	}
	setup := func() (*env, error) { return spec.setup(cfg.seed) }
	e, setups, err := setupTimed(spec.setupBatch, setup)
	if err != nil {
		return nil, err
	}
	for range spec.warmup {
		if _, err := e.sys.Run(next(), epsilon, e.delta); err != nil {
			rep.fail("warm-up query: %v", err)
		}
	}

	// The latency buffer is allocated up front at a fixed size, so the live
	// heap measured below can leave it out exactly, however many queries a
	// run completes.
	lat := make([]time.Duration, 0, 1<<17)
	var out []released
	// cuts[i] indexes the first latency of window i, which began cutAt[i]
	// after the start.
	cuts, cutAt := []int{0}, []time.Duration{0}
	window := cfg.seconds / time.Duration(spec.windows)
	// paused and pausedAllocs are the time and allocations of the set-ups
	// between windows, left out of the measured region.
	var paused time.Duration
	var pausedAllocs uint64
	runtime.GC()
	a0 := heapAllocs()
	start := time.Now()
	for time.Since(start)-paused < cfg.seconds {
		sql := next()
		t0 := time.Now()
		res, err := e.sys.Run(sql, epsilon, e.delta)
		d := time.Since(t0)
		rep.attempted++
		if err != nil {
			rep.fail("%q: %v", sql, err)
		} else {
			lat = append(lat, d)
			out = append(out, keep(sql, res))
		}
		if el := time.Since(start) - paused; len(cuts) < spec.windows && el >= time.Duration(len(cuts))*window {
			cuts, cutAt = append(cuts, len(lat)), append(cutAt, el)
			t0, b0 := time.Now(), heapAllocs()
			_, more, err := setupTimed(spec.setupBatch, setup)
			if err != nil {
				return nil, err
			}
			setups = append(setups, more...)
			// Collect the set-ups' garbage here rather than in the next window.
			runtime.GC()
			pausedAllocs += heapAllocs() - b0
			paused += time.Since(t0)
		}
	}
	elapsed := time.Since(start) - paused
	allocs := heapAllocs() - a0 - pausedAllocs
	rep.set("setup_s", median(setups), "s")
	rep.samples["setup_s"] = setups
	cuts, cutAt = append(cuts, len(lat)), append(cutAt, elapsed)

	checkAll(rep, e.eng, out)
	checkGolden(rep, spec.name)
	out = nil
	heap := liveHeapMB() - float64(cap(lat)*8)/(1<<20)
	runtime.KeepAlive(e)

	latMS := toMS(lat)
	rep.samples["latency_ms"] = latMS
	var wins [][]float64
	var rates []float64
	for i := range len(cuts) - 1 {
		wins = append(wins, latMS[cuts[i]:cuts[i+1]])
		rates = append(rates, float64(cuts[i+1]-cuts[i])/(cutAt[i+1]-cutAt[i]).Seconds())
	}
	qps := median(rates)
	rep.samples["window_qps"] = rates
	rep.set("qps", qps, "1/s")
	rep.set("sustained_qps", qps, "1/s")
	rep.set("latency_p50_ms", windowMedian(wins, 50), "ms")
	rep.set("latency_tail_ms", windowMedian(wins, spec.tailPct), "ms")
	rep.extra("latency_tail_beyond_min", float64(minBeyond(wins, spec.tailPct)), "count")
	rep.set("allocs_per_query", ratio(float64(allocs), float64(len(lat))), "count")
	rep.set("heap_live_mb", heap, "MiB")
	rep.extra("latency_tail_pct", spec.tailPct, "percentile")
	return rep, nil
}

// traceClosed measures the per-layer metrics: an untraced System.Run pass
// over the replay queries (for the budget count), then the layer replay of
// the same queries untraced and traced, whose totals give the tracing
// overhead. The replayed bounds are checked against System.SmoothBound.
func traceClosed(rep *report, spec closedSpec, e *env, next func() string, cfg runConfig) error {
	sqls := make([]string, spec.replay)
	for i := range sqls {
		sqls[i] = next()
	}
	rep.attempted = len(sqls)
	collect := make([]float64, 5)
	for i := range collect {
		t0 := time.Now()
		e.sys.CollectMetrics()
		collect[i] = ms(time.Since(t0))
	}
	rep.set("metrics.collect_ms", median(collect), "ms")
	rep.set("metrics.refreshes", 0, "count")

	spends0 := e.budget.Queries()
	t0 := time.Now()
	for _, sql := range sqls {
		if _, err := e.sys.Run(sql, epsilon, e.delta); err != nil {
			rep.fail("%q: %v", sql, err)
		}
	}
	runTotal := time.Since(t0)
	rep.set("smooth.budget_spends", float64(e.budget.Queries()-spends0)/float64(len(sqls)), "count")

	pp := smooth.PrivacyParams{Epsilon: epsilon, Delta: e.delta}
	replay := func(on bool) (*replayer, time.Duration) {
		r := &replayer{e: e, tr: newTracer(on), mech: smooth.NewMechanism(cfg.seed), pp: pp}
		runtime.GC()
		t0 := time.Now()
		for qi, sql := range sqls {
			root := r.tr.begin(qi, "query", -1)
			if err := r.closedQuery(qi, root, sql); err != nil {
				rep.fail("replay %q: %v", sql, err)
			}
			r.tr.end(root)
		}
		return r, time.Since(t0)
	}
	spill0 := e.eng.SpillStats().SpilledBytes
	_, untraced := replay(false)
	traced, tracedTotal := replay(true)
	rep.set("engine.spill_bytes", float64(e.eng.SpillStats().SpilledBytes-spill0), "B")
	for qi, sql := range sqls {
		if err := boundsEqual(e, sql, traced.bounds[qi], pp); err != nil {
			rep.fail("replay of %q: %v", sql, err)
		}
	}
	setLayerMetrics(rep, traced, spec.tailPct, len(sqls))
	rep.set("trace.overhead_pct", 100*(tracedTotal.Seconds()/untraced.Seconds()-1), "%")
	// No server and no open loop in a closed-loop library workload.
	rep.set("server.overhead_ms", 0, "ms")
	rep.set("server.cache_hit_ratio", 0, "ratio")
	rep.set("server.refused", 0, "count")
	rep.set("gen.late_ms", 0, "ms")
	rep.extra("replay_vs_run_pct", 100*(untraced.Seconds()/runTotal.Seconds()-1), "%")
	return nil
}
