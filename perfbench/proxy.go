package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	flex "flexdp"
	"flexdp/internal/engine"
	"flexdp/internal/metrics"
	"flexdp/internal/server"
	"flexdp/internal/smooth"
)

// The proxy-mixed traffic mix and load ladder. No observed traffic backs
// the mix: each ratio is a design choice that secures one property of the
// run (README.md lists them with the values measured at this commit), so a
// gain on proxy-mixed is not evidence about a real deployment's traffic.
//
// The rates are absolute, so a later change is judged at the same offered
// loads: 25% and 50% of what this commit's proxy completes over proxyConns
// connections on a 2-vCPU host (about 320 requests/s), and an overload rung
// above it. On a shared host the capacity swings between 290 and 390
// requests/s, and a rung within that range, or at 75% of it, passes or
// misses the limit at random; the top rung sits above the range so that, at
// this commit, it always misses and its completion rate is the capacity.
//
// Misses and writes arrive at fixed positions in the stream rather than at
// random, so every run of a given length holds the same number of each and
// the seed changes only which queries they are.
const (
	proxyPool       = 42  // distinct repeated queries, Zipf-weighted
	proxyZipfS      = 1.1 // Zipf exponent of pool popularity
	proxyZipfV      = 4   // Zipf offset: flattens the head of the popularity curve
	proxyTailEvery  = 10  // every 10th arrival is a distinct query (a cache miss)
	proxyWriteEvery = 200 // every 200th arrival is a Database.Insert batch
	proxyWriteRows  = 4   // trips rows per insert batch
	proxyAnalysts   = 4   // X-Analyst values, each with its own budget
	proxyConns      = 2   // client connections the generator schedules onto
	// A run times proxySetupBatch set-ups before the first segment and
	// after every segment, so its setup_s samples are spread over the run
	// rather than bunched into one moment of the host's load.
	proxySetupBatch = 4
	// proxyTailPct is the latency_tail_ms percentile. p95 also has ten
	// samples beyond it in every reference segment, but its spread across
	// seeds on a shared host was three times p90's.
	proxyTailPct = 90
	// proxyLimitMS is the latency limit on a rung's proxyTailPct latency.
	proxyLimitMS = 150.0
	// proxyRefRung indexes the rung whose latency is reported as
	// latency_p50_ms and latency_tail_ms.
	proxyRefRung = 0
	// proxyCapRung indexes the overload rung, whose completion rate is
	// reported as qps.
	proxyCapRung = 2
	// proxyReplay is the number of arrivals the traced run replays.
	proxyReplay = 800
	// drainLimit bounds how long a rung waits for its backlog after the
	// schedule ends; requests still queued then fail.
	drainLimit = 30 * time.Second
)

// proxyLadder lists the offered loads in requests per second.
var proxyLadder = []float64{85, 170, 500}

// proxySchedule orders the measured segments, each a rung and its share of
// the measured time. The reference and overload rungs run as several short
// segments spread across the run, so a slow spell of the host lands in few
// of them; each segment is one window of the metrics read from its rung.
// The 170 rung runs once, long enough for a backlog to show.
var proxySchedule = []struct {
	rung  int
	share float64
}{
	{proxyRefRung, 0.1}, {proxyCapRung, 0.06}, {proxyRefRung, 0.1}, {1, 0.16},
	{proxyRefRung, 0.1}, {proxyCapRung, 0.06}, {proxyRefRung, 0.1}, {proxyCapRung, 0.06},
	{proxyRefRung, 0.1}, {proxyCapRung, 0.06}, {proxyRefRung, 0.1},
}

// op is one arrival: a query from an analyst, or a batch of trips rows to
// insert when write is non-nil.
type op struct {
	sql     string
	outputs int
	analyst string
	write   [][]any
}

// opStream generates the proxy-mixed arrivals for a seed.
type opStream struct {
	rng    *rand.Rand
	gen    *queryGen
	pool   []op
	zipf   *rand.Zipf
	nextID int64
	n      int // arrivals generated so far
}

func newOpStream(seed int64) *opStream {
	s := &opStream{
		rng:    rand.New(rand.NewSource(seed + 1)),
		gen:    newQueryGen(seed, proxyConfig),
		nextID: int64(proxyConfig.Trips) + 1,
	}
	for range proxyPool {
		sql, n := s.gen.next()
		s.pool = append(s.pool, op{sql: sql, outputs: n})
	}
	s.zipf = rand.NewZipf(s.rng, proxyZipfS, proxyZipfV, proxyPool-1)
	return s
}

func (s *opStream) next() op {
	var o op
	s.n++
	switch {
	case s.n%proxyWriteEvery == 0:
		o.write = s.tripRows()
	case s.n%proxyTailEvery == 5:
		o.sql, o.outputs = s.gen.next()
	default:
		o = s.pool[s.zipf.Uint64()]
	}
	o.analyst = "analyst-" + strconv.Itoa(s.rng.Intn(proxyAnalysts))
	return o
}

// warmup returns the queries sent before timing starts: the pool, then
// distinct queries until the server's prepared cache is full, so timing
// starts in the cache's steady state rather than while it grows.
func (s *opStream) warmup() []op {
	ops := slices.Clone(s.pool)
	for len(ops) < server.DefaultCacheSize {
		sql, n := s.gen.next()
		ops = append(ops, op{sql: sql, outputs: n})
	}
	return ops
}

func (s *opStream) take(n int) []op {
	ops := make([]op, n)
	for i := range ops {
		ops[i] = s.next()
	}
	return ops
}

// tripRows makes one insert batch of valid trips rows.
func (s *opStream) tripRows() [][]any {
	c, r := proxyConfig, s.rng
	rows := make([][]any, proxyWriteRows)
	for i := range rows {
		rows[i] = []any{s.nextID, int64(1 + r.Intn(c.Drivers)), int64(1 + r.Intn(c.Users)),
			int64(1 + r.Intn(c.Cities)), int64(r.Intn(c.Days)), min(2+r.ExpFloat64()*12, fareMax),
			tripStatuses[r.Intn(len(tripStatuses))], tripProducts[r.Intn(len(tripProducts))]}
		s.nextID++
	}
	return rows
}

func insert(e *env, rows [][]any) error {
	for _, row := range rows {
		if err := e.db.Insert("trips", row...); err != nil {
			return err
		}
	}
	return nil
}

// proxyEnv is a set-up proxy: the database, the system, and the server
// listening on loopback.
type proxyEnv struct {
	*env
	hs   *http.Server
	url  string
	done chan error
}

func startProxy(seed int64) (*proxyEnv, error) {
	e, err := buildEnv(withSeed(proxyConfig, seed), seed, false)
	if err != nil {
		return nil, err
	}
	// Per-analyst budgets large enough never to run out.
	srv := server.NewWithConfig(e.sys, nil, server.Config{DefaultDelta: e.delta, AnalystEpsilon: 1e12, AnalystDelta: 0.5})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	p := &proxyEnv{env: e, url: "http://" + ln.Addr().String(), done: make(chan error, 1),
		hs: &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 10 * time.Second}}
	go func() { p.done <- p.hs.Serve(ln) }()
	return p, nil
}

// close shuts the server down and waits for it to stop serving.
func (p *proxyEnv) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := p.hs.Shutdown(ctx)
	if serr := <-p.done; err == nil && !errors.Is(serr, http.ErrServerClosed) {
		err = serr
	}
	return err
}

// client is one keep-alive HTTP connection to the proxy.
type client struct {
	tr  *http.Transport
	hc  *http.Client
	url string
}

func newClient(url string) *client {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &client{tr: tr, hc: &http.Client{Transport: tr}, url: url}
}

func (c *client) close() { c.tr.CloseIdleConnections() }

type reply struct {
	status int
	body   []byte
	err    error
}

func (c *client) query(ctx context.Context, o op) reply {
	payload, err := json.Marshal(server.QueryRequest{SQL: o.sql, Epsilon: epsilon})
	if err != nil {
		return reply{err: err}
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.url+"/query", bytes.NewReader(payload))
	if err != nil {
		return reply{err: err}
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(server.AnalystHeader, o.analyst)
	resp, err := c.hc.Do(req)
	if err != nil {
		return reply{err: err}
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return reply{status: resp.StatusCode, body: body, err: err}
}

func (c *client) get(path, analyst string) ([]byte, error) {
	req, err := http.NewRequest(http.MethodGet, c.url+path, nil)
	if err != nil {
		return nil, err
	}
	if analyst != "" {
		req.Header.Set(server.AnalystHeader, analyst)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	return io.ReadAll(resp.Body)
}

// checkReply accepts a 200 whose columns are the query's outputs and whose
// values are all finite numbers.
func checkReply(o op, rp reply) error {
	if rp.err != nil {
		return rp.err
	}
	if rp.status != http.StatusOK {
		return fmt.Errorf("status %d: %s", rp.status, bytes.TrimSpace(rp.body))
	}
	var resp struct {
		Columns []string `json:"columns"`
		Rows    [][]any  `json:"rows"`
	}
	if err := json.Unmarshal(rp.body, &resp); err != nil {
		return fmt.Errorf("decode response: %w", err)
	}
	if len(resp.Columns) != o.outputs {
		return fmt.Errorf("%d columns, want %d", len(resp.Columns), o.outputs)
	}
	for _, row := range resp.Rows {
		if len(row) != o.outputs {
			return fmt.Errorf("row of %d values, want %d", len(row), o.outputs)
		}
		for _, v := range row {
			if x, ok := v.(float64); !ok || math.IsNaN(x) || math.IsInf(x, 0) {
				return fmt.Errorf("value %v is not a finite number", v)
			}
		}
	}
	return nil
}

// warm sends the warm-up queries once each.
func warm(rep *report, p *proxyEnv, ops []op) {
	c := newClient(p.url)
	defer c.close()
	for _, o := range ops {
		if err := checkReply(o, c.query(context.Background(), o)); err != nil {
			rep.fail("warm-up %q: %v", o.sql, err)
		}
	}
}

// rung is the outcome of one offered load, over one or more segments.
type rung struct {
	rate    float64
	lat     []float64 // ms from when each answered query was due
	late    []float64 // ms the generator sent each arrival behind schedule
	queries int
	failed  int
	backlog int           // most arrivals queued, not yet started, when a segment's schedule ended
	span    time.Duration // from the first due time to the last completion, summed over segments
	allocs  uint64
}

// achieved is the rung's answered queries per second.
func (r rung) achieved() float64 { return ratio(float64(len(r.lat)), r.span.Seconds()) }

// add folds another segment of the same rung into r.
func (r *rung) add(s rung) {
	r.rate = s.rate
	r.lat = append(r.lat, s.lat...)
	r.late = append(r.late, s.late...)
	r.queries += s.queries
	r.failed += s.failed
	r.backlog = max(r.backlog, s.backlog)
	r.span += s.span
	r.allocs += s.allocs
}

// pass reports whether the rung met the latency limit with no failures and
// no growing backlog: at most the arrivals of one limit's worth of time
// were still queued when the schedule ended.
func (r rung) pass() bool {
	return r.failed == 0 && len(r.lat) > 0 &&
		percentile(r.lat, proxyTailPct) <= proxyLimitMS &&
		float64(r.backlog) <= math.Ceil(r.rate*proxyLimitMS/1000)
}

// openLoop offers ops at a fixed rate: a generator goroutine releases each
// arrival at its due time onto a queue served by proxyConns connections,
// whatever the state of earlier requests. Latency runs from the due time,
// so a stall also counts against the requests queued behind it.
func openLoop(rep *report, p *proxyEnv, ops []op, rate float64) rung {
	interval := time.Duration(float64(time.Second) / rate)
	due := make([]time.Time, len(ops))
	replies := make([]reply, len(ops))
	done := make([]time.Time, len(ops))
	// The queue holds every arrival of the rung, so the generator never
	// waits for a connection: a backlog grows in the queue, as it would in
	// front of a real proxy.
	queue := make(chan int, len(ops))
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var wg sync.WaitGroup
	for range proxyConns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := newClient(p.url)
			defer c.close()
			for i := range queue {
				if ops[i].write != nil {
					replies[i].err = insert(p.env, ops[i].write)
				} else {
					replies[i] = c.query(ctx, ops[i])
				}
				done[i] = time.Now()
			}
		}()
	}
	r := rung{rate: rate}
	runtime.GC()
	a0 := heapAllocs()
	start := time.Now().Add(time.Millisecond)
	for i := range ops {
		due[i] = start.Add(time.Duration(i) * interval)
		if d := time.Until(due[i]); d > 0 {
			time.Sleep(d)
		}
		r.late = append(r.late, ms(time.Since(due[i])))
		queue <- i
	}
	r.backlog = len(queue)
	close(queue)
	stop := time.AfterFunc(drainLimit, cancel)
	wg.Wait()
	stop.Stop()
	r.allocs = heapAllocs() - a0

	last := start
	for i, o := range ops {
		if done[i].After(last) {
			last = done[i]
		}
		if o.write != nil {
			if replies[i].err != nil {
				r.failed++
				rep.fail("insert: %v", replies[i].err)
			}
			continue
		}
		r.queries++
		if err := checkReply(o, replies[i]); err != nil {
			r.failed++
			rep.fail("%q: %v", o.sql, err)
			continue
		}
		r.lat = append(r.lat, ms(done[i].Sub(due[i])))
	}
	r.span = last.Sub(start)
	rep.attempted += r.queries
	return r
}

// setUp starts a proxy for the seed n times, timing each start after a
// garbage collection. It returns the start times and, if keep is set, the last
// proxy still serving; every other proxy is shut down.
func setUp(seed int64, n int, keep bool) (*proxyEnv, []float64, error) {
	var p *proxyEnv
	times := make([]float64, n)
	for i := range times {
		if p != nil {
			if err := p.close(); err != nil {
				return nil, nil, err
			}
			p = nil
		}
		runtime.GC()
		t0 := time.Now()
		var err error
		if p, err = startProxy(seed); err != nil {
			return nil, nil, err
		}
		times[i] = time.Since(t0).Seconds()
	}
	if !keep && p != nil {
		return nil, times, p.close()
	}
	return p, times, nil
}

func runProxy(cfg runConfig) (*report, error) {
	rep := newReport()
	if cfg.trace {
		return rep, traceProxy(rep, cfg)
	}
	p, setups, err := setUp(cfg.seed, proxySetupBatch, true)
	if err != nil {
		return nil, err
	}

	stream := newOpStream(cfg.seed)
	warm(rep, p, stream.warmup())
	rungs := make([]rung, len(proxyLadder))
	var wins [][]float64 // the reference rung's segments
	var caps []float64   // the overload rung's completion rate per segment
	for _, seg := range proxySchedule {
		rate := proxyLadder[seg.rung]
		s := openLoop(rep, p, stream.take(int(rate*seg.share*cfg.seconds.Seconds())), rate)
		rungs[seg.rung].add(s)
		switch seg.rung {
		case proxyRefRung:
			wins = append(wins, s.lat)
		case proxyCapRung:
			caps = append(caps, s.achieved())
		}
		_, t, err := setUp(cfg.seed, proxySetupBatch, false)
		if err != nil {
			return nil, err
		}
		setups = append(setups, t...)
	}
	rep.set("setup_s", median(setups), "s")
	rep.samples["setup_s"] = setups
	rep.samples["overload_qps"] = caps
	for _, r := range rungs {
		key := fmt.Sprintf("rung%g", r.rate)
		rep.samples[key+"_latency_ms"] = r.lat
		rep.extra(key+".p50_ms", median(r.lat), "ms")
		rep.extra(key+".tail_ms", percentile(r.lat, proxyTailPct), "ms")
		rep.extra(key+".achieved_qps", r.achieved(), "1/s")
		rep.extra(key+".backlog", float64(r.backlog), "count")
		rep.extra(key+".late_max_ms", percentile(r.late, 100), "ms")
		rep.extra(key+".pass", float64(btoi(r.pass())), "bool")
	}
	heap := liveHeapMB()
	if err := p.close(); err != nil {
		return nil, err
	}
	checkGolden(rep, "proxy-mixed")

	ref := rungs[proxyRefRung]
	sustained := 0.0
	for _, r := range rungs {
		if r.pass() {
			sustained = max(sustained, r.achieved())
		}
	}
	rep.set("qps", median(caps), "1/s")
	rep.set("sustained_qps", sustained, "1/s")
	rep.set("latency_p50_ms", windowMedian(wins, 50), "ms")
	rep.set("latency_tail_ms", windowMedian(wins, proxyTailPct), "ms")
	rep.extra("latency_tail_beyond_min", float64(minBeyond(wins, proxyTailPct)), "count")
	rep.set("allocs_per_query", ratio(float64(ref.allocs), float64(ref.queries)), "count")
	rep.set("heap_live_mb", heap, "MiB")
	rep.extra("latency_tail_pct", proxyTailPct, "percentile")
	rep.extra("latency_limit_ms", proxyLimitMS, "ms")
	return rep, nil
}

func proxyProbes() (*env, []string, error) {
	e, err := buildEnv(withSeed(proxyConfig, goldenSeed), goldenSeed, false)
	if err != nil {
		return nil, nil, err
	}
	var sqls []string
	for _, o := range newOpStream(goldenSeed).pool {
		sqls = append(sqls, o.sql)
	}
	return e, sqls, nil
}

// budgets are per-analyst budgets for the library paths, like the
// server's.
type budgets map[string]*smooth.Budget

func (b budgets) spend(analyst string, p smooth.PrivacyParams) error {
	if b[analyst] == nil {
		b[analyst] = smooth.NewBudget(1e12, 0.5)
	}
	return b[analyst].Spend(p.Epsilon, p.Delta)
}

// pstate is the replay's prepared state of one query, rebuilt when the
// database or its metrics change, as flex.Prepared rebuilds.
type pstate struct {
	version uint64
	store   *metrics.Store
	a       *analyzed
	pq      *engine.PreparedQuery
}

// proxyQuery replays the server's path for one query: refresh stale
// metrics, rebuild the prepared state if the database moved, spend the
// analyst's budget, execute the prepared plan and release. It reports
// whether the state was rebuilt.
func (r *replayer) proxyQuery(qi, root int, o op, states map[string]*pstate, b budgets) (*pstate, bool, error) {
	e, tr := r.e, r.tr
	if !e.sys.MetricsFresh() {
		sp := tr.begin(qi, "metrics.collect", root)
		e.sys.CollectMetrics()
		tr.end(sp)
		r.refreshes++
	}
	st := states[o.sql]
	rebuilt := st == nil || st.version != e.eng.Version() || st.store != e.sys.Metrics()
	if rebuilt {
		v, store := e.eng.Version(), e.sys.Metrics()
		a, err := r.analyze(qi, root, o.sql)
		if err != nil {
			return nil, false, err
		}
		sp := tr.begin(qi, "engine.prepare", root)
		pq, err := e.eng.Prepare(o.sql)
		tr.end(sp)
		if err != nil {
			return nil, false, err
		}
		st = &pstate{version: v, store: store, a: a, pq: pq}
		states[o.sql] = st
	}
	rs, err := r.exec(qi, root, st.pq.ExecContext)
	if err != nil {
		return nil, false, err
	}
	if err := r.release(qi, root, st.a, rs); err != nil {
		return nil, false, err
	}
	return st, rebuilt, b.spend(o.analyst, r.pp)
}

// traceProxy measures the per-layer metrics. Each phase starts from a fresh
// set-up and a warm cache and runs the same arrivals:
//
//  1. the reference rung's open loop, for how late the generator runs;
//  2. the arrivals over HTTP on one connection, for the round trips, the
//     cache hit ratio, refusals and budget spends;
//  3. the arrivals through flex.Prepared on the library path, whose median
//     time is subtracted from the HTTP one;
//  4. and 5. the layer replay untraced and traced.
func traceProxy(rep *report, cfg runConfig) error {
	stream := newOpStream(cfg.seed)
	warmOps := stream.warmup()
	ops := stream.take(proxyReplay)
	rate := proxyLadder[proxyRefRung]
	lateOps := stream.take(int(rate * cfg.seconds.Seconds() / 4))

	p, err := startProxy(cfg.seed)
	if err != nil {
		return err
	}
	collect := make([]float64, 5)
	for i := range collect {
		t0 := time.Now()
		p.sys.CollectMetrics()
		collect[i] = ms(time.Since(t0))
	}
	rep.set("metrics.collect_ms", median(collect), "ms")
	warm(rep, p, warmOps)
	ref := openLoop(rep, p, lateOps, rate)
	rep.set("gen.late_ms", percentile(ref.late, proxyTailPct), "ms")
	if err := p.close(); err != nil {
		return err
	}

	rtt, err := httpSequential(rep, cfg.seed, warmOps, ops)
	if err != nil {
		return err
	}
	lib, err := librarySequential(rep, cfg.seed, warmOps, ops)
	if err != nil {
		return err
	}
	rep.set("server.overhead_ms", median(rtt)-median(lib), "ms")
	rep.samples["http_rtt_ms"] = rtt
	rep.samples["library_ms"] = lib

	replay := func(on bool) (time.Duration, error) {
		e, err := buildEnv(withSeed(proxyConfig, cfg.seed), cfg.seed, false)
		if err != nil {
			return 0, err
		}
		pp := smooth.PrivacyParams{Epsilon: epsilon, Delta: e.delta}
		mech := smooth.NewMechanism(cfg.seed)
		states, b := map[string]*pstate{}, budgets{}
		warmup := &replayer{e: e, tr: newTracer(false), mech: mech, pp: pp, memo: true}
		for i, o := range warmOps {
			if _, _, err := warmup.proxyQuery(-1-i, -1, o, states, b); err != nil {
				rep.fail("replay warm-up %q: %v", o.sql, err)
			}
		}
		r := &replayer{e: e, tr: newTracer(on), mech: mech, pp: pp, memo: true}
		var checking time.Duration
		runtime.GC()
		t0 := time.Now()
		queries := 0
		for qi, o := range ops {
			if o.write != nil {
				if err := insert(e, o.write); err != nil {
					rep.fail("insert: %v", err)
				}
				continue
			}
			queries++
			root := r.tr.begin(qi, "query", -1)
			st, rebuilt, err := r.proxyQuery(qi, root, o, states, b)
			r.tr.end(root)
			if err != nil {
				rep.fail("replay %q: %v", o.sql, err)
				continue
			}
			if on && rebuilt {
				c0 := time.Now()
				if err := boundsEqual(e, o.sql, st.a.bounds, pp); err != nil {
					rep.fail("replay of %q: %v", o.sql, err)
				}
				checking += time.Since(c0)
			}
		}
		total := time.Since(t0) - checking
		if on {
			rep.set("engine.spill_bytes", float64(e.eng.SpillStats().SpilledBytes), "B")
			rep.set("metrics.refreshes", float64(r.refreshes), "count")
			setLayerMetrics(rep, r, proxyTailPct, queries)
		}
		return total, nil
	}
	untraced, err := replay(false)
	if err != nil {
		return err
	}
	traced, err := replay(true)
	if err != nil {
		return err
	}
	rep.set("trace.overhead_pct", 100*(traced.Seconds()/untraced.Seconds()-1), "%")
	return nil
}

// httpSequential sends the arrivals over one connection, one at a time,
// applying writes in process between them, and returns each query's round
// trip in ms. It sets the server-side per-layer metrics.
func httpSequential(rep *report, seed int64, warmOps, ops []op) ([]float64, error) {
	p, err := startProxy(seed)
	if err != nil {
		return nil, err
	}
	defer p.close()
	warm(rep, p, warmOps)
	c := newClient(p.url)
	defer c.close()
	hits0, misses0, err := cacheCounters(c)
	if err != nil {
		return nil, err
	}
	answered0, err := answered(c)
	if err != nil {
		return nil, err
	}
	var rtt []float64
	refused, completed := 0, 0
	for _, o := range ops {
		if o.write != nil {
			if err := insert(p.env, o.write); err != nil {
				rep.fail("insert: %v", err)
			}
			continue
		}
		rep.attempted++
		t0 := time.Now()
		rp := c.query(context.Background(), o)
		d := time.Since(t0)
		if rp.err == nil && rp.status != http.StatusOK {
			refused++
		}
		if err := checkReply(o, rp); err != nil {
			rep.fail("%q: %v", o.sql, err)
			continue
		}
		completed++
		rtt = append(rtt, ms(d))
	}
	hits1, misses1, err := cacheCounters(c)
	if err != nil {
		return nil, err
	}
	answered1, err := answered(c)
	if err != nil {
		return nil, err
	}
	rep.set("server.cache_hit_ratio", ratio(hits1-hits0, hits1-hits0+misses1-misses0), "ratio")
	rep.set("server.refused", float64(refused), "count")
	rep.set("smooth.budget_spends", ratio(float64(answered1-answered0), float64(completed)), "count")
	return rtt, nil
}

// cacheCounters scrapes the prepared-cache hit and miss totals from
// /metrics.
func cacheCounters(c *client) (hits, misses float64, err error) {
	body, err := c.get("/metrics", "")
	if err != nil {
		return 0, 0, err
	}
	found := 0
	for _, line := range strings.Split(string(body), "\n") {
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		switch name {
		case "flex_prepared_cache_hits_total":
			hits, err = strconv.ParseFloat(val, 64)
			found++
		case "flex_prepared_cache_misses_total":
			misses, err = strconv.ParseFloat(val, 64)
			found++
		}
		if err != nil {
			return 0, 0, err
		}
	}
	if found != 2 {
		return 0, 0, errors.New("/metrics lacks the prepared-cache counters")
	}
	return hits, misses, nil
}

// answered sums the queries every analyst budget has been charged for.
func answered(c *client) (int, error) {
	total := 0
	for i := range proxyAnalysts {
		body, err := c.get("/budget", "analyst-"+strconv.Itoa(i))
		if err != nil {
			return 0, err
		}
		var b server.BudgetResponse
		if err := json.Unmarshal(body, &b); err != nil {
			return 0, err
		}
		total += b.QueriesAnswered
	}
	return total, nil
}

// librarySequential runs the arrivals through flex.Prepared, keyed by SQL
// as the server's cache is, with the same per-analyst budgets, and returns
// each query's time in ms.
func librarySequential(rep *report, seed int64, warmOps, ops []op) ([]float64, error) {
	e, err := buildEnv(withSeed(proxyConfig, seed), seed, false)
	if err != nil {
		return nil, err
	}
	preps := make(map[string]*flex.Prepared)
	b := budgets{}
	pp := smooth.PrivacyParams{Epsilon: epsilon, Delta: e.delta}
	run := func(o op) error {
		prep, ok := preps[o.sql]
		if !ok {
			var err error
			if prep, err = e.sys.Prepare(o.sql); err != nil {
				return err
			}
			preps[o.sql] = prep
		}
		if _, err := prep.Run(epsilon, e.delta); err != nil {
			return err
		}
		return b.spend(o.analyst, pp)
	}
	for _, o := range warmOps {
		if err := run(o); err != nil {
			rep.fail("library warm-up %q: %v", o.sql, err)
		}
	}
	var lat []float64
	for _, o := range ops {
		if o.write != nil {
			if err := insert(e, o.write); err != nil {
				rep.fail("insert: %v", err)
			}
			continue
		}
		t0 := time.Now()
		err := run(o)
		d := time.Since(t0)
		if err != nil {
			rep.fail("library %q: %v", o.sql, err)
			continue
		}
		lat = append(lat, ms(d))
	}
	return lat, nil
}
