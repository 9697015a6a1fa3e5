package main

import (
	"context"
	"fmt"
	"time"

	"flexdp/internal/engine"
	"flexdp/internal/relalg"
	"flexdp/internal/smooth"
	"flexdp/internal/sqlparser"
)

// span is one timed call into a layer. Spans of one query share Query;
// Parent is the index of the enclosing span, −1 for a query's root. A span
// with Calls > 0 aggregates that many calls: for core.sens_at it is the
// summed time of every SensitivityAt call one smoothing made, and for
// smooth.smooth Calls counts the k values the scan evaluated.
type span struct {
	Query  int           `json:"query"`
	Layer  string        `json:"layer"`
	Parent int           `json:"parent"`
	Start  time.Duration `json:"start_ns"`
	Dur    time.Duration `json:"dur_ns"`
	Calls  int64         `json:"calls,omitempty"`
}

// tracer keeps spans in memory; they are written out when the run ends.
// A tracer that is off records nothing and reads no clock, so the same
// replay code runs untraced to measure what tracing costs.
type tracer struct {
	on    bool
	t0    time.Time
	spans []span
}

func newTracer(on bool) *tracer { return &tracer{on: on, t0: time.Now()} }

func (t *tracer) begin(q int, layer string, parent int) int {
	if !t.on {
		return -1
	}
	t.spans = append(t.spans, span{Query: q, Layer: layer, Parent: parent, Start: time.Since(t.t0)})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if id >= 0 {
		t.spans[id].Dur = time.Since(t.t0) - t.spans[id].Start
	}
}

// now reads the clock only while tracing.
func (t *tracer) now() time.Time {
	if !t.on {
		return time.Time{}
	}
	return time.Now()
}

func (t *tracer) since(t0 time.Time) time.Duration {
	if !t.on {
		return 0
	}
	return time.Since(t0)
}

// aggregate records calls made under parent as one child span.
func (t *tracer) aggregate(q int, layer string, parent int, dur time.Duration, calls int64) {
	if t.on && parent >= 0 {
		t.spans = append(t.spans, span{Query: q, Layer: layer, Parent: parent, Start: t.spans[parent].Start, Dur: dur, Calls: calls})
	}
}

// catalog resolves table schemas for relalg.Build from the engine, as the
// flex package does internally.
type catalog struct{ eng *engine.DB }

func (c catalog) TableColumns(table string) ([]string, bool) {
	t := c.eng.Table(table)
	if t == nil {
		return nil, false
	}
	return t.Schema.Names(), true
}

// replayer drives the layers' public functions in pipeline order:
// sqlparser.Parse → relalg.Build → Analyzer.SensitivityPoly →
// smooth.SmoothWithCutoff (whose fn wraps Analyzer.SensitivityAt to count
// and time each k) → engine execution → Sampler.Release.
type replayer struct {
	e    *env
	tr   *tracer
	mech *smooth.Mechanism
	pp   smooth.PrivacyParams
	// memo shares each SensitivityAt vector across a query's outputs, as a
	// prepared query's SensitivityCache does; without it every output
	// re-walks the tree for every k, as System.Run does.
	memo bool

	// bounds are the replayed smooth bounds by query, for the check against
	// System.SmoothBound.
	bounds map[int][]smooth.Smoothed

	calls     int64 // SensitivityAt calls
	refreshes int   // metrics recollections before a query
	evals     int64 // k values evaluated, over all outputs
	outputs   int64
	cells     int64 // released cells
	argk      []float64
	allocs    uint64 // heap objects allocated inside engine execution
	execs     int
}

// analyzed is a replayed analysis: what the release needs.
type analyzed struct {
	aggPos []int
	bounds []smooth.Smoothed
}

// analyze replays the analysis of sql under the query's root span.
func (r *replayer) analyze(qi, root int, sql string) (*analyzed, error) {
	tr := r.tr
	sp := tr.begin(qi, "sqlparser.parse", root)
	stmt, err := sqlparser.Parse(sql)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	sp = tr.begin(qi, "relalg.build", root)
	q, err := relalg.Build(stmt, catalog{r.e.eng})
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	an := r.e.sys.Analyzer()
	sp = tr.begin(qi, "core.poly", root)
	polys, err := an.SensitivityPoly(q)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	degree := 0
	for _, p := range polys {
		degree = max(degree, p.Degree())
	}
	n := r.e.db.TotalRows()
	var memo map[int][]float64
	if r.memo {
		memo = make(map[int][]float64)
	}
	var sensDur time.Duration
	var sensCalls int64
	sensAt := func(k int) ([]float64, error) {
		if ss, ok := memo[k]; ok {
			return ss, nil
		}
		t0 := tr.now()
		ss, err := an.SensitivityAt(q, k)
		sensDur += tr.since(t0)
		sensCalls++
		if err == nil && memo != nil {
			memo[k] = ss
		}
		return ss, err
	}
	a := &analyzed{bounds: make([]smooth.Smoothed, len(q.Outputs))}
	for i := range q.Outputs {
		sensDur, sensCalls = 0, 0
		var evals int64
		fn := func(k int) (float64, error) {
			evals++
			ss, err := sensAt(k)
			if err != nil {
				return 0, err
			}
			return ss[i], nil
		}
		sp := tr.begin(qi, "smooth.smooth", root)
		sm, err := smooth.SmoothWithCutoff(fn, degree, n, r.pp)
		tr.end(sp)
		if err != nil {
			return nil, err
		}
		if sp >= 0 {
			tr.spans[sp].Calls = evals
		}
		tr.aggregate(qi, "core.sens_at", sp, sensDur, sensCalls)
		a.bounds[i] = sm
		r.calls += sensCalls
		r.evals += evals
		r.outputs++
		if cut := smooth.CutoffK(degree, sm.Beta, n); cut > 0 {
			r.argk = append(r.argk, float64(sm.ArgK)/float64(cut))
		}
	}
	for i, item := range stmt.Columns {
		if item.Expr != nil && sqlparser.ContainsAggregate(item.Expr) {
			a.aggPos = append(a.aggPos, i)
		}
	}
	if len(a.aggPos) != len(a.bounds) {
		return nil, fmt.Errorf("%d aggregate columns for %d outputs", len(a.aggPos), len(a.bounds))
	}
	if r.bounds == nil {
		r.bounds = make(map[int][]smooth.Smoothed)
	}
	r.bounds[qi] = a.bounds
	return a, nil
}

// closedQuery replays one System.Run: analysis, budget admission,
// execution and release.
func (r *replayer) closedQuery(qi, root int, sql string) error {
	a, err := r.analyze(qi, root, sql)
	if err != nil {
		return err
	}
	if r.e.budget != nil {
		if err := r.e.budget.Spend(r.pp.Epsilon, r.pp.Delta); err != nil {
			return err
		}
	}
	rs, err := r.exec(qi, root, func(ctx context.Context) (*engine.ResultSet, error) {
		return r.e.eng.QueryContext(ctx, sql)
	})
	if err != nil {
		return err
	}
	return r.release(qi, root, a, rs)
}

// exec runs the engine under an engine.exec span, counting its heap
// allocations while tracing.
func (r *replayer) exec(qi, root int, run func(context.Context) (*engine.ResultSet, error)) (*engine.ResultSet, error) {
	var a0 uint64
	if r.tr.on {
		a0 = heapAllocs()
	}
	sp := r.tr.begin(qi, "engine.exec", root)
	rs, err := run(context.Background())
	r.tr.end(sp)
	if r.tr.on {
		r.allocs += heapAllocs() - a0
	}
	r.execs++
	return rs, err
}

// release perturbs every aggregate cell of the engine result with the
// query's own forked sampler, under a smooth.release span.
func (r *replayer) release(qi, root int, a *analyzed, rs *engine.ResultSet) error {
	sp := r.tr.begin(qi, "smooth.release", root)
	defer r.tr.end(sp)
	sampler := r.mech.Fork(uint64(qi) + 1)
	for _, row := range rs.Rows {
		for j, p := range a.aggPos {
			v := row[p]
			var x float64
			switch v.Kind {
			case engine.KindInt, engine.KindFloat:
				x = v.AsFloat()
			case engine.KindNull:
			default:
				return fmt.Errorf("aggregate column %d is %v", p, v.Kind)
			}
			sampler.Release(x, a.bounds[j], r.pp.Epsilon)
			r.cells++
		}
	}
	return nil
}

// layerTimes sums, per layer, the self time of its spans (duration minus
// the durations of direct children) and the total duration.
type layerTimes struct {
	self, total map[string]time.Duration
	// perQuery[layer][query] is the summed self time of the layer's spans
	// in that query, for queries that called the layer.
	perQuery map[string]map[int]time.Duration
}

func summarize(spans []span) layerTimes {
	child := make([]time.Duration, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.Dur
		}
	}
	lt := layerTimes{self: map[string]time.Duration{}, total: map[string]time.Duration{}, perQuery: map[string]map[int]time.Duration{}}
	for i, s := range spans {
		self := s.Dur - child[i]
		lt.self[s.Layer] += self
		lt.total[s.Layer] += s.Dur
		if lt.perQuery[s.Layer] == nil {
			lt.perQuery[s.Layer] = map[int]time.Duration{}
		}
		lt.perQuery[s.Layer][s.Query] += self
	}
	return lt
}

// medianUS is the median over queries of a layer's per-query self time, in
// microseconds; 0 when no query called the layer.
func (lt layerTimes) medianUS(layer string) float64 {
	return lt.quantile(layer, 50) * 1e3
}

// quantile is the p-th percentile over queries of a layer's per-query self
// time, in milliseconds.
func (lt layerTimes) quantile(layer string, p float64) float64 {
	pq := lt.perQuery[layer]
	if len(pq) == 0 {
		return 0
	}
	xs := make([]float64, 0, len(pq))
	for _, d := range pq {
		xs = append(xs, ms(d))
	}
	return percentile(xs, p)
}

// setLayerMetrics derives the per-layer metrics shared by every workload
// from a traced replay of queries queries.
func setLayerMetrics(rep *report, r *replayer, tailPct float64, queries int) {
	lt := summarize(r.tr.spans)
	rep.set("sqlparser.parse_us", lt.medianUS("sqlparser.parse"), "us")
	rep.set("relalg.build_us", lt.medianUS("relalg.build"), "us")
	rep.set("core.poly_us", lt.medianUS("core.poly"), "us")
	rep.set("core.sens_at_calls", float64(r.calls)/float64(queries), "count")
	rep.set("core.sens_at_us", ratio(us(lt.total["core.sens_at"]), float64(r.calls)), "us")
	rep.set("smooth.scan_us", lt.medianUS("smooth.smooth"), "us")
	rep.set("smooth.k_evals", ratio(float64(r.evals), float64(r.outputs)), "count")
	rep.set("smooth.argk_frac", mean(r.argk), "ratio")
	rep.set("smooth.release_us", ratio(us(lt.total["smooth.release"]), float64(r.cells)), "us")
	rep.set("engine.exec_ms", lt.quantile("engine.exec", 50), "ms")
	rep.set("engine.exec_tail_ms", lt.quantile("engine.exec", tailPct), "ms")
	rep.set("engine.allocs_per_query", ratio(float64(r.allocs), float64(r.execs)), "count")
	rep.set("engine.prepare_us", lt.medianUS("engine.prepare"), "us")

	query := lt.total["query"]
	core := lt.self["core.poly"] + lt.total["core.sens_at"]
	smoothT := lt.self["smooth.smooth"] + lt.total["smooth.release"]
	eng := lt.total["engine.exec"] + lt.total["engine.prepare"]
	front := lt.total["sqlparser.parse"] + lt.total["relalg.build"]
	rep.set("core.share", ratio(float64(core), float64(query)), "ratio")
	rep.set("smooth.share", ratio(float64(smoothT), float64(query)), "ratio")
	rep.set("engine.share", ratio(float64(eng), float64(query)), "ratio")
	rep.set("flex.overhead_pct", 100*ratio(float64(front+core+smoothT), float64(eng)), "%")
	rep.extra("trace.queries", float64(queries), "count")
	rep.extra("trace.spans", float64(len(r.tr.spans)), "count")
	rep.spans = r.tr.spans
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func mean(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return ratio(s, float64(len(xs)))
}

// boundsEqual reports whether replayed bounds equal System.SmoothBound for
// every output, so the replay is known to measure the same computation.
func boundsEqual(e *env, sql string, got []smooth.Smoothed, p smooth.PrivacyParams) error {
	a, err := e.sys.Analyze(sql)
	if err != nil {
		return err
	}
	if len(a.OutputNames) != len(got) {
		return fmt.Errorf("replay has %d outputs, System %d", len(got), len(a.OutputNames))
	}
	for i := range got {
		want, err := e.sys.SmoothBound(a, i, p)
		if err != nil {
			return err
		}
		if want != got[i] {
			return fmt.Errorf("output %d: replayed bound %+v, System.SmoothBound %+v", i, got[i], want)
		}
	}
	return nil
}
