package engine

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"flexdp/internal/spill"
	"flexdp/internal/sqlparser"
)

// execContext carries per-query state: the database plus CTE results
// registered by enclosing WITH clauses, and (for prepared queries) the
// shared compiled-plan cache.
type execContext struct {
	db   *DB
	ctes map[string]*relation
	// plans, when non-nil, memoizes compiled subquery-free expression
	// closures across executions of the same prepared statement. It is safe
	// for concurrent use; nil for one-shot Query/Execute calls.
	plans *planCache
	// cfg is the immutable execution-config snapshot this query runs under;
	// the scalar fields below cache its derived values. Contexts built
	// directly by tests may leave it zero (zero value = defaults).
	cfg ExecConfig
	// pstats gauges the streaming dataflow (peak in-flight morsel bytes,
	// pipeline-breaker count); nil-safe, folded into spill stats at query end.
	pstats *pipeStats
	// workers bounds the morsel-driven executor's goroutines for this query;
	// morsel is the chunk size in rows. Both are snapshotted from the DB at
	// query start so one execution sees a consistent configuration.
	workers int
	morsel  int
	// pinned records whether morsel came from an explicit SetMorselSize;
	// when false, width-aware operators size their morsels adaptively via
	// spanSize. Snapshotted at query start like workers and morsel.
	pinned bool
	// spill is the per-query out-of-core manager (nil when no memory budget
	// is configured). It is shared by every child context — CTEs and
	// subqueries charge the same budget — and retired by the DB entry point
	// that created it.
	spill *spill.Manager
	// goctx is the query's cancellation context, polled at morsel and
	// record-batch boundaries; nil behaves as context.Background().
	goctx context.Context
	// prof collects the per-operator execution trace when ExecConfig.Profile
	// requested one; nil (the default) disables all trace collection.
	prof *queryProfiler
}

// spanSize returns the morsel size for an operator over rows of the given
// column width: the pinned size when SetMorselSize fixed one, otherwise the
// adaptive bytes-per-morsel-derived size (see morsel.go). Either way the
// size affects scheduling only — per-morsel outputs merge in morsel order,
// so results are identical at every granularity.
func (ctx *execContext) spanSize(width int) int {
	if ctx.pinned {
		return ctx.morsel
	}
	return adaptiveMorselSize(width)
}

// err polls the query's context. Row and record loops call it once per
// morsel worth of work, which bounds cancellation latency to one morsel
// without a per-row atomic load.
func (ctx *execContext) err() error {
	if ctx.goctx == nil {
		return nil
	}
	return ctx.goctx.Err()
}

// ExecuteContext runs a parsed SELECT statement under goctx. It is the
// primary execution entry point: cancellation or deadline expiry aborts
// execution within one morsel of work per worker and returns the context's
// error unwrapped, so errors.Is(err, context.Canceled) holds. A panic during
// execution is recovered into a *PanicError instead of killing the process.
// Either way the query's spill files are removed before returning. The
// execution runs against an immutable ExecConfig snapshot taken here, so
// configuration changes mid-query apply only to later executions.
func (db *DB) ExecuteContext(goctx context.Context, stmt *sqlparser.SelectStmt) (rs *ResultSet, err error) {
	return db.ExecuteContextConfig(goctx, stmt, db.ExecConfig())
}

// ExecuteContextConfig runs a parsed SELECT statement under goctx against an
// explicit execution config instead of the database's defaults. It is how a
// caller requests a per-query override — most importantly cfg.Profile, which
// receives the execution's per-operator trace (see QueryProfile). An
// EXPLAIN ANALYZE statement executes fully and returns the rendered profile
// as its result set instead of the query's rows.
func (db *DB) ExecuteContextConfig(goctx context.Context, stmt *sqlparser.SelectStmt, cfg ExecConfig) (rs *ResultSet, err error) {
	if stmt.Explain {
		return db.explainAnalyze(goctx, stmt, cfg)
	}
	mgr := cfg.newSpillManager()
	defer db.finishSpill(mgr)
	ps := &pipeStats{}
	defer db.notePipeline(ps)
	var prof *queryProfiler
	if cfg.Profile != nil {
		prof = newQueryProfiler()
		// Registered between the stats defers and the panic recovery, so it
		// runs after recoverExecPanic (seeing the recovered outcome) and
		// before finishSpill retires the manager: the profile snapshots the
		// query's own spill stats exactly as they are folded into the DB.
		defer prof.fill(cfg.Profile, cfg, mgr, ps)
	}
	defer recoverExecPanic(&err)
	ctx := &execContext{db: db, ctes: make(map[string]*relation), cfg: cfg, pstats: ps,
		workers: cfg.workers(), morsel: cfg.morsel(),
		pinned: cfg.morselPinned(), spill: mgr, goctx: goctx,
		prof: prof}
	return ctx.executeSelect(stmt)
}

// explainAnalyze executes the statement with profiling forced on and returns
// the rendered trace as a one-column result set (Postgres-style
// "QUERY PLAN"), discarding the query's own rows. The query still runs end
// to end — rows scanned, joined, aggregated, spilled — so the numbers are
// measurements, not estimates.
func (db *DB) explainAnalyze(goctx context.Context, stmt *sqlparser.SelectStmt, cfg ExecConfig) (*ResultSet, error) {
	inner := *stmt
	inner.Explain = false
	var prof QueryProfile
	cfg.Profile = &prof
	if _, err := db.ExecuteContextConfig(goctx, &inner, cfg); err != nil {
		return nil, err
	}
	out := &ResultSet{Columns: []string{"QUERY PLAN"}}
	for _, line := range prof.Render() {
		out.Rows = append(out.Rows, []Value{NewString(line)})
	}
	return out, nil
}

// Execute runs a parsed SELECT statement and returns its result set. It is a
// thin wrapper over ExecuteContext with context.Background(); prefer the
// context-first form in code that has a real context to pass.
func (db *DB) Execute(stmt *sqlparser.SelectStmt) (*ResultSet, error) {
	return db.ExecuteContext(context.Background(), stmt)
}

// QueryContext parses and executes SQL text under goctx in one step. Like
// ExecuteContext, it is the primary form of the parse-and-run entry point.
func (db *DB) QueryContext(goctx context.Context, sql string) (*ResultSet, error) {
	stmt, err := sqlparser.Parse(sql)
	if err != nil {
		return nil, err
	}
	return db.ExecuteContext(goctx, stmt)
}

// Query parses and executes SQL text in one step: a thin wrapper over
// QueryContext with context.Background(). Prefer QueryContext when a real
// context is available.
func (db *DB) Query(sql string) (*ResultSet, error) {
	return db.QueryContext(context.Background(), sql)
}

// executeSelect handles WITH registration, set operations, and trailing
// ORDER BY / LIMIT / OFFSET.
func (ctx *execContext) executeSelect(stmt *sqlparser.SelectStmt) (*ResultSet, error) {
	// Entry check: a statement (or CTE / subquery) never starts under a
	// cancelled context. The cancellation points below all live in row
	// loops, so a plan whose path has no such loop (a bare scan feeding a
	// global aggregate, say) could otherwise complete despite arriving
	// pre-cancelled.
	if err := ctx.err(); err != nil {
		return nil, err
	}
	// CTEs are visible to later CTEs and the main body. Each statement gets
	// a child context so sibling subqueries cannot see our CTEs leak out.
	child := &execContext{db: ctx.db, ctes: make(map[string]*relation), plans: ctx.plans,
		cfg: ctx.cfg, pstats: ctx.pstats,
		workers: ctx.workers, morsel: ctx.morsel, pinned: ctx.pinned,
		spill: ctx.spill, goctx: ctx.goctx, prof: ctx.prof}
	for name, rel := range ctx.ctes {
		child.ctes[name] = rel
	}
	for _, cte := range stmt.With {
		rs, err := child.executeSelect(cte.Query)
		if err != nil {
			return nil, fmt.Errorf("in CTE %q: %w", cte.Name, err)
		}
		rel := resultToRelation(rs, cte.Name)
		if len(cte.Columns) > 0 {
			if len(cte.Columns) != len(rel.cols) {
				return nil, fmt.Errorf("engine: CTE %q declares %d columns but query returns %d",
					cte.Name, len(cte.Columns), len(rel.cols))
			}
			for i, c := range cte.Columns {
				rel.cols[i].name = c
			}
		}
		child.ctes[strings.ToLower(cte.Name)] = rel
	}

	out, sortKeys, err := child.executeCore(stmt)
	if err != nil {
		return nil, err
	}

	// Set operations chain left-associatively along the SetOp links.
	for op := stmt.SetOp; op != nil; op = op.Right.SetOp {
		right, _, err := child.executeCore(op.Right)
		if err != nil {
			return nil, err
		}
		if len(right.Columns) != len(out.Columns) {
			return nil, fmt.Errorf("engine: set operation arity mismatch: %d vs %d",
				len(out.Columns), len(right.Columns))
		}
		out, err = child.applySetOp(out, right, op.Kind, op.All)
		if err != nil {
			return nil, err
		}
		sortKeys = nil // positional sort only after set ops
	}

	if len(stmt.OrderBy) > 0 {
		if err := sortResult(child, out, stmt.OrderBy, sortKeys); err != nil {
			return nil, err
		}
	}
	if stmt.Offset != nil || stmt.Limit != nil {
		if err := applyLimitOffset(out, stmt, child); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// executeCore runs a single SELECT body (no set ops, no ORDER BY/LIMIT) as one
// morsel pipeline — FROM (with streaming join probes) → WHERE (selection
// vectors) → the aggregation or projection sink — and additionally returns
// per-output-row sort keys for the statement's ORDER BY expressions evaluated
// in the projection environment. Only pipeline breakers materialize rows.
func (ctx *execContext) executeCore(stmt *sqlparser.SelectStmt) (rs *ResultSet, sortKeys [][]Value, err error) {
	p, err := ctx.buildFromPipeline(stmt.From)
	if err != nil {
		return nil, nil, err
	}
	// Operators may hold spill writers before the drive starts (Grace join
	// probe partitions); a compile error in a later stage must release them.
	defer func() {
		if err != nil {
			p.abort()
		}
	}()

	if stmt.Where != nil {
		f, ferr := ctx.newFilterOp(p.rel, stmt.Where)
		if ferr != nil {
			err = ferr
			return nil, nil, err
		}
		p.push(ctx.traceOp("filter", "", f), p.rel)
	}

	aggregated := len(stmt.GroupBy) > 0 || stmt.Having != nil
	if !aggregated {
		for _, item := range stmt.Columns {
			if item.Expr != nil && sqlparser.ContainsAggregate(item.Expr) {
				aggregated = true
				break
			}
		}
	}

	var out *ResultSet
	if aggregated {
		out, sortKeys, err = ctx.executeAggregateStream(stmt, p)
	} else {
		out, sortKeys, err = ctx.executeProjectionStream(stmt, p)
	}
	if err != nil {
		return nil, nil, err
	}

	if stmt.Distinct {
		out, sortKeys, err = ctx.dedupeRows(out, sortKeys)
		if err != nil {
			return nil, nil, err
		}
	}
	return out, sortKeys, nil
}

func (ctx *execContext) buildTableExpr(te sqlparser.TableExpr) (*relation, error) {
	switch t := te.(type) {
	case *sqlparser.TableName:
		qual := strings.ToLower(t.Name)
		if t.Alias != "" {
			qual = strings.ToLower(t.Alias)
		}
		if cte, ok := ctx.ctes[strings.ToLower(t.Name)]; ok {
			return requalify(cte, qual), nil
		}
		tbl := ctx.db.Table(t.Name)
		if tbl == nil {
			return nil, fmt.Errorf("engine: unknown table %q", t.Name)
		}
		cols := make([]relCol, len(tbl.Schema.Columns))
		for i, c := range tbl.Schema.Columns {
			cols[i] = relCol{qual: qual, name: c.Name}
		}
		return &relation{cols: cols, rows: tbl.Rows}, nil

	case *sqlparser.SubqueryTable:
		rs, err := ctx.executeSelect(t.Query)
		if err != nil {
			return nil, err
		}
		return resultToRelation(rs, t.Alias), nil

	case *sqlparser.JoinExpr:
		// A join nested where a materialized relation is needed (the right
		// side of a join, a later FROM item) runs as its own pipeline.
		p, err := ctx.buildTablePipeline(t)
		if err != nil {
			return nil, err
		}
		return ctx.materializeStream(p)
	}
	return nil, fmt.Errorf("engine: unsupported table expression %T", te)
}

func requalify(rel *relation, qual string) *relation {
	cols := make([]relCol, len(rel.cols))
	for i, c := range rel.cols {
		cols[i] = relCol{qual: qual, name: c.name}
	}
	return &relation{cols: cols, rows: rel.rows}
}

func resultToRelation(rs *ResultSet, alias string) *relation {
	qual := strings.ToLower(alias)
	cols := make([]relCol, len(rs.Columns))
	for i, name := range rs.Columns {
		cols[i] = relCol{qual: qual, name: name}
	}
	return &relation{cols: cols, rows: rs.Rows}
}

// crossJoin materializes the cartesian product, polling the query context
// once per left row — the product can dwarf both inputs, so cancellation
// must be able to interrupt the output loop, not just the input scans.
func (ctx *execContext) crossJoin(left, right *relation) (*relation, error) {
	cols := append(append([]relCol{}, left.cols...), right.cols...)
	n := len(left.rows) * len(right.rows)
	ctx.pstats.breaker(estRowsBytes(left.rows) + estRowsBytes(right.rows))
	rows := make([][]Value, 0, n)
	// One backing slab for every output row: the result size is known
	// exactly, so a single allocation replaces n per-row allocations.
	slab := make([]Value, 0, n*len(cols))
	for _, lr := range left.rows {
		if err := ctx.err(); err != nil {
			return nil, err
		}
		for _, rr := range right.rows {
			off := len(slab)
			slab = append(slab, lr...)
			slab = append(slab, rr...)
			rows = append(rows, slab[off:len(slab):len(slab)])
		}
	}
	return &relation{cols: cols, rows: rows}, nil
}

// equiKey is one equality conjunct usable as a hash-join key: column
// positions in the left and right relations.
type equiKey struct {
	leftIdx  int
	rightIdx int
}

// splitJoinCondition decomposes an ON condition into hash-joinable equality
// conjuncts plus a residual predicate evaluated on the combined row.
func splitJoinCondition(on sqlparser.Expr, left, right *relation) (keys []equiKey, residual []sqlparser.Expr) {
	var conjuncts []sqlparser.Expr
	var flatten func(e sqlparser.Expr)
	flatten = func(e sqlparser.Expr) {
		if b, ok := e.(*sqlparser.BinaryExpr); ok && b.Op == "AND" {
			flatten(b.Left)
			flatten(b.Right)
			return
		}
		conjuncts = append(conjuncts, e)
	}
	flatten(on)

	for _, c := range conjuncts {
		b, ok := c.(*sqlparser.BinaryExpr)
		if ok && b.Op == "=" {
			lc, lok := b.Left.(*sqlparser.ColumnRef)
			rc, rok := b.Right.(*sqlparser.ColumnRef)
			if lok && rok {
				li, lerr := left.findCol(lc.Table, lc.Name)
				ri, rerr := right.findCol(rc.Table, rc.Name)
				if lerr == nil && rerr == nil {
					keys = append(keys, equiKey{leftIdx: li, rightIdx: ri})
					continue
				}
				// Try the swapped orientation: right.col = left.col.
				li2, lerr2 := left.findCol(rc.Table, rc.Name)
				ri2, rerr2 := right.findCol(lc.Table, lc.Name)
				if lerr2 == nil && rerr2 == nil {
					keys = append(keys, equiKey{leftIdx: li2, rightIdx: ri2})
					continue
				}
			}
		}
		residual = append(residual, c)
	}
	return keys, residual
}

// joinProbe is the probe phase of a hash join: the shared immutable state
// (key positions, build-side index, compiled residuals) consulted by every
// probe scan, serial or parallel.
type joinProbe struct {
	keys   []equiKey
	index  *buildIndex
	right  [][]Value
	resFns []evalFn
	width  int // combined output width
}

// scan probes left rows [lo, hi) against the build index and returns the
// combined rows that pass every residual, in left-row order. matchedLeft is
// written only at indices in [lo, hi); matchedRight may be any scratch slice
// of build-side length (workers pass private ones). The probe-key encoding is
// columnar: each key column is gathered into a typed vector once for the
// whole range, and appendRowKeyVecs emits exactly the bytes AppendRowKey
// would for the build side. Scratch is local to the call, so concurrent
// scans over disjoint ranges are safe.
func (p *joinProbe) scan(leftRows [][]Value, lo, hi int, matchedLeft, matchedRight []bool) ([][]Value, error) {
	n := hi - lo
	sel := make([]int, n)
	for i := range sel {
		sel[i] = lo + i
	}
	kvecs := make([]*vector, len(p.keys))
	for k := range p.keys {
		kvecs[k] = &vector{}
		loadColumn(leftRows, sel, p.keys[k].leftIdx, kvecs[k])
	}
	var keyScratch []byte
	var out [][]Value
rowLoop:
	for i := 0; i < n; i++ {
		for _, kv := range kvecs {
			if kv.null[i] {
				continue rowLoop // NULL join keys never match
			}
		}
		keyScratch = appendRowKeyVecs(keyScratch[:0], kvecs, i)
		li := lo + i
		lr := leftRows[li]
	probeMatches:
		for _, ri := range p.index.lookup(keyScratch) {
			row := make([]Value, 0, p.width)
			row = append(row, lr...)
			row = append(row, p.right[ri]...)
			for _, fn := range p.resFns {
				v, err := fn(row)
				if err != nil {
					return nil, err
				}
				if !v.Truthy() {
					continue probeMatches
				}
			}
			matchedLeft[li] = true
			matchedRight[ri] = true
			out = append(out, row)
		}
	}
	return out, nil
}

// nestedLoopJoin joins two materialized relations on the full predicate
// (the ON conjuncts, for a condition with no equality keys), then pads
// unmatched rows for outer joins. It is serial: the quadratic loop is
// dominated by predicate evaluation over every pair, and the predicate may
// embed subquery state that is not worker-safe.
func (ctx *execContext) nestedLoopJoin(kind sqlparser.JoinKind, left, right *relation, residual []sqlparser.Expr) (*relation, error) {
	cols := append(append([]relCol{}, left.cols...), right.cols...)
	combined := &relation{cols: cols}
	matchedLeft := make([]bool, len(left.rows))
	matchedRight := make([]bool, len(right.rows))

	// Predicates are compiled once against the combined column layout
	// instead of being re-walked for every candidate row pair.
	resFns := make([]evalFn, len(residual))
	for i, res := range residual {
		fn, err := compileExpr(combined, ctx, res)
		if err != nil {
			return nil, err
		}
		resFns[i] = fn
	}

	emit := func(li, ri int) error {
		row := make([]Value, 0, len(cols))
		row = append(row, left.rows[li]...)
		row = append(row, right.rows[ri]...)
		for _, fn := range resFns {
			v, err := fn(row)
			if err != nil {
				return err
			}
			if !v.Truthy() {
				return nil
			}
		}
		matchedLeft[li] = true
		matchedRight[ri] = true
		combined.rows = append(combined.rows, row)
		return nil
	}
	for li := range left.rows {
		if err := ctx.err(); err != nil {
			return nil, err
		}
		for ri := range right.rows {
			if err := emit(li, ri); err != nil {
				return nil, err
			}
		}
	}

	// Outer-join padding.
	pad := func(src *relation, idx int, leftSide bool) {
		row := make([]Value, 0, len(cols))
		if leftSide {
			row = append(row, src.rows[idx]...)
			for range right.cols {
				row = append(row, Null)
			}
		} else {
			for range left.cols {
				row = append(row, Null)
			}
			row = append(row, src.rows[idx]...)
		}
		combined.rows = append(combined.rows, row)
	}
	// Padding scans the full input side, so it polls at morsel boundaries
	// like every other unbounded row loop (the one-morsel cancellation
	// contract covers the padding phase too).
	padSide := func(src *relation, matched []bool, leftSide bool) error {
		for i := range src.rows {
			if i%ctx.morsel == 0 {
				if err := ctx.err(); err != nil {
					return err
				}
			}
			if !matched[i] {
				pad(src, i, leftSide)
			}
		}
		return nil
	}
	switch kind {
	case sqlparser.JoinLeft:
		if err := padSide(left, matchedLeft, true); err != nil {
			return nil, err
		}
	case sqlparser.JoinRight:
		if err := padSide(right, matchedRight, false); err != nil {
			return nil, err
		}
	case sqlparser.JoinFull:
		if err := padSide(left, matchedLeft, true); err != nil {
			return nil, err
		}
		if err := padSide(right, matchedRight, false); err != nil {
			return nil, err
		}
	}
	return combined, nil
}

// outputName derives the column name for a select item.
func outputName(item sqlparser.SelectItem, pos int) string {
	if item.Alias != "" {
		return item.Alias
	}
	switch e := item.Expr.(type) {
	case *sqlparser.ColumnRef:
		return e.Name
	case *sqlparser.FuncCall:
		return strings.ToLower(e.Name)
	}
	return fmt.Sprintf("col%d", pos)
}

// projSpec is one select item resolved against the input relation: either a
// star copying the column range [from, upto) or an expression to evaluate.
// Shared by the closure and batch projection sinks so output names and star
// expansion cannot diverge between them.
type projSpec struct {
	expr sqlparser.Expr
	star bool
	from int
	upto int
}

// buildProjSpecs expands the select list against rel's columns, producing
// the output column names and per-item specs.
func buildProjSpecs(stmt *sqlparser.SelectStmt, rel *relation) ([]string, []projSpec, error) {
	var names []string
	var specs []projSpec
	for i, item := range stmt.Columns {
		switch {
		case item.Star:
			for _, c := range rel.cols {
				names = append(names, c.name)
			}
			specs = append(specs, projSpec{star: true, from: 0, upto: len(rel.cols)})
		case item.TableStar != "":
			qual := strings.ToLower(item.TableStar)
			start := -1
			end := -1
			for ci, c := range rel.cols {
				if c.qual == qual {
					if start < 0 {
						start = ci
					}
					end = ci + 1
					names = append(names, c.name)
				}
			}
			if start < 0 {
				return nil, nil, fmt.Errorf("engine: unknown table alias %q in %s.*",
					item.TableStar, item.TableStar)
			}
			specs = append(specs, projSpec{star: true, from: start, upto: end})
		default:
			names = append(names, outputName(item, i))
			specs = append(specs, projSpec{expr: item.Expr})
		}
	}
	return names, specs, nil
}

// batchSortKey is one compiled ORDER BY key for the batch projection:
// positional and output-alias references become output-row index lookups
// (checked positionals keep the row path's out-of-range error), everything
// else a batch kernel over the input relation.
type batchSortKey struct {
	pos   int   // output-row index when eval is nil
	want  int64 // 1-based positional literal, for the error message
	check bool  // positional literal: range-check against the output width
	eval  batchExpr
}

// compileBatchSortKeys mirrors compileSortKeys for the batch path.
func compileBatchSortKeys(rel *relation, ctx *execContext, orderBy []sqlparser.OrderItem, outCols []string) []batchSortKey {
	keys := make([]batchSortKey, len(orderBy))
	for i, item := range orderBy {
		if lit, ok := item.Expr.(*sqlparser.IntLit); ok {
			keys[i] = batchSortKey{pos: int(lit.Value) - 1, want: lit.Value, check: true}
			continue
		}
		if ref, ok := item.Expr.(*sqlparser.ColumnRef); ok && ref.Table == "" {
			found := -1
			for ci, name := range outCols {
				if strings.EqualFold(name, ref.Name) {
					found = ci
					break
				}
			}
			if found >= 0 {
				keys[i] = batchSortKey{pos: found}
				continue
			}
		}
		keys[i] = batchSortKey{eval: compileBatchExpr(rel, ctx, item.Expr)}
	}
	return keys
}

// projectionPure reports whether a non-aggregated SELECT body's per-row
// expressions (select list and ORDER BY keys) are all subquery-free, making
// the compiled projection closures safe to share across workers.
func projectionPure(stmt *sqlparser.SelectStmt) bool {
	for _, item := range stmt.Columns {
		if item.Expr != nil && !exprPure(item.Expr) {
			return false
		}
	}
	for _, item := range stmt.OrderBy {
		if !exprPure(item.Expr) {
			return false
		}
	}
	return true
}

// projectionBatchWorthwhile reports whether the select list or sort keys
// contain computed expressions that batch kernels can actually accelerate.
// A projection of bare columns (SELECT a, b, *) only copies values; routing
// it through vectors would gather row-major data into slabs and immediately
// materialize rows back out — pure overhead — so those stay on the scalar
// path.
func projectionBatchWorthwhile(stmt *sqlparser.SelectStmt) bool {
	computed := func(e sqlparser.Expr) bool {
		switch e.(type) {
		case *sqlparser.ColumnRef, *sqlparser.IntLit:
			return false
		}
		return true
	}
	for _, item := range stmt.Columns {
		if item.Expr != nil && computed(item.Expr) {
			return true
		}
	}
	for _, item := range stmt.OrderBy {
		if computed(item.Expr) {
			return true
		}
	}
	return false
}

// sortKeyFn computes one ORDER BY key for a row, given both the input row
// and the projected output row (positional and alias references resolve
// against the output, everything else against the input).
type sortKeyFn func(row, outRow []Value) (Value, error)

// compileSortKeys binds each ORDER BY item once: positional references and
// output-alias references become index lookups into the output row, and all
// other expressions compile against the input relation.
func compileSortKeys(rel *relation, ctx *execContext, orderBy []sqlparser.OrderItem, outCols []string) ([]sortKeyFn, error) {
	fns := make([]sortKeyFn, len(orderBy))
	for i, item := range orderBy {
		// Positional reference: ORDER BY 2.
		if lit, ok := item.Expr.(*sqlparser.IntLit); ok {
			pos := int(lit.Value) - 1
			want := lit.Value
			fns[i] = func(_, outRow []Value) (Value, error) {
				if pos < 0 || pos >= len(outRow) {
					return Null, fmt.Errorf("engine: ORDER BY position %d out of range", want)
				}
				return outRow[pos], nil
			}
			continue
		}
		// Output alias reference.
		if ref, ok := item.Expr.(*sqlparser.ColumnRef); ok && ref.Table == "" {
			found := -1
			for ci, name := range outCols {
				if strings.EqualFold(name, ref.Name) {
					found = ci
					break
				}
			}
			if found >= 0 {
				ci := found
				fns[i] = func(_, outRow []Value) (Value, error) { return outRow[ci], nil }
				continue
			}
		}
		fn, err := compileExpr(rel, ctx, item.Expr)
		if err != nil {
			return nil, err
		}
		fns[i] = func(row, _ []Value) (Value, error) { return fn(row) }
	}
	return fns, nil
}

// evalSortKey computes ORDER BY key values for one output row from output
// aliases and positions alone (the post-set-operation case); any other
// expression is an error there.
func evalSortKey(orderBy []sqlparser.OrderItem, out *ResultSet, outRow []Value) ([]Value, error) {
	key := make([]Value, len(orderBy))
	for i, item := range orderBy {
		// Positional reference: ORDER BY 2.
		if lit, ok := item.Expr.(*sqlparser.IntLit); ok {
			pos := int(lit.Value) - 1
			if pos < 0 || pos >= len(outRow) {
				return nil, fmt.Errorf("engine: ORDER BY position %d out of range", lit.Value)
			}
			key[i] = outRow[pos]
			continue
		}
		// Output alias reference.
		if ref, ok := item.Expr.(*sqlparser.ColumnRef); ok && ref.Table == "" {
			found := false
			for ci, name := range out.Columns {
				if strings.EqualFold(name, ref.Name) {
					key[i] = outRow[ci]
					found = true
					break
				}
			}
			if found {
				continue
			}
		}
		return nil, fmt.Errorf("engine: ORDER BY expression %s not resolvable after set operation",
			sqlparser.PrintExpr(item.Expr))
	}
	return key, nil
}

func sortResult(ctx *execContext, out *ResultSet, orderBy []sqlparser.OrderItem, sortKeys [][]Value) error {
	if sortKeys == nil {
		// Resolve against output columns/positions only (post-set-op case, or
		// aggregate path fallbacks).
		sortKeys = make([][]Value, len(out.Rows))
		for i, row := range out.Rows {
			if ctx != nil && i%ctx.morsel == 0 {
				if err := ctx.err(); err != nil {
					return err
				}
			}
			key, err := evalSortKey(orderBy, out, row)
			if err != nil {
				return err
			}
			sortKeys[i] = key
		}
	}
	// Enabled is checked first so the disabled (default) path never pays
	// the O(rows) size estimation.
	if ctx != nil && ctx.spill.Enabled() &&
		ctx.spill.ShouldSpill(estRowsBytes(out.Rows)+estRowsBytes(sortKeys)) {
		sorted, err := ctx.externalSort(out, orderBy, sortKeys)
		if err != nil {
			return err
		}
		if sorted {
			return nil
		}
	}
	// Large inputs with real parallelism available sort as parallel runs plus
	// a fan-in merge — bit-identical to the stable sort below because the
	// run/merge order carries the original index as a tiebreak (extsort.go).
	if ctx != nil && ctx.workers > 1 && len(out.Rows) >= parallelSortMin {
		return ctx.sortRowsParallel(out, orderBy, sortKeys)
	}
	idx := make([]int, len(out.Rows))
	for i := range idx {
		idx[i] = i
	}
	// compareOrd (not Compare) keeps this comparator a total preorder even
	// over NaN keys, which makes the stable sort's output comparator-defined
	// rather than algorithm-defined — the property the external sort's
	// bit-identical guarantee rests on (see extsort.go).
	sort.SliceStable(idx, func(a, b int) bool {
		ka, kb := sortKeys[idx[a]], sortKeys[idx[b]]
		for i := range orderBy {
			c := compareOrd(ka[i], kb[i])
			if orderBy[i].Desc {
				c = -c
			}
			if c != 0 {
				return c < 0
			}
		}
		return false
	})
	sorted := make([][]Value, len(out.Rows))
	for i, j := range idx {
		sorted[i] = out.Rows[j]
	}
	out.Rows = sorted
	return nil
}

func applyLimitOffset(out *ResultSet, stmt *sqlparser.SelectStmt, ctx *execContext) error {
	evalInt := func(e sqlparser.Expr) (int, error) {
		fn, err := compileExpr(&relation{}, ctx, e)
		if err != nil {
			return 0, err
		}
		v, err := fn(nil)
		if err != nil {
			return 0, err
		}
		if v.Kind != KindInt {
			return 0, fmt.Errorf("engine: LIMIT/OFFSET must be integer, got %s", v.Kind)
		}
		return int(v.Int), nil
	}
	if stmt.Offset != nil {
		off, err := evalInt(stmt.Offset)
		if err != nil {
			return err
		}
		if off < 0 {
			off = 0
		}
		if off > len(out.Rows) {
			off = len(out.Rows)
		}
		out.Rows = out.Rows[off:]
	}
	if stmt.Limit != nil {
		lim, err := evalInt(stmt.Limit)
		if err != nil {
			return err
		}
		if lim < 0 {
			lim = 0
		}
		if lim < len(out.Rows) {
			out.Rows = out.Rows[:lim]
		}
	}
	return nil
}

// dedupeRows removes duplicate output rows, keeping each row's first
// occurrence in input order. The seen set grows with the number of
// distinct rows, so when the input's estimated footprint exceeds the
// memory budget the dedup runs partitioned out-of-core (aggspill.go) —
// bit-identical by construction.
func (ctx *execContext) dedupeRows(out *ResultSet, sortKeys [][]Value) (*ResultSet, [][]Value, error) {
	ctx.pstats.breaker(0) // key-set state over the full output
	if ctx.spill.Enabled() && ctx.spill.ShouldSpill(estRowsBytes(out.Rows)) {
		return ctx.dedupeRowsSpilled(out, sortKeys)
	}
	seen := make(map[string]bool, len(out.Rows))
	var rows [][]Value
	var keys [][]Value
	var scratch []byte
	for i, row := range out.Rows {
		if i%ctx.morsel == 0 {
			if err := ctx.err(); err != nil {
				return nil, nil, err
			}
		}
		scratch = AppendRowKey(scratch[:0], row)
		if seen[string(scratch)] {
			continue
		}
		seen[string(scratch)] = true
		rows = append(rows, row)
		if sortKeys != nil {
			keys = append(keys, sortKeys[i])
		}
	}
	out.Rows = rows
	if sortKeys == nil {
		return out, nil, nil
	}
	return out, keys, nil
}

// setOpKeep decides whether one left row survives an INTERSECT or EXCEPT,
// given the right side's remaining multiplicities and (for the DISTINCT
// forms) the keys already emitted. It mutates counts/seen, so callers must
// present a key's occurrences in left-row order:
//
//	INTERSECT ALL  — keep min(l, r) copies: consume one right multiplicity
//	                 per kept row.
//	INTERSECT      — keep the first occurrence of keys present in right.
//	EXCEPT ALL     — keep max(l-r, 0) copies: each right multiplicity
//	                 cancels one left occurrence, earliest first.
//	EXCEPT         — keep the first occurrence of keys absent from right.
//
// Shared by the in-memory loop below and the per-partition loop of the
// spilled path (aggspill.go), which is what keeps the two bit-identical.
func setOpKeep(kind sqlparser.SetOpKind, all bool, key string, counts map[string]int, seen map[string]bool) bool {
	switch kind {
	case sqlparser.SetIntersect:
		if all {
			if counts[key] > 0 {
				counts[key]--
				return true
			}
			return false
		}
		if counts[key] > 0 && !seen[key] {
			seen[key] = true
			return true
		}
	case sqlparser.SetExcept:
		if all {
			if counts[key] > 0 {
				counts[key]--
				return false
			}
			return true
		}
		if counts[key] == 0 && !seen[key] {
			seen[key] = true
			return true
		}
	}
	return false
}

// applySetOp evaluates one set operation. UNION concatenates (deduping
// through the budget-aware dedupeRows unless ALL); INTERSECT and EXCEPT
// run the multiset arithmetic of setOpKeep over right-side multiplicity
// counts, out-of-core when the two sides' key state would exceed the
// memory budget.
func (ctx *execContext) applySetOp(left, right *ResultSet, kind sqlparser.SetOpKind, all bool) (*ResultSet, error) {
	if kind == sqlparser.SetUnion {
		out := &ResultSet{Columns: left.Columns,
			Rows: append(append([][]Value{}, left.Rows...), right.Rows...)}
		if !all {
			var err error
			out, _, err = ctx.dedupeRows(out, nil)
			if err != nil {
				return nil, err
			}
		}
		return out, nil
	}
	ctx.pstats.breaker(0) // right-side multiplicity state
	if ctx.spill.Enabled() &&
		ctx.spill.ShouldSpill(estRowsBytes(left.Rows)+estRowsBytes(right.Rows)) {
		return ctx.setOpSpilled(left, right, kind, all)
	}
	counts := make(map[string]int, len(right.Rows))
	var scratch []byte
	for i, r := range right.Rows {
		if i%ctx.morsel == 0 {
			if err := ctx.err(); err != nil {
				return nil, err
			}
		}
		scratch = AppendRowKey(scratch[:0], r)
		counts[string(scratch)]++
	}
	var seen map[string]bool
	if !all {
		seen = make(map[string]bool, len(left.Rows))
	}
	out := &ResultSet{Columns: left.Columns}
	for i, r := range left.Rows {
		if i%ctx.morsel == 0 {
			if err := ctx.err(); err != nil {
				return nil, err
			}
		}
		scratch = AppendRowKey(scratch[:0], r)
		if setOpKeep(kind, all, string(scratch), counts, seen) {
			out.Rows = append(out.Rows, r)
		}
	}
	return out, nil
}
