package engine

import (
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"

	"flexdp/internal/spill"
)

// Column describes one table column.
type Column struct {
	Name string
	Type Kind // declared kind; rows may hold NULLs of any column
}

// Schema is an ordered list of columns.
type Schema struct {
	Columns []Column
}

// Index returns the position of the named column, or -1.
func (s Schema) Index(name string) int {
	for i, c := range s.Columns {
		if strings.EqualFold(c.Name, name) {
			return i
		}
	}
	return -1
}

// Names returns the column names in order.
func (s Schema) Names() []string {
	names := make([]string, len(s.Columns))
	for i, c := range s.Columns {
		names[i] = c.Name
	}
	return names
}

// CheckRange is a column check constraint bounding permitted numeric values
// (the enforcement mechanism the paper's Section 3.7.2 requires for the
// value-range metric to be sound).
type CheckRange struct {
	Column   string
	Min, Max float64
}

// Table is an in-memory table: a schema plus a multiset of rows.
type Table struct {
	Name   string
	Schema Schema
	Rows   [][]Value
	Checks []CheckRange
}

// NumRows returns the row count.
func (t *Table) NumRows() int { return len(t.Rows) }

// DB is an in-memory multi-table database. All methods are safe for
// concurrent use.
type DB struct {
	mu      sync.RWMutex
	tables  map[string]*Table
	version uint64 // bumped on every mutation (insert/create/drop)

	// cfg holds the execution defaults (worker count, morsel size,
	// vectorization, memory budget, spill placement). Every execution
	// snapshots it once at entry, so a knob changed mid-query applies to the
	// next execution, never a running one. The legacy Set* methods below are
	// thin wrappers mutating individual fields; SetExecConfig replaces it
	// wholesale.
	cfg ExecConfig

	// spillMu guards spillTotals, the cumulative spill metrics folded in
	// from every finished query's manager.
	spillMu     sync.Mutex
	spillTotals spill.Stats
}

// SetMemoryBudget bounds each query's operator state to n bytes; operators
// that would exceed it (hash-join builds, ORDER BY buffers, grouped
// aggregation, DISTINCT/set-operation key sets) spill to disk
// and continue out-of-core. n <= 0 restores the default of unbounded
// memory. Query results do not depend on this setting — the spill paths
// reproduce the in-memory operators' output bit for bit (see DESIGN.md,
// "Out-of-core execution") — so it may be changed at any time, including
// between executions of a prepared query. Thin wrapper over SetExecConfig.
func (db *DB) SetMemoryBudget(n int64) {
	if n < 0 {
		n = 0
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	db.cfg.MemoryBudget = n
}

// MemoryBudget returns the per-query operator-state budget in bytes
// (0 = unbounded).
func (db *DB) MemoryBudget() int64 {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.cfg.MemoryBudget
}

// SetTempDir sets the directory spill files are created in ("" restores
// os.TempDir()). Thin wrapper over SetExecConfig.
func (db *DB) SetTempDir(dir string) {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.cfg.TempDir = dir
}

// TempDir returns the spill-file directory ("" = os.TempDir()).
func (db *DB) TempDir() string {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.cfg.TempDir
}

// SetSpillFS substitutes the filesystem used for spill files (nil restores
// the real one). Fault-injection tests install a spill.FaultFS here; like
// the other execution knobs it never changes query results, only how their
// IO can fail. Thin wrapper over SetExecConfig.
func (db *DB) SetSpillFS(fs spill.FS) {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.cfg.SpillFS = fs
}

// finishSpill retires a query's spill manager: its metrics fold into the
// database totals and any temp files it still owns are removed. Safe on a
// nil manager.
func (db *DB) finishSpill(m *spill.Manager) {
	if m == nil {
		return
	}
	st := m.Stats()
	m.Cleanup()
	db.spillMu.Lock()
	db.spillTotals.Add(st)
	db.spillMu.Unlock()
}

// notePipeline folds one execution's streaming-dataflow metrics (peak
// in-flight morsel bytes, pipeline-breaker materializations) into the
// database totals. The pipeline stats live outside the spill manager — they
// are meaningful with no budget configured, when the manager is nil — but
// they surface through the same SpillStats aggregate.
func (db *DB) notePipeline(ps *pipeStats) {
	if ps == nil {
		return
	}
	st := spill.Stats{
		PeakMorselBytes:         ps.peak.Load(),
		BreakerMaterializations: ps.breakers.Load(),
	}
	db.spillMu.Lock()
	db.spillTotals.Add(st)
	db.spillMu.Unlock()
}

// SpillStats returns cumulative out-of-core execution metrics across all
// queries run against this database.
func (db *DB) SpillStats() spill.Stats {
	db.spillMu.Lock()
	defer db.spillMu.Unlock()
	return db.spillTotals
}

// SetParallelism bounds the number of worker goroutines a single query may
// use; n <= 0 restores the default of one worker per CPU. Query results do
// not depend on this setting (see DESIGN.md, "Parallel execution &
// determinism"), so it may be changed at any time, including between
// executions of a prepared query. Thin wrapper over SetExecConfig.
func (db *DB) SetParallelism(n int) {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.cfg.Parallelism = n
}

// Parallelism returns the effective per-query worker bound.
func (db *DB) Parallelism() int {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.cfg.workers()
}

// SetMorselSize overrides the executor's chunk size in rows (n <= 0 restores
// DefaultMorselSize). Like SetParallelism it never changes results; tests
// use small sizes to force multi-morsel execution on small tables. Thin
// wrapper over SetExecConfig.
func (db *DB) SetMorselSize(n int) {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.cfg.MorselSize = n
}

// MorselSize returns the effective executor chunk size.
func (db *DB) MorselSize() int {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.cfg.morsel()
}

// MorselSizeFor returns the morsel size the executor will use for inputs of
// the given column width: the pinned size when SetMorselSize set one, the
// adaptive bytes-per-morsel-derived size otherwise. Exposed so benchmarking
// and instrumentation can report the granularity actually in effect.
func (db *DB) MorselSizeFor(width int) int {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.cfg.morselFor(width)
}

// Version returns a counter that increases on every mutation; consumers
// (like FLEX's metrics store) use it to detect staleness, playing the role
// of the update triggers the paper suggests for metric maintenance.
func (db *DB) Version() uint64 {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.version
}

// MemoryBudgetEnv, when set (e.g. "64KiB"), gives every new DB that byte
// budget by default. It exists so CI can run the whole engine test suite
// with spilling forced on — the differential guarantee says nothing may
// change — without touching each test; unparsable values are ignored.
const MemoryBudgetEnv = "FLEX_TEST_MEMORY_BUDGET"

// NewDB returns an empty database.
func NewDB() *DB {
	db := &DB{tables: make(map[string]*Table)}
	//flexlint:ignore nondet test-only default-budget hook (FLEX_TEST_MEMORY_BUDGET), read once at DB construction, never on an execution path
	if env := os.Getenv(MemoryBudgetEnv); env != "" {
		if n, err := spill.ParseBytes(env); err == nil {
			db.cfg.MemoryBudget = n
		}
	}
	return db
}

// CreateTable registers a new table with the given schema. It returns an
// error if a table with the same (case-insensitive) name exists.
func (db *DB) CreateTable(name string, cols []Column) (*Table, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	key := strings.ToLower(name)
	if _, ok := db.tables[key]; ok {
		return nil, fmt.Errorf("engine: table %q already exists", name)
	}
	t := &Table{Name: name, Schema: Schema{Columns: cols}}
	db.tables[key] = t
	db.version++
	return t, nil
}

// MustCreateTable is CreateTable that panics on error, for test and
// generator setup code.
func (db *DB) MustCreateTable(name string, cols []Column) *Table {
	t, err := db.CreateTable(name, cols)
	if err != nil {
		panic(err)
	}
	return t
}

// DropTable removes the named table; missing tables are ignored.
func (db *DB) DropTable(name string) {
	db.mu.Lock()
	defer db.mu.Unlock()
	delete(db.tables, strings.ToLower(name))
	db.version++
}

// AddCheckRange installs a check constraint on a numeric column: future
// inserts with values outside [min, max] are rejected, and existing rows are
// validated immediately. This is the paper's suggested enforcement of the
// value-range metric (Section 3.7.2).
func (db *DB) AddCheckRange(table, column string, min, max float64) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	t, ok := db.tables[strings.ToLower(table)]
	if !ok {
		return fmt.Errorf("engine: unknown table %q", table)
	}
	ci := t.Schema.Index(column)
	if ci < 0 {
		return fmt.Errorf("engine: table %q has no column %q", table, column)
	}
	if min > max {
		return fmt.Errorf("engine: check range min %g > max %g", min, max)
	}
	check := CheckRange{Column: t.Schema.Columns[ci].Name, Min: min, Max: max}
	for ri, row := range t.Rows {
		if err := checkValue(check, row[ci], table, ri); err != nil {
			return err
		}
	}
	t.Checks = append(t.Checks, check)
	return nil
}

func checkValue(c CheckRange, v Value, table string, row int) error {
	if v.IsNull() || (v.Kind != KindInt && v.Kind != KindFloat) {
		return nil
	}
	f := v.AsFloat()
	if f < c.Min || f > c.Max {
		return fmt.Errorf("engine: check constraint violated: %s.%s value %g outside [%g, %g] (row %d)",
			table, c.Column, f, c.Min, c.Max, row)
	}
	return nil
}

// Insert appends a row to the named table, checking arity and any check
// constraints.
func (db *DB) Insert(name string, row []Value) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	t, ok := db.tables[strings.ToLower(name)]
	if !ok {
		return fmt.Errorf("engine: unknown table %q", name)
	}
	if len(row) != len(t.Schema.Columns) {
		return fmt.Errorf("engine: table %q expects %d values, got %d",
			name, len(t.Schema.Columns), len(row))
	}
	for _, c := range t.Checks {
		ci := t.Schema.Index(c.Column)
		if ci >= 0 {
			if err := checkValue(c, row[ci], name, len(t.Rows)); err != nil {
				return err
			}
		}
	}
	t.Rows = append(t.Rows, row)
	db.version++
	return nil
}

// InsertRows appends many rows, checking arity and constraints for each.
// Unlike repeated Insert calls it takes the table lock once and copies the
// rows into morsel-aligned value slabs: each chunk of DefaultMorselSize rows
// shares one contiguous backing array, so the parallel executor's morsels
// scan cache-adjacent memory and n rows cost n/DefaultMorselSize allocations
// instead of n. On error, rows preceding the offending one remain inserted
// (matching the loop-of-Insert behavior this replaces).
func (db *DB) InsertRows(name string, rows [][]Value) error {
	if len(rows) == 0 {
		return nil
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	t, ok := db.tables[strings.ToLower(name)]
	if !ok {
		return fmt.Errorf("engine: unknown table %q", name)
	}
	width := len(t.Schema.Columns)
	var slab []Value
	inserted := false
	defer func() {
		if inserted {
			db.version++
		}
	}()
	for _, r := range rows {
		if len(r) != width {
			return fmt.Errorf("engine: table %q expects %d values, got %d",
				name, width, len(r))
		}
		for _, c := range t.Checks {
			ci := t.Schema.Index(c.Column)
			if ci >= 0 {
				if err := checkValue(c, r[ci], name, len(t.Rows)); err != nil {
					return err
				}
			}
		}
		if len(slab)+width > cap(slab) {
			slab = make([]Value, 0, DefaultMorselSize*width)
		}
		off := len(slab)
		slab = append(slab, r...)
		t.Rows = append(t.Rows, slab[off:len(slab):len(slab)])
		inserted = true
	}
	return nil
}

// Table returns the named table, or nil if absent.
func (db *DB) Table(name string) *Table {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.tables[strings.ToLower(name)]
}

// TableNames returns the sorted list of table names.
func (db *DB) TableNames() []string {
	db.mu.RLock()
	defer db.mu.RUnlock()
	names := make([]string, 0, len(db.tables))
	for _, t := range db.tables {
		names = append(names, t.Name)
	}
	sort.Strings(names)
	return names
}

// TotalRows returns the number of tuples across all tables — the database
// size n used by the smooth-sensitivity parameter δ = n^(−ln n) and the
// distance bound in Definition 7.
func (db *DB) TotalRows() int {
	db.mu.RLock()
	defer db.mu.RUnlock()
	n := 0
	//flexlint:ordered integer sum over all tables is commutative; no order reaches the output
	for _, t := range db.tables {
		n += len(t.Rows)
	}
	return n
}

// ResultSet is the output of executing a query.
type ResultSet struct {
	Columns []string
	Rows    [][]Value
}

// Scalar returns the single value of a 1×1 result set.
func (r *ResultSet) Scalar() (Value, error) {
	if len(r.Rows) != 1 || len(r.Rows[0]) != 1 {
		return Null, fmt.Errorf("engine: result is %dx%d, not scalar",
			len(r.Rows), len(r.Columns))
	}
	return r.Rows[0][0], nil
}
