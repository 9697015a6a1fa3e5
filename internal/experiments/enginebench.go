package experiments

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"time"

	"flexdp/internal/engine"
	"flexdp/internal/sqlparser"
)

// Engine throughput experiment: measures the morsel-driven parallel
// executor against the serial path on a large synthetic table, covering the
// scan/filter, grouped-aggregation, and hash-join hot paths. The resulting
// section in BENCH_<date>.json tracks raw engine throughput across commits
// alongside the paper-figure experiments, and doubles as a determinism
// check: serial and parallel results are compared row by row.

// EngineBenchQuery is one query's timing across worker settings: serial
// (one worker) and parallel (one worker per CPU).
type EngineBenchQuery struct {
	Name       string  `json:"name"`
	SQL        string  `json:"sql"`
	SerialMS   float64 `json:"serial_ms"`
	ParallelMS float64 `json:"parallel_ms"`
	Speedup    float64 `json:"speedup"`
	// Identical reports whether the serial, parallel, and profiled
	// results were all bit-identical (it must always be true; recorded so a
	// regression is visible in the benchmark artifact, not just in tests).
	Identical bool `json:"identical"`
	// Profile is the execution trace of one profiled parallel run — per
	// operator rows/morsels/wall time and the query's spill activity — so
	// BENCH_<date>.json records where each benchmark query spent its time,
	// not just the total.
	Profile *engine.QueryProfile `json:"profile,omitempty"`
}

// EngineBenchResult is the "engine" section of the benchmark record.
type EngineBenchResult struct {
	Rows    int `json:"rows"`
	Workers int `json:"workers"`
	// MorselSize is the adaptive morsel granularity in effect for the
	// five-column trips table (the executor derives it from row width
	// unless a size is pinned).
	MorselSize int                `json:"morsel_size"`
	Queries    []EngineBenchQuery `json:"queries"`
}

// String renders the paper-style rows.
func (r EngineBenchResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Engine executor (%d rows, %d workers, morsel %d)\n", r.Rows, r.Workers, r.MorselSize)
	fmt.Fprintf(&b, "%-28s %10s %12s %7s %5s\n",
		"query", "serial ms", "parallel ms", "par", "same")
	for _, q := range r.Queries {
		fmt.Fprintf(&b, "%-28s %10.2f %12.2f %6.2fx %5v\n",
			q.Name, q.SerialMS, q.ParallelMS, q.Speedup, q.Identical)
	}
	return strings.TrimRight(b.String(), "\n")
}

// engineBenchDB builds the synthetic trips/drivers tables used by the
// engine benchmarks (same shape as the rideshare workload).
func engineBenchDB(seed int64, n int) *engine.DB {
	rng := rand.New(rand.NewSource(seed))
	db := engine.NewDB()
	db.MustCreateTable("trips", []engine.Column{
		{Name: "id", Type: engine.KindInt},
		{Name: "driver_id", Type: engine.KindInt},
		{Name: "city_id", Type: engine.KindInt},
		{Name: "fare", Type: engine.KindFloat},
		{Name: "status", Type: engine.KindString},
	})
	statuses := []string{"completed", "canceled", "requested"}
	trips := make([][]engine.Value, n)
	for i := 0; i < n; i++ {
		trips[i] = []engine.Value{
			engine.NewInt(int64(i)),
			engine.NewInt(int64(rng.Intn(n/10 + 1))),
			engine.NewInt(int64(rng.Intn(20))),
			engine.NewFloat(rng.Float64() * 100),
			engine.NewString(statuses[rng.Intn(3)]),
		}
	}
	if err := db.InsertRows("trips", trips); err != nil {
		panic(err)
	}
	db.MustCreateTable("drivers", []engine.Column{
		{Name: "id", Type: engine.KindInt},
		{Name: "home_city", Type: engine.KindInt},
	})
	nd := n/10 + 1
	drivers := make([][]engine.Value, nd)
	for i := 0; i < nd; i++ {
		drivers[i] = []engine.Value{
			engine.NewInt(int64(i)),
			engine.NewInt(int64(rng.Intn(20))),
		}
	}
	if err := db.InsertRows("drivers", drivers); err != nil {
		panic(err)
	}
	return db
}

// RunEngineParallel times the engine's hot paths at one worker and at one
// worker per CPU, taking the best of reps runs for each.
func RunEngineParallel(seed int64, rows, reps int) EngineBenchResult {
	db := engineBenchDB(seed, rows)
	defer db.SetParallelism(0)
	queries := []struct{ name, sql string }{
		{"scan_filter", `SELECT id, fare * 1.1 FROM trips
			WHERE status = 'completed' AND fare > 10.0 AND city_id < 15`},
		{"group_aggregate", `SELECT city_id, COUNT(*), SUM(fare), AVG(fare), MIN(fare), MAX(fare)
			FROM trips WHERE status <> 'requested' GROUP BY city_id`},
		{"hash_join", `SELECT COUNT(*) FROM trips t JOIN drivers d ON t.driver_id = d.id
			WHERE t.city_id = d.home_city`},
	}
	res := EngineBenchResult{
		Rows:       rows,
		Workers:    db.Parallelism(),
		MorselSize: db.MorselSizeFor(5), // trips is five columns wide
	}
	for _, q := range queries {
		db.SetParallelism(1)
		serial, serialMS := timeQuery(db, q.sql, reps)
		db.SetParallelism(0)
		parallel, parallelMS := timeQuery(db, q.sql, reps)
		profiled, prof := profileQuery(db, q.sql)
		res.Queries = append(res.Queries, EngineBenchQuery{
			Name:       q.name,
			SQL:        q.sql,
			SerialMS:   serialMS,
			ParallelMS: parallelMS,
			Speedup:    serialMS / parallelMS,
			Identical: resultSetsIdentical(serial, parallel) &&
				resultSetsIdentical(parallel, profiled),
			Profile: prof,
		})
	}
	return res
}

// timeQuery runs sql reps times and returns the last result with the best
// wall time in milliseconds.
func timeQuery(db *engine.DB, sql string, reps int) (*engine.ResultSet, float64) {
	if reps < 1 {
		reps = 1
	}
	var best time.Duration
	var rs *engine.ResultSet
	for i := 0; i < reps; i++ {
		start := time.Now()
		out, err := db.Query(sql)
		if err != nil {
			panic(fmt.Sprintf("engine bench %q: %v", sql, err))
		}
		elapsed := time.Since(start)
		if rs == nil || elapsed < best {
			best = elapsed
		}
		rs = out
	}
	return rs, float64(best.Microseconds()) / 1000
}

// profileQuery runs sql once with an execution trace attached, under the
// database's current settings, and returns both the result (for the
// determinism cross-check) and the profile for the benchmark artifact.
func profileQuery(db *engine.DB, sql string) (*engine.ResultSet, *engine.QueryProfile) {
	stmt, err := sqlparser.Parse(sql)
	if err != nil {
		panic(fmt.Sprintf("engine bench %q: %v", sql, err))
	}
	cfg := db.ExecConfig()
	prof := new(engine.QueryProfile)
	cfg.Profile = prof
	rs, err := db.ExecuteContextConfig(context.Background(), stmt, cfg)
	if err != nil {
		panic(fmt.Sprintf("engine bench %q: %v", sql, err))
	}
	return rs, prof
}

// resultSetsIdentical compares two result sets via the injective row-key
// encoding (order-sensitive, so it also checks row order).
func resultSetsIdentical(a, b *engine.ResultSet) bool {
	if len(a.Columns) != len(b.Columns) || len(a.Rows) != len(b.Rows) {
		return false
	}
	for i := range a.Rows {
		if engine.RowKey(a.Rows[i]) != engine.RowKey(b.Rows[i]) {
			return false
		}
	}
	return true
}
