package engine

import (
	"fmt"
	"testing"
)

// Engine micro-benchmarks: these isolate the hot execution paths (filter,
// hash join, grouped aggregation) from the paper-figure benchmarks in the
// repository root, so engine-level regressions are visible on their own.
// See DESIGN.md's experiment index for the mapping from benchmarks to
// paper figures.

// benchDB builds a synthetic two-table database with n trip rows and n/10
// driver rows, mirroring the shape of the rideshare workload.
func benchDB(b *testing.B, n int) *DB {
	b.Helper()
	db := NewDB()
	db.MustCreateTable("trips", []Column{
		{Name: "id", Type: KindInt},
		{Name: "driver_id", Type: KindInt},
		{Name: "city_id", Type: KindInt},
		{Name: "fare", Type: KindFloat},
		{Name: "status", Type: KindString},
	})
	statuses := []string{"completed", "canceled", "requested"}
	trips := make([][]Value, n)
	for i := 0; i < n; i++ {
		trips[i] = []Value{
			NewInt(int64(i)),
			NewInt(int64(i % (n / 10))),
			NewInt(int64(i % 20)),
			NewFloat(float64(i%97) + 0.5),
			NewString(statuses[i%3]),
		}
	}
	if err := db.InsertRows("trips", trips); err != nil {
		b.Fatal(err)
	}
	db.MustCreateTable("drivers", []Column{
		{Name: "id", Type: KindInt},
		{Name: "name", Type: KindString},
		{Name: "home_city", Type: KindInt},
	})
	drivers := make([][]Value, n/10)
	for i := 0; i < n/10; i++ {
		drivers[i] = []Value{
			NewInt(int64(i)),
			NewString(fmt.Sprintf("driver%d", i)),
			NewInt(int64(i % 20)),
		}
	}
	if err := db.InsertRows("drivers", drivers); err != nil {
		b.Fatal(err)
	}
	return db
}

func benchQuery(b *testing.B, db *DB, sql string) {
	b.Helper()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Query(sql); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWhereFilter measures the per-row predicate evaluation path: a
// compound WHERE over 100k rows with arithmetic, comparison, and string
// equality.
func BenchmarkWhereFilter(b *testing.B) {
	db := benchDB(b, 100000)
	benchQuery(b, db,
		`SELECT id, fare FROM trips
		 WHERE status = 'completed' AND fare > 10.0 AND city_id < 15 AND fare * 2 < 150`)
}

// BenchmarkHashJoin measures the equijoin build/probe path plus a residual
// predicate over the combined row, at 50k x 5k rows.
func BenchmarkHashJoin(b *testing.B) {
	db := benchDB(b, 50000)
	benchQuery(b, db,
		`SELECT COUNT(*) FROM trips t JOIN drivers d ON t.driver_id = d.id
		 WHERE t.city_id = d.home_city`)
}

// BenchmarkGroupByAggregate measures group partitioning and aggregate-input
// evaluation: a keyed COUNT/SUM/AVG over 100k rows into 20 groups.
func BenchmarkGroupByAggregate(b *testing.B) {
	db := benchDB(b, 100000)
	benchQuery(b, db,
		`SELECT city_id, COUNT(*), SUM(fare), AVG(fare) FROM trips
		 WHERE status <> 'requested' GROUP BY city_id`)
}

// BenchmarkProjection measures scalar expression projection without
// aggregation over 100k rows.
func BenchmarkProjection(b *testing.B) {
	db := benchDB(b, 100000)
	benchQuery(b, db,
		`SELECT id, fare * 1.1 + 2.0, UPPER(status) FROM trips WHERE city_id < 10`)
}

// BenchmarkDistinct measures row keying/dedupe over 100k rows.
func BenchmarkDistinct(b *testing.B) {
	db := benchDB(b, 100000)
	benchQuery(b, db, `SELECT DISTINCT driver_id, city_id FROM trips`)
}

// benchVector runs one query at one worker, so the sub-benchmark isolates
// the batch kernels from parallel speedup.
func benchVector(b *testing.B, db *DB, sql string) {
	b.Helper()
	defer db.SetParallelism(0)
	db.SetParallelism(1)
	b.Run("vector", func(b *testing.B) { benchQuery(b, db, sql) })
}

// BenchmarkVectorFilter measures the vectorized WHERE (selection vectors,
// typed comparison/logical kernels) on the compound predicate of
// BenchmarkWhereFilter.
func BenchmarkVectorFilter(b *testing.B) {
	db := benchDB(b, 100000)
	benchVector(b, db,
		`SELECT id, fare FROM trips
		 WHERE status = 'completed' AND fare > 10.0 AND city_id < 15 AND fare * 2 < 150`)
}

// BenchmarkVectorProject measures the vectorized projection (arithmetic
// kernels into output slabs) on an expression-heavy select list.
func BenchmarkVectorProject(b *testing.B) {
	db := benchDB(b, 100000)
	benchVector(b, db,
		`SELECT id, fare * 1.1 + 2.0, fare - 0.5, city_id * 2 FROM trips WHERE city_id < 10`)
}

// benchWorkers runs one query benchmark at several worker counts on the
// same database, restoring the default afterwards. workers=1 is the serial
// baseline the ≥2x-at-4-workers acceptance target compares against (the
// speedup materializes on multi-core hardware; on a single-core runner the
// sub-benchmarks document the scheduling overhead instead).
func benchWorkers(b *testing.B, db *DB, sql string) {
	b.Helper()
	defer db.SetParallelism(0)
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			db.SetParallelism(workers)
			benchQuery(b, db, sql)
		})
	}
}

// BenchmarkParallelScan measures the morsel-parallel WHERE filter +
// projection over 400k rows.
func BenchmarkParallelScan(b *testing.B) {
	db := benchDB(b, 400000)
	benchWorkers(b, db,
		`SELECT id, fare * 1.1 FROM trips
		 WHERE status = 'completed' AND fare > 10.0 AND city_id < 15 AND fare * 2 < 150`)
}

// BenchmarkParallelAggregate measures morsel-parallel partial aggregation
// with a deterministic merge: keyed COUNT/SUM/AVG/MIN/MAX over 400k rows
// into 20 groups.
func BenchmarkParallelAggregate(b *testing.B) {
	db := benchDB(b, 400000)
	benchWorkers(b, db,
		`SELECT city_id, COUNT(*), SUM(fare), AVG(fare), MIN(fare), MAX(fare) FROM trips
		 WHERE status <> 'requested' GROUP BY city_id`)
}

// BenchmarkParallelJoin measures the morsel-parallel hash-join probe with a
// residual predicate at 200k x 20k rows.
func BenchmarkParallelJoin(b *testing.B) {
	db := benchDB(b, 200000)
	benchWorkers(b, db,
		`SELECT COUNT(*) FROM trips t JOIN drivers d ON t.driver_id = d.id
		 WHERE t.city_id = d.home_city`)
}
