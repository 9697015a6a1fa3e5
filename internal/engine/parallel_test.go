package engine

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// Differential tests for the morsel-driven parallel executor: every query of
// a randomized corpus must return a bit-identical ResultSet at worker counts
// {1, 2, 8}, with the morsel size shrunk so even small tables span many
// morsels and the merge paths are actually exercised.

// parallelQueries is the corpus: it covers the parallel filter, projection,
// hash-join probe (inner and outer, with residuals), and partial
// aggregation (every aggregate, DISTINCT, HAVING, ORDER BY, expressions
// over aggregates), plus paths that must fall back to serial (subqueries,
// nested loops) without changing results.
var parallelQueries = []string{
	`SELECT COUNT(*) FROM t WHERE v > 20 AND s <> 'b'`,
	`SELECT k, v, f * 2.0 + 1.5 FROM t WHERE v % 3 = 0`,
	`SELECT UPPER(s), ABS(v - 50) FROM t WHERE f BETWEEN 5.0 AND 80.0`,
	`SELECT k, COUNT(*), SUM(v), SUM(f), AVG(f), MIN(f), MAX(v) FROM t GROUP BY k`,
	`SELECT k, MEDIAN(f), STDDEV(f) FROM t GROUP BY k`,
	`SELECT s, COUNT(DISTINCT k), SUM(DISTINCT v) FROM t GROUP BY s`,
	`SELECT k, SUM(f) FROM t WHERE v > 10 GROUP BY k HAVING COUNT(*) > 2 ORDER BY SUM(f) DESC, k`,
	`SELECT COUNT(*), SUM(v), AVG(f), MIN(v), MAX(f) FROM t`,
	`SELECT COUNT(*) FROM t WHERE v > 1000`,
	`SELECT SUM(v) FROM t WHERE v > 1000`,
	`SELECT k, SUM(v) + COUNT(*) * 2, CASE WHEN AVG(f) > 40.0 THEN 'hi' ELSE 'lo' END FROM t GROUP BY k`,
	`SELECT DISTINCT k, s FROM t WHERE v < 80`,
	`SELECT DISTINCT k, v FROM t ORDER BY v DESC, k`,
	`SELECT t.k, COUNT(*) FROM t JOIN u ON t.k = u.k GROUP BY t.k ORDER BY t.k`,
	`SELECT COUNT(*) FROM t JOIN u ON t.k = u.k AND t.v > u.w`,
	`SELECT COUNT(*) FROM t LEFT JOIN u ON t.k = u.k`,
	`SELECT COUNT(*) FROM t FULL JOIN u ON t.k = u.k`,
	`SELECT u.name, SUM(t.f) FROM t JOIN u ON t.k = u.k GROUP BY u.name ORDER BY 2 DESC`,
	`SELECT k FROM t WHERE v > 30 ORDER BY f DESC, k LIMIT 7 OFFSET 2`,
	`SELECT v FROM t WHERE v < 20 UNION SELECT w FROM u`,
	// Set operations, including the multiset ALL forms, DISTINCT, and
	// HAVING: all hold hash-key state that the memory budget bounds, so the
	// spill differential reruns of this corpus cover their spilled paths.
	`SELECT v FROM t INTERSECT ALL SELECT w FROM u`,
	`SELECT v FROM t EXCEPT ALL SELECT w FROM u`,
	`SELECT v FROM t INTERSECT SELECT w FROM u`,
	`SELECT v FROM t EXCEPT SELECT w FROM u`,
	`SELECT k, s FROM t EXCEPT ALL SELECT k, s FROM t WHERE v > 50`,
	`SELECT DISTINCT s FROM t UNION ALL SELECT DISTINCT name FROM u`,
	`SELECT k, COUNT(*) FROM t GROUP BY k HAVING SUM(v) > 100 ORDER BY k`,
	`SELECT s, COUNT(DISTINCT k) FROM t GROUP BY s HAVING COUNT(*) > 3 ORDER BY s`,
	`WITH big AS (SELECT k, v FROM t WHERE v > 40) SELECT k, COUNT(*) FROM big GROUP BY k`,
	// Joins nested where a materialized relation is needed: a join as a
	// later FROM item, and a parenthesized join as another join's build side.
	`WITH s AS (SELECT k, w FROM u WHERE w < 12)
		SELECT s.k, COUNT(*), SUM(t.v) FROM s, t LEFT JOIN s AS s2 ON t.k = s2.k
		GROUP BY s.k ORDER BY s.k`,
	`SELECT COUNT(*), SUM(u2.w), COUNT(u.name)
		FROM t FULL JOIN (u JOIN u AS u2 ON u.k = u2.k AND u.w < u2.w) ON t.k = u.k`,
	// Subquery-bearing statements: must fall back to serial and still agree.
	`SELECT COUNT(*) FROM t WHERE k IN (SELECT k FROM u WHERE w > 30)`,
	`SELECT COUNT(*) FROM t WHERE v > (SELECT MIN(w) FROM u)`,
}

// parallelTestDB builds a randomized two-table database with NULLs mixed
// into every column.
func parallelTestDB(rng *rand.Rand, n int) *DB {
	db := NewDB()
	db.MustCreateTable("t", []Column{
		{Name: "k", Type: KindInt},
		{Name: "v", Type: KindInt},
		{Name: "f", Type: KindFloat},
		{Name: "s", Type: KindString},
	})
	db.MustCreateTable("u", []Column{
		{Name: "k", Type: KindInt},
		{Name: "w", Type: KindInt},
		{Name: "name", Type: KindString},
	})
	letters := []string{"a", "b", "c", "d"}
	rows := make([][]Value, 0, n)
	for i := 0; i < n; i++ {
		k := Value(NewInt(int64(rng.Intn(7))))
		if rng.Intn(20) == 0 {
			k = Null
		}
		f := Value(NewFloat(rng.Float64() * 100))
		if rng.Intn(15) == 0 {
			f = Null
		}
		rows = append(rows, []Value{
			k,
			NewInt(int64(rng.Intn(100))),
			f,
			NewString(letters[rng.Intn(len(letters))]),
		})
	}
	if err := db.InsertRows("t", rows); err != nil {
		panic(err)
	}
	urows := make([][]Value, 0, n/4+1)
	for i := 0; i < n/4+1; i++ {
		k := Value(NewInt(int64(rng.Intn(7))))
		if rng.Intn(20) == 0 {
			k = Null
		}
		urows = append(urows, []Value{
			k,
			NewInt(int64(rng.Intn(60))),
			NewString(fmt.Sprintf("name%d", rng.Intn(5))),
		})
	}
	if err := db.InsertRows("u", urows); err != nil {
		panic(err)
	}
	return db
}

// valueEqualExact compares two values bit-for-bit: kinds must match and
// floats compare by bit pattern (Value.Key would conflate 2 with 2.0 and
// hide a kind drift between the serial and parallel paths).
func valueEqualExact(a, b Value) bool {
	if a.Kind != b.Kind {
		return false
	}
	switch a.Kind {
	case KindNull:
		return true
	case KindInt:
		return a.Int == b.Int
	case KindFloat:
		return math.Float64bits(a.Float) == math.Float64bits(b.Float)
	case KindString:
		return a.Str == b.Str
	case KindBool:
		return a.Bool == b.Bool
	}
	return false
}

func resultsEqualExact(a, b *ResultSet) string {
	if len(a.Columns) != len(b.Columns) {
		return fmt.Sprintf("column count %d vs %d", len(a.Columns), len(b.Columns))
	}
	for i := range a.Columns {
		if a.Columns[i] != b.Columns[i] {
			return fmt.Sprintf("column %d name %q vs %q", i, a.Columns[i], b.Columns[i])
		}
	}
	if len(a.Rows) != len(b.Rows) {
		return fmt.Sprintf("row count %d vs %d", len(a.Rows), len(b.Rows))
	}
	for i := range a.Rows {
		if len(a.Rows[i]) != len(b.Rows[i]) {
			return fmt.Sprintf("row %d arity %d vs %d", i, len(a.Rows[i]), len(b.Rows[i]))
		}
		for j := range a.Rows[i] {
			if !valueEqualExact(a.Rows[i][j], b.Rows[i][j]) {
				return fmt.Sprintf("row %d col %d: %v vs %v", i, j, a.Rows[i][j], b.Rows[i][j])
			}
		}
	}
	return ""
}

// TestParallelMatchesSerial runs the corpus over randomized databases at
// worker counts {1, 2, 8} with an 8-row morsel, requiring bit-identical
// result sets. Worker count 1 is the serial reference; 2 and 8 exercise
// under- and over-subscribed pools (8 workers on a tiny table also covers
// the workers > morsels cap).
func TestParallelMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 8; trial++ {
		db := parallelTestDB(rng, 60+rng.Intn(200))
		db.SetMorselSize(8)
		for _, sql := range parallelQueries {
			db.SetParallelism(1)
			want, err := db.Query(sql)
			if err != nil {
				t.Fatalf("trial %d serial %s: %v", trial, sql, err)
			}
			for _, workers := range []int{2, 8} {
				db.SetParallelism(workers)
				got, err := db.Query(sql)
				if err != nil {
					t.Fatalf("trial %d workers=%d %s: %v", trial, workers, sql, err)
				}
				if diff := resultsEqualExact(want, got); diff != "" {
					t.Fatalf("trial %d workers=%d %s: %s", trial, workers, sql, diff)
				}
			}
		}
	}
}

// TestParallelPreparedMatchesSerial re-runs a prepared query as the
// parallelism setting changes under it: the cached plan must keep producing
// bit-identical results because compiled closures are schedule-independent.
func TestParallelPreparedMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	db := parallelTestDB(rng, 300)
	db.SetMorselSize(16)
	for _, sql := range parallelQueries {
		pq, err := db.Prepare(sql)
		if err != nil {
			t.Fatalf("prepare %s: %v", sql, err)
		}
		db.SetParallelism(1)
		want, err := pq.Exec()
		if err != nil {
			t.Fatalf("serial %s: %v", sql, err)
		}
		for _, workers := range []int{2, 8} {
			db.SetParallelism(workers)
			got, err := pq.Exec()
			if err != nil {
				t.Fatalf("workers=%d %s: %v", workers, sql, err)
			}
			if diff := resultsEqualExact(want, got); diff != "" {
				t.Fatalf("workers=%d %s: %s", workers, sql, diff)
			}
		}
	}
}

// TestParallelErrorDeterminism: a data-dependent evaluation error must
// surface identically at every worker count (the runSpans lowest-morsel
// rule). -5 halts the scan at the first negating of a string.
func TestParallelErrorDeterminism(t *testing.T) {
	db := NewDB()
	db.MustCreateTable("e", []Column{{Name: "x", Type: KindString}})
	rows := make([][]Value, 100)
	for i := range rows {
		rows[i] = []Value{NewString(fmt.Sprintf("s%d", i))}
	}
	if err := db.InsertRows("e", rows); err != nil {
		t.Fatal(err)
	}
	db.SetMorselSize(8)
	queries := []string{
		`SELECT COUNT(*) FROM e WHERE -x > 0`,
		// Both the GROUP BY key and the aggregate argument are unresolvable:
		// the key error must win at every worker count, because phase 1
		// evaluates keys before aggregate arguments on each row, mirroring
		// the serial path's grouping-before-reduction order.
		`SELECT SUM(nosuch1) FROM e GROUP BY nosuch2`,
	}
	for _, sql := range queries {
		var want error
		for _, workers := range []int{1, 2, 8} {
			db.SetParallelism(workers)
			_, err := db.Query(sql)
			if err == nil {
				t.Fatalf("workers=%d %s: expected error", workers, sql)
			}
			if want == nil {
				want = err
			} else if err.Error() != want.Error() {
				t.Fatalf("workers=%d %s: error %q differs from serial %q", workers, sql, err, want)
			}
		}
	}
}

// TestMorselSpans pins the partitioning arithmetic.
func TestMorselSpans(t *testing.T) {
	if got := morselSpans(0, 10); got != nil {
		t.Fatalf("empty input: %v", got)
	}
	spans := morselSpans(25, 10)
	want := []span{{0, 10}, {10, 20}, {20, 25}}
	if len(spans) != len(want) {
		t.Fatalf("spans %v", spans)
	}
	for i := range want {
		if spans[i] != want[i] {
			t.Fatalf("span %d: %v want %v", i, spans[i], want[i])
		}
	}
	if got := morselSpans(5, 0); len(got) != 1 || got[0].hi != 5 {
		t.Fatalf("default size: %v", got)
	}
}
