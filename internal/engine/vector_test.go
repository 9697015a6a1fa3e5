package engine

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// Differential suite for the vectorized expression kernels: every test here
// checks the batch path against the recorded results of the retired
// row-at-a-time evaluator (oracle_test.go) and requires bit-identical result
// sets — including float bit patterns — across the worker × budget grid. The
// scalar path's recorded results are the semantics oracle; vectorization must
// be unobservable.

// vectorQueries stresses kernel edge cases beyond the parallelQueries
// corpus: three-valued logic, NULL propagation through arithmetic and
// comparisons, division and modulo by zero, unary negation, IS [NOT] NULL,
// cross-kind numeric comparison, int64 wraparound, and operators (string
// concatenation, CASE) that must fall back to the row path inside an
// otherwise-vectorized query.
var vectorQueries = []string{
	`SELECT k, v FROM t WHERE NOT (v > 50)`,
	`SELECT k FROM t WHERE v > 20 OR f < 10.0`,
	`SELECT k FROM t WHERE (v > 20 AND f < 90.0) OR s = 'a'`,
	`SELECT k FROM t WHERE f IS NULL`,
	`SELECT k FROM t WHERE k IS NOT NULL AND f IS NOT NULL`,
	`SELECT v / 0, v % 0, f / 0.0, v / 2, v % 7 FROM t WHERE v < 10`,
	`SELECT -v, -f, v - f, v * f, v + f FROM t WHERE v % 7 = 0`,
	`SELECT k FROM t WHERE v = f`,
	`SELECT k FROM t WHERE v <> f AND v >= f`,
	`SELECT k FROM t WHERE s < 'c' AND s >= 'a' AND s <> 'b'`,
	`SELECT k FROM t WHERE v + f > 50.0 ORDER BY f DESC, k, v`,
	`SELECT v * 1000000 * 1000000 FROM t WHERE v > 90`,
	`SELECT k, v FROM t WHERE v <= 50 AND v >= 10 AND v <> 30`,
	`SELECT k FROM t WHERE (f > 10.0) = (v > 50)`,
	`SELECT CASE WHEN f IS NULL THEN -1.0 ELSE f END FROM t WHERE v < 25`,
	`SELECT k, f FROM t WHERE f > 30.0 ORDER BY 2 DESC, 1`,
}

// TestVectorizedMatchesRowPath runs the full engine corpus (the parallel
// suite plus the kernel edge cases) over randomized NULL-bearing databases,
// once with a pinned 8-row morsel and once under adaptive sizing.
func TestVectorizedMatchesRowPath(t *testing.T) {
	queries := append(append([]string{}, parallelQueries...), vectorQueries...)
	rng := rand.New(rand.NewSource(1234))
	for trial := 0; trial < 4; trial++ {
		db := parallelTestDB(rng, 80+rng.Intn(200))
		if trial%2 == 0 {
			db.SetMorselSize(8)
		}
		runDifferential(t, db, queries, fmt.Sprintf("trial %d", trial))
	}
}

// TestVectorizedNaNAndSpecialFloats pins the comparison and arithmetic
// kernels on NaN, infinities, and signed zero mixed with NULLs: Compare
// treats NaN against a number as unordered (both < and > are false), and
// the kernels phrase <= and >= as negations to reproduce that exactly.
func TestVectorizedNaNAndSpecialFloats(t *testing.T) {
	db := NewDB()
	db.MustCreateTable("n", []Column{
		{Name: "id", Type: KindInt},
		{Name: "f", Type: KindFloat},
	})
	specials := []float64{
		math.NaN(), math.Inf(1), math.Inf(-1), 0.0, math.Copysign(0, -1),
		1.5, -2.5, math.MaxFloat64, math.SmallestNonzeroFloat64,
	}
	var rows [][]Value
	for i := 0; i < 80; i++ {
		f := Value(NewFloat(specials[i%len(specials)]))
		if i%10 == 9 {
			f = Null
		}
		rows = append(rows, []Value{NewInt(int64(i)), f})
	}
	if err := db.InsertRows("n", rows); err != nil {
		t.Fatal(err)
	}
	db.SetMorselSize(8)
	runDifferential(t, db, []string{
		`SELECT id FROM n WHERE f > 1.0`,
		`SELECT id FROM n WHERE f <= 1.0`,
		`SELECT id FROM n WHERE f >= 0.0`,
		`SELECT id FROM n WHERE f < 0.0 OR f IS NULL`,
		`SELECT id FROM n WHERE f = f`,
		`SELECT id FROM n WHERE f <> f`,
		`SELECT id, f * 2.0, f + 1.0, -f, f / 0.0 FROM n`,
		`SELECT id, f FROM n ORDER BY f DESC, id`,
		`SELECT COUNT(*), SUM(f), MIN(f), MAX(f), AVG(f) FROM n`,
		`SELECT f, COUNT(*) FROM n GROUP BY f`,
	}, "nan")
}

// TestVectorizedMixedKindColumn puts ints, floats, strings, bools, and
// NULLs in one column: per-morsel classification cannot type such a slab,
// so the kernels must take the generic Value path and still agree with the
// row-at-a-time evaluator (cross-kind Equal is false, cross-kind Compare
// is kind-ordered, arithmetic on non-numerics errors — none observable
// here because these queries only compare).
func TestVectorizedMixedKindColumn(t *testing.T) {
	db := NewDB()
	db.MustCreateTable("m", []Column{
		{Name: "id", Type: KindInt},
		{Name: "x", Type: KindInt},
	})
	var rows [][]Value
	for i := 0; i < 100; i++ {
		var x Value
		switch i % 5 {
		case 0:
			x = NewInt(int64(i))
		case 1:
			x = NewFloat(float64(i) / 2)
		case 2:
			x = NewString(fmt.Sprintf("s%d", i))
		case 3:
			x = NewBool(i%2 == 0)
		default:
			x = Null
		}
		rows = append(rows, []Value{NewInt(int64(i)), x})
	}
	if err := db.InsertRows("m", rows); err != nil {
		t.Fatal(err)
	}
	db.SetMorselSize(8)
	runDifferential(t, db, []string{
		`SELECT id FROM m WHERE x > 10`,
		`SELECT id FROM m WHERE x = 20`,
		`SELECT id FROM m WHERE x IS NULL`,
		`SELECT id, x FROM m WHERE x = 'ss12' OR x IS NULL OR x = 4`,
		`SELECT COUNT(*) FROM m WHERE x <> 3`,
		`SELECT id FROM m WHERE x >= 'a'`,
		`SELECT x, COUNT(*) FROM m GROUP BY x ORDER BY 2 DESC, id`,
	}, "mixed")
}

// TestVectorErrorLowestRow: rows 0..49 hold ints, 50.. hold strings, so
// arithmetic involving column x first fails at row 50. The batch kernels'
// prefix-error contract plus runSpans' lowest-morsel rule must surface the
// error the retired serial row-at-a-time scan returned (recorded below as
// literal strings) at every worker count and memory budget.
func TestVectorErrorLowestRow(t *testing.T) {
	db := NewDB()
	db.MustCreateTable("e", []Column{
		{Name: "id", Type: KindInt},
		{Name: "x", Type: KindInt},
	})
	var rows [][]Value
	for i := 0; i < 100; i++ {
		x := Value(NewInt(int64(i)))
		if i >= 50 {
			x = NewString(fmt.Sprintf("s%d", i))
		}
		rows = append(rows, []Value{NewInt(int64(i)), x})
	}
	if err := db.InsertRows("e", rows); err != nil {
		t.Fatal(err)
	}
	db.SetMorselSize(8)
	for _, c := range []struct{ sql, want string }{
		{`SELECT COUNT(*) FROM e WHERE -x > 0`, "engine: cannot negate STRING"},
		{`SELECT x + 1 FROM e`, "engine: arithmetic on non-numeric STRING + INT"},
		{`SELECT id FROM e WHERE id + 1 > 0 AND x * 2 > 0`, "engine: arithmetic on non-numeric STRING * INT"},
		{`SELECT id FROM e ORDER BY x / 3`, "engine: arithmetic on non-numeric STRING / INT"},
		{`SELECT x % 5, COUNT(*) FROM e GROUP BY x % 5`, "engine: arithmetic on non-numeric STRING % INT"},
		{`SELECT id, SUM(x * 2) FROM e GROUP BY id`, "engine: arithmetic on non-numeric STRING * INT"},
	} {
		for _, workers := range []int{1, 2, 8} {
			for _, budget := range []int64{0, 512} {
				db.SetParallelism(workers)
				db.SetMemoryBudget(budget)
				_, err := db.Query(c.sql)
				if err == nil {
					t.Fatalf("workers=%d budget=%d %s: expected error", workers, budget, c.sql)
				}
				if err.Error() != c.want {
					t.Fatalf("workers=%d budget=%d %s: error %q, reference said %q",
						workers, budget, c.sql, err, c.want)
				}
			}
		}
	}
}

// TestAdaptiveMorselSize pins the width-to-rows policy: power-of-two sizes
// targeting adaptiveMorselBytes per morsel, clamped, with width 5 landing
// on the historical default of 1024.
func TestAdaptiveMorselSize(t *testing.T) {
	cases := []struct{ width, want int }{
		{0, 4096}, // degenerate widths clamp to 1
		{1, 4096},
		{5, 1024}, // the historical DefaultMorselSize for typical schemas
		{10, 1024},
		{20, 512},
		{100, 256}, // very wide rows floor at minMorselSize
		{1000, 256},
	}
	for _, c := range cases {
		if got := adaptiveMorselSize(c.width); got != c.want {
			t.Errorf("adaptiveMorselSize(%d) = %d, want %d", c.width, got, c.want)
		}
	}

	db := NewDB()
	if got := db.MorselSizeFor(5); got != 1024 {
		t.Errorf("unpinned MorselSizeFor(5) = %d, want 1024", got)
	}
	db.SetMorselSize(512)
	if got := db.MorselSizeFor(5); got != 512 {
		t.Errorf("pinned MorselSizeFor(5) = %d, want 512", got)
	}
	if got := db.MorselSizeFor(100); got != 512 {
		t.Errorf("pinned MorselSizeFor(100) = %d, want 512", got)
	}
}

// TestParallelSortMatchesSerial drives an ORDER BY past parallelSortMin so
// the parallel run-sort plus fan-in merge engages, and pins it bit-identical
// to the serial stable sort — equal keys (few distinct k values, NULLs, and
// NaN-free floats with duplicates) make any instability visible.
func TestParallelSortMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	db := NewDB()
	db.MustCreateTable("s", []Column{
		{Name: "k", Type: KindInt},
		{Name: "f", Type: KindFloat},
	})
	n := parallelSortMin * 2
	rows := make([][]Value, 0, n)
	for i := 0; i < n; i++ {
		k := Value(NewInt(int64(rng.Intn(5))))
		if rng.Intn(31) == 0 {
			k = Null
		}
		f := Value(NewFloat(float64(rng.Intn(50))))
		if rng.Intn(17) == 0 {
			f = NewFloat(math.NaN()) // exercises compareOrd's NaN total order
		}
		rows = append(rows, []Value{k, f})
	}
	if err := db.InsertRows("s", rows); err != nil {
		t.Fatal(err)
	}
	for _, sql := range []string{
		`SELECT k, f FROM s ORDER BY k`,
		`SELECT k, f FROM s ORDER BY f DESC, k`,
		`SELECT k, f FROM s ORDER BY k DESC, f`,
	} {
		db.SetParallelism(1)
		want, err := db.Query(sql)
		if err != nil {
			t.Fatalf("serial %s: %v", sql, err)
		}
		for _, workers := range []int{2, 8} {
			db.SetParallelism(workers)
			got, err := db.Query(sql)
			if err != nil {
				t.Fatalf("workers=%d %s: %v", workers, sql, err)
			}
			if diff := resultsEqualExact(want, got); diff != "" {
				t.Fatalf("workers=%d %s: %s", workers, sql, diff)
			}
		}
	}
}
