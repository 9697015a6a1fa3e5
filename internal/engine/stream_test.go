package engine

import (
	"fmt"
	"math/rand"
	"testing"
)

// Differential tests for the streaming morsel dataflow: every query of the
// parallel and spill corpora must reproduce the retired materialized
// executor's recorded results bit for bit (oracle_test.go) at worker counts
// {1, 2, 8}, with and without a tiny memory budget. A separate test pins the
// point of streaming: whole-query peak memory stays far below the source size
// for fully-foldable scan → aggregate pipelines, with zero pipeline-breaker
// materializations.

// TestStreamedMatchesMaterialized runs the morsel-executor corpus (joins
// including outer, grouped aggregation, DISTINCT, ORDER BY, set operations,
// subquery fallbacks) over randomized databases, requiring the streamed
// executor to reproduce the materialized executor's recorded results bit for
// bit across the whole execution-config grid.
func TestStreamedMatchesMaterialized(t *testing.T) {
	rng := rand.New(rand.NewSource(977))
	for trial := 0; trial < 2; trial++ {
		db := parallelTestDB(rng, 80+rng.Intn(160))
		db.SetTempDir(t.TempDir())
		db.SetMorselSize(8)
		runDifferential(t, db, parallelQueries, fmt.Sprintf("trial %d", trial))
	}
}

// TestStreamedMatchesMaterializedFixture reruns the join/ORDER BY spill
// corpus on the fixture database: three tables, every join shape, a 2-row
// morsel so even the fixture spans many morsels.
func TestStreamedMatchesMaterializedFixture(t *testing.T) {
	db := testDB(t)
	db.SetTempDir(t.TempDir())
	db.SetMorselSize(2)
	runDifferential(t, db, spillQueries, "fixture")
}

// streamPeakDB builds a single wide table big enough that holding it
// materialized between stages would dwarf any reasonable morsel window.
func streamPeakDB(rows int) *DB {
	db := NewDB()
	db.MustCreateTable("big", []Column{
		{Name: "v", Type: KindInt},
		{Name: "f", Type: KindFloat},
		{Name: "s", Type: KindString},
	})
	out := make([][]Value, 0, rows)
	for i := 0; i < rows; i++ {
		out = append(out, []Value{
			NewInt(int64(i % 997)),
			NewFloat(float64(i%251) * 1.5),
			NewString(fmt.Sprintf("row%d", i%13)),
		})
	}
	if err := db.InsertRows("big", out); err != nil {
		panic(err)
	}
	return db
}

// TestStreamingBoundsPeakMemory pins the whole-query memory claim: a scan →
// (filter →) ungrouped-aggregate query over a table far larger than the
// morsel window folds incrementally, so the peak in-flight morsel footprint
// stays a small fraction of the source relation and no stage materializes
// (BreakerMaterializations stays zero) — with or without a WHERE clause. The
// streamed result must still match the recorded reference bit for bit.
func TestStreamingBoundsPeakMemory(t *testing.T) {
	const rows = 20000
	queries := []string{
		`SELECT COUNT(*), SUM(v), AVG(f), MIN(v), MAX(f) FROM big WHERE v % 3 <> 0`,
		`SELECT COUNT(*), SUM(v), AVG(f), MIN(v), MAX(f) FROM big`,
	}
	refDB := streamPeakDB(rows)
	for i, sql := range queries {
		key := fmt.Sprintf("%s/peak/q%02d", t.Name(), i)
		want := referenceDigest(t, refDB, key, sql)
		for _, workers := range []int{1, 2, 8} {
			// Fresh database per worker count: PeakMorselBytes folds into the
			// database totals by maximum, so reuse would blur the measurements.
			db := streamPeakDB(rows)
			db.SetParallelism(workers)
			db.SetMorselSize(64)
			total := estRowsBytes(db.Table("big").Rows)

			got, err := db.Query(sql)
			if err != nil {
				t.Fatalf("workers=%d %s: %v", workers, sql, err)
			}
			if d := resultDigest(got); d != want {
				t.Fatalf("workers=%d %s: result digest %s, reference %s", workers, sql, d, want)
			}

			st := db.SpillStats()
			if st.BreakerMaterializations != 0 {
				t.Errorf("workers=%d %s: %d breaker materializations on a fully-foldable pipeline, want 0",
					workers, sql, st.BreakerMaterializations)
			}
			if st.PeakMorselBytes <= 0 {
				t.Errorf("workers=%d %s: peak morsel bytes not recorded", workers, sql)
			}
			// The bounded window admits at most workers × window morsels; with
			// a 64-row morsel over a 20000-row table that is a few percent of
			// the source. A quarter is a generous ceiling that still fails if
			// any stage silently materializes the stream.
			if st.PeakMorselBytes >= total/4 {
				t.Errorf("workers=%d %s: peak %d bytes in flight is not bounded (source ≈ %d bytes)",
					workers, sql, st.PeakMorselBytes, total)
			}
		}
	}
}

// TestBreakerMaterializationsCounted is the converse: pipeline-breaking
// shapes (grouped aggregation, join builds, DISTINCT) must report their
// materializations through the same stat.
func TestBreakerMaterializationsCounted(t *testing.T) {
	db := streamPeakDB(500)
	db.SetMorselSize(16)
	if _, err := db.Query(`SELECT s, COUNT(*) FROM big WHERE v > 10 GROUP BY s`); err != nil {
		t.Fatal(err)
	}
	if st := db.SpillStats(); st.BreakerMaterializations == 0 {
		t.Errorf("grouped aggregation reported no breaker materializations")
	}
}
