package engine

import (
	"context"
	"testing"

	"flexdp/internal/sqlparser"
)

// BenchmarkStreamingPipeline measures the streamed executor on a scan →
// filter → grouped-aggregate plan, which keeps at most a bounded window of
// morsels in flight between stages instead of a full intermediate relation
// per stage.
func BenchmarkStreamingPipeline(b *testing.B) {
	db := benchDB(b, 100000)
	base := db.ExecConfig()
	defer db.SetExecConfig(base)
	const sql = `SELECT city_id, COUNT(*), SUM(fare), AVG(fare) FROM trips
		 WHERE status <> 'requested' AND fare > 5.0 GROUP BY city_id`
	b.Run("streamed", func(b *testing.B) {
		db.SetExecConfig(base)
		benchQuery(b, db, sql)
	})
	// profiled = streamed + an execution trace per run: the telemetry
	// overhead bar (benchgate compares it against streamed at a 2% budget).
	b.Run("profiled", func(b *testing.B) {
		db.SetExecConfig(base)
		stmt, err := sqlparser.Parse(sql)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			cfg := base
			cfg.Profile = new(QueryProfile)
			if _, err := db.ExecuteContextConfig(context.Background(), stmt, cfg); err != nil {
				b.Fatal(err)
			}
		}
	})
}
