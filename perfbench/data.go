package main

import (
	"fmt"
	"math/rand"
	"strings"

	flex "flexdp"
	"flexdp/internal/engine"
	"flexdp/internal/smooth"
	"flexdp/internal/workload"
)

// Privacy parameters shared by every workload: ε = 0.1 and δ = n^(−ln n)
// for the database's size n at set-up (smooth.DeltaForSize).
const epsilon = 0.1

// fareMax is the enforced upper bound of trips.fare. Fares are
// 2 + 12·Exp(1), so a generated fare exceeds it with probability e^−20.7.
const fareMax = 250

// Database sizes. The cold-analysis database is small so that the Theorem 3
// cutoff min(λ/β, n) is n and the smoothing k-scan, not the engine,
// dominates; the proxy database is mid-size; paper-corpus runs on the
// paper-scale DefaultRideshare.
var (
	coldConfig  = workload.RideshareConfig{Cities: 8, Drivers: 40, Users: 100, Trips: 400, Days: 30}
	proxyConfig = workload.RideshareConfig{Cities: 20, Drivers: 200, Users: 500, Trips: 3000, Days: 60}
)

// env is one set-up instance: the generated database and the FLEX system
// over it.
type env struct {
	eng    *engine.DB
	db     *flex.Database
	sys    *flex.System
	budget *smooth.Budget // nil when the proxy server owns the budgets
	delta  float64
}

// buildEnv generates a rideshare database and builds and calibrates a FLEX
// system over it: public cities, an enforced fare range, the city bin
// domain, and collected metrics. This is the work setup_s times.
func buildEnv(cfg workload.RideshareConfig, seed int64, withBudget bool) (*env, error) {
	eng := workload.GenerateRideshare(cfg)
	db := flex.WrapEngine(eng)
	opts := flex.Options{Seed: seed}
	var budget *smooth.Budget
	if withBudget {
		// A deployment budget that the run never exhausts, so each release
		// goes through Budget.Spend as it would in service.
		budget = smooth.NewBudget(1e12, 0.5)
		opts.Budget = budget
	}
	sys := flex.NewSystem(db, opts)
	sys.MarkPublic(workload.RidesharePublicTables()...)
	if err := sys.EnforceValueRange("trips", "fare", 0, fareMax); err != nil {
		return nil, fmt.Errorf("enforce fare range: %w", err)
	}
	cities := make([]any, cfg.Cities)
	for i := range cities {
		cities[i] = int64(i + 1)
	}
	sys.SetBinDomain("trips", "city_id", cities)
	sys.CollectMetrics()
	return &env{eng: eng, db: db, sys: sys, budget: budget, delta: smooth.DeltaForSize(db.TotalRows())}, nil
}

// withSeed returns cfg with its generator seed set.
func withSeed(cfg workload.RideshareConfig, seed int64) workload.RideshareConfig {
	cfg.Seed = seed
	return cfg
}

// queryGen generates distinct analysis-heavy queries over the rideshare
// schema: 1–3 joins (trips with drivers, users and user_tags, including the
// many-to-many trips–user_tags join), 1–3 filters with random constants,
// and 1–3 outputs among COUNT(*), SUM(t.fare) and AVG(t.fare).
//
// The join shape and the number of outputs cycle through all 21
// combinations in a fixed order (7 shapes and 3 output counts are coprime),
// so any stretch of queries holds the same mix of cheap and expensive ones
// and the seed changes only the constants, the filters and the order of the
// outputs.
type queryGen struct {
	rng  *rand.Rand
	cfg  workload.RideshareConfig
	n    int // queries generated so far
	seen map[string]bool
}

func newQueryGen(seed int64, cfg workload.RideshareConfig) *queryGen {
	return &queryGen{rng: rand.New(rand.NewSource(seed)), cfg: cfg, seen: make(map[string]bool)}
}

// joinShape is a FROM clause; aliases lists the table aliases it binds.
type joinShape struct {
	from    string
	aliases string
}

// joinShapes are the FROM clauses the generator draws from.
var joinShapes = []joinShape{
	{"trips t JOIN drivers d ON t.driver_id = d.id", "td"},
	{"trips t JOIN users u ON t.rider_id = u.id", "tu"},
	{"trips t JOIN user_tags g ON t.rider_id = g.user_id", "tg"},
	{"trips t JOIN drivers d ON t.driver_id = d.id JOIN users u ON t.rider_id = u.id", "tdu"},
	{"trips t JOIN drivers d ON t.driver_id = d.id JOIN user_tags g ON t.rider_id = g.user_id", "tdg"},
	{"trips t JOIN users u ON t.rider_id = u.id JOIN user_tags g ON u.id = g.user_id", "tug"},
	{"trips t JOIN drivers d ON t.driver_id = d.id JOIN users u ON t.rider_id = u.id JOIN user_tags g ON u.id = g.user_id", "tdug"},
}

var (
	userTags      = []string{"duplicate_account", "fraud_review", "vip", "promo_abuse"}
	tripStatuses  = []string{"completed", "canceled", "driver_canceled"}
	tripProducts  = []string{"uberx", "pool", "black", "motorbike"}
	outputChoices = []string{"COUNT(*)", "SUM(t.fare)", "AVG(t.fare)"}
)

// next returns a query not returned before, with the number of outputs it
// releases.
func (g *queryGen) next() (string, int) {
	shape, outputs := joinShapes[g.n%len(joinShapes)], 1+g.n%len(outputChoices)
	g.n++
	for {
		sql := g.candidate(shape, outputs)
		if !g.seen[sql] {
			g.seen[sql] = true
			return sql, outputs
		}
	}
}

func (g *queryGen) candidate(shape joinShape, outputs int) string {
	r := g.rng
	perm := r.Perm(len(outputChoices))[:outputs]
	outs := make([]string, len(perm))
	for i, p := range perm {
		outs[i] = outputChoices[p]
	}
	// The day window always applies; up to two more filters come from the
	// tables the shape joins.
	lo := r.Intn(g.cfg.Days - 1)
	hi := lo + 1 + r.Intn(g.cfg.Days-lo)
	filters := []string{fmt.Sprintf("t.day >= %d AND t.day < %d", lo, hi)}
	extra := []string{
		fmt.Sprintf("t.fare < %.2f", 5+r.Float64()*55),
		fmt.Sprintf("t.status = '%s'", tripStatuses[r.Intn(len(tripStatuses))]),
		fmt.Sprintf("t.city_id <= %d", 1+r.Intn(g.cfg.Cities)),
	}
	if strings.Contains(shape.aliases, "d") {
		extra = append(extra, "d.active = TRUE")
	}
	if strings.Contains(shape.aliases, "u") {
		extra = append(extra, fmt.Sprintf("u.signup_day < %d", 1+r.Intn(g.cfg.Days)))
	}
	if strings.Contains(shape.aliases, "g") {
		extra = append(extra, fmt.Sprintf("g.tag = '%s'", userTags[r.Intn(len(userTags))]))
	}
	for _, i := range r.Perm(len(extra))[:r.Intn(3)] {
		filters = append(filters, extra[i])
	}
	return fmt.Sprintf("SELECT %s FROM %s WHERE %s",
		strings.Join(outs, ", "), shape.from, strings.Join(filters, " AND "))
}

// corpusRound is the number of distinct GenerateExpCorpus templates; the
// paper-corpus stream interleaves them one per template per round.
const corpusRound = 10

// paperCorpus returns the Section 5 experiment corpus for the seed,
// stratified to the generator's own expected mix: the generator draws each
// of its ten templates with probability 1/10, and the stream takes exactly
// perTemplate queries of each, in generation order, interleaved in rounds
// of one per template. The seed then changes the constants and the order
// within a round, but not how many expensive many-to-many joins a run
// holds, which would otherwise swing throughput by ±15% between seeds.
func paperCorpus(seed int64, perTemplate int) ([]string, error) {
	cfg := workload.DefaultExpCorpus()
	cfg.Seed = seed
	cfg.N = 4 * corpusRound * perTemplate
	byTemplate := make(map[string][]string)
	var order []string
	for _, q := range workload.GenerateExpCorpus(cfg) {
		if _, ok := byTemplate[q.Description]; !ok {
			order = append(order, q.Description)
		}
		byTemplate[q.Description] = append(byTemplate[q.Description], q.SQL)
	}
	if len(order) != corpusRound {
		return nil, fmt.Errorf("corpus has %d templates, want %d", len(order), corpusRound)
	}
	for _, d := range order {
		if len(byTemplate[d]) < perTemplate {
			return nil, fmt.Errorf("corpus template %q has %d queries, want %d", d, len(byTemplate[d]), perTemplate)
		}
	}
	rng := rand.New(rand.NewSource(seed))
	out := make([]string, 0, corpusRound*perTemplate)
	for i := 0; i < perTemplate; i++ {
		for _, j := range rng.Perm(corpusRound) {
			out = append(out, byTemplate[order[j]][i])
		}
	}
	return out, nil
}
