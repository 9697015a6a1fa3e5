// Command flex answers SQL queries with differential privacy. Tables are
// loaded from CSV files (first row is the header; column types are inferred),
// metrics are collected automatically, and the query is answered with the
// FLEX mechanism.
//
// Usage:
//
//	flex -table trips=trips.csv -table cities=cities.csv \
//	     -public cities -eps 0.1 \
//	     -query "SELECT COUNT(*) FROM trips JOIN cities ON trips.city_id = cities.id"
//
// With -analyze the query is only analyzed (no data access beyond metrics):
// the tool prints the elastic-sensitivity polynomial, the smooth bound, and
// the Laplace noise scale.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"

	flex "flexdp"
	"flexdp/internal/smooth"
)

type tableFlags []string

func (t *tableFlags) String() string { return strings.Join(*t, ",") }
func (t *tableFlags) Set(v string) error {
	*t = append(*t, v)
	return nil
}

func main() {
	var tables tableFlags
	flag.Var(&tables, "table", "name=file.csv (repeatable)")
	query := flag.String("query", "", "SQL query to answer")
	public := flag.String("public", "", "comma-separated public table names")
	eps := flag.Float64("eps", 0.1, "privacy budget ε")
	delta := flag.Float64("delta", 0, "privacy parameter δ (default n^(-ln n))")
	analyzeOnly := flag.Bool("analyze", false, "analyze only; do not execute")
	seed := flag.Int64("seed", 0, "noise seed (0 = fresh crypto/rand seed; nonzero = fixed, reproducible noise for experiments only)")
	flag.Parse()

	if *query == "" {
		fmt.Fprintln(os.Stderr, "flex: -query is required")
		flag.Usage()
		os.Exit(2)
	}

	db := flex.NewDatabase()
	for _, spec := range tables {
		name, file, ok := strings.Cut(spec, "=")
		if !ok {
			fatal("bad -table %q: want name=file.csv", spec)
		}
		if err := flex.LoadCSV(db, name, file); err != nil {
			fatal("loading %s: %v", file, err)
		}
	}

	// The noise-source mode goes to stderr; the seed itself never does.
	noiseSeed, fixed, err := smooth.ResolveSeed(*seed)
	if err != nil {
		fatal("seeding the noise source: %v", err)
	}
	if fixed {
		fmt.Fprintln(os.Stderr, "flex: noise source: fixed seed from -seed (reproducible; experiments only)")
	} else {
		fmt.Fprintln(os.Stderr, "flex: noise source: fresh seed from crypto/rand")
	}
	sys := flex.NewSystem(db, flex.Options{Seed: noiseSeed})
	if *public != "" {
		sys.MarkPublic(strings.Split(*public, ",")...)
	}
	sys.CollectMetrics()

	d := *delta
	if d == 0 {
		d = smooth.DeltaForSize(db.TotalRows())
	}

	a, err := sys.Analyze(*query)
	if err != nil {
		fatal("analysis failed (%v): %v", flex.Classify(err), err)
	}
	fmt.Printf("joins: %d  histogram: %v\n", a.Joins, a.Histogram)
	for i, p := range a.Polynomials {
		fmt.Printf("output %q: elastic sensitivity Ŝ(k) = %s\n", a.OutputNames[i], p)
		sm, err := sys.SmoothBound(a, i, smooth.PrivacyParams{Epsilon: *eps, Delta: d})
		if err != nil {
			fatal("smoothing: %v", err)
		}
		fmt.Printf("  smooth bound S = %.6g at k = %d (β = %.3g)\n", sm.S, sm.ArgK, sm.Beta)
		fmt.Printf("  Laplace noise scale 2S/ε = %.6g\n", sm.NoiseScale(*eps))
	}
	if *analyzeOnly {
		return
	}

	// Interrupt (Ctrl-C) cancels the running query: execution aborts within
	// one morsel of work per worker and no privacy budget is spent.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	res, err := sys.RunContext(ctx, *query, *eps, d)
	if err != nil {
		fatal("run: %v", err)
	}
	fmt.Printf("\n(ε = %g, δ = %.3g) differentially private result:\n", *eps, d)
	fmt.Println(strings.Join(res.Columns, "\t"))
	for _, row := range res.Rows {
		var cells []string
		for _, b := range row.Bins {
			cells = append(cells, fmt.Sprint(b))
		}
		for _, v := range row.Values {
			cells = append(cells, strconv.FormatFloat(v, 'f', 2, 64))
		}
		fmt.Println(strings.Join(cells, "\t"))
	}
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "flex: "+format+"\n", args...)
	os.Exit(1)
}
