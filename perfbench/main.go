// Command perfbench is the FLEX benchmark. It drives one of three seeded
// workloads through FLEX's public entry points, checks the outputs outside
// the timed region, and prints every metric by name with its unit. The last
// line of standard output is a JSON summary:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones, measured with tracing
// off. With -trace 1 a separate replay of the same inputs records a span
// around each layer's public function and the metrics are the per-layer
// ones. README.md describes the workloads, the metrics and which end-to-end
// metric each layer metric should move.
//
// Run it from the repository root through run.sh, which builds it:
//
//	bash perfbench/run.sh --workload cold-analysis --seed 1 --seconds 30 --trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is what one run produces.
type report struct {
	attempted int
	failed    int
	// problems lists failed checks and failed queries, for standard error.
	problems []string
	// metrics are the contract metrics of the mode (end-to-end or
	// per-layer); extras are printed for the reader but are not part of
	// the JSON summary.
	metrics map[string]metric
	extras  map[string]metric
	// samples are the raw per-query values, written to the run record.
	samples map[string][]float64
	spans   []span
}

func newReport() *report {
	return &report{
		metrics: make(map[string]metric),
		extras:  make(map[string]metric),
		samples: make(map[string][]float64),
	}
}

func (r *report) set(name string, v float64, unit string)   { r.metrics[name] = metric{v, unit} }
func (r *report) extra(name string, v float64, unit string) { r.extras[name] = metric{v, unit} }

// fail records a failed operation or check; every one counts in failed.
func (r *report) fail(format string, args ...any) {
	r.failed++
	if len(r.problems) < 20 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// runConfig is one invocation's arguments.
type runConfig struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
}

var workloads = map[string]func(runConfig) (*report, error){
	"cold-analysis": func(c runConfig) (*report, error) { return runClosed(coldSpec, c) },
	"paper-corpus":  func(c runConfig) (*report, error) { return runClosed(corpusSpec, c) },
	"proxy-mixed":   runProxy,
}

func main() {
	if err := mainErr(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func mainErr(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: cold-analysis, paper-corpus or proxy-mixed")
	seed := fs.Int64("seed", 1, "seed of every input generator")
	seconds := fs.Float64("seconds", 30, "length of the measured region in seconds")
	trace := fs.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: traced replay, per-layer metrics")
	updateGolden := fs.Bool("update-golden", false, "rewrite perfbench/golden.json from the current code instead of running")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *updateGolden {
		return writeGolden("perfbench/golden.json")
	}
	run, ok := workloads[*name]
	if !ok {
		return fmt.Errorf("unknown workload %q", *name)
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		return errors.New("need -seconds > 0 and -trace 0 or 1")
	}
	cfg := runConfig{workload: *name, seed: *seed, seconds: time.Duration(*seconds * float64(time.Second)), trace: *trace == 1}
	prov := collectProvenance(cfg)
	rep, err := run(cfg)
	if err != nil {
		return err
	}
	for _, p := range rep.problems {
		fmt.Fprintln(os.Stderr, "check failed:", p)
	}
	if rep.attempted == 0 {
		return errors.New("no query was attempted")
	}
	rep.extra("failed_frac", ratio(float64(rep.failed), float64(rep.attempted)), "ratio")
	for name, m := range rep.metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric %s is %v: too few queries completed", name, m.Value)
		}
	}
	if err := printReport(stdout, cfg, prov, rep); err != nil {
		return err
	}
	if err := writeRecord(cfg, prov, rep); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: run record not written:", err)
	}
	return nil
}

// summary is the JSON object on the last line of standard output.
type summary struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func printReport(w io.Writer, cfg runConfig, prov provenance, rep *report) error {
	fmt.Fprintf(w, "perfbench workload=%s seed=%d trace=%v seconds=%g\n",
		cfg.workload, cfg.seed, cfg.trace, cfg.seconds.Seconds())
	fmt.Fprintf(w, "provenance commit=%s source_sha256=%s go=%s gomaxprocs=%d nproc=%d cpu=%q\n",
		prov.Commit, prov.SourceSHA256, prov.GoVersion, prov.GOMAXPROCS, prov.NumCPU, prov.CPUModel)
	for _, group := range []struct {
		label string
		m     map[string]metric
	}{{"metric", rep.metrics}, {"extra", rep.extras}} {
		names := make([]string, 0, len(group.m))
		for n := range group.m {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Fprintf(w, "%-6s %-26s %16.6g %s\n", group.label, n, group.m[n].Value, group.m[n].Unit)
		}
	}
	out, err := json.Marshal(summary{
		Correct:   rep.failed == 0,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   rep.metrics,
	})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(out))
	return err
}

// writeRecord stores the run's provenance, metrics and raw samples (and,
// for a traced run, its spans) under .bench_build/perfbench-runs, so a
// number can always be traced back to the code and host that produced it.
func writeRecord(cfg runConfig, prov provenance, rep *report) error {
	dir := ".bench_build/perfbench-runs"
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	base := fmt.Sprintf("%s/%s-seed%d-trace%d-%s", dir, cfg.workload, cfg.seed, btoi(cfg.trace),
		time.Now().UTC().Format("20060102T150405.000000000"))
	rec := struct {
		Provenance provenance           `json:"provenance"`
		Attempted  int                  `json:"attempted"`
		Failed     int                  `json:"failed"`
		Problems   []string             `json:"problems,omitempty"`
		Metrics    map[string]metric    `json:"metrics"`
		Extras     map[string]metric    `json:"extras"`
		Samples    map[string][]float64 `json:"samples"`
	}{prov, rep.attempted, rep.failed, rep.problems, rep.metrics, rep.extras, rep.samples}
	data, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	if err := os.WriteFile(base+".json", data, 0o644); err != nil {
		return err
	}
	if len(rep.spans) == 0 {
		return nil
	}
	var sb strings.Builder
	enc := json.NewEncoder(&sb)
	for _, s := range rep.spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return os.WriteFile(base+"-spans.jsonl", []byte(sb.String()), 0o644)
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}
