package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"

	flex "flexdp"
	"flexdp/internal/engine"
	"flexdp/internal/smooth"
)

// released is the part of a flex.PrivateResult the output checks need,
// kept instead of the whole result so the run does not retain analyses.
type released struct {
	sql        string
	columns    []string
	outputs    int
	rows       []flex.PrivateRow
	trueRows   [][]float64
	enumerated bool
}

func keep(sql string, res *flex.PrivateResult) released {
	return released{sql, res.Columns, len(res.Analysis.OutputNames), res.Rows, res.TrueRows, res.BinsEnumerated}
}

// checkReleased compares a released result with the engine's own answer to
// the same SQL: the true aggregates must equal the engine's, bin for bin
// (zero for enumerated bins the engine did not return), and every released
// value must be finite. Noisy values are never compared with anything
// fixed: they depend on the sampler.
func checkReleased(r released, rs *engine.ResultSet) error {
	nb := len(r.columns) - r.outputs
	if nb < 0 {
		return fmt.Errorf("%d columns for %d outputs", len(r.columns), r.outputs)
	}
	pos := make([]int, len(r.columns))
	used := make([]bool, len(rs.Columns))
	for i, c := range r.columns {
		pos[i] = -1
		for j, ec := range rs.Columns {
			if !used[j] && strings.EqualFold(ec, c) {
				pos[i], used[j] = j, true
				break
			}
		}
		if pos[i] < 0 {
			return fmt.Errorf("released column %q not in the engine result %v", c, rs.Columns)
		}
	}
	byBin := make(map[string][]float64, len(rs.Rows))
	for _, row := range rs.Rows {
		bins := make([]any, nb)
		for i := range bins {
			bins[i] = plain(row[pos[i]])
		}
		vals := make([]float64, r.outputs)
		for i := range vals {
			v := row[pos[nb+i]]
			switch v.Kind {
			case engine.KindInt, engine.KindFloat:
				vals[i] = v.AsFloat()
			case engine.KindNull:
				vals[i] = 0
			default:
				return fmt.Errorf("aggregate %q is %v", r.columns[nb+i], v.Kind)
			}
		}
		byBin[binKey(bins)] = vals
	}
	if len(r.rows) != len(r.trueRows) {
		return fmt.Errorf("%d released rows but %d true rows", len(r.rows), len(r.trueRows))
	}
	seen := 0
	for i, row := range r.rows {
		for _, v := range row.Values {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("released value %v is not finite", v)
			}
		}
		want, ok := byBin[binKey(row.Bins)]
		if ok {
			seen++
		} else if r.enumerated {
			want = make([]float64, r.outputs)
		} else {
			return fmt.Errorf("released bin %v not in the engine result", row.Bins)
		}
		if len(r.trueRows[i]) != len(want) {
			return fmt.Errorf("bin %v: %d true values, engine has %d", row.Bins, len(r.trueRows[i]), len(want))
		}
		for j := range want {
			if r.trueRows[i][j] != want[j] {
				return fmt.Errorf("bin %v output %d: true value %v, engine %v", row.Bins, j, r.trueRows[i][j], want[j])
			}
		}
	}
	if seen != len(byBin) {
		return fmt.Errorf("engine returned %d bins, %d released", len(byBin), seen)
	}
	return nil
}

// plain converts an engine value to the Go value flex releases as a bin.
func plain(v engine.Value) any {
	switch v.Kind {
	case engine.KindInt:
		return v.Int
	case engine.KindFloat:
		return v.Float
	case engine.KindString:
		return v.Str
	case engine.KindBool:
		return v.Bool
	}
	return nil
}

func binKey(bins []any) string {
	parts := make([]string, len(bins))
	for i, b := range bins {
		parts[i] = fmt.Sprintf("%T:%v", b, b)
	}
	return strings.Join(parts, "\x00")
}

// checkAll runs the engine on every released query once per distinct SQL
// and checks each release against it.
func checkAll(rep *report, eng *engine.DB, rs []released) {
	answers := make(map[string]*engine.ResultSet)
	for _, r := range rs {
		ans, ok := answers[r.sql]
		if !ok {
			var err error
			if ans, err = eng.Query(r.sql); err != nil {
				rep.fail("engine query %q: %v", r.sql, err)
				continue
			}
			answers[r.sql] = ans
		}
		if err := checkReleased(r, ans); err != nil {
			rep.fail("%q: %v", r.sql, err)
		}
	}
}

// The golden digests pin, for a fixed probe set per workload, every
// query's per-output (Ŝ(0), S, ArgK) from System.SmoothBound. These are
// deterministic functions of the SQL and the metrics; a change to them is
// a change to what FLEX computes, not to how fast.

//go:embed golden.json
var goldenJSON []byte

// goldenEntry holds one digest per probe query, over its SQL text and its
// per-output (Ŝ(0), S, ArgK).
type goldenEntry struct {
	Seed    int64    `json:"seed"`
	Digests []string `json:"digests"`
}

// goldenSeed seeds the probe sets; no workload run uses it by default.
const goldenSeed = 424242

// goldenProbes builds each workload's probe set: a fresh set-up at the
// golden seed and the first queries of its stream.
var goldenProbes = map[string]func() (*env, []string, error){
	"cold-analysis": func() (*env, []string, error) { return closedProbes(coldSpec, 64) },
	"paper-corpus":  func() (*env, []string, error) { return closedProbes(corpusSpec, 100) },
	"proxy-mixed":   proxyProbes,
}

func closedProbes(spec closedSpec, n int) (*env, []string, error) {
	e, err := spec.setup(goldenSeed)
	if err != nil {
		return nil, nil, err
	}
	next, err := spec.stream(goldenSeed)
	if err != nil {
		return nil, nil, err
	}
	sqls := make([]string, n)
	for i := range sqls {
		sqls[i] = next()
	}
	return e, sqls, nil
}

// boundsDigests computes the digest of each probe query's smooth bounds.
func boundsDigests(e *env, sqls []string) ([]string, error) {
	p := smooth.PrivacyParams{Epsilon: epsilon, Delta: e.delta}
	f := func(x float64) string { return strconv.FormatFloat(x, 'g', -1, 64) }
	out := make([]string, len(sqls))
	for qi, sql := range sqls {
		a, err := e.sys.Analyze(sql)
		if err != nil {
			return nil, fmt.Errorf("analyze %q: %w", sql, err)
		}
		s0, err := e.sys.SensitivityAt(a, 0)
		if err != nil {
			return nil, fmt.Errorf("sensitivity of %q: %w", sql, err)
		}
		h := sha256.New()
		fmt.Fprintln(h, sql)
		for i := range a.OutputNames {
			sb, err := e.sys.SmoothBound(a, i, p)
			if err != nil {
				return nil, fmt.Errorf("smooth bound of %q: %w", sql, err)
			}
			fmt.Fprintf(h, "%d %s %s %d\n", i, f(s0[i]), f(sb.S), sb.ArgK)
		}
		out[qi] = hex.EncodeToString(h.Sum(nil))[:16]
	}
	return out, nil
}

// checkGolden recomputes the workload's probe digests and compares them
// with golden.json; each query whose digest differs is one failed check.
func checkGolden(rep *report, workload string) {
	var golden map[string]goldenEntry
	if err := json.Unmarshal(goldenJSON, &golden); err != nil {
		rep.fail("golden.json: %v", err)
		return
	}
	want, ok := golden[workload]
	if !ok {
		rep.fail("golden.json has no entry for %s", workload)
		return
	}
	e, sqls, err := goldenProbes[workload]()
	if err != nil {
		rep.fail("golden probes: %v", err)
		return
	}
	got, err := boundsDigests(e, sqls)
	if err != nil {
		rep.fail("golden probes: %v", err)
		return
	}
	if len(got) != len(want.Digests) {
		rep.fail("%d golden probes, golden.json has %d", len(got), len(want.Digests))
		return
	}
	for i := range got {
		if got[i] != want.Digests[i] {
			rep.fail("golden probe %d %q: bounds digest %s, want %s", i, sqls[i], got[i], want.Digests[i])
		}
	}
}

// writeGolden regenerates golden.json. Run it only when a change is meant
// to alter the bounds FLEX computes, and say so in the change.
func writeGolden(path string) error {
	out := make(map[string]goldenEntry)
	for name, probes := range goldenProbes {
		e, sqls, err := probes()
		if err != nil {
			return err
		}
		d, err := boundsDigests(e, sqls)
		if err != nil {
			return err
		}
		out[name] = goldenEntry{Seed: goldenSeed, Digests: d}
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
