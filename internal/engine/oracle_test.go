package engine

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"testing"
)

// Recorded-digest oracle for the differential suites. Each reference-checked
// query has one SHA-256 in testdata/reference_digests.txt, keyed by
// "<test>/<label>/q<index>" and taken over the result's column names and each
// row's AppendRow encoding (float bits exact). The committed file was
// recorded from the reference configuration of the retired materialized,
// row-at-a-time executor (one worker, no memory budget), so every suite still
// checks the streaming executor against that executor's results without
// carrying a copy of its code.
//
// To regenerate after an intentional change of query semantics, run the
// whole package with the digestgen build tag:
//
//	go test -tags digestgen ./internal/engine
//
// which records every suite's serial, unbudgeted result (referenceConfig)
// instead of checking it, then rewrites the file at the end of the run.

const digestFile = "testdata/reference_digests.txt"

// recordDigests is set by the digestgen build (oracle_record_test.go).
var recordDigests bool

var (
	digestMu     sync.Mutex
	digestLoaded map[string]string
	digestSeen   = map[string]string{}
)

// resultDigest hashes a result set's exact content: column names, then each
// row's AppendRow encoding, all length-prefixed so no two results collide by
// concatenation.
func resultDigest(rs *ResultSet) string {
	h := sha256.New()
	var buf []byte
	buf = binary.AppendUvarint(buf, uint64(len(rs.Columns)))
	for _, c := range rs.Columns {
		buf = binary.AppendUvarint(buf, uint64(len(c)))
		buf = append(buf, c...)
	}
	buf = binary.AppendUvarint(buf, uint64(len(rs.Rows)))
	h.Write(buf)
	for _, row := range rs.Rows {
		buf = AppendRow(buf[:0], row)
		h.Write(buf)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// referenceConfig is the configuration reference digests are recorded under:
// one worker and no memory budget, keeping the database's morsel setting.
func referenceConfig(base ExecConfig) ExecConfig {
	base.Parallelism = 1
	base.MemoryBudget = 0
	return base
}

// referenceDigest returns the recorded digest for key. In a digestgen build
// it instead runs sql under referenceConfig and records the result's digest.
func referenceDigest(t *testing.T, db *DB, key, sql string) string {
	t.Helper()
	digestMu.Lock()
	defer digestMu.Unlock()
	if recordDigests {
		base := db.ExecConfig()
		db.SetExecConfig(referenceConfig(base))
		rs, err := db.Query(sql)
		db.SetExecConfig(base)
		if err != nil {
			t.Fatalf("%s reference %s: %v", key, sql, err)
		}
		d := resultDigest(rs)
		digestSeen[key] = d
		return d
	}
	if digestLoaded == nil {
		m, err := readDigests(digestFile)
		if err != nil {
			t.Fatalf("reading reference digests: %v", err)
		}
		digestLoaded = m
	}
	d, ok := digestLoaded[key]
	if !ok {
		t.Fatalf("%s: no recorded reference digest for %s (regenerate with -tags digestgen)", key, sql)
	}
	return d
}

func readDigests(path string) (map[string]string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	m := make(map[string]string)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		d, key, ok := strings.Cut(line, " ")
		if !ok {
			return nil, fmt.Errorf("malformed digest line %q", line)
		}
		m[key] = d
	}
	return m, sc.Err()
}

// writeDigests writes every digest recorded in this run, sorted by key.
func writeDigests(path string) error {
	keys := make([]string, 0, len(digestSeen))
	for k := range digestSeen {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteString("# SHA-256 reference digests: <digest> <test>/<label>/q<index>. See oracle_test.go.\n")
	for _, k := range keys {
		fmt.Fprintf(&b, "%s %s\n", digestSeen[k], k)
	}
	return os.WriteFile(path, []byte(b.String()), 0o644)
}

// runDifferential checks every query of one database against its recorded
// reference digest across the execution grid: workers {1, 2, 8} × memory
// budget {unbounded, 512 B}, at the database's morsel setting.
func runDifferential(t *testing.T, db *DB, queries []string, label string) {
	t.Helper()
	base := db.ExecConfig()
	defer db.SetExecConfig(base)
	for i, sql := range queries {
		key := fmt.Sprintf("%s/%s/q%02d", t.Name(), label, i)
		want := referenceDigest(t, db, key, sql)
		for _, workers := range []int{1, 2, 8} {
			for _, budget := range []int64{0, 512} {
				cfg := base
				cfg.Parallelism = workers
				cfg.MemoryBudget = budget
				db.SetExecConfig(cfg)
				got, err := db.Query(sql)
				if err != nil {
					t.Fatalf("%s workers=%d budget=%d %s: %v", key, workers, budget, sql, err)
				}
				if d := resultDigest(got); d != want {
					t.Fatalf("%s workers=%d budget=%d %s: result digest %s, reference %s",
						key, workers, budget, sql, d, want)
				}
			}
		}
	}
}
