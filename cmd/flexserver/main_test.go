package main

import (
	"bytes"
	"log/slog"
	"strconv"
	"strings"
	"testing"
)

// TestResolveSeed is the flag-level regression test for the default seed:
// -seed 0 must draw a fresh seed per process (two resolutions differ, so two
// servers never replay one noise stream), a nonzero -seed passes through
// unchanged, and the log names the mode but never the seed.
func TestResolveSeed(t *testing.T) {
	var logs bytes.Buffer
	logger := slog.New(slog.NewJSONHandler(&logs, nil))

	a, err := resolveSeed(0, logger)
	if err != nil {
		t.Fatal(err)
	}
	b, err := resolveSeed(0, logger)
	if err != nil {
		t.Fatal(err)
	}
	if a == b {
		t.Fatalf("-seed 0 resolved to %d twice; each process needs a fresh seed", a)
	}
	if got, err := resolveSeed(42, logger); err != nil || got != 42 {
		t.Fatalf("-seed 42 resolved to %d, %v; want 42 unchanged", got, err)
	}

	out := logs.String()
	if !strings.Contains(out, "crypto/rand") || !strings.Contains(out, "fixed seed") {
		t.Errorf("log does not name both noise-source modes:\n%s", out)
	}
	for _, s := range []int64{a, b} {
		if strings.Contains(out, strconv.FormatInt(s, 10)) {
			t.Errorf("log leaks the drawn seed %d:\n%s", s, out)
		}
	}
}
