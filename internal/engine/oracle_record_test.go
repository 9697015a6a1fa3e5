//go:build digestgen

package engine

import (
	"fmt"
	"os"
	"testing"
)

// Built only with -tags digestgen: the suites record reference digests
// instead of checking them, and the run rewrites the digest file.

func init() { recordDigests = true }

func TestMain(m *testing.M) {
	code := m.Run()
	if code == 0 {
		if err := writeDigests(digestFile); err != nil {
			fmt.Fprintln(os.Stderr, "writing reference digests:", err)
			code = 1
		}
	}
	os.Exit(code)
}
