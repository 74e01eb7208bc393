package bench

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"testing"
	"time"

	"hybrid/internal/faults"
	"hybrid/internal/httpd"
	"hybrid/internal/overload"
)

var updateKeys = flag.Bool("update", false, "rewrite testdata/keys.txt")

// The benchmark and the figure CLIs read counters by name, and
// Snapshot.Counter reads a missing key as 0, so a counter renamed or
// dropped in some registry would read as an idle layer, not fail. This
// pins every key each registry exposes, with its kind, on two sites: a
// plain-socket one, and one with every optional part configured (TCP,
// admission and breaker, lifecycle deadlines, a fault plan), so every
// conditionally registered key is listed under the condition that
// registers it. A deliberate change rewrites the file with -update.
func TestRegistryKeySet(t *testing.T) {
	full := testSpec()
	full.TCP = true
	full.Faults = &faults.Config{Seed: 1, Rate: 0.01}
	full.Server.Overload = &httpd.OverloadConfig{MaxConns: 8, Breaker: &overload.BreakerConfig{}}
	full.Server.Lifecycle = &httpd.LifecycleConfig{
		IdleTimeout: time.Second, HeaderTimeout: time.Second,
		BodyTimeout: time.Second, WriteStallTimeout: time.Second,
	}
	var b strings.Builder
	for _, site := range []struct {
		name string
		spec Spec
	}{{"plain", testSpec()}, {"full", full}} {
		s := NewSite(site.spec)
		snap := s.Snapshot()
		s.Close()
		keys := make([]string, 0, len(snap))
		for name, m := range snap {
			keys = append(keys, fmt.Sprintf("%s %s %s", site.name, name, m.Kind))
		}
		sort.Strings(keys)
		for _, k := range keys {
			b.WriteString(k + "\n")
		}
	}
	const golden = "testdata/keys.txt"
	if *updateKeys {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got := b.String(); got != string(want) {
		wl, gl := strings.Split(string(want), "\n"), strings.Split(got, "\n")
		inWant := map[string]bool{}
		for _, l := range wl {
			inWant[l] = true
		}
		inGot := map[string]bool{}
		for _, l := range gl {
			inGot[l] = true
			if !inWant[l] {
				t.Errorf("key added: %s", l)
			}
		}
		for _, l := range wl {
			if !inGot[l] {
				t.Errorf("key missing: %s", l)
			}
		}
		t.Fatalf("key set differs from %s (run with -update after a deliberate change)", golden)
	}
}
