package tracecheck

import (
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"hybrid/internal/netsim"
	"hybrid/internal/tcp"
)

var update = flag.Bool("update", false, "rewrite the golden trace files")

// wan is the lossy-WAN link the recovery scenarios run on: modest
// bandwidth and a real RTT, so windows grow over several round trips and
// recovery episodes span many ACKs.
func wan() netsim.LinkParams {
	return netsim.LinkParams{Bandwidth: 10_000_000 / 8, Latency: 2 * time.Millisecond}
}

// recoveryCfg shortens the timers so RTO episodes fit a short trace.
func recoveryCfg() tcp.Config {
	return tcp.Config{
		RTOMin:     50 * time.Millisecond,
		InitialRTO: 100 * time.Millisecond,
		MaxRetries: 16,
	}
}

// scenarios is the conformance suite. The reno-* traces pin the legacy
// state machine (SACK off, Reno controller — the byte-identity oracle for
// refactors); the newreno-*, sack-*, and cubic-* traces pin the recovery
// extensions.
func scenarios() []Scenario {
	withSack := func(c tcp.Config) tcp.Config { c.SACK = true; return c }
	withNewReno := func(c tcp.Config) tcp.Config { c.NewReno = true; return c }
	withCubic := func(c tcp.Config) tcp.Config { c.Controller = "cubic"; return c }
	return []Scenario{
		// C→S packet indices: 0 = SYN, 1 = handshake ACK, 2... = data.
		{Name: "reno-clean", Cfg: recoveryCfg(), Link: wan(), Seed: 1, SendBytes: 8 * 1024},
		{Name: "reno-single-drop", Cfg: recoveryCfg(), Link: wan(), Seed: 1,
			SendBytes: 64 * 1024, DropC2S: []uint64{6}},
		{Name: "reno-burst-drop", Cfg: recoveryCfg(), Link: wan(), Seed: 1,
			SendBytes: 64 * 1024, DropC2S: []uint64{10, 11, 12}},
		{Name: "reno-rto-backoff", Cfg: recoveryCfg(), Link: wan(), Seed: 1,
			SendBytes: 2 * 1024, DropC2S: []uint64{2, 3}},
		{Name: "reno-ack-loss", Cfg: recoveryCfg(), Link: wan(), Seed: 1,
			SendBytes: 32 * 1024, DropS2C: []uint64{3, 4}},
		{Name: "reno-reorder", Cfg: recoveryCfg(), Link: reorderLink(), Seed: 3,
			SendBytes: 32 * 1024},
		{Name: "newreno-burst-drop", Cfg: withNewReno(recoveryCfg()), Link: wan(), Seed: 1,
			SendBytes: 64 * 1024, DropC2S: []uint64{10, 11, 12}},
		{Name: "sack-single-drop", Cfg: withSack(recoveryCfg()), Link: wan(), Seed: 1,
			SendBytes: 64 * 1024, DropC2S: []uint64{6}},
		{Name: "sack-burst-drop", Cfg: withSack(recoveryCfg()), Link: wan(), Seed: 1,
			SendBytes: 64 * 1024, DropC2S: []uint64{10, 11, 12}},
		{Name: "sack-multi-hole", Cfg: withSack(recoveryCfg()), Link: wan(), Seed: 1,
			SendBytes: 64 * 1024, DropC2S: []uint64{8, 12, 16}},
		{Name: "sack-cubic-burst-drop", Cfg: withCubic(withSack(recoveryCfg())), Link: wan(), Seed: 1,
			SendBytes: 64 * 1024, DropC2S: []uint64{10, 11, 12}},
	}
}

func reorderLink() netsim.LinkParams {
	l := wan()
	l.ReorderProb = 0.25
	return l
}

func TestTraceConformance(t *testing.T) {
	for _, sc := range scenarios() {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			res, err := Run(sc)
			if err != nil {
				t.Fatalf("scenario failed: %v", err)
			}
			got := strings.Join(res.Lines, "\n") + "\n"
			path := filepath.Join("testdata", sc.Name+".golden")
			if *update {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				t.Logf("wrote %s (%d lines)", path, len(res.Lines))
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden (run with -update to generate): %v", err)
			}
			if got != string(want) {
				t.Fatalf("trace diverged from %s\n%s", path, diff(string(want), got))
			}
		})
	}
}

// TestTraceReplayIsDeterministic runs every scenario twice in-process and
// requires identical traces — the in-memory half of the "passes twice in a
// row" conformance gate (the Makefile runs the whole suite twice for the
// cross-process half).
func TestTraceReplayIsDeterministic(t *testing.T) {
	for _, sc := range scenarios() {
		a, err := Run(sc)
		if err != nil {
			t.Fatalf("%s: %v", sc.Name, err)
		}
		b, err := Run(sc)
		if err != nil {
			t.Fatalf("%s replay: %v", sc.Name, err)
		}
		if strings.Join(a.Lines, "\n") != strings.Join(b.Lines, "\n") {
			t.Fatalf("%s: trace differs between identical runs", sc.Name)
		}
		if !reflect.DeepEqual(a.Client, b.Client) || !reflect.DeepEqual(a.Server, b.Server) || a.Elapsed != b.Elapsed {
			t.Fatalf("%s: counters or finish time differ between identical runs", sc.Name)
		}
	}
}

// diff renders the first divergence between two traces with context.
func diff(want, got string) string {
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := 0; i < len(w) || i < len(g); i++ {
		line := func(s []string) string {
			if i < len(s) {
				return s[i]
			}
			return "<end of trace>"
		}
		if line(w) != line(g) {
			start := i - 3
			if start < 0 {
				start = 0
			}
			var b strings.Builder
			for j := start; j < i; j++ {
				b.WriteString("  " + w[j] + "\n")
			}
			b.WriteString("- " + line(w) + "\n")
			b.WriteString("+ " + line(g) + "\n")
			return b.String()
		}
	}
	return "traces identical?"
}
