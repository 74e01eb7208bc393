package bench

import (
	"bytes"
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

	"hybrid/internal/bufpool"
	"hybrid/internal/core"
	"hybrid/internal/faults"
	"hybrid/internal/httpd"
	"hybrid/internal/loadgen"
)

func testSpec() Spec {
	return Spec{Files: 32, FileBytes: 16 * 1024, Server: httpd.ServerConfig{CacheBytes: 4 << 20}}
}

func testLoad(s *Site) time.Duration {
	gen := loadgen.New(s.IO, loadgen.Config{
		Addr: Addr, Clients: 16, Files: 32, RequestsPerClient: 16, Seed: 3,
		RTT: 300 * time.Microsecond, Bandwidth: 100_000_000 / 8,
	})
	return s.Run(gen.Run())
}

// The construction-order contract the figures rely on, pinned where it
// now lives: two sites built from one spec and driven by one workload end
// in byte-identical -stats snapshots, under real parallelism. The cache
// starts cold, so the disk path and every FileOpen (a sys_blio call, one
// clock event each) are in the compared snapshot. kernel.segment_* is
// dropped: those four read the process-wide segment pool, so they run on
// from one site to the next and count the host collector's sync.Pool
// evictions.
func TestSiteSameSpecSameSnapshot(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	run := func() (time.Duration, []byte) {
		s := NewSite(testSpec())
		defer s.Close()
		virt := testLoad(s)
		s.Drain()
		snap := s.Snapshot()
		for k := range snap {
			if strings.HasPrefix(k, "kernel.segment_") {
				delete(snap, k)
			}
		}
		var js bytes.Buffer
		if err := snap.WriteJSON(&js); err != nil {
			t.Fatal(err)
		}
		return virt, js.Bytes()
	}
	virtA, a := run()
	virtB, b := run()
	if virtA != virtB || virtA <= 0 {
		t.Fatalf("virtual interval %v vs %v", virtA, virtB)
	}
	if !bytes.Equal(a, b) {
		la, lb := strings.Split(string(a), "\n"), strings.Split(string(b), "\n")
		for i := range min(len(la), len(lb)) {
			if la[i] != lb[i] {
				t.Fatalf("snapshots differ at line %d:\n%s\n%s", i+1, la[i], lb[i])
			}
		}
		t.Fatalf("snapshots differ in length: %d vs %d bytes", len(a), len(b))
	}
	for _, prefix := range []string{"sched.", "kernel.", "disk.", "httpd."} {
		if !bytes.Contains(a, []byte(`"`+prefix)) {
			t.Errorf("snapshot has no %s* key", prefix)
		}
	}
}

var errPlanted = errors.New("planted")

// The quiescence check names what it finds: each planted leak — a
// descriptor nobody closes, a pooled buffer or ring segment nobody
// returns, an exception nobody catches, a permanent thread that is gone —
// fails the arm that guards it and no other.
func TestQuiescenceNamesPlantedLeaks(t *testing.T) {
	for _, tc := range []struct {
		name  string
		plant func(s *Site) (undo func())
		want  string // "" for a clean report
	}{
		{"clean", func(*Site) func() { return func() {} }, ""},
		{"unclosed FD", func(s *Site) func() {
			fd, err := s.K.Listen("stray:1", 1)
			if err != nil {
				t.Fatal(err)
			}
			return func() { s.K.Close(fd) }
		}, "not quiescent: 2 open FDs (want 1)"},
		{"un-Put buffer", func(s *Site) func() {
			b := bufpool.Get(4096)
			return func() { bufpool.Put(b) }
		}, "pooled buffers outstanding (want "},
		{"un-Put segment", func(*Site) func() {
			b := bufpool.GetSeg()
			return func() { bufpool.PutSeg(b) }
		}, "ring segments outstanding (want "},
		{"uncaught exception", func(s *Site) func() {
			s.RT.Spawn(core.Throw[core.Unit](errPlanted))
			return func() {}
		}, "not quiescent: uncaught exceptions [planted]"},
		{"dead accept loop", func(s *Site) func() {
			s.rest.Threads++ // as if a second permanent thread had died
			return func() {}
		}, "not quiescent: 1 live threads (want 2)"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := NewSite(testSpec())
			defer s.Substrate.Close() // not Site.Close: the leak is the point
			s.Warm()
			testLoad(s)
			// Run returns once the workload's last effect has run, with
			// its thread not yet retired; a plant that raises the thread
			// floor would let Check stop waiting one thread early.
			s.RT.WaitLive(s.rest.Threads)
			defer tc.plant(s)()
			err := s.Quiescent()
			switch {
			case tc.want == "" && err != nil:
				t.Fatalf("clean site: %v", err)
			case tc.want == "":
			case err == nil:
				t.Fatal("planted leak not reported")
			case !strings.Contains(err.Error(), tc.want) || strings.Contains(err.Error(), ";"):
				t.Fatalf("report %q, want exactly the one arm %q", err, tc.want)
			}
		})
	}
}

// One leak, one report: Drain panics naming it, and the deferred Close the
// panic unwinds through neither waits out the drain again nor panics again.
func TestSiteReportsALeakOnce(t *testing.T) {
	s := NewSite(testSpec())
	fd, err := s.K.Listen("stray:1", 1)
	if err != nil {
		t.Fatal(err)
	}
	report := func(f func()) (msg string) {
		defer func() {
			if r := recover(); r != nil {
				msg = r.(string)
			}
		}()
		f()
		return ""
	}
	if msg := report(s.Drain); !strings.Contains(msg, "2 open FDs (want 1)") {
		t.Errorf("Drain reported %q, want the stray descriptor named", msg)
	}
	if msg := report(s.Close); msg != "" {
		t.Errorf("Close reported the leak again: %q", msg)
	}
	s.K.Close(fd)
}

// Figure 19's Apache column is the fault-free reference: under a plan that
// fails every kernel and disk operation the hybrid site carries the
// injector, and the baseline — which has no retry or degradation path —
// serves exactly what it serves without one.
func TestFig19BaselineIsFaultFree(t *testing.T) {
	cfg := Fig19Quick()
	cfg.Files, cfg.TotalRequests = 8, 32
	clean := Fig19Apache(cfg, 1)
	cfg.Faults = &faults.Config{Seed: 7, Rate: 1}
	if got := Fig19Apache(cfg, 1); got != clean || !(clean > 0) {
		t.Fatalf("baseline under the plan %v MB/s, without %v", got, clean)
	}
	s := NewSite(cfg.spec(httpd.ServerConfig{}))
	defer s.Close()
	if s.Faults == nil {
		t.Fatal("hybrid site lost the fault plan")
	}
}
