package core

import (
	"fmt"
	"sync"
	"testing"
	"unsafe"
)

// FuzzFrameModel builds random nests of Catch, Ensure, Finally,
// OnException, Seq and RepeatN around logged NBIO effects, Throw, a throw
// on one run of several, Halt and Yield, runs each on a one-worker
// runtime, and checks the run against a direct-style evaluator of the
// same program: the effect log (every effect, handler run and cleanup
// run, in order), the uncaught exception, and how many Ensure cleanups ran
// on the abort path. It is the oracle for the frame stack's one rule: a
// frame runs its cleanup when it is popped or unwound past, unwinding
// stops at the first frame with a handler, and the frames a dying thread
// leaves pushed run their cleanups LIFO. RepeatN re-forces its body's
// trace, so frames, their records and the fused spines are also checked
// in a trace replayed after a throw left it part-way.
func FuzzFrameModel(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{frameEnsure, frameThrow})
	f.Add([]byte{frameEnsure, frameEnsure, frameHalt})
	f.Add([]byte{frameCatch, frameEnsure, frameThrow, frameEff})
	f.Add([]byte{frameSeq, 3, frameEnsure, frameYield, frameFinally, frameThrow, frameOnExc, frameEff})
	f.Add([]byte{frameCatch, frameSeq, 2, frameEnsure, frameThrow, frameEff, frameEnsure, frameHalt})
	f.Add([]byte{frameOnExc, frameFinally, frameEnsure, frameCatch, frameThrow, frameThrow})
	// RepeatN(2, Catch(Seq(a, b, c), h)), b throwing in round 1, and
	// RepeatN(2, Catch(RepeatN(3, s), h)), the second s throwing: the
	// fused spines once resumed such a replay mid-pass (a h a c; s h s s).
	// Then a Finally whose cleanup trace, kept from an exit by value, is
	// re-forced for an exception.
	f.Add([]byte{frameRepeat, 1, frameCatch, frameSeq, 3, frameEff, frameNth, 0, frameEff, frameEff})
	f.Add([]byte{frameRepeat, 1, frameCatch, frameRepeat, 2, frameNth, 1, frameEff})
	f.Add([]byte{frameRepeat, 2, frameFinally, frameSeq, 2, frameNth, 1, frameYield})
	f.Fuzz(func(t *testing.T, data []byte) {
		r := &fuzzReader{data: data}
		prog := parseFrameProg(r, 0)

		var want frameModel
		if res := want.eval(prog); res.kind == frameThrew {
			want.uncaught = []error{frameErr(res.err)}
		}

		rt := NewRuntime(Options{Workers: 1, BatchSteps: 2})
		defer rt.Shutdown()
		var mu sync.Mutex
		var got frameModel
		rt.Run(renderFrameProg(prog, func(s string) {
			mu.Lock()
			got.log = append(got.log, s)
			mu.Unlock()
		}))
		got.uncaught = rt.UncaughtErrors()
		got.aborts = int(rt.Stats().Snapshot().Counter("abort_cleanups"))

		if fmt.Sprint(got.log) != fmt.Sprint(want.log) {
			t.Fatalf("effect logs differ\nruntime %v\nmodel   %v", got.log, want.log)
		}
		if fmt.Sprint(got.uncaught) != fmt.Sprint(want.uncaught) {
			t.Fatalf("uncaught %v, model %v", got.uncaught, want.uncaught)
		}
		if got.aborts != want.aborts {
			t.Fatalf("abort_cleanups = %d, model %d", got.aborts, want.aborts)
		}
	})
}

const (
	frameEff     = iota // logged NBIO effect
	frameThrow          // Throw
	frameHalt           // Halt
	frameYield          // Yield
	frameNth            // logged NBIO effect that throws on its n-th run instead (n from the next byte, 1–3)
	frameSeq            // Seq of the next byte's count of kids (at most 4)
	frameCatch          // Catch(kid, handler logging the error, then kid)
	frameEnsure         // Ensure(logged cleanup, kid)
	frameFinally        // Finally(kid, logged effect)
	frameOnExc          // OnException(kid, logged effect)
	frameRepeat         // RepeatN(n, kid), n from the next byte (1–3)
	frameOps
)

// frameProg is the generator's AST; id names a node in the logs and in
// its exception, and n is frameNth's run and frameRepeat's count.
type frameProg struct {
	op   byte
	id   int
	n    int
	kids []frameProg
}

type frameErr int

func (e frameErr) Error() string { return fmt.Sprintf("err%d", int(e)) }

func parseFrameProg(r *fuzzReader, depth int) frameProg {
	r.ops++
	p := frameProg{op: r.next() % frameOps, id: r.ops}
	if depth > 6 || r.ops > 48 {
		p.op %= frameSeq // a leaf
	}
	kids := 0
	switch p.op {
	case frameNth:
		p.n = int(r.next()%3) + 1
	case frameSeq:
		kids = int(r.next() % 5)
	case frameCatch:
		kids = 2
	case frameRepeat:
		p.n = int(r.next()%3) + 1
		kids = 1
	case frameEnsure, frameFinally, frameOnExc:
		kids = 1
	}
	for i := 0; i < kids; i++ {
		p.kids = append(p.kids, parseFrameProg(r, depth+1))
	}
	return p
}

func renderFrameProg(p frameProg, log func(string)) M[Unit] {
	logDo := func(format string, args ...any) M[Unit] {
		return Do(func() { log(fmt.Sprintf(format, args...)) })
	}
	kids := make([]M[Unit], len(p.kids))
	for i := range kids {
		kids[i] = renderFrameProg(p.kids[i], log)
	}
	kid := func(i int) M[Unit] { return kids[i] }
	switch p.op {
	case frameEff:
		return logDo("e%d", p.id)
	case frameNth:
		runs := 0
		return NBIOe(func() (Unit, error) {
			if runs++; runs == p.n {
				return Unit{}, frameErr(p.id)
			}
			log(fmt.Sprintf("e%d", p.id))
			return Unit{}, nil
		})
	case frameRepeat:
		return RepeatN(p.n, kid(0))
	case frameThrow:
		return Throw[Unit](frameErr(p.id))
	case frameHalt:
		return Halt[Unit]()
	case frameYield:
		return Yield()
	case frameSeq:
		return Seq(kids...)
	case frameCatch:
		return Catch(kid(0), func(err error) M[Unit] {
			return Then(logDo("h%d:%v", p.id, err), kid(1))
		})
	case frameEnsure:
		return Ensure(func() { log(fmt.Sprintf("c%d", p.id)) }, kid(0))
	case frameFinally:
		return Finally(kid(0), logDo("f%d", p.id))
	default: // frameOnExc
		return OnException(kid(0), logDo("o%d", p.id))
	}
}

// frameModel evaluates a frameProg in direct style: a Go call per node,
// with the outcome — normal, thrown, or halted — returned, not unwound.
type frameModel struct {
	log      []string
	uncaught []error
	aborts   int
	runs     map[int]int // frameNth's runs, by id
}

const (
	frameOK = iota
	frameThrew
	frameHalted
)

type frameResult struct{ kind, err int }

func (m *frameModel) eval(p frameProg) frameResult {
	switch p.op {
	case frameEff:
		m.log = append(m.log, fmt.Sprintf("e%d", p.id))
	case frameNth:
		if m.runs == nil {
			m.runs = map[int]int{}
		}
		if m.runs[p.id]++; m.runs[p.id] == p.n {
			return frameResult{frameThrew, p.id}
		}
		m.log = append(m.log, fmt.Sprintf("e%d", p.id))
	case frameRepeat:
		for i := 0; i < p.n; i++ {
			if res := m.eval(p.kids[0]); res.kind != frameOK {
				return res
			}
		}
	case frameThrow:
		return frameResult{frameThrew, p.id}
	case frameHalt:
		return frameResult{kind: frameHalted}
	case frameSeq:
		for _, k := range p.kids {
			if res := m.eval(k); res.kind != frameOK {
				return res
			}
		}
	case frameCatch:
		res := m.eval(p.kids[0])
		if res.kind != frameThrew {
			return res
		}
		m.log = append(m.log, fmt.Sprintf("h%d:%v", p.id, frameErr(res.err)))
		return m.eval(p.kids[1])
	case frameEnsure:
		// Runs on every exit; a halt leaves the frame pushed, so its
		// cleanup runs at thread death, innermost first, and counts as
		// an abort.
		res := m.eval(p.kids[0])
		m.log = append(m.log, fmt.Sprintf("c%d", p.id))
		if res.kind == frameHalted {
			m.aborts++
		}
		return res
	case frameFinally:
		res := m.eval(p.kids[0])
		if res.kind != frameHalted {
			m.log = append(m.log, fmt.Sprintf("f%d", p.id))
		}
		return res
	case frameOnExc:
		res := m.eval(p.kids[0])
		if res.kind == frameThrew {
			m.log = append(m.log, fmt.Sprintf("o%d", p.id))
		}
		return res
	}
	return frameResult{}
}

// TestAllocEnsure pins Ensure at its one frame: applied and run inside a
// ForN body, an Ensure(f, Skip) costs its closure, its CatchNode, its
// record and the body's continuation — no cleanup-stack nodes of its own,
// and nothing for its exit (before the record, its closure, its
// CatchNode, the continuation that popped it and a PopCatchNode). The
// thread's frame stack grows once per run, 0.01 a round.
func TestAllocEnsure(t *testing.T) {
	rt := NewRuntime(Options{Workers: 1})
	t.Cleanup(rt.Shutdown)
	const iters = 100
	n := 0
	cleanup := func() { n++ }
	run := func(body func(int) M[Unit]) float64 {
		return testing.AllocsPerRun(10, func() { rt.Run(ForN(iters, body)) })
	}
	bare := run(func(int) M[Unit] { return Skip })
	ensured := run(func(int) M[Unit] { return Ensure(cleanup, Skip) })
	if n != 11*iters {
		t.Fatalf("cleanup ran %d times, want %d", n, 11*iters)
	}
	if per := (ensured - bare) / iters; per > 4.05 {
		t.Fatalf("Ensure costs %.2f allocs per application and run, want <= 4", per)
	}
}

// TestAllocFrameReplay pins the frame records: inside a cached RepeatN
// body, Catch, Ensure, Finally and OnException are applied with the body,
// and every later round re-forces them — their pushes, their exits by
// value, a Finally left by an exception and the Catch that takes it, and
// the Finally cleanups applied at the first exit — at zero allocations.
// While every exit built a pop node, and every Finally exit re-applied
// its cleanup and the composition around it, a round cost 29.
func TestAllocFrameReplay(t *testing.T) {
	rt := NewRuntime(Options{Workers: 1})
	t.Cleanup(rt.Shutdown)
	n := 0
	tick := Do(func() { n++ })
	body := Seq(
		Catch(Finally(Throw[Unit](frameErr(1)), tick), func(error) M[Unit] { return Skip }),
		Ensure(func() { n++ }, tick),
		Finally(tick, tick),
		OnException(tick, tick),
	)
	run := func(rounds int) float64 {
		return testing.AllocsPerRun(10, func() {
			n = 0
			rt.Run(RepeatN(rounds, body))
			if n != 6*rounds {
				t.Fatalf("%d effects in %d rounds, want %d", n, rounds, 6*rounds)
			}
		})
	}
	// Two rounds apply everything RepeatN applies; the rest re-force it.
	const more = 400
	if per := (run(2+more) - run(2)) / more; per > 0.01 {
		t.Fatalf("a replayed round of frames allocates %.3f, want 0", per)
	}
}

// TestTCBFootprint pins the thread control block at the paper's §5.1
// state, the trace and one frame stack: a second per-thread stack or
// another field moves it out of the 48-byte size class, and every parked
// thread in cmd/memtest pays for it.
func TestTCBFootprint(t *testing.T) {
	if got := unsafe.Sizeof(TCB{}); got > 48 {
		t.Errorf("TCB is %d bytes, budget 48", got)
	}
}
