package core

import (
	"fmt"
	"sync"
	"testing"
	"unsafe"
)

// FuzzFrameModel builds random nests of Catch, Ensure, Finally and
// OnException around logged NBIO effects, Throw, Halt and Yield, runs
// each on a one-worker runtime, and checks the run against a direct-style
// evaluator of the same program: the effect log (every effect, handler
// run and cleanup run, in order), the uncaught exception, and how many
// Ensure cleanups ran on the abort path. It is the oracle for the frame
// stack's one rule: a frame runs its cleanup when it is popped or
// unwound past, unwinding stops at the first frame with a handler, and
// the frames a dying thread leaves pushed run their cleanups LIFO.
func FuzzFrameModel(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{frameEnsure, frameThrow})
	f.Add([]byte{frameEnsure, frameEnsure, frameHalt})
	f.Add([]byte{frameCatch, frameEnsure, frameThrow, frameEff})
	f.Add([]byte{frameSeq, 3, frameEnsure, frameYield, frameFinally, frameThrow, frameOnExc, frameEff})
	f.Add([]byte{frameCatch, frameSeq, 2, frameEnsure, frameThrow, frameEff, frameEnsure, frameHalt})
	f.Add([]byte{frameOnExc, frameFinally, frameEnsure, frameCatch, frameThrow, frameThrow})
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
	frameSeq            // Seq of the next byte's count of kids (at most 4)
	frameCatch          // Catch(kid, handler logging the error, then kid)
	frameEnsure         // Ensure(logged cleanup, kid)
	frameFinally        // Finally(kid, logged effect)
	frameOnExc          // OnException(kid, logged effect)
	frameOps
)

// frameProg is the generator's AST; id names a node in the logs and in
// its exception.
type frameProg struct {
	op   byte
	id   int
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
	case frameSeq:
		kids = int(r.next() % 5)
	case frameCatch:
		kids = 2
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
	kid := func(i int) M[Unit] { return renderFrameProg(p.kids[i], log) }
	switch p.op {
	case frameEff:
		return logDo("e%d", p.id)
	case frameThrow:
		return Throw[Unit](frameErr(p.id))
	case frameHalt:
		return Halt[Unit]()
	case frameYield:
		return Yield()
	case frameSeq:
		ms := make([]M[Unit], len(p.kids))
		for i := range ms {
			ms[i] = kid(i)
		}
		return Seq(ms...)
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
// ForN body, an Ensure(f, Skip) costs its closure, its CatchNode, the
// continuation that pops it and the PopCatchNode — no cleanup-stack
// nodes of its own. The thread's frame stack grows once per run, 0.01 a
// round.
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

// TestTCBFootprint pins the thread control block at the paper's §5.1
// state, the trace and one frame stack: a second per-thread stack or
// another field moves it out of the 48-byte size class, and every parked
// thread in cmd/memtest pays for it.
func TestTCBFootprint(t *testing.T) {
	if got := unsafe.Sizeof(TCB{}); got > 48 {
		t.Errorf("TCB is %d bytes, budget 48", got)
	}
}
