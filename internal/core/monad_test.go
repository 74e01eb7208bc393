package core

import (
	"sync"
	"testing"
	"testing/quick"
)

// run executes a single program in a fresh single-worker runtime and waits
// for every thread to finish.
func run(t *testing.T, m M[Unit]) *Runtime {
	t.Helper()
	rt := NewRuntime(Options{Workers: 1})
	t.Cleanup(rt.Shutdown)
	rt.Run(m)
	return rt
}

// logger collects values appended by threads; the observable effect log
// used to compare programs.
type logger struct {
	mu sync.Mutex
	xs []int
}

func (l *logger) add(x int) M[Unit] {
	return Do(func() { l.put(x) })
}

func (l *logger) put(x int) {
	l.mu.Lock()
	l.xs = append(l.xs, x)
	l.mu.Unlock()
}

func (l *logger) values() []int {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]int, len(l.xs))
	copy(out, l.xs)
	return out
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// observe runs a computation and returns its result plus the effect log.
func observe[A any](t *testing.T, mk func(l *logger) M[A]) (A, []int) {
	t.Helper()
	var (
		l      logger
		result A
	)
	run(t, Bind(mk(&l), func(a A) M[Unit] {
		return Do(func() { result = a })
	}))
	return result, l.values()
}

func TestReturnYieldsValue(t *testing.T) {
	got, _ := observe(t, func(*logger) M[int] { return Return(42) })
	if got != 42 {
		t.Fatalf("Return(42) produced %d", got)
	}
}

func TestBindSequencesEffects(t *testing.T) {
	_, log := observe(t, func(l *logger) M[int] {
		return Bind(Then(l.add(1), Return(10)), func(x int) M[int] {
			return Then(l.add(2), Return(x+1))
		})
	})
	if !equalInts(log, []int{1, 2}) {
		t.Fatalf("effect order = %v, want [1 2]", log)
	}
}

// Monad laws, observed through both the result value and the effect log.
// The generator draws small effectful computations; programs are compared
// by running them in fresh runtimes.

func effectful(l *logger, tag, val int) M[int] {
	return Then(l.add(tag), NBIO(func() int { return val }))
}

func TestMonadLeftIdentity(t *testing.T) {
	// Bind(Return(x), f) == f(x)
	check := func(x int8) bool {
		f := func(v int) M[int] {
			return func(k func(int) Trace) Trace { return k(int(v) * 2) }
		}
		lhsVal, _ := observe(t, func(*logger) M[int] { return Bind(Return(int(x)), f) })
		rhsVal, _ := observe(t, func(*logger) M[int] { return f(int(x)) })
		return lhsVal == rhsVal
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMonadRightIdentity(t *testing.T) {
	// Bind(m, Return) == m — for effectful m: same value, same effects.
	check := func(tag, val int8) bool {
		lhsVal, lhsLog := observe(t, func(l *logger) M[int] {
			return Bind(effectful(l, int(tag), int(val)), Return[int])
		})
		rhsVal, rhsLog := observe(t, func(l *logger) M[int] {
			return effectful(l, int(tag), int(val))
		})
		return lhsVal == rhsVal && equalInts(lhsLog, rhsLog)
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMonadAssociativity(t *testing.T) {
	// Bind(Bind(m, f), g) == Bind(m, func(x){ return Bind(f(x), g) })
	check := func(a, b, c int8) bool {
		mk := func(l *logger) (M[int], func(int) M[int], func(int) M[int]) {
			m := effectful(l, 1, int(a))
			f := func(x int) M[int] { return effectful(l, 2, x+int(b)) }
			g := func(x int) M[int] { return effectful(l, 3, x*int(c)) }
			return m, f, g
		}
		lhsVal, lhsLog := observe(t, func(l *logger) M[int] {
			m, f, g := mk(l)
			return Bind(Bind(m, f), g)
		})
		rhsVal, rhsLog := observe(t, func(l *logger) M[int] {
			m, f, g := mk(l)
			return Bind(m, func(x int) M[int] { return Bind(f(x), g) })
		})
		return lhsVal == rhsVal && equalInts(lhsLog, rhsLog)
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMapAppliesFunction(t *testing.T) {
	got, _ := observe(t, func(*logger) M[int] { return Map(Return(20), func(x int) int { return x + 1 }) })
	if got != 21 {
		t.Fatalf("Map result = %d, want 21", got)
	}
}

func TestSeqRunsInOrder(t *testing.T) {
	_, log := observe(t, func(l *logger) M[Unit] {
		return Seq(l.add(1), l.add(2), l.add(3))
	})
	if !equalInts(log, []int{1, 2, 3}) {
		t.Fatalf("Seq order = %v", log)
	}
}

func TestSeqEmpty(t *testing.T) {
	_, log := observe(t, func(*logger) M[Unit] { return Seq() })
	if len(log) != 0 {
		t.Fatalf("empty Seq produced effects: %v", log)
	}
}

func TestForNOrderAndCount(t *testing.T) {
	_, log := observe(t, func(l *logger) M[Unit] {
		return ForN(5, func(i int) M[Unit] { return l.add(i) })
	})
	if !equalInts(log, []int{0, 1, 2, 3, 4}) {
		t.Fatalf("ForN log = %v", log)
	}
}

func TestForNZero(t *testing.T) {
	_, log := observe(t, func(l *logger) M[Unit] {
		return ForN(0, func(i int) M[Unit] { return l.add(i) })
	})
	if len(log) != 0 {
		t.Fatalf("ForN(0) produced effects: %v", log)
	}
}

func TestForEach(t *testing.T) {
	_, log := observe(t, func(l *logger) M[Unit] {
		return ForEach([]int{7, 8, 9}, l.add)
	})
	if !equalInts(log, []int{7, 8, 9}) {
		t.Fatalf("ForEach log = %v", log)
	}
}

func TestWhile(t *testing.T) {
	i := 0
	_, log := observe(t, func(l *logger) M[Unit] {
		return While(
			NBIO(func() bool { return i < 3 }),
			Bind(NBIO(func() int { i++; return i }), l.add),
		)
	})
	if !equalInts(log, []int{1, 2, 3}) {
		t.Fatalf("While log = %v", log)
	}
}

func TestFoldN(t *testing.T) {
	got, _ := observe(t, func(*logger) M[int] {
		return FoldN(5, 0, func(i, acc int) M[int] { return Return(acc + i) })
	})
	if got != 10 {
		t.Fatalf("FoldN sum = %d, want 10", got)
	}
}

// A pure loop of a million iterations must not overflow the Go stack:
// the loop combinators bounce through the scheduler each iteration.
func TestLoopStackSafety(t *testing.T) {
	const n = 1_000_000
	count := 0
	run(t, ForN(n, func(int) M[Unit] {
		count++
		return Skip
	}))
	if count != n {
		t.Fatalf("loop ran %d times, want %d", count, n)
	}
}

func TestFoldNStackSafety(t *testing.T) {
	const n = 500_000
	got, _ := observe(t, func(*logger) M[int] {
		return FoldN(n, 0, func(_, acc int) M[int] { return Return(acc + 1) })
	})
	if got != n {
		t.Fatalf("FoldN = %d, want %d", got, n)
	}
}

func TestForeverWithHalt(t *testing.T) {
	count := 0
	run(t, Forever(Bind(NBIO(func() int { count++; return count }), func(c int) M[Unit] {
		if c >= 10 {
			return Halt[Unit]()
		}
		return Skip
	})))
	if count != 10 {
		t.Fatalf("Forever ran %d times before Halt, want 10", count)
	}
}

func TestBuildTraceProducesNodes(t *testing.T) {
	tr := BuildTrace(Then(Yield(), Skip))
	y, ok := tr.(*YieldNode)
	if !ok {
		t.Fatalf("trace head = %T, want *YieldNode", tr)
	}
	if _, ok := y.Cont.(*RetNode); !ok {
		t.Fatalf("trace tail = %T, want *RetNode", y.Cont)
	}
}

// The trace of the paper's Figure 4 server: sys_call_1; fork client; …
// must produce an NBIO node, then a fork whose child is the client trace.
// An NBIO node is any node the scheduler steps (Stepper).
func TestTraceShapeMatchesFigure4(t *testing.T) {
	client := Do(func() {})
	var server func(depth int) M[Unit]
	server = func(depth int) M[Unit] {
		if depth == 0 {
			return Skip
		}
		return Seq(Do(func() {}), Fork(client), server(depth-1))
	}
	tr := BuildTrace(server(2))
	n1, ok := tr.(Stepper)
	if !ok {
		t.Fatalf("node 1 = %T, want a Stepper (sys_call_1)", tr)
	}
	n2, ok := n1.Step().(*ForkNode)
	if !ok {
		t.Fatalf("node 2 not a fork")
	}
	child := BuildTrace(n2.Child)
	if _, ok := child.(Stepper); !ok {
		t.Fatalf("fork child = %T, want a Stepper (sys_call_2)", child)
	}
	if _, ok := n2.Cont.(Stepper); !ok {
		t.Fatalf("fork cont = %T, want a Stepper (recursive server)", n2.Cont)
	}
}
