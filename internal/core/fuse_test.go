package core

import (
	"errors"
	"testing"
)

// The fused spines in fuse.go claim effect-sequence equivalence with the
// naive closure spellings in monad.go (the executable spec). These tests
// check it two ways: the effect log must match exactly, and — run at
// BatchSteps=1, where every interpreted node costs one dispatch — the
// fused form must not emit more nodes than the naive one.

// runDispatches executes m on a fresh single-worker runtime interpreting
// one node per dispatch and returns the dispatch count.
func runDispatches(t *testing.T, m M[Unit]) int64 {
	t.Helper()
	rt := NewRuntime(Options{Workers: 1, BatchSteps: 1})
	defer rt.Shutdown()
	rt.Run(m)
	return rt.Stats().Snapshot().Counter("dispatches")
}

// checkEquivalent runs matched fused/naive programs and requires equal
// effect logs and no more nodes (dispatches) fused than naive.
func checkEquivalent(t *testing.T, name string, fused, naive func(l *logger) M[Unit]) {
	t.Helper()
	var lf, ln logger
	df := runDispatches(t, fused(&lf))
	dn := runDispatches(t, naive(&ln))
	if !equalInts(lf.values(), ln.values()) {
		t.Fatalf("%s: effect logs differ\nfused %v\nnaive %v", name, lf.values(), ln.values())
	}
	if df > dn {
		t.Fatalf("%s: fused emits more nodes: %d dispatches, naive %d", name, df, dn)
	}
}

func TestFusedSeqEquivalence(t *testing.T) {
	for _, n := range []int{2, 3, 5} {
		mk := func(seq func(...M[Unit]) M[Unit]) func(l *logger) M[Unit] {
			return func(l *logger) M[Unit] {
				ms := make([]M[Unit], n)
				for i := range ms {
					ms[i] = l.add(i)
				}
				return seq(ms...)
			}
		}
		checkEquivalent(t, "Seq", mk(Seq), mk(NaiveSeq))
	}
}

func TestFusedLoopEquivalence(t *testing.T) {
	mk := func(loop func(M[bool]) M[Unit]) func(l *logger) M[Unit] {
		return func(l *logger) M[Unit] {
			n := 0
			return loop(Then(l.add(7), NBIO(func() bool {
				n++
				return n < 5
			})))
		}
	}
	checkEquivalent(t, "Loop", mk(Loop), mk(NaiveLoop))
}

func TestFusedForNEquivalence(t *testing.T) {
	for _, n := range []int{0, 1, 4} {
		mk := func(forN func(int, func(int) M[Unit]) M[Unit]) func(l *logger) M[Unit] {
			return func(l *logger) M[Unit] {
				return forN(n, func(i int) M[Unit] { return l.add(i * 10) })
			}
		}
		checkEquivalent(t, "ForN", mk(ForN), mk(NaiveForN))
	}
}

func TestRepeatNEquivalence(t *testing.T) {
	// RepeatN's spec is ForN with a constant body.
	checkEquivalent(t, "RepeatN",
		func(l *logger) M[Unit] { return RepeatN(4, l.add(3)) },
		func(l *logger) M[Unit] { return NaiveForN(4, func(int) M[Unit] { return l.add(3) }) })
}

// TestFusedLoopReplay checks replay safety: a fused loop trace retained
// inside a RepeatN body is re-forced from the head after completing, and
// must run in full each time (the spine resets its cursor at the k
// handoff).
func TestFusedLoopReplay(t *testing.T) {
	var l logger
	inner := ForN(3, func(i int) M[Unit] { return l.add(i) })
	run(t, RepeatN(2, inner))
	if !equalInts(l.values(), []int{0, 1, 2, 0, 1, 2}) {
		t.Fatalf("replayed ForN log = %v", l.values())
	}
	l.xs = nil
	n := 0
	loop := Loop(NBIO(func() bool {
		n++
		l.mu.Lock()
		l.xs = append(l.xs, n)
		l.mu.Unlock()
		return n%3 != 0
	}))
	run(t, RepeatN(2, loop))
	if !equalInts(l.values(), []int{1, 2, 3, 4, 5, 6}) {
		t.Fatalf("replayed Loop log = %v", l.values())
	}
	// A node-free body has folded its first step by the time the head
	// trace exists: the replay must restart from that accumulator.
	l.xs = nil
	fold := FoldN(3, 10, func(i, acc int) M[int] { return Return(acc + i + 1) })
	run(t, RepeatN(2, Bind(fold, l.add)))
	if !equalInts(l.values(), []int{16, 16}) {
		t.Fatalf("replayed FoldN log = %v", l.values())
	}
}

// TestFusedCatchInteraction: a fused Seq inside Catch must unwind to the
// handler exactly like the naive spelling when an element throws.
func TestFusedCatchInteraction(t *testing.T) {
	sentinel := errors.New("boom")
	mk := func(seq func(...M[Unit]) M[Unit]) func(l *logger) M[Unit] {
		return func(l *logger) M[Unit] {
			return Catch(
				seq(l.add(1), Throw[Unit](sentinel), l.add(2)),
				func(err error) M[Unit] {
					if !errors.Is(err, sentinel) {
						return Throw[Unit](err)
					}
					return l.add(3)
				},
			)
		}
	}
	checkEquivalent(t, "Seq-in-Catch", mk(Seq), mk(NaiveSeq))
}

// pollStep is one scripted outcome of a nonblocking attempt that has not
// finished yet.
type pollStep uint8

const (
	stepAgain    pollStep = iota // the attempt reports Again
	stepBlock                    // the attempt reports Block; the arm registers
	stepArmFails                 // the attempt reports Block; the arm fails, and the next attempt reports the error
	stepFail                     // the attempt fails
	stepCount
)

// script is a scripted operation. Message m follows
// scripts[m%len(scripts)]: attempt j logs base+j and reports step j of the
// script, and the attempt past the script's end reports Done with the
// value base+m. Every arm logs base+50 and wakes its record at once; an
// arm that fails leaves the error for the retried attempt to report, as
// hio's arm does for a closed descriptor. As Poll's contract requires,
// the operation's cursor is back at zero whenever a message ends — by
// Done or by a failed attempt. The message counter is the M's, shared by
// its applications.
type script struct {
	l         *logger
	base      int
	scripts   [][]pollStep
	m, j      int // messages finished, attempts made for this one
	armFailed bool
}

func (s *script) steps() []pollStep { return s.scripts[s.m%len(s.scripts)] }

func (s *script) Attempt() (int, Readiness, error) {
	s.l.put(s.base + s.j)
	if s.armFailed {
		s.m, s.j, s.armFailed = s.m+1, 0, false
		return 0, Done, errFuzzSentinel
	}
	if s.j == len(s.steps()) {
		s.m, s.j = s.m+1, 0
		return s.base + s.m - 1, Done, nil
	}
	step := s.steps()[s.j]
	s.j++
	switch step {
	case stepAgain:
		return 0, Again, nil
	case stepFail:
		s.m, s.j = s.m+1, 0
		return 0, Done, errFuzzSentinel
	}
	return 0, Block, nil
}

// Arm decides whether it fails when it runs, as a real registration does.
func (s *script) Arm(w *WaitNode) {
	s.l.put(s.base + 50)
	s.armFailed = s.steps()[s.j-1] == stepArmFails
	w.Wake()
}

// scriptRec is one application's record of a scripted operation.
type scriptRec struct {
	PollSpine[int]
	*script
}

// scriptedPoll is the record form of Poll (or NaivePoll, the spec, over
// the same script's methods) over a scripted operation.
func scriptedPoll(l *logger, base int, scripts [][]pollStep, fused bool) M[int] {
	s := &script{l: l, base: base, scripts: scripts}
	if fused {
		return func(k func(int) Trace) Trace { return Poll(&scriptRec{script: s}, k) }
	}
	return NaivePoll(s.Attempt, s)
}

// loggedPoll runs a scripted Poll as a unit computation: it logs the
// delivered value, or base+99 for the sentinel exception.
func loggedPoll(l *logger, base int, scripts [][]pollStep, fused bool) M[Unit] {
	return Catch(
		Bind(scriptedPoll(l, base, scripts, fused), func(v int) M[Unit] { return l.add(v) }),
		func(err error) M[Unit] {
			if !errors.Is(err, errFuzzSentinel) {
				return Throw[Unit](err)
			}
			return l.add(base + 99)
		})
}

func TestFusedPollEquivalence(t *testing.T) {
	for _, script := range [][]pollStep{
		{},
		{stepAgain},
		{stepBlock},
		{stepBlock, stepAgain, stepBlock, stepBlock},
		{stepAgain, stepFail},
		{stepBlock, stepArmFails},
		{stepArmFails},
		{stepFail},
	} {
		mk := func(fused bool) func(l *logger) M[Unit] {
			return func(l *logger) M[Unit] { return loggedPoll(l, 100, [][]pollStep{script}, fused) }
		}
		checkEquivalent(t, "Poll", mk(true), mk(false))
	}
}

// TestPollReplaysPerMessage: one Poll trace, applied once and re-forced
// by RepeatN's cached body, serves message after message — the park
// record built at the first Block serves the later ones, and a message
// that ends in Done, in a failed attempt or after a failed arm leaves the
// next one starting clean. The naive spelling, re-applied per message,
// must log the same.
func TestPollReplaysPerMessage(t *testing.T) {
	scripts := [][]pollStep{
		{stepBlock, stepAgain},
		{stepAgain, stepFail},
		{},
		{stepBlock, stepArmFails},
		{stepBlock},
	}
	const n = 10 // every script twice: the second pass finds what the first left behind
	var lf, ln logger
	df := runDispatches(t, RepeatN(n, loggedPoll(&lf, 100, scripts, true)))
	naive := loggedPoll(&ln, 100, scripts, false) // one M: the script's message counter is the M's
	dn := runDispatches(t, NaiveForN(n, func(int) M[Unit] { return naive }))
	firstPass := []int{
		100, 150, 101, 102, 100, // Block, Again, Done: value 100
		100, 101, 199, // Again, a failed attempt
		100, 102, // Done at once: value 102
		100, 150, 101, 150, 102, 199, // Block, Block whose arm fails: the retry reports it
		100, 150, 101, 104, // Block, Done: value 104
	}
	if got := lf.values(); len(got) != 2*len(firstPass) || !equalInts(got[:len(firstPass)], firstPass) {
		t.Fatalf("fused log %v\nwant two passes, the first %v", got, firstPass)
	}
	if !equalInts(lf.values(), ln.values()) {
		t.Fatalf("effect logs differ\nfused %v\nnaive %v", lf.values(), ln.values())
	}
	if df > dn {
		t.Fatalf("fused emits more nodes: %d dispatches, naive %d", df, dn)
	}
}

// ---------------------------------------------------------------------------
// Allocation pins for the fused fast path (the blocking core-alloc CI leg).
// ---------------------------------------------------------------------------

// spinAllocs measures allocations per iteration of a 400-iteration spin
// under the given loop constructor on a warm runtime.
func spinAllocs(t *testing.T, mkLoop func(iters int, probe M[bool]) M[Unit]) float64 {
	t.Helper()
	rt := NewRuntime(Options{Workers: 1})
	t.Cleanup(rt.Shutdown)
	const iters = 400
	total := testing.AllocsPerRun(10, func() {
		n := 0
		probe := NBIO(func() bool {
			n++
			return n < iters
		})
		rt.Run(mkLoop(iters, probe))
	})
	return total / iters
}

// TestAllocFusedLoopSpin pins the tentpole claim: a fused Loop iteration
// allocates nothing. The whole 400-iteration run is allowed the fixed
// spine/thread setup cost only.
func TestAllocFusedLoopSpin(t *testing.T) {
	per := spinAllocs(t, func(_ int, probe M[bool]) M[Unit] { return Loop(probe) })
	if per > 0.05 {
		t.Fatalf("fused Loop allocates %.3f allocs/iteration, want 0", per)
	}
}

// TestAllocFusedForNSpin pins ForN's spine: with an allocation-free body
// the per-iteration cost is zero.
func TestAllocFusedForNSpin(t *testing.T) {
	per := spinAllocs(t, func(iters int, _ M[bool]) M[Unit] {
		return ForN(iters, func(int) M[Unit] { return Skip })
	})
	if per > 0.05 {
		t.Fatalf("fused ForN allocates %.3f allocs/iteration, want 0", per)
	}
}

// TestAllocRepeatNSpin pins the constant-body cache: RepeatN re-forces
// one cached body trace with no per-iteration allocation.
func TestAllocRepeatNSpin(t *testing.T) {
	rt := NewRuntime(Options{Workers: 1})
	t.Cleanup(rt.Shutdown)
	const iters = 400
	var n int
	body := Do(func() { n++ })
	total := testing.AllocsPerRun(10, func() {
		n = 0
		rt.Run(RepeatN(iters, body))
		if n != iters {
			t.Fatalf("RepeatN ran %d iterations, want %d", n, iters)
		}
	})
	if per := total / iters; per > 0.05 {
		t.Fatalf("RepeatN allocates %.3f allocs/iteration, want 0", per)
	}
}

// TestAllocPollReplay pins Poll's record: re-forced for 1,000 messages of
// three attempts each — one Again, one Block whose arm wakes the record
// at once, one Done — it allocates per application and at the first
// park only, nothing per attempt, per park or per message.
func TestAllocPollReplay(t *testing.T) {
	rt := NewRuntime(Options{Workers: 1})
	t.Cleanup(rt.Shutdown)
	const msgs = 1000
	op := &replayOp{}
	body := Then(M[int](func(k func(int) Trace) Trace { return Poll(&replayRec{replayOp: op}, k) }), Skip)
	total := testing.AllocsPerRun(10, func() {
		op.done = 0
		rt.Run(RepeatN(msgs, body))
		if op.done != msgs {
			t.Fatalf("Poll delivered %d messages, want %d", op.done, msgs)
		}
	})
	if per := total / msgs; per > 0.02 {
		t.Fatalf("replayed Poll allocates %.3f allocs/message (%.0f per run), want 0", per, total)
	}
}

// replayOp is TestAllocPollReplay's operation: Again, Block, Done.
type replayOp struct{ j, done int }

type replayRec struct {
	PollSpine[int]
	*replayOp
}

func (o *replayOp) Attempt() (int, Readiness, error) {
	o.j++
	switch o.j {
	case 1:
		return 0, Again, nil
	case 2:
		return 0, Block, nil
	}
	o.j = 0
	o.done++
	return o.done, Done, nil
}

func (o *replayOp) Arm(w *WaitNode) { w.Wake() }

// errNth is thrown by nthThrow.
var errNth = errors.New("nth run throws")

// nthThrow logs x each time it runs, except its nth run, which throws.
// Each call makes a new counter, so a fused and a naive rendering of one
// script count their runs apart.
func nthThrow(l *logger, x, nth int) M[Unit] {
	runs := 0
	return NBIOe(func() (Unit, error) {
		if runs++; runs == nth {
			return Unit{}, errNth
		}
		l.put(x)
		return Unit{}, nil
	})
}

// TestReplayAfterThrow: a spine that a throw leaves mid-pass is re-forced
// from its head when the frame that caught the throw is replayed, and must
// run the whole pass again, as the naive spelling — which re-applies the
// frame's body — does. Under RepeatN(2, Catch(body, h)) a body that throws
// in round 1 runs in full in round 2.
func TestReplayAfterThrow(t *testing.T) {
	handled := func(l *logger) func(error) M[Unit] {
		return func(error) M[Unit] { return l.add(9) }
	}
	for _, tc := range []struct {
		name         string
		fused, naive func(l *logger) M[Unit]
		want         []int
	}{
		{
			"Seq",
			func(l *logger) M[Unit] {
				return RepeatN(2, Catch(Seq(l.add(1), nthThrow(l, 2, 1), l.add(3)), handled(l)))
			},
			func(l *logger) M[Unit] {
				body := Catch(NaiveSeq(l.add(1), nthThrow(l, 2, 1), l.add(3)), handled(l))
				return NaiveForN(2, func(int) M[Unit] { return body })
			},
			[]int{1, 9, 1, 2, 3},
		},
		{
			"RepeatN",
			func(l *logger) M[Unit] { return RepeatN(2, Catch(RepeatN(3, nthThrow(l, 1, 2)), handled(l))) },
			func(l *logger) M[Unit] {
				s := nthThrow(l, 1, 2)
				body := Catch(NaiveForN(3, func(int) M[Unit] { return s }), handled(l))
				return NaiveForN(2, func(int) M[Unit] { return body })
			},
			[]int{1, 9, 1, 1, 1},
		},
		{
			"ForN",
			func(l *logger) M[Unit] {
				s := nthThrow(l, 1, 2)
				return RepeatN(2, Catch(ForN(3, func(int) M[Unit] { return s }), handled(l)))
			},
			func(l *logger) M[Unit] {
				s := nthThrow(l, 1, 2)
				body := Catch(NaiveForN(3, func(int) M[Unit] { return s }), handled(l))
				return NaiveForN(2, func(int) M[Unit] { return body })
			},
			[]int{1, 9, 1, 1, 1},
		},
		{
			"FoldN",
			func(l *logger) M[Unit] {
				s := nthThrow(l, 1, 2)
				fold := FoldN(3, 0, func(_, acc int) M[int] { return Then(s, Return(acc+1)) })
				return RepeatN(2, Catch(Bind(fold, l.add), handled(l)))
			},
			func(l *logger) M[Unit] {
				s := nthThrow(l, 1, 2)
				body := Catch(Then(NaiveForN(3, func(int) M[Unit] { return s }), l.add(3)), handled(l))
				return NaiveForN(2, func(int) M[Unit] { return body })
			},
			[]int{1, 9, 1, 1, 1, 3},
		},
	} {
		var l logger
		run(t, tc.fused(&l))
		if !equalInts(l.values(), tc.want) {
			t.Errorf("%s: log %v, want %v", tc.name, l.values(), tc.want)
			continue
		}
		checkEquivalent(t, tc.name, tc.fused, tc.naive)
	}
}
