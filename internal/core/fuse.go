package core

// Fused (defunctionalized) combinator spines.
//
// The closure spellings in monad.go rebuild their continuation graph on
// every invocation of the returned M: each Seq element costs a fresh
// closure, and each loop iteration costs a fresh continuation closure plus
// a freshly allocated trampoline NBIONode. Following the CPC line of work
// (Kerneis & Chroboczek, "Compiling threads to events through
// continuations"), the combinators below compile the same control
// structure once, at application time, into a small mutable state struct —
// a flat step cursor plus an embedded, reused trampoline node — that a
// fixed pair of closures interprets. Steady-state iterations then touch
// only the state struct: zero allocations per iteration, and for the
// constant-body loops (Loop, Forever, While, RepeatN) zero allocations per
// replay of the cached body trace as well.
//
// Invariants (the fast-path rules; see DESIGN.md "Continuation
// flattening"):
//
//   - Effect-sequence equivalence. A fused form runs the same caller
//     effects in the same order, with the same results and the same parks,
//     as its naive spelling; it may emit fewer trace nodes, never more. A
//     node that only hands one step to the next is plumbing and its count
//     is nobody's contract — but every node is still charged against
//     BatchSteps, so an effect-free Loop still yields and stays
//     stack-safe. FuzzFusedEquivalence enforces it: effect logs equal,
//     dispatches fused ≤ naive.
//
//   - One application, one spine. Applying the M to a continuation
//     allocates a fresh spine state; spines are never shared between
//     applications, and a thread forces its own trace sequentially, so
//     spine state needs no synchronization.
//
//   - Replay safety (arena recycling). Traces in this codebase may be
//     retained and re-forced from the head after completing — the httpd
//     serve loop does it per keep-alive request, and the fused
//     constant-body loops below do it per iteration. A spine is therefore
//     an arena owned by its trace, recycled by *resetting its cursor at
//     completion* rather than by returning it to a pool: a sync.Pool
//     release would let a retained trace re-enter a spine after it was
//     re-leased to an unrelated thread. The reset target is the cursor
//     position of the trace head, not zero — node-free prefixes (Skip,
//     Return) evaluate eagerly at application time, so the head trace
//     may sit past element zero (FuzzFusedEquivalence found this).
//
//   - Constant-body caching. Loop, Forever, While, and RepeatN apply
//     their body M once and re-force the resulting trace every iteration.
//     This is sound because building an M is pure (forcing acts) and all
//     primitive traces are replayable: NBIO/Blio effects re-run, a
//     WaitNode re-parks at the next generation of its record, Fork builds
//     each child's trace afresh, Catch re-pushes its handler. ForN,
//     ForEach, and FoldN cannot cache — their bodies take the iteration
//     index or accumulator — so they re-apply the body per iteration.

// Seq sequences unit computations in order, a stand-in for a do-block of
// statements. Fused: one spine holds the element cursor; elements after
// the first are applied as the cursor reaches them, all to the same
// shared continuation.
func Seq(ms ...M[Unit]) M[Unit] {
	switch len(ms) {
	case 0:
		return Skip
	case 1:
		return ms[0]
	}
	return func(k func(Unit) Trace) Trace {
		s := &seqSpine{ms: ms, k: k}
		s.cont = s.step
		// Node-free elements (Skip, Return) evaluate their continuation
		// at application time, so the cursor may already have advanced
		// past them when the head trace comes back. The replay reset
		// must restore the cursor to the head's position, not to zero.
		head := ms[0](s.cont)
		s.i0 = s.i
		return head
	}
}

type seqSpine struct {
	ms   []M[Unit]
	i    int
	i0   int // cursor position of the trace head (see Seq)
	k    func(Unit) Trace
	cont func(Unit) Trace // s.step, allocated once per spine
}

func (s *seqSpine) step(Unit) Trace {
	i := s.i + 1
	if i == len(s.ms)-1 {
		s.i = s.i0 // reset: a retained trace may replay this spine
		return s.ms[i](s.k)
	}
	s.i = i
	return s.ms[i](s.cont)
}

// Loop runs body repeatedly for as long as it returns true. Fused: body
// is applied once and its trace is re-forced each iteration through the
// spine's embedded trampoline node — zero allocations per iteration.
func Loop(body M[bool]) M[Unit] {
	return func(k func(Unit) Trace) Trace {
		s := &loopSpine{k: k}
		s.node.Effect = s.bounce
		s.body = body(s.step)
		return s.body
	}
}

type loopSpine struct {
	body Trace
	k    func(Unit) Trace
	node NBIONode
}

func (s *loopSpine) step(again bool) Trace {
	if !again {
		return s.k(Unit{})
	}
	return &s.node
}

func (s *loopSpine) bounce() Trace { return s.body }

// Forever runs body repeatedly, never returning. The thread can still end
// via Halt or Throw inside the body. Fused like Loop, without the
// per-iteration continue check.
func Forever(body M[Unit]) M[Unit] {
	return func(k func(Unit) Trace) Trace {
		s := &foreverSpine{}
		s.node.Effect = s.bounce
		s.body = body(s.step)
		return s.body
	}
}

type foreverSpine struct {
	body Trace
	node NBIONode
}

func (s *foreverSpine) step(Unit) Trace { return &s.node }
func (s *foreverSpine) bounce() Trace   { return s.body }

// While runs body repeatedly for as long as cond returns true. cond is an
// effectful computation, so it can inspect shared state via NBIO. It is
// Loop over "cond, then body": Loop applies that once, so both constant
// computations are applied once and their cached traces alternate.
func While(cond M[bool], body M[Unit]) M[Unit] {
	return Loop(func(k func(bool) Trace) Trace {
		again := body(func(Unit) Trace { return k(true) })
		return cond(func(ok bool) Trace {
			if !ok {
				return k(false)
			}
			return again
		})
	})
}

// ForN runs body(0), body(1), …, body(n-1) in order. The spine allocates
// nothing per iteration; body(i) is applied fresh each iteration (its
// result depends on i, so its trace cannot be cached).
func ForN(n int, body func(i int) M[Unit]) M[Unit] {
	if n <= 0 {
		return Skip
	}
	return func(k func(Unit) Trace) Trace {
		s := &forSpine{n: n, body: body, k: k}
		s.cont = s.step
		s.node.Effect = s.bounce
		return body(0)(s.cont)
	}
}

type forSpine struct {
	i    int
	n    int
	body func(int) M[Unit]
	k    func(Unit) Trace
	cont func(Unit) Trace // s.step, allocated once per spine
	node NBIONode
}

func (s *forSpine) step(Unit) Trace { return &s.node }

func (s *forSpine) bounce() Trace {
	i := s.i + 1
	if i >= s.n {
		s.i = 0 // reset: a retained trace may replay this spine
		return s.k(Unit{})
	}
	s.i = i
	return s.body(i)(s.cont)
}

// ForEach runs body on each element of xs in order.
func ForEach[A any](xs []A, body func(A) M[Unit]) M[Unit] {
	return ForN(len(xs), func(i int) M[Unit] { return body(xs[i]) })
}

// RepeatN runs body n times. It is ForN for the common constant-body
// case: because body does not see the iteration index, its trace is
// cached like Loop's and every iteration is allocation-free.
func RepeatN(n int, body M[Unit]) M[Unit] {
	if n <= 0 {
		return Skip
	}
	return func(k func(Unit) Trace) Trace {
		s := &repeatSpine{n: n, k: k}
		s.node.Effect = s.bounce
		s.body = body(s.step)
		return s.body
	}
}

type repeatSpine struct {
	body Trace
	i    int
	n    int
	k    func(Unit) Trace
	node NBIONode
}

func (s *repeatSpine) step(Unit) Trace { return &s.node }

func (s *repeatSpine) bounce() Trace {
	i := s.i + 1
	if i >= s.n {
		s.i = 0 // reset: a retained trace may replay this spine
		return s.k(Unit{})
	}
	s.i = i
	return s.body
}

// FoldN threads an accumulator through n iterations of body, returning
// the final accumulator. It is ForN with the accumulator in a variable of
// the application, so it is stack-safe like the other loop combinators.
func FoldN[A any](n int, acc A, body func(i int, acc A) M[A]) M[A] {
	return func(k func(A) Trace) Trace {
		cur, head := acc, acc // head: the accumulator at the trace head
		tr := ForN(n, func(i int) M[Unit] {
			return Bind(body(i, cur), func(next A) M[Unit] {
				cur = next
				return Skip
			})
		})(func(Unit) Trace {
			out := cur
			cur = head // reset: a retained trace may replay this fold
			return k(out)
		})
		// A node-free body(0) (a bare Return) has already stored its
		// result: the replay reset must restore the accumulator the head
		// trace was built with, not the input.
		head = cur
		return tr
	}
}

// Readiness is what one nonblocking attempt tells Poll to do next.
type Readiness uint8

const (
	Done  Readiness = iota // finished: deliver the value
	Again                  // interrupted or partly done: attempt again at once
	Block                  // would block: wait, then attempt again
)

// Poll is the paper's Figure 10, written once: perform the nonblocking
// attempt; when it would block, wait for readiness and retry. Every
// blocking-style I/O wrapper (hio's Sock*, tcp's *M) is its nonblocking
// call under Poll, and no other code knows the retry/park/replay
// algorithm. A non-nil error from attempt is thrown.
//
// wait links a park record to the event source: given the record, it
// returns the record's Arm, which registers for readiness and calls
// w.Wake when it arrives. An Arm that cannot register (a closed
// descriptor) wakes the record at once, and the retried attempt reports
// the error.
//
// Fused: one spine holds the embedded attempt node, re-entered for every
// retry and after every wake, and the park record, allocated and armed by
// wait the first time attempt blocks and re-armed at every later Block,
// so neither a retry, a park nor a later message allocates. The record is
// built lazily because most parked connections never wait on most of
// their operations (DESIGN.md has the measurement).
//
// The trace is replayable provided attempt leaves its own cursor (an
// unsent suffix, a received count) ready for the next message whenever it
// reports Done or fails; such a cursor belongs to one application of the
// M, not to the M (see hio.SockSendCell).
func Poll[A any](attempt func() (A, Readiness, error), wait func(w *WaitNode) (arm func())) M[A] {
	return func(k func(A) Trace) Trace {
		s := &pollSpine[A]{attempt: attempt, wait: wait, k: k}
		s.node.Effect = s.try
		return &s.node
	}
}

type pollSpine[A any] struct {
	attempt func() (A, Readiness, error)
	wait    func(*WaitNode) func()
	k       func(A) Trace
	node    NBIONode
	park    *WaitNode // resumes at node; built at the first Block
}

func (s *pollSpine[A]) try() Trace {
	a, r, err := s.attempt()
	switch {
	case err != nil:
		return &ThrowNode{Err: err}
	case r == Block:
		if s.park == nil {
			s.park = &WaitNode{Cont: &s.node}
			s.park.Arm = s.wait(s.park)
		}
		return s.park
	case r == Again:
		return &s.node
	}
	return s.k(a)
}
