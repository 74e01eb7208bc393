package core

// Fused (defunctionalized) combinator spines.
//
// The closure spellings in monad.go rebuild their continuation graph on
// every invocation of the returned M: each Seq element costs a fresh
// closure, and each loop iteration costs a fresh continuation closure plus
// a freshly allocated trampoline node. Following the CPC line of work
// (Kerneis & Chroboczek, "Compiling threads to events through
// continuations"), the combinators below compile the same control
// structure once, at application time, into a small mutable record — a
// flat step cursor whose bounces are the record itself or a node embedded
// in it, stepped by the scheduler as SYS_NBIO (Stepper). Steady-state
// iterations then touch only the record: zero allocations per iteration,
// and for Seq and the constant-body loops (Loop, Forever, While, RepeatN)
// zero allocations per replay of the cached traces as well.
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
//     retained and re-forced from the head after completing, or after a
//     throw left them part-way and a frame outside them caught it — the
//     httpd serve loop does it per keep-alive request, the constant-body
//     loops per iteration. A spine is therefore an arena owned by its
//     trace, never returned to a sync.Pool, which would let a retained
//     trace re-enter it after it was re-leased to another thread; and its
//     cursor restarts with each pass, in a node the pass forces, not at
//     the pass's end, which a throw skips: ForN and RepeatN count from
//     the bounce after the first iteration, and Seq keeps no cursor (see
//     TestReplayAfterThrow).
//
//   - Constant-body caching. Loop, Forever, While, and RepeatN apply
//     their body M once and re-force the resulting trace every iteration.
//     This is sound because building an M is pure (forcing acts) and all
//     primitive traces are replayable: NBIO/Blio effects re-run, a
//     WaitNode re-parks at the next generation of its record, Fork builds
//     each child's trace afresh, a frame record re-pushes itself. ForN,
//     ForEach, and FoldN cannot cache — their bodies take the iteration
//     index or accumulator — so they re-apply the body per iteration.

// Seq sequences unit computations in order, a stand-in for a do-block of
// statements. An application applies every element once, last first,
// each to a continuation that hands over the next element's trace: a
// replayed Seq re-forces those traces and allocates nothing, and there is
// no cursor for a pass that a throw cut short to leave behind.
func Seq(ms ...M[Unit]) M[Unit] {
	switch len(ms) {
	case 0:
		return Skip
	case 1:
		return ms[0]
	}
	return func(k func(Unit) Trace) Trace {
		tr := ms[len(ms)-1](k)
		for i := len(ms) - 2; i >= 0; i-- {
			next := tr
			tr = ms[i](func(Unit) Trace { return next })
		}
		return tr
	}
}

// Loop runs body repeatedly for as long as it returns true. Fused: body
// is applied once and its trace is re-forced each iteration through the
// spine, which is its own bounce node — zero allocations per iteration.
func Loop(body M[bool]) M[Unit] {
	return func(k func(Unit) Trace) Trace {
		s := &loopSpine{k: k}
		s.body = body(s.next)
		return s.body
	}
}

type loopSpine struct {
	body Trace
	k    func(Unit) Trace
}

func (s *loopSpine) next(again bool) Trace {
	if !again {
		return s.k(Unit{})
	}
	return s
}

func (s *loopSpine) Step() Trace { return s.body }

// Forever runs body repeatedly, never returning. The thread can still end
// via Halt or Throw inside the body. It is Loop over a body whose answer is
// always "again", so it bounces through the same one node per round.
func Forever(body M[Unit]) M[Unit] { return Loop(Map(body, always)) }

func always(Unit) bool { return true }

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
func ForN(n int, body func(i int) M[Unit]) M[Unit] { return loopN(n, body, nil) }

// RepeatN runs body n times: ForN with a constant body, whose trace is
// cached like Loop's, so every iteration is allocation-free. Body is
// applied twice, ending in each of the spine's bounces: once for the
// first iteration, once for all the others.
func RepeatN(n int, body M[Unit]) M[Unit] { return loopN(n, nil, body) }

func loopN(n int, body func(int) M[Unit], m M[Unit]) M[Unit] {
	if n <= 0 {
		return Skip
	}
	return func(k func(Unit) Trace) Trace {
		s := &forSpine{n: n, body: body, m: m, k: k}
		s.cont, s.node.s = s.bounce, s
		return s.apply(s.first)
	}
}

// forSpine is the spine of ForN and RepeatN. Every iteration ends in a
// bounce that counts it, as the naive spelling's fresh node does: the
// spine itself after the first iteration, its node after the others. So
// each pass restarts the count, and one that a throw cut short leaves
// nothing behind for the next.
type forSpine struct {
	i, n int
	body func(int) M[Unit] // ForN's, or
	m    M[Unit]           // RepeatN's, whose trace …
	each Trace             // … serves every iteration after the first
	k    func(Unit) Trace
	cont func(Unit) Trace // s.bounce, allocated once per spine
	node forNode
}

// forNode is the bounce after every iteration but the first.
type forNode struct{ s *forSpine }

func (s *forSpine) apply(k func(Unit) Trace) Trace {
	if s.m != nil {
		return s.m(k)
	}
	return s.body(s.i)(k)
}

func (s *forSpine) first(Unit) Trace  { return s }
func (s *forSpine) bounce(Unit) Trace { return &s.node }
func (n *forNode) Step() Trace        { return n.s.next() }

func (s *forSpine) Step() Trace {
	s.i = 0
	return s.next()
}

func (s *forSpine) next() Trace {
	if s.i++; s.i == s.n {
		return s.k(Unit{})
	}
	if s.m == nil {
		return s.apply(s.cont)
	}
	if s.each == nil {
		s.each = s.apply(s.cont)
	}
	return s.each
}

// ForEach runs body on each element of xs in order.
func ForEach[A any](xs []A, body func(A) M[Unit]) M[Unit] {
	return ForN(len(xs), func(i int) M[Unit] { return body(xs[i]) })
}

// FoldN threads an accumulator through n iterations of body, returning
// the final accumulator. It is ForN with the accumulator in variables of
// the application, so it is stack-safe like the other loop combinators.
// ForN applies body(0) once, so a node-free one has stored its result at
// application: the second iteration starts from that, not from cur, which
// a pass a throw cut short may have left anywhere.
func FoldN[A any](n int, acc A, body func(i int, acc A) M[A]) M[A] {
	return func(k func(A) Trace) Trace {
		cur, first := acc, acc
		return ForN(n, func(i int) M[Unit] {
			in := cur
			if i == 1 {
				in = first
			}
			return Bind(body(i, in), func(next A) M[Unit] {
				if i == 0 {
					first = next
				}
				cur = next
				return Skip
			})
		})(func(Unit) Trace { return k(cur) })
	}
}

// Readiness is what one nonblocking attempt tells Poll to do next.
type Readiness uint8

const (
	Done  Readiness = iota // finished: deliver the value
	Again                  // interrupted or partly done: attempt again at once
	Block                  // would block: wait, then attempt again
)

// Poller is a polled primitive's own half of its record: the nonblocking
// attempt and the readiness arm. The other half is core's PollSpine, which
// the record embeds; one record is allocated per application of the
// primitive's M and is all the application allocates.
type Poller[A any] interface {
	// Attempt makes one nonblocking try. A non-nil error is thrown.
	Attempt() (A, Readiness, error)
	Armer
	spine() *PollSpine[A]
}

// Armer links a park record into its event source: Arm registers for
// readiness and calls w.Wake when it arrives. An Arm that cannot register
// (a closed descriptor) wakes w at once, and the retried attempt reports
// the error.
type Armer interface{ Arm(w *WaitNode) }

// Poll is the paper's Figure 10, written once: perform the nonblocking
// attempt; when it would block, wait for readiness and retry. Every
// blocking-style I/O wrapper (hio's Sock*, tcp's *M) applies its M by
// handing Poll a fresh record and the continuation, and no other code
// knows the retry/park/replay algorithm.
//
// The record is lambda-lifted: the spine is itself the trace node, forced
// for every attempt through a method rather than a closure, and embeds
// the park record, which resumes at the spine and is armed by the record
// itself, so neither a retry, a park nor a later message allocates.
//
// The trace is replayable provided Attempt leaves the record's cursor (an
// unsent suffix, a received count) ready for the next message whenever it
// reports Done or fails (see hio.SockSendCell).
func Poll[A any](rec Poller[A], k func(A) Trace) Trace {
	s := rec.spine()
	s.rec, s.k = rec, k
	s.park.Cont, s.park.Armer = s, rec
	return s
}

// PollSpine is core's half of a Poll record, embedded by value.
type PollSpine[A any] struct {
	rec  Poller[A]
	k    func(A) Trace
	park WaitNode
}

func (s *PollSpine[A]) spine() *PollSpine[A] { return s }

func (s *PollSpine[A]) Step() Trace {
	a, r, err := s.rec.Attempt()
	switch {
	case err != nil:
		return &ThrowNode{Err: err}
	case r == Block:
		return &s.park
	case r == Again:
		return s
	}
	return s.k(a)
}
