package core

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"hybrid/internal/vclock"
)

// A TryTake that empties a full MVar must admit the Put parked on it, as
// Take does: otherwise the MVar reads empty with a putter still queued,
// and the next Take parks beside it for good.
func TestMVarTryTakeAdmitsBlockedPut(t *testing.T) {
	rt := NewRuntime(Options{Workers: 1})
	defer rt.Shutdown()
	v := NewMVar[int]()
	var tried, took atomic.Int64
	done := make(chan struct{})
	rt.Spawn(Seq(
		v.Put(1),
		Fork(v.Put(2)), // parks: the MVar is full
		Yield(),
		Bind(v.TryTake(), func(r struct {
			Value int
			OK    bool
		}) M[Unit] {
			return Do(func() { tried.Store(int64(r.Value)) })
		}),
		Bind(v.Take(), func(x int) M[Unit] {
			return Do(func() { took.Store(int64(x)); close(done) })
		}),
	))
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatalf("Take after TryTake never returned (%d threads live): the parked Put was stranded", rt.Live())
	}
	if tried.Load() != 1 || took.Load() != 2 {
		t.Fatalf("TryTake = %d, Take = %d; want 1, 2", tried.Load(), took.Load())
	}
}

// ---------------------------------------------------------------------------
// Script oracle: random scripts of blocking operations, run on a virtual
// clock and replayed against a sequential model.
// ---------------------------------------------------------------------------

// The objects every script runs on: channels of capacity 0, 1 and 3, an
// MVar, a two-permit Semaphore and a Mutex. blkCap is each one's slots or
// permits.
const (
	blkChan0 = iota
	blkChan1
	blkChan3
	blkMVar
	blkSem
	blkMutex
	blkObjects
)

var blkCap = [blkObjects]int{0, 1, 3, 1, 2, 1}

type blkOp byte

const (
	blkSend    blkOp = iota // Chan.Send, MVar.Put
	blkRecv                 // Chan.Recv, MVar.Take
	blkTryTake              // MVar.TryTake
	blkAcquire              // Semaphore.Acquire, Mutex.Lock
	blkRelease              // Semaphore.Release, Mutex.Unlock
	blkTryLock              // Mutex.TryLock
)

// blkStep is one operation of a script. Step i runs at virtual time
// (i+1) ms, so the script is a total order the model replays.
type blkStep struct {
	actor, obj int
	op         blkOp
	value      int // a send's value: actor*1000 + the actor's send count
}

func (s blkStep) String() string {
	name := [...]string{"send", "recv", "trytake", "acquire", "release", "trylock"}[s.op]
	return fmt.Sprintf("a%d.%s(o%d)", s.actor, name, s.obj)
}

// blkModel is the sequential specification: plain FIFO queues, no
// scheduler. logs holds each actor's completed operations' results in
// order (a send or a receive logs its value, a failed TryTake -1, a
// TryLock 1 or 0, an acquire or release 0); parked marks the actors
// blocked now.
type blkModel struct {
	buf     [blkObjects][]int
	senders [blkObjects][][2]int // {actor, value}
	readers [blkObjects][]int
	permits [blkObjects]int
	waiters [blkObjects][]int
	holds   [][blkObjects]int
	parked  []bool
	logs    [][]int
}

func newBlkModel(actors int) *blkModel {
	m := &blkModel{holds: make([][blkObjects]int, actors), parked: make([]bool, actors), logs: make([][]int, actors)}
	m.permits[blkSem], m.permits[blkMutex] = blkCap[blkSem], blkCap[blkMutex]
	return m
}

func (m *blkModel) done(a, x int) { m.logs[a] = append(m.logs[a], x); m.parked[a] = false }

func (m *blkModel) apply(s blkStep) {
	a, o := s.actor, s.obj
	switch s.op {
	case blkSend:
		switch {
		case len(m.readers[o]) > 0:
			m.done(popFront(&m.readers[o]), s.value)
			m.done(a, s.value)
		case len(m.buf[o]) < blkCap[o]:
			m.buf[o] = append(m.buf[o], s.value)
			m.done(a, s.value)
		default:
			m.senders[o] = append(m.senders[o], [2]int{a, s.value})
			m.parked[a] = true
		}
	case blkRecv, blkTryTake:
		switch {
		case len(m.buf[o]) > 0:
			x := popFront(&m.buf[o])
			if len(m.senders[o]) > 0 {
				p := popFront(&m.senders[o])
				m.buf[o] = append(m.buf[o], p[1])
				m.done(p[0], p[1])
			}
			m.done(a, x)
		case len(m.senders[o]) > 0:
			p := popFront(&m.senders[o])
			m.done(p[0], p[1])
			m.done(a, p[1])
		case s.op == blkTryTake:
			m.done(a, -1)
		default:
			m.readers[o] = append(m.readers[o], a)
			m.parked[a] = true
		}
	case blkAcquire, blkTryLock:
		switch {
		case m.permits[o] > 0:
			m.permits[o]--
			m.holds[a][o]++
			if s.op == blkTryLock {
				m.done(a, 1)
			} else {
				m.done(a, 0)
			}
		case s.op == blkTryLock:
			m.done(a, 0)
		default:
			m.waiters[o] = append(m.waiters[o], a)
			m.parked[a] = true
		}
	case blkRelease:
		m.holds[a][o]--
		m.done(a, 0)
		if len(m.waiters[o]) == 0 {
			m.permits[o]++
			return
		}
		w := popFront(&m.waiters[o])
		m.holds[w][o]++
		m.done(w, 0)
	}
}

// blocks reports whether the model would park s's actor.
func (m *blkModel) blocks(s blkStep) bool {
	o := s.obj
	switch s.op {
	case blkSend:
		return len(m.readers[o]) == 0 && len(m.buf[o]) >= blkCap[o]
	case blkRecv:
		return len(m.buf[o]) == 0 && len(m.senders[o]) == 0
	case blkAcquire:
		return m.permits[o] == 0
	}
	return false
}

// genBlkScript decodes a script from r, running the model as it goes: each
// step goes to an actor the model has unblocked, so an actor is never
// scheduled while it should be parked. Releases go only to holders, and
// three in four operations that would park their actor are steered to
// one that does not, so scripts run long enough to queue several waiters.
func genBlkScript(r *fuzzReader) (int, []blkStep, *blkModel) {
	actors := 2 + int(r.next()%6)
	m := newBlkModel(actors)
	sends := make([]int, actors)
	var steps []blkStep
	for len(steps) < 96 && r.pos < len(r.data) {
		var free []int
		for a, p := range m.parked {
			if !p {
				free = append(free, a)
			}
		}
		if len(free) == 0 {
			break
		}
		a := free[int(r.next())%len(free)]
		b := int(r.next())
		s := blkStep{actor: a, obj: b % blkObjects}
		k := b / blkObjects % 3
		switch s.obj {
		case blkMVar:
			s.op = [...]blkOp{blkSend, blkRecv, blkTryTake}[k]
		case blkSem, blkMutex:
			s.op = [...]blkOp{blkAcquire, blkRelease, blkTryLock}[k]
			if s.op == blkRelease && m.holds[a][s.obj] == 0 || s.op == blkTryLock && s.obj == blkSem {
				s.op = blkAcquire
			}
		default:
			s.op = [...]blkOp{blkSend, blkRecv, blkSend}[k]
		}
		if b>>6 != 0 && m.blocks(s) { // three times in four, steer off a park
			switch {
			case s.obj == blkSem || s.obj == blkMutex:
				if m.holds[a][s.obj] > 0 {
					s.op = blkRelease
				}
			case s.op == blkSend:
				s.op = blkRecv
			default:
				s.op = blkSend
			}
		}
		if s.op == blkSend {
			s.value = a*1000 + sends[a]
			sends[a]++
		}
		m.apply(s)
		steps = append(steps, s)
	}
	return actors, steps, m
}

// checkBlkScript runs the script decoded from data, one thread per actor,
// on a virtual clock, and holds the run to three properties and to the
// model: every value sent is received exactly once (or still sits in a
// buffer or with a parked sender), in per-sender order; no semaphore or
// mutex admits more holders than it has permits; and the threads parked
// at quiescence are exactly the actors the model left blocked, with each
// actor's results equal to the model's.
func checkBlkScript(t *testing.T, data []byte) {
	actors, steps, model := genBlkScript(&fuzzReader{data: data})
	clk := vclock.NewVirtual()
	rt := NewRuntime(Options{Clock: clk})
	defer rt.Shutdown()
	chans := [blkObjects]*Chan[int]{NewChan[int](0), NewChan[int](1), NewChan[int](3)}
	mv, sem, mu := NewMVar[int](), NewSemaphore(blkCap[blkSem]), NewMutex()
	chans[blkMVar] = &mv.ch

	logs := make([][]int, actors)
	done := make([]bool, actors)
	var sent, recvd [blkObjects][]int
	var holders [blkObjects]int
	var overAdmit []string
	hold := func(o int) {
		if holders[o]++; holders[o] > blkCap[o] {
			overAdmit = append(overAdmit, fmt.Sprintf("o%d held by %d", o, holders[o]))
		}
	}
	op := func(a int, s blkStep) M[Unit] {
		log := func(x int) { logs[a] = append(logs[a], x) }
		recv := func(x int) M[Unit] {
			return Do(func() { recvd[s.obj] = append(recvd[s.obj], x); log(x) })
		}
		switch {
		case s.op == blkSend:
			put := chans[s.obj].Send
			if s.obj == blkMVar {
				put = mv.Put
			}
			return Seq(Do(func() { sent[s.obj] = append(sent[s.obj], s.value) }),
				put(s.value), Do(func() { log(s.value) }))
		case s.op == blkRecv:
			take := chans[s.obj].Recv
			if s.obj == blkMVar {
				take = mv.Take
			}
			return Bind(take(), recv)
		case s.op == blkTryTake:
			return Bind(mv.TryTake(), func(r struct {
				Value int
				OK    bool
			}) M[Unit] {
				if !r.OK {
					return Do(func() { log(-1) })
				}
				return recv(r.Value)
			})
		case s.op == blkAcquire && s.obj == blkSem:
			return Then(sem.Acquire(), Do(func() { hold(s.obj); log(0) }))
		case s.op == blkAcquire:
			return Then(mu.Lock(), Do(func() { hold(s.obj); log(0) }))
		case s.op == blkTryLock:
			return Bind(mu.TryLock(), func(ok bool) M[Unit] {
				return Do(func() {
					if ok {
						hold(s.obj)
						log(1)
					} else {
						log(0)
					}
				})
			})
		}
		rel := mu.Unlock()
		if s.obj == blkSem {
			rel = sem.Release()
		}
		return Then(Do(func() { holders[s.obj]--; log(0) }), rel)
	}
	at := func(i int) vclock.Time { return vclock.Time(i+1) * vclock.Time(time.Millisecond) }
	progs := make([][]M[Unit], actors)
	for i, s := range steps {
		wait := Bind(NBIO(func() vclock.Time { return at(i) - clk.Now() }), func(d vclock.Time) M[Unit] {
			return Sleep(clk, vclock.Duration(d))
		})
		progs[s.actor] = append(progs[s.actor], wait, op(s.actor, s))
	}
	var parked []bool
	var live int64
	var left [blkObjects][]int // values still buffered or held by parked senders
	fin := make(chan struct{})
	clk.Enter()
	for a := range actors {
		rt.Spawn(Then(Seq(progs[a]...), Do(func() { done[a] = true })))
	}
	rt.Spawn(Then(Sleep(clk, vclock.Duration(at(len(steps)))), Do(func() {
		live = rt.Live() - 1 // all but this thread
		for _, d := range done {
			parked = append(parked, !d)
		}
		for o := range blkMVar + 1 {
			c := chans[o]
			c.mu.Lock()
			left[o] = append(left[o], c.buf...)
			for _, p := range c.senders {
				left[o] = append(left[o], p.value)
			}
			c.mu.Unlock()
		}
		close(fin)
	})))
	clk.Exit()
	select {
	case <-fin:
	case <-time.After(10 * time.Second):
		t.Fatalf("script never reached quiescence\n%v", steps)
	}

	fail := func(format string, args ...any) {
		t.Helper()
		t.Fatalf(format+"\nscript: %v", append(args, steps)...)
	}
	for o := range blkMVar + 1 {
		got := append(slices.Clone(recvd[o]), left[o]...)
		slices.Sort(got)
		want := slices.Sorted(slices.Values(sent[o]))
		if !slices.Equal(got, want) {
			fail("o%d: received %v, left %v; sent %v", o, recvd[o], left[o], sent[o])
		}
		last := map[int]int{}
		for _, x := range recvd[o] {
			if seq, ok := last[x/1000]; ok && x%1000 <= seq {
				fail("o%d: actor %d's values received out of order: %v", o, x/1000, recvd[o])
			}
			last[x/1000] = x % 1000
		}
	}
	if len(overAdmit) > 0 {
		fail("over-admitted: %s", strings.Join(overAdmit, ", "))
	}
	if !slices.Equal(parked, model.parked) {
		fail("parked at quiescence %v, model %v", parked, model.parked)
	}
	if n := int64(strings.Count(fmt.Sprint(parked), "true")); live != n {
		fail("%d threads live at quiescence, want the %d parked", live, n)
	}
	for a := range actors {
		if !slices.Equal(logs[a], model.logs[a]) {
			fail("actor %d results %v, model %v", a, logs[a], model.logs[a])
		}
	}
}

// TestBlockingPrimitivesScript runs checkBlkScript over seeded random
// scripts; a failure names its seed.
func TestBlockingPrimitivesScript(t *testing.T) {
	for seed := int64(1); seed <= 300; seed++ {
		data := make([]byte, 192)
		rand.New(rand.NewSource(seed)).Read(data)
		t.Run(fmt.Sprint(seed), func(t *testing.T) { checkBlkScript(t, data) })
	}
}

// FuzzBlockingPrimitives is TestBlockingPrimitivesScript's generator under
// the fuzzer.
func FuzzBlockingPrimitives(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 0, 3, 1, 3, 0, 15, 1, 9})
	f.Add([]byte{3, 0, 4, 1, 4, 2, 4, 0, 10})
	f.Add([]byte{0, 0, 5, 1, 5, 0, 11, 1, 17})
	f.Fuzz(checkBlkScript)
}
