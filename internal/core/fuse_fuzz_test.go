package core

import (
	"errors"
	"testing"
)

// FuzzFusedEquivalence builds random combinator trees from the fuzz
// input and renders each twice — once over the fused spines (Seq, ForN,
// RepeatN, Loop, Poll) and once over the naive closure spellings (the
// executable spec in monad.go) — then runs both on single-worker
// runtimes at BatchSteps=1 and requires identical effect logs, and no
// more dispatches (= trace nodes) fused than naive. Effect-sequence
// equivalence is the rule (DESIGN.md "Continuation flattening"): a
// fused form may drop plumbing nodes, never add one or reorder an
// effect. While and FoldN have one spelling, over Loop and ForN; they
// render the same on both sides and differ only in what is under them.
func FuzzFusedEquivalence(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 0, 0})
	f.Add([]byte{2, 2, 0})
	f.Add([]byte{4, 3, 0, 5, 2, 0})
	f.Add([]byte{7, 1, 0, 8, 0, 6, 4})
	f.Add([]byte{9, 3, 1, 2, 0, 0, 3, 2, 0, 6, 2})
	f.Add([]byte{3, 2, 10, 2, 0b100001})
	f.Add([]byte{1, 0, 1, 10, 1, 0b1101, 10, 0, 3, 10, 2, 0b0010})
	f.Fuzz(func(t *testing.T, data []byte) {
		tree := parseFuseTree(&fuzzReader{data: data})
		var lf, ln logger
		fused := renderFuseTree(tree, &lf, true)
		naive := renderFuseTree(tree, &ln, false)
		df := runDispatches(t, fused)
		dn := runDispatches(t, naive)
		if !equalInts(lf.values(), ln.values()) {
			t.Fatalf("effect logs differ\nfused %v\nnaive %v", lf.values(), ln.values())
		}
		if df > dn {
			t.Fatalf("fused emits more nodes: %d dispatches, naive %d", df, dn)
		}
	})
}

type fuzzReader struct {
	data []byte
	pos  int
	ops  int
}

func (r *fuzzReader) next() byte {
	if r.pos >= len(r.data) {
		return 0
	}
	b := r.data[r.pos]
	r.pos++
	return b
}

// fuseTree is the generator's AST: op selects the combinator, n its
// iteration/arity knob, kids its sub-programs.
type fuseTree struct {
	op     byte
	n      int
	script []pollStep // opPoll: the outcomes before Done
	kids   []fuseTree
}

const (
	opEff       = iota // leaf effect
	opSeq              // Seq(kids...)
	opForN             // ForN(n, body from kid)
	opRepeatN          // RepeatN(n, kid)
	opLoop             // Loop over kid, n iterations
	opWhile            // While(counter cond, kid)
	opFoldN            // FoldN(n) with logged accumulator
	opCatch            // Catch(Seq(kid, Throw, kid), handler kid)
	opFinally          // Finally(kid, effect)
	opBindChain        // nested Bind of n logged steps
	opPoll             // Poll over a scripted operation of n outcomes, then Done
	opCount
)

// parseFuseTree consumes fuzz bytes into a bounded tree: depth ≤ 4 and
// at most 48 combinator nodes, so every input terminates quickly.
func parseFuseTree(r *fuzzReader) fuseTree {
	return parseFuseNode(r, 4)
}

func parseFuseNode(r *fuzzReader, depth int) fuseTree {
	r.ops++
	if depth <= 0 || r.ops > 48 {
		return fuseTree{op: opEff}
	}
	nd := fuseTree{op: r.next() % opCount, n: int(r.next()%3) + 1}
	switch nd.op {
	case opEff, opWhile, opFoldN, opBindChain:
		// leaf, or combinators whose body is synthesized from n
		if nd.op == opWhile {
			nd.kids = []fuseTree{parseFuseNode(r, depth-1)}
		}
	case opPoll:
		// two bits per outcome; under a loop the same trace is re-forced
		// (fused) or the M re-applied (naive) for message after message
		for bits := r.next(); len(nd.script) < nd.n; bits >>= 2 {
			nd.script = append(nd.script, pollStep(bits%byte(stepCount)))
		}
	case opSeq:
		k := int(r.next()%3) + 2
		for i := 0; i < k; i++ {
			nd.kids = append(nd.kids, parseFuseNode(r, depth-1))
		}
	case opCatch:
		nd.kids = []fuseTree{parseFuseNode(r, depth-1), parseFuseNode(r, depth-1)}
	default: // opForN, opRepeatN, opLoop, opFinally
		nd.kids = []fuseTree{parseFuseNode(r, depth-1)}
	}
	return nd
}

var errFuzzSentinel = errors.New("fuse fuzz sentinel")

// renderFuseTree renders the tree over the fused combinators when fused
// is true, over the naive spellings otherwise. Both renderings traverse
// the tree identically, so effect ids line up one-to-one.
func renderFuseTree(nd fuseTree, l *logger, fused bool) M[Unit] {
	id := 0
	var render func(nd fuseTree) M[Unit]
	render = func(nd fuseTree) M[Unit] {
		id++
		base := id * 100
		switch nd.op {
		case opSeq:
			ms := make([]M[Unit], len(nd.kids))
			for i, kid := range nd.kids {
				ms[i] = render(kid)
			}
			if fused {
				return Seq(ms...)
			}
			return NaiveSeq(ms...)
		case opForN:
			kid := render(nd.kids[0])
			body := func(i int) M[Unit] { return Then(l.add(base+i), kid) }
			if fused {
				return ForN(nd.n, body)
			}
			return NaiveForN(nd.n, body)
		case opRepeatN:
			kid := render(nd.kids[0])
			if fused {
				return RepeatN(nd.n, kid)
			}
			return NaiveForN(nd.n, func(int) M[Unit] { return kid })
		case opLoop:
			kid := render(nd.kids[0])
			n, limit := 0, nd.n
			body := Bind(kid, func(Unit) M[bool] {
				return NBIO(func() bool {
					n++
					return n < limit
				})
			})
			if fused {
				return Loop(body)
			}
			return NaiveLoop(body)
		case opWhile:
			kid := render(nd.kids[0])
			n, limit := 0, nd.n
			cond := NBIO(func() bool {
				n++
				return n <= limit
			})
			return While(cond, kid)
		case opFoldN:
			body := func(i, acc int) M[int] {
				return Then(l.add(base+i), Return(acc+i+1))
			}
			return Bind(FoldN(nd.n, base, body), func(acc int) M[Unit] { return l.add(acc) })
		case opCatch:
			body := render(nd.kids[0])
			handler := render(nd.kids[1])
			var seq M[Unit]
			if fused {
				seq = Seq(body, l.add(base), Throw[Unit](errFuzzSentinel))
			} else {
				seq = NaiveSeq(body, l.add(base), Throw[Unit](errFuzzSentinel))
			}
			return Catch(seq, func(err error) M[Unit] {
				if !errors.Is(err, errFuzzSentinel) {
					return Throw[Unit](err)
				}
				return Then(l.add(base+1), handler)
			})
		case opFinally:
			kid := render(nd.kids[0])
			return Finally(kid, l.add(base))
		case opBindChain:
			m := Return(base)
			for j := 0; j < nd.n; j++ {
				j := j
				m = Bind(m, func(x int) M[int] { return Then(l.add(base+j), Return(x+j)) })
			}
			return Bind(m, func(x int) M[Unit] { return l.add(x) })
		case opPoll:
			return loggedPoll(l, base, [][]pollStep{nd.script}, fused)
		default: // opEff
			return l.add(base)
		}
	}
	return render(nd)
}
