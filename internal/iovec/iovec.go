// Package iovec implements I/O vectors: a logical byte string represented
// as a chain of shared slices, so data can be appended, split, and queued
// through protocol layers without copying. The paper's application-level
// TCP stack "is a zero-copy implementation; it uses IO vectors to
// represent data buffers indirectly" (§5.2) — internal/tcp's send path
// carries these vectors from the user's write to the wire encoder.
package iovec

// Vec is an immutable view of a sequence of bytes held in one or more
// underlying segments. Operations share the segments; the bytes must not
// be mutated while any Vec referencing them is live.
//
// The first segment is stored inline (head), and the ones after it in a
// list (segs) whose last element may reach past the view's end: length
// cuts it. So wrapping one write buffer allocates nothing, and neither
// does any slice of a vector — a window within one segment is inline, and
// a window across several shares the list it was cut from. Only joining
// vectors (Append, Concat) builds a list. No operation writes into a list
// once built, so a shared one never changes under a view.
type Vec struct {
	head   []byte   // the first segment: all of length when segs is empty
	segs   [][]byte // the segments after head, each holding bytes of the view
	length int
}

// FromBytes wraps one slice without copying (and without allocating).
func FromBytes(b []byte) Vec {
	if len(b) == 0 {
		return Vec{}
	}
	return Vec{head: b, length: len(b)}
}

// Len reports the logical length in bytes.
func (v Vec) Len() int { return v.length }

// Empty reports whether the vector has no bytes.
func (v Vec) Empty() bool { return v.length == 0 }

// Append returns a vector with b's bytes (shared, not copied) after v's.
func (v Vec) Append(b []byte) Vec {
	if len(b) == 0 {
		return v
	}
	if v.length == 0 {
		return FromBytes(b)
	}
	all := append(make([][]byte, 0, v.Segments()+1), v.head)
	rest := v.length - len(v.head)
	for _, s := range v.segs {
		s = s[:min(len(s), rest)]
		all = append(all, s)
		rest -= len(s)
	}
	return Vec{head: v.head, segs: append(all, b)[1:], length: v.length + len(b)}
}

// Concat returns the concatenation of v and w, sharing both.
func (v Vec) Concat(w Vec) Vec {
	if v.length == 0 {
		return w
	}
	for ; w.length > 0; w = w.Drop(len(w.head)) {
		v = v.Append(w.head)
	}
	return v
}

// Slice returns the byte range [from, to) as a vector sharing the same
// segments, and the same segment list, without allocating. It panics on
// an invalid range, like slicing.
func (v Vec) Slice(from, to int) Vec {
	if from < 0 || to < from || to > v.length {
		panic("iovec: slice range out of bounds")
	}
	if from == to {
		return Vec{}
	}
	head, segs, n := v.head, v.segs, to-from
	for from >= len(head) {
		from -= len(head)
		head, segs = segs[0], segs[1:]
	}
	if head = head[from:]; n <= len(head) {
		return Vec{head: head[:n], length: n}
	}
	j := 0
	for need := n - len(head); need > 0; j++ {
		need -= len(segs[j])
	}
	return Vec{head: head, segs: segs[:j:j], length: n}
}

// Drop returns the vector without its first n bytes.
func (v Vec) Drop(n int) Vec { return v.Slice(n, v.length) }

// Take returns the vector's first n bytes.
func (v Vec) Take(n int) Vec { return v.Slice(0, n) }

// CopyTo copies up to len(p) bytes into p, returning the count. This is
// the single copy at the wire (or user) boundary.
func (v Vec) CopyTo(p []byte) int {
	n := copy(p, v.head)
	rest := v.length - len(v.head)
	for _, s := range v.segs {
		if n >= len(p) {
			break
		}
		s = s[:min(len(s), rest)]
		n += copy(p[n:], s)
		rest -= len(s)
	}
	return n
}

// Segments reports the number of underlying segments: one per slice
// appended, until a Drop passes it. A zero-copy path keeps segment counts
// proportional to writes, not bytes, and tcp counts its datagrams by them.
func (v Vec) Segments() int {
	if v.length == 0 {
		return 0
	}
	return 1 + len(v.segs)
}

// Queue is a vector its one owner grows at the back and cuts at the front
// in place — a send buffer. Push appends into a segment list the queue
// owns, and a cut shares that list, so neither allocates per message: the
// list is rebuilt only when it fills, at twice its live length. No slot a
// cut can see is written again. A Queue must not be copied.
type Queue struct {
	v Vec // the queued bytes; v.segs keeps its list's spare capacity
}

// Len reports the queued bytes.
func (q *Queue) Len() int { return q.v.length }

// Empty reports whether nothing is queued.
func (q *Queue) Empty() bool { return q.v.length == 0 }

// Push queues v's bytes after the queued ones, sharing them.
func (q *Queue) Push(v Vec) {
	for ; v.length > 0; v = v.Drop(len(v.head)) {
		if q.v.length == 0 {
			q.v.head = v.head
		} else {
			if len(q.v.segs) == cap(q.v.segs) {
				q.v.segs = append(make([][]byte, 0, 2*len(q.v.segs)+4), q.v.segs...)
			}
			q.v.segs = append(q.v.segs, v.head)
		}
		q.v.length += len(v.head)
	}
}

// Cut removes the first n bytes and returns them.
func (q *Queue) Cut(n int) Vec {
	out, rest := q.v.Take(n), q.v.Drop(n)
	rest.segs = q.v.segs[len(q.v.segs)-len(rest.segs):] // the same tail, keeping the spare capacity
	q.v = rest
	return out
}
