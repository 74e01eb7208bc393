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
// A vector of exactly one segment is stored inline (single), so the
// dominant cases — wrapping one write buffer, or slicing a window out of
// one segment on the retransmission path — build and split vectors
// without allocating a segment list.
type Vec struct {
	single []byte   // the only segment, when segs is nil
	segs   [][]byte // two or more segments, nil otherwise
	length int
}

// FromBytes wraps one slice without copying (and without allocating).
func FromBytes(b []byte) Vec {
	if len(b) == 0 {
		return Vec{}
	}
	return Vec{single: b, length: len(b)}
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
		return Vec{single: b, length: len(b)}
	}
	out := Vec{length: v.length + len(b)}
	if v.segs == nil {
		out.segs = [][]byte{v.single, b}
		return out
	}
	out.segs = make([][]byte, 0, len(v.segs)+1)
	out.segs = append(out.segs, v.segs...)
	out.segs = append(out.segs, b)
	return out
}

// Concat returns the concatenation of v and w, sharing both.
func (v Vec) Concat(w Vec) Vec {
	if w.length == 0 {
		return v
	}
	if v.length == 0 {
		return w
	}
	if w.segs == nil {
		return v.Append(w.single)
	}
	out := Vec{length: v.length + w.length}
	out.segs = make([][]byte, 0, v.Segments()+len(w.segs))
	if v.segs == nil {
		out.segs = append(out.segs, v.single)
	} else {
		out.segs = append(out.segs, v.segs...)
	}
	out.segs = append(out.segs, w.segs...)
	return out
}

// Slice returns the byte range [from, to) as a vector sharing the same
// segments. It panics on an invalid range, like slicing. A range that
// falls within one underlying segment — every slice of a single-segment
// vector, and any narrow window of a chain — is returned inline, without
// allocating.
func (v Vec) Slice(from, to int) Vec {
	if from < 0 || to < from || to > v.length {
		panic("iovec: slice range out of bounds")
	}
	if from == to {
		return Vec{}
	}
	if v.segs == nil {
		return Vec{single: v.single[from:to], length: to - from}
	}
	skip := from
	need := to - from
	// Find the first spanned segment; if the range fits inside it the
	// result is a single-segment view.
	i := 0
	for ; i < len(v.segs); i++ {
		if skip < len(v.segs[i]) {
			break
		}
		skip -= len(v.segs[i])
	}
	if need <= len(v.segs[i])-skip {
		return Vec{single: v.segs[i][skip : skip+need], length: need}
	}
	out := Vec{length: need}
	out.segs = make([][]byte, 0, len(v.segs)-i)
	for ; i < len(v.segs); i++ {
		s := v.segs[i]
		take := len(s) - skip
		if take > need {
			take = need
		}
		out.segs = append(out.segs, s[skip:skip+take])
		need -= take
		skip = 0
		if need == 0 {
			break
		}
	}
	return out
}

// Drop returns the vector without its first n bytes.
func (v Vec) Drop(n int) Vec { return v.Slice(n, v.length) }

// Take returns the vector's first n bytes.
func (v Vec) Take(n int) Vec { return v.Slice(0, n) }

// CopyTo copies up to len(p) bytes into p, returning the count. This is
// the single copy at the wire (or user) boundary.
func (v Vec) CopyTo(p []byte) int {
	if v.segs == nil {
		return copy(p, v.single)
	}
	n := 0
	for _, s := range v.segs {
		if n >= len(p) {
			break
		}
		n += copy(p[n:], s)
	}
	return n
}

// Segments reports the number of underlying segments: one per slice
// appended, until a Drop passes it. A zero-copy path keeps segment counts
// proportional to writes, not bytes, and tcp counts its datagrams by them.
func (v Vec) Segments() int {
	if v.segs == nil {
		if v.length == 0 {
			return 0
		}
		return 1
	}
	return len(v.segs)
}
