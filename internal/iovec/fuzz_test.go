package iovec

import (
	"bytes"
	"testing"
)

// FuzzVecModel drives a Vec and a flat []byte reference model through
// the same operation sequence decoded from the fuzz input: every
// observation (Len, Bytes, At, CopyTo) must agree. The Vec is rebuilt
// from multiple segments, so segment-boundary arithmetic in
// Slice/Drop/Take/Concat is what's actually under test.
func FuzzVecModel(f *testing.F) {
	f.Add([]byte("hello world"), []byte{0, 3, 1, 2, 2, 5})
	f.Add([]byte("abcdefghij"), []byte{1, 9, 0, 1, 2, 2, 1, 3})
	f.Add([]byte(""), []byte{0, 0, 1, 0})
	f.Add([]byte("xyz"), []byte{3, 1, 3, 2, 3, 3})
	f.Fuzz(func(t *testing.T, data []byte, script []byte) {
		if len(data) > 1<<16 {
			t.Skip("cap the model size")
		}
		// Build the vector from segments split wherever the script says,
		// so the same logical bytes cross many segment boundaries.
		v := Vec{}
		model := append([]byte(nil), data...)
		rest := data
		for i := 0; len(rest) > 0; i++ {
			cut := 1
			if i < len(script) {
				cut = 1 + int(script[i])%16
			}
			if cut > len(rest) {
				cut = len(rest)
			}
			v = v.Append(rest[:cut])
			rest = rest[cut:]
		}

		check := func(op string) {
			t.Helper()
			if v.Len() != len(model) {
				t.Fatalf("%s: Len=%d model=%d", op, v.Len(), len(model))
			}
			if !bytes.Equal(flat(v), model) {
				t.Fatalf("%s: Bytes()=%q model=%q", op, flat(v), model)
			}
			if v.Empty() != (len(model) == 0) {
				t.Fatalf("%s: Empty()=%v with %d bytes", op, v.Empty(), len(model))
			}
			short := make([]byte, len(model)/2+1)
			n := v.CopyTo(short)
			want := len(short)
			if want > len(model) {
				want = len(model)
			}
			if n != want || !bytes.Equal(short[:n], model[:n]) {
				t.Fatalf("%s: CopyTo copied %d, want prefix %q", op, n, model[:want])
			}
		}
		check("build")

		// Replay the script as operations over both representations.
		for i := 0; i+1 < len(script); i += 2 {
			opcode, arg := script[i]%4, int(script[i+1])
			switch opcode {
			case 0: // Drop(n)
				n := 0
				if len(model) > 0 {
					n = arg % (len(model) + 1)
				}
				v = v.Drop(n)
				model = model[n:]
				check("drop")
			case 1: // Take(n)
				n := 0
				if len(model) > 0 {
					n = arg % (len(model) + 1)
				}
				v = v.Take(n)
				model = model[:n]
				check("take")
			case 2: // Slice(from, to) around a midpoint
				if len(model) == 0 {
					continue
				}
				from := arg % (len(model) + 1)
				to := from + (arg*7)%(len(model)-from+1)
				v = v.Slice(from, to)
				model = model[from:to]
				check("slice")
			case 3: // Concat with a fresh tail built from the arg
				tail := bytes.Repeat([]byte{byte(arg)}, arg%9)
				v = v.Concat(FromBytes(tail))
				model = append(model, tail...)
				check("concat")
			}
		}
	})
}

// FuzzVecSliceBounds: out-of-range slices must panic (like Go slicing)
// and in-range slices must never panic, regardless of segmentation.
func FuzzVecSliceBounds(f *testing.F) {
	f.Add([]byte("abcdef"), 2, 0, 7)
	f.Add([]byte("abcdef"), 1, -1, 3)
	f.Add([]byte(""), 1, 0, 0)
	f.Fuzz(func(t *testing.T, data []byte, seg, from, to int) {
		if len(data) > 1<<12 {
			t.Skip()
		}
		if seg < 1 {
			seg = 1
		}
		v := Vec{}
		for off := 0; off < len(data); off += seg {
			end := off + seg
			if end > len(data) {
				end = len(data)
			}
			v = v.Append(data[off:end])
		}
		valid := from >= 0 && from <= to && to <= len(data)
		defer func() {
			r := recover()
			if valid && r != nil {
				t.Fatalf("Slice(%d,%d) of %d bytes panicked: %v", from, to, len(data), r)
			}
			if !valid && r == nil {
				t.Fatalf("Slice(%d,%d) of %d bytes did not panic", from, to, len(data))
			}
		}()
		got := v.Slice(from, to)
		if !bytes.Equal(flat(got), data[from:to]) {
			t.Fatalf("Slice(%d,%d) = %q, want %q", from, to, flat(got), data[from:to])
		}
	})
}

// FuzzQueueModel drives a Queue and a flat []byte model through pushes of
// multi-segment vectors and cuts decoded from the fuzz input. Every cut
// must hold the model's bytes, and must still hold them at the end, after
// the pushes and cuts that followed it: a cut shares the queue's segment
// list, so a slot the queue wrote again would show here.
func FuzzQueueModel(f *testing.F) {
	f.Add([]byte{0, 5, 1, 3, 0, 9, 1, 11})
	f.Add([]byte{0, 1, 0, 1, 0, 1, 1, 2, 1, 1})
	f.Add([]byte{0, 30, 0, 2, 0, 17, 1, 40, 0, 3, 1, 9, 1, 4})
	f.Fuzz(func(t *testing.T, script []byte) {
		var q Queue
		var model []byte
		type cut struct {
			v    Vec
			want []byte
		}
		var cuts []cut
		next := byte(0)
		for i := 0; i+1 < len(script); i += 2 {
			arg := int(script[i+1])
			if script[i]%2 == 0 { // push arg bytes in segments of up to 7
				var v Vec
				for n := arg; n > 0; {
					seg := make([]byte, min(n, 1+int(next)%7))
					for j := range seg {
						seg[j] = next
						next++
					}
					v = v.Append(seg)
					n -= len(seg)
				}
				q.Push(v.Drop(min(1, v.Len()))) // a pushed vector may start mid-segment
				model = append(model, flat(v.Drop(min(1, v.Len())))...)
			} else if len(model) > 0 { // cut 1..len bytes
				n := 1 + arg%len(model)
				v := q.Cut(n)
				if !bytes.Equal(flat(v), model[:n]) {
					t.Fatalf("cut %d = %v, want %v", n, flat(v), model[:n])
				}
				cuts = append(cuts, cut{v, append([]byte(nil), model[:n]...)})
				model = model[n:]
			}
			if q.Len() != len(model) || q.Empty() != (len(model) == 0) {
				t.Fatalf("Len %d, model %d", q.Len(), len(model))
			}
		}
		for i, c := range cuts {
			if !bytes.Equal(flat(c.v), c.want) {
				t.Fatalf("cut %d changed: %v, was %v", i, flat(c.v), c.want)
			}
		}
		if len(model) > 0 && !bytes.Equal(flat(q.Cut(len(model))), model) {
			t.Fatal("the queue's remainder differs from the model")
		}
	})
}
