package tcp

// sackRanges is the receiver's record of out-of-order sequence ranges, the
// source of the SACK blocks attached to outgoing ACKs (RFC 2018).
// Invariants, fuzz-checked in sack_fuzz_test.go:
//
//   - blocks are sorted by Start in wraparound order and pairwise disjoint
//     (adjacent ranges merge);
//   - there are at most maxSackBlocks blocks — on overflow the
//     highest-start block is evicted, keeping the ranges nearest the hole
//     the sender must fill first;
//   - after trim(rcvNxt), every block starts strictly above rcvNxt, so a
//     block never reports sequence space the cumulative ACK already
//     covers.
type sackRanges struct {
	blks []SackBlock
}

// add records [start, end) as received. Overlapping and adjacent blocks
// merge; empty or inverted ranges are ignored.
func (s *sackRanges) add(start, end uint32) {
	if !seqLT(start, end) {
		return
	}
	merged := SackBlock{Start: start, End: end}
	out := make([]SackBlock, 0, len(s.blks)+1)
	placed := false
	for _, b := range s.blks {
		switch {
		case seqLT(b.End, merged.Start):
			out = append(out, b) // entirely before, not adjacent
		case seqLT(merged.End, b.Start):
			if !placed {
				out = append(out, merged)
				placed = true
			}
			out = append(out, b) // entirely after, not adjacent
		default:
			// Overlapping or adjacent: absorb into the merged block.
			if seqLT(b.Start, merged.Start) {
				merged.Start = b.Start
			}
			if seqGT(b.End, merged.End) {
				merged.End = b.End
			}
		}
	}
	if !placed {
		out = append(out, merged)
	}
	if len(out) > maxSackBlocks {
		out = out[:maxSackBlocks] // evict the highest-start block
	}
	s.blks = out
}

// trim drops blocks the cumulative ACK has caught up with: everything not
// starting strictly above rcvNxt. (A block straddling rcvNxt cannot arise —
// its bytes at rcvNxt would have advanced rcvNxt — but if one ever did,
// dropping it whole errs toward under-reporting, which SACK semantics
// permit.)
func (s *sackRanges) trim(rcvNxt uint32) {
	kept := s.blks[:0]
	for _, b := range s.blks {
		if seqGT(b.Start, rcvNxt) {
			kept = append(kept, b)
		}
	}
	s.blks = kept
}
