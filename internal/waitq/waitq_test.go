package waitq

import (
	"fmt"
	"testing"
)

// FuzzWaitListModel holds List to the slice it replaced in the kernel's
// pollable objects: waiters appended in registration order, a wakeup that
// removes the ones whose mask meets the event and fires them in order
// after the scan, the rest kept in order. Each script drives a pool of
// waiters through register, fire-by-readiness, close (a hang-up every
// waiter's mask holds, as Watch guarantees) and the TCP stack's wake of a
// whole list, some of them re-registering on the same list from inside
// their Wake. After every step the list must hold what the model holds,
// in the same order; every pass must fire the model's waiters, in its
// order, with its event, and none twice.
func FuzzWaitListModel(f *testing.F) {
	f.Add([]byte{0, 1, 1, 0, 2, 2, 1, 1})
	f.Add([]byte{0, 0, 1, 0, 1, 2, 0, 2, 1, 3, 0, 1, 2})
	f.Add([]byte{3, 1, 0, 1, 1, 0, 2, 2, 1, 3, 4, 0, 1, 2})
	f.Add([]byte{0, 5, 3, 0, 6, 1, 3, 5, 3, 6, 1, 3, 4, 4})
	f.Fuzz(func(t *testing.T, script []byte) {
		const pool, hup = 8, 4
		type fired struct {
			id int
			ev uint8
		}
		var (
			l      List
			got    []fired
			ws     [pool]*modelWaiter
			model  []int // ids, in list order
			parked [pool]bool
		)
		for i := range ws {
			ws[i] = &modelWaiter{id: i, log: func(id int, ev uint8) { got = append(got, fired{id, ev}) }}
			ws[i].w.Target = ws[i]
			ws[i].list = &l
		}
		// pass fires ev at the list as a kernel wakeup does (take, then
		// wake after the scan) or, with all, as the TCP stack does (the
		// whole list), and checks the firings against the model's.
		pass := func(ev uint8, all bool) {
			var want []fired
			var kept []int
			for _, id := range model {
				if all || ws[id].w.Mask&ev != 0 {
					want = append(want, fired{id, ev})
				} else {
					kept = append(kept, id)
				}
			}
			model = kept
			for _, fw := range want {
				parked[fw.id] = ws[fw.id].rearm
				if ws[fw.id].rearm {
					model = append(model, fw.id)
				}
			}
			got = got[:0]
			if all {
				var w List
				w.Append(&l)
				w.WakeAll(ev)
			} else {
				taken := l.Take(ev)
				taken.WakeAll(ev)
			}
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("fired %v with %d, want %v", got, ev, want)
			}
			seen := map[int]bool{}
			for _, fw := range got {
				if seen[fw.id] {
					t.Fatalf("waiter %d fired twice in one pass: %v", fw.id, got)
				}
				seen[fw.id] = true
			}
		}
		for i := 0; i+1 < len(script); i += 2 {
			op, arg := script[i]%5, script[i+1]
			id := int(arg) % pool
			switch op {
			case 0: // register, if not already parked
				if !parked[id] {
					ws[id].w.Mask = (arg>>3)&3 | hup
					l.Push(&ws[id].w)
					model = append(model, id)
					parked[id] = true
				}
			case 1: // fire by readiness
				if ev := arg & 3; ev != 0 {
					pass(ev, false)
				}
			case 2: // close: the hang-up reaches every waiter
				pass(arg&3|hup, false)
			case 3: // the next wake of id re-registers on the list
				ws[id].rearm = !ws[id].rearm
			case 4: // the TCP stack's wake of a whole list
				pass(0, true)
			}
			// The list holds the model's waiters, in its order.
			var tmp List
			tmp.Append(&l)
			var have []int
			for w := tmp.Pop(); w != nil; w = tmp.Pop() {
				have = append(have, w.Target.(*modelWaiter).id)
				l.Push(w)
			}
			if fmt.Sprint(have) != fmt.Sprint(model) {
				t.Fatalf("list holds %v, model %v", have, model)
			}
		}
	})
}

// modelWaiter logs its wakes and, when rearm is set, parks its waiter on
// list again from inside the wake.
type modelWaiter struct {
	w     Waiter
	id    int
	rearm bool
	list  *List
	log   func(id int, ev uint8)
}

func (m *modelWaiter) Wake() {
	m.log(m.id, m.w.Event)
	if m.rearm {
		m.list.Push(&m.w)
	}
}
