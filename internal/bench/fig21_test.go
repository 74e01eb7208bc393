package bench

import (
	"reflect"
	"testing"
)

// TestFig21Deterministic: a cell is a pure function of its configuration —
// adversarial runs replay to the last counter (the figure is a
// determinism gate like fig17/fig19/fig20).
func TestFig21Deterministic(t *testing.T) {
	cfg := Fig21Quick()
	a := Fig21Run(cfg, "slowloris", true)
	b := Fig21Run(cfg, "slowloris", true)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("fig21 cell not reproducible:\n%+v\nvs\n%+v", a, b)
	}
}

// TestFig21DefensesDecideTheOutcome pins the figure's claim on the
// slot-pinning attacks: undefended, the attackers collapse the good
// clients' goodput several-fold; defended, goodput holds within 10% of
// the no-attack baseline and the sheds land on the matching lifecycle
// counter.
func TestFig21DefensesDecideTheOutcome(t *testing.T) {
	cfg := Fig21Quick()
	base := Fig21Run(cfg, "none", false)
	for _, tc := range []struct {
		mode, counter string
	}{
		{"slowloris", "shed_header"},
		{"idle", "reaped_idle"},
		{"read-stall", "shed_write"},
	} {
		off := Fig21Run(cfg, tc.mode, false)
		on := Fig21Run(cfg, tc.mode, true)
		if off.GoodputMBps > base.GoodputMBps/4 {
			t.Errorf("%s undefended: goodput %.3f did not collapse (baseline %.3f)",
				tc.mode, off.GoodputMBps, base.GoodputMBps)
		}
		if on.GoodputMBps < base.GoodputMBps*0.9 {
			t.Errorf("%s defended: goodput %.3f below 90%% of baseline %.3f",
				tc.mode, on.GoodputMBps, base.GoodputMBps)
		}
		if off.Sheds() != 0 {
			t.Errorf("%s undefended: %d lifecycle sheds with defenses off", tc.mode, off.Sheds())
		}
		if on.Server.Counter(tc.counter) == 0 {
			t.Errorf("%s defended: no sheds on %s (%d in all)", tc.mode, tc.counter, on.Sheds())
		}
	}
}

// TestFig21DefensesInvisibleWithoutAttack: with no attacker, the defended
// and undefended baselines agree exactly — the lifecycle deadlines cost
// well-behaved clients nothing.
func TestFig21DefensesInvisibleWithoutAttack(t *testing.T) {
	cfg := Fig21Quick()
	off := Fig21Run(cfg, "none", false)
	on := Fig21Run(cfg, "none", true)
	if off.GoodputMBps != on.GoodputMBps || off.GoodRequests != on.GoodRequests ||
		off.P99Us != on.P99Us {
		t.Fatalf("defenses changed the no-attack baseline:\noff %+v\non  %+v", off, on)
	}
	if n := on.Sheds(); n != 0 {
		t.Fatalf("%d sheds fired without an attacker", n)
	}
}
