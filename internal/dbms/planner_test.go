package dbms

import (
	"testing"
	"testing/quick"
)

func TestChooseJoinPicksMinimum(t *testing.T) {
	c := DefaultPlannerCosts()
	f := func(o, i uint32, eq bool) bool {
		outer := float64(o%1_000_000) + 1
		inner := float64(i%1_000_000) + 1
		p := ChooseJoin(c, outer, inner, eq)
		best := p.Alternatives[p.Method]
		for _, cost := range p.Alternatives {
			if cost < best {
				return false
			}
		}
		return p.Cost == best
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestChooseJoinClampsEstimates(t *testing.T) {
	p := ChooseJoin(DefaultPlannerCosts(), -5, 0, true)
	if p.EstOuter != 1 || p.EstInner != 1 {
		t.Errorf("estimates not clamped: %+v", p)
	}
}

func TestPlannerCostMonotonicity(t *testing.T) {
	c := DefaultPlannerCosts()
	// NLJ cost grows multiplicatively; at some outer size the plan flips
	// away from NLJ and never flips back.
	flipped := false
	for outer := 1.0; outer <= 1e6; outer *= 10 {
		p := ChooseJoin(c, outer, 10_000, false)
		if p.Method != NestedLoops {
			flipped = true
		} else if flipped {
			t.Fatalf("plan flipped back to NLJ at outer=%g", outer)
		}
	}
	if !flipped {
		t.Error("plan never left NLJ even at 1M outer rows")
	}
}
