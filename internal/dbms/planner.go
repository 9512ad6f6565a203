package dbms

import (
	"fmt"
	"math"
)

// JoinMethod enumerates the physical join operators the planner chooses
// among — the choice at the heart of Fig 1 and Fig 21.
type JoinMethod int

const (
	// NestedLoops compares every outer row with every inner row. Optimal
	// for tiny inputs, catastrophic when a cardinality estimate is off by
	// orders of magnitude.
	NestedLoops JoinMethod = iota
	// SortMerge sorts both sides and merges (for the paper's inequality
	// join, the sorted outer side is probed by binary search).
	SortMerge
	// Hash builds a hash table on the inner side; equality joins only.
	Hash
)

// String names the method the way the paper does.
func (m JoinMethod) String() string {
	switch m {
	case NestedLoops:
		return "NLJ"
	case SortMerge:
		return "SMJ"
	case Hash:
		return "HashJoin"
	default:
		return fmt.Sprintf("JoinMethod(%d)", int(m))
	}
}

// PlannerCosts are abstract per-tuple cost units, in the style of
// PostgreSQL's cpu_tuple_cost family. Only ratios matter.
type PlannerCosts struct {
	NLJPair    float64 // one outer×inner comparison
	SortTuple  float64 // one n·log2(n) unit
	MergeTuple float64 // one tuple passed through the merge
	HashBuild  float64 // one inner tuple inserted
	HashProbe  float64 // one outer tuple probed
	Startup    float64 // fixed plan startup
}

// DefaultPlannerCosts returns sensible defaults.
func DefaultPlannerCosts() PlannerCosts {
	return PlannerCosts{
		NLJPair:    1.0,
		SortTuple:  1.6,
		MergeTuple: 1.0,
		HashBuild:  2.2,
		HashProbe:  1.4,
		Startup:    100,
	}
}

// JoinPlan is the planner's decision together with the inputs it saw.
type JoinPlan struct {
	Method   JoinMethod
	EstOuter float64
	EstInner float64
	Cost     float64
	// Alternatives records the cost of every considered method.
	Alternatives map[JoinMethod]float64
}

// ChooseJoin picks the cheapest join method for the estimated input sizes.
// equality enables the hash join; the paper's Fig 21 note explains that
// PostgreSQL considers more than nested loops only for equality joins
// (which is why they rewrote Q1 with an equality predicate there).
func ChooseJoin(c PlannerCosts, estOuter, estInner float64, equality bool) JoinPlan {
	if estOuter < 1 {
		estOuter = 1
	}
	if estInner < 1 {
		estInner = 1
	}
	alt := map[JoinMethod]float64{
		NestedLoops: c.Startup + estOuter*estInner*c.NLJPair,
		SortMerge: c.Startup +
			estOuter*math.Log2(math.Max(estOuter, 2))*c.SortTuple +
			estInner*math.Log2(math.Max(estInner, 2))*c.SortTuple +
			(estOuter+estInner)*c.MergeTuple,
	}
	if equality {
		alt[Hash] = c.Startup + estInner*c.HashBuild + estOuter*c.HashProbe
	}
	best := NestedLoops
	for m, cost := range alt {
		if cost < alt[best] {
			best = m
		}
	}
	return JoinPlan{
		Method:       best,
		EstOuter:     estOuter,
		EstInner:     estInner,
		Cost:         alt[best],
		Alternatives: alt,
	}
}
