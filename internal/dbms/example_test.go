package dbms_test

import (
	"fmt"

	"streamhist/internal/dbms"
)

// ExampleChooseJoin shows how cardinality estimates steer the plan — the
// mechanism behind the paper's Figure 1.
func ExampleChooseJoin() {
	costs := dbms.DefaultPlannerCosts()

	// The optimizer believes somelines is tiny: nested loops look fine.
	small := dbms.ChooseJoin(costs, 5, 20000, false)
	fmt.Println("est. 5 outer rows →", small.Method)

	// With fresh statistics the spike is visible and the plan flips.
	big := dbms.ChooseJoin(costs, 120000, 20000, false)
	fmt.Println("est. 120000 outer rows →", big.Method)
	// Output:
	// est. 5 outer rows → NLJ
	// est. 120000 outer rows → SMJ
}
