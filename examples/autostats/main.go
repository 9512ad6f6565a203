// Autostats: the §3 automation integrated with the accelerator. The
// automated statistics job tracks modifications and refreshes stale columns
// in budget-bound maintenance windows; the accelerator turns every table
// scan into a free refresh and tells the automation which column to point
// the circuit at next (the host's metadata packet).
//
//	go run ./examples/autostats
package main

import (
	"fmt"
	"log"

	"streamhist/internal/core"
	"streamhist/internal/dbms"
	"streamhist/internal/table"
	"streamhist/internal/tpch"
)

func main() {
	db := dbms.NewDatabase(dbms.DBx())
	db.AddTable(tpch.Lineitem(200_000, 1, 17))
	for _, col := range []string{"l_quantity", "l_extendedprice", "l_partkey"} {
		if _, err := db.GatherStats("lineitem", col, 100, 18); err != nil {
			log.Fatal(err)
		}
	}

	auto := dbms.NewAutoStats(db, dbms.DefaultAutoStatsPolicy())
	auto.Track("lineitem", "l_quantity")
	auto.Track("lineitem", "l_extendedprice")
	auto.Track("lineitem", "l_partkey")

	// A burst of updates makes everything stale.
	db.MutateColumn("lineitem", func(rel *table.Relation) {
		tpch.InflateValue(rel, "l_extendedprice", 200100, 30_000, 19)
	})
	auto.RecordModifications("lineitem", 30_000)
	for _, col := range []string{"l_quantity", "l_extendedprice", "l_partkey"} {
		fmt.Printf("stale fraction %-17s %.0f%%\n", col+":", auto.StaleFraction("lineitem", col))
	}

	// The conventional path: a maintenance window with a tight budget.
	policyBudget := 0.000001 // modelled seconds; deliberately tiny
	tight := dbms.NewAutoStats(db, dbms.AutoStatsPolicy{StalePercent: 10, WindowBudgetSeconds: policyBudget, SamplePct: 5})
	tight.Track("lineitem", "l_quantity")
	tight.Track("lineitem", "l_extendedprice")
	tight.Track("lineitem", "l_partkey")
	tight.RecordModifications("lineitem", 30_000)
	rep, err := tight.RunMaintenanceWindow()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nbudget-bound window: %d actions, %d deferred (the freshness debt)\n",
		len(rep.Actions), rep.Deferred)
	for _, act := range rep.Actions {
		fmt.Printf("  %-18s analyzed=%v reason=%s\n", act.Column, act.Analyzed, act.Reason)
	}

	// The accelerator path: scans happen anyway; the automation picks the
	// most-stale column for each scan's metadata packet, and the circuit's
	// Compressed histogram lands in the catalog — no budget, no deferral.
	fmt.Println("\naccelerator-backed refresh, one column per scan:")
	for scan := 1; ; scan++ {
		col, ok := auto.NextColumnForScan("lineitem")
		if !ok || auto.StaleFraction("lineitem", col) < 10 {
			break
		}
		res, err := core.ProcessRelation(db.Table("lineitem").Rel, col, nil)
		if err != nil {
			log.Fatal(err)
		}
		distinct := int64(res.Bins.Cardinality())
		db.InstallStats("lineitem", col, res.Compressed, distinct)
		auto.NotifyScanHistogram("lineitem", col)
		fmt.Printf("  scan %d refreshed %-17s (%.2f ms simulated, %d distinct)\n",
			scan, col, res.TotalSeconds*1e3, distinct)
	}
	fmt.Println("\nall tracked columns fresh; the maintenance window has nothing left to do:")
	rep2, err := auto.RunMaintenanceWindow()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  window actions: %d\n", len(rep2.Actions))
}
