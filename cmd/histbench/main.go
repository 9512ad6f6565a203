// Command histbench regenerates every table and figure of the paper's
// evaluation as aligned text tables. Run without arguments to list the
// experiments; pass one or more IDs (or "all") to execute them.
//
//	histbench all
//	histbench fig16 table2
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"streamhist/internal/bench"
)

func main() {
	flag.Usage = usage
	flag.Parse()

	args := flag.Args()
	if len(args) == 0 {
		usage()
		return
	}
	ids := args
	if len(args) == 1 && args[0] == "all" {
		ids = nil
		for _, r := range bench.All() {
			ids = append(ids, r.ID)
		}
	}
	for _, id := range ids {
		runner := bench.ByID(id)
		if runner == nil {
			fmt.Fprintf(os.Stderr, "histbench: unknown experiment %q (try 'histbench' for the list)\n", id)
			os.Exit(2)
		}
		start := time.Now()
		report := runner.Run()
		fmt.Println(report)
		fmt.Printf("(%s completed in %v)\n\n", id, time.Since(start).Round(time.Millisecond))
	}
}

func usage() {
	fmt.Println("usage: histbench <experiment>... | all")
	fmt.Println()
	fmt.Println("experiments:")
	for _, r := range bench.All() {
		fmt.Printf("  %-17s %s\n", r.ID, r.Desc)
	}
}
