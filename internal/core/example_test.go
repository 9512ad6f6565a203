package core_test

import (
	"fmt"

	"streamhist/internal/core"
	"streamhist/internal/table"
)

// ExampleCircuit runs the full statistical circuit over a small column.
func ExampleCircuit() {
	cfg := core.DefaultConfig(core.ColumnSpec{Offset: 0, Type: table.Int64}, 0, 9)
	cfg.TopK = 2
	cfg.EquiDepthBuckets = 2
	cfg.MaxDiffBuckets = 2
	cfg.CompressedT = 1
	cfg.CompressedBuckets = 2
	circuit, err := core.NewCircuit(cfg)
	if err != nil {
		panic(err)
	}
	res := circuit.ProcessValues([]int64{0, 0, 0, 1, 2, 3, 7, 8, 8, 9})
	fmt.Println("top value:", res.TopK[0].Value, "x", res.TopK[0].Count)
	for _, b := range res.EquiDepth.Buckets {
		fmt.Printf("equi-depth [%d..%d] %d rows\n", b.Low, b.High, b.Count)
	}
	fmt.Println("compressed exact:", res.Compressed.Frequent[0].Value)
	// Output:
	// top value: 0 x 3
	// equi-depth [0..2] 5 rows
	// equi-depth [3..9] 5 rows
	// compressed exact: 0
}

// ExampleParallelBinner shows the §7 scale-up path: replicated binners with
// merged partial counts.
func ExampleParallelBinner() {
	pb, err := core.NewParallelBinner(4, core.DefaultBinnerConfig(), 0, 9, 1)
	if err != nil {
		panic(err)
	}
	pb.PushAll([]int64{1, 1, 2, 3, 3, 3, 9})
	merged, _, err := pb.Finish()
	if err != nil {
		panic(err)
	}
	fmt.Println("count(3) =", merged.CountValue(3))
	fmt.Println("total =", merged.Total())
	// Output:
	// count(3) = 3
	// total = 7
}
