// Package tpch generates TPC-H-shaped relations for the evaluation: the
// lineitem table (the paper's workhorse, in full 8-numeric-column and
// 1-column variants) and the customer table for the Q1 join experiments.
//
// The generators follow the TPC-H specification's column formulas — the
// point is to reproduce the distributions that drive the paper's results:
//
//   - l_quantity: uniform integers 1..50 (cardinality < 100; the "cheap to
//     analyze" column of Fig 19),
//   - l_extendedprice: quantity × part retail price, a high-cardinality
//     fixed-point column (the "expensive" column of Fig 19 and the skewed
//     column of the Q1 motivation),
//   - l_orderkey: a sparse ascending key (high cardinality, integer),
//   - c_acctbal: uniform fixed-point -999.99..9999.99.
//
// Row counts are decoupled from the nominal scale factor so experiments can
// run scaled-down replicas of the paper's 30–450 M-row tables; the value
// *domains* still follow the given scale factor.
package tpch

import (
	"streamhist/internal/datagen"
	"streamhist/internal/table"
)

// LineitemSchema returns the 8-numeric-column lineitem variant used for the
// Fig 16/17 experiments ("an eight column version of lineitem using the
// first eight numeric columns of the original table").
func LineitemSchema() *table.Schema {
	return table.NewSchema(
		table.Column{Name: "l_orderkey", Type: table.Int64},
		table.Column{Name: "l_partkey", Type: table.Int64},
		table.Column{Name: "l_suppkey", Type: table.Int64},
		table.Column{Name: "l_linenumber", Type: table.Int64},
		table.Column{Name: "l_quantity", Type: table.Int64},
		table.Column{Name: "l_extendedprice", Type: table.Decimal, Scale: 2},
		table.Column{Name: "l_discount", Type: table.Decimal, Scale: 2},
		table.Column{Name: "l_tax", Type: table.Decimal, Scale: 2},
	)
}

// OneColumnSchema returns the single-column lineitem variant of Fig 17.
func OneColumnSchema(column string) *table.Schema {
	full := LineitemSchema()
	idx := full.ColumnIndex(column)
	if idx < 0 {
		panic("tpch: unknown lineitem column " + column)
	}
	return table.NewSchema(full.Column(idx))
}

// CustomerSchema returns the columns of customer used by Q1.
func CustomerSchema() *table.Schema {
	return table.NewSchema(
		table.Column{Name: "c_custkey", Type: table.Int64},
		table.Column{Name: "c_nationkey", Type: table.Int64},
		table.Column{Name: "c_acctbal", Type: table.Decimal, Scale: 2},
	)
}

// retailPriceCents computes p_retailprice for a part key per the TPC-H
// specification: (90000 + ((partkey/10) mod 20001) + 100*(partkey mod 1000))
// in cents.
func retailPriceCents(partkey int64) int64 {
	return 90000 + (partkey/10)%20001 + 100*(partkey%1000)
}

// Lineitem generates rows of the 8-column lineitem variant. The value
// domains scale with sf; the row count is explicit.
func Lineitem(rows int, sf float64, seed uint64) *table.Relation {
	if sf <= 0 {
		sf = 1
	}
	rel := table.NewRelation("lineitem", LineitemSchema())
	rel.Grow(rows)
	rng := datagen.NewRNG(seed)

	maxPart := int64(200_000 * sf)
	if maxPart < 1 {
		maxPart = 1
	}
	maxSupp := int64(10_000 * sf)
	if maxSupp < 1 {
		maxSupp = 1
	}

	orderkey := int64(0)
	lineno := int64(0)
	linesInOrder := int64(0)
	row := make(table.Row, 8)
	for i := 0; i < rows; i++ {
		if lineno == linesInOrder {
			// Start a new order: TPC-H order keys are sparse (8 of every
			// 32 key values are used); each order has 1..7 lineitems.
			orderkey++
			if orderkey%8 == 0 {
				orderkey += 24
			}
			linesInOrder = 1 + rng.Int63n(7)
			lineno = 0
		}
		lineno++
		partkey := 1 + rng.Int63n(maxPart)
		quantity := 1 + rng.Int63n(50)
		row[0] = orderkey
		row[1] = partkey
		row[2] = 1 + rng.Int63n(maxSupp)
		row[3] = lineno
		row[4] = quantity
		row[5] = quantity * retailPriceCents(partkey) // l_extendedprice in cents
		row[6] = rng.Int63n(11)                       // l_discount 0.00..0.10
		row[7] = rng.Int63n(9)                        // l_tax 0.00..0.08
		rel.Append(row)
	}
	return rel
}

// LineitemColumn generates just one column of lineitem as a single-column
// relation (the Fig 17 variant), with the same distribution as the full
// generator.
func LineitemColumn(column string, rows int, sf float64, seed uint64) *table.Relation {
	full := Lineitem(rows, sf, seed)
	idx := full.Schema.ColumnIndex(column)
	if idx < 0 {
		panic("tpch: unknown lineitem column " + column)
	}
	rel := table.NewRelation("lineitem_"+column, OneColumnSchema(column))
	rel.Grow(rows)
	row := make(table.Row, 1)
	for i := 0; i < full.NumRows(); i++ {
		row[0] = full.Value(i, idx)
		rel.Append(row)
	}
	return rel
}

// Customer generates the customer table: sequential keys, uniform account
// balances in [-999.99, 9999.99].
func Customer(rows int, seed uint64) *table.Relation {
	rel := table.NewRelation("customer", CustomerSchema())
	rel.Grow(rows)
	rng := datagen.NewRNG(seed)
	row := make(table.Row, 3)
	for i := 0; i < rows; i++ {
		row[0] = int64(i + 1)
		row[1] = rng.Int63n(25)
		row[2] = rng.Int63n(9999_99+999_99+1) - 999_99
		rel.Append(row)
	}
	return rel
}

// InflateValue rewrites the named column of count randomly chosen rows to
// value — the paper's §2 skew injection ("increased the number of records
// with price 2001 to 120,000"). Rows are chosen without replacement; the
// relation must have at least count rows.
func InflateValue(rel *table.Relation, column string, value int64, count int, seed uint64) {
	idx := rel.Schema.ColumnIndex(column)
	if idx < 0 {
		panic("tpch: unknown column " + column)
	}
	n := rel.NumRows()
	if count > n {
		panic("tpch: cannot inflate more rows than the relation has")
	}
	rng := datagen.NewRNG(seed)
	// Partial Fisher–Yates over row indices picks `count` distinct rows.
	pick := make([]int, n)
	for i := range pick {
		pick[i] = i
	}
	for i := 0; i < count; i++ {
		j := i + rng.Intn(n-i)
		pick[i], pick[j] = pick[j], pick[i]
		rel.SetValue(pick[i], idx, value)
	}
}

// Synthetic builds the Fig 20 table: cols columns, each filled from a
// Zipf distribution with the given skew over the given cardinality.
func Synthetic(rows, cols int, cardinality int64, zipfS float64, seed uint64) *table.Relation {
	sch := &table.Schema{}
	for c := 0; c < cols; c++ {
		sch.Columns = append(sch.Columns, table.Column{
			Name: "c" + string(rune('0'+c)), Type: table.Int64,
		})
	}
	rel := table.NewRelation("synthetic", sch)
	rel.Grow(rows)
	gens := make([]datagen.Generator, cols)
	for c := 0; c < cols; c++ {
		if zipfS == 0 {
			gens[c] = datagen.NewUniform(seed+uint64(c), 0, cardinality)
		} else {
			gens[c] = datagen.NewZipf(seed+uint64(c), 0, cardinality, zipfS, true)
		}
	}
	row := make(table.Row, cols)
	for i := 0; i < rows; i++ {
		for c := 0; c < cols; c++ {
			row[c] = gens[c].Next()
		}
		rel.Append(row)
	}
	return rel
}
