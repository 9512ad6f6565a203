package dbms

import (
	"sort"
	"testing"
	"testing/quick"

	"streamhist/internal/page"
	"streamhist/internal/tpch"
)

func TestFilterEqualsProject(t *testing.T) {
	rel := tpch.Lineitem(5000, 1, 41)
	tbl := NewTable(rel, InMemory)
	pi := rel.Schema.ColumnIndex("l_extendedprice")
	ti := rel.Schema.ColumnIndex("l_tax")
	target := rel.Value(17, pi) // a value guaranteed to exist

	got := FilterEqualsProject(tbl, "l_extendedprice", target, "l_tax", "l_extendedprice")
	var want []int64
	for r := 0; r < rel.NumRows(); r++ {
		if rel.Value(r, pi) == target {
			want = append(want, rel.Value(r, ti)*rel.Value(r, pi))
		}
	}
	if len(got) != len(want) {
		t.Fatalf("got %d values, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("value %d: %d != %d", i, got[i], want[i])
		}
	}
}

func TestFilterEqualsProjectUnknownColumnPanics(t *testing.T) {
	tbl := NewTable(tpch.Lineitem(10, 1, 42), InMemory)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	FilterEqualsProject(tbl, "nope", 1, "l_tax", "l_extendedprice")
}

// customerOracle computes group counts brute-force for both predicates.
func customerOracle(vals []int64, customer *Table, keyLimit int64, equality bool) []GroupCount {
	s := customer.Rel.Schema
	ki := s.ColumnIndex("c_custkey")
	bi := s.ColumnIndex("c_acctbal")
	var out []GroupCount
	for r := 0; r < customer.Rel.NumRows(); r++ {
		k := customer.Rel.Value(r, ki)
		if k >= keyLimit {
			continue
		}
		bal := customer.Rel.Value(r, bi)
		var cnt int64
		for _, v := range vals {
			if (equality && v == bal) || (!equality && v < bal) {
				cnt++
			}
		}
		if cnt > 0 {
			out = append(out, GroupCount{Key: k, Count: cnt})
		}
	}
	return out
}

func sameGroups(a, b []GroupCount) bool {
	if len(a) != len(b) {
		return false
	}
	as := append([]GroupCount(nil), a...)
	bs := append([]GroupCount(nil), b...)
	sort.Slice(as, func(i, j int) bool { return as[i].Key < as[j].Key })
	sort.Slice(bs, func(i, j int) bool { return bs[i].Key < bs[j].Key })
	for i := range as {
		if as[i] != bs[i] {
			return false
		}
	}
	return true
}

func TestJoinOperatorsAgainstOracle(t *testing.T) {
	customer := NewTable(tpch.Customer(2000, 43), InMemory)
	vals := []int64{0, 100, 100, 50_000, 999_999, -5, 314159}

	wantLess := customerOracle(vals, customer, 1500, false)
	if got := NLJCountLess(vals, customer, 1500); !sameGroups(got, wantLess) {
		t.Error("NLJCountLess diverges from oracle")
	}
	if got := SortCountLess(vals, customer, 1500); !sameGroups(got, wantLess) {
		t.Error("SortCountLess diverges from oracle")
	}

	// Plant exact matches so the equality join is not vacuous.
	bi := customer.Rel.Schema.ColumnIndex("c_acctbal")
	customer.Rel.SetValue(3, bi, 100)
	customer.Rel.SetValue(7, bi, 314159)
	wantEq := customerOracle(vals, customer, 1500, true)
	if len(wantEq) == 0 {
		t.Fatal("oracle found no equality matches; fixture broken")
	}
	for name, fn := range map[string]func([]int64, *Table, int64) []GroupCount{
		"NLJCountEquals":  NLJCountEquals,
		"SMJCountEquals":  SMJCountEquals,
		"HashCountEquals": HashCountEquals,
	} {
		if got := fn(vals, customer, 1500); !sameGroups(got, wantEq) {
			t.Errorf("%s diverges from oracle", name)
		}
	}
}

func TestJoinOperatorsProperty(t *testing.T) {
	customer := NewTable(tpch.Customer(300, 44), InMemory)
	f := func(raw []int16, limitRaw uint16) bool {
		vals := make([]int64, len(raw))
		for i, r := range raw {
			vals[i] = int64(r)
		}
		limit := int64(limitRaw%400) + 1
		wantLess := customerOracle(vals, customer, limit, false)
		if !sameGroups(NLJCountLess(vals, customer, limit), wantLess) {
			return false
		}
		if !sameGroups(SortCountLess(vals, customer, limit), wantLess) {
			return false
		}
		wantEq := customerOracle(vals, customer, limit, true)
		return sameGroups(NLJCountEquals(vals, customer, limit), wantEq) &&
			sameGroups(SMJCountEquals(vals, customer, limit), wantEq) &&
			sameGroups(HashCountEquals(vals, customer, limit), wantEq)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestJoinOperatorsEmptyInputs(t *testing.T) {
	customer := NewTable(tpch.Customer(100, 45), InMemory)
	results := map[string][]GroupCount{
		"NLJ<":  NLJCountLess(nil, customer, 50),
		"Sort<": SortCountLess(nil, customer, 50),
		"NLJ=":  NLJCountEquals(nil, customer, 50),
		"SMJ=":  SMJCountEquals(nil, customer, 50),
		"Hash=": HashCountEquals(nil, customer, 50),
	}
	for name, got := range results {
		if len(got) != 0 {
			t.Errorf("%s returned %d groups for empty somelines", name, len(got))
		}
	}
	// Zero key limit: no customers qualify.
	if got := SortCountLess([]int64{1}, customer, 0); len(got) != 0 {
		t.Errorf("keyLimit 0 returned %d groups", len(got))
	}
}

func TestMedium(t *testing.T) {
	rel := tpch.Lineitem(100, 1, 46)
	tbl := NewTable(rel, OnDisk)
	if tbl.Medium != OnDisk {
		t.Error("medium not retained")
	}
	if tbl.NumPages() < 1 {
		t.Error("no pages")
	}
	if got := len(page.Encode(rel)); got != tbl.NumPages() {
		t.Errorf("page.Encode made %d pages, NumPages says %d", got, tbl.NumPages())
	}
}

func TestDatabaseUnknownTablePanics(t *testing.T) {
	db := NewDatabase(DBx())
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	db.Table("missing")
}
