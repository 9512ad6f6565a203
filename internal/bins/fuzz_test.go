package bins

import "testing"

// FuzzVectorOps drives two regions through a byte-chosen sequence of
// AddCount, Merge, Recycle, copy (Recycle then Merge), Densify, bursts of
// AddCount and runs of AddOnes, with counts near zero, near 2^32 and below zero. Each region is
// held twice, once dense and once sparse, and after every step both copies
// are held to an []int64 reference: the 32-bit store with its wide escape
// must be indistinguishable from a row of int64 counts in either form, so
// the two forms agree on every count, read (Batches and the walks over it),
// tally and copy. A merge takes the source's form for each target from the
// sequence, so every pairing of forms is merged, two sparse regions in one
// pass. A step's check reads every region, which combines a sparse log; a
// burst writes 2–8 counts before the next check, and may end in a merge, so
// that a combine meets an unsorted log of several entries on top of
// combined ones and a merge lands on a log that is not empty. A burst's
// write may instead be a flood of nearly logFloor ones, so that a write
// after it meets its partition's log full and sets off a combine. The
// burst's seed is in testdata/fuzz; the fifth seed below floods between two
// halves of 2^32 and a write of -1 to the same bin, whose append combines.
// A run adds one to each of 1–16 bins, with repeats, through AddOnes, the
// binner's batched write; the last four seeds run one on narrow regions,
// on regions whose total is a few counts short of a cell's mark, so that
// the run leaves the narrow path part way, beside a wide bin, and over a bin
// two short of the mark, which the run widens.
//
// Only an input's first maxOps bytes run. The fuzz engine minimises each new
// interesting input, trying a number of shorter candidates quadratic in its
// length, and each candidate runs every step, each step checking four
// regions: uncapped, one input of a few hundred bytes held both workers at 0
// executions/s for most of a minute.
func FuzzVectorOps(f *testing.F) {
	const maxOps = 64
	f.Add([]byte{0, 5, 1, 0, 0, 5, 1, 0, 2, 3})
	f.Add([]byte{0, 64, 1, 3, 1, 64, 1, 3, 2, 1, 4, 2, 0, 3, 0})
	f.Add([]byte{0, 1, 2, 200, 1, 1, 3, 7, 2, 2, 3, 1, 4, 0, 1, 2, 56, 2, 3})
	f.Add([]byte{0, 69, 1, 255, 0, 69, 1, 255, 0, 69, 1, 255, 4, 2, 2, 3, 0, 5})
	f.Add([]byte{6, 2, 0, 5, 3, 0, 0, 5, 3, 0, 79, 0, 5, 0, 255, 0})
	f.Add([]byte{7, 30, 60, 0, 1, 2, 3, 3, 2, 1, 0, 3, 3, 2, 2, 1, 1, 0, 0, 7, 31, 9, 1, 1, 1, 1, 2, 2, 2, 2, 0, 0, 0, 0, 3, 3, 3, 3, 2, 3})
	f.Add([]byte{0, 3, 3, 253, 0, 4, 3, 0, 7, 10, 2, 0, 1, 2, 3, 3, 0, 7, 4, 1, 1, 1, 0, 4, 1, 3, 253, 2, 1})
	f.Add([]byte{0, 5, 1, 0, 7, 14, 4, 0, 1, 1, 0, 3, 2, 1, 2, 1, 5, 7, 15, 68, 3, 3, 2, 1, 0, 0, 1, 1})
	f.Add([]byte{0, 6, 1, 254, 7, 2, 6, 0, 0, 4, 7, 3, 6, 0, 0})
	f.Fuzz(func(t *testing.T, ops []byte) {
		ops = ops[:min(len(ops), maxOps)]
		const min, divisor, n = -3, 2, 70
		region := func(size int) [2]*Vector {
			var r [2]*Vector
			for form := range r {
				r[form] = new(Vector)
				r[form].Recycle(min, divisor, size, Form(form))
			}
			return r
		}
		a, b := region(n), region(n)
		ra, rb := make([]int64, n), make([]int64, n)
		next := func() byte {
			if len(ops) == 0 {
				return 0
			}
			x := ops[0]
			ops = ops[1:]
			return x
		}
		add := func(op byte) { // AddCount into a (op even) or b
			r, ref := a, ra
			if op&1 == 1 {
				r, ref = b, rb
			}
			i := int(next()) % len(ref)
			base := [4]int64{0, two32, -two32, two32 / 2}[next()%4]
			c := base + int64(int8(next()))%4
			for _, v := range r {
				v.AddCount(v.Value(i), c)
			}
			ref[i] += c
		}
		flood := func(op byte) { // logFloor − op>>5 ones into a (op>>4 even) or b
			r, ref := a, ra
			if op>>4&1 == 1 {
				r, ref = b, rb
			}
			for k := range logFloor - int(op>>5) {
				i := k * 37 % len(ref)
				for _, v := range r {
					v.AddCount(v.Value(i), 1)
				}
				ref[i]++
			}
		}
		ones := func() { // a run of 1–16 bins of a (w even) or b, each one of 4 from a base
			w := next()
			r, ref := a, ra
			if w&1 == 1 {
				r, ref = b, rb
			}
			base := int(next())
			run := make([]int, 1+int(w>>1)%16)
			for k := range run {
				run[k] = (base + int(next())%4) % len(ref)
				ref[run[k]]++
			}
			for _, v := range r {
				v.AddOnes(run)
			}
		}
		merge := func(step int) { // Merge b into a; it fails exactly when the geometry differs
			pick := next()
			for form, v := range a {
				err := v.Merge(b[pick>>form&1])
				if (err != nil) != (len(ra) != len(rb)) {
					t.Fatalf("step %d: Merge of %d into %d bins: %v", step, len(rb), len(ra), err)
				}
			}
			if len(ra) == len(rb) {
				for i, c := range rb {
					ra[i] += c
				}
			}
		}
		for step := 0; len(ops) > 0; step++ {
			switch op := next() % 8; op {
			case 0, 1:
				add(op)
			case 2:
				merge(step)
			case 3: // Recycle a, to the same size or a shorter one
				size := n - int(next())%2*(n/2)
				for form, v := range a {
					v.Recycle(min, divisor, size, Form(form))
				}
				ra = make([]int64, size)
			case 4: // b becomes a copy of a
				b = [2]*Vector{copyOf(t, a[0]), copyOf(t, a[1])}
				rb = append([]int64(nil), ra...)
			case 5: // a copy of a's sparse region moves to the dense form
				d := copyOf(t, a[1])
				d.Densify()
				if d.Form() != Dense {
					t.Fatalf("step %d: Densify left form %d", step, d.Form())
				}
				checkAgainstDense(t, "Densify", d, ra)
			case 6: // a burst of 2–8 AddCounts or floods, then maybe a merge, before the check
				for k := 2 + next()%7; k > 0; k-- {
					if op := next(); op%16 == 15 {
						flood(op)
					} else {
						add(op)
					}
				}
				if next()&1 == 1 {
					merge(step)
				}
			case 7:
				ones()
			}
			for form := range a {
				if a[form].Form() != Form(form) || b[form].Form() != Form(form) {
					t.Fatalf("step %d: a copy changed form", step)
				}
				checkAgainstDense(t, "a", a[form], ra)
				checkAgainstDense(t, "b", b[form], rb)
			}
		}
	})
}
