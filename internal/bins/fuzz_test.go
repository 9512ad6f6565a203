package bins

import "testing"

// FuzzVectorOps drives two regions through a byte-chosen sequence of
// AddCount, Merge, Recycle, copy (Recycle then Merge), Densify and bursts of
// AddCount, with counts near zero, near 2^32 and below zero. Each region is
// held twice, once dense and once sparse, and after every step both copies
// are held to an []int64 reference: the 32-bit store with its wide escape
// must be indistinguishable from a row of int64 counts in either form, so
// the two forms agree on every count, walk, tally and copy. A merge takes
// the source's form for each target from the sequence, so every pairing of
// forms is merged. A step's check reads every region, which combines a
// sparse log; a burst writes 2–8 counts before the next check, and may end
// in a merge, so that a combine meets an unsorted log of several entries on
// top of combined ones and a merge lands on a log that is not empty. The
// burst's seed is in testdata/fuzz.
func FuzzVectorOps(f *testing.F) {
	f.Add([]byte{0, 5, 1, 0, 0, 5, 1, 0, 2, 3})
	f.Add([]byte{0, 64, 1, 3, 1, 64, 1, 3, 2, 1, 4, 2, 0, 3, 0})
	f.Add([]byte{0, 1, 2, 200, 1, 1, 3, 7, 2, 2, 3, 1, 4, 0, 1, 2, 56, 2, 3})
	f.Add([]byte{0, 69, 1, 255, 0, 69, 1, 255, 0, 69, 1, 255, 4, 2, 2, 3, 0, 5})
	f.Fuzz(func(t *testing.T, ops []byte) {
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
			switch op := next() % 7; op {
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
			case 6: // a burst of 2–8 AddCounts, then maybe a merge, before the check
				for k := 2 + next()%7; k > 0; k-- {
					add(next())
				}
				if next()&1 == 1 {
					merge(step)
				}
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
