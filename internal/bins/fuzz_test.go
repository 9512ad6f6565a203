package bins

import "testing"

// FuzzVectorOps drives two small regions through a byte-chosen sequence of
// AddCount, Merge, Recycle and Clone, with counts near zero, near 2^32 and
// below zero, and holds both to []int64 references after every step: the
// 32-bit store with its wide escape must be indistinguishable from a row of
// int64 counts.
func FuzzVectorOps(f *testing.F) {
	f.Add([]byte{0, 5, 1, 0, 0, 5, 1, 0, 2})
	f.Add([]byte{0, 64, 1, 3, 1, 64, 1, 3, 2, 4, 2, 3, 0})
	f.Add([]byte{0, 1, 2, 200, 1, 1, 3, 7, 2, 3, 1, 4, 0, 1, 2, 56, 2})
	f.Add([]byte{0, 69, 1, 255, 0, 69, 1, 255, 0, 69, 1, 255, 4, 2, 2, 3, 0})
	f.Fuzz(func(t *testing.T, ops []byte) {
		const min, divisor, n = -3, 2, 70
		a, b := NewVector(min, min+(n-1)*divisor, divisor), NewVector(min, min+(n-1)*divisor, divisor)
		ra, rb := make([]int64, n), make([]int64, n)
		next := func() byte {
			if len(ops) == 0 {
				return 0
			}
			x := ops[0]
			ops = ops[1:]
			return x
		}
		for step := 0; len(ops) > 0; step++ {
			switch op := next() % 5; op {
			case 0, 1: // AddCount into a or b
				v, ref := a, ra
				if op == 1 {
					v, ref = b, rb
				}
				i := int(next()) % v.NumBins()
				base := [4]int64{0, two32, -two32, two32 / 2}[next()%4]
				c := base + int64(int8(next()))%4
				v.AddCount(v.Value(i), c)
				ref[i] += c
			case 2: // Merge b into a; it fails exactly when the geometry differs
				err := a.Merge(b)
				if (err != nil) != (len(ra) != len(rb)) {
					t.Fatalf("step %d: Merge of %d into %d bins: %v", step, len(rb), len(ra), err)
				}
				if err == nil {
					for i, c := range rb {
						ra[i] += c
					}
				}
			case 3: // Recycle a, to the same size or a shorter one
				size := n - int(next())%2*(n/2)
				a.Recycle(min, divisor, size, nil)
				ra = make([]int64, size)
			case 4: // b becomes a clone of a
				b = a.Clone()
				rb = append([]int64(nil), ra...)
			}
			checkAgainstDense(t, "a", a, ra)
			checkAgainstDense(t, "b", b, rb)
		}
	})
}
