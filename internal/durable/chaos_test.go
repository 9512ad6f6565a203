package durable

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"streamhist/internal/faults"
)

// cloneDir copies every file under src into a fresh directory — a crash
// image: the bytes a kill -9 at this instant would leave behind (Sync
// barriers make the instant well-defined).
func cloneDir(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	ents, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if e.IsDir() {
			continue
		}
		buf, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), buf, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// TestDurableChaosPrefixProperty is the file-format half of the kill -9
// proof: across seeds of the disk-failure-heavy profile (torn WAL writes,
// suppressed fsyncs, corrupted checkpoint files, slow disk), apply a random
// mutation sequence, take crash images at random points, and assert that
// every image recovers to EXACTLY one of the prefix states of the mutation
// history — byte-identical catalog encodings, no third outcome. Seeds widen
// via STREAMHIST_CHAOS_SEEDS, like TestChaosNoThirdOutcome.
func TestDurableChaosPrefixProperty(t *testing.T) {
	seeds := 6
	if env := os.Getenv("STREAMHIST_CHAOS_SEEDS"); env != "" {
		n, err := strconv.Atoi(env)
		if err != nil {
			t.Fatalf("bad STREAMHIST_CHAOS_SEEDS %q", env)
		}
		seeds = n
	}
	profile, err := faults.ByName(faults.ProfileDiskFailureHeavy)
	if err != nil {
		t.Fatal(err)
	}
	for seed := 1; seed <= seeds; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			inj := faults.New(uint64(seed), profile)
			drv := inj.Fork("driver") // decides the mutation plan
			dir := t.TempDir()
			m, err := Open(dir, Options{CheckpointInterval: -1, Faults: inj.Fork("disk")})
			if err != nil {
				t.Fatal(err)
			}
			defer m.Abandon()
			cat := m.Catalog()

			// prefixes[i] is the catalog encoding after mutation i
			// (prefixes[0] = empty). Any recovered image must match one.
			prefixes := [][]byte{catalogBytes(t, cat)}
			tables := []string{"lineitem", "orders", "part"}
			const steps = 40
			for i := 0; i < steps; i++ {
				tbl := tables[drv.Intn("chaos.table", int64(len(tables)))]
				if drv.Intn("chaos.kind", 4) == 0 {
					cat.BumpVersion(tbl)
				} else {
					col := "c" + strconv.FormatInt(drv.Intn("chaos.col", 5), 10)
					cat.Put(tbl, col, testStats(int64(i)))
				}
				prefixes = append(prefixes, catalogBytes(t, cat))
				if err := m.Sync(); err != nil {
					t.Fatal(err)
				}
				if drv.Intn("chaos.ckpt", 10) == 0 {
					// Checkpoints may fail loudly under snap.corrupt;
					// that must never cost acknowledged state.
					m.Checkpoint() //nolint:errcheck
				}
				if drv.Intn("chaos.crash", 4) != 0 {
					continue
				}
				img := cloneDir(t, dir)
				got, rep, err := Inspect(img)
				if err != nil {
					t.Fatalf("step %d: inspect: %v", i, err)
				}
				enc := catalogBytes(t, got)
				match := -1
				for k := len(prefixes) - 1; k >= 0; k-- {
					if bytes.Equal(enc, prefixes[k]) {
						match = k
						break
					}
				}
				if match < 0 {
					t.Fatalf("step %d: recovered catalog matches no prefix of the mutation history (report %+v)", i, rep)
				}
				// Modulo injected loss, recovery must not be arbitrarily
				// stale: anything older than the full history implies an
				// injected fault actually fired somewhere behind it.
				if match < i+1 && inj.TotalHits(faults.WALTorn) == 0 &&
					inj.TotalHits(faults.WALFsync) == 0 &&
					inj.TotalHits(faults.SnapCorrupt) == 0 && m.Dropped() == 0 {
					t.Fatalf("step %d: lost suffix (prefix %d of %d) with no injected fault", i, match, i+1)
				}
			}
		})
	}
}

// TestDurableChaosScanJournalNeverCorrupts runs the same disk-fault gauntlet
// over the scan journal. The journal is advisory and may lose a suffix (a
// torn tail can even resurrect a scan that had already closed — the server
// then merely offers a resume nobody claims), but it must never fabricate:
// every recovered scan was genuinely started with that identity, and its
// high-water mark never exceeds what the scan actually reached.
func TestDurableChaosScanJournalNeverCorrupts(t *testing.T) {
	profile, err := faults.ByName(faults.ProfileDiskFailureHeavy)
	if err != nil {
		t.Fatal(err)
	}
	for seed := 1; seed <= 4; seed++ {
		inj := faults.New(uint64(seed)*977, profile)
		drv := inj.Fork("driver")
		dir := t.TempDir()
		m, err := Open(dir, Options{CheckpointInterval: -1, Faults: inj.Fork("disk")})
		if err != nil {
			t.Fatal(err)
		}
		type hist struct {
			column string
			pages  uint32
		}
		started := map[uint64]*hist{} // scan ID → true history
		open := map[string]uint64{}   // column → live scan ID
		for i := 0; i < 30; i++ {
			col := "c" + strconv.FormatInt(drv.Intn("chaos.col", 4), 10)
			id, ok := open[col]
			switch {
			case !ok:
				id = m.ScanStarted("t", col, 0)
				started[id] = &hist{column: col}
				open[col] = id
			case drv.Intn("chaos.kind", 3) == 0:
				m.ScanEnded(id, started[id].pages)
				delete(open, col)
			default:
				started[id].pages += 4
				m.ScanProgress(id, started[id].pages)
			}
		}
		if err := m.Sync(); err != nil {
			t.Fatal(err)
		}
		img := cloneDir(t, dir)
		m.Abandon()
		_, rep, err := Inspect(img)
		if err != nil {
			t.Fatal(err)
		}
		for _, sc := range rep.OpenScans {
			h, ok := started[sc.ID]
			if !ok {
				t.Fatalf("seed %d: recovered scan %+v never existed", seed, sc)
			}
			if sc.Table != "t" || sc.Column != h.column || sc.Pages > h.pages {
				t.Fatalf("seed %d: recovered scan %+v beyond true history %+v", seed, sc, h)
			}
		}
	}
}
