package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"strings"
)

// runFile is the part of a run folder's result.json that compare reads.
type runFile struct {
	Workloads []result `json:"workloads"`
}

// side is one set of runs of one commit.
type side struct{ runs []runFile }

func loadSide(list string) (side, error) {
	var s side
	for _, path := range strings.Split(list, ",") {
		raw, err := os.ReadFile(path)
		if err != nil {
			return s, err
		}
		var rf runFile
		if err := json.Unmarshal(raw, &rf); err != nil {
			return s, fmt.Errorf("%s: %w", path, err)
		}
		s.runs = append(s.runs, rf)
	}
	return s, nil
}

// of returns the workload's result in every run of the side.
func (s side) of(workload string) []result {
	var out []result
	for _, rf := range s.runs {
		for _, res := range rf.Workloads {
			if res.Workload == workload {
				out = append(out, res)
			}
		}
	}
	return out
}

// values returns the metric's value in every run, and whether every run
// carries it.
func values(runs []result, name string) ([]float64, bool) {
	var vs []float64
	for _, res := range runs {
		for _, m := range res.EndToEnd {
			if m.Name == name && m.Value != nil {
				vs = append(vs, *m.Value)
			}
		}
	}
	return vs, len(vs) == len(runs) && len(vs) > 0
}

func failureShare(runs []result) float64 {
	var failed, attempted int
	for _, res := range runs {
		failed += res.Failed
		attempted += res.Attempted
	}
	if attempted == 0 {
		return 1
	}
	return float64(failed) / float64(attempted)
}

// compare prints, per workload × end-to-end metric, the median of side a,
// the median of side b, the relative difference and the bound BENCHMARK.json
// fixes. It fails when b is worse than a by more than a bound, when the
// failed share of operations rose, when a metric is missing on either side,
// or when a simulated count that must repeat exactly (same seed) does not.
func compare(sp *spec, args []string) error {
	if len(args) != 2 {
		return errors.New("usage: benchmark compare <a.json>[,<a2.json>...] <b.json>[,<b2.json>...]")
	}
	a, err := loadSide(args[0])
	if err != nil {
		return err
	}
	b, err := loadSide(args[1])
	if err != nil {
		return err
	}
	var problems []string
	fmt.Printf("%-14s %-16s %12s %12s %8s %7s  %s\n", "workload", "metric", "a", "b", "diff", "bound", "verdict")
	for _, w := range sp.Workloads {
		ra, rb := a.of(w.Name), b.of(w.Name)
		for _, d := range sp.EndToEnd {
			va, okA := values(ra, d.Name)
			vb, okB := values(rb, d.Name)
			if !okA || !okB {
				problems = append(problems, fmt.Sprintf("%s/%s: missing on a side", w.Name, d.Name))
				fmt.Printf("%-14s %-16s %12s %12s %8s %6.0f%%  MISSING\n", w.Name, d.Name, "-", "-", "-", d.Bound*100)
				continue
			}
			ma, mb := median(va), median(vb)
			worse := (mb - ma) / ma
			if d.Better == "higher" {
				worse = (ma - mb) / ma
			}
			verdict := "ok"
			if worse > d.Bound {
				verdict = "WORSE"
				problems = append(problems, fmt.Sprintf("%s/%s: %.4g -> %.4g %s, worse by %.1f%% (bound %.0f%%)",
					w.Name, d.Name, ma, mb, d.Unit, worse*100, d.Bound*100))
			}
			fmt.Printf("%-14s %-16s %12.5g %12.5g %+7.1f%% %6.0f%%  %s\n",
				w.Name, d.Name, ma, mb, (mb-ma)/ma*100, d.Bound*100, verdict)
		}
		if fa, fb := failureShare(ra), failureShare(rb); fb > fa {
			problems = append(problems, fmt.Sprintf("%s: failed share of operations rose from %.4g to %.4g", w.Name, fa, fb))
		}
		problems = append(problems, exactMismatches(w.Name, append(ra, rb...))...)
	}
	if len(problems) > 0 {
		return fmt.Errorf("compare: %s", strings.Join(problems, "; "))
	}
	return nil
}

// exactMismatches checks the simulated counts: among runs of one seed they
// are bit-identical, whatever the host did.
func exactMismatches(workload string, runs []result) []string {
	var out []string
	first := map[uint64]map[string]float64{}
	for _, res := range runs {
		ref, seen := first[res.Seed]
		if !seen {
			first[res.Seed] = res.Exact
			continue
		}
		for name, v := range res.Exact {
			if ref[name] != v {
				out = append(out, fmt.Sprintf("%s/%s: %v and %v for seed %d, must be identical", workload, name, ref[name], v, res.Seed))
			}
		}
	}
	return out
}
