package hwprof

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// WriteTop renders the n heaviest nodes as a flat table — the profiler's
// own `pprof -top` — with each node's share of the total and the event
// count alongside.
func (p *Profile) WriteTop(w io.Writer, n int) error {
	total := p.TotalCycles()
	fmt.Fprintf(w, "total: %d simulated cycles across %d nodes\n", total, len(p.Samples))
	if n <= 0 || n > len(p.Samples) {
		n = len(p.Samples)
	}
	if n == 0 {
		return nil
	}
	fmt.Fprintf(w, "%12s %7s %12s  %s\n", "cycles", "share", "events", "lane;module;stage;reason")
	for _, s := range p.Samples[:n] {
		share := "-"
		if total > 0 && s.Cycles > 0 {
			share = fmt.Sprintf("%.2f%%", 100*float64(s.Cycles)/float64(total))
		}
		fmt.Fprintf(w, "%12d %7s %12d  %s\n", s.Cycles, share, s.Events, strings.Join(s.Stack, frameSep))
	}
	if n < len(p.Samples) {
		fmt.Fprintf(w, "... %d more nodes\n", len(p.Samples)-n)
	}
	return nil
}

// treeNode is one frame of the aggregated prefix tree WriteTree renders.
type treeNode struct {
	name     string
	cycles   int64 // subtree sum
	events   int64
	children map[string]*treeNode
	order    []string
}

func (t *treeNode) child(name string) *treeNode {
	if t.children == nil {
		t.children = make(map[string]*treeNode)
	}
	c, ok := t.children[name]
	if !ok {
		c = &treeNode{name: name}
		t.children[name] = c
		t.order = append(t.order, name)
	}
	return c
}

// WriteTree renders the profile as an indented stack tree with subtree
// cycle sums — the flamegraph, in text.
func (p *Profile) WriteTree(w io.Writer) error {
	root := &treeNode{}
	for _, s := range p.Samples {
		root.cycles += s.Cycles
		root.events += s.Events
		t := root
		for _, f := range s.Stack {
			t = t.child(f)
			t.cycles += s.Cycles
			t.events += s.Events
		}
	}
	fmt.Fprintf(w, "total: %d simulated cycles\n", root.cycles)
	var walk func(t *treeNode, depth int)
	walk = func(t *treeNode, depth int) {
		names := append([]string(nil), t.order...)
		sort.SliceStable(names, func(i, j int) bool {
			a, b := t.children[names[i]], t.children[names[j]]
			if a.cycles != b.cycles {
				return a.cycles > b.cycles
			}
			return a.name < b.name
		})
		for _, name := range names {
			c := t.children[name]
			share := ""
			if root.cycles > 0 && c.cycles > 0 {
				share = fmt.Sprintf(" (%.1f%%)", 100*float64(c.cycles)/float64(root.cycles))
			}
			ev := ""
			if c.events > 0 {
				ev = fmt.Sprintf(", %d events", c.events)
			}
			fmt.Fprintf(w, "%s%-*s %d cycles%s%s\n", strings.Repeat("  ", depth+1), 24-2*depth, c.name, c.cycles, share, ev)
			walk(c, depth+1)
		}
	}
	walk(root, 0)
	return nil
}
