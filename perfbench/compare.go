package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// compare prints each metric of two records written with -out, new
// against base. Records from different host classes, or of different
// workloads or trace modes, are refused: their numbers do not compare.
func compare(args []string, stdout io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: perfbench compare base.json new.json")
		return 2
	}
	var recs [2]record
	for i, path := range args {
		b, err := os.ReadFile(path)
		if err == nil {
			err = json.Unmarshal(b, &recs[i])
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench compare: %s: %v\n", path, err)
			return 2
		}
	}
	if err := comparable(recs[0].Provenance, recs[1].Provenance); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench compare: %v\n", err)
		return 2
	}
	base, next := recs[0].Metrics, recs[1].Metrics
	names := make([]string, 0, len(base))
	for n := range base {
		if _, ok := next[n]; ok {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	fmt.Fprintf(stdout, "%s on %s: %s → %s\n", recs[0].Provenance.Workload, recs[0].Provenance.hostClass(),
		recs[0].Provenance.GitSHA, recs[1].Provenance.GitSHA)
	for _, n := range names {
		b, x := base[n].Value, next[n].Value
		delta := "n/a"
		if b != 0 {
			delta = fmt.Sprintf("%+.1f%%", 100*(x-b)/b)
		}
		fmt.Fprintf(stdout, "%-28s %14.6g → %-14.6g %-6s %s\n", n, b, x, base[n].Unit, delta)
	}
	return 0
}

// comparable reports why two results may not be compared, if they may
// not: a different host class, workload or trace mode.
func comparable(a, b provenance) error {
	switch {
	case a.hostClass() != b.hostClass():
		return fmt.Errorf("refusing to compare across host classes: %s vs %s", a.hostClass(), b.hostClass())
	case a.Workload != b.Workload:
		return fmt.Errorf("refusing to compare workload %s with %s", a.Workload, b.Workload)
	case a.Traced != b.Traced:
		return fmt.Errorf("refusing to compare a traced result with an untraced one")
	}
	return nil
}
