package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"sort"
	"strconv"
	"strings"
)

// golden holds the recorded per-step loss sequences: workload → seed →
// losses, starting at the first step of the rig that is measured. A run
// compares as many steps as it has in common with the record.
type golden map[string]map[string][]float64

func loadGolden(path string) (golden, error) {
	buf, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		return golden{}, nil
	}
	if err != nil {
		return nil, err
	}
	g := golden{}
	if err := json.Unmarshal(buf, &g); err != nil {
		return nil, err
	}
	return g, nil
}

func (g golden) get(workload string, seed uint64) ([]float64, bool) {
	l, ok := g[workload][strconv.FormatUint(seed, 10)]
	return l, ok
}

func (g golden) set(workload string, seed uint64, losses []float64) {
	if g[workload] == nil {
		g[workload] = map[string][]float64{}
	}
	g[workload][strconv.FormatUint(seed, 10)] = losses
}

// save writes one line per workload and seed, in sorted order, so that a
// re-recording shows up as a small diff.
func (g golden) save(path string) error {
	var b strings.Builder
	b.WriteString("{\n")
	workloads := sortedNames(g)
	for i, w := range workloads {
		fmt.Fprintf(&b, " %q: {\n", w)
		seeds := sortedNames(g[w])
		for j, seed := range seeds {
			losses, err := json.Marshal(g[w][seed])
			if err != nil {
				return err
			}
			fmt.Fprintf(&b, "  %q: %s%s\n", seed, losses, comma(j, len(seeds)))
		}
		fmt.Fprintf(&b, " }%s\n", comma(i, len(workloads)))
	}
	b.WriteString("}\n")
	return os.WriteFile(path, []byte(b.String()), 0o644)
}

func comma(i, n int) string {
	if i < n-1 {
		return ","
	}
	return ""
}

func sortedNames[V any](m map[string]V) []string {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}
