package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sort"
)

// manifest is the part of BENCHMARK.json the program and its tests read.
type manifest struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadManifest(path string) (*manifest, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var m manifest
	if err := json.Unmarshal(b, &m); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &m, nil
}

// seedExact are the end-to-end metrics a run's seed alone decides. Their
// bounds in BENCHMARK.json must cover how they vary from seed to seed, so
// compare also requires runs of the same workload and seed to agree on
// them exactly.
var seedExact = map[string]bool{"coreset_points": true, "summary_kb": true}

// runSet is one directory of run outputs: metric values per workload and
// metric, the same keyed by seed, and the meta stamps seen.
type runSet struct {
	values map[string]map[string][]float64
	bySeed map[[2]string]map[int64]float64 // {workload, metric} → seed → value
	meta   map[string]bool
}

// loadRuns reads every *.json file in dir as the standard output of one
// run: the report line names the workload, the last line holds the
// metrics.
func loadRuns(dir string) (*runSet, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	rs := &runSet{values: map[string]map[string][]float64{}, bySeed: map[[2]string]map[int64]float64{}, meta: map[string]bool{}}
	for _, ent := range entries {
		if !ent.Type().IsRegular() || filepath.Ext(ent.Name()) != ".json" {
			continue
		}
		path := filepath.Join(dir, ent.Name())
		rep, res, err := parseRun(path)
		if err != nil {
			return nil, err
		}
		stamp, _ := json.Marshal(map[string]any{
			"go_version": rep.Meta["go_version"], "gomaxprocs": rep.Meta["gomaxprocs"],
			"num_cpu": rep.Meta["num_cpu"], "tree_hash": rep.Meta["tree_hash"],
		})
		rs.meta[string(stamp)] = true
		w := rep.Workload
		if rs.values[w] == nil {
			rs.values[w] = map[string][]float64{}
		}
		for name, v := range res.Metrics {
			rs.values[w][name] = append(rs.values[w][name], v.Value)
			key := [2]string{w, name}
			if rs.bySeed[key] == nil {
				rs.bySeed[key] = map[int64]float64{}
			}
			rs.bySeed[key][rep.Seed] = v.Value
		}
	}
	if len(rs.values) == 0 {
		return nil, fmt.Errorf("%s: no run outputs", dir)
	}
	return rs, nil
}

func parseRun(path string) (report, result, error) {
	var rep report
	var res result
	b, err := os.ReadFile(path)
	if err != nil {
		return rep, res, err
	}
	var lines [][]byte
	sc := bufio.NewScanner(bytes.NewReader(b))
	sc.Buffer(nil, 1<<24)
	for sc.Scan() {
		if line := bytes.TrimSpace(sc.Bytes()); len(line) > 0 {
			lines = append(lines, append([]byte(nil), line...))
		}
	}
	if len(lines) < 2 {
		return rep, res, fmt.Errorf("%s: want a report line and a result line", path)
	}
	if err := json.Unmarshal(lines[len(lines)-2], &rep); err != nil || rep.Workload == "" {
		return rep, res, fmt.Errorf("%s: no report line before the result", path)
	}
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return rep, res, fmt.Errorf("%s: result line: %v", path, err)
	}
	return rep, res, nil
}

// compareDirs implements bench -compare A/ B/. It prints, per workload
// and metric, each set's median and quartiles and the change of B's
// median from A's. It returns 1 when an end-to-end metric's medians
// differ by more than its bound in the manifest, in either direction, or
// when a seedExact metric differs between two runs of the same seed.
// Per-layer metrics have no bound and are printed for reading only.
func compareDirs(dirs []string, manifestPath string, stdout, stderr io.Writer) int {
	if len(dirs) != 2 {
		fmt.Fprintln(stderr, "usage: bench -compare A/ B/")
		return 2
	}
	man, err := loadManifest(manifestPath)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 2
	}
	bound := map[string]float64{}
	better := map[string]string{}
	for _, m := range man.EndToEnd {
		bound[m.Name], better[m.Name] = m.Bound, m.Better
	}
	for _, m := range man.PerLayer {
		better[m.Name] = m.Better
	}
	a, err := loadRuns(dirs[0])
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 2
	}
	b, err := loadRuns(dirs[1])
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 2
	}
	for label, rs := range map[string]*runSet{"A": a, "B": b} {
		for stamp := range rs.meta {
			fmt.Fprintf(stdout, "# %s meta %s\n", label, stamp)
		}
	}

	code := 0
	fmt.Fprintf(stdout, "%-12s %-32s %5s %30s %5s %30s %9s %6s %s\n",
		"workload", "metric", "n(A)", "A median [q1, q3]", "n(B)", "B median [q1, q3]", "change", "bound", "verdict")
	for _, w := range sortedKeys(a.values) {
		for _, name := range sortedKeys(a.values[w]) {
			va, vb := a.values[w][name], b.values[w][name]
			if len(vb) == 0 {
				continue
			}
			ma, mb := median(va), median(vb)
			change := ratio(mb-ma, math.Abs(ma))
			verdict, boundText := "info", "-"
			if bd, ok := bound[name]; ok {
				boundText = fmt.Sprintf("%.3f", bd)
				verdict = "ok"
				if math.Abs(change) > bd || (ma == 0 && mb != 0) {
					code = 1
					verdict = "DIFFERS"
					if (change > 0) == (better[name] == "lower") {
						verdict += " (worse)"
					} else {
						verdict += " (better)"
					}
				}
			}
			if seedExact[name] {
				if s, ok := seedMismatch(a.bySeed[[2]string{w, name}], b.bySeed[[2]string{w, name}]); ok {
					code = 1
					verdict = fmt.Sprintf("DIFFERS at seed %d", s)
				}
			}
			fmt.Fprintf(stdout, "%-12s %-32s %5d %30s %5d %30s %+8.2f%% %6s %s\n",
				w, name, len(va), spread(va), len(vb), spread(vb), 100*change, boundText, verdict)
		}
	}
	return code
}

// seedMismatch returns the smallest seed whose values in a and b differ.
func seedMismatch(a, b map[int64]float64) (int64, bool) {
	var seeds []int64
	for s, va := range a {
		if vb, ok := b[s]; ok && va != vb {
			seeds = append(seeds, s)
		}
	}
	if len(seeds) == 0 {
		return 0, false
	}
	return slices.Min(seeds), true
}

func spread(xs []float64) string {
	q1, q3 := quartiles(xs)
	return fmt.Sprintf("%.5g [%.5g, %.5g]", median(xs), q1, q3)
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for key := range m {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	return keys
}
