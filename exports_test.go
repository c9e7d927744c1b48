package streambalance

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// keptExports lists exported functions and methods that no non-test
// file names but that stay exported on purpose, each with its reason.
// An entry whose name is gone, or is named again by a non-test file,
// fails the test, so the list holds only what it has to.
var keptExports = map[string]string{
	// Called through an interface.
	"MarshalJSON":   "obs: json.Marshaler of HistBucket",
	"UnmarshalJSON": "obs: json.Unmarshaler of HistBucket",

	// The public facade: its callers are the library's users.
	"AssignBottleneck":        "facade: capacitated k-center assignment",
	"ComposeCoresets":         "facade: union of coresets over disjoint inputs",
	"LoadCoreset":             "facade: read a serialized coreset",
	"SaveCoreset":             "facade: write a serialized coreset",
	"SolveCapacitatedKCenter": "facade: capacitated k-center solve",
	"ReduceDimension":         "facade: JL reduction before coreset construction",
	"ReducedDelta":            "facade: domain of a JL-reduced point set",
	"ReducedDim":              "facade: dimension of a JL-reduced point set",

	// Test seams and fixtures that tests in other packages need.
	"SetEnabled":  "obs: telemetry switch dist/trace_test.go restores",
	"BenchName":   "testutil: benchmark naming for the hashing and sketch benchmarks",
	"Adversarial": "workload: input shape coreset/shapes_test.go draws",
	"Lattice":     "workload: input shape coreset/shapes_test.go draws",
	"Ring":        "workload: input shape coreset/shapes_test.go draws",

	// Oracles that tests in other packages compare against.
	"IsHeavy":     "partition: Definition 3.3 heavy-cell oracle for coreset/lemma34_test.go",
	"PartAt":      "partition: part lookup behind the coreset map-filter oracle (coreset/query_test.go)",
	"ParentIndex": "grid: parent-cell oracle for the dist, sketch and partition tests",
	"Diameter":    "grid: cell diameter bound coreset/lemma34_test.go checks Lemma 3.4 with",
	"BoundingBox": "geo: extent oracle for workload_test.go",
	"Ratio":       "obs: counter ratio stream/coalesce_test.go reads the coalesce ratio with",
	"Guesses":     "stream: the guess ladder TestNewAutoStreamOFactor checks through AutoStream",

	// Test seams and an oracle of their own package's tests.
	"SetClock":              "obs: deterministic span and series timestamps for the obs tests",
	"SetIDSource":           "obs: deterministic trace and span ids for the obs tests",
	"BruteForceCapacitated": "solve: exhaustive oracle solve_test.go checks the solvers against",

	// Only their own package's tests call these; not yet resolved.
	"Arcs":            "flow: arc count, arena_test.go",
	"Flow":            "flow: per-edge flow, flow_test.go and arena_test.go",
	"Degree":          "hashing: λ of a KWise family, hashing_test.go and powers_test.go",
	"Key2":            "hashing: pair fingerprint, hashing_test.go",
	"SameCell":        "grid: same-cell test, grid_test.go",
	"MaxPairwiseDist": "geo: brute-force diameter, geo_test.go",
	"MaxSize":         "coreset: ‖s(π)‖_∞, assignrule_test.go",
	"Pct":             "metrics: percentage format, metrics_test.go",
	"Summarize":       "metrics: order statistics, metrics_test.go",
	"Rate":            "obs: window rate of a Series, series_test.go",
}

// TestNoTestOnlyExports fails on an exported top-level function or
// method, declared outside bench/, whose name no non-test file of the
// module (bench/, cmd/ and examples/ included) uses as an identifier:
// such an export serves only tests, so it belongs in a _test.go file,
// unexported, or deleted. Names are matched without their receiver or
// package, which errs toward keeping a name.
func TestNoTestOnlyExports(t *testing.T) {
	fset := token.NewFileSet()
	declared := map[string][]string{} // name → declaring files
	used := map[string]bool{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		f, err := parser.ParseFile(fset, path, src, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		decls := map[*ast.Ident]bool{}
		if !strings.HasPrefix(filepath.ToSlash(path), "bench/") {
			for _, d := range f.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok && fd.Name.IsExported() {
					decls[fd.Name] = true
					declared[fd.Name.Name] = append(declared[fd.Name.Name], path)
				}
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !decls[id] {
				used[id.Name] = true
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var unused []string
	for name, files := range declared {
		if !used[name] && keptExports[name] == "" {
			unused = append(unused, name+" ("+strings.Join(files, ", ")+")")
		}
	}
	sort.Strings(unused)
	if len(unused) > 0 {
		t.Errorf("exported but named by no non-test file; move into a _test.go, unexport, delete, or add to keptExports with a reason:\n\t%s",
			strings.Join(unused, "\n\t"))
	}
	for name := range keptExports {
		switch {
		case declared[name] == nil:
			t.Errorf("keptExports names %s, which no longer exists", name)
		case used[name]:
			t.Errorf("keptExports names %s, which a non-test file now uses", name)
		}
	}
}
