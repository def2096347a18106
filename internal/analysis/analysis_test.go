package analysis

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// fixturePkgs maps each fixture directory to the synthetic package path it
// loads under. The path suffix drives analyzer scoping: "fixture/wal" puts
// the whole package in the deterministic scope, "fixture/cluster" and
// "fixture/service" opt into lockorder/walorder, "fixture/core" joins the
// serving set that boundary checks, and the rest rely on per-function
// annotations.
var fixturePkgs = map[string]string{
	"detmaprange":  "fixture/detmaprange",
	"nondetsource": "fixture/wal",
	"hotalloc":     "fixture/hotalloc",
	"lockorder":    "fixture/cluster",
	"walorder":     "fixture/service",
	"boundary":     "fixture/core",
}

// want is one expectation parsed from a `// want `+"`regex`"+“ comment.
type want struct {
	file    string
	line    int
	re      *regexp.Regexp
	matched bool
}

var wantRe = regexp.MustCompile("// want `([^`]+)`")

func parseWants(t *testing.T, dir string) []*want {
	t.Helper()
	matches, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	var wants []*want
	for _, path := range matches {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(data), "\n") {
			m := wantRe.FindStringSubmatch(line)
			if m == nil {
				continue
			}
			re, err := regexp.Compile(m[1])
			if err != nil {
				t.Fatalf("%s:%d: bad want regexp: %v", path, i+1, err)
			}
			wants = append(wants, &want{file: path, line: i + 1, re: re})
		}
	}
	if len(wants) == 0 {
		t.Fatalf("no want expectations in %s", dir)
	}
	return wants
}

// TestFixtures runs the full analyzer suite over each fixture package and
// checks the diagnostics against the `// want` expectations: every
// expectation must be hit, and no unexpected diagnostic may appear — so
// both the positive (analyzer fires) and negative (allowed idiom stays
// silent) cases are pinned.
func TestFixtures(t *testing.T) {
	for name, pkgPath := range fixturePkgs {
		t.Run(name, func(t *testing.T) {
			dir := filepath.Join("testdata", name)
			pkg, err := LoadDir(dir, pkgPath)
			if err != nil {
				t.Fatal(err)
			}
			diags, err := RunAnalyzers(pkg, All())
			if err != nil {
				t.Fatal(err)
			}
			wants := parseWants(t, dir)
			for _, d := range diags {
				text := fmt.Sprintf("%s: %s", d.Analyzer, d.Message)
				found := false
				for _, w := range wants {
					if filepath.Base(w.file) == filepath.Base(d.Pos.Filename) &&
						w.line == d.Pos.Line && w.re.MatchString(text) {
						w.matched = true
						found = true
						break
					}
				}
				if !found {
					t.Errorf("unexpected diagnostic: %s", d)
				}
			}
			for _, w := range wants {
				if !w.matched {
					t.Errorf("%s:%d: expected diagnostic matching %q, got none", w.file, w.line, w.re)
				}
			}
		})
	}
}

// TestRepoIsClean vets the entire module with every analyzer — the same
// gate CI runs via cmd/firmament-vet. Reintroducing, say, an unsorted map
// iteration in internal/cluster/codec.go fails this test too, so `go test
// ./...` alone catches contract violations.
func TestRepoIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module")
	}
	pkgs, err := Load(filepath.Join("..", ".."), "./...")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) == 0 {
		t.Fatal("no packages loaded")
	}
	for _, pkg := range pkgs {
		diags, err := RunAnalyzers(pkg, All())
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range diags {
			t.Errorf("%s", d)
		}
	}
}

// TestServingSetIsServeDeps pins boundary's serving set to what
// cmd/firmament-serve links, so a package that joins the binary is checked
// as well.
func TestServingSetIsServeDeps(t *testing.T) {
	if testing.Short() {
		t.Skip("lists the module's packages")
	}
	entries, err := goList(filepath.Join("..", ".."), "list", "-deps", "-json=ImportPath,Standard", "./cmd/firmament-serve")
	if err != nil {
		t.Fatal(err)
	}
	var deps []string
	for _, e := range entries {
		if !e.Standard {
			deps = append(deps, e.ImportPath[strings.LastIndexByte(e.ImportPath, '/')+1:])
		}
	}
	slices.Sort(deps)
	want := append([]string(nil), servingPkgs...)
	slices.Sort(want)
	if !slices.Equal(deps, want) {
		t.Fatalf("cmd/firmament-serve links %v, boundary's serving set is %v", deps, want)
	}
}
