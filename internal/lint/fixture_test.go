package lint

import (
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// wantRe extracts expectations from fixture comments:
//
//	code() // want `regex`
var wantRe = regexp.MustCompile("// want `([^`]+)`")

type want struct {
	file    string // basename
	line    int
	pattern *regexp.Regexp
	matched bool
}

// runFixture loads the analyzer's testdata package, runs only that
// analyzer, and checks the findings against the `// want` comments:
// every diagnostic must match a want on its line, every want must be
// hit at least once.
func runFixture(t *testing.T, a *Analyzer) {
	t.Helper()
	pkgs, err := Load(".", "./testdata/src/"+a.Name)
	if err != nil {
		t.Fatalf("loading fixture: %v", err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("fixture loaded %d packages, want 1", len(pkgs))
	}
	pkg := pkgs[0]

	var wants []*want
	for _, file := range pkg.Files {
		for _, cg := range file.Comments {
			for _, c := range cg.List {
				m := wantRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				re, err := regexp.Compile(m[1])
				if err != nil {
					t.Fatalf("bad want regex %q: %v", m[1], err)
				}
				pos := pkg.Fset.Position(c.Pos())
				wants = append(wants, &want{
					file:    filepath.Base(pos.Filename),
					line:    pos.Line,
					pattern: re,
				})
			}
		}
	}
	if len(wants) == 0 {
		t.Fatalf("fixture for %s has no // want comments", a.Name)
	}

	diags, err := Run([]*Analyzer{a}, pkgs)
	if err != nil {
		t.Fatalf("running %s: %v", a.Name, err)
	}

	for _, d := range diags {
		matched := false
		for _, w := range wants {
			if w.file == filepath.Base(d.Pos.Filename) && w.line == d.Pos.Line && w.pattern.MatchString(d.Message) {
				w.matched = true
				matched = true
			}
		}
		if !matched {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("missing diagnostic at %s:%d matching %q", w.file, w.line, w.pattern)
		}
	}
}

func TestLockDisciplineFixture(t *testing.T)   { runFixture(t, LockDiscipline) }
func TestDeterminismFixture(t *testing.T)      { runFixture(t, Determinism) }
func TestNoAllocFixture(t *testing.T)          { runFixture(t, NoAlloc) }
func TestTelemetryHandlesFixture(t *testing.T) { runFixture(t, TelemetryHandles) }
func TestWireErrorsFixture(t *testing.T)       { runFixture(t, WireErrors) }
func TestCtxPropagationFixture(t *testing.T)   { runFixture(t, CtxPropagation) }

// TestNoAllocLeavesNoBuildOutput runs the noalloc analyzer over a main
// package, where a plain `go build .` writes an executable into the
// package directory, and checks that the directory is left as it was.
func TestNoAllocLeavesNoBuildOutput(t *testing.T) {
	const dir = "./testdata/src/noallocmain"
	list := func() []string {
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		names := make([]string, len(entries))
		for i, e := range entries {
			names[i] = e.Name()
		}
		return names
	}
	before := list()
	pkgs, err := Load(".", dir)
	if err != nil {
		t.Fatalf("loading fixture: %v", err)
	}
	diags, err := Run([]*Analyzer{NoAlloc}, pkgs)
	if err != nil {
		t.Fatalf("running noalloc: %v", err)
	}
	for _, d := range diags {
		t.Errorf("unexpected diagnostic: %s", d)
	}
	if after := list(); !slices.Equal(before, after) {
		t.Fatalf("noalloc changed %s: %v before, %v after", dir, before, after)
	}
}

// TestSuiteCleanOnTree is the in-test mirror of CI's
// `go run ./cmd/renamedlint ./...`: the shipped tree itself must be
// finding-free (testdata fixtures are outside the ./... wildcard).
func TestSuiteCleanOnTree(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole tree")
	}
	pkgs, err := Load("../..", "./...")
	if err != nil {
		t.Fatalf("loading tree: %v", err)
	}
	diags, err := Run(Analyzers(), pkgs)
	if err != nil {
		t.Fatalf("running suite: %v", err)
	}
	for _, d := range diags {
		t.Errorf("%s", d)
	}
}

// TestByName covers the -run selection path of cmd/renamedlint.
func TestByName(t *testing.T) {
	got, err := ByName([]string{"determinism", "noalloc"})
	if err != nil || len(got) != 2 || got[0].Name != "determinism" || got[1].Name != "noalloc" {
		t.Fatalf("ByName(determinism,noalloc) = %v, %v", got, err)
	}
	if _, err := ByName([]string{"nope"}); err == nil || !strings.Contains(err.Error(), "unknown analyzer") {
		t.Fatalf("ByName(nope) error = %v, want unknown analyzer", err)
	}
	all, err := ByName(nil)
	if err != nil || len(all) != len(Analyzers()) {
		t.Fatalf("ByName(nil) = %d analyzers, %v", len(all), err)
	}
}

// TestDiagnosticString pins the file:line:col + analyzer format the CI
// log relies on.
func TestDiagnosticString(t *testing.T) {
	d := Diagnostic{
		Analyzer: "determinism",
		Pos:      token.Position{Filename: "x.go", Line: 3, Column: 7},
		Message:  "nope",
	}
	if got, want := d.String(), "x.go:3:7: nope (determinism)"; got != want {
		t.Fatalf("String() = %q, want %q", got, want)
	}
}
