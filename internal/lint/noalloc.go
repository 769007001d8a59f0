package lint

import (
	"fmt"
	"os"
	"os/exec"
	"regexp"
	"strconv"
	"strings"
)

// NoAlloc turns the repo's benchmark-asserted zero-allocation claims
// (binproto encode/decode, telemetry counter/histogram ops — the PR-6
// and PR-7 hot paths) into a compile-time gate. Functions annotated
// //renamed:noalloc in their doc comment are checked against the
// compiler's own escape analysis: the package is rebuilt with
// -gcflags=-m and any "escapes to heap" / "moved to heap" line inside
// an annotated function fails the run. Benchmarks catch an allocation
// regression only on the inputs they happen to exercise; the escape
// analysis verdict covers every path through the function.
//
// "leaking param" lines are ignored — a parameter flowing to the
// caller's heap (append into a caller-owned slice) is exactly what the
// append-style codecs are for; what the annotation forbids is the
// function itself forcing a heap allocation per call.
var NoAlloc = &Analyzer{
	Name: "noalloc",
	Doc:  "fail //renamed:noalloc functions that the compiler's escape analysis says allocate",
	Run:  runNoAlloc,
}

// escapeLine matches the compiler's -m diagnostics we care about, e.g.
//
//	./codec.go:115:17: string(...) escapes to heap
//	./binproto.go:42:6: moved to heap: hdr
var escapeLine = regexp.MustCompile(`^\.?/?([^:]+):(\d+):(\d+): (.*(?:escapes to heap|moved to heap).*)$`)

func runNoAlloc(pass *Pass) error {
	funcs := noallocFuncs(pass)
	if len(funcs) == 0 {
		return nil
	}

	// The build cache replays compiler output, so repeated runs stay
	// cheap. -o os.DevNull discards the build result: for a main
	// package a plain `go build .` would write its executable into the
	// package directory.
	cmd := exec.Command("go", "build", "-gcflags=-m", "-o", os.DevNull, ".")
	cmd.Dir = pass.Dir
	out, err := cmd.CombinedOutput()
	if err != nil {
		return fmt.Errorf("go build -gcflags=-m in %s: %v\n%s", pass.Dir, err, out)
	}

	for _, line := range strings.Split(string(out), "\n") {
		m := escapeLine.FindStringSubmatch(strings.TrimSpace(line))
		if m == nil {
			continue
		}
		file := baseName(m[1])
		lineNo, _ := strconv.Atoi(m[2])
		for _, fn := range funcs {
			if fn.file == file && fn.from <= lineNo && lineNo <= fn.to {
				pass.Reportf(fn.decl.Name.Pos(),
					"%s is annotated //renamed:noalloc but the compiler reports a heap allocation at %s:%d: %s",
					fn.name, file, lineNo, m[4])
			}
		}
	}
	return nil
}
