package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

// host is the provenance block every report carries. Two reports whose
// machine fields differ measured on different machines and are not
// compared; the commit and seed only say what ran.
type host struct {
	NProc            int    `json:"nproc"`
	GoMaxProcsGen    int    `json:"gomaxprocs_generator"`
	GoMaxProcsServer int    `json:"gomaxprocs_server"`
	CPUModel         string `json:"cpu_model"`
	GoVersion        string `json:"go_version"`
	Commit           string `json:"commit"`
	Seed             uint64 `json:"seed"`
}

// comparable reports whether two host blocks describe the same machine
// and toolchain; the commit and seed may differ, since comparing a change
// against its parent is the point.
func (h host) comparable(o host) bool {
	h.Commit, o.Commit = "", ""
	h.Seed, o.Seed = 0, 0
	return h == o
}

// benchEnv is the per-invocation working state: where builds and results
// go, the freshly built server binary, and the host block.
type benchEnv struct {
	root       string
	buildDir   string // <root>/.bench_build
	tmpDir     string // removed by close
	resultsDir string
	serverBin  string
	host       host
}

// newBenchEnv builds cmd/renamed from the working tree into a fresh
// temporary directory. The committed cmd/renamed/renamed binary, if any,
// is never executed: it need not match the source.
func newBenchEnv(root string, seed uint64) (*benchEnv, error) {
	if _, err := os.Stat(filepath.Join(root, "cmd", "renamed", "main.go")); err != nil {
		return nil, fmt.Errorf("no cmd/renamed source under %s: %w", root, err)
	}
	e := &benchEnv{root: root, buildDir: filepath.Join(root, ".bench_build")}
	e.resultsDir = filepath.Join(e.buildDir, "results")
	if err := os.MkdirAll(e.resultsDir, 0o755); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(filepath.Join(e.buildDir, "tmp"), 0o755); err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp(filepath.Join(e.buildDir, "tmp"), "run-")
	if err != nil {
		return nil, err
	}
	e.tmpDir = tmp
	e.serverBin = filepath.Join(tmp, "renamed")
	build := exec.Command("go", "build", "-o", e.serverBin, "./cmd/renamed")
	build.Dir = root
	build.Stdout, build.Stderr = os.Stderr, os.Stderr
	if err := build.Run(); err != nil {
		e.close()
		return nil, fmt.Errorf("build cmd/renamed: %w", err)
	}
	e.host = host{
		NProc:            runtime.NumCPU(),
		GoMaxProcsGen:    runtime.GOMAXPROCS(0),
		GoMaxProcsServer: serverProcs(),
		CPUModel:         cpuModel(),
		GoVersion:        runtime.Version(),
		Commit:           commitOf(root),
		Seed:             seed,
	}
	return e, nil
}

func (e *benchEnv) close() { os.RemoveAll(e.tmpDir) }

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commitOf names the program under test: the git commit when the tree is
// a clean checkout, else a hash of every Go source file and go.mod under
// root (the benchmark's own directory and build outputs excluded), so an
// exported tree without history still gets a stable identity.
func commitOf(root string) string {
	if out, err := exec.Command("git", "-C", root, "status", "--porcelain", "--untracked-files=no").Output(); err == nil && len(out) == 0 {
		if out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output(); err == nil {
			return strings.TrimSpace(string(out))
		}
	}
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		if d.IsDir() {
			if rel == ".git" || rel == ".bench_build" || rel == "perfbench" {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(rel, ".go") && rel != "go.mod" {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		fmt.Fprintf(h, "%s\x00", filepath.ToSlash(rel))
		_, err = io.Copy(h, f)
		return err
	})
	if err != nil {
		return "unknown"
	}
	return "tree:" + hex.EncodeToString(h.Sum(nil))[:16]
}

// compareReports prints, per metric, the relative change from the first
// report to the second — or declares the pair incomparable when the two
// ran on different machines or toolchains.
func compareReports(a, b string, out io.Writer) (int, error) {
	ra, err := readReport(a)
	if err != nil {
		return 1, err
	}
	rb, err := readReport(b)
	if err != nil {
		return 1, err
	}
	if ra.Workload != rb.Workload || ra.Trace != rb.Trace || ra.Seconds != rb.Seconds {
		fmt.Fprintf(out, "incomparable: workload/trace/seconds differ (%s/%v/%d vs %s/%v/%d)\n",
			ra.Workload, ra.Trace, ra.Seconds, rb.Workload, rb.Trace, rb.Seconds)
		return 0, nil
	}
	if !ra.Host.comparable(rb.Host) {
		fmt.Fprintf(out, "incomparable: machines differ\n  %+v\n  %+v\n", ra.Host, rb.Host)
		return 0, nil
	}
	fmt.Fprintf(out, "  %-40s %14s -> %14s\n", "commit", ra.Host.Commit, rb.Host.Commit)
	fmt.Fprintf(out, "  %-40s %14d -> %14d\n", "seed", ra.Host.Seed, rb.Host.Seed)
	for _, name := range sortedKeys(ra.Result.Metrics) {
		ma := ra.Result.Metrics[name]
		mb, ok := rb.Result.Metrics[name]
		if !ok {
			fmt.Fprintf(out, "  %-40s missing in %s\n", name, b)
			continue
		}
		rel := 0.0
		if ma.Value != 0 {
			rel = (mb.Value - ma.Value) / ma.Value
		}
		fmt.Fprintf(out, "  %-40s %14.4f -> %14.4f %-6s %+7.1f%%\n", name, ma.Value, mb.Value, ma.Unit, 100*rel)
	}
	return 0, nil
}

func readReport(path string) (report, error) {
	var r report
	b, err := os.ReadFile(path)
	if err != nil {
		return r, err
	}
	if err := json.Unmarshal(b, &r); err != nil {
		return r, fmt.Errorf("%s: %w", path, err)
	}
	return r, nil
}
