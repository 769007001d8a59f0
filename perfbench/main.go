// Command perfbench is the repository's end-to-end benchmark. It builds
// cmd/renamed from the working tree, spawns it as the system under test,
// drives it from this one generator process over leaseclient transports,
// checks every response, and prints each metric by name with its unit.
//
// One invocation runs one workload:
//
//	bash perfbench/run.sh --workload heartbeat-bin --seed 1 --seconds 30 --trace 0
//
// With --trace 0 it reports the end-to-end metrics of BENCHMARK.json; with
// --trace 1 it reports the per-layer metrics, measured by an in-process
// copy of the stack with tracing decorators and by a layer ladder (see
// README.md). The last line of standard output is one JSON object; a
// fuller report, with the host block, sample counts and validity, is
// written under .bench_build/results/.
//
//	bash perfbench/run.sh --compare a.json b.json
//
// compares two such reports, or calls them incomparable when they ran on
// different machines or toolchains.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"
)

func main() {
	pinSelf()
	code, err := run(os.Args[1:], os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		if code == 0 {
			code = 1
		}
	}
	os.Exit(code)
}

// metric is one reported value with its unit, the shape of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line of standard output.
type resultLine struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report is the fuller record written beside the result line.
type report struct {
	Workload   string               `json:"workload"`
	Seed       uint64               `json:"seed"`
	Seconds    int                  `json:"seconds"`
	Trace      bool                 `json:"trace"`
	Host       host                 `json:"host"`
	Result     resultLine           `json:"result"`
	Latency    map[string]pctl      `json:"latency,omitempty"`
	Windows    map[string][]float64 `json:"windows,omitempty"`
	Valid      bool                 `json:"valid"`
	Invalid    []string             `json:"invalid,omitempty"`
	Violations []string             `json:"violations,omitempty"`
	Extra      map[string]metric    `json:"extra,omitempty"`
	SpansFile  string               `json:"spans_file,omitempty"`

	// checkers are every checker the run created, read by verdict once
	// the run is over.
	checkers []*checker
}

func run(args []string, out io.Writer) (int, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var (
		wname   = fs.String("workload", "", "workload to run: heartbeat-bin, churn-bin or durable-http")
		seed    = fs.Uint64("seed", 1, "workload seed: drives renew order, churn interleaving and owners")
		seconds = fs.Int("seconds", 30, "measured seconds in the run (set-up excluded)")
		trace   = fs.Int("trace", 0, "1 reports per-layer metrics from a traced run; 0 reports end-to-end metrics")
		root    = fs.String("root", ".", "repository root holding cmd/renamed")
		compare = fs.Bool("compare", false, "compare the two report files given as arguments")
	)
	if err := fs.Parse(args); err != nil {
		return 2, err
	}
	if *compare {
		if fs.NArg() != 2 {
			return 2, fmt.Errorf("--compare takes two report files")
		}
		return compareReports(fs.Arg(0), fs.Arg(1), out)
	}
	w, ok := workloadByName(*wname)
	if !ok {
		return 2, fmt.Errorf("unknown --workload %q", *wname)
	}
	if *seconds < 1 {
		return 2, fmt.Errorf("--seconds must be at least 1")
	}
	absRoot, err := filepath.Abs(*root)
	if err != nil {
		return 1, err
	}
	env, err := newBenchEnv(absRoot, *seed)
	if err != nil {
		return 1, err
	}
	defer env.close()

	rep := report{Workload: w.name, Seed: *seed, Seconds: *seconds, Trace: *trace == 1, Host: env.host}
	dur := time.Duration(*seconds) * time.Second
	if *trace == 1 {
		err = runTraced(env, w, dur, &rep)
	} else {
		err = runEndToEnd(env, w, dur, &rep)
	}
	if err != nil {
		return 1, err
	}
	rep.verdict()
	rep.Valid = len(rep.Invalid) == 0

	name := fmt.Sprintf("%s-seed%d-trace%d.json", w.name, *seed, *trace)
	if err := writeJSON(filepath.Join(env.resultsDir, name), rep); err != nil {
		return 1, err
	}
	printHuman(out, &rep)
	line, err := json.Marshal(rep.Result)
	if err != nil {
		return 1, err
	}
	fmt.Fprintln(out, string(line))
	if !rep.Result.Correct {
		return 3, fmt.Errorf("%d correctness violations; first: %s", len(rep.Violations), rep.Violations[0])
	}
	return 0, nil
}

// printHuman writes the readable part of the report: every metric by name
// with its unit, the latency sample counts, and the validity verdict.
func printHuman(out io.Writer, rep *report) {
	fmt.Fprintf(out, "perfbench %s seed=%d seconds=%d trace=%v host: nproc=%d gomaxprocs=%d/%d cpu=%q go=%s commit=%s\n",
		rep.Workload, rep.Seed, rep.Seconds, rep.Trace, rep.Host.NProc, rep.Host.GoMaxProcsGen,
		rep.Host.GoMaxProcsServer, rep.Host.CPUModel, rep.Host.GoVersion, rep.Host.Commit)
	for _, name := range sortedKeys(rep.Result.Metrics) {
		m := rep.Result.Metrics[name]
		fmt.Fprintf(out, "  %-40s %14.4f %s\n", name, m.Value, m.Unit)
	}
	for _, name := range sortedKeys(rep.Extra) {
		m := rep.Extra[name]
		fmt.Fprintf(out, "  %-40s %14.4f %s\n", name, m.Value, m.Unit)
	}
	for _, name := range sortedKeys(rep.Latency) {
		p := rep.Latency[name]
		fmt.Fprintf(out, "  latency %-18s n=%d p50=%.1fus p99=%.1fus p%s=%.1fus (highest with >=10 samples beyond)\n",
			name, p.N, p.P50us, p.P99us, p.TopLabel, p.TopUs)
	}
	fmt.Fprintf(out, "  attempted=%d failed=%d failed_frac=%.6f\n", rep.Result.Attempted, rep.Result.Failed,
		float64(rep.Result.Failed)/float64(max(rep.Result.Attempted, 1)))
	if len(rep.Invalid) > 0 {
		fmt.Fprintf(out, "  INVALID RUN: %v\n", rep.Invalid)
	}
	for i, v := range rep.Violations {
		if i == 10 {
			fmt.Fprintf(out, "  ... %d more violations\n", len(rep.Violations)-i)
			break
		}
		fmt.Fprintf(out, "  VIOLATION: %s\n", v)
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
