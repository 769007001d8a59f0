package main

import (
	"bufio"
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"time"

	"repro/internal/loadgen"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchreport", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		out       = fs.String("out", "BENCH_7.json", "report file to write (run mode)")
		benchRe   = fs.String("bench", "AcquireRelease|Renew|RenewBatch|JournaledChurn|Recovery", "benchmark regex passed to go test -bench")
		benchTime = fs.String("benchtime", "0.3s", "go test -benchtime per benchmark")
		skipRe    = fs.String("skip", ".*/fsync=always", "go test -skip regex; default excludes host-IO-bound benchmarks whose numbers gate flakily")
		count     = fs.Int("count", 1, "go test -count; runs are averaged in the report")
		pkgs      = fs.String("pkgs", "./lease,./lease/persist", "comma-separated packages to benchmark")
		target    = fs.String("target", "", "live renamed base URL for the loadgen pass (default: in-process engine)")
		targetBin = fs.String("target-bin", "", "live renamed bin://host:port target for the saturated per-wire passes; needs -target too for the HTTP side")
		spawn     = fs.Bool("spawn", false, "build and launch a renamed server (HTTP + binary listeners) for the per-wire passes, instead of -target/-target-bin")
		loadDur   = fs.Duration("loadgen", 2*time.Second, "loadgen pass duration (0 disables)")
		loadN     = fs.Int("loadgen-leases", 4096, "standing leases in the loadgen pass")
		loadBatch = fs.Int("loadgen-batch", 512, "renew batch size in the engine loadgen pass")
		liveBatch = fs.Int("loadgen-live-batch", 8, "renew batch size in the saturated per-wire passes (heartbeat-sized, so the wire dominates)")

		diff  = fs.Bool("diff", false, "diff mode: compare -old against -new instead of running")
		oldP  = fs.String("old", "", "baseline report (diff mode)")
		newP  = fs.String("new", "", "candidate report (diff mode)")
		noise = fs.Float64("noise", 0.25, "fractional noise band before a ns/op delta is a regression")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *diff {
		return runDiff(*oldP, *newP, *noise, stdout, stderr)
	}

	rep := &Report{Schema: 1, GoVersion: runtime.Version(),
		GeneratedAt: time.Now().UTC().Format(time.RFC3339)}
	for _, pkg := range strings.Split(*pkgs, ",") {
		pkg = strings.TrimSpace(pkg)
		if pkg == "" {
			continue
		}
		fmt.Fprintf(stderr, "benchreport: go test -bench %s %s\n", *benchRe, pkg)
		raw, err := goBench(pkg, *benchRe, *skipRe, *benchTime, *count)
		if err != nil {
			fmt.Fprintf(stderr, "benchreport: %s: %v\n", pkg, err)
			return 1
		}
		benches, err := parseBenchOutput(bytes.NewReader(raw))
		if err != nil {
			fmt.Fprintf(stderr, "benchreport: %v\n", err)
			return 1
		}
		rep.Benchmarks = append(rep.Benchmarks, benches...)
	}
	rep.Benchmarks = mergeBenchmarks(rep.Benchmarks)
	rep.Derived = derive(rep.Benchmarks)

	if *loadDur > 0 {
		var (
			rps float64
			err error
		)
		if *target != "" {
			fmt.Fprintf(stderr, "benchreport: live loadgen against %s for %v\n", *target, *loadDur)
			// One heartbeating session over the standing set: a
			// service-level figure, wire and heartbeat schedule included.
			var sr loadgen.SessionReport
			sr, err = loadgen.Sessions(*target, *loadN, 1, 0, time.Second, *loadDur)
			if err == nil && sr.TransportErrs > 0 {
				err = fmt.Errorf("%d transport errors against %s", sr.TransportErrs, *target)
			}
			rps = sr.RenewsPerS
		} else {
			fmt.Fprintf(stderr, "benchreport: engine loadgen, %d leases x batch %d for %v\n", *loadN, *loadBatch, *loadDur)
			rps, err = engineRenewsPerSec(*loadN, *loadBatch, *loadDur)
		}
		if err != nil {
			fmt.Fprintf(stderr, "benchreport: loadgen: %v\n", err)
			return 1
		}
		rep.Derived.RenewsPerSec = rps
	}

	// The per-wire passes compare the two transports against one live
	// server: saturated heartbeat-sized renew_batch calls over HTTP/JSON
	// round trips versus the pipelined binary protocol.
	httpTarget, binTarget := *target, *targetBin
	if *spawn && *loadDur > 0 {
		var stop func()
		var err error
		httpTarget, binTarget, stop, err = spawnServer(stderr)
		if err != nil {
			fmt.Fprintf(stderr, "benchreport: spawn: %v\n", err)
			return 1
		}
		defer stop()
	}
	if *loadDur > 0 && httpTarget != "" && binTarget != "" {
		fmt.Fprintf(stderr, "benchreport: saturated HTTP loadgen against %s for %v\n", httpTarget, *loadDur)
		rps, err := loadgen.Saturate(httpTarget, *loadN, *liveBatch, 4, *loadDur)
		if err != nil {
			fmt.Fprintf(stderr, "benchreport: http loadgen: %v\n", err)
			return 1
		}
		rep.Derived.RenewsPerSecHTTP = rps
		fmt.Fprintf(stderr, "benchreport: pipelined binary loadgen against %s for %v\n", binTarget, *loadDur)
		rps, err = loadgen.Pipelined(binTarget, *loadN, *liveBatch, 8, *loadDur)
		if err != nil {
			fmt.Fprintf(stderr, "benchreport: bin loadgen: %v\n", err)
			return 1
		}
		rep.Derived.RenewsPerSecBin = rps
	}

	if err := writeReport(*out, rep); err != nil {
		fmt.Fprintf(stderr, "benchreport: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "wrote %s: %d benchmarks", *out, len(rep.Benchmarks))
	if d := rep.Derived; d.RenewBatchNsPerRenewal > 0 {
		fmt.Fprintf(stdout, ", renew_batch %.1f ns/renewal", d.RenewBatchNsPerRenewal)
	}
	if d := rep.Derived; d.RecoveryMs > 0 {
		fmt.Fprintf(stdout, ", recovery %.1f ms", d.RecoveryMs)
	}
	if d := rep.Derived; d.RenewsPerSec > 0 {
		fmt.Fprintf(stdout, ", %.0f renews/s", d.RenewsPerSec)
	}
	if d := rep.Derived; d.RenewsPerSecHTTP > 0 && d.RenewsPerSecBin > 0 {
		fmt.Fprintf(stdout, ", live http %.0f vs bin %.0f renews/s (%.1fx)",
			d.RenewsPerSecHTTP, d.RenewsPerSecBin, d.RenewsPerSecBin/d.RenewsPerSecHTTP)
	}
	fmt.Fprintln(stdout)
	return 0
}

// spawnServer builds cmd/renamed into a temp dir and launches it with
// both listeners on ephemeral ports, parsing the startup banners for
// the actual addresses. stop tears the server down (SIGTERM, wait) and
// removes the binary.
func spawnServer(stderr io.Writer) (httpTarget, binTarget string, stop func(), err error) {
	dir, err := os.MkdirTemp("", "benchreport")
	if err != nil {
		return "", "", nil, err
	}
	bin := dir + "/renamed"
	build := exec.Command("go", "build", "-o", bin, "./cmd/renamed")
	if out, err := build.CombinedOutput(); err != nil {
		os.RemoveAll(dir)
		return "", "", nil, fmt.Errorf("go build ./cmd/renamed: %v\n%s", err, out)
	}
	cmd := exec.Command(bin,
		"-addr", "127.0.0.1:0", "-listen-bin", "127.0.0.1:0",
		"-capacity", "65536", "-ttl", "1h")
	cmd.Stderr = stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		os.RemoveAll(dir)
		return "", "", nil, err
	}
	if err := cmd.Start(); err != nil {
		os.RemoveAll(dir)
		return "", "", nil, err
	}
	stop = func() {
		cmd.Process.Signal(os.Interrupt)
		cmd.Wait()
		os.RemoveAll(dir)
	}
	// Both banners end in "on host:port"; the bin one names its protocol.
	addrs := make(chan [2]string, 1)
	go func() {
		var httpAddr, binAddr string
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			line := sc.Text()
			fields := strings.Fields(line)
			if len(fields) < 2 || fields[len(fields)-2] != "on" {
				continue
			}
			addr := fields[len(fields)-1]
			if strings.Contains(line, "binary protocol") {
				binAddr = addr
			} else if strings.Contains(line, "serving") {
				httpAddr = addr
			}
			if httpAddr != "" && binAddr != "" {
				addrs <- [2]string{httpAddr, binAddr}
				break
			}
		}
		// Keep draining so the server never blocks on a full stdout pipe.
		for sc.Scan() {
		}
	}()
	select {
	case a := <-addrs:
		return "http://" + a[0], "bin://" + a[1], stop, nil
	case <-time.After(30 * time.Second):
		stop()
		return "", "", nil, fmt.Errorf("renamed did not report its listen addresses within 30s")
	}
}

// goBench shells out to the go tool for one package's benchmarks. -run
// ^$ keeps unit tests out of the timing run.
func goBench(pkg, re, skip, benchtime string, count int) ([]byte, error) {
	args := []string{"test", "-run", "^$",
		"-bench", re, "-benchmem", "-benchtime", benchtime,
		"-count", fmt.Sprint(count)}
	if skip != "" {
		args = append(args, "-skip", skip)
	}
	cmd := exec.Command("go", append(args, pkg)...)
	var buf bytes.Buffer
	cmd.Stdout = &buf
	cmd.Stderr = &buf
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%v\n%s", err, buf.Bytes())
	}
	return buf.Bytes(), nil
}

func runDiff(oldPath, newPath string, noise float64, stdout, stderr io.Writer) int {
	if oldPath == "" || newPath == "" {
		fmt.Fprintln(stderr, "benchreport: -diff needs -old and -new")
		return 2
	}
	old, err := readReport(oldPath)
	if err != nil {
		fmt.Fprintf(stderr, "benchreport: %v\n", err)
		return 2
	}
	cur, err := readReport(newPath)
	if err != nil {
		fmt.Fprintf(stderr, "benchreport: %v\n", err)
		return 2
	}
	lines, regressions := diffReports(old, cur, noise)
	for _, l := range lines {
		fmt.Fprintln(stdout, l)
	}
	if len(regressions) > 0 {
		fmt.Fprintf(stderr, "benchreport: %d regression(s) beyond the %.0f%% noise band\n",
			len(regressions), noise*100)
		return 1
	}
	fmt.Fprintf(stdout, "no regressions (%d benchmarks, noise band %.0f%%)\n",
		len(cur.Benchmarks), noise*100)
	return 0
}
