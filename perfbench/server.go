package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// server is one spawned renamed process.
type server struct {
	cmd       *exec.Cmd
	httpAddr  string
	binAddr   string
	namespace int
	stderr    bytes.Buffer
	stdoutEnd chan struct{} // closed once the stdout reader has drained the pipe
}

var (
	servingRe = regexp.MustCompile(`^renamed: serving .*\(max live (\d+), namespace (\d+),.* on (\S+)$`)
	binRe     = regexp.MustCompile(`^renamed: serving binary protocol \(bin://\) on (\S+)$`)
)

// startServer execs the server binary for workload w and returns once it
// has printed its listening addresses. dataDir is used when w is durable.
func startServer(bin string, w workload, dataDir string) (*server, error) {
	args := []string{
		"-addr", "127.0.0.1:0",
		"-capacity", strconv.Itoa(w.capacity),
		"-ttl", serverTTL.String(),
		"-slow-op", "0",
		"-drain", "1s",
	}
	if w.wire == "bin" {
		args = append(args, "-listen-bin", "127.0.0.1:0")
	}
	if w.durable {
		args = append(args, "-data-dir", dataDir, "-fsync", "interval")
	}
	s := &server{cmd: exec.Command(bin, args...), stdoutEnd: make(chan struct{})}
	s.cmd.Env = append(os.Environ(), fmt.Sprintf("GOMAXPROCS=%d", serverProcs()))
	// The server dies with the benchmark, however the benchmark ends.
	s.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	s.cmd.Stderr = &lockedWriter{w: &s.stderr}
	stdout, err := s.cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := startPinned(s.cmd.Start); err != nil {
		return nil, fmt.Errorf("start renamed: %w", err)
	}
	ready := make(chan error, 1)
	go s.readStdout(stdout, w.wire == "bin", ready)
	select {
	case err = <-ready:
	case <-time.After(30 * time.Second):
		err = fmt.Errorf("renamed did not report its addresses within 30s")
	}
	if err != nil {
		s.stop()
		return nil, fmt.Errorf("%w; stderr: %s", err, s.stderrText())
	}
	return s, nil
}

// readStdout parses the startup lines, signals ready once every expected
// address is known, and keeps draining until the process closes the pipe.
func (s *server) readStdout(r io.Reader, wantBin bool, ready chan<- error) {
	defer close(s.stdoutEnd)
	sc := bufio.NewScanner(r)
	signalled := false
	for sc.Scan() {
		line := sc.Text()
		if m := servingRe.FindStringSubmatch(line); m != nil {
			s.namespace, _ = strconv.Atoi(m[2])
			s.httpAddr = m[3]
		}
		if m := binRe.FindStringSubmatch(line); m != nil {
			s.binAddr = m[1]
		}
		if !signalled && s.httpAddr != "" && (!wantBin || s.binAddr != "") {
			signalled = true
			ready <- nil
		}
	}
	if !signalled {
		ready <- fmt.Errorf("renamed exited before serving")
	}
}

// target is the leaseclient target for the workload's wire.
func (s *server) target(wire string) string {
	if wire == "bin" {
		return "bin://" + s.binAddr
	}
	return "http://" + s.httpAddr
}

// stop kills the process and waits for it and for the stdout reader. The
// benchmark discards the server's state, so a graceful drain would only
// add time.
func (s *server) stop() {
	if s.cmd.Process != nil {
		s.cmd.Process.Kill()
	}
	s.cmd.Wait()
	<-s.stdoutEnd
}

func (s *server) stderrText() string {
	lw := s.cmd.Stderr.(*lockedWriter)
	lw.mu.Lock()
	defer lw.mu.Unlock()
	return strings.TrimSpace(s.stderr.String())
}

// cpuMicros is the server's user+system CPU time so far, from
// /proc/<pid>/stat (fields 14 and 15, in clock ticks of 1/100 s: the
// USER_HZ every Linux architecture exports to user space).
func (s *server) cpuMicros() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may hold spaces; fields restart after ')'.
	i := bytes.LastIndexByte(b, ')')
	f := strings.Fields(string(b[i+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat line")
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("parse /proc stat: %v %v", err1, err2)
	}
	return float64(utime+stime) * 1e4, nil
}

// peakRSSMB is the server's VmHWM from /proc/<pid>/status, in MiB.
func (s *server) peakRSSMB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc status")
}

// scrape fetches the server's /metrics exposition as series → value.
func (s *server) scrape() (series, error) {
	resp, err := http.Get("http://" + s.httpAddr + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: %s", resp.Status)
	}
	return parseExposition(resp.Body)
}

// series maps a Prometheus sample key ("name{labels}") to its value.
type series map[string]float64

func parseExposition(r io.Reader) (series, error) {
	out := series{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %q: %w", line, err)
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// delta is after − before for one sample key (absent keys read as 0).
func delta(before, after series, key string) float64 { return after[key] - before[key] }

// serverMeanUs is the service core's mean time per request for one
// transport and op between two scrapes, from the request-duration
// histogram's _sum and _count; 0 when no such request was served.
func serverMeanUs(before, after series, transport, op string) float64 {
	labels := fmt.Sprintf(`{transport=%q,op=%q}`, transport, op)
	n := delta(before, after, "renamed_request_duration_seconds_count"+labels)
	if n == 0 {
		return 0
	}
	return 1e6 * delta(before, after, "renamed_request_duration_seconds_sum"+labels) / n
}

// lockedWriter serializes writes from the exec copier with readers.
type lockedWriter struct {
	mu sync.Mutex
	w  io.Writer
}

func (l *lockedWriter) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.w.Write(p)
}
