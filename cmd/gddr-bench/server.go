package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"gddr"
)

// buildDir is where the benchmark keeps what it builds and writes while it
// runs, relative to the repository root; .gitignore names it.
const buildDir = ".bench_build"

// findRoot walks up from the working directory to the repository root, the
// directory holding cmd/gddr-serve, so the benchmark runs from the root (as
// BENCHMARK.json's command does) and from its own directory (go run .).
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "cmd", "gddr-serve", "main.go")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("cannot find the repository root (no cmd/gddr-serve above the working directory)")
		}
		dir = parent
	}
}

// buildServer compiles the real gddr-serve from the checkout's source into
// the build directory and returns the binary's path and the build time. The
// Go build cache makes every build after the first a staleness check.
func buildServer(root string) (string, time.Duration, error) {
	bin := filepath.Join(root, buildDir, "gddr-serve")
	start := time.Now()
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/gddr-serve")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", 0, fmt.Errorf("building gddr-serve: %v\n%s", err, out)
	}
	return bin, time.Since(start), nil
}

// server is one running gddr-serve child process.
type server struct {
	cmd  *exec.Cmd
	base string // http://127.0.0.1:port
	boot time.Duration
}

// startServer spawns gddr-serve on a free loopback port with otherwise
// default flags and waits until /healthz answers.
func startServer(bin, topology, model string, traced bool) (*server, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := l.Addr().String()
	l.Close()
	args := []string{"-addr", addr, "-topology", topology, "-model", model}
	if traced {
		args = append(args, "-trace")
	}
	start := time.Now()
	cmd := exec.Command(bin, args...)
	// The server logs one line per request to stderr; leaving Stdout and
	// Stderr nil sends both to the null device.
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	s := &server{cmd: cmd, base: "http://" + addr}
	client := &http.Client{Timeout: time.Second}
	deadline := start.Add(20 * time.Second)
	for {
		resp, err := client.Get(s.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if time.Now().After(deadline) {
			s.stop()
			return nil, fmt.Errorf("gddr-serve on %s did not become healthy: %v", addr, err)
		}
		time.Sleep(2 * time.Millisecond)
	}
	s.boot = time.Since(start)
	client.CloseIdleConnections()
	return s, nil
}

// stop interrupts the server, waits for it to exit and kills it if it does
// not within five seconds. It returns only once the process has ended.
func (s *server) stop() {
	if s == nil || s.cmd.Process == nil {
		return
	}
	s.cmd.Process.Signal(os.Interrupt)
	done := make(chan struct{})
	go func() {
		s.cmd.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		s.cmd.Process.Kill()
		<-done
	}
}

// cpuSeconds reads the server's user+system CPU time from /proc/<pid>/stat.
func (s *server) cpuSeconds() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are the
	// 14th and 15th of the whole line.
	rest := string(data[bytes.LastIndexByte(data, ')')+1:])
	f := strings.Fields(rest)
	if len(f) < 13 {
		return 0, fmt.Errorf("unexpected /proc stat format")
	}
	utime, err1 := strconv.ParseFloat(f[11], 64)
	stime, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("unexpected /proc stat format")
	}
	const ticksPerSecond = 100 // USER_HZ on Linux
	return (utime + stime) / ticksPerSecond, nil
}

// peakRSSMB reads a process's peak resident set size (VmHWM) in MB.
func peakRSSMB(pid int) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) >= 1 {
				kb, err := strconv.ParseFloat(f[0], 64)
				if err != nil {
					return 0, err
				}
				return kb / 1024, nil
			}
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// reply is what a route request returned, as far as the caller asked for it.
type reply struct {
	d         *gddr.Decision
	elapsedUS int64 // server-reported tenant.Route time (HTTP only)
	reqBytes  int
	respBytes int
}

// errShed marks a request the admission gate refused (ErrOverloaded, 429).
var errShed = errors.New("request shed")

// target is one entry point into the serving stack. Latency is measured by
// the target around the one call (or round trip) that does the work.
type target interface {
	// route serves one demand matrix. With want false an HTTP target reads
	// the response but does not decode it.
	route(dm *gddr.DemandMatrix, body []byte, want bool) (time.Duration, reply, error)
	event(ev gddr.Event) (time.Duration, error)
	swap(model []byte) (time.Duration, error)
}

// libTarget calls the serving stack in-process at one of its layers:
// Tenant, Engine or bare Router. A bare Router has no control plane: its
// apply and swap are nil and its phases run with routesOnly.
type libTarget struct {
	routeFn func(context.Context, *gddr.DemandMatrix) (*gddr.Decision, error)
	applyFn func(context.Context, ...gddr.Event) error
	swapFn  func(context.Context, io.Reader) error
}

func tenantTarget(t *gddr.Tenant) *libTarget {
	return &libTarget{routeFn: t.Route, applyFn: t.Apply, swapFn: t.SwapCheckpoint}
}

func (t *libTarget) route(dm *gddr.DemandMatrix, _ []byte, _ bool) (time.Duration, reply, error) {
	start := time.Now()
	d, err := t.routeFn(context.Background(), dm)
	lat := time.Since(start)
	if errors.Is(err, gddr.ErrOverloaded) {
		err = errShed
	}
	return lat, reply{d: d}, err
}

func (t *libTarget) event(ev gddr.Event) (time.Duration, error) {
	start := time.Now()
	err := t.applyFn(context.Background(), ev)
	return time.Since(start), err
}

func (t *libTarget) swap(model []byte) (time.Duration, error) {
	start := time.Now()
	err := t.swapFn(context.Background(), bytes.NewReader(model))
	return time.Since(start), err
}

// httpTarget drives a gddr-serve over loopback. One target owns one client
// and so, in a closed loop, one keep-alive connection.
type httpTarget struct {
	client *http.Client
	base   string
	buf    bytes.Buffer
}

func newHTTPTarget(base string) *httpTarget {
	tr := &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &httpTarget{client: &http.Client{Transport: tr, Timeout: 30 * time.Second}, base: base}
}

func (t *httpTarget) close() { t.client.CloseIdleConnections() }

// post sends body to path and reads the whole response into t.buf. The
// returned latency is the client-side round trip: request written to
// response body fully read.
func (t *httpTarget) post(path string, body []byte) (time.Duration, error) {
	req, err := http.NewRequest(http.MethodPost, t.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	start := time.Now()
	resp, err := t.client.Do(req)
	if err != nil {
		return time.Since(start), err
	}
	t.buf.Reset()
	_, err = t.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	lat := time.Since(start)
	if err != nil {
		return lat, err
	}
	switch {
	case resp.StatusCode == http.StatusTooManyRequests:
		return lat, errShed
	case resp.StatusCode != http.StatusOK:
		return lat, fmt.Errorf("POST %s: status %d: %s", path, resp.StatusCode, bytes.TrimSpace(t.buf.Bytes()))
	}
	return lat, nil
}

// routeResponse is the part of gddr-serve's /route response the benchmark
// reads.
type routeResponse struct {
	Decision  *gddr.Decision `json:"decision"`
	ElapsedUS int64          `json:"elapsed_us"`
}

func (t *httpTarget) route(_ *gddr.DemandMatrix, body []byte, want bool) (time.Duration, reply, error) {
	lat, err := t.post("/route", body)
	rep := reply{reqBytes: len(body), respBytes: t.buf.Len()}
	if err != nil || !want {
		return lat, rep, err
	}
	var rr routeResponse
	if err := json.Unmarshal(t.buf.Bytes(), &rr); err != nil {
		return lat, rep, fmt.Errorf("decoding /route response: %w", err)
	}
	if rr.Decision == nil {
		return lat, rep, errors.New("/route response carries no decision")
	}
	rep.d, rep.elapsedUS = rr.Decision, rr.ElapsedUS
	return lat, rep, nil
}

func (t *httpTarget) event(ev gddr.Event) (time.Duration, error) {
	body, err := gddr.MarshalEvent(ev)
	if err != nil {
		return 0, err
	}
	return t.post("/topology/event", body)
}

func (t *httpTarget) swap(model []byte) (time.Duration, error) {
	return t.post("/model/swap", model)
}

// scrape fetches the server's /metrics exposition.
func (s *server) scrape() (string, error) {
	client := &http.Client{Timeout: 5 * time.Second}
	defer client.CloseIdleConnections()
	resp, err := client.Get(s.base + "/metrics")
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return string(data), err
}
