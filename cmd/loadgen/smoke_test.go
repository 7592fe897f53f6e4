package main

import (
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"syscall"
	"testing"
	"time"
)

// TestSmokeProcess is the real-process smoke test of the HTTP prototype: it
// builds origin, darwin-proxy and loadgen, puts a static-mode proxy in front
// of an origin that fails 10% of requests with a 5xx and truncates 5% of
// bodies, and replays 4000 synthetic requests from 16 client workers — once
// with the proxy's default resilience and overload stages, once with both
// switched off. Run via `make smoke`; env-gated because it builds binaries
// and binds TCP ports.
func TestSmokeProcess(t *testing.T) {
	if os.Getenv("DARWIN_SMOKE_PROC") != "1" {
		t.Skip("set DARWIN_SMOKE_PROC=1 (make smoke) to run the subprocess smoke test")
	}

	dir := t.TempDir()
	bins := map[string]string{}
	for name, pkg := range map[string]string{"origin": "../origin", "darwin-proxy": "../darwin-proxy", "loadgen": "."} {
		bins[name] = filepath.Join(dir, name)
		if out, err := exec.Command("go", "build", "-o", bins[name], pkg).CombinedOutput(); err != nil {
			t.Fatalf("building %s: %v\n%s", name, err, out)
		}
	}

	run := func(proxyArgs ...string) loadReport {
		originAddr, proxyAddr := freeAddr(t), freeAddr(t)
		origin := start(t, bins["origin"], "-addr", originAddr, "-latency", "2ms",
			"-fault-error-rate", "0.1", "-fault-truncate-rate", "0.05", "-fault-seed", "42")
		defer stop(t, origin)
		waitReady(t, "http://"+originAddr)
		proxy := start(t, bins["darwin-proxy"], append([]string{"-addr", proxyAddr,
			"-origin", "http://" + originAddr, "-f", "1", "-s", "1048576"}, proxyArgs...)...)
		defer stop(t, proxy)
		waitReady(t, "http://"+proxyAddr)

		out, err := exec.Command(bins["loadgen"], "-url", "http://"+proxyAddr,
			"-n", "4000", "-concurrency", "16", "-mix", "50").Output()
		if err != nil {
			t.Fatalf("loadgen: %v\n%s", err, out)
		}
		t.Logf("loadgen %v:\n%s", proxyArgs, out)
		return parseReport(t, string(out))
	}

	// Resilient defaults: retries, coalescing and serve-stale hide almost
	// every injected fault from the client (0.4-0.6% of requests still fail
	// on a 2-CPU host; the bound is 10x under the injected rate).
	res := run()
	if rate := res.errorRate(); rate > 0.015 {
		t.Errorf("resilient arm: client error rate %.4f, want <= 0.015 against 15%% injected faults", rate)
	}

	// Control arm: one unretried fetch per miss, so the faults reach the
	// client (about 5.7% of requests: the faulted share of the misses) — and
	// every one of them as a clean 5xx: the proxy validates a body before
	// committing it, so a truncating origin is a 502, never a short read.
	ctl := run("-resilient=false", "-overload=false")
	if rate := ctl.errorRate(); rate < 0.03 {
		t.Errorf("control arm: client error rate %.4f, want >= 0.03 (do the injected faults reach the proxy?)", rate)
	}
	if ctl.status5xx != ctl.errors || ctl.truncated != 0 {
		t.Errorf("control arm: %d errors, of which %d 5xx and %d truncated; want all 5xx, none truncated",
			ctl.errors, ctl.status5xx, ctl.truncated)
	}
}

// loadReport is what the smoke test reads back from loadgen's summary.
type loadReport struct {
	ok, errors, status5xx, truncated int
}

func (r loadReport) errorRate() float64 { return float64(r.errors) / float64(r.ok+r.errors) }

var (
	requestsLine = regexp.MustCompile(`requests:\s+(\d+) ok, (\d+) errors`)
	errorMixLine = regexp.MustCompile(`error mix:\s+\d+ timeout / (\d+) 5xx / (\d+) truncated`)
)

func parseReport(t *testing.T, out string) loadReport {
	t.Helper()
	var r loadReport
	m := requestsLine.FindStringSubmatch(out)
	if m == nil {
		t.Fatalf("no requests line in loadgen output:\n%s", out)
	}
	r.ok, _ = strconv.Atoi(m[1]) // the pattern admits only digits
	r.errors, _ = strconv.Atoi(m[2])
	if m := errorMixLine.FindStringSubmatch(out); m != nil {
		r.status5xx, _ = strconv.Atoi(m[1])
		r.truncated, _ = strconv.Atoi(m[2])
	}
	return r
}

func freeAddr(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()
	return addr
}

func start(t *testing.T, bin string, args ...string) *exec.Cmd {
	t.Helper()
	cmd := exec.Command(bin, args...)
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	return cmd
}

// stop SIGTERMs a server and waits for its graceful drain, killing it if the
// drain does not finish in time.
func stop(t *testing.T, cmd *exec.Cmd) {
	t.Helper()
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Errorf("SIGTERM %s: %v", cmd.Path, err)
	}
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			t.Errorf("%s exited with %v after SIGTERM", filepath.Base(cmd.Path), err)
		}
	case <-time.After(15 * time.Second):
		_ = cmd.Process.Kill()
		<-done
		t.Errorf("%s did not drain within 15s of SIGTERM", filepath.Base(cmd.Path))
	}
}

func waitReady(t *testing.T, base string) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(base + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return
			}
		}
		time.Sleep(50 * time.Millisecond)
	}
	t.Fatalf("%s never became ready", base)
}
