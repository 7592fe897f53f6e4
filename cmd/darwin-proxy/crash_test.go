package main

import (
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"testing"
	"time"

	"darwin/internal/server"
)

// TestCrashRecoveryProcess is the real-process chaos test: it SIGKILLs a
// durable proxy mid-traffic and asserts that a restart over the same data
// directory recovers the DC from the journal. Run via `make chaos-crash`; it
// is env-gated because it builds a binary and binds TCP ports.
func TestCrashRecoveryProcess(t *testing.T) {
	if os.Getenv("DARWIN_CRASH_PROC") != "1" {
		t.Skip("set DARWIN_CRASH_PROC=1 (make chaos-crash) to run the subprocess crash test")
	}

	bin := filepath.Join(t.TempDir(), "darwin-proxy")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("building proxy: %v\n%s", err, out)
	}

	origin := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		size, _ := strconv.Atoi(r.URL.Query().Get("size"))
		if size <= 0 {
			size = 1
		}
		w.Header().Set("Content-Length", strconv.Itoa(size))
		if _, err := w.Write(make([]byte, size)); err != nil {
			return
		}
	}))
	defer origin.Close()

	dataDir := t.TempDir()
	addr := freeAddr(t)
	base := "http://" + addr

	// Static mode: MaxSize 1 KiB with 4 KiB objects keeps everything out of
	// the HOC, so all residency is DC — exactly what the journal persists.
	args := []string{
		"-addr", addr, "-origin", origin.URL,
		"-mode", "static", "-f", "1", "-s", "1024",
		"-hoc", "262144", "-dc", "8388608", "-shards", "2",
		"-dc-latency", "0s",
		"-data-dir", dataDir, "-fsync", "always", "-checkpoint-interval", "0",
	}
	proc := startProxy(t, bin, args)
	waitReady(t, base)

	// Populate: two requests per id — the first registers the object in the
	// bloom filter, the second admits it to the DC.
	const objects = 200
	for pass := 0; pass < 2; pass++ {
		for id := 1; id <= objects; id++ {
			mustGet(t, fmt.Sprintf("%s/obj/%d?size=4096", base, id))
		}
	}
	if hits := metric(t, base, "dc_hits"); hits != 0 {
		t.Fatalf("dc_hits = %d during populate, want 0 (two passes only)", hits)
	}

	// SIGKILL: no drain, no final checkpoint, no journal close.
	if err := proc.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	_ = proc.Wait()

	// Restart over the same data directory and wait for the recovery gate.
	restarted := startProxy(t, bin, args)
	defer func() {
		_ = restarted.Process.Kill()
		_ = restarted.Wait()
	}()
	waitReady(t, base)

	if rec := metric(t, base, "recovered"); rec != 1 {
		t.Fatalf("recovered = %d after restart, want 1", rec)
	}
	if rp := metric(t, base, "recovered_puts"); rp < objects {
		t.Fatalf("recovered_puts = %d, want >= %d", rp, objects)
	}

	// One request per object: a recovered DC serves them as hits; a cold
	// cache would fetch every one from the origin.
	for id := 1; id <= objects; id++ {
		mustGet(t, fmt.Sprintf("%s/obj/%d?size=4096", base, id))
	}
	hits := metric(t, base, "dc_hits")
	if hits < objects*9/10 {
		t.Fatalf("dc_hits = %d after recovery, want >= %d (DC residency lost in crash)", hits, objects*9/10)
	}
	t.Logf("recovered proxy served %d/%d post-crash requests from the DC", hits, objects)
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

func startProxy(t *testing.T, bin string, args []string) *exec.Cmd {
	t.Helper()
	cmd := exec.Command(bin, args...)
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	return cmd
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
	t.Fatal("proxy never became ready")
}

func mustGet(t *testing.T, url string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %d", url, resp.StatusCode)
	}
}

// metric fetches /metrics and returns the named counter.
func metric(t *testing.T, base, name string) int {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	m, err := server.ReadMetrics(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	v, err := m.Int(name)
	if err != nil {
		t.Fatalf("%s/metrics: %v", base, err)
	}
	return int(v)
}
