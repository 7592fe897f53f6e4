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
	"strings"
	"syscall"
	"testing"
	"time"

	"darwin/internal/server"
)

// TestClusterDrainProcess is the real-process cluster chaos test: it builds
// darwin-proxy and darwin-front, runs a 3-node peer-filled cluster behind the
// front tier, SIGTERM-drains one node mid-flood, and asserts that the client
// never sees a failure — the drained node's weight drops to zero at a window
// boundary and the survivors absorb its share. Run via `make chaos-cluster`;
// env-gated because it builds binaries and binds TCP ports.
func TestClusterDrainProcess(t *testing.T) {
	if os.Getenv("DARWIN_CLUSTER_PROC") != "1" {
		t.Skip("set DARWIN_CLUSTER_PROC=1 (make chaos-cluster) to run the subprocess cluster test")
	}

	dir := t.TempDir()
	proxyBin := filepath.Join(dir, "darwin-proxy")
	frontBin := filepath.Join(dir, "darwin-front")
	if out, err := exec.Command("go", "build", "-o", proxyBin, "../darwin-proxy").CombinedOutput(); err != nil {
		t.Fatalf("building darwin-proxy: %v\n%s", err, out)
	}
	if out, err := exec.Command("go", "build", "-o", frontBin, ".").CombinedOutput(); err != nil {
		t.Fatalf("building darwin-front: %v\n%s", err, out)
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

	// Three cluster nodes, each peer-filling over the shared node list.
	const nodes = 3
	addrs := make([]string, nodes)
	bases := make([]string, nodes)
	for i := range addrs {
		addrs[i] = freeAddr(t)
		bases[i] = "http://" + addrs[i]
	}
	peerList := strings.Join(bases, ",")
	procs := make([]*exec.Cmd, nodes)
	for i := range procs {
		procs[i] = start(t, proxyBin,
			"-addr", addrs[i], "-origin", origin.URL,
			"-mode", "static", "-f", "1", "-s", "1048576",
			"-hoc", "262144", "-dc", "33554432", "-shards", "2",
			"-dc-latency", "0s", "-drain", "2s",
			"-peers", peerList, "-self", bases[i],
		)
		defer func(p *exec.Cmd) {
			_ = p.Process.Kill()
			_ = p.Wait()
		}(procs[i])
	}
	for _, b := range bases {
		waitReady(t, b)
	}

	frontAddr := freeAddr(t)
	frontBase := "http://" + frontAddr
	front := start(t, frontBin,
		"-addr", frontAddr, "-backends", peerList,
		"-rebalance-every", "200", "-probe-every", "50ms",
	)
	defer func() {
		_ = front.Process.Kill()
		_ = front.Wait()
	}()
	waitReady(t, frontBase)

	// Phase 1: flood the healthy cluster (3 passes over 200 objects: register,
	// admit, hit).
	const objects = 200
	for pass := 0; pass < 3; pass++ {
		for id := 1; id <= objects; id++ {
			mustGet(t, fmt.Sprintf("%s/obj/%d?size=4096", frontBase, id))
		}
	}

	// SIGTERM node 0 mid-flood: readyz flips to 503, in-flights drain, the
	// process exits. The front's prober and the next window boundary do the
	// rest.
	if err := procs[0].Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}

	// Phase 2: keep flooding through the drain and death. Every request must
	// still succeed — relayed to a live node or failed over in-request.
	for pass := 0; pass < 3; pass++ {
		for id := 1; id <= objects; id++ {
			mustGet(t, fmt.Sprintf("%s/obj/%d?size=4096", frontBase, id))
		}
	}
	_ = procs[0].Wait() // fully dead before the final checks

	// Give the prober one more cycle, then force a window boundary with a
	// last burst.
	time.Sleep(200 * time.Millisecond)
	for id := 1; id <= objects; id++ {
		mustGet(t, fmt.Sprintf("%s/obj/%d?size=4096", frontBase, id))
	}

	if w0 := metric(t, frontBase, "backend_weight{node=0}"); w0 != 0 {
		t.Fatalf("drained node still holds ring weight %d", w0)
	}
	if nb := metric(t, frontBase, "no_backend"); nb != 0 {
		t.Fatalf("%d requests found no backend despite two live survivors", nb)
	}
	reqs := metric(t, frontBase, "requests")
	relayed := metric(t, frontBase, "relayed")
	if reqs != relayed {
		t.Fatalf("requests=%d relayed=%d: some requests were dropped", reqs, relayed)
	}
	fills := 0
	for _, b := range bases[1:] {
		fills += metric(t, b, "peer_fills")
	}
	t.Logf("cluster drained node 0 cleanly: %d requests all relayed, %d survivor peer fills, failovers=%d",
		reqs, fills, metric(t, frontBase, "failovers"))
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
