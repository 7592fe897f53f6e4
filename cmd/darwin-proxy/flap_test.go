package main

import (
	"fmt"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"testing"

	"net/http"
)

// TestDrainHandoffProcess is the real-process drain-handoff chaos test: a
// 2-node peer cluster where node A is warmed, SIGTERM-drained, and must push
// its learned state (the DRWNCKPT checkpoint frame) to its ring successor B
// over POST /state before exiting. B then serves A's working set from its
// own DC instead of re-fetching it from the origin — the inheritor starts
// warm. Run via `make chaos-flap`; env-gated because it builds a binary and
// binds TCP ports.
func TestDrainHandoffProcess(t *testing.T) {
	if os.Getenv("DARWIN_FLAP_PROC") != "1" {
		t.Skip("set DARWIN_FLAP_PROC=1 (make chaos-flap) to run the subprocess handoff test")
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

	addrs := []string{freeAddr(t), freeAddr(t)}
	bases := []string{"http://" + addrs[0], "http://" + addrs[1]}
	peerList := strings.Join(bases, ",")
	mkArgs := func(i int) []string {
		// MaxSize 1 KiB with 4 KiB objects keeps residency in the DC — the
		// level the handoff merge fills on the inheritor.
		return []string{
			"-addr", addrs[i], "-origin", origin.URL,
			"-f", "1", "-s", "1024",
			"-hoc", "262144", "-dc", "33554432", "-shards", "2",
			"-dc-latency", "0s", "-drain", "2s", "-lame-duck", "50ms",
			"-peers", peerList, "-self", bases[i],
		}
	}
	procs := make([]*exec.Cmd, 2)
	for i := range procs {
		procs[i] = startProxy(t, bin, mkArgs(i))
		defer func(p *exec.Cmd) {
			_ = p.Process.Kill()
			_ = p.Wait()
		}(procs[i])
	}
	for _, b := range bases {
		waitReady(t, b)
	}

	// Warm node A: two passes register then admit each object to A's DC.
	const objects = 200
	for pass := 0; pass < 2; pass++ {
		for id := 1; id <= objects; id++ {
			mustGet(t, fmt.Sprintf("%s/obj/%d?size=4096", bases[0], id))
		}
	}

	// Node B has served nothing; it would start cold without the handoff.
	if hits := metric(t, bases[1], "dc_hits"); hits != 0 {
		t.Fatalf("B has %d dc_hits before the drain, want 0", hits)
	}
	originBefore := metric(t, bases[1], "origin_fetches")

	// SIGTERM A: drain, then push the checkpoint frame to the ring successor
	// (with 2 nodes, that is B by construction).
	if err := procs[0].Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := procs[0].Wait(); err != nil {
		t.Fatalf("drained node exited abnormally: %v", err)
	}

	if merges := metric(t, bases[1], "state_merges"); merges != 1 {
		t.Fatalf("B state_merges = %d after A's drain, want 1", merges)
	}
	if rejects := metric(t, bases[1], "state_rejects"); rejects != 0 {
		t.Fatalf("B state_rejects = %d, want 0", rejects)
	}

	// One pass over A's working set against B: the inheritor serves from the
	// merged DC instead of the origin.
	for id := 1; id <= objects; id++ {
		mustGet(t, fmt.Sprintf("%s/obj/%d?size=4096", bases[1], id))
	}
	hits := metric(t, bases[1], "dc_hits")
	if hits < objects*9/10 {
		t.Fatalf("inheritor served %d/%d from the DC, want >= %d (handoff lost)", hits, objects, objects*9/10)
	}
	if grew := metric(t, bases[1], "origin_fetches") - originBefore; grew > objects/10 {
		t.Fatalf("inheritor still fetched %d objects from the origin, want <= %d", grew, objects/10)
	}
	t.Logf("inheritor served %d/%d of the donor's working set from the merged DC", hits, objects)
}
