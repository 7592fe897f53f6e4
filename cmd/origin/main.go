// Command origin runs the prototype's origin server: it serves any object of
// any requested size at /obj/<id>?size=<bytes> after an injected WAN delay
// (§5, §6 "Testbed Setup").
//
// A deterministic fault injector (internal/faults) can wrap the handler to
// model an unhealthy origin for chaos runs: hard 5xx errors, latency spikes,
// first-byte stalls, mid-stream body truncation, and wall-clock outage
// windows, all drawn from a seeded RNG.
//
// Usage:
//
//	origin -addr :9000 -latency 100ms
//	origin -addr :9000 -fault-error-rate 0.1 -fault-outages 30s+10s -fault-seed 42
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	"os"
	"time"

	"darwin/internal/faults"
	"darwin/internal/server"
)

func main() {
	var (
		addr    = flag.String("addr", ":9000", "listen address")
		latency = flag.Duration("latency", 100*time.Millisecond, "injected per-request delay")

		faultErrRate   = flag.Float64("fault-error-rate", 0, "probability of an injected hard 5xx per request")
		faultSpikeRate = flag.Float64("fault-spike-rate", 0, "probability of an injected latency spike per request")
		faultSpike     = flag.Duration("fault-spike", 50*time.Millisecond, "injected latency spike duration")
		faultStallRate = flag.Float64("fault-stall-rate", 0, "probability the response stalls before its first byte")
		faultStall     = flag.Duration("fault-stall", 5*time.Second, "injected first-byte stall duration")
		faultTruncRate = flag.Float64("fault-truncate-rate", 0, "probability the body is cut short mid-stream")
		faultOutages   = flag.String("fault-outages", "", "outage windows since startup, e.g. \"30s+10s,2m+30s\"")
		faultSeed      = flag.Int64("fault-seed", 1, "fault injector RNG seed")

		drain = flag.Duration("drain", 10*time.Second, "graceful shutdown drain deadline")
	)
	flag.Parse()

	origin := &server.Origin{Latency: *latency}
	var handler http.Handler = origin

	outages, err := faults.ParseOutages(*faultOutages)
	if err != nil {
		fatal(err)
	}
	var injector *faults.Injector
	if *faultErrRate > 0 || *faultSpikeRate > 0 || *faultStallRate > 0 || *faultTruncRate > 0 || len(outages) > 0 {
		injector = faults.New(faults.Config{
			Seed:         *faultSeed,
			ErrorRate:    *faultErrRate,
			SpikeRate:    *faultSpikeRate,
			Spike:        *faultSpike,
			StallRate:    *faultStallRate,
			Stall:        *faultStall,
			TruncateRate: *faultTruncRate,
			Outages:      outages,
		})
		handler = injector.Wrap(origin)
		fmt.Fprintf(os.Stderr, "origin: fault injection on (err=%.2f spike=%.2f stall=%.2f trunc=%.2f outages=%q seed=%d)\n",
			*faultErrRate, *faultSpikeRate, *faultStallRate, *faultTruncRate, *faultOutages, *faultSeed)
	}

	// Health surface: /healthz answers while the process lives; /readyz flips
	// to 503 the moment the drain starts. The injector deliberately does NOT
	// wrap these endpoints — a chaos outage makes the origin fail requests,
	// not lie to its orchestrator.
	health := server.NewHealth()
	mux := http.NewServeMux()
	mux.Handle("/", handler)
	mux.HandleFunc("/healthz", health.Healthz)
	mux.HandleFunc("/readyz", health.Readyz)

	fmt.Fprintf(os.Stderr, "origin: listening on %s with %v injected latency\n", *addr, *latency)
	if err := server.Run(context.Background(), &http.Server{Addr: *addr, Handler: mux}, health, 0, *drain); err != nil {
		fatal(err)
	}
	if injector != nil {
		st := injector.Stats()
		fmt.Fprintf(os.Stderr, "origin: faults injected: %d errors, %d outage drops, %d spikes, %d stalls, %d truncations over %d requests\n",
			st.Errors, st.OutageDrops, st.Spikes, st.Stalls, st.Truncations, st.Requests)
	}
	reqs, bytes := origin.Stats()
	fmt.Fprintf(os.Stderr, "origin: served %d requests, %d bytes\n", reqs, bytes)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "origin:", err)
	os.Exit(1)
}
