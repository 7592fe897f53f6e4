// Command loadgen replays a CDN trace against a proxy with configurable
// concurrency, reporting first-byte latency percentiles and application
// throughput (§6.4's client).
//
// Usage:
//
//	loadgen -url http://127.0.0.1:8080 -mix 50 -n 100000 -concurrency 200
//	loadgen -url http://127.0.0.1:8080 -trace t.txt -concurrency 8
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"time"

	"darwin/internal/server"
	"darwin/internal/trace"
	"darwin/internal/tracegen"
)

func main() {
	var (
		url         = flag.String("url", "http://127.0.0.1:8080", "proxy base URL")
		tracePath   = flag.String("trace", "", "trace file; empty generates a synthetic mix")
		mix         = flag.Int("mix", 50, "Image percentage for the synthetic mix")
		n           = flag.Int("n", 50000, "synthetic trace length")
		seed        = flag.Int64("seed", 1, "synthetic trace seed")
		concurrency = flag.Int("concurrency", 8, "closed-loop client workers")
	)
	flag.Parse()

	var (
		tr  *trace.Trace
		err error
	)
	if *tracePath != "" {
		fd, err := os.Open(*tracePath)
		if err != nil {
			fatal(err)
		}
		tr, err = trace.Read(fd, *tracePath)
		fd.Close()
		if err != nil {
			fatal(err)
		}
	} else {
		tr, err = tracegen.ImageDownloadMix(*mix, *n, *seed)
		if err != nil {
			fatal(err)
		}
	}

	res, err := server.RunLoad(context.Background(), tr, server.LoadConfig{
		ProxyURL:    *url,
		Concurrency: *concurrency,
	})
	if err != nil {
		fatal(err)
	}

	fmt.Printf("requests:    %d ok, %d errors (%.2f%% error rate)\n", res.Requests, res.Errors, 100*res.ErrorRate())
	if res.Errors > 0 {
		fmt.Printf("error mix:   %d timeout / %d 5xx / %d truncated / %d other\n",
			res.Timeouts, res.Status5xx, res.Truncated, res.OtherErrors)
	}
	if res.StaleServes > 0 {
		fmt.Printf("degraded:    %d stale serves (X-Cache: stale: answered without a successful origin fetch)\n", res.StaleServes)
	}
	fmt.Printf("wall time:   %v\n", res.Wall.Round(time.Millisecond))
	fmt.Printf("throughput:  %.1f Mbps\n", res.ThroughputBps()/1e6)
	fmt.Printf("cache mix:   %d hoc / %d dc / %d miss\n", res.HOCHits, res.DCHits, res.Misses)
	for _, p := range []float64{10, 50, 90, 99} {
		fmt.Printf("p%-2.0f first-byte latency: %v\n", p, res.LatencyPercentile(p).Round(10*time.Microsecond))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "loadgen:", err)
	os.Exit(1)
}
