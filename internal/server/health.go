package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"sync/atomic"
	"syscall"
	"time"
)

// Gate is one readiness condition: a named predicate behind the node's
// health verdict. The proxy registers its circuit breaker here ("breaker" is
// ready while the breaker is not open), so an edge whose origin path is
// tripped advertises itself unready and the load-balancing layer sheds its
// ring weight.
type Gate struct {
	// Name labels the gate in the 503 body.
	Name string
	// Ready reports whether this condition currently passes.
	Ready func() bool
}

// Health owns a node's one health verdict, shared by cmd/darwin-proxy,
// cmd/darwin-front and cmd/origin:
//
//   - /healthz (Healthz) answers 200 while the process is alive — it only
//     says "don't restart me", never "send me traffic";
//   - /readyz, the one endpoint a balancer reads, answers 200 only while the
//     server is not draining and every gate passes; otherwise 503 with the
//     failing reason in the body. Readyz is that endpoint; an edge node
//     mounts Gated(Proxy.ServeReadyz) instead, the same verdict in front of
//     the gossip exchange the front tier's poll carries.
//
// On SIGTERM Run calls StartDrain before http.Server.Shutdown: the verdict
// flips to 503 first, the balancer stops routing new work here, and only
// then are in-flight connections drained — the health-gated drain sequence
// that makes restarts invisible to clients.
type Health struct {
	draining atomic.Bool
	gates    []Gate
}

// NewHealth builds a Health with the given readiness gates.
func NewHealth(gates ...Gate) *Health {
	return &Health{gates: gates}
}

// StartDrain marks the server draining: the verdict fails from now on while
// /healthz keeps passing, so orchestrators stop new traffic without killing
// in-flight work.
func (h *Health) StartDrain() {
	h.draining.Store(true)
}

// verdict names why this server must get no new traffic ("" = ready).
func (h *Health) verdict() string {
	if h.draining.Load() {
		return "draining"
	}
	for _, g := range h.gates {
		if !g.Ready() {
			return "not ready: " + g.Name
		}
	}
	return ""
}

// Healthz implements the liveness endpoint: 200 while the process runs.
func (h *Health) Healthz(w http.ResponseWriter, r *http.Request) {
	w.WriteHeader(http.StatusOK)
	_, _ = fmt.Fprintln(w, "ok") // client went away; nothing useful to do with the error
}

// Gated puts next behind the verdict: 503 naming the reason while draining
// or while any gate fails, next otherwise.
func (h *Health) Gated(next http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if reason := h.verdict(); reason != "" {
			http.Error(w, reason, http.StatusServiceUnavailable)
			return
		}
		next(w, r)
	}
}

// Readyz implements the readiness endpoint: the verdict and nothing else.
func (h *Health) Readyz(w http.ResponseWriter, r *http.Request) {
	h.Gated(ready)(w, r)
}

// ready is a readiness endpoint's answer once the verdict passed.
func ready(w http.ResponseWriter, _ *http.Request) {
	w.WriteHeader(http.StatusOK)
	_, _ = fmt.Fprintln(w, "ready") // client went away; nothing useful to do with the error
}

// Run serves srv until SIGINT/SIGTERM (or ctx ends), then runs the
// health-gated drain: the verdict flips to 503 first, the lame-duck window
// keeps the listener open so probers actually observe that explicit answer
// (an immediate Shutdown would close the listener and make a graceful drain
// look like a crash — refused probes — which the graded membership layer
// deliberately sheds slowly), and only then are in-flight connections
// drained for up to drain. Run sets srv's read and idle timeouts: they close
// slowloris-style connections that trickle headers or hold sockets idle,
// which a zero-value http.Server never would.
func Run(ctx context.Context, srv *http.Server, health *Health, lameDuck, drain time.Duration) error {
	srv.ReadHeaderTimeout = 5 * time.Second
	srv.ReadTimeout = 30 * time.Second
	srv.IdleTimeout = 60 * time.Second
	ctx, stop := signal.NotifyContext(ctx, os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	health.StartDrain()
	_, _ = fmt.Fprintf(os.Stderr, "%s: draining (readyz now 503), shutting down...\n", filepath.Base(os.Args[0])) // a diagnostic; nowhere to report its failure
	if lameDuck > 0 {
		time.Sleep(lameDuck)
	}
	sctx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	if err := srv.Shutdown(sctx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}
