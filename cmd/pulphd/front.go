package main

import (
	"context"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"pulphd/internal/obs"
	"pulphd/internal/replica"
)

// splitPeers parses a -peers value: comma-separated base URLs,
// whitespace-tolerant, trailing slashes trimmed so path joining is
// uniform.
func splitPeers(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimRight(strings.TrimSpace(p), "/"); p != "" {
			out = append(out, p)
		}
	}
	return out
}

// runFront implements `serve -role=front`: a stateless routing tier
// that consistent-hashes predicts across the healthy -peers replicas
// (session affinity via X-PULPHD-Session), forwards learns and admin
// requests to -primary, and enforces read-your-writes per session.
// It carries the standard observability surface (/metrics,
// /debug/vars, /debug/pprof) but no model, queue or registry — a
// front can die and be replaced with nothing lost but warm affinity.
func runFront(sf *serveFlags, logger *slog.Logger, h *obs.HostMetrics, mux *http.ServeMux) int {
	peers := splitPeers(*sf.peers)
	if len(peers) == 0 {
		fmt.Fprintf(os.Stderr, "pulphd serve: -role=front needs -peers with at least one replica URL\n")
		return 2
	}
	primaries := splitPeers(*sf.primary)
	if len(primaries) != 1 {
		fmt.Fprintf(os.Stderr, "pulphd serve: -role=front needs -primary with the primary's URL\n")
		return 2
	}
	fr, err := replica.NewFront(replica.FrontConfig{
		Primary:       primaries[0],
		Replicas:      peers,
		ProbeInterval: *sf.syncInterval,
		Log:           logger,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "pulphd serve: %v\n", err)
		return 2
	}
	fr.RegisterMetrics(h.Registry)
	fr.Register(mux)

	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()
	go fr.Run(ctx)
	srv := newConnLoop(mux, logger)
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe(*sf.addr) }()
	logger.Info("serving front",
		"addr", *sf.addr, "primary", primaries[0], "replicas", len(peers),
		"probe_interval", *sf.syncInterval)
	select {
	case err := <-errc:
		logger.Error("serve", "error", err)
		return 1
	case <-ctx.Done():
	}
	stopSignals()
	logger.Info("shutting down", "grace", *sf.grace)
	sctx, cancel := context.WithTimeout(context.Background(), *sf.grace)
	defer cancel()
	if err := srv.Shutdown(sctx); err != nil {
		logger.Warn("shutdown incomplete", "error", err)
	}
	logger.Info("shutdown complete")
	return 0
}
