// Command scored runs the resident S-CORE placement service: a daemon
// owning a live cluster and traffic matrix, continuously re-optimizing
// placement with auto-tuned scheduling rounds while VMs and traffic
// observations stream in over an HTTP/JSON API.
//
// Usage:
//
//	scored [-addr HOST:PORT] [-topo fattree|canonical] [-k N]
//	       [-racks N] [-hosts-per-rack N] [-slots N] [-ram-mb N]
//	       [-cpu-milli N] [-nic-mbps RATE] [-cm COST]
//	       [-round-interval DUR] [-ingest-queue N] [-enqueue-timeout DUR]
//	       [-snapshot PATH] [-snapshot-on-exit] [-restore PATH]
//	       [-trace-events N] [-audit-events N] [-flight-dir DIR]
//	       [-log-level LEVEL]
//
// The listener carries the placement API under /v1/ and the
// observability plane (/metrics, /trace, /audit, /debug/pprof/) side by
// side. With -round-interval 0 the daemon never schedules on its own;
// rounds run only on POST /v1/rounds. -restore boots from a snapshot
// written by POST /v1/snapshot (or -snapshot-on-exit), resuming
// placement, traffic, tuner hysteresis, and round numbering; the
// topology and host flags are then ignored in favor of the recorded
// plant. -audit-events sizes the decision-provenance ring served at
// /v1/audit; -flight-dir arms the anomaly-triggered flight recorder
// (and POST /v1/flightrecorder) writing bundles under that directory.
// Rounds run on a worker pool of GOMAXPROCS workers.
package main

import (
	"flag"
	"fmt"
	"log/slog"
	"os"
	"os/signal"
	"syscall"
	"time"

	"github.com/score-dc/score/internal/cluster"
	"github.com/score-dc/score/internal/obs"
	"github.com/score-dc/score/internal/serve"
	"github.com/score-dc/score/internal/topology"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "scored:", err)
		os.Exit(1)
	}
}

func run() error {
	addr := flag.String("addr", "127.0.0.1:9090", "listen address for the API + observability plane")
	topoFlag := flag.String("topo", "fattree", "topology family: fattree or canonical")
	k := flag.Int("k", 4, "fat-tree arity (fattree)")
	racks := flag.Int("racks", 16, "racks (canonical)")
	hostsPerRack := flag.Int("hosts-per-rack", 5, "hosts per rack (canonical)")
	slots := flag.Int("slots", 16, "VM slots per host")
	ramMB := flag.Int("ram-mb", 32768, "guest RAM per host, MB")
	cpuMilli := flag.Int("cpu-milli", 0, "CPU millicores per host (0 disables CPU admission)")
	nicMbps := flag.Float64("nic-mbps", 1000, "host NIC speed, Mb/s")
	cm := flag.Float64("cm", 0, "migration cost c_m (Theorem 1)")
	roundInterval := flag.Duration("round-interval", time.Second, "background round pacing; 0 = manual rounds only")
	ingestQueue := flag.Int("ingest-queue", 256, "bounded op-queue depth")
	enqueueTimeout := flag.Duration("enqueue-timeout", 50*time.Millisecond, "how long a full queue blocks a request before 503")
	snapshotPath := flag.String("snapshot", "", "default target for POST /v1/snapshot")
	snapshotOnExit := flag.Bool("snapshot-on-exit", false, "write a snapshot to -snapshot on clean shutdown")
	restorePath := flag.String("restore", "", "boot from this snapshot instead of an empty cluster")
	traceEvents := flag.Int("trace-events", 1<<14, "round-trace ring capacity (0 disables tracing)")
	auditEvents := flag.Int("audit-events", 1<<14, "decision-audit ring capacity (0 disables /v1/audit)")
	flightDir := flag.String("flight-dir", "", "arm the flight recorder, writing anomaly bundles under this directory")
	logLevel := flag.String("log-level", "info", "log verbosity: debug, info, warn or error")
	flag.Parse()

	var level slog.Level
	if err := level.UnmarshalText([]byte(*logLevel)); err != nil {
		return fmt.Errorf("bad -log-level %q: %w", *logLevel, err)
	}
	logger := slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: level}))
	slog.SetDefault(logger)

	if *snapshotOnExit && *snapshotPath == "" {
		return fmt.Errorf("-snapshot-on-exit needs -snapshot")
	}
	cfg := serve.Config{
		MigrationCost:  *cm,
		RoundInterval:  *roundInterval,
		IngestQueue:    *ingestQueue,
		EnqueueTimeout: *enqueueTimeout,
		SnapshotPath:   *snapshotPath,
		Flight:         *flightDir,
		Logger:         logger,
	}
	if *traceEvents > 0 {
		cfg.Trace = obs.NewTracer(*traceEvents)
	}
	if *auditEvents > 0 {
		cfg.Audit = obs.NewAuditRing(*auditEvents)
	}

	var d *serve.Daemon
	var err error
	if *restorePath != "" {
		d, err = serve.Restore(*restorePath, cfg)
	} else {
		switch *topoFlag {
		case "fattree":
			cfg.Topology = serve.TopologySpec{Kind: "fattree", K: *k, HostLinkMbps: *nicMbps}
		case "canonical":
			canon := topology.ScaledCanonicalConfig(*racks, *hostsPerRack)
			cfg.Topology = serve.TopologySpec{Kind: "canonical", Canonical: &canon}
		default:
			return fmt.Errorf("unknown topology %q", *topoFlag)
		}
		topo, terr := cfg.Topology.Build()
		if terr != nil {
			return terr
		}
		cfg.Hosts = cluster.UniformHosts(topo.Hosts(), *slots, *ramMB, *nicMbps)
		if *cpuMilli > 0 {
			for i := range cfg.Hosts {
				cfg.Hosts[i].CPUMilli = *cpuMilli
			}
		}
		d, err = serve.New(cfg)
	}
	if err != nil {
		return err
	}
	obs.RegisterRuntime(d.Registry())

	srv, err := obs.Serve(*addr, d.Handler())
	if err != nil {
		d.Close()
		return err
	}
	mode := "auto"
	if *roundInterval <= 0 {
		mode = "manual"
	}
	logger.Info("serving", "addr", srv.Addr(), "vms", len(d.PlacementSnapshot()), "mode", mode,
		"audit", *auditEvents > 0, "flight", *flightDir != "")

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	s := <-sig
	logger.Info("shutting down", "signal", s.String())
	srv.Close()
	if *snapshotOnExit {
		if path, serr := d.Snapshot(""); serr != nil {
			logger.Error("exit snapshot failed", "err", serr)
		} else {
			logger.Info("state snapshotted", "path", path)
		}
	}
	return d.Close()
}
