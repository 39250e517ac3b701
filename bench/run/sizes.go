package main

import "github.com/score-dc/score"

// sizes fixes every instance and work size. The benchmark runs at
// refSizes; the smoke test has a toy set so `go test` can run every
// workload in seconds.
type sizes struct {
	name string

	// converge: fat-tree arity, VMs per host, passes of roundsPerPass
	// RunRounds each.
	convergeK, vmsPerHost, convergePasses, roundsPerPass int

	// ingest and react: the daemon's fat-tree arity (vmsPerHost as
	// above); observe requests, samples per request and warm-up
	// requests; react cycles, warm-up cycles and hotspot group size.
	daemonK                                    int
	ingestRequests, ingestBatch, ingestWarm    int
	reactCycles, reactWarm, reactGroup         int
	minPasses, minRequests, minCycles, minRuns int

	// paper: the canonical tree, VMs per host, Runs, warm-up Runs and
	// token passes per Run.
	paperTree                                          score.CanonicalConfig
	paperVMsPerHost, paperRuns, paperWarm, paperPasses int
}

// refSizes are the benchmark's sizes: what --seconds 15 does.
func refSizes() sizes {
	return sizes{
		name:      "ref",
		convergeK: 24, vmsPerHost: 30, convergePasses: 4, roundsPerPass: 16,
		daemonK:        16,
		ingestRequests: 7000, ingestBatch: 1024, ingestWarm: 400,
		reactCycles: 220, reactWarm: 10, reactGroup: 64,
		minPasses: 1, minRequests: 400, minCycles: 20, minRuns: 6,
		paperTree:       score.PaperCanonicalConfig(),
		paperVMsPerHost: 4, paperRuns: 48, paperWarm: 8, paperPasses: 4,
	}
}
