// Package darwin is a from-scratch Go implementation of Darwin, the
// flexible learning-based CDN cache management system of Chen et al.
// (ACM SIGCOMM 2023).
//
// Darwin tunes the admission policy of a CDN server's Hot Object Cache
// (HOC) online. Admission policies are "experts" — (frequency, size[,
// recency]) threshold tuples — and Darwin selects among them with a
// three-stage pipeline:
//
//  1. offline, historical traces are evaluated under every expert, clustered
//     by traffic features, and each cluster is associated with a small set
//     of promising experts;
//  2. offline, cross-expert prediction networks are trained to estimate one
//     expert's hit rate from another's observed behaviour;
//  3. online, each epoch estimates the current traffic's features, matches a
//     cluster, and runs a Track-and-Stop-with-Side-Information bandit that
//     identifies the best expert in the cluster's set, which is then
//     deployed for the remainder of the epoch.
//
// This package exports exactly what its runnable examples call (quickstart,
// trafficshift, diskwrites and cluster in example_test.go; `go test -run
// Example -v .` runs them and checks their output). DESIGN.md maps the
// system behind it.
package darwin

import (
	"darwin/internal/cache"
	"darwin/internal/core"
	"darwin/internal/lb"
	"darwin/internal/trace"
	"darwin/internal/tracegen"
)

// Trace is an ordered sequence of (object ID, size, timestamp) requests.
type Trace = trace.Trace

// ConcatTraces joins traces end-to-end with shifted timestamps, modelling
// load-balancer-driven traffic mix changes.
var ConcatTraces = trace.Concat

// ImageDownloadMix generates the paper's canonical two-class synthetic mix
// with the given Image percentage.
var ImageDownloadMix = tracegen.ImageDownloadMix

// Expert is an HOC admission policy: admit objects requested more than Freq
// times with size at most MaxSize (and, optionally, last requested at most
// MaxAge requests ago).
type Expert = cache.Expert

// ExpertGrid builds the cross product of frequency and size thresholds.
var ExpertGrid = cache.Grid

// CacheConfig parameterises a two-level HOC+DC cache.
type CacheConfig = cache.Config

// CacheMetrics accumulates cache performance counters (OHR, BMR, disk
// writes, ...).
type CacheMetrics = cache.Metrics

// NewCache builds a two-level cache.
var NewCache = cache.New

// EvalConfig configures a single-expert trace evaluation.
type EvalConfig = cache.EvalConfig

// Evaluate plays a trace through a fresh cache under one expert.
var Evaluate = cache.Evaluate

// DatasetConfig configures BuildDataset.
type DatasetConfig = core.DatasetConfig

// BuildDataset evaluates every expert on every training trace and extracts
// features (offline step 0).
var BuildDataset = core.BuildDataset

// TrainConfig configures offline training.
type TrainConfig = core.TrainConfig

// Train runs offline clustering, expert-set association, and cross-expert
// predictor training (steps 1a/1b).
var Train = core.Train

// Objective maps cache behaviour to the scalar reward Darwin maximises.
type Objective = core.Objective

// Built-in objectives.
type (
	// OHRObjective maximises the HOC object hit rate.
	OHRObjective = core.OHRObjective
	// CombinedObjective maximises OHR − K·(disk-write pressure).
	CombinedObjective = core.CombinedObjective
)

// OnlineConfig parameterises the online selection loop (N_e, N_warmup,
// N_round, the stability stop; δ is fixed at 0.05).
type OnlineConfig = core.OnlineConfig

// NewController wires a trained model to a cache.
var NewController = core.NewController

// LoadBalancerConfig parameterises the cluster load-balancing model of §2.1
// (consistent hashing with bounded loads and periodic re-evaluation).
type LoadBalancerConfig = lb.Config

// SplitTrace routes a global trace through a load balancer and returns each
// server's sub-trace — the mechanism that imposes per-server traffic-mix
// shifts.
var SplitTrace = lb.Split
