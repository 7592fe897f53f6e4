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
// # Quick start
//
//	trainTraces := ...                     // []*darwin.Trace of historical traffic
//	ds, _ := darwin.BuildDataset(trainTraces, darwin.DatasetConfig{})
//	model, _ := darwin.Train(ds, darwin.TrainConfig{})
//	hier, _ := darwin.NewCache(darwin.CacheConfig{HOCBytes: 2 << 20, DCBytes: 200 << 20})
//	ctrl, _ := darwin.NewController(model, hier, darwin.DefaultOnlineConfig())
//	for _, r := range live.Requests {
//	    ctrl.Serve(r)                      // admission adapts online
//	}
//
// See examples/ for runnable programs and DESIGN.md for the system map.
package darwin

import (
	"darwin/internal/bandit"
	"darwin/internal/cache"
	"darwin/internal/core"
	"darwin/internal/features"
	"darwin/internal/lb"
	"darwin/internal/server"
	"darwin/internal/trace"
	"darwin/internal/tracegen"
)

// Request is one CDN request: (object ID, size, timestamp).
type Request = trace.Request

// Trace is an ordered request sequence.
type Trace = trace.Trace

// TraceStats summarises a trace.
type TraceStats = trace.Stats

// ConcatTraces joins traces end-to-end with shifted timestamps, modelling
// load-balancer-driven traffic mix changes.
var ConcatTraces = trace.Concat

// ReadTrace decodes a trace from its "id size time" line format.
var ReadTrace = trace.Read

// Expert is an HOC admission policy: admit objects requested more than Freq
// times with size at most MaxSize (and, optionally, last requested at most
// MaxAge requests ago).
type Expert = cache.Expert

// ExpertGrid builds the cross product of frequency and size thresholds.
var ExpertGrid = cache.Grid

// ExpertGrid3 builds a three-knob (frequency, size, recency) grid.
var ExpertGrid3 = cache.Grid3

// DefaultExpertGrid is the scaled 36-expert grid used throughout the
// reproduction.
var DefaultExpertGrid = cache.DefaultGrid

// CacheConfig parameterises a two-level cache.
type CacheConfig = cache.Config

// Cache is the two-level HOC+DC cache server model.
type Cache = cache.Hierarchy

// CacheMetrics accumulates cache performance counters (OHR, BMR, disk
// writes, ...).
type CacheMetrics = cache.Metrics

// CacheResult says where a request was served from.
type CacheResult = cache.Result

// Request outcomes.
const (
	HOCHit = cache.HOCHit
	DCHit  = cache.DCHit
	Miss   = cache.Miss
	Seen   = cache.Seen
)

// NewCache builds a two-level cache.
func NewCache(cfg CacheConfig) (*Cache, error) { return cache.New(cfg) }

// CacheEngine is the cache data-plane seam shared by the simulator, the
// proxy, and the online controller: Cache implements it for serial replay,
// ShardedCache for the concurrent data plane.
type CacheEngine = cache.Engine

// ShardedCache is the concurrent cache engine: N independent cache shards
// with id-hash routing, per-shard locks, and lock-free aggregate metrics.
// One shard reproduces the serial Cache bit-for-bit.
type ShardedCache = cache.Sharded

// NewShardedCache builds a sharded engine, splitting capacities evenly
// across shards (shards <= 0 selects 1).
var NewShardedCache = cache.NewSharded

// AutoShards picks a shard count for this process: 1 (serial, no routing or
// striping overhead) when GOMAXPROCS is 1, otherwise GOMAXPROCS rounded up
// to a power of two so shard routing is a mask.
var AutoShards = cache.AutoShards

// EvalConfig configures single-expert trace evaluations.
type EvalConfig = cache.EvalConfig

// Evaluate plays a trace through a fresh cache under one expert.
var Evaluate = cache.Evaluate

// EvaluateAll evaluates every expert on a trace.
var EvaluateAll = cache.EvaluateAll

// FeatureConfig sets the traffic feature vector shape.
type FeatureConfig = features.Config

// DefaultFeatureConfig returns the paper's 15-entry vector shape.
var DefaultFeatureConfig = features.DefaultConfig

// FeatureExtractor accumulates traffic features over a request stream.
type FeatureExtractor = features.Extractor

// NewFeatureExtractor builds an extractor.
var NewFeatureExtractor = features.NewExtractor

// Dataset is the offline evaluation of a training corpus.
type Dataset = core.Dataset

// DatasetConfig configures BuildDataset.
type DatasetConfig = core.DatasetConfig

// BuildDataset evaluates every expert on every training trace and extracts
// features (offline step 0).
var BuildDataset = core.BuildDataset

// TrainConfig configures offline training.
type TrainConfig = core.TrainConfig

// Model is Darwin's trained offline state.
type Model = core.Model

// Train runs offline clustering, expert-set association, and cross-expert
// predictor training (steps 1a/1b).
var Train = core.Train

// Objective maps cache behaviour to the scalar reward Darwin maximises.
type Objective = core.Objective

// Built-in objectives.
type (
	// OHRObjective maximises the HOC object hit rate.
	OHRObjective = core.OHRObjective
	// BMRObjective minimises the HOC byte miss ratio.
	BMRObjective = core.BMRObjective
	// CombinedObjective maximises OHR − K·(disk-write pressure).
	CombinedObjective = core.CombinedObjective
)

// ObjectiveByName returns "ohr", "bmr", or "combined".
var ObjectiveByName = core.ObjectiveByName

// OnlineConfig parameterises the online selection loop (N_e, N_warmup,
// N_round, the stability stop; δ is fixed at 0.05).
type OnlineConfig = core.OnlineConfig

// DefaultOnlineConfig returns the scaled online defaults.
var DefaultOnlineConfig = core.DefaultOnlineConfig

// Controller drives Darwin's online phase over a cache.
type Controller = core.Controller

// NewController wires a trained model to a cache engine (a *Cache or a
// *ShardedCache).
var NewController = core.NewController

// EpochDiag records one epoch's online decisions.
type EpochDiag = core.EpochDiag

// WriteModel serialises a trained model as JSON (see cmd/darwin-train).
var WriteModel = core.WriteModel

// ReadModel restores a model written by WriteModel.
var ReadModel = core.ReadModel

// OfflineOptimalOHR computes the clairvoyant (Belady-style) hit-rate bound
// for a cache of the given capacity — the "hindsight optimal" reference.
var OfflineOptimalOHR = cache.OfflineOptimalOHR

// EvictionSelectorConfig parameterises online eviction-policy selection, the
// paper's §7 future-work extension.
type EvictionSelectorConfig = core.EvictionSelectorConfig

// EvictionSelector applies Darwin's expert-selection machinery to HOC
// eviction policies.
type EvictionSelector = core.EvictionSelector

// NewEvictionSelector wires a selector to a cache.
var NewEvictionSelector = core.NewEvictionSelector

// BanditConfig parameterises Track and Stop with Side Information directly
// (most callers use Controller instead).
type BanditConfig = bandit.Config

// Bandit is the best-arm identification algorithm of §4.2.
type Bandit = bandit.Algorithm

// NewBandit validates a configuration and returns a fresh identification
// run.
var NewBandit = bandit.New

// TrafficClass describes one synthetic traffic class for the Tragen-like
// generator.
type TrafficClass = tracegen.Class

// Predefined traffic classes.
var (
	ImageClass    = tracegen.Image
	DownloadClass = tracegen.Download
	WebClass      = tracegen.Web
	VideoClass    = tracegen.Video
	ScanClass     = tracegen.Scan
)

// MixConfig configures a mixed-class synthetic trace.
type MixConfig = tracegen.MixConfig

// GenerateTrace produces a mixed synthetic trace.
var GenerateTrace = tracegen.Generate

// ImageDownloadMix generates the paper's canonical two-class mix.
var ImageDownloadMix = tracegen.ImageDownloadMix

// LoadBalancerConfig parameterises the cluster load-balancing model of §2.1
// (consistent hashing with bounded loads and periodic re-evaluation).
type LoadBalancerConfig = lb.Config

// LoadBalancer routes object ids to server indices (Route(id)).
type LoadBalancer = lb.Ring

// NewLoadBalancer builds a cluster balancer.
var NewLoadBalancer = lb.NewRing

// SplitTrace routes a global trace through a load balancer and returns each
// server's sub-trace — the mechanism that imposes per-server traffic-mix
// shifts.
var SplitTrace = lb.Split

// Origin is the prototype's origin server.
type Origin = server.Origin

// Proxy is the prototype's CDN caching proxy.
type Proxy = server.Proxy

// NewProxy builds a proxy around a concurrency-safe cache decider (one over
// NewShardedCache); its last two arguments gate the request pipeline's
// fault-tolerance and overload-protection stages.
var NewProxy = server.NewOverloadProxy

// DefaultResilience and DefaultOverload return the stage settings
// cmd/darwin-proxy deploys, for NewProxy.
var (
	DefaultResilience = server.DefaultResilience
	DefaultOverload   = server.DefaultOverload
)

// LoadConfig configures the prototype load generator.
type LoadConfig = server.LoadConfig

// LoadResult aggregates a load-generation run.
type LoadResult = server.LoadResult

// RunLoad replays a trace against a proxy.
var RunLoad = server.RunLoad
