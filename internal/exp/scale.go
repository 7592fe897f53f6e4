package exp

import (
	"darwin/internal/cache"
	"darwin/internal/core"
)

// Scale fixes every size knob of the reproduction so the same experiment
// code runs as a fast benchmark or a fuller offline study (DESIGN.md §5).
type Scale struct {
	// OfflineTraceLen is the length of each offline training trace.
	OfflineTraceLen int
	// OnlineTraceLen is the length of each online test trace.
	OnlineTraceLen int
	// MixStep is the Image:Download percentage step between configurations
	// (paper: 1 → 100 configurations; scaled: 25 → 5).
	MixStep int
	// TrainSeeds and TestSeeds are the traces generated per configuration
	// (paper: 7 train + 3 test).
	TrainSeeds, TestSeeds int
	// Eval sizes the simulated cache.
	Eval cache.EvalConfig
	// Online is Darwin's online-phase configuration.
	Online core.OnlineConfig
	// Experts is the static expert grid.
	Experts []cache.Expert
	// NumClusters is the offline K-means K.
	NumClusters int
	// ThetaPct is the expert-set threshold θ.
	ThetaPct float64
	// Seed makes the whole pipeline deterministic.
	Seed int64
}

// Small returns the benchmark scale: 10 training and 5 test traces over a
// 256 KB HOC. Every experiment finishes in seconds while preserving the
// paper's ratios (warm-up 10%, N_warmup 3%, N_round ~1%).
func Small() Scale {
	return Scale{
		OfflineTraceLen: 20_000,
		OnlineTraceLen:  40_000,
		MixStep:         25,
		TrainSeeds:      2,
		TestSeeds:       1,
		Eval:            cache.EvalConfig{HOCBytes: 256 << 10, DCBytes: 32 << 20, WarmupFrac: 0.1},
		Online: core.OnlineConfig{
			Epoch:           40_000,
			Warmup:          1_200,
			Round:           500,
			StabilityRounds: 5,
		},
		Experts:     cache.Grid([]int{1, 2, 3, 5, 7}, []int64{2 << 10, 10 << 10, 50 << 10, 200 << 10, 1 << 20}),
		NumClusters: 4,
		ThetaPct:    1,
		Seed:        1,
	}
}

// Default returns the scaled operating point of DESIGN.md §5: a 2 MB HOC,
// 200 MB DC, 40k-request offline traces and 200k-request online traces, with
// the paper's 36-expert grid. Intended for cmd/experiments runs.
func Default() Scale {
	return Scale{
		OfflineTraceLen: 40_000,
		OnlineTraceLen:  200_000,
		MixStep:         10,
		TrainSeeds:      3,
		TestSeeds:       1,
		Eval:            cache.DefaultEvalConfig(),
		Online:          core.DefaultOnlineConfig(),
		Experts:         cache.DefaultGrid(),
		NumClusters:     8,
		ThetaPct:        1,
		Seed:            1,
	}
}
