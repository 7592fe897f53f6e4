package core_test

import (
	"testing"

	"darwin/internal/core"
	"darwin/internal/exp"
	"darwin/internal/trace"
	"darwin/internal/tracegen"
)

// BenchmarkBuildDataset prices offline training's replay layer for one
// trace per op: exp.Small()'s 25-expert grid and eval config over a
// 20k-request trace, with BuildCorpus's warm-up feature window. The op fans
// out into 26 par tasks (25 replays and the feature extraction), so it uses
// every worker. Every benchmark repetition and every training node pays this
// once per training trace.
func BenchmarkBuildDataset(b *testing.B) {
	sc := exp.Small()
	tr, err := tracegen.ImageDownloadMix(50, sc.OfflineTraceLen, 1)
	if err != nil {
		b.Fatal(err)
	}
	cfg := core.DatasetConfig{Experts: sc.Experts, Eval: sc.Eval, FeatureWindow: sc.Online.Warmup}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.BuildDataset([]*trace.Trace{tr}, cfg); err != nil {
			b.Fatal(err)
		}
	}
}
